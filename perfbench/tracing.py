"""In-memory spans recorded around the benchmark's calls into stexp layers.

A span has a name (``<layer>.<function>``), start and end times from
``time.perf_counter``, the index of the span that was open when it started,
and the run id. Spans stay in memory and are summarised or written out when
the run ends. With tracing off the same call sites go through ``NullTracer``,
whose spans record nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for a root span
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its direct children."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child_time)]

    def layer_self_seconds(self, root_name: str) -> dict[str, float]:
        """Self time per layer, summed over the subtrees of every span called root_name."""
        inside = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            inside[i] = s.name == root_name or (s.parent is not None and inside[s.parent])
        totals: dict[str, float] = {}
        for s, own, keep in zip(self.spans, self.self_times(), inside):
            if keep:
                totals[s.layer] = totals.get(s.layer, 0.0) + own
        return totals

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run_id": s.run_id}
            for s in self.spans
        ]


class NullTracer:
    @contextmanager
    def span(self, name: str):
        yield
