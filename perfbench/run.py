"""stexp benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload fold_train --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; stexp is imported from its ``src``.
The workload's inputs are generated from ``--seed``. Set-up is repeated and
its median reported as ``setup_s``; after one untimed warm-up, requests run
in a closed loop with one client until ``--seconds`` have passed (at least
one request, two when traced). Every request's outputs are checked.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced requests, reports the per-layer metrics from the spans
and from a probe of each layer's public functions, and the tracing overhead
as the traced requests' median latency over the untraced ones'.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record, with the
environment, every check and (when traced) every span, is written to
``perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Threads are pinned before numpy loads: under contention on a small shared
# host, default BLAS threading measured 5x slower per training step.
if "numpy" in sys.modules and any(os.environ.get(v) != "1" for v in BLAS_THREAD_VARS):
    sys.exit(f"run.py: numpy was imported before {' and '.join(BLAS_THREAD_VARS)} were set to 1; "
             "start the benchmark in a fresh interpreter")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Gated by BENCHMARK.json; every workload reports each of them.
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "request_ms_p50": "ms", "items_per_s": "1/s"}
# Layers the requests call directly. encoders is reached only through
# contrastive and inference, so its time is in theirs: the probe times it.
LAYERS = ("data", "contrastive", "inference", "evaluation")
# setup_s is the median of at least 3 samples that together take at least a
# third of --seconds. A sample repeats the set-up until a thirtieth of
# --seconds has passed and reports the time per set-up. On a shared 2-vCPU
# host, speed swung by up to 1.75x in spells of seconds; a cheap set-up
# (~0.2 s) timed once lands inside one spell.
SETUP_SAMPLES = 3
SETUP_SHARE = 1 / 3
SETUP_SAMPLE_SHARE = 1 / 30


def parse_args(argv):
    p = argparse.ArgumentParser(description="stexp benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="problem size; tiny exists only for the benchmark's self-test")
    return p.parse_args(argv)


def import_stexp():
    if not (SRC / "stexp" / "__init__.py").is_file():
        sys.exit(f"run.py: no stexp sources at {SRC}; run from a full source checkout")
    sys.path.insert(0, str(SRC))
    import stexp

    if Path(stexp.__file__).resolve().parent != SRC / "stexp":
        sys.exit(f"run.py: imported stexp from {stexp.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "l3_cache": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "nproc": len(os.sched_getaffinity(0)),
        **{v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "reference_gemm_ms": reference_gemm_ms(),
    }


def reference_gemm_ms() -> float:
    """Median time of a fixed 1024^3 float32 GEMM: this host's speed during the run, apart from stexp.

    The shared host's speed drifts by tens of percent over minutes; comparing
    this figure tells host drift from a change in stexp.
    """
    import numpy

    a = numpy.random.default_rng(0).standard_normal((1024, 1024), dtype=numpy.float32)
    times = []
    for _ in range(15):
        start = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _read_first(path: str, key: str | None = None) -> str:
    """The first line of a system file, or the value of its first `key:` line."""
    try:
        with open(path) as f:
            for line in f:
                if key is None:
                    return line.strip()
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run(args) -> dict:
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    size = workloads.SIZES[args.size]
    run_id = uuid.uuid4().hex[:12]
    tracer = tracing.Tracer(run_id) if args.trace else tracing.NullTracer()
    null = tracing.NullTracer()
    workdir = OUT_DIR / f"work-{args.workload}-{run_id}"
    workdir.mkdir(parents=True)
    w = workloads.WORKLOADS[args.workload](size, args.seed, workdir, tracer)
    try:
        setup_times = time_setup(w, tracer, args.seconds)
        w.warm_up()

        untraced, traced, items = [], [], 0
        start = time.perf_counter()
        i = 0
        while True:
            on = bool(args.trace) and i % 2 == 1
            w.tracer = tracer if on else null
            t0 = time.perf_counter()
            with w.tracer.span("request"):
                items += w.request(i)
            (traced if on else untraced).append(time.perf_counter() - t0)
            w.tracer = tracer
            w.check()
            i += 1
            if time.perf_counter() - start >= args.seconds and i >= 1 + args.trace:
                break
        latencies = untraced + traced
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        end_to_end = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "request_ms_p50": statistics.median(latencies) * 1e3,
            "items_per_s": items / sum(latencies),
        }
        named = w.named_metrics(latencies, items)
        per_layer = None
        if args.trace:
            per_layer = layer_metrics(w, tracer, untraced, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "run_id": run_id,
        "environment": environment(),
        "requests": len(latencies),
        "items": items,
        "item_unit": w.item_unit,
        "setup_times_s": setup_times,
        "latencies_s": latencies,
        "checks": {"attempted": w.checks.attempted, "failed": w.checks.failed,
                   "failed_frac": w.checks.failed / w.checks.attempted,
                   "failures": sorted(set(w.checks.failures))},
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()},
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "per_layer": None if per_layer is None else {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "spans": tracer.to_records() if args.trace else None,
    }


def time_setup(w, tracer, seconds: float) -> list[float]:
    """Seconds per set-up, one figure per sample."""
    samples, total = [], 0.0
    while len(samples) < SETUP_SAMPLES or total < SETUP_SHARE * seconds:
        repeats, start = 0, time.perf_counter()
        while repeats == 0 or time.perf_counter() - start < SETUP_SAMPLE_SHARE * seconds:
            with tracer.span("setup"):
                w.setup()
            repeats += 1
        elapsed = time.perf_counter() - start
        samples.append(elapsed / repeats)
        total += elapsed
    return samples


def layer_metrics(w, tracer, untraced, traced) -> dict:
    """Per-layer metrics of a traced run: span and call timings, then the layer probe."""
    import layers

    def med(name):
        return statistics.median(w.times[name])

    before_probe = len(tracer.spans)
    request_total = sum(s.duration for s in tracer.named("request"))
    self_seconds = tracer.layer_self_seconds("request")
    probe, mismatches = layers.probe(w.probe_inputs(), w.workdir, w.timed)
    w.checks.record(not mismatches, f"re-invoked diffcore ops do not reproduce the graph: {mismatches}")

    out = dict(probe)
    out["contrastive.fit_s"] = (med("contrastive.fit"), "s")
    out["contrastive.steps"] = (float(w.fit_steps), "count")
    out["contrastive.fit_overhead_ms_per_step"] = (
        med("contrastive.fit") / w.fit_steps * 1e3 - probe["contrastive.step_ms"][0], "ms")
    out["contrastive.load_checkpoint_ms"] = (med("contrastive.load_checkpoint") * 1e3, "ms")
    for name in ("data.synth_generate", "data.load_dataset", "data.preprocess", "data.transform_slide",
                 "inference.build_index", "inference.save_index", "inference.load_index"):
        out[f"{name}_s"] = (med(name), "s")
    out["inference.queries"] = (w.queries + probe["inference.queries"][0], "count")
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = (100.0 * self_seconds.get(layer, 0.0) / request_total, "%")
    out["trace.overhead_pct"] = (100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0), "%")
    out["trace.spans"] = (float(before_probe), "count")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_stexp()
    sys.path.insert(0, str(BENCH_DIR))
    result = run(args)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    checks = result["checks"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {result['requests']}  ({result['items']} {result['item_unit']})")
    shown = {**result["end_to_end"], "failed_frac": {"value": checks["failed_frac"], "unit": "fraction"},
             **result["workload_metrics"], **(result["per_layer"] or {})}
    for name, m in shown.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    for failure in checks["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  environment: {json.dumps(result['environment'])}")
    print(f"  result file: {path.relative_to(ROOT)}")
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({"correct": checks["failed"] == 0, "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
