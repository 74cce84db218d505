"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --tag baseline

For each of the seeds 1-10, every workload named in BENCHMARK.json runs once
untraced, in turn, each in its own process; then each workload runs twice
with tracing on, at seeds 1 and 2. The summary gives, per workload and
metric, the median, the quartiles (``statistics.quantiles(n=4)``), and the
spread (q3 - q1) / median next to a third of the metric's bound, and the
per-layer medians of the traced runs. It is written to
``perfbench/results/BENCH_<tag>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(1, 11))
TRACED_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result_file = BENCH_DIR / "out" / f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    return {"line": json.loads(proc.stdout.strip().splitlines()[-1]), "result": json.loads(result_file.read_text())}


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tag", required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in names}
    traced: dict[str, list[dict]] = {w: [] for w in names}
    for seed in SEEDS:
        for w in names:
            runs[w].append(run_once(w, seed, spec["run_seconds"], 0))
            print(f"{w} seed {seed}: {json.dumps(runs[w][-1]['line'])}", flush=True)
    for seed in SEEDS[:TRACED_RUNS]:
        for w in names:
            traced[w].append(run_once(w, seed, spec["run_seconds"], 1))

    out = {"seeds": SEEDS, "run_seconds": spec["run_seconds"],
           "environment": runs[names[0]][0]["result"]["environment"], "workloads": {}}
    for w in names:
        rs = [r["result"] for r in runs[w]]
        e2e = {}
        for m in spec["end_to_end"]:
            s = summary([r["end_to_end"][m["name"]]["value"] for r in rs])
            e2e[m["name"]] = {"unit": m["unit"], "bound": m["bound"], "within_third_of_bound": s["spread"] <= m["bound"] / 3, **s}
        named = {k: {"unit": v["unit"], **summary([r["workload_metrics"][k]["value"] for r in rs])}
                 for k, v in rs[0]["workload_metrics"].items()}
        per_layer = {}
        if traced[w]:
            trs = [t["result"] for t in traced[w]]
            per_layer = {k: {"unit": v["unit"], "median": statistics.median(t["per_layer"][k]["value"] for t in trs)}
                         for k, v in trs[0]["per_layer"].items()}
        out["workloads"][w] = {
            "end_to_end": e2e,
            "workload_metrics": named,
            "checks": {"attempted": sum(r["checks"]["attempted"] for r in rs),
                       "failed": sum(r["checks"]["failed"] for r in rs),
                       "failures": sorted({f for r in rs for f in r["checks"]["failures"]})},
            "traced_runs": len(traced[w]),
            "per_layer": per_layer,
        }
        print(f"\n{w}")
        for name, s in {**e2e, **named}.items():
            flag = "" if s.get("within_third_of_bound", True) else "  SPREAD ABOVE BOUND/3"
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:<28} median {s['median']:<14.6g} {s['unit']:<8} spread {spread}{flag}")
        print(f"  checks failed {out['workloads'][w]['checks']['failed']} of {out['workloads'][w]['checks']['attempted']}")

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    path = results / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"\nwrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
