"""Self-test of the benchmark at the tiny size.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracle
import workloads
from stexp import data, evaluation

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = replace(workloads.SIZES["tiny"], epochs=3)


def untimed(name):
    return contextlib.nullcontext()


def run_tiny(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    line = run_tiny(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(isinstance(v["value"], float) and np.isfinite(v["value"]) for v in line["metrics"].values())
    if workload != "fold_train":  # tiny training is too short to clear the quality checks
        assert line["correct"] and line["failed"] == 0


@pytest.fixture(scope="module")
def tiny_slides(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    data.synth_generate(TINY.gen_config(TINY.train_slides), 5, root)
    return data.load_dataset(root)


def test_staged_fold_equals_run_fold(tiny_slides):
    test_id = tiny_slides[1].slide_id
    record, checkpoint, *_ = workloads.staged_fold(tiny_slides, test_id, TINY, 11, untimed)
    want, want_ckpt = evaluation.run_fold(tiny_slides, test_id, TINY.hvg, TINY.train_config(0, TINY.epochs),
                                          TINY.encoder_config(), TINY.k, 11)
    assert record == want
    for name, t in want_ckpt.params.items():
        assert checkpoint.params[name].data.tobytes() == t.data.tobytes()


def test_same_seed_repeats_pcc_acg(tiny_slides):
    test_id = tiny_slides[0].slide_id
    first = workloads.staged_fold(tiny_slides, test_id, TINY, 4, untimed)[0].pcc_acg
    second = workloads.staged_fold(tiny_slides, test_id, TINY, 4, untimed)[0].pcc_acg
    assert first == second


def test_oracle_catches_a_planted_wrong_neighbour():
    rng = np.random.default_rng(0)
    emb = rng.standard_normal((300, 16)).astype(np.float32)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    expr = rng.uniform(0.0, 5.0, (300, 6)).astype(np.float32)
    queries = emb[:8] + 0.3 * rng.standard_normal((8, 16)).astype(np.float32)
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    k = 7
    cos = oracle.cosines64(emb, queries)
    pred = np.stack([oracle.weighted_prediction(oracle.top_k_rows(cos[:, i], k), queries[i], emb, expr)
                     for i in range(8)])
    assert oracle.check_predictions(pred, queries, emb, expr, k, oracle.OracleReport()) == []

    rows = oracle.top_k_rows(cos[:, 5], k + 1)
    planted = pred.copy()
    planted[5] = oracle.weighted_prediction(np.r_[rows[: k - 1], rows[k]], queries[5], emb, expr)
    report = oracle.OracleReport()
    assert oracle.check_predictions(planted, queries, emb, expr, k, report) == [5]
    assert report.failed == 1 and report.queries == 8


def test_oracle_accepts_float32_near_ties_only():
    rng = np.random.default_rng(1)
    n, d, k = 200, 16, 7
    first = rng.uniform(-0.9, 0.9, n)
    first[0] = -0.95  # row 0 starts far outside the top k
    rest = rng.standard_normal((n, d - 1))
    rest *= (np.sqrt(1.0 - first**2) / np.linalg.norm(rest, axis=1))[:, None]
    emb = np.column_stack([first, rest]).astype(np.float32)
    query = np.eye(1, d, dtype=np.float32)  # a row's cosine is its first coordinate
    expr = rng.uniform(0.0, 5.0, (n, 6)).astype(np.float32)
    rows = oracle.top_k_rows(oracle.cosines64(emb, query)[:, 0], k)
    kth = rows[-1]

    # One float32 step below the k-th row, row 0 can tie with it when scored
    # in float32, and the tie goes to the lower row id.
    emb[0, 0] = np.nextafter(emb[kth, 0], np.float32(-1.0))
    assert np.array_equal(oracle.top_k_rows(oracle.cosines64(emb, query)[:, 0], k), rows)
    tied = oracle.weighted_prediction(np.r_[rows[:-1], 0], query[0], emb, expr)[None]
    report = oracle.OracleReport()
    assert oracle.check_predictions(tied, query, emb, expr, k, report) == []
    assert report.near_ties == 1

    # Beyond float32's error bound the same swap is a wrong neighbour.
    emb[0, 0] = emb[kth, 0] - 10 * oracle.float32_swap_slack(emb, query[0])
    wrong = oracle.weighted_prediction(np.r_[rows[:-1], 0], query[0], emb, expr)[None]
    report = oracle.OracleReport()
    assert oracle.check_predictions(wrong, query, emb, expr, k, report) == [0]
    assert report.near_ties == 0
