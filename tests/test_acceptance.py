"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Criteria tolerances are pinned here exactly as stated; calibrated
thresholds (ridge-oracle margin) are frozen in conftest.py with the
calibration record.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from stexp import diffcore as dc
from stexp.cli import main as cli_main
from stexp.cli import run_gradient_suite
from stexp.contrastive import TrainConfig, symmetric_ce
from stexp.data import load_dataset, preprocess, synth_generate
from stexp.encoders import EncoderConfig
from stexp.evaluation import (
    ari,
    compute_metrics,
    fold_seed,
    kmeans,
    mean_record,
    pca,
    run_fold,
)
from stexp.inference import (
    RetrievalIndex,
    aggregate_rows,
    build_index,
    encode_slide_patches,
    predict_slide,
    search,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(criterion: int, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


# -----------------------------------------------------------------------
# 1. published-benchmark reproducibility is out of scope; README documents it
# -----------------------------------------------------------------------


def test_criterion_01_limitation_documented_in_readme():
    readme = (REPO_ROOT / "README.md").read_text().lower()
    documented = "not reproduc" in readme and "synthetic" in readme
    report(1, documented, "README documents the desk-scale substitution")


# -----------------------------------------------------------------------
# 2. gradient suite: every primitive + the full loss graph, < 60 s
# -----------------------------------------------------------------------


def test_criterion_02_gradient_suite():
    start = time.monotonic()
    lines, passed = run_gradient_suite(eps=1e-5, tol=1e-4, seed=0)
    elapsed = time.monotonic() - start
    for line in lines:
        print("   ", line)
    report(2, passed and elapsed < 60.0, f"{len(lines)} checks in {elapsed:.1f}s")


# -----------------------------------------------------------------------
# 3. loss calibration
# -----------------------------------------------------------------------


def test_criterion_03_loss_calibration():
    def loss(sim):  # the training loss at temperature 1
        return float(symmetric_ce(dc.constant(sim), 1.0).data.reshape(()))

    ok = True
    for n in (2, 8, 64):
        ok &= abs(loss(np.zeros((n, n))) - math.log(n)) < 1e-6

    rng_losses = []
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        hp = rng.standard_normal((16, 256))
        hp /= np.linalg.norm(hp, axis=1, keepdims=True)
        hs = rng.standard_normal((16, 256))
        hs /= np.linalg.norm(hs, axis=1, keepdims=True)
        rng_losses.append(loss(hp @ hs.T))
    mean_loss = float(np.mean(rng_losses))
    ok &= abs(mean_loss - math.log(16)) <= 0.10 * math.log(16)
    report(3, ok, f"uniform=lnN exact, random-draw mean {mean_loss:.4f} vs ln16={math.log(16):.4f}")


# -----------------------------------------------------------------------
# shared trained state for criteria 4-7
# -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_trained(tmp_path_factory):
    """50-spot slides, 16 genes: the retrieval-oracle instance."""
    from stexp.contrastive import fit
    from stexp.data import GenConfig

    root = tmp_path_factory.mktemp("accept_small")
    gen = GenConfig(n_slides=3, spots_per_slide=50, gene_num=32, n_domains=4,
                    signal=1.0, patch_shape=(3, 16, 16))
    synth_generate(gen, 17, root)
    slides = load_dataset(root)
    ids = [s.slide_id for s in slides]
    ds = preprocess(slides, hvg_num=16, train_ids=ids[:2])
    ecfg = EncoderConfig(hvg_num=16, d_embed=32, n_heads=4, conv_channels=(8, 16),
                         proj_hidden=32, patch_shape=(3, 16, 16))
    tcfg = TrainConfig(batch_size=16, epochs=5, learning_rate=2e-3, temperature=0.05, seed=17)
    ckpt = fit(ds, tcfg, ecfg)
    index = build_index(ckpt, ds.train_slides())
    return ckpt, ds, index


def test_criterion_04_retrieval_oracle_equivalence(small_trained):
    ckpt, ds, index = small_trained
    test_slide = ds.test_slides()[0]
    assert test_slide.spot_num == 50 and test_slide.gene_num == 16
    start = time.monotonic()
    k = 9
    got = predict_slide(ckpt, index, test_slide, k=k)

    queries = encode_slide_patches(test_slide, ckpt)
    emb = index.embeddings.astype(np.float64)
    expr = index.expressions.astype(np.float64)
    want = np.empty_like(got)
    for i in range(test_slide.spot_num):
        q = queries[i].astype(np.float64)
        cos = emb @ q
        order = sorted(range(emb.shape[0]), key=lambda r: (-cos[r], r))[:k]
        d = np.sqrt(((emb[order] - q) ** 2).sum(axis=1))
        if np.any(d < 1e-8):
            want[i] = expr[order[int(np.argmin(d))]]
        else:
            w = d**-2.0
            want[i] = (w / w.sum()) @ expr[order]
    elapsed = time.monotonic() - start
    max_err = float(np.max(np.abs(got - want)))
    report(4, max_err <= 1e-6 and elapsed < 10.0, f"max |diff|={max_err:.2e} in {elapsed:.1f}s")


def test_criterion_05_aggregation_arithmetic(small_trained):
    _, _, index = small_trained
    ok = True

    # hand-computed: d=[1,2], e=[10],[20] -> 0.8*10 + 0.2*20 = 12.0
    tiny = RetrievalIndex(
        embeddings=np.eye(2, dtype=np.float32),
        expressions=np.array([[10.0], [20.0]], dtype=np.float32),
        provenance=[("r", 2)],
    )
    ok &= aggregate_rows(tiny, np.array([[0, 1]]), np.array([[1.0, 2.0]]))[0, 0] == 12.0

    # k=1 passthrough is exact
    row = int(np.random.default_rng(0).integers(index.size))
    ok &= np.array_equal(aggregate_rows(index, np.array([[row]]), np.array([[0.3]]))[0],
                         index.expressions[row].astype(np.float64))

    # convex bounds on 1000 random queries against the real index
    rng = np.random.default_rng(42)
    queries = np.array([rng.standard_normal(index.embeddings.shape[1]) for _ in range(1000)])
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    rows, _, dists = search(index, queries, 5)
    for out, neighbors in zip(aggregate_rows(index, rows, dists), rows):
        ref = index.expressions[neighbors].astype(np.float64)
        ok &= bool(np.all(out >= ref.min(axis=0) - 1e-9) and np.all(out <= ref.max(axis=0) + 1e-9))
    report(5, ok, "hand example exact, k=1 exact, 1000 convex-bound queries")


# -----------------------------------------------------------------------
# 6. end-to-end synthetic learning with calibrated margin
# -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def end_to_end(synth_dataset_dir):
    """Full leave-one-out on the acceptance dataset, keeping per-fold state."""
    slides = load_dataset(synth_dataset_dir)
    enc_cfg = EncoderConfig(hvg_num=64, d_embed=256, n_heads=4, conv_channels=(16, 32, 64),
                            proj_hidden=256, patch_shape=(3, 32, 32))
    train_cfg = TrainConfig(batch_size=64, epochs=40, learning_rate=2e-3,
                            temperature=0.05, seed=conftest.SYNTH_SEED)
    start = time.monotonic()
    folds = []
    for fold, slide in enumerate(slides):
        seed = fold_seed(train_cfg.seed, fold)
        record, checkpoint = run_fold(slides, slide.slide_id, 64, train_cfg, enc_cfg, k=50, seed=seed)
        dataset = preprocess(slides, hvg_num=64,
                             train_ids=[s.slide_id for s in slides if s.slide_id != slide.slide_id])
        index = build_index(checkpoint, dataset.train_slides())
        folds.append({
            "record": record,
            "checkpoint": checkpoint,
            "index": index,
            "test": dataset.get(slide.slide_id),
            "train_slides": dataset.train_slides(),
        })
    elapsed = time.monotonic() - start
    return folds, elapsed


def test_criterion_06_end_to_end_learning(end_to_end):
    folds, elapsed = end_to_end
    model_pcc = float(np.mean([f["record"].pcc_acg for f in folds]))

    # baseline (a): training-mean predictor
    mean_pccs = []
    for f in folds:
        train_mean = np.concatenate([s.expression for s in f["train_slides"]]).mean(axis=0)
        pred = np.tile(train_mean, (f["test"].spot_num, 1))
        mean_pccs.append(compute_metrics(pred, f["test"].expression).pcc_acg)
    baseline_mean = float(np.mean(mean_pccs))

    # baseline (b): random-retrieval aggregation. Random selection carries no
    # distance information, so the aggregation runs in its equidistant limit
    # (uniform weights); reusing trained-embedding distances would leak the
    # learned geometry into the baseline (measured: it scores within 0.05 of
    # the real model, since inverse-square weights act as a nearest-domain
    # classifier even over random rows).
    rand_pccs = []
    rng = np.random.default_rng(conftest.SYNTH_SEED)
    for f in folds:
        index = f["index"]
        rows = np.array([rng.choice(index.size, size=50, replace=False) for _ in range(f["test"].spot_num)])
        pred = aggregate_rows(index, rows, np.ones(rows.shape))
        rand_pccs.append(compute_metrics(pred, f["test"].expression).pcc_acg)
    baseline_rand = float(np.mean(rand_pccs))

    margin = conftest.ACCEPTANCE_MARGIN
    ok = (
        model_pcc >= baseline_mean + margin
        and model_pcc >= baseline_rand + margin
        and elapsed < 15 * 60
    )
    report(
        6,
        ok,
        f"model PCC(ACG)={model_pcc:.4f} vs mean-predictor {baseline_mean:.4f} "
        f"and random-retrieval {baseline_rand:.4f}, margin {margin}, loocv {elapsed:.0f}s",
    )


# -----------------------------------------------------------------------
# 7. ablation sanity via the CLI (reduced epochs; completion + table only)
# -----------------------------------------------------------------------


def test_criterion_07_ablation_sanity(synth_dataset_dir, tmp_path):
    cfg = {
        "data": {"hvg_num": 64},
        "encoder": {"d_embed": 64, "conv_channels": [8, 16, 32], "proj_hidden": 64},
        "train": {"batch_size": 64, "epochs": 6, "temperature": 0.05, "learning_rate": 2e-3},
    }
    cfg_path = tmp_path / "ablate.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "ab"
    rc = cli_main([
        "ablate", "--config", str(cfg_path), "--seed", str(conftest.SYNTH_SEED),
        "--data", str(synth_dataset_dir), "--toggles", "no_image_path",
        "--k-sweep", "1,5,50", "--out", str(out),
    ])
    table = (out / "ablation.tsv").read_text().strip().split("\n")
    variants = [line.split("\t")[0] for line in table[1:]]
    ok = rc == 0 and variants == ["full", "no_image_path", "k=1", "k=5", "k=50"]
    pcc = {line.split("\t")[0]: float(line.split("\t")[1]) for line in table[1:]}
    report(7, ok, f"full={pcc.get('full', float('nan')):.3f} "
                  f"no_image_path={pcc.get('no_image_path', float('nan')):.3f}, k-sweep emitted")


# -----------------------------------------------------------------------
# 8. metrics against brute-force oracles
# -----------------------------------------------------------------------


def test_criterion_08_metrics_correctness():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(20):
        s = int(rng.integers(5, 40))
        g = int(rng.integers(1, 8))
        pred = rng.standard_normal((s, g))
        obs = rng.standard_normal((s, g))
        m = compute_metrics(pred, obs)
        for j in range(g):
            want_r = conftest.pearson_oracle(pred[:, j], obs[:, j])
            ok &= abs(m.per_gene[j][1] - want_r) <= 1e-6
            want_p = conftest.t_two_sided_p_oracle(want_r, s)
            got_nlp = m.per_gene[j][2]
            ok &= abs(got_nlp - (-math.log10(want_p))) <= 1e-4 * abs(math.log10(want_p))
        ok &= abs(m.mse - ((pred - obs) ** 2).mean()) <= 1e-9
        ok &= abs(m.mae - np.abs(pred - obs).mean()) <= 1e-9

    a = np.array([0, 0, 0, 1, 1, 1])
    b = np.array([0, 0, 1, 1, 2, 2])
    n = len(a)
    both = in_a = in_b = pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs += 1
            sa, sb = a[i] == a[j], b[i] == b[j]
            in_a += sa
            in_b += sb
            both += sa and sb
    expected = in_a * in_b / pairs
    want_ari = (both - expected) / (0.5 * (in_a + in_b) - expected)
    ok &= ari(a, b) == want_ari
    ok &= ari(a, a) == 1.0
    report(8, ok, "20 random instances + 6-point ARI fixture")


# -----------------------------------------------------------------------
# 9. clustering contracts
# -----------------------------------------------------------------------


def test_criterion_09_clustering():
    rng = np.random.default_rng(9)
    ok = True

    x = rng.random((40, 12))
    components, _ = pca(x, 6)
    ok &= bool(np.allclose(components.T @ components, np.eye(6), atol=1e-8))

    for trial in range(5):
        data = rng.standard_normal((60, 4)) * rng.uniform(0.5, 3)
        _, sse = kmeans(data, 5, seed=trial, with_sse=True)
        ok &= all(b <= a + 1e-9 for a, b in zip(sse, sse[1:]))

    # two blobs, unit sigma, separation 12 >= 10 sigma
    blob_a = rng.standard_normal((50, 2))
    blob_b = rng.standard_normal((50, 2)) + [12.0, 0.0]
    labels = kmeans(np.concatenate([blob_a, blob_b]), 2, seed=0)
    truth = np.array([0] * 50 + [1] * 50)
    ok &= ari(labels, truth) == 1.0
    report(9, ok, "orthonormality 1e-8, SSE monotone, two-blob ARI=1.0")


# -----------------------------------------------------------------------
# 10. byte-level reproducibility of every artifact class
# -----------------------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    cfg = {
        "data": {"slides": 2, "spots_per_slide": 24, "gene_num": 24, "domains": 3,
                 "patch": [3, 8, 8], "hvg_num": 8},
        "encoder": {"d_embed": 16, "n_heads": 2, "conv_channels": [6], "proj_hidden": 16},
        "train": {"batch_size": 8, "epochs": 3, "temperature": 0.1, "learning_rate": 2e-3},
        "inference": {"k": 5},
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    args = ["--config", str(cfg_path), "--seed", "7"]
    ok = True

    for name in ("d1", "d2"):
        assert cli_main(["gen-data", *args, "--out", str(tmp_path / name)]) == 0
    for rel in ("slide_000/expression.f32", "slide_000/patches.f32", "gen_manifest.json"):
        ok &= (tmp_path / "d1" / rel).read_bytes() == (tmp_path / "d2" / rel).read_bytes()

    for name in ("ck1", "ck2"):
        assert cli_main(["train", *args, "--data", str(tmp_path / "d1"), "--out", str(tmp_path / name)]) == 0
    ok &= (tmp_path / "ck1" / "params.f32").read_bytes() == (tmp_path / "ck2" / "params.f32").read_bytes()
    ok &= (tmp_path / "ck1" / "manifest.json").read_bytes() == (tmp_path / "ck2" / "manifest.json").read_bytes()

    for name in ("r1", "r2"):
        assert cli_main(["loocv", *args, "--data", str(tmp_path / "d1"), "--out", str(tmp_path / name)]) == 0
    ok &= (tmp_path / "r1" / "metrics.tsv").read_bytes() == (tmp_path / "r2" / "metrics.tsv").read_bytes()

    report(10, ok, "datasets, checkpoints, metric tables byte-identical")
