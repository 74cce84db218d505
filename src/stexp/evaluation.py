"""Prediction metrics, per-gene significance, leave-one-out protocol, clustering.

Per-gene Pearson r is computed across the spots of one slide. PCC(ACG)
averages r over all genes; PCC(HEG) over the 50 genes with the largest mean
observed expression in that slide. Significance is the two-sided p of r
under the exact-null Student t with S-2 degrees of freedom, reported as
-log10 p capped at 300.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.special import betainc

from . import inference
from .contrastive import Checkpoint, TrainConfig, fit
from .data import ProcessedDataset, Slide, kept_spots, preprocess
from .encoders import EncoderConfig

log = logging.getLogger(__name__)

HEG_SIZE = 50
NEG_LOG10_P_CAP = 300.0
KMEANS_ITERATIONS = 300  # Lloyd iterations at most, if the assignments never settle


@dataclass
class MetricsRecord:
    slide_id: str
    pcc_acg: float
    pcc_heg: float
    mse: float
    mae: float
    per_gene: list[tuple[str, float, float]] = field(default_factory=list)  # (gene, r, -log10 p)


def _pearson_columns(pred: np.ndarray, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column Pearson r; zero-variance columns get r=0 and a flag.

    The sums run over a gene-major copy, one contiguous row per gene, so each gene is summed exactly as it is when
    scored alone and its r does not depend on which genes are scored with it.
    """
    pc = pred.T.copy()
    oc = obs.T.copy()
    pc -= pc.mean(axis=1, keepdims=True)
    oc -= oc.mean(axis=1, keepdims=True)
    sp = np.sqrt((pc * pc).sum(axis=1))
    so = np.sqrt((oc * oc).sum(axis=1))
    flagged = (sp == 0) | (so == 0)
    denom = np.where(flagged, 1.0, sp * so)
    r = (pc * oc).sum(axis=1) / denom
    r = np.where(flagged, 0.0, np.clip(r, -1.0, 1.0))
    return r, flagged


def heg_indices(obs: np.ndarray) -> np.ndarray:
    """The HEG_SIZE genes with the largest mean observed expression, or every gene if fewer (ties: lower index)."""
    means = np.asarray(obs, dtype=np.float64).mean(axis=0)
    return np.lexsort((np.arange(means.shape[0]), -means))[:HEG_SIZE]


def compute_metrics(
    pred: np.ndarray,
    obs: np.ndarray,
    slide_id: str = "",
    gene_names: list[str] | None = None,
) -> MetricsRecord:
    """Per-gene r and significance, ACG/HEG means, and elementwise MSE/MAE."""
    pred = np.asarray(pred, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    if pred.shape != obs.shape:
        raise ValueError(f"compute_metrics: shape mismatch {pred.shape} vs {obs.shape}")
    s, g = pred.shape
    if s < 3:
        raise ValueError(f"compute_metrics: need at least 3 spots, got {s}")
    if gene_names is None:
        gene_names = [f"g{i}" for i in range(g)]

    r, flagged = _pearson_columns(pred, obs)
    df = s - 2
    with np.errstate(divide="ignore"):  # |r| = 1 gives t^2 = inf, p = 0 and -log10 p = inf, which is capped
        p = betainc(df / 2.0, 0.5, df / (df + r * r * df / (1.0 - r * r)))
        nlp = np.fmin(NEG_LOG10_P_CAP, -np.log10(p))  # fmin: a NaN r (from a NaN prediction) is capped too
    nlp[np.abs(r) >= 1.0 - 1e-15] = NEG_LOG10_P_CAP
    nlp[flagged] = 0.0
    heg = heg_indices(obs)
    err = pred - obs
    return MetricsRecord(
        slide_id=slide_id,
        pcc_acg=float(r.mean()),
        pcc_heg=float(r[heg].mean()),
        mse=float((err * err).mean()),
        mae=float(np.abs(err).mean()),
        per_gene=[(gene_names[i], float(r[i]), float(nlp[i])) for i in range(g)],
    )


def mean_record(records: list[MetricsRecord]) -> MetricsRecord:
    """Arithmetic mean of the four scalar metrics across slides."""
    return MetricsRecord(
        slide_id="mean",
        pcc_acg=float(np.mean([m.pcc_acg for m in records])),
        pcc_heg=float(np.mean([m.pcc_heg for m in records])),
        mse=float(np.mean([m.mse for m in records])),
        mae=float(np.mean([m.mae for m in records])),
    )


# ---------------------------------------------------------------------------
# leave-one-out protocol
# ---------------------------------------------------------------------------


def fold_seed(seed: int, fold_index: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(fold_index,)).generate_state(1)[0])


def _fold(slides: list[Slide], test_id: str, hvg_num: int, train_cfg: TrainConfig, enc_cfg: EncoderConfig,
          ks: tuple[int, ...], seed: int) -> tuple[dict[int, MetricsRecord], Checkpoint]:
    """Train once on every slide but test_id, then predict and score it at each distinct k in ks."""
    train_ids = [s.slide_id for s in slides if s.slide_id != test_id]
    dataset = preprocess(slides, hvg_num=hvg_num, train_ids=train_ids)
    checkpoint = fit(dataset, replace(train_cfg, seed=seed), enc_cfg)
    index = inference.build_index(checkpoint, dataset.train_slides())
    test_slide = dataset.get(test_id)
    records = {}
    for k in dict.fromkeys(ks):
        pred = inference.predict_slide(checkpoint, index, test_slide, k)
        records[k] = compute_metrics(pred, test_slide.expression, slide_id=test_id, gene_names=dataset.gene_names)
    return records, checkpoint


def run_fold(
    slides: list[Slide],
    test_id: str,
    hvg_num: int,
    train_cfg: TrainConfig,
    enc_cfg: EncoderConfig,
    k: int,
    seed: int,
) -> tuple[MetricsRecord, Checkpoint]:
    """One LOOCV fold at one k: train on every slide but test_id, predict it, and score it."""
    records, checkpoint = _fold(slides, test_id, hvg_num, train_cfg, enc_cfg, (k,), seed)
    return records[k], checkpoint


def loocv(
    slides: list[Slide],
    hvg_num: int,
    train_cfg: TrainConfig,
    enc_cfg: EncoderConfig,
    ks: tuple[int, ...],
) -> dict[int, list[MetricsRecord]]:
    """{k: one record per fold plus a final mean row}; each fold trains once and is scored at every k in ks.

    Per-fold seeds derive from the config seed. Every k, and the batch size against every slide (each is
    trained on in some fold), is checked before any fold trains.
    """
    if len(slides) < 2:
        raise ValueError("loocv: need at least 2 slides")
    kept = {s.slide_id: int(np.count_nonzero(kept_spots(s))) for s in slides}
    train_spots = sum(kept.values()) - max(kept.values())
    for k in ks:
        if not 1 <= k <= train_spots:
            raise ValueError(f"loocv: k={k} outside [1, {train_spots}], the smallest fold's training spot count")
    too_small = [slide_id for slide_id, count in kept.items() if count < train_cfg.batch_size]
    if too_small:
        raise ValueError(f"loocv: batch_size={train_cfg.batch_size} exceeds the kept spot count of {too_small}")
    folds = []
    for fold, slide in enumerate(slides):
        log.info("loocv fold %d/%d: test slide %s", fold + 1, len(slides), slide.slide_id)
        folds.append(_fold(slides, slide.slide_id, hvg_num, train_cfg, enc_cfg, ks, fold_seed(train_cfg.seed, fold))[0])
    records = {k: [fold[k] for fold in folds] for k in ks}
    return {k: [*rows, mean_record(rows)] for k, rows in records.items()}


# ---------------------------------------------------------------------------
# spatial domain detection
# ---------------------------------------------------------------------------


def pca(x: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-c principal components of the covariance with a deterministic sign.

    Returns (components [G x c], scores [S x c]); each component's
    largest-magnitude entry is positive.
    """
    x = np.asarray(x, dtype=np.float64)
    s, g = x.shape
    if not 1 <= c <= min(s, g):
        raise ValueError(f"pca: c={c} outside [1, min{s, g}]")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (s - 1) if s > 1 else centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:c]
    components = eigvecs[:, order]
    for j in range(c):
        lead = np.argmax(np.abs(components[:, j]))
        if components[lead, j] < 0:
            components[:, j] = -components[:, j]
    return components, centered @ components


def kmeans(scores: np.ndarray, k: int, seed: int, *, with_sse: bool = False):
    """Seeded k-means++ then Lloyd iterations to an assignment fixpoint.

    An emptied cluster is re-seeded at the point farthest from its assigned
    centroid. Returns labels, or (labels, per-iteration SSE) with with_sse.
    """
    scores = np.asarray(scores, dtype=np.float64)
    s = scores.shape[0]
    if not 1 <= k <= s:
        raise ValueError(f"kmeans: k={k} outside [1, {s}]")
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centroids = np.empty((k, scores.shape[1]))
    centroids[0] = scores[rng.integers(s)]
    d2 = ((scores - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = scores[rng.integers(s)]
        else:
            centroids[j] = scores[rng.choice(s, p=d2 / total)]
        d2 = np.minimum(d2, ((scores - centroids[j]) ** 2).sum(axis=1))

    labels = np.zeros(s, dtype=np.int64)
    sse_history: list[float] = []
    for _ in range(KMEANS_ITERATIONS):
        dists = ((scores[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        sse_history.append(float(dists[np.arange(s), new_labels].sum()))
        for j in range(k):
            members = new_labels == j
            if members.any():
                centroids[j] = scores[members].mean(axis=0)
            else:
                farthest = int(np.argmax(dists[np.arange(s), new_labels]))
                centroids[j] = scores[farthest]
                new_labels[farthest] = j
        if np.array_equal(new_labels, labels) and len(sse_history) > 1:
            labels = new_labels
            break
        labels = new_labels
    if with_sse:
        return labels, sse_history
    return labels


def ari(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Adjusted Rand index via the contingency-table formula."""
    labels_a = np.asarray(labels_a).ravel()
    labels_b = np.asarray(labels_b).ravel()
    if labels_a.shape != labels_b.shape:
        raise ValueError(f"ari: length mismatch {labels_a.shape} vs {labels_b.shape}")
    n = labels_a.shape[0]
    _, a_inv = np.unique(labels_a, return_inverse=True)
    _, b_inv = np.unique(labels_b, return_inverse=True)
    table = np.zeros((a_inv.max() + 1, b_inv.max() + 1), dtype=np.int64)
    np.add.at(table, (a_inv, b_inv), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table.astype(np.float64)).sum()
    sum_a = comb2(table.sum(axis=1).astype(np.float64)).sum()
    sum_b = comb2(table.sum(axis=0).astype(np.float64)).sum()
    total = comb2(float(n))
    expected = sum_a * sum_b / total if total > 0 else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0  # both partitions trivially identical in structure
    return float((sum_ij - expected) / (max_index - expected))


def detect_domains(pred: np.ndarray, n_clusters: int, n_components: int, seed: int) -> np.ndarray:
    """PCA reduction followed by k-means, as used for spatial-domain detection."""
    n_components = min(n_components, min(pred.shape))
    _, scores = pca(pred, n_components)
    return kmeans(scores, n_clusters, seed)


# ---------------------------------------------------------------------------
# table output
# ---------------------------------------------------------------------------


def write_tsv(path: str | Path, header: tuple[str, ...], rows) -> None:
    """The header, then one line per row, each cell written by str, tab-separated and newline-terminated."""
    Path(path).write_text("".join("\t".join(map(str, row)) + "\n" for row in (header, *rows)))


def write_metrics_tsv(path: str | Path, key: str, rows: list[tuple[str, MetricsRecord]]) -> None:
    """One line per (label, record): the label under the column `key`, then the four metrics to 6 decimals."""
    metrics = ("pcc_acg", "pcc_heg", "mse", "mae")
    write_tsv(path, (key, *metrics), [(label, *(f"{getattr(m, name):.6f}" for name in metrics)) for label, m in rows])


def write_per_gene_tsv(record: MetricsRecord, path: str | Path) -> None:
    """Genes sorted by -log10 p descending (ties keep gene order)."""
    ranked = sorted(record.per_gene, key=lambda gene: -gene[2])
    write_tsv(path, ("gene", "r", "neg_log10_p"), [(gene, f"{r:.6f}", f"{nlp:.6f}") for gene, r, nlp in ranked])


def write_labels_tsv(labels: np.ndarray, path: str | Path, truth: np.ndarray) -> None:
    write_tsv(path, ("spot", "label", "truth"), [(i, int(lab), int(truth[i])) for i, lab in enumerate(labels)])
