"""Reference index over training spots and expression prediction by retrieval.

A query patch is embedded into the joint space, the top-k reference spots by
cosine similarity are fetched from a flat store by a blocked exact scan (one
float32 GEMM per block of queries, then a per-query k-selection; ties at the
k-th cosine go to the lower row id), and their observed expressions are
combined with inverse-square Euclidean-distance weights (computed in the
embedding space).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoders as enc
from .contrastive import Checkpoint, _check_unit_rows
from .data import Slide

NEAR_ZERO_DISTANCE = 1e-8  # below this, the nearest neighbor is returned verbatim
# Cap on one block's [queries x rows] score buffer: ~40 queries at 102,400 rows.
SEARCH_BLOCK_BYTES = 16 << 20


class LeakageError(ValueError):
    """Raised when a slide being predicted is present in the reference index."""


@dataclass
class RetrievalIndex:
    embeddings: np.ndarray  # [N_ref, d_embed], unit-norm rows
    expressions: np.ndarray  # [N_ref, hvg_num]
    provenance: list[tuple[str, int]]  # (slide_id, spot index) per row
    slide_ids: frozenset[str] = field(init=False, repr=False)  # for the leakage check

    def __post_init__(self):
        if self.embeddings.shape[0] != self.expressions.shape[0]:
            raise ValueError("RetrievalIndex: embeddings/expressions row counts differ")
        if len(self.provenance) != self.embeddings.shape[0]:
            raise ValueError("RetrievalIndex: provenance length mismatch")
        _check_unit_rows(self.embeddings, "RetrievalIndex: embeddings")
        self.slide_ids = frozenset(sid for sid, _ in self.provenance)

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]


def _sequential_batches(n: int, batch_size: int) -> list[np.ndarray]:
    # index-order partition, remainder kept: every spot gets encoded
    return [np.arange(i, min(i + batch_size, n)) for i in range(0, n, batch_size)]


def encode_slide_spots(slide: Slide, checkpoint: Checkpoint) -> np.ndarray:
    """Embed every spot of a slide, batched the way training batches were sized."""
    cfg = checkpoint.encoder_config
    batch_size = checkpoint.train_config.batch_size
    out = np.empty((slide.spot_num, cfg.d_embed), dtype=np.float32)
    for batch in _sequential_batches(slide.spot_num, batch_size):
        out[batch] = enc.embed_spots(
            slide.expression[batch], slide.coords[batch], checkpoint.params, cfg
        )
    return out


def encode_slide_patches(slide: Slide, checkpoint: Checkpoint) -> np.ndarray:
    cfg = checkpoint.encoder_config
    batch_size = checkpoint.train_config.batch_size
    raw = slide.patches if slide.patches is not None else slide.features
    out = np.empty((slide.spot_num, cfg.d_embed), dtype=np.float32)
    for batch in _sequential_batches(slide.spot_num, batch_size):
        out[batch] = enc.embed_patches(raw[batch], checkpoint.params, cfg)
    return out


def build_index(checkpoint: Checkpoint, training_slides: list[Slide]) -> RetrievalIndex:
    """Encode every training spot and store it with its observed expression."""
    if not training_slides:
        raise ValueError("build_index: no training slides")
    cfg = checkpoint.encoder_config
    for s in training_slides:
        if s.gene_num != cfg.hvg_num:
            raise ValueError(f"build_index: {s.slide_id} has {s.gene_num} genes, checkpoint expects {cfg.hvg_num}")
    embeddings = []
    expressions = []
    provenance: list[tuple[str, int]] = []
    for slide in training_slides:
        embeddings.append(encode_slide_spots(slide, checkpoint))
        expressions.append(slide.expression)
        provenance.extend((slide.slide_id, i) for i in range(slide.spot_num))
    return RetrievalIndex(
        embeddings=np.concatenate(embeddings, axis=0),
        expressions=np.concatenate(expressions, axis=0).astype(np.float32),
        provenance=provenance,
    )


def _check_k(index: RetrievalIndex, k: int, where: str) -> None:
    if not 1 <= k <= index.size:
        raise ValueError(f"{where}: k={k} outside [1, {index.size}]")


def search(index: RetrievalIndex, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact top-k reference rows of each query by cosine, ranked.

    Returns [m, k] arrays of row ids, cosines and Euclidean distances. Queries
    are scored one block at a time with a float32 GEMM whose score buffer
    stays within SEARCH_BLOCK_BYTES. Every row scoring at least a query's k-th
    cosine is a candidate, and candidates are ranked by (-cosine, row id), so
    ties at the cut go to the lower row id. For unit vectors d^2 = 2 - 2 cos
    within float tolerance.
    """
    emb = index.embeddings
    queries = np.asarray(queries, dtype=emb.dtype)
    if queries.ndim != 2 or queries.shape[1] != emb.shape[1]:
        raise ValueError(f"search: queries {queries.shape} do not match index dim {emb.shape[1]}")
    if not np.isfinite(queries).all():  # a NaN row would select no candidates
        raise ValueError("search: queries contain NaN/Inf")
    _check_k(index, k, "search")
    m, n = queries.shape[0], index.size
    rows = np.empty((m, k), dtype=np.int64)
    cosines = np.empty((m, k), dtype=emb.dtype)
    dists = np.empty((m, k), dtype=emb.dtype)
    block = max(1, SEARCH_BLOCK_BYTES // (n * emb.itemsize))
    for lo in range(0, m, block):
        q = queries[lo : lo + block]
        scores = q @ emb.T
        kth = np.partition(scores, n - k, axis=1)[:, n - k]
        flat = np.flatnonzero(scores >= kth[:, None])  # 2-D np.nonzero is ~10x slower
        qi, cand = np.divmod(flat, n)
        cand = cand[np.lexsort((cand, -scores.ravel()[flat], qi))]
        top = cand[np.searchsorted(qi, np.arange(len(q)))[:, None] + np.arange(k)]
        diffs = emb[top] - q[:, None, :]
        rows[lo : lo + block] = top
        cosines[lo : lo + block] = np.take_along_axis(scores, top, axis=1)
        dists[lo : lo + block] = np.sqrt(np.sum(diffs * diffs, axis=2))
    return rows, cosines, dists


def aggregate_rows(index: RetrievalIndex, rows: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """Inverse-square-distance weighted average of each query's ranked neighbors.

    rows and dists are [m, k]. Weights are d^-2 normalized to sum 1, in
    float64. A query with a neighbor within NEAR_ZERO_DISTANCE gets the first
    ranked such neighbor's expression verbatim (the d -> 0 limit).
    """
    dists = np.asarray(dists, dtype=np.float64)
    near = dists < NEAR_ZERO_DISTANCE
    inv = np.where(near, 1.0, dists) ** -2.0  # queries with a near neighbor are overwritten below
    weights = inv / inv.sum(axis=1, keepdims=True)
    pred = np.zeros((rows.shape[0], index.expressions.shape[1]))
    for j in range(rows.shape[1]):  # one rank at a time: memory stays [m, hvg_num]
        pred += weights[:, j, None] * index.expressions[rows[:, j]]
    hit = np.flatnonzero(near.any(axis=1))
    pred[hit] = index.expressions[rows[hit, near[hit].argmax(axis=1)]]
    return pred


def query_topk(index: RetrievalIndex, h_query: np.ndarray, k: int) -> list[tuple[int, float, float]]:
    """search for one query, as ranked (row, cosine, distance) triples."""
    rows, cosines, dists = search(index, np.asarray(h_query).reshape(1, -1), k)
    return [(int(r), float(c), float(d)) for r, c, d in zip(rows[0], cosines[0], dists[0])]


def aggregate(neighbors: list[tuple[int, float, float]], index: RetrievalIndex) -> np.ndarray:
    """aggregate_rows for one query's ranked (row, cosine, distance) triples."""
    if not neighbors:
        raise ValueError("aggregate: empty neighbor list")
    rows = np.array([[n[0] for n in neighbors]], dtype=np.int64)
    dists = np.array([[n[2] for n in neighbors]], dtype=np.float64)
    return aggregate_rows(index, rows, dists)[0]


def predict_slide(checkpoint: Checkpoint, index: RetrievalIndex, test_slide: Slide, k: int) -> np.ndarray:
    """Predict every spot of a held-out slide by embed -> search -> aggregate."""
    if test_slide.slide_id in index.slide_ids:
        raise LeakageError(f"predict_slide: {test_slide.slide_id} is present in the reference index")
    _check_k(index, k, "predict_slide")
    d_embed = checkpoint.encoder_config.d_embed
    if d_embed != index.embeddings.shape[1]:
        raise ValueError(f"predict_slide: checkpoint d_embed={d_embed} != index dim {index.embeddings.shape[1]}")
    rows, _, dists = search(index, encode_slide_patches(test_slide, checkpoint), k)
    return aggregate_rows(index, rows, dists)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_index(index: RetrievalIndex, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index.embeddings.astype("<f4").tofile(directory / "embeddings.f32")
    index.expressions.astype("<f4").tofile(directory / "expressions.f32")
    meta = {
        "rows": index.size,
        "d_embed": index.embeddings.shape[1],
        "hvg_num": index.expressions.shape[1],
        "entries": [[sid, i] for sid, i in index.provenance],
    }
    (directory / "provenance.json").write_text(json.dumps(meta, sort_keys=True) + "\n")


def _read_blob(path: Path, rows: int, width: int) -> np.ndarray:
    size = path.stat().st_size
    if size != rows * width * 4:
        raise ValueError(f"{path} is {size} bytes, provenance.json declares {rows} x {width} float32")
    return np.fromfile(path, dtype="<f4").reshape(rows, width)


def load_index(directory: str | Path) -> RetrievalIndex:
    directory = Path(directory)
    meta = json.loads((directory / "provenance.json").read_text())
    n, d, g = meta["rows"], meta["d_embed"], meta["hvg_num"]
    if len(meta["entries"]) != n:
        raise ValueError(f"{directory / 'provenance.json'} lists {len(meta['entries'])} entries for {n} rows")
    return RetrievalIndex(
        embeddings=_read_blob(directory / "embeddings.f32", n, d),
        expressions=_read_blob(directory / "expressions.f32", n, g),
        provenance=[(str(sid), int(i)) for sid, i in meta["entries"]],
    )
