"""Reference index over training spots and expression prediction by retrieval.

A query patch is embedded into the joint space, the top-k reference spots by
cosine similarity are fetched from a flat store by an exact scan (one float32
GEMM per block of index rows against all queries, merged into a running
per-query top-k; ties at the k-th cosine go to the lower row id), and their
observed expressions are combined with inverse-square Euclidean-distance
weights (computed in the embedding space).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoders as enc
from .contrastive import Checkpoint, _check_unit_rows
from .data import Slide, read_blob, read_json

NEAR_ZERO_DISTANCE = 1e-8  # below this, the nearest neighbor is returned verbatim
# Cap on one block's [rows x queries] score tile: 8,192 index rows at 128 queries.
SEARCH_BLOCK_BYTES = 4 << 20


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


def _embed_batches(spot_num: int, checkpoint: Checkpoint, embed) -> np.ndarray:
    """embed(rows) for index-order slices of the training batch size, remainder kept: every spot gets encoded."""
    batch_size = checkpoint.train_config.batch_size
    out = np.empty((spot_num, checkpoint.encoder_config.d_embed), dtype=np.float32)
    for lo in range(0, spot_num, batch_size):
        rows = slice(lo, lo + batch_size)
        out[rows] = embed(rows)
    return out


def encode_slide_spots(slide: Slide, checkpoint: Checkpoint) -> np.ndarray:
    """Embed every spot's expression and coordinates, batched the way training batches were sized."""
    cfg = checkpoint.encoder_config
    return _embed_batches(slide.spot_num, checkpoint, lambda rows: enc.embed_spots(
        slide.expression[rows], slide.coords[rows], checkpoint.params, cfg))


def encode_slide_patches(slide: Slide, checkpoint: Checkpoint) -> np.ndarray:
    """Embed every spot's patch (or precomputed features), batched the way training batches were sized."""
    cfg = checkpoint.encoder_config
    raw = slide.image_input
    return _embed_batches(slide.spot_num, checkpoint, lambda rows: enc.embed_patches(raw[rows], checkpoint.params, cfg))


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

    Returns [m, k] arrays of row ids, cosines and Euclidean distances. The
    index is read once: each block of rows is scored against all queries by
    one float32 GEMM whose [rows, m] tile stays within SEARCH_BLOCK_BYTES. In
    the first block every row scoring at least a query's k-th cosine is a
    candidate; in later blocks a row must beat the current k-th cosine, as
    its higher row id loses a tie. Candidates and the current top k are
    ranked by (-cosine, row id), so the result is the exact top k of the
    float32 scores. For unit vectors d^2 = 2 - 2 cos within float tolerance.
    """
    emb = index.embeddings
    queries = np.asarray(queries, dtype=emb.dtype)
    if queries.ndim != 2 or queries.shape[1] != emb.shape[1]:
        raise ValueError(f"search: queries {queries.shape} do not match index dim {emb.shape[1]}")
    if not np.isfinite(queries).all():  # a NaN row would select no candidates
        raise ValueError("search: queries contain NaN/Inf")
    _check_k(index, k, "search")
    (m, d), n = queries.shape, index.size
    rows = np.empty((m, k), dtype=np.int64)
    cosines = np.empty((m, k), dtype=emb.dtype)
    dists = np.empty((m, k), dtype=emb.dtype)
    if m == 0:
        return rows, cosines, dists
    q_t = np.ascontiguousarray(queries.T)
    block = max(k, SEARCH_BLOCK_BYTES // (m * emb.itemsize))
    tile = np.empty((min(block, n), m), dtype=emb.dtype)  # reused: a fresh tile per block page-faults
    for lo in range(0, n, block):
        chunk = emb[lo : lo + block]
        scores = np.matmul(chunk, q_t, out=tile[: len(chunk)])  # [rows, m]
        if lo == 0:  # every row at or above each query's k-th score
            by_query = scores.T.copy()  # partitioning contiguous rows is ~2x faster than columns
            by_query.partition(len(scores) - k, axis=1)
            hit = scores >= by_query[:, len(scores) - k]
        else:  # a later row has a higher id, so it must beat the k-th score outright
            hit = scores > cosines[:, -1]
        r, qi = np.divmod(np.flatnonzero(hit), m)  # 2-D np.nonzero is ~10x slower
        if not r.size:
            continue
        c, r = scores[r, qi], r + lo
        hit_q = np.unique(qi)
        if lo:  # merge with the hit queries' current top k
            qi = np.concatenate((np.repeat(hit_q, k), qi))
            r = np.concatenate((rows[hit_q].ravel(), r))
            c = np.concatenate((cosines[hit_q].ravel(), c))
        # lexsort is stable, and among equal cosines a query's candidates arrive in
        # ascending row id (its current top k, then this block's hits): ties keep the lower id
        order = np.lexsort((-c, qi))
        qi, r, c = qi[order], r[order], c[order]
        first_k = np.searchsorted(qi, hit_q)[:, None] + np.arange(k)
        rows[hit_q], cosines[hit_q] = r[first_k], c[first_k]
    ranks = max(1, SEARCH_BLOCK_BYTES // (m * d * emb.itemsize))  # caps the [m, ranks, d] differences
    for j in range(0, k, ranks):
        diffs = emb[rows[:, j : j + ranks]] - queries[:, None, :]
        dists[:, j : j + ranks] = np.sqrt(np.sum(diffs * diffs, axis=2))
    return rows, cosines, dists


def aggregate_rows(index: RetrievalIndex, rows: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """Inverse-square-distance weighted average of each query's ranked neighbors.

    rows and dists are [m, k]. Weights are d^-2 normalized to sum 1, in
    float64. A query with a neighbor within NEAR_ZERO_DISTANCE gets the first
    ranked such neighbor's expression verbatim (the d -> 0 limit).
    """
    if rows.shape[1] == 0:
        raise ValueError("aggregate_rows: empty neighbor list")
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


def load_index(directory: str | Path) -> RetrievalIndex:
    directory = Path(directory)
    meta = read_json(directory / "provenance.json", required=("rows", "d_embed", "hvg_num", "entries"))
    n, d, g = meta["rows"], meta["d_embed"], meta["hvg_num"]
    if len(meta["entries"]) != n:
        raise ValueError(f"{directory / 'provenance.json'} lists {len(meta['entries'])} entries for {n} rows")
    return RetrievalIndex(
        embeddings=read_blob(directory / "embeddings.f32", "<f4", (n, d)),
        expressions=read_blob(directory / "expressions.f32", "<f4", (n, g)),
        provenance=[(str(sid), int(i)) for sid, i in meta["entries"]],
    )
