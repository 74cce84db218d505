"""Reference index over training spots and expression prediction by retrieval.

A query patch is embedded into the joint space, the top-k reference spots by
cosine similarity are fetched from a flat store by an exact scan (one float32
GEMM per block of index rows against all queries, merged into a running
per-query top-k; ties at the k-th cosine go to the lower row id), and their
observed expressions are combined with inverse-square Euclidean-distance
weights (computed in the embedding space). The scan runs on one thread per
CPU the BLAS leaves free (set OPENBLAS_NUM_THREADS=1 to free them): each
thread takes the next unscanned block when it finishes one, keeps its own
top-k, and the threads' lists are merged by (-cosine, row id), so the lower
row id still wins a tie.

Selection costs little beside the GEMM. A thread's first block is
transposed to query-major order in strips of TRANSPOSE_STRIP_ROWS rows (one
whole-tile transpose is ~5x slower) and partitioned per query to find the
k-th cosines. Every compare against the k-th cosines reads a contiguous
copy of them, not a strided column, and writes into a reused mask.
Candidates are ranked by one stable sort of an int64 key, the query shifted
up 32 bits less the float32 cosine's bit pattern made monotone, in place of
a two-key lexsort. That pattern maps -0.0 and +0.0 to one value, so two
zero cosines are a tie like any other and the lower row id wins it.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoders as enc
from .contrastive import Checkpoint
from .data import Slide, read_blob, read_json

NEAR_ZERO_DISTANCE = 1e-8  # below this, the nearest neighbor is returned verbatim
UNIT_NORM_TOL = 1e-5  # an index row's norm may differ from 1 by this much
# Cap on one block's [rows x queries] score tile: 8,192 index rows at 128 queries.
SEARCH_BLOCK_BYTES = 4 << 20
# Rows per strip when the first block's tile is transposed: each strip's reads and writes stay in cache.
TRANSPOSE_STRIP_ROWS = 256


class LeakageError(ValueError):
    """Raised when a slide being predicted is present in the reference index."""


def _check_unit_rows(h: np.ndarray, name: str) -> None:
    norms = np.sqrt(np.einsum("ij,ij->i", h, h, dtype=np.float64))  # float64 sums, no float64 copy of h
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))  # a NaN norm fails too
    if bad.size:
        raise ValueError(f"{name}: row {int(bad[0])} has norm {norms[bad[0]]:.6f}, expected 1 +/- {UNIT_NORM_TOL}")


@dataclass
class RetrievalIndex:
    embeddings: np.ndarray  # [N_ref, d_embed], unit-norm float32 rows (other float types are cast)
    expressions: np.ndarray  # [N_ref, hvg_num]
    provenance: list[tuple[str, int]]  # (slide_id, spot index) per row
    slide_ids: frozenset[str] = field(init=False, repr=False)  # for the leakage check

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float32)  # the scan ranks float32 bit patterns
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


def _scan_workers(n: int, block: int) -> int:
    """Threads to scan with: one per CPU the BLAS leaves free, at most one per full score tile."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    blas_threads = cpus  # OpenBLAS's default when neither variable holds a count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value >= 1:
            blas_threads = value
            break
    return max(1, min(cpus // blas_threads, n // block))


def _block_claims(n: int, block: int):
    """A thread-safe callable handing out each block's first row, in ascending order, then None."""
    starts, lock = iter(range(0, n, block)), threading.Lock()

    def claim():
        with lock:
            return next(starts, None)

    return claim


def _cosine_order(c: np.ndarray) -> np.ndarray:
    """int64 values in the order of the float32 cosines `c`, -0.0 equal to +0.0: the bit pattern's magnitude, signed."""
    bits = c.view(np.int32).astype(np.int64)
    return np.where(bits < 0, -(bits & 0x7FFFFFFF), bits)


def _scan_blocks(emb: np.ndarray, q_t: np.ndarray, k: int, block: int, claim) -> tuple[np.ndarray, np.ndarray]:
    """Exact [m, k] top rows and cosines, ranked by (-cos, row id), of the blocks of `emb` that `claim` hands out.

    Each block of rows is scored against all queries by one float32 GEMM into
    a reused [rows, m] tile. In the first block every row scoring at least a
    query's k-th cosine is a candidate: the tile is transposed to [m, rows] in
    strips of TRANSPOSE_STRIP_ROWS rows, partitioned per query, and the k-th
    cosines are copied out contiguously before the compare. In later blocks a
    row must beat the current k-th cosine (again a contiguous copy), as blocks
    come in ascending order and its higher row id loses a tie. The compare
    writes into a reused mask. Candidates are merged with the hit queries'
    current top k by one stable argsort of the int64 key query << 32 minus
    the cosine's order-preserving bits, in which -0.0 and +0.0 are one value:
    equal cosines keep their arrival order, ascending row id. Slots that no
    row fills hold row id len(emb) and -inf.
    """
    (n, _), m = emb.shape, q_t.shape[1]
    rows = np.full((m, k), n, dtype=np.int64)
    cosines = np.full((m, k), -np.inf, dtype=emb.dtype)
    tile = np.empty((min(block, n), m), dtype=emb.dtype)  # reused: a fresh tile per block page-faults
    mask = np.empty(tile.shape, dtype=bool)
    first = True
    while (lo := claim()) is not None:
        chunk = emb[lo : lo + block]
        scores = np.matmul(chunk, q_t, out=tile[: len(chunk)])  # [rows, m]
        top_k_in_block = first and len(scores) >= k
        if top_k_in_block:  # every row at or above each query's k-th score
            by_query = np.empty((m, len(scores)), dtype=emb.dtype)  # partitioning rows is ~2x faster than columns
            for s in range(0, len(scores), TRANSPOSE_STRIP_ROWS):  # ~5x faster than scores.T.copy()
                by_query[:, s : s + TRANSPOSE_STRIP_ROWS] = scores[s : s + TRANSPOSE_STRIP_ROWS].T
            by_query.partition(len(scores) - k, axis=1)
            hit = np.greater_equal(scores, by_query[:, len(scores) - k].copy(), out=mask[: len(scores)])
        else:  # a later row has a higher id, so it must beat the k-th score outright
            hit = np.greater(scores, cosines[:, -1].copy(), out=mask[: len(scores)])
        first = False
        r, qi = np.divmod(np.flatnonzero(hit), m)  # 2-D np.nonzero is ~10x slower
        if not r.size:
            continue
        c, r = scores[r, qi], r + lo
        hit_q = np.flatnonzero(np.bincount(qi, minlength=m))
        if not top_k_in_block:  # merge with the hit queries' current top k, which precede this block's rows
            qi = np.concatenate((np.repeat(hit_q, k), qi))
            r = np.concatenate((rows[hit_q].ravel(), r))
            c = np.concatenate((cosines[hit_q].ravel(), c))
        rows[hit_q], cosines[hit_q] = _first_k_per_query(qi, r, c, hit_q, k)
    return rows, cosines


def _first_k_per_query(qi: np.ndarray, r: np.ndarray, c: np.ndarray, hit_q: np.ndarray, k: int):
    """[len(hit_q), k] rows and cosines: each query's first k candidates (query qi, row r, cosine c) by -cosine.

    Every query in hit_q has at least k candidates, and a query's candidates
    come in ascending row id, so the stable sort keeps the lower id first
    among equal cosines; -0.0 and +0.0 are equal cosines.
    """
    order = np.argsort((qi << 32) - _cosine_order(c), kind="stable")
    qi, r, c = qi[order], r[order], c[order]
    first_k = np.searchsorted(qi, hit_q)[:, None] + np.arange(k)
    return r[first_k], c[first_k]


def _merge_top_k(parts: list[tuple[np.ndarray, np.ndarray]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first k of several ranked [m, k'] (rows, cosines) lists, by (-cosine, row id), -0.0 equal to +0.0."""
    rows = np.concatenate([r for r, _ in parts], axis=1)
    cosines = np.concatenate([c for _, c in parts], axis=1)
    first_k = np.argsort((-_cosine_order(cosines) << 32) + rows, axis=1)[:, :k]  # row ids < 2**32
    return np.take_along_axis(rows, first_k, 1), np.take_along_axis(cosines, first_k, 1)


def search(index: RetrievalIndex, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact top-k reference rows of each query by cosine, ranked.

    Returns [m, k] arrays of row ids, cosines and Euclidean distances. The
    index is read once, in blocks of rows taken in ascending order by one
    or more worker threads: each block is scored against all queries by one
    float32 GEMM whose [rows, m] tile stays within SEARCH_BLOCK_BYTES and
    merged into its thread's running top k. A thread takes the next block
    when it finishes one, so a thread slowed by a busy CPU scans fewer
    blocks instead of holding up the rest. A thread's first block sets its
    k-th cosines by a partition of the tile, transposed in strips; later
    blocks admit only rows beating them, compared against a contiguous copy.
    Candidates are ranked by one int64 key per entry (query, then the
    cosine's monotone bit pattern, with -0.0 equal to +0.0) in a stable
    sort that keeps the lower row id first among equal cosines. The
    threads' lists are merged by (-cosine, row id), so ties at the k-th
    cosine still go to the lower row id and the result is the exact top k
    of the float32 scores, whichever thread scanned which block. There is
    one worker per CPU the BLAS leaves free (CPUs divided by
    OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else by the CPU count
    itself), at most one per full tile; with one worker the whole index is
    scanned inline and no thread starts. For unit vectors d^2 = 2 - 2 cos
    within float tolerance. Embeddings of any float type are held as
    float32 (RetrievalIndex casts them).
    """
    emb = index.embeddings
    queries = np.asarray(queries, dtype=emb.dtype)
    if queries.ndim != 2 or queries.shape[1] != emb.shape[1]:
        raise ValueError(f"search: queries {queries.shape} do not match index dim {emb.shape[1]}")
    if not np.isfinite(queries).all():  # a NaN row would select no candidates
        raise ValueError("search: queries contain NaN/Inf")
    _check_k(index, k, "search")
    (m, d), n = queries.shape, index.size
    dists = np.empty((m, k), dtype=emb.dtype)
    if m == 0:
        return np.empty((m, k), dtype=np.int64), np.empty((m, k), dtype=emb.dtype), dists
    q_t = np.ascontiguousarray(queries.T)
    block = max(k, SEARCH_BLOCK_BYTES // (m * emb.itemsize))
    workers, claim = _scan_workers(n, block), _block_claims(n, block)
    if workers == 1:
        rows, cosines = _scan_blocks(emb, q_t, k, block, claim)
    else:
        with ThreadPoolExecutor(workers) as pool:  # numpy's matmul releases the GIL
            parts = [pool.submit(_scan_blocks, emb, q_t, k, block, claim) for _ in range(workers)]
            rows, cosines = _merge_top_k([part.result() for part in parts], k)
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
    meta = read_json(directory / "provenance.json",
                     required={"rows": int, "d_embed": int, "hvg_num": int, "entries": list})
    n, d, g = meta["rows"], meta["d_embed"], meta["hvg_num"]
    if len(meta["entries"]) != n:
        raise ValueError(f"{directory / 'provenance.json'} lists {len(meta['entries'])} entries for {n} rows")
    return RetrievalIndex(
        embeddings=read_blob(directory / "embeddings.f32", "<f4", (n, d)),
        expressions=read_blob(directory / "expressions.f32", "<f4", (n, g)),
        provenance=[(str(sid), int(i)) for sid, i in meta["entries"]],
    )
