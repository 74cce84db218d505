"""Reference index over training spots and expression prediction by retrieval.

A query patch is embedded into the joint space, the top-k reference spots by
cosine similarity are fetched from a flat store by an exact scan (`search`
says how it blocks, screens, selects and merges), and their observed
expressions are combined with inverse-square Euclidean-distance weights
(computed in the embedding space).
"""

from __future__ import annotations

import json
import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import encoders as enc
from .contrastive import Checkpoint
from .data import DataFormatError, Slide, json_type_ok, read_blob, read_json

NEAR_ZERO_DISTANCE = 1e-8  # below this, the nearest neighbor is returned verbatim
UNIT_NORM_TOL = 1e-5  # an index row's norm may differ from 1 by this much
# Cap on one block's [rows x queries] score tile: 8,192 index rows at 128 queries.
SEARCH_BLOCK_BYTES = 4 << 20
# Rows per strip when the first block's tile is transposed: each strip's reads and writes stay in cache.
TRANSPOSE_STRIP_ROWS = 256
FLOAT32_UNIT_ROUNDOFF = 2.0**-24
BOUND_RANK = 64  # eigenvectors whose coordinates the cosine bound keeps (at most d_embed)
BOUND_SAMPLE_STEP = 16  # the eigenvectors are those of the Gram matrix of every 16th index row
# The bound's table holds int16 multiples of 1 / BOUND_SCALE: half the bytes of float32, and every entry of a row of
# norm <= 1 + UNIT_NORM_TOL stays below 32,767.
BOUND_SCALE = 32_000.0
BOUND_BLOCK_ROWS = 8192  # rows per block while the table is derived: its float32 scratch stays small
# OpenBLAS computes a product of at most 100**3 multiply-adds in its small-matrix kernels and a one-column
# product by gemv, which order their sums differently: a rescored subset of a block must be larger.
SMALL_GEMM_MACS = 100**3


class LeakageError(ValueError):
    """Raised when a slide being predicted is present in the reference index."""


def _check_unit_rows(h: np.ndarray, name: str) -> None:
    norms = np.sqrt(np.einsum("ij,ij->i", h, h, dtype=np.float64))  # float64 sums, no float64 copy of h
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))  # a NaN norm fails too
    if bad.size:
        raise ValueError(f"{name}: row {int(bad[0])} has norm {norms[bad[0]]:.6f}, expected 1 +/- {UNIT_NORM_TOL}")


def _gamma(terms: int) -> float:
    """gamma_n = n u / (1 - n u): a float32 sum of n products is within gamma_n * sum|products| of the exact one."""
    return terms * FLOAT32_UNIT_ROUNDOFF / (1.0 - terms * FLOAT32_UNIT_ROUNDOFF)


def _up_f32(x: np.ndarray) -> np.ndarray:
    """float32 values no smaller than the float64 `x`: the cast is within half an ulp, so one ulp up covers it."""
    return np.nextafter(x.astype(np.float32), np.float32(np.inf))


@dataclass(frozen=True)
class CosineBound:
    """An upper bound on the scan's float32 score of every (index row, query) pair, from a projection of the rows.

    P (`basis`, orthonormal float64 columns) holds the top r = BOUND_RANK
    eigenvectors of the Gram matrix of every BOUND_SAMPLE_STEP-th row; any
    orthonormal P gives a valid bound, and a sample only loosens it. For a
    row e and a query q, with p = P^T e and e_perp = e - P p (likewise q),
    Cauchy-Schwarz gives

        <e, q> = <p, P^T q> + <e_perp, q_perp> <= <p, P^T q> + |e_perp| |q_perp|.

    Row i of `table` holds a = e P32 by a float32 GEMM (P32 is P rounded to
    float32; deriving it in float64 would take ~2.5x as long), rounded to
    the nearest multiple of 1 / S (S = BOUND_SCALE, stored as int16 counts
    of 1 / S), then rho >= |e_perp| rounded up to one. `query_side` makes
    the matching columns (b = P^T q, then sigma >= |q_perp|, in float64,
    divided by S and rounded to float32) for each query, and one float32
    GEMM over the r + 1 columns (the table's block cast to float32, which is
    exact) gives the bound of every pair. A pair is dropped only when that
    bound is below the query's k-th cosine less its margin, `slack` |q|. The
    margin covers every error between the bound and the scan's score
    (u = 2^-24, gamma_n = n u / (1 - n u), each relative to |e| |q|):

    - the scan's score, a float32 sum of d products, is within gamma_d of <e, q>;
    - each entry a_i is a d-term float32 sum with P rounded to float32, so
      within gamma_{d+2} (|P|^T |e|)_i of p_i, and |a - p| <= delta |e| with
      delta = gamma_{d+2} || |P| ||_2 (at most sqrt(r) gamma_{d+2}):
      <a, P^T q> is within delta of <p, P^T q>. The rows' norms are at most
      c = 1 + UNIT_NORM_TOL (RetrievalIndex checks them), and rho is the
      float64 root of c^2 - (|a| - delta c)^2, at least |e|^2 - |p|^2 =
      |e_perp|^2, rounded up (|a|^2 is a float32 sum, so divided by
      1 + gamma_r);
    - each stored coordinate is a * S in float32, rounded to an integer,
      so within 0.51 / S of a's (|a| S < 2^15 and u 2^15 < 0.01), and the
      stored vector is within sqrt(r) 0.51 / S |e| of a (|e| >= 1 -
      UNIT_NORM_TOL);
    - b / S is rounded to float32, so the bound moves by at most u;
    - the bound's GEMM is within gamma_{r+1} times the norms of a table row
      and a query column, which exceed |e| and |q| by far less than a
      factor 2 (2 gamma_{r+1});
    - the threshold, k-th cosine less margin, is rounded to float32 (u);
    - float64 errors (~1e-14) sit inside the 2^-40 |x|^2 added to each
      squared residual, and spare u's.

    So a dropped pair scores below the k-th cosine: no false dismissals
    (the lower-bounding lemma of GEMINI, Faloutsos et al., SIGMOD 1994).
    """

    basis: np.ndarray  # [d, r] float64
    table: np.ndarray  # [N_ref, r + 1] int16: a * S, then rho * S
    slack: float  # the margin per unit of |q|, for the longest row

    @classmethod
    def of(cls, embeddings: np.ndarray) -> CosineBound:
        """The bound of float32 rows of norm at most 1 + UNIT_NORM_TOL."""
        d = embeddings.shape[1]
        rank = min(BOUND_RANK, d)
        sample = embeddings[::BOUND_SAMPLE_STEP]
        _, vectors = np.linalg.eigh((sample.T @ sample).astype(np.float64))  # ascending eigenvalues
        basis = np.ascontiguousarray(vectors[:, ::-1][:, :rank])
        basis_f32 = basis.astype(np.float32)
        table = _mapped_array((len(embeddings), rank + 1), np.int16)
        max_norm = 1.0 + UNIT_NORM_TOL
        delta = _gamma(d + 2) * np.linalg.norm(np.abs(basis), 2) * (1.0 + 1e-12)  # |a - p| <= delta |e|
        for lo in range(0, len(embeddings), BOUND_BLOCK_ROWS):
            projected = embeddings[lo : lo + BOUND_BLOCK_ROWS] @ basis_f32
            sq_projected = np.einsum("ij,ij->i", projected, projected).astype(np.float64)  # within gamma_r of |a|^2
            low = np.maximum(np.sqrt(sq_projected / (1.0 + _gamma(rank))) - delta * max_norm, 0.0)
            rho = np.sqrt(max_norm**2 * (1.0 + 2.0**-40) - low**2) * (1.0 + 2.0**-40)
            table[lo : lo + BOUND_BLOCK_ROWS, :rank] = np.rint(np.multiply(projected, BOUND_SCALE, out=projected))
            table[lo : lo + BOUND_BLOCK_ROWS, rank] = np.ceil(rho * BOUND_SCALE)
        delta += np.sqrt(rank) * 0.51 / (BOUND_SCALE * (1.0 - UNIT_NORM_TOL))  # the stored coordinates' rounding
        terms = _gamma(d) + delta + 2.0 * _gamma(rank + 1) + 4.0 * FLOAT32_UNIT_ROUNDOFF  # see the class docstring
        return cls(basis, table, terms * max_norm)

    def query_side(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """[r + 1, m] float32 bound columns of the queries ((P^T q, then sigma) / S), and their margins, slack * |q|."""
        q = queries.astype(np.float64)
        projected = q @ self.basis
        sq_norms = np.einsum("ij,ij->i", q, q)
        residual = np.maximum(sq_norms - np.einsum("ij,ij->i", projected, projected), 0.0) + 2.0**-40 * sq_norms
        columns = np.empty((self.basis.shape[1] + 1, len(q)), dtype=np.float32)
        columns[:-1] = projected.T / BOUND_SCALE
        columns[-1] = _up_f32(np.sqrt(residual) / BOUND_SCALE)
        return columns, self.slack * np.sqrt(sq_norms)


@dataclass
class RetrievalIndex:
    embeddings: np.ndarray  # [N_ref, d_embed], unit-norm float32 rows (other float types are cast)
    expressions: np.ndarray  # [N_ref, hvg_num]
    provenance: list[tuple[str, int]]  # (slide_id, row count) per slide, in row order

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float32)  # the scan ranks float32 bit patterns
        if self.embeddings.shape[0] != self.expressions.shape[0]:
            raise ValueError("RetrievalIndex: embeddings/expressions row counts differ")
        if sum(count for _, count in self.provenance) != self.embeddings.shape[0]:
            raise ValueError("RetrievalIndex: provenance row counts do not sum to the row count")
        if not self.embeddings.shape[0]:  # no k fits, and the cosine bound's table needs a row
            raise ValueError("RetrievalIndex: no rows")
        _check_unit_rows(self.embeddings, "RetrievalIndex: embeddings")

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]

    @cached_property
    def bound(self) -> CosineBound:
        """The rows' cosine bound: derived once, by load_index or else by the first search that screens.

        Rows written in place after that would not be seen: an index's rows are fixed once it is made.
        """
        return CosineBound.of(self.embeddings)


def _mapped_array(shape: tuple[int, int], dtype) -> np.ndarray:
    """A zeroed array in an anonymous memory mapping of its own, unmapped when the array is freed.

    A malloc'ed block of several MB, once freed, raises glibc's mmap threshold, and the next index's table then comes
    from the heap, which keeps its pages: a table so allocated read ~25 MB more peak RSS in `query_100k`'s repeated
    set-ups.
    """
    return np.ndarray(shape, dtype=dtype, buffer=mmap.mmap(-1, shape[0] * shape[1] * np.dtype(dtype).itemsize))


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
    return RetrievalIndex(
        embeddings=np.concatenate([encode_slide_spots(s, checkpoint) for s in training_slides], axis=0),
        expressions=np.concatenate([s.expression for s in training_slides], axis=0).astype(np.float32),
        provenance=[(s.slide_id, s.spot_num) for s in training_slides],
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


def _scan_blocks(emb: np.ndarray, q_t: np.ndarray, k: int, block: int, claim,
                 screen: tuple[np.ndarray, np.ndarray, np.ndarray] | None) -> tuple[np.ndarray, np.ndarray]:
    """Exact [m, k] top rows and cosines, ranked by (-cos, row id), of the blocks of `emb` that `claim` hands out.

    `screen`, unless None, is a CosineBound's table, its query side and the
    queries' margins. Slots that no row fills hold row id len(emb) and -inf.
    `search` describes the scan.
    """
    (n, d), m = emb.shape, q_t.shape[1]
    rows = np.full((m, k), n, dtype=np.int64)
    cosines = np.full((m, k), -np.inf, dtype=emb.dtype)
    tile = np.empty((min(block, n), m), dtype=emb.dtype)  # reused: a fresh tile per block page-faults
    mask = np.empty(tile.shape, dtype=bool)
    min_subset = max(2, SMALL_GEMM_MACS // (m * d) + 1)
    coords = None if screen is None else np.empty((len(tile), screen[0].shape[1]), dtype=emb.dtype)  # reused
    first = True
    while (lo := claim()) is not None:
        chunk = emb[lo : lo + block]
        kept = None  # the block's rows that are scored, when not all of them
        if screen is not None and not first and len(chunk) > min_subset:
            table, u_t, margins = screen
            np.copyto(coords[: len(chunk)], table[lo : lo + block])  # int16 to float32 is exact
            bounds = np.matmul(coords[: len(chunk)], u_t, out=tile[: len(chunk)])
            floor = (cosines[:, -1] - margins).astype(emb.dtype)
            live = np.greater_equal(bounds, floor, out=mask[: len(chunk)]).any(axis=1)
            live[:min_subset] = True
            if 4 * np.count_nonzero(live) > 3 * len(chunk):
                screen = None  # the bound keeps most rows: this thread scores its remaining blocks whole
            else:
                kept = np.flatnonzero(live)
                chunk = chunk[kept]
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
        c, r = scores[r, qi], (r if kept is None else kept[r]) + lo
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

    Returns [m, k] arrays of row ids, cosines and Euclidean distances; for
    unit vectors d^2 = 2 - 2 cos within float tolerance. Embeddings of any
    float type are held as float32 (RetrievalIndex casts them).

    The index is read in blocks of rows, each block's [rows, m] score tile
    within SEARCH_BLOCK_BYTES, on a pool of one worker thread per CPU the
    BLAS leaves free (CPUs divided by OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS, else by the CPU count itself), at least one and at most
    one per full tile. A thread takes the next block, in ascending order,
    when it finishes one, so a thread slowed by a busy CPU scans fewer blocks
    instead of holding up the rest. Each thread keeps its own top k, and the
    threads' lists are merged by (-cosine, row id), so ties at the k-th
    cosine go to the lower row id whichever thread scanned which block.

    A thread's first block is scored against all queries by one float32
    GEMM into a reused tile, which is transposed to query-major order in
    strips of TRANSPOSE_STRIP_ROWS rows (one whole-tile transpose is ~5x
    slower) and partitioned per query: every row at or above a query's k-th
    cosine is a candidate. A row of a later block has a higher id, so it
    must beat the current k-th cosine outright. Each later block is first
    screened by the index's CosineBound: one [rows, K] x [K, m] GEMM over
    the block's table rows, cast to float32 in a reused buffer, bounds every
    row's cosine with every query from above, and only the rows whose bound
    plus margin reaches some query's current k-th cosine are scored, by the
    same GEMM on that subset. The margin covers the rounding error of both
    the bound and the score, so no dropped row could have entered the top k
    (no false dismissals). The subset is padded with the block's first rows
    to at least 2 rows and more than SMALL_GEMM_MACS multiply-adds, where its
    scores are bitwise the whole tile's (a one-row or one-column product is
    a gemv, so a lone query is not screened); a smaller block is scored
    whole. Once the bound keeps more than 3/4 of a block's rows, as it does
    for rows it cannot summarize (random rows, say), the thread scores its
    remaining blocks whole. (It keeps fewer as the k-th cosines rise: a
    first screened block that keeps half its rows is worth screening on.)
    An index within one block per thread is scored whole. A loaded index has
    its bound already; an index built in memory derives it on its first
    search that screens (~80 ms at 102,400 x 256).

    Every compare against the k-th cosines reads a contiguous copy of them,
    not a strided column, and writes into a reused mask. Candidates are
    merged with the hit queries' current top k by one stable sort of an
    int64 key, the query shifted up 32 bits less the float32 cosine's bit
    pattern made monotone, in place of a two-key lexsort. That pattern maps
    -0.0 and +0.0 to one value, so two zero cosines tie like any other, and
    equal cosines keep their arrival order, ascending row id. The rows and
    cosines are the exact top k of the float32 scores, bit for bit those of
    scoring every row.
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
    screen = None
    if m > 1 and n > workers * block:  # a lone query is scored by gemv
        screen = (index.bound.table, *index.bound.query_side(queries))
    with ThreadPoolExecutor(workers) as pool:  # numpy's matmul releases the GIL
        parts = [pool.submit(_scan_blocks, emb, q_t, k, block, claim, screen) for _ in range(workers)]
        rows, cosines = _merge_top_k([part.result() for part in parts], k)
    ranks = max(1, SEARCH_BLOCK_BYTES // (m * d * emb.itemsize))  # caps the [m, ranks, d] differences
    for j in range(0, k, ranks):
        diffs = np.take(emb, rows[:, j : j + ranks], axis=0)  # in place below: fresh temporaries cost ~2x
        diffs -= queries[:, None, :]
        diffs *= diffs
        dists[:, j : j + ranks] = np.sqrt(np.sum(diffs, axis=2))
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
    if any(slide_id == test_slide.slide_id for slide_id, _ in index.provenance):
        raise LeakageError(f"predict_slide: {test_slide.slide_id} is present in the reference index")
    _check_k(index, k, "predict_slide")
    cfg = checkpoint.encoder_config
    if cfg.d_embed != index.embeddings.shape[1]:
        raise ValueError(f"predict_slide: checkpoint d_embed={cfg.d_embed} != index dim {index.embeddings.shape[1]}")
    if cfg.hvg_num != index.expressions.shape[1]:  # the prediction's columns are the checkpoint's genes
        raise ValueError(f"predict_slide: checkpoint hvg_num={cfg.hvg_num} != index expression width "
                         f"{index.expressions.shape[1]}")
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
        "d_embed": index.embeddings.shape[1],
        "hvg_num": index.expressions.shape[1],
        "slides": [[slide_id, count] for slide_id, count in index.provenance],
    }
    (directory / "provenance.json").write_text(json.dumps(meta, sort_keys=True) + "\n")


def load_index(directory: str | Path) -> RetrievalIndex:
    """An index as save_index wrote it; its row count is the sum of the slides' counts, which both blobs must hold, and
    an expression that is NaN or infinite is a DataFormatError naming expressions.f32, its row and its gene."""
    path = Path(directory) / "provenance.json"
    meta = read_json(path, required={"d_embed": int, "hvg_num": int, "slides": list})
    provenance = _provenance(meta["slides"], path)
    n, d, g = sum(count for _, count in provenance), meta["d_embed"], meta["hvg_num"]
    embeddings = read_blob(path.parent / "embeddings.f32", "<f4", (n, d))
    expressions = read_blob(path.parent / "expressions.f32", "<f4", (n, g))
    finite = np.isfinite(expressions)
    if not finite.all():  # NaN or Inf would reach every prediction that retrieves the row
        row, gene = np.argwhere(~finite)[0]
        raise DataFormatError(f"{path.parent / 'expressions.f32'}: row {row} gene {gene} holds "
                              f"{expressions[row, gene]}")
    index = RetrievalIndex(embeddings=embeddings, expressions=expressions, provenance=provenance)
    index.bound  # derived while loading, so no search of a loaded index pays for it
    return index


def _provenance(slides: list, path: Path) -> list[tuple[str, int]]:
    """The (slide id, row count) tuples of `slides`; the first item that is no such pair is a DataFormatError.

    A pair is a list of a string, then an int (no bool) of at least 1.
    """
    ok = [json_type_ok(e, tuple[str, int]) and e[1] >= 1 for e in slides]
    if not all(ok):
        i = ok.index(False)
        raise DataFormatError(f"{path}: field slides.{i} is {json.dumps(slides[i])}, "
                              "expected a [slide id, row count >= 1] pair")
    return [(e[0], e[1]) for e in slides]
