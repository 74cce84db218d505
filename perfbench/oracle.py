"""Independent float64 brute-force oracle for retrieval predictions.

The contract being checked: a query's prediction is the inverse-square
Euclidean-distance weighted mean of the expressions of its top-k reference
rows by cosine, with ties broken by the lower row id, and a neighbour closer
than 1e-8 returned verbatim. The oracle scans every row in float64 and never
calls stexp.

stexp scores rows in float32, so two rows whose exact cosines differ by less
than float32's rounding error can swap, or tie and fall back to the lower row
id. A prediction that misses the exact top-k is therefore also accepted if it
matches a top-k selection that float32 scoring could return: one where no
excluded row's exact cosine exceeds a chosen row's by more than the float32
dot-product error bound of both. Such acceptances are counted as near ties.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

TOLERANCE = 1e-6
NEAR_ZERO_DISTANCE = 1e-8
FLOAT32_UNIT_ROUNDOFF = 2.0**-24
MAX_NEAR_TIE_SELECTIONS = 4096
_CHUNK_ROWS = 8192


def cosines64(embeddings: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """[N_ref, N_query] cosines in float64, scanning the index in row chunks."""
    q64 = np.asarray(queries, dtype=np.float64).T
    out = np.empty((embeddings.shape[0], q64.shape[1]))
    for start in range(0, embeddings.shape[0], _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        out[start:stop] = embeddings[start:stop].astype(np.float64) @ q64
    return out


def top_k_rows(cos: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k by (cosine descending, row id ascending)."""
    kth = np.partition(cos, cos.size - k)[cos.size - k]
    cand = np.flatnonzero(cos >= kth)
    return cand[np.lexsort((cand, -cos[cand]))[:k]]


def float32_swap_slack(embeddings: np.ndarray, query: np.ndarray) -> float:
    """How far apart two exact cosines can be and still swap order when scored in float32.

    A float32 dot product of d terms is within gamma_d * sum|e_i q_i| of the
    exact one (gamma_d = d u / (1 - d u), any summation order), and
    sum|e_i q_i| <= |e| |q|; two rows' errors add.
    """
    d = embeddings.shape[1]
    gamma = d * FLOAT32_UNIT_ROUNDOFF / (1.0 - d * FLOAT32_UNIT_ROUNDOFF)
    max_row_norm = float(np.sqrt(np.max(np.einsum("ij,ij->i", embeddings, embeddings, dtype=np.float64))))
    return 2.0 * gamma * max_row_norm * float(np.linalg.norm(np.asarray(query, dtype=np.float64)))


def near_tie_selections(cos: np.ndarray, k: int, slack: float):
    """Each top-k row set, in rank order, that scoring within `slack` could return; None if too many."""
    if cos.size <= k:
        return []
    kth, next_ = np.sort(np.partition(cos, cos.size - k - 1)[cos.size - k - 1:])[:2][::-1]
    forced = np.flatnonzero(cos > next_ + slack)
    band = np.flatnonzero((cos >= kth - slack) & (cos <= next_ + slack))
    take = k - forced.size
    if math.comb(band.size, take) > MAX_NEAR_TIE_SELECTIONS:
        return None
    selections = []
    for chosen in itertools.combinations(band, take):
        chosen = np.array(chosen, dtype=np.int64)
        left_out = np.setdiff1d(band, chosen)
        if left_out.size and chosen.size and cos[left_out].max() - cos[chosen].min() > slack:
            continue
        rows = np.concatenate([forced, chosen])
        selections.append(rows[np.lexsort((rows, -cos[rows]))])
    return selections


def weighted_prediction(rows, query, embeddings, expressions) -> np.ndarray:
    """Inverse-square weighted mean over rows given in rank order."""
    rows = np.asarray(rows)
    diffs = embeddings[rows].astype(np.float64) - np.asarray(query, dtype=np.float64)
    dists = np.sqrt((diffs * diffs).sum(axis=1))
    near = np.flatnonzero(dists < NEAR_ZERO_DISTANCE)
    if near.size:
        return expressions[rows[near[0]]].astype(np.float64)
    w = dists**-2.0
    return (w / w.sum()) @ expressions[rows].astype(np.float64)


@dataclass
class OracleReport:
    queries: int = 0
    failed: int = 0
    near_ties: int = 0  # passed only through a float32 near-tie selection
    max_abs_err: float = 0.0


def check_predictions(pred, query_embeddings, embeddings, expressions, k, report: OracleReport) -> list[int]:
    """Check every predicted row against the oracle; returns the failing query positions."""
    pred = np.asarray(pred, dtype=np.float64)
    cos = cosines64(embeddings, query_embeddings)
    failing = []
    for i in range(pred.shape[0]):
        query = query_embeddings[i]

        def error(rows):
            return float(np.max(np.abs(pred[i] - weighted_prediction(rows, query, embeddings, expressions))))

        err = error(top_k_rows(cos[:, i], k))
        report.queries += 1
        if err > TOLERANCE:
            selections = near_tie_selections(cos[:, i], k, float32_swap_slack(embeddings, query)) or []
            best = min((error(rows) for rows in selections), default=err)
            if best <= TOLERANCE:
                report.near_ties += 1
                err = best
        report.max_abs_err = max(report.max_abs_err, err)
        if err > TOLERANCE:
            report.failed += 1
            failing.append(i)
    return failing
