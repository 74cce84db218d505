"""Retrieval index contracts, top-k against brute force, aggregation arithmetic."""

import json

import numpy as np
import pytest

from stexp import encoders, inference
from stexp.contrastive import Checkpoint, TrainConfig, fit
from stexp.data import DataFormatError, GenConfig, load_dataset, preprocess, synth_generate
from stexp.encoders import EncoderConfig
from stexp.inference import (
    LeakageError,
    RetrievalIndex,
    aggregate_rows,
    build_index,
    encode_slide_patches,
    load_index,
    predict_slide,
    save_index,
    search,
)


def unit_rows(n, d, seed=0):
    h = np.random.default_rng(seed).standard_normal((n, d))
    return (h / np.linalg.norm(h, axis=1, keepdims=True)).astype(np.float32)


def make_index(n=20, d=8, g=5, seed=0):
    rng = np.random.default_rng(seed + 100)
    return RetrievalIndex(
        embeddings=unit_rows(n, d, seed),
        expressions=rng.uniform(0, 10, (n, g)).astype(np.float32),
        provenance=[("ref", i) for i in range(n)],
    )


def reference_predict(index, queries, k):
    """Independent implementation: no index structure, float64, plain loops."""
    emb = index.embeddings.astype(np.float64)
    expr = index.expressions.astype(np.float64)
    want = np.empty((len(queries), expr.shape[1]))
    for i, q in enumerate(queries.astype(np.float64)):
        cos = emb @ q
        order = sorted(range(len(cos)), key=lambda r: (-cos[r], r))[:k]
        d = np.sqrt(((emb[order] - q) ** 2).sum(axis=1))
        if np.any(d < 1e-8):
            want[i] = expr[order[int(np.argmin(d))]]
        else:
            w = d**-2.0
            w = w / w.sum()
            want[i] = w @ expr[order]
    return want


def search_one(index, q, k):
    """search for a single query: its ranked row ids, cosines and distances."""
    rows, cosines, dists = search(index, np.asarray(q).reshape(1, -1), k)
    return rows[0], cosines[0], dists[0]


def aggregate_one(index, rows, dists):
    """aggregate_rows for a single query's ranked rows and distances."""
    return aggregate_rows(index, np.array([rows], dtype=np.int64), np.array([dists], dtype=np.float64))[0]


def blocks_of(monkeypatch, index, queries_per_block):
    """Shrink the search block budget to a few queries per block."""
    monkeypatch.setattr(inference, "SEARCH_BLOCK_BYTES",
                        queries_per_block * index.size * index.embeddings.itemsize)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    gen = GenConfig(n_slides=3, spots_per_slide=50, gene_num=32, n_domains=4,
                    signal=1.0, patch_shape=(3, 16, 16))
    synth_generate(gen, 21, root)
    slides = load_dataset(root)
    ids = [s.slide_id for s in slides]
    ds = preprocess(slides, hvg_num=16, train_ids=ids[:2])
    ecfg = EncoderConfig(hvg_num=16, d_embed=32, n_heads=4, conv_channels=(8, 16),
                         proj_hidden=32, patch_shape=(3, 16, 16))
    tcfg = TrainConfig(batch_size=16, epochs=15, learning_rate=2e-3, temperature=0.05, seed=21)
    ckpt = fit(ds, tcfg, ecfg)
    return ckpt, ds


class TestBuildIndex:
    def test_row_count_is_total_training_spots(self, trained):
        ckpt, ds = trained
        index = build_index(ckpt, ds.train_slides())
        assert index.size == sum(s.spot_num for s in ds.train_slides())

    def test_self_query_returns_own_row(self, trained):
        ckpt, ds = trained
        index = build_index(ckpt, ds.train_slides())
        for row in (0, 7, index.size - 1):
            rows, cosines, _ = search_one(index, index.embeddings[row], 1)
            assert rows[0] == row
            assert cosines[0] == pytest.approx(1.0, abs=1e-5)

    def test_rows_unit_norm(self, trained):
        ckpt, ds = trained
        index = build_index(ckpt, ds.train_slides())
        np.testing.assert_allclose(np.linalg.norm(index.embeddings, axis=1), 1.0, atol=1e-5)

    def test_gene_dimension_mismatch_rejected(self, trained):
        ckpt, ds = trained
        bad = ds.train_slides()[0]
        import dataclasses

        shrunk = dataclasses.replace(
            bad,
            expression=bad.expression[:, :8],
            gene_names=bad.gene_names[:8],
        )
        with pytest.raises(ValueError, match="genes"):
            build_index(ckpt, [shrunk])


class TestQueryTopk:
    def test_exhaustive_case_sorted(self):
        index = make_index(n=12)
        q = unit_rows(1, 8, 3)[0]
        rows, cosines, _ = search_one(index, q, 12)
        assert len(rows) == 12
        cosines = cosines.tolist()
        assert cosines == sorted(cosines, reverse=True)

    def test_matches_brute_force_on_random_queries(self):
        index = make_index(n=40, seed=1)
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = rng.standard_normal(8)
            q /= np.linalg.norm(q)
            got = search_one(index, q, 7)[0].tolist()
            # independent brute force: full scan, sort by (-cos, row)
            cos = index.embeddings.astype(np.float64) @ q
            want = sorted(range(40), key=lambda r: (-cos[r], r))[:7]
            # allow exact-tie reordering only (there are none with random data)
            assert got == want

    def test_distance_identity_for_unit_vectors(self):
        index = make_index(n=25, seed=2)
        q = unit_rows(1, 8, 9)[0]
        for row, cos, dist in zip(*search_one(index, q, 25)):
            assert dist * dist == pytest.approx(2.0 - 2.0 * cos, abs=1e-5)

    def test_tie_break_lower_row_id(self):
        emb = np.zeros((4, 4), dtype=np.float32)
        emb[:, 0] = 1.0  # all identical -> all cosines tie
        index = RetrievalIndex(
            embeddings=emb,
            expressions=np.arange(8, dtype=np.float32).reshape(4, 2),
            provenance=[("r", i) for i in range(4)],
        )
        got = search_one(index, emb[0], 3)[0].tolist()
        assert got == [0, 1, 2]

    def test_non_finite_query_rejected(self):
        q = unit_rows(1, 8)[0]
        q[2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            search_one(make_index(), q, 3)

    def test_k_validation(self):
        index = make_index(n=5)
        q = unit_rows(1, 8)[0]
        with pytest.raises(ValueError, match="k="):
            search_one(index, q, 6)
        with pytest.raises(ValueError, match="k="):
            search_one(index, q, 0)


class TestAggregate:
    def test_single_neighbor_passthrough_exact(self):
        index = make_index()
        out = aggregate_one(index, [3], [0.5])
        np.testing.assert_array_equal(out, index.expressions[3].astype(np.float64))

    def test_hand_weights_example(self):
        # distances [1, 2] with expressions [10], [20]:
        # weights d^-2 -> [1, 0.25] -> normalized [0.8, 0.2] -> 0.8*10 + 0.2*20 = 12
        index = RetrievalIndex(
            embeddings=unit_rows(2, 4, 1),
            expressions=np.array([[10.0], [20.0]], dtype=np.float32),
            provenance=[("r", 0), ("r", 1)],
        )
        out = aggregate_one(index, [0, 1], [1.0, 2.0])
        assert out[0] == pytest.approx(12.0, abs=1e-12)

    def test_equidistant_neighbors_arithmetic_mean(self):
        index = make_index(n=6, seed=3)
        rows = [0, 2, 4]
        out = aggregate_one(index, rows, [0.7] * len(rows))
        np.testing.assert_allclose(out, index.expressions[rows].astype(np.float64).mean(axis=0), atol=1e-12)

    def test_near_zero_distance_returns_neighbor_exactly(self):
        index = make_index(n=6, seed=4)
        out = aggregate_one(index, [1, 2], [1e-12, 1.0])
        np.testing.assert_array_equal(out, index.expressions[1].astype(np.float64))

    def test_weights_monotone_in_distance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            dists = np.sort(rng.uniform(0.1, 2.0, 5))
            inv = dists**-2.0
            weights = inv / inv.sum()
            assert np.all(np.diff(weights) <= 1e-15)

    def test_convex_combination_bounds(self):
        index = make_index(n=30, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(200):
            rows = rng.choice(30, size=5, replace=False)
            dists = [float(rng.uniform(0.05, 2.0)) for _ in rows]
            out = aggregate_one(index, rows, dists)
            ref = index.expressions[rows].astype(np.float64)
            assert np.all(out >= ref.min(axis=0) - 1e-9)
            assert np.all(out <= ref.max(axis=0) + 1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty neighbor list"):
            aggregate_one(make_index(), [], [])


class TestPredictSlide:
    def test_output_shape_and_determinism(self, trained):
        ckpt, ds = trained
        index = build_index(ckpt, ds.train_slides())
        test = ds.test_slides()[0]
        p1 = predict_slide(ckpt, index, test, k=5)
        p2 = predict_slide(ckpt, index, test, k=5)
        assert p1.shape == (test.spot_num, 16)
        np.testing.assert_array_equal(p1, p2)

    def test_k1_predictions_are_index_rows(self, trained):
        ckpt, ds = trained
        index = build_index(ckpt, ds.train_slides())
        test = ds.test_slides()[0]
        pred = predict_slide(ckpt, index, test, k=1)
        expr64 = index.expressions.astype(np.float64)
        for i in range(test.spot_num):
            assert any(np.array_equal(pred[i], row) for row in expr64), f"spot {i} not an index row"

    def test_leakage_guard(self, trained):
        ckpt, ds = trained
        index = build_index(ckpt, ds.train_slides())
        with pytest.raises(LeakageError, match="present in the reference index"):
            predict_slide(ckpt, index, ds.train_slides()[0], k=3)

    def test_agrees_with_straight_line_reference(self, trained):
        ckpt, ds = trained
        index = build_index(ckpt, ds.train_slides())
        test = ds.test_slides()[0]
        got = predict_slide(ckpt, index, test, k=7)
        want = reference_predict(index, encode_slide_patches(test, ckpt), 7)
        np.testing.assert_allclose(got, want, atol=1e-6)

    @pytest.fixture
    def no_encoding(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("a patch was encoded before the inputs were checked")

        monkeypatch.setattr(encoders, "embed_patches", refuse)

    def test_bad_k_rejected_before_encoding(self, trained, no_encoding):
        ckpt, ds = trained
        index = build_index(ckpt, ds.train_slides())
        for k in (0, index.size + 1):
            with pytest.raises(ValueError, match="k="):
                predict_slide(ckpt, index, ds.test_slides()[0], k=k)

    def test_index_of_another_embedding_size_rejected(self, trained, no_encoding):
        ckpt, ds = trained
        with pytest.raises(ValueError, match="d_embed=32"):
            predict_slide(ckpt, make_index(n=20, d=8), ds.test_slides()[0], k=3)


class TestBatchedSearch:
    def test_ragged_blocks_match_reference(self, trained, monkeypatch):
        ckpt, ds = trained
        index = build_index(ckpt, ds.train_slides())
        test = ds.test_slides()[0]
        assert test.spot_num % 3 != 0  # the last block is ragged
        blocks_of(monkeypatch, index, 3)
        got = predict_slide(ckpt, index, test, k=9)
        want = reference_predict(index, encode_slide_patches(test, ckpt), 9)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_ties_at_the_cut_go_to_lower_rows(self, monkeypatch):
        # one-hot rows and queries: every cosine is exactly 0 or 1
        axes = [0, 1, 0, 2, 0, 3, 0, 1, 0, 2, 0, 0]
        index = RetrievalIndex(
            embeddings=np.eye(4, dtype=np.float32)[axes],
            expressions=np.arange(24, dtype=np.float32).reshape(12, 2),
            provenance=[("r", i) for i in range(12)],
        )
        queries = np.eye(4, dtype=np.float32)[[0, 1, 2, 3, 0]]
        blocks_of(monkeypatch, index, 2)
        rows, cosines, dists = search(index, queries, 3)
        np.testing.assert_array_equal(rows, [[0, 2, 4], [1, 7, 0], [3, 9, 0], [5, 0, 1], [0, 2, 4]])
        np.testing.assert_array_equal(cosines[:, 0], 1.0)
        np.testing.assert_array_equal(dists[:, 0], 0.0)

    def test_exact_row_query_passes_through_alone(self, trained, monkeypatch):
        ckpt, ds = trained
        index = build_index(ckpt, ds.train_slides())
        queries = encode_slide_patches(ds.test_slides()[0], ckpt)
        queries[4] = index.embeddings[17]  # middle query of the block [3, 4, 5]
        blocks_of(monkeypatch, index, 3)
        rows, _, dists = search(index, queries, 7)
        got = aggregate_rows(index, rows, dists)
        assert rows[4, 0] == 17 and dists[4, 0] == 0.0
        np.testing.assert_array_equal(got[4], index.expressions[17].astype(np.float64))
        np.testing.assert_allclose(got, reference_predict(index, queries, 7), atol=1e-6)
        assert not np.any(dists[np.arange(len(queries)) != 4] < 1e-8)


def rows_per_block(monkeypatch, rows, n_queries):
    """Shrink the search tile budget to a few index rows per block."""
    monkeypatch.setattr(inference, "SEARCH_BLOCK_BYTES", rows * n_queries * 4)


def brute_force(index, queries, k):
    """Full float64 scan ranked by (-cos, row id): exact when every dot product is."""
    cos = queries.astype(np.float64) @ index.embeddings.astype(np.float64).T
    return np.array([sorted(range(index.size), key=lambda r: (-c[r], r))[:k] for c in cos])


def exact_index(vectors):
    """Rows with entries in {0, +-1/2, +-1}: scores against small dyadic queries are exact."""
    emb = np.array(vectors, dtype=np.float32)
    return RetrievalIndex(
        embeddings=emb,
        expressions=np.arange(2 * len(emb), dtype=np.float32).reshape(-1, 2),
        provenance=[("r", i) for i in range(len(emb))],
    )


class TestRowBlockedScan:
    E = np.eye(4)
    H = 0.5 * np.array([1, -1, 1, 1])  # scores 3.5 against Q[0]
    # Q[0] scores e0 8, e1 4, e2 2, e3 1; every score below is exact in float32
    Q = np.array([[8, 4, 2, 1], [1, 2, 4, 8]], dtype=np.float32)

    def test_later_duplicate_of_kth_row_loses_and_ragged_last_block_wins(self, monkeypatch):
        e = self.E
        index = exact_index([e[0], -e[0], e[2], e[1],  # block 0: Q[0]'s top 3 is [0, 3, 2]
                             -e[1], e[2], -e[2], -e[3],  # block 1: row 5 duplicates the k-th row 2
                             -e[0], self.H])  # ragged block 2: row 9 beats the k-th score
        rows_per_block(monkeypatch, 4, len(self.Q))
        rows, cosines, _ = search(index, self.Q, 3)
        np.testing.assert_array_equal(rows[0], [0, 3, 9])
        np.testing.assert_array_equal(cosines[0], [8.0, 4.0, 3.5])
        np.testing.assert_array_equal(rows, brute_force(index, self.Q, 3))

    def test_one_duplicate_ties_the_kth_row_of_one_query_and_beats_the_other(self, monkeypatch):
        e = self.E
        index = exact_index([e[0], e[1], e[2], -e[0], -e[1], e[2], -e[3]])
        rows_per_block(monkeypatch, 3, len(self.Q))  # row 5 in block 1 repeats row 2 of block 0
        rows, cosines, _ = search(index, self.Q, 3)
        # Q[0]: row 5 ties its k-th score 2 and loses; Q[1]: it beats the k-th score 1, after row 2
        np.testing.assert_array_equal(rows, [[0, 1, 2], [2, 5, 1]])
        np.testing.assert_array_equal(cosines, [[8, 4, 2], [4, 4, 2]])

    def test_k_equals_index_size_in_one_block(self):
        index = make_index(n=9, seed=11)
        queries = unit_rows(4, 8, 12)
        rows, cosines, dists = search(index, queries, index.size)
        np.testing.assert_array_equal(rows, brute_force(index, queries, index.size))
        assert np.all(np.diff(cosines, axis=1) <= 0)
        np.testing.assert_allclose(dists**2, 2.0 - 2.0 * cosines, atol=1e-5)

    def test_index_smaller_than_one_block(self):
        index = make_index(n=30, seed=13)
        queries = unit_rows(5, 8, 14)
        assert index.size < inference.SEARCH_BLOCK_BYTES // (len(queries) * 4)
        rows, _, _ = search(index, queries, 4)
        np.testing.assert_array_equal(rows, brute_force(index, queries, 4))

    def test_no_queries(self):
        rows, cosines, dists = search(make_index(), np.empty((0, 8), dtype=np.float32), 6)
        assert rows.shape == cosines.shape == dists.shape == (0, 6)
        assert rows.dtype == np.int64 and cosines.dtype == dists.dtype == np.float32

    @pytest.mark.parametrize("k", [1, 7, 50])
    def test_many_row_blocks_match_reference(self, monkeypatch, k):
        index = make_index(n=700, d=8, seed=15)
        queries = unit_rows(50, 8, 16)
        rows_per_block(monkeypatch, 64, len(queries))  # 11 blocks, the last one ragged
        rows, _, dists = search(index, queries, k)
        np.testing.assert_array_equal(rows, brute_force(index, queries, k))
        np.testing.assert_allclose(aggregate_rows(index, rows, dists),
                                   reference_predict(index, queries, k), atol=1e-6)


def stub_workers(monkeypatch, workers):
    """Scan on `workers` threads, whatever the CPU and BLAS thread counts."""
    monkeypatch.setattr(inference, "_scan_workers", lambda n, block: workers)


def same_bits(got, want):
    return all(g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
               for g, w in zip(got, want))


class TestThreadedScan(TestRowBlockedScan):
    """Every row-blocked scan case again, and the tie cases, on 1, 2 and 3 threads."""

    @pytest.fixture(autouse=True, params=[1, 2, 3])
    def workers(self, request, monkeypatch):
        stub_workers(monkeypatch, request.param)
        return request.param

    test_tie_break_lower_row_id = TestQueryTopk.test_tie_break_lower_row_id
    test_ties_at_the_cut_go_to_lower_rows = TestBatchedSearch.test_ties_at_the_cut_go_to_lower_rows

    def tie_index(self):
        """18 rows; row 2 is repeated in rows 10 and 16."""
        e = self.E
        return exact_index([-e[0], e[1], e[2], -e[1], -e[2], -e[3], -e[0], -e[1], -e[3],
                            e[0], e[2], -e[2], -e[0], -e[1], -e[3], -e[2], e[2], e[3]])

    def test_later_row_tying_the_kth_cosine_loses(self, monkeypatch):
        index = self.tie_index()
        rows_per_block(monkeypatch, 3, len(self.Q))  # 6 blocks to share out
        rows, cosines, _ = search(index, self.Q, 3)
        # Q[0]: rows 10 and 16 tie row 2 at the k-th score 2 and lose; Q[1]: row 10 beats row 16 at 4
        np.testing.assert_array_equal(rows, [[9, 1, 2], [17, 2, 10]])
        np.testing.assert_array_equal(cosines, [[8, 4, 2], [8, 4, 4]])
        np.testing.assert_array_equal(rows, brute_force(index, self.Q, 3))

    def test_top_k_is_a_prefix_of_top_k_max(self, monkeypatch):
        index = self.tie_index()
        rows_per_block(monkeypatch, 3, len(self.Q))
        k_max = index.size
        longest = search(index, self.Q, k_max)
        for k in range(1, k_max):
            assert same_bits(search(index, self.Q, k), [a[:, :k] for a in longest]), k

    @pytest.mark.parametrize("k", [1, 7, 50])
    def test_same_bits_as_one_thread(self, monkeypatch, k):
        index = make_index(n=700, d=8, seed=15)
        queries = unit_rows(50, 8, 16)
        rows_per_block(monkeypatch, 64, len(queries))  # 11 blocks and a short last one
        threaded = search(index, queries, k)
        stub_workers(monkeypatch, 1)
        assert same_bits(threaded, search(index, queries, k))

    @pytest.mark.parametrize("split", [
        [[0, 2, 4], [1, 3]],
        [[2, 3, 4], [0, 1]],
        [[4], [0, 1, 2, 3]],  # a thread's first block is the short last one
        [[], [0, 1, 2, 3, 4]],  # a thread that gets no block
        [[1, 4], [0], [2, 3]],
    ])
    def test_any_split_of_the_blocks_merges_to_one_threads_bits(self, monkeypatch, split):
        """Each thread's blocks ascend, whichever thread claims which; rows 10 and 16 tie row 2 for Q[0]."""
        index = self.tie_index()
        k, block = 3, 4  # blocks start at rows 0, 4, 8, 12 and 16; the last holds 2 rows
        q_t = np.ascontiguousarray(self.Q.T)

        def claims(blocks):
            starts = iter(block * b for b in blocks)
            return lambda: next(starts, None)

        parts = [inference._scan_blocks(index.embeddings, q_t, k, block, claims(b), None) for b in split]
        merged = inference._merge_top_k(parts, k)
        rows_per_block(monkeypatch, block, len(self.Q))
        stub_workers(monkeypatch, 1)
        assert same_bits(merged, search(index, self.Q, k)[:2])
        np.testing.assert_array_equal(merged[0], brute_force(index, self.Q, k))


class TestScanWorkers:
    """The worker rule, checked without starting more than two threads."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        return lambda count: monkeypatch.setattr(inference.os, "sched_getaffinity", lambda pid: set(range(count)))

    def test_one_worker_when_blas_threads_unset(self, cpus):
        cpus(64)
        assert inference._scan_workers(10**6, 10) == 1

    def test_capped_at_full_tiles(self, cpus, monkeypatch):
        cpus(64)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert inference._scan_workers(3 * 8192 + 100, 8192) == 3
        assert inference._scan_workers(8191, 8192) == 1

    @pytest.mark.parametrize("openblas, omp, workers", [
        ("1", None, 8), ("2", "1", 4), (None, "4", 2),
        ("many", "2", 4), ("many", None, 1), ("0", "2", 4), ("0", None, 1),  # not a positive count: next one
    ])
    def test_blas_threads_divide_cpus(self, cpus, monkeypatch, openblas, omp, workers):
        cpus(8)
        for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is not None:
                monkeypatch.setenv(var, value)
        assert inference._scan_workers(10**6, 10) == workers

    def test_cpu_count_without_affinity(self, cpus, monkeypatch):
        monkeypatch.delattr(inference.os, "sched_getaffinity")
        monkeypatch.setattr(inference.os, "cpu_count", lambda: 6)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert inference._scan_workers(10**6, 10) == 3

    def test_index_below_one_tile_starts_no_thread(self, cpus, monkeypatch):
        cpus(64)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(inference, "ThreadPoolExecutor", lambda *a, **k: pytest.fail("a thread pool opened"))
        index = make_index(n=30, seed=13)
        queries = unit_rows(5, 8, 14)
        rows, _, _ = search(index, queries, 4)
        np.testing.assert_array_equal(rows, brute_force(index, queries, 4))

    def test_two_free_cpus_scan_on_two_threads(self, cpus, monkeypatch):
        cpus(2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        opened = []

        class Recording(inference.ThreadPoolExecutor):
            def __init__(self, max_workers):
                opened.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(inference, "ThreadPoolExecutor", Recording)
        index = make_index(n=700, d=8, seed=15)
        queries = unit_rows(50, 8, 16)
        rows_per_block(monkeypatch, 64, len(queries))
        threaded = search(index, queries, 7)
        assert opened == [2]
        stub_workers(monkeypatch, 1)
        assert same_bits(threaded, search(index, queries, 7))


class TestUnitNormCheck:
    def nan_row_index(self):
        index = make_index()
        emb = index.embeddings.copy()
        emb[3] = np.nan
        return emb, index

    def test_nan_row_rejected(self):
        emb, index = self.nan_row_index()
        with pytest.raises(ValueError, match="row 3 has norm nan"):
            RetrievalIndex(embeddings=emb, expressions=index.expressions, provenance=index.provenance)

    def test_nan_row_rejected_on_load(self, tmp_path):
        emb, index = self.nan_row_index()
        save_index(index, tmp_path / "idx")
        emb.astype("<f4").tofile(tmp_path / "idx" / "embeddings.f32")
        with pytest.raises(ValueError, match="row 3 has norm nan"):
            load_index(tmp_path / "idx")

    @pytest.mark.parametrize("norm,accepted", [(1 + 2e-5, False), (1 + 5e-6, True), (1 - 2e-5, False)])
    def test_tolerance_edge(self, norm, accepted):
        index = make_index()
        emb = index.embeddings.copy()
        emb[5] = 0.0
        emb[5, 2] = norm
        if accepted:
            RetrievalIndex(embeddings=emb, expressions=index.expressions, provenance=index.provenance)
        else:
            with pytest.raises(ValueError, match="row 5 has norm"):
                RetrievalIndex(embeddings=emb, expressions=index.expressions, provenance=index.provenance)


class TestIndexPersistence:
    def test_round_trip(self, trained, tmp_path):
        ckpt, ds = trained
        index = build_index(ckpt, ds.train_slides())
        save_index(index, tmp_path / "idx")
        back = load_index(tmp_path / "idx")
        np.testing.assert_array_equal(back.embeddings, index.embeddings)
        np.testing.assert_array_equal(back.expressions, index.expressions)
        assert back.provenance == index.provenance

    @pytest.mark.parametrize("blob", ["embeddings.f32", "expressions.f32"])
    def test_truncated_blob_rejected(self, tmp_path, blob):
        save_index(make_index(), tmp_path / "idx")
        path = tmp_path / "idx" / blob
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match=blob):
            load_index(tmp_path / "idx")

    def test_missing_provenance_entry_rejected(self, tmp_path):
        save_index(make_index(), tmp_path / "idx")
        path = tmp_path / "idx" / "provenance.json"
        meta = json.loads(path.read_text())
        meta["entries"].pop()
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="provenance.json lists 19 entries for 20 rows"):
            load_index(tmp_path / "idx")

    def test_index_without_rows_refused(self, tmp_path):
        save_index(make_index(), tmp_path / "idx")
        path = tmp_path / "idx" / "provenance.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "rows": 0, "entries": []}))
        for blob in ("embeddings.f32", "expressions.f32"):
            (tmp_path / "idx" / blob).write_bytes(b"")
        with pytest.raises(ValueError, match="RetrievalIndex: no rows"):
            load_index(tmp_path / "idx")


class TestSelection:
    """The first block's strip-wise transpose and the one-key ranking of candidates."""

    @pytest.mark.parametrize("lower_row_zero", [-0.0, 0.0])
    def test_signed_zero_cosines_tie_in_a_block_merge(self, lower_row_zero):
        # query 1's candidates arrive in ascending row id, rows 3 and 5 at zero cosines of opposite sign
        qi = np.array([0, 0, 1, 1, 1])
        r = np.array([2, 4, 3, 5, 6])
        c = np.array([0.5, 0.25, lower_row_zero, -lower_row_zero, -0.5], dtype=np.float32)
        rows, cosines = inference._first_k_per_query(qi, r, c, np.array([0, 1]), 2)
        np.testing.assert_array_equal(rows, [[2, 4], [3, 5]])
        assert np.signbit(cosines[1]).tolist() == [np.signbit(lower_row_zero), not np.signbit(lower_row_zero)]

    @pytest.mark.parametrize("lower_row_zero", [-0.0, 0.0])
    def test_signed_zero_cosines_tie_in_the_thread_merge(self, lower_row_zero):
        # the thread holding the higher row id comes first
        parts = [(np.array([[5, 9]]), np.array([[-lower_row_zero, -1.0]], dtype=np.float32)),
                 (np.array([[3, 8]]), np.array([[lower_row_zero, -2.0]], dtype=np.float32))]
        rows, cosines = inference._merge_top_k(parts, 3)
        np.testing.assert_array_equal(rows, [[3, 5, 9]])
        assert np.signbit(cosines[0, :2]).tolist() == [np.signbit(lower_row_zero), not np.signbit(lower_row_zero)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_kth_cosine_tied_in_the_short_last_strip_of_a_first_block(self, monkeypatch, workers):
        e = np.eye(4)
        strip, block, k = inference.TRANSPOSE_STRIP_ROWS, 300, 20
        assert block % strip and (850 - 2 * block) % strip  # no first block fills its last strip
        # block 0: a strip of negative scores for Q[0], then in its short last strip 10 rows at 4
        # and 34 at -1, so Q[0]'s k-th cosine -1 is tied there; the later blocks tie it or beat it
        index = exact_index([[-e[0], -e[1], -e[2]][i % 3] for i in range(strip)]
                            + [e[1]] * 10 + [-e[3]] * 34
                            + [[-e[3], -e[1], e[2], -e[0]][i % 4] for i in range(block)]
                            + [[e[0], -e[3], -e[2]][i % 3] for i in range(250)])
        queries = TestRowBlockedScan.Q
        rows_per_block(monkeypatch, block, len(queries))
        stub_workers(monkeypatch, workers)
        first = index.embeddings[:block] @ queries[0]
        kth = np.sort(first)[-k]
        assert kth == -1 and np.sum(first > kth) < k < np.sum(first >= kth)
        assert np.flatnonzero(first >= kth).min() >= strip  # every first-block candidate is in the last strip
        rows, _, _ = search(index, queries, k)
        np.testing.assert_array_equal(rows, brute_force(index, queries, k))


class TestProvenanceEntries:
    @pytest.mark.parametrize("entry", [["ref", 2.7], ["ref", "3"], [7, 1], ["ref", -1], ["ref", True], 5, ["ref"],
                                       ["ref", 3, 0], None, {"ref": 3}],
                             ids=["float", "str-index", "int-id", "negative", "bool", "bare-int", "one-item",
                                  "three-items", "null", "object"])
    def test_malformed_entry_named(self, tmp_path, entry):
        save_index(make_index(), tmp_path / "idx")
        path = tmp_path / "idx" / "provenance.json"
        meta = json.loads(path.read_text())
        meta["entries"][3] = entry
        path.write_text(json.dumps(meta))
        with pytest.raises(DataFormatError, match=r"provenance\.json: field entries\.3 is "):
            load_index(tmp_path / "idx")

    def test_pairs_load_as_tuples(self, tmp_path):
        index = RetrievalIndex(embeddings=unit_rows(3, 8), expressions=np.zeros((3, 1), dtype=np.float32),
                               provenance=[("a", 0), ("b", 2**40), ("", 5)])
        save_index(index, tmp_path / "idx")
        assert load_index(tmp_path / "idx").provenance == [("a", 0), ("b", 2**40), ("", 5)]


def low_rank_rows(n, d, rank, noise, seed):
    """Unit rows near a random rank-`rank` subspace, clustered around a few centres in it."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((d, rank)))[0]
    centres = rng.standard_normal((8, rank))
    h = (centres[rng.integers(0, 8, n)] + 0.3 * rng.standard_normal((n, rank))) @ basis.T
    h += noise * rng.standard_normal((n, d))
    return (h / np.linalg.norm(h, axis=1, keepdims=True)).astype(np.float32)


def one_stage(index, queries, k):
    """search's rows and cosines with no screen: every block scored whole, on one thread."""
    emb = index.embeddings
    block = max(k, inference.SEARCH_BLOCK_BYTES // (len(queries) * emb.itemsize))
    return inference._scan_blocks(emb, np.ascontiguousarray(queries.T, dtype=emb.dtype), k, block,
                                  inference._block_claims(len(emb), block), None)


class CountingNumpy:
    """inference's numpy, recording the shapes of every matmul."""

    def __init__(self):
        self.matmuls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out=None):
        self.matmuls.append((a.shape, b.shape))
        return np.matmul(a, b, out=out)

    def scored(self, d, m):
        """Rows of each scoring GEMM (against m d-dimensional queries), in call order."""
        return [a[0] for a, b in self.matmuls if b == (d, m)]


def tile_scores(emb, q_t, block):
    """Every float32 score, each block's tile computed whole as the one-stage scan computes it."""
    return np.concatenate([np.matmul(emb[lo : lo + block], q_t) for lo in range(0, len(emb), block)])


def float32_top_k(scores, k, allowed=None):
    """[m, k] rows ranked by (-score, row id) over the float32 [rows, m] scores, among `allowed` rows."""
    rows = np.flatnonzero(np.ones(len(scores), dtype=bool) if allowed is None else allowed)
    order = np.lexsort((np.broadcast_to(rows, (scores.shape[1], len(rows))), -scores[rows].T.astype(np.float64)))
    return rows[order[:, :k]]


class TestTwoStageScan:
    """The cosine bound screens later blocks; the result is the one-stage scan's, bit for bit."""

    N, D, M, BLOCK = 4096, 64, 128, 512  # 8 blocks; a subset of 123 rows leaves OpenBLAS's small-matrix kernels

    @pytest.fixture
    def counting(self, monkeypatch):
        numpy = CountingNumpy()
        monkeypatch.setattr(inference, "np", numpy)
        return numpy

    @pytest.fixture(autouse=True)
    def small(self, monkeypatch):
        monkeypatch.setattr(inference, "BOUND_RANK", 8)
        rows_per_block(monkeypatch, self.BLOCK, self.M)
        stub_workers(monkeypatch, 1)

    def low_rank(self):
        """A low-rank index, and queries near 4 of its rows: each keeps few rows, so the bound prunes."""
        emb = low_rank_rows(self.N, self.D, rank=6, noise=0.02, seed=31)
        index = RetrievalIndex(embeddings=emb, expressions=np.zeros((self.N, 1), dtype=np.float32),
                               provenance=[("r", i) for i in range(self.N)])
        queries = np.repeat(emb[[5, 900, 2000, 3000]], self.M // 4, axis=0)
        queries += 0.01 * np.random.default_rng(32).standard_normal(queries.shape).astype(np.float32)
        return index, queries

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 7, 50])
    def test_low_rank_index_matches_brute_force_bitwise(self, monkeypatch, workers, k):
        index, queries = self.low_rank()
        stub_workers(monkeypatch, workers)
        rows, cosines, dists = got = search(index, queries, k)
        scores = tile_scores(index.embeddings, np.ascontiguousarray(queries.T), self.BLOCK)
        np.testing.assert_array_equal(rows, float32_top_k(scores, k))
        assert same_bits([cosines], [np.take_along_axis(scores.T, rows, 1)])
        assert same_bits(got[:2], one_stage(index, queries, k))

    def test_bound_prunes_most_rows(self, counting):
        index, queries = self.low_rank()
        got = search(index, queries, 10)
        scored = counting.scored(self.D, self.M)
        assert scored[0] == self.BLOCK and sum(scored) < self.N // 2  # the first block, then padded subsets
        assert same_bits(got[:2], one_stage(index, queries, 10))

    def test_random_rows_are_screened_once_then_every_row_is_scored(self, counting):
        index = make_index(n=self.N, d=self.D, seed=33)
        queries = unit_rows(self.M, self.D, 34)
        rows, cosines, _ = search(index, queries, 10)
        # the bound keeps more than 3/4 of the first screened block, so the thread scores every block whole
        assert [a for a, b in counting.matmuls if b == (9, self.M)] == [(self.BLOCK, 9)]  # rank 8, then rho
        assert counting.scored(self.D, self.M) == [self.BLOCK] * (self.N // self.BLOCK)
        np.testing.assert_array_equal(rows, brute_force(index, queries, 10))
        scores = tile_scores(index.embeddings, np.ascontiguousarray(queries.T), self.BLOCK)
        assert same_bits([cosines], [np.take_along_axis(scores.T, rows, 1)])

    def test_load_index_derives_the_bound(self, tmp_path):
        index, _ = self.low_rank()
        save_index(index, tmp_path / "idx")
        assert "bound" not in vars(index)  # a built index derives it by its first search that screens
        loaded = load_index(tmp_path / "idx")
        assert "bound" in vars(loaded)
        assert same_bits([loaded.bound.table], [index.bound.table])

    def test_longest_rows_fit_the_int16_table(self):
        # rows along the basis at the longest norm the index accepts: the largest stored coordinate
        longest = 1 + 0.9 * inference.UNIT_NORM_TOL
        rows = np.repeat(np.eye(self.D, dtype=np.float32)[:8], self.N // 8, axis=0) * np.float32(longest)
        rows[1::2] *= -1
        index = RetrievalIndex(embeddings=rows, expressions=np.zeros((self.N, 1), dtype=np.float32),
                               provenance=[("r", i) for i in range(self.N)])
        assert np.abs(index.bound.table[:, :8]).max() == round(inference.BOUND_SCALE * longest)
        assert index.bound.table.max() < np.iinfo(np.int16).max
        queries = rows[:: self.N // self.M] + np.float32(0.01)
        np.testing.assert_array_equal(search(index, queries, 10)[0], brute_force(index, queries, 10))

    def test_every_score_within_its_bound_plus_margin(self):
        # rows and queries inside the basis' span: the bound is tight, so only the margin covers rounding
        rng = np.random.default_rng(35)
        basis = np.linalg.qr(rng.standard_normal((self.D, 8)))[0]
        emb = rng.standard_normal((self.N, 8)) @ basis.T
        emb = (emb / np.linalg.norm(emb, axis=1, keepdims=True)).astype(np.float32)
        index = RetrievalIndex(embeddings=emb, expressions=np.zeros((self.N, 1), dtype=np.float32),
                               provenance=[("r", i) for i in range(self.N)])
        queries = emb[rng.integers(0, self.N, self.M)] * np.float32(0.75)  # margins scale with |q|
        side, margins = index.bound.query_side(queries)
        scores = tile_scores(emb, np.ascontiguousarray(queries.T), self.BLOCK).astype(np.float64)
        bounds = np.matmul(index.bound.table, side).astype(np.float64)
        assert np.max(scores - bounds) > 0  # without the margin some float32 score exceeds its bound
        assert np.all(scores <= bounds + margins)

    @staticmethod
    def screen_of(bounds, m):
        """A screen whose bound of row i is bounds[i] against each of m queries, exactly, with margin 1/8."""
        table = np.asarray(bounds, dtype=np.float32)[:, None]
        return table, np.ones((1, m), dtype=np.float32), np.full(m, 0.125)

    def scan(self, emb, q_t, k, bounds, block=BLOCK):
        claim = inference._block_claims(len(emb), block)
        return inference._scan_blocks(emb, q_t, k, block, claim, self.screen_of(bounds, q_t.shape[1]))

    def test_row_just_inside_the_margin_is_scored_and_just_outside_dropped(self):
        # block 0 sets every query's k-th cosine to 0.5; in block 1, rows 700 and 701 score 1.0
        e = np.eye(self.D, dtype=np.float32)
        emb = np.tile(-e[1], (2 * self.BLOCK, 1))
        emb[: self.BLOCK : 2] = 0.5 * e[0] + np.sqrt(np.float32(0.75)) * e[2]
        emb[700] = emb[701] = e[0]
        q_t = np.ascontiguousarray(np.tile(e[0], (self.M, 1)).T)
        bounds = np.full(len(emb), -1.0, dtype=np.float32)
        bounds[700] = 0.375  # the k-th cosine less the margin: kept
        bounds[701] = np.nextafter(np.float32(0.375), np.float32(-1))  # just below: dropped, though it scores 1.0
        rows, cosines = self.scan(emb, q_t, 3, bounds)
        np.testing.assert_array_equal(rows, np.tile([700, 0, 2], (self.M, 1)))
        np.testing.assert_array_equal(cosines[0], [1.0, 0.5, 0.5])
        bounds[701] = 0.375
        rows, _ = self.scan(emb, q_t, 3, bounds)
        np.testing.assert_array_equal(rows, np.tile([700, 701, 0], (self.M, 1)))

    def check_lone_row(self, counting, emb, queries, block):
        """After the first block the bound keeps one row: it is scored in a subset padded with its block's first
        rows, bitwise as the whole tile scores it. Returns the padded subset's size."""
        (n, d), m, k = emb.shape, len(queries), 5
        q_t = np.ascontiguousarray(queries.T)
        lone = 3 * block + block * 3 // 4  # past the padding of its block
        emb[lone] = queries[0] / np.linalg.norm(queries[0])  # query 0's best row
        bounds = np.full(n, -2.0, dtype=np.float32)
        bounds[lone] = 2.0  # the only row after block 0 that the bound keeps
        rows, cosines = self.scan(emb, q_t, k, bounds, block)
        pad = max(2, inference.SMALL_GEMM_MACS // (m * d) + 1)
        starts = range(block, n, block)
        assert counting.scored(d, m) == [block] + [pad + (lo == 3 * block) for lo in starts]
        allowed = np.zeros(n, dtype=bool)
        allowed[:block] = allowed[lone] = True
        for lo in starts:
            allowed[lo : lo + pad] = True
        scores = tile_scores(emb, q_t, block)
        assert rows[0, 0] == lone
        np.testing.assert_array_equal(rows, float32_top_k(scores, k, allowed))
        assert same_bits([cosines], [np.take_along_axis(scores.T, rows, 1)])  # bitwise the whole tile's
        return pad

    def test_one_surviving_row_is_scored_in_a_padded_subset(self, counting):
        index, queries = self.low_rank()
        assert self.check_lone_row(counting, index.embeddings.copy(), queries, self.BLOCK) == 123

    def test_many_queries_still_score_two_rows_at_least(self, counting):
        # 16,000 queries of 64 dims pass OpenBLAS's small-matrix threshold with a single row, whose product
        # would be a gemv: the subset keeps a second row
        emb = low_rank_rows(1024, self.D, rank=6, noise=0.02, seed=37)
        assert self.check_lone_row(counting, emb, unit_rows(16_000, self.D, 38), 128) == 2
