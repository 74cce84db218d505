"""Metrics against brute-force oracles, clustering behavior, LOOCV protocol."""

import numpy as np
import pytest
from scipy.special import betainc

import conftest
from stexp.contrastive import TrainConfig
from stexp.data import GenConfig, load_dataset, synth_generate
from stexp.encoders import EncoderConfig
from stexp.evaluation import (
    MetricsRecord,
    ari,
    compute_metrics,
    detect_domains,
    fold_seed,
    heg_indices,
    kmeans,
    loocv,
    mean_record,
    pca,
    run_fold,
    write_metrics_tsv,
    write_per_gene_tsv,
)


class TestPearsonMetrics:
    def test_identity_prediction(self):
        obs = np.random.default_rng(0).random((10, 6))
        m = compute_metrics(obs, obs)
        assert all(r == pytest.approx(1.0, abs=1e-12) for _, r, _ in m.per_gene)
        assert m.mse == 0.0 and m.mae == 0.0
        assert m.pcc_acg == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_prediction(self):
        obs = np.random.default_rng(1).random((10, 4))
        m = compute_metrics(-obs, obs)
        assert all(r == pytest.approx(-1.0, abs=1e-12) for _, r, _ in m.per_gene)

    def test_hand_example(self):
        # x=[1,2,3], y=[1,2,4]: r = 3 / (sqrt(2) * sqrt(14/3)) = 0.9820 (4 d.p.)
        m = compute_metrics(np.array([[1.0], [2.0], [3.0]]), np.array([[1.0], [2.0], [4.0]]))
        assert m.per_gene[0][1] == pytest.approx(0.9820, abs=5e-5)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = int(rng.integers(5, 40))
            g = int(rng.integers(1, 8))
            pred = rng.standard_normal((s, g))
            obs = rng.standard_normal((s, g))
            m = compute_metrics(pred, obs)
            for j in range(g):
                want_r = conftest.pearson_oracle(pred[:, j], obs[:, j])
                assert m.per_gene[j][1] == pytest.approx(want_r, abs=1e-6)
            assert m.mse == pytest.approx(((pred - obs) ** 2).mean(), rel=1e-12)
            assert m.mae == pytest.approx(np.abs(pred - obs).mean(), rel=1e-12)

    def test_zero_variance_gene_flagged_r0(self):
        obs = np.random.default_rng(3).random((8, 3))
        pred = obs.copy()
        pred[:, 1] = 5.0
        m = compute_metrics(pred, obs)
        assert m.per_gene[1][1] == 0.0
        assert m.per_gene[1][2] == 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        base = conftest.pearson_oracle(x, y)
        m = compute_metrics((3.7 * x + 11.0)[:, None], y[:, None])
        assert m.per_gene[0][1] == pytest.approx(base, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            compute_metrics(np.ones((5, 3)), np.ones((5, 4)))

    def test_minimum_spots(self):
        with pytest.raises(ValueError, match="3 spots"):
            compute_metrics(np.ones((2, 3)), np.ones((2, 3)))


class TestHeg:
    def test_heg_is_subset_and_respects_ties(self):
        rng = np.random.default_rng(5)
        obs = rng.random((12, 60))
        obs[:, 10] = obs[:, 20]  # tie in mean: lower index wins
        idx = heg_indices(obs)
        assert len(idx) == 50
        assert len(set(idx.tolist())) == 50
        assert list(idx).index(10) < list(idx).index(20) if 20 in idx else True

    def test_heg_smaller_panel(self):
        obs = np.random.default_rng(6).random((8, 30))
        assert len(heg_indices(obs)) == 30

    def test_pcc_heg_uses_exactly_the_selected_columns(self):
        rng = np.random.default_rng(7)
        pred = rng.random((15, 64))
        obs = rng.random((15, 64))
        m = compute_metrics(pred, obs)
        heg = heg_indices(obs)
        want = np.mean([conftest.pearson_oracle(pred[:, j], obs[:, j]) for j in heg])
        assert m.pcc_heg == pytest.approx(want, abs=1e-9)


def loop_neg_log10_p(r, s):
    """The per-gene loop that compute_metrics' array pass replaced, kept as its reference."""
    df = s - 2
    if abs(r) >= 1.0 - 1e-15:
        return 300.0
    p = float(betainc(df / 2.0, 0.5, df / (df + r * r * df / (1.0 - r * r))))
    return 300.0 if p <= 0.0 else min(300.0, -np.log10(p))


def gene_neg_log10_p(x, y):
    """compute_metrics' -log10 p for one gene observed as y and predicted as x."""
    return compute_metrics(np.asarray(x)[:, None], np.asarray(y)[:, None]).per_gene[0][2]


class TestGenePvalues:
    def test_null_r_zero(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, -1.0, -1.0, 1.0])  # r = 0 by symmetry
        assert gene_neg_log10_p(x, y) == pytest.approx(0.0, abs=1e-6)

    def test_perfect_correlation_capped(self):
        x = np.arange(10.0)
        assert gene_neg_log10_p(x, 2 * x + 1) == 300.0
        assert gene_neg_log10_p(x, -x) == 300.0

    def test_s20_r_half_example(self):
        # construct twenty samples with exact r = 0.5, then compare with the
        # incomplete-beta oracle: -log10 p = 1.6061 (rounding p to 0.0247
        # first gives the coarser 1.607)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        # orthogonalize y against x, then mix to hit r exactly
        x = (x - x.mean()) / x.std()
        y = y - y.mean()
        y -= x * (x @ y) / (x @ x)
        y /= np.linalg.norm(y)
        target_r = 0.5
        mixed = target_r * x / np.linalg.norm(x) + np.sqrt(1 - target_r**2) * y
        assert conftest.pearson_oracle(x, mixed) == pytest.approx(0.5, abs=1e-12)
        got = gene_neg_log10_p(x, mixed)
        want = -np.log10(conftest.t_two_sided_p_oracle(0.5, 20))
        assert got == pytest.approx(want, rel=1e-6)
        assert got == pytest.approx(1.6061, abs=2e-4)
        assert got == pytest.approx(1.607, abs=2e-3)

    def test_matches_beta_oracle_random(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = int(rng.integers(5, 60))
            x = rng.standard_normal(s)
            y = rng.standard_normal(s)
            r = conftest.pearson_oracle(x, y)
            want_p = conftest.t_two_sided_p_oracle(r, s)
            got = gene_neg_log10_p(x, y)
            assert got == pytest.approx(-np.log10(want_p), rel=1e-4)

    def test_monotone_in_abs_r(self):
        s = 25
        values = []
        for r in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95):
            values.append(-np.log10(conftest.t_two_sided_p_oracle(r, s)))
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_oracle_cross_checked_by_monte_carlo(self):
        # the continued-fraction oracle itself: P(|T_18| >= 2.4495) ~ 0.0248
        rng = np.random.default_rng(10)
        t = rng.standard_t(18, size=400_000)
        empirical = float(np.mean(np.abs(t) >= 2.449489742783178))
        assert conftest.t_two_sided_p_oracle(0.5, 20) == pytest.approx(empirical, abs=2e-3)

    def test_each_gene_as_if_scored_alone(self):
        # r = 1, r = -1, a constant prediction, then ordinary columns: one call scores every gene as a one-gene call.
        # Integer columns summing to 0 make every Pearson sum exact, so r = 1 and r = -1 come out exactly.
        rng = np.random.default_rng(12)
        ints = rng.integers(-5, 6, (30, 12)).astype(np.float64)
        ints[-1] -= ints.sum(axis=0)
        x = ints[:, 0]
        pred = np.column_stack([x, x, np.full(30, 2.0), ints[:, 1:6]])
        obs = np.column_stack([3 * x + 1, -x, ints[:, 6], ints[:, 7:]])
        got = np.array([nlp for _, _, nlp in compute_metrics(pred, obs).per_gene])
        alone = np.array([gene_neg_log10_p(pred[:, j], obs[:, j]) for j in range(pred.shape[1])])
        assert got.tobytes() == alone.tobytes()
        assert got[:3].tolist() == [300.0, 300.0, 0.0] and (got[3:] < 300.0).all()

    def test_a_genes_r_does_not_depend_on_the_panel(self):
        # float columns, whose Pearson sums round: each gene is still summed as in a one-gene call
        rng = np.random.default_rng(13)
        pred, obs = rng.standard_normal((30, 8)), rng.standard_normal((30, 8))
        got = compute_metrics(pred, obs).per_gene
        alone = [compute_metrics(pred[:, [j]], obs[:, [j]]).per_gene[0] for j in range(8)]
        assert np.array([g[1:] for g in got]).tobytes() == np.array([a[1:] for a in alone]).tobytes()

    @pytest.mark.parametrize("s", [3, 30, 400])
    def test_array_pass_matches_the_per_gene_loop(self, s):
        rng = np.random.default_rng(s)
        x = rng.standard_normal(s)
        pred = np.column_stack([x, x, rng.standard_normal((s, 300))])
        obs = np.column_stack([x, -x, rng.standard_normal((s, 299)) + 0.3 * pred[:, 2:-1], pred[:, -1]])
        record = compute_metrics(pred, obs)
        got = np.array([nlp for _, _, nlp in record.per_gene])
        want = np.array([loop_neg_log10_p(r, s) for _, r, _ in record.per_gene])
        assert got.tobytes() == want.tobytes()


class TestPca:
    def test_line_data_first_component_everything(self):
        t = np.linspace(-2, 2, 20)
        direction = np.array([3.0, -1.0, 2.0])
        x = t[:, None] * direction[None, :]
        components, scores = pca(x, 2)
        total_var = x.var(axis=0).sum()
        assert scores[:, 0].var() == pytest.approx(total_var, rel=1e-9)
        assert scores[:, 1].var() == pytest.approx(0.0, abs=1e-18)

    def test_orthonormal_components(self):
        x = np.random.default_rng(11).random((30, 12))
        components, _ = pca(x, 5)
        np.testing.assert_allclose(components.T @ components, np.eye(5), atol=1e-8)

    def test_matches_eigensolve_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((10, 6))
        components, scores = pca(x, 3)
        xc = x - x.mean(axis=0)
        want_vals, want_vecs = np.linalg.eigh(xc.T @ xc / (x.shape[0] - 1))
        order = np.argsort(want_vals)[::-1][:3]
        for j, col in enumerate(order):
            v = want_vecs[:, col]
            dot = abs(v @ components[:, j])
            assert dot == pytest.approx(1.0, abs=1e-6)
            np.testing.assert_allclose(np.abs(xc @ v), np.abs(scores[:, j]), atol=1e-6)

    def test_sign_convention(self):
        x = np.random.default_rng(13).random((15, 5))
        components, _ = pca(x, 3)
        for j in range(3):
            assert components[np.argmax(np.abs(components[:, j])), j] > 0

    def test_c_validation(self):
        with pytest.raises(ValueError, match="c="):
            pca(np.ones((4, 3)), 5)


class TestKmeans:
    def _blobs(self, sep, n=40, seed=14):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, 2)) + [0.0, 0.0]
        b = rng.standard_normal((n, 2)) + [sep, 0.0]
        return np.concatenate([a, b]), np.array([0] * n + [1] * n)

    def test_two_separated_blobs_recovered(self):
        x, truth = self._blobs(sep=12.0)
        labels = kmeans(x, 2, seed=0)
        assert ari(labels, truth) == 1.0

    def test_k1_degenerate(self):
        x = np.random.default_rng(15).random((10, 3))
        labels = kmeans(x, 1, seed=0)
        assert set(labels.tolist()) == {0}

    def test_sse_monotone(self):
        rng = np.random.default_rng(16)
        for trial in range(5):
            x = rng.standard_normal((60, 4)) * rng.uniform(0.5, 3)
            _, sse = kmeans(x, 5, seed=trial, with_sse=True)
            assert all(b <= a + 1e-9 for a, b in zip(sse, sse[1:])), sse

    def test_deterministic_per_seed(self):
        x = np.random.default_rng(17).random((50, 3))
        np.testing.assert_array_equal(kmeans(x, 4, seed=3), kmeans(x, 4, seed=3))

    def test_scale_invariant_labels(self):
        x = np.random.default_rng(18).random((40, 3))
        a = kmeans(x, 3, seed=5)
        b = kmeans(x * 7.5, 3, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k="):
            kmeans(np.ones((3, 2)), 4, seed=0)


class TestAri:
    def test_identical_labelings(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert ari(labels, labels) == 1.0

    def test_permutation_invariance(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        relabeled = np.array([5, 5, 0, 0, 9, 9])
        assert ari(labels, relabeled) == 1.0

    def test_six_point_fixture_matches_pair_counting(self):
        a = np.array([0, 0, 0, 1, 1, 1])
        b = np.array([0, 0, 1, 1, 2, 2])

        # brute-force pair counting oracle
        n = len(a)
        together_both = together_a = together_b = 0
        pairs = 0
        for i in range(n):
            for j in range(i + 1, n):
                pairs += 1
                sa = a[i] == a[j]
                sb = b[i] == b[j]
                together_a += sa
                together_b += sb
                together_both += sa and sb
        expected = together_a * together_b / pairs
        max_index = 0.5 * (together_a + together_b)
        want = (together_both - expected) / (max_index - expected)
        assert ari(a, b) == pytest.approx(want, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            ari(np.array([0, 1]), np.array([0, 1, 2]))


class TestMeanRecord:
    def test_mean_is_arithmetic(self):
        rng = np.random.default_rng(19)
        records = [
            MetricsRecord(f"s{i}", *rng.uniform(0, 1, 4).tolist()) for i in range(5)
        ]
        m = mean_record(records)
        assert m.pcc_acg == pytest.approx(np.mean([r.pcc_acg for r in records]), abs=1e-12)
        assert m.mae == pytest.approx(np.mean([r.mae for r in records]), abs=1e-12)


@pytest.fixture(scope="module")
def micro_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("micro")
    gen = GenConfig(n_slides=3, spots_per_slide=24, gene_num=24, n_domains=3,
                    signal=1.0, patch_shape=(3, 8, 8))
    synth_generate(gen, 31, root)
    return load_dataset(root)


MICRO_ENC = EncoderConfig(hvg_num=8, d_embed=16, n_heads=2, conv_channels=(6,),
                          proj_hidden=16, patch_shape=(3, 8, 8))
MICRO_TRAIN = TrainConfig(batch_size=8, epochs=3, learning_rate=2e-3, temperature=0.1, seed=13)


class TestLoocv:
    def test_rows_and_mean(self, micro_dataset):
        records = loocv(micro_dataset, hvg_num=8, train_cfg=MICRO_TRAIN, enc_cfg=MICRO_ENC, ks=(5,))[5]
        assert len(records) == len(micro_dataset) + 1
        assert records[-1].slide_id == "mean"
        for col in ("pcc_acg", "pcc_heg", "mse", "mae"):
            want = np.mean([getattr(r, col) for r in records[:-1]])
            assert getattr(records[-1], col) == pytest.approx(want, abs=1e-9)

    def test_folds_equal_independent_runs(self, micro_dataset):
        records = loocv(micro_dataset, hvg_num=8, train_cfg=MICRO_TRAIN, enc_cfg=MICRO_ENC, ks=(5,))[5]
        for fold, slide in enumerate(micro_dataset):
            seed = fold_seed(MICRO_TRAIN.seed, fold)
            single, _ = run_fold(
                micro_dataset, slide.slide_id, 8, MICRO_TRAIN, MICRO_ENC, k=5, seed=seed
            )
            assert single.pcc_acg == records[fold].pcc_acg
            assert single.mse == records[fold].mse

    def test_needs_two_slides(self, micro_dataset):
        with pytest.raises(ValueError, match="2 slides"):
            loocv(micro_dataset[:1], hvg_num=8, train_cfg=MICRO_TRAIN, enc_cfg=MICRO_ENC, ks=(5,))[5]


class TestDomainDetection:
    def test_detect_domains_runs_and_scores(self, micro_dataset):
        slide = micro_dataset[0]
        pred = np.log1p(slide.expression.astype(np.float64))
        labels = detect_domains(pred, n_clusters=3, n_components=5, seed=1)
        assert labels.shape == (slide.spot_num,)
        score = ari(labels, slide.labels)
        assert -1.0 <= score <= 1.0


class TestTsvWriters:
    def test_metrics_tsv_layout(self, tmp_path):
        records = [MetricsRecord("a", 0.5, 0.6, 0.1, 0.2), MetricsRecord("mean", 0.5, 0.6, 0.1, 0.2)]
        path = tmp_path / "m.tsv"
        write_metrics_tsv(path, "slide_id", [(r.slide_id, r) for r in records])
        assert path.read_text() == ("slide_id\tpcc_acg\tpcc_heg\tmse\tmae\n"
                                    "a\t0.500000\t0.600000\t0.100000\t0.200000\n"
                                    "mean\t0.500000\t0.600000\t0.100000\t0.200000\n")

    def test_per_gene_sorted_descending(self, tmp_path):
        record = MetricsRecord(
            "a", 0.0, 0.0, 0.0, 0.0,
            per_gene=[("g0", 0.1, 1.0), ("g1", 0.9, 7.0), ("g2", 0.5, 3.0)],
        )
        path = tmp_path / "pg.tsv"
        write_per_gene_tsv(record, path)
        genes = [line.split("\t")[0] for line in path.read_text().strip().split("\n")[1:]]
        assert genes == ["g1", "g2", "g0"]
