"""Loss arithmetic, training determinism, and checkpoint round-trips."""

import dataclasses
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from stexp import diffcore as dc
from stexp import encoders as enc
from stexp.contrastive import (
    Checkpoint,
    TrainConfig,
    TrainingDiverged,
    build_loss_graph,
    fit,
    load_checkpoint,
    save_checkpoint,
    symmetric_ce,
)
from stexp.data import TARGET_LIBRARY_SIZE, GenConfig, Preprocessing, load_dataset, preprocess, synth_generate
from stexp.encoders import EncoderConfig, embed_patches, embed_spots, init_params, param_shapes
from stexp.inference import RetrievalIndex, build_index, encode_slide_patches, search


def random_unit_rows(n, d, seed=0):
    h = np.random.default_rng(seed).standard_normal((n, d))
    return h / np.linalg.norm(h, axis=1, keepdims=True)


def cosine_matrix(h_a, h_b):
    """Every row of h_a against every row of h_b, by retrieval: h_b is the index, h_a the queries."""
    index = RetrievalIndex(embeddings=h_b, expressions=np.zeros((len(h_b), 1)),
                           provenance=[("ref", len(h_b))])
    rows, cosines, _ = search(index, h_a, len(h_b))
    sim = np.empty((len(h_a), len(h_b)))
    np.put_along_axis(sim, rows, cosines, axis=1)
    return sim


class TestSimilarity:
    def test_orthonormal_rows_identity(self):
        h = np.eye(4)[:, :4]
        np.testing.assert_allclose(cosine_matrix(h, h), np.eye(4), atol=1e-12)

    def test_orthogonal_rows_zero(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert cosine_matrix(a, b)[0, 0] == 0.0

    def test_hand_normalized_vector(self):
        # [3,4] normalized -> [0.6, 0.8]; dot with itself = 1.0
        h = np.array([[3.0, 4.0]]) / 5.0
        assert cosine_matrix(h, h)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        good = random_unit_rows(3, 8)
        bad = good * 1.01
        with pytest.raises(ValueError, match="norm"):
            cosine_matrix(good, bad)

    def test_rejects_nan_row(self):
        good = random_unit_rows(3, 8)
        bad = good.copy()
        bad[1] = np.nan
        with pytest.raises(ValueError, match="row 1 has norm nan"):
            cosine_matrix(good, bad)
        with pytest.raises(ValueError, match="queries contain NaN"):  # queries are checked by search
            cosine_matrix(bad, good)

    def test_values_in_cosine_range(self):
        a, b = random_unit_rows(20, 16, 1), random_unit_rows(30, 16, 2)
        s = cosine_matrix(a, b)
        assert s.min() >= -1.0 - 1e-6 and s.max() <= 1.0 + 1e-6


def clip_loss(sim, tau):
    """The training loss of a precomputed similarity matrix at temperature tau."""
    return float(symmetric_ce(dc.constant(sim), 1.0 / tau).data.reshape(()))


class TestClipLoss:
    def test_uniform_logits_ln_n(self):
        for n in (2, 8, 64):
            sim = np.zeros((n, n))
            assert clip_loss(sim, tau=1.0) == pytest.approx(math.log(n), abs=1e-9)

    def test_uniform_logits_n2_value(self):
        assert clip_loss(np.ones((2, 2)), tau=1.0) == pytest.approx(0.6931, abs=5e-5)

    def test_dominant_diagonal_near_zero(self):
        sim = np.full((2, 2), -20.0)
        np.fill_diagonal(sim, 20.0)
        assert clip_loss(sim, tau=1.0) < 1e-8

    def test_symmetry_exact(self):
        hp = random_unit_rows(6, 16, 3)
        hs = random_unit_rows(6, 16, 4)
        assert clip_loss(hp @ hs.T, 0.5) == clip_loss(hs @ hp.T, 0.5)

    def test_logit_temperature_invariance_exact(self):
        sim = random_unit_rows(8, 16, 5) @ random_unit_rows(8, 16, 6).T
        assert clip_loss(sim, tau=1.0) == clip_loss(2.0 * sim, tau=2.0)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            n = int(rng.integers(2, 12))
            sim = rng.uniform(-1, 1, (n, n))
            assert clip_loss(sim, tau=0.3) >= 0.0

    def test_random_embeddings_near_ln_n(self):
        # untrained 256-d unit embeddings: mean loss over 100 draws ~ ln 16
        n, d = 16, 256
        losses = [
            clip_loss(random_unit_rows(n, d, 2 * t) @ random_unit_rows(n, d, 2 * t + 1).T, 1.0)
            for t in range(100)
        ]
        assert np.mean(losses) == pytest.approx(math.log(n), rel=0.10)

    def test_full_loss_graph_grad_check_four_pairs(self):
        cfg = EncoderConfig(
            hvg_num=8, d_embed=8, n_heads=2, n_positions=16,
            conv_channels=(4,), proj_hidden=8, patch_shape=(3, 8, 8),
        )
        tcfg = TrainConfig(batch_size=4, epochs=1, temperature=0.5, seed=0)
        params = init_params(cfg, seed=1).astype(np.float64)
        rng = np.random.default_rng(2)
        patches = rng.random((4, 3, 8, 8))
        expr = rng.uniform(0.0, 4.0, (4, 8))
        coords = rng.integers(0, 16, (4, 2)).astype(np.uint32)

        def graph(p, inputs):
            return build_loss_graph(p, inputs[0], inputs[1], coords, cfg, tcfg)

        report = dc.grad_check(graph, params, [patches, expr], eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err


@pytest.fixture(scope="module")
def tiny_processed(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    gen = GenConfig(
        n_slides=1, spots_per_slide=32, gene_num=32, n_domains=4,
        signal=1.0, patch_shape=(3, 16, 16),
    )
    synth_generate(gen, 11, root)
    slides = load_dataset(root)
    return preprocess(slides, hvg_num=16, train_ids=[slides[0].slide_id])


TINY_ENC = EncoderConfig(
    hvg_num=16, d_embed=32, n_heads=4, conv_channels=(16, 32),
    proj_hidden=64, patch_shape=(3, 16, 16),
)


class TestFit:
    def test_same_seed_byte_identical_checkpoints(self, tiny_processed, tmp_path):
        tcfg = TrainConfig(batch_size=16, epochs=3, learning_rate=2e-3, temperature=0.05, seed=5)
        for name in ("a", "b"):
            ckpt = fit(tiny_processed, tcfg, TINY_ENC)
            save_checkpoint(ckpt, tmp_path / name)
        assert (tmp_path / "a" / "params.f32").read_bytes() == (tmp_path / "b" / "params.f32").read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (tmp_path / "b" / "manifest.json").read_bytes()

    def test_loss_decreases_on_tiny_set(self, tiny_processed):
        # regression fixture: observed 3.01 -> 0.065 over 300 epochs
        tcfg = TrainConfig(batch_size=16, epochs=300, learning_rate=2e-3, temperature=0.05, seed=11)
        ckpt = fit(tiny_processed, tcfg, TINY_ENC)
        assert ckpt.history[-1] < ckpt.history[0]
        assert ckpt.history[-1] < 0.5

    def test_top1_self_retrieval_after_fit(self, tiny_processed):
        tcfg = TrainConfig(batch_size=16, epochs=300, learning_rate=2e-3, temperature=0.05, seed=11)
        ckpt = fit(tiny_processed, tcfg, TINY_ENC)
        index = build_index(ckpt, tiny_processed.train_slides())
        slide = tiny_processed.slides[0]
        queries = encode_slide_patches(slide, ckpt)
        rows, _, _ = search(index, queries, 1)
        hits = int(np.sum(rows[:, 0] == np.arange(slide.spot_num)))
        assert hits >= 0.9 * slide.spot_num, f"{hits}/{slide.spot_num} self-retrievals"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/nan arithmetic is the point
    def test_divergence_aborts_with_snapshot(self, tiny_processed):
        tcfg = TrainConfig(batch_size=16, epochs=50, learning_rate=1e12, temperature=0.05, seed=2)
        with pytest.raises(TrainingDiverged) as err:
            fit(tiny_processed, tcfg, TINY_ENC)
        snap = err.value.snapshot
        assert {"epoch", "step", "slide_id", "loss", "param_norms"} <= set(snap)

    def test_batch_of_one_refused(self):
        with pytest.raises(ValueError, match="batch_size must be >= 2"):
            TrainConfig(batch_size=1)

    def test_batch_size_preflight(self, tiny_processed):
        tcfg = TrainConfig(batch_size=64, epochs=1, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            fit(tiny_processed, tcfg, TINY_ENC)


class TestLoweredPatches:
    """fit lowers layer 0's constant input once per slide; the arithmetic stays bit for bit the same."""

    def test_loss_graph_with_lowered_batch_is_bitwise_equal(self):
        cfg = EncoderConfig(hvg_num=64, patch_shape=(3, 32, 32))  # the acceptance model
        tcfg = TrainConfig(seed=3)
        params = init_params(cfg, seed=3)
        rng = np.random.default_rng(4)
        patches = rng.random((tcfg.batch_size, 3, 32, 32), dtype=np.float32)
        expr = rng.uniform(0.0, 4.0, (tcfg.batch_size, 64)).astype(np.float32)
        coords = rng.integers(0, cfg.n_positions, (tcfg.batch_size, 2)).astype(np.uint32)
        lowered = enc.lower_patches(patches, cfg)
        results = []
        for rows in (None, lowered):
            def graph(p, inputs):
                return build_loss_graph(p, inputs[0], inputs[1], coords, cfg, tcfg, rows)

            results.append(dc.evaluate_with_gradients(graph, params, [patches, expr]))
        (plain, plain_grads), (cached, cached_grads) = results
        assert plain.data.tobytes() == cached.data.tobytes()
        assert plain_grads.keys() == cached_grads.keys()
        for name in plain_grads:
            assert plain_grads[name].tobytes() == cached_grads[name].tobytes(), name

    def test_fit_lowers_each_training_slide_once(self, tmp_path, monkeypatch):
        gen = GenConfig(n_slides=2, spots_per_slide=32, gene_num=32, n_domains=4, patch_shape=(3, 16, 16))
        synth_generate(gen, 12, tmp_path)
        slides = load_dataset(tmp_path)
        dataset = preprocess(slides, hvg_num=16, train_ids=[s.slide_id for s in slides])
        cfg = EncoderConfig(hvg_num=16, d_embed=16, n_heads=4, conv_channels=(4, 8, 8),
                            proj_hidden=16, patch_shape=(3, 16, 16))
        calls = {"im2col": 0, "step": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(dc, "im2col", counted("im2col", dc.im2col))
        monkeypatch.setattr(dc, "evaluate_with_gradients", counted("step", dc.evaluate_with_gradients))
        fit(dataset, TrainConfig(batch_size=16, epochs=2, seed=1), cfg)
        assert calls["step"] == 2 * 2 * 2  # epochs x slides x full batches of 16 in 32 spots
        assert calls["im2col"] == len(slides) + (len(cfg.conv_channels) - 1) * calls["step"]

    def test_fit_with_lowered_slides_is_bitwise_equal_to_fit_without(self, tiny_processed, monkeypatch):
        tcfg = TrainConfig(batch_size=16, epochs=3, learning_rate=2e-3, temperature=0.05, seed=6)
        cached = fit(tiny_processed, tcfg, TINY_ENC)
        monkeypatch.setattr(enc, "lower_patches", lambda patches, cfg: None)
        plain = fit(tiny_processed, tcfg, TINY_ENC)
        assert cached.history == plain.history
        for name, t in plain.params.items():
            assert cached.params[name].data.tobytes() == t.data.tobytes(), name


class TestCheckpointRoundTrip:
    def test_reload_reproduces_forward_bitwise(self, tiny_processed, tmp_path):
        tcfg = TrainConfig(batch_size=16, epochs=2, learning_rate=2e-3, temperature=0.05, seed=9)
        ckpt = fit(tiny_processed, tcfg, TINY_ENC)
        save_checkpoint(ckpt, tmp_path / "ck")
        back = load_checkpoint(tmp_path / "ck")
        assert back.encoder_config == TINY_ENC
        slide = tiny_processed.slides[0]
        h1 = embed_spots(slide.expression[:16], slide.coords[:16], ckpt.params, TINY_ENC)
        h2 = embed_spots(slide.expression[:16], slide.coords[:16], back.params, back.encoder_config)
        np.testing.assert_array_equal(h1, h2)
        p1 = embed_patches(slide.patches[:16], ckpt.params, TINY_ENC)
        p2 = embed_patches(slide.patches[:16], back.params, back.encoder_config)
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("edit", [lambda b: b[:-4], lambda b: b + bytes(4)], ids=["short", "long"])
    def test_blob_of_another_size_refused_naming_it(self, tmp_path, edit):
        save_checkpoint(_tiny_checkpoint(TINY_ENC), tmp_path / "ck")
        blob = tmp_path / "ck" / "params.f32"
        blob.write_bytes(edit(blob.read_bytes()))
        with pytest.raises(ValueError, match=f"{blob} is "):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_refused_naming_the_first(self, tmp_path, value):
        ckpt = _tiny_checkpoint(TINY_ENC)
        names = ckpt.params.names()
        for name, at in ((names[1], -1), (names[2], 0), (names[-1], 0)):  # a parameter's last and first values
            ckpt.params[name].data.flat[at] = value
        save_checkpoint(ckpt, tmp_path / "ck")
        with pytest.raises(ValueError, match=f"{tmp_path / 'ck' / 'params.f32'}: parameter {names[1]} holds"):
            load_checkpoint(tmp_path / "ck")
        ckpt.params[names[1]].data.flat[-1] = 0.0
        save_checkpoint(ckpt, tmp_path / "ck")
        with pytest.raises(ValueError, match=f"parameter {names[2]} holds {value}"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("enc_cfg", [
        TINY_ENC,
        dataclasses.replace(TINY_ENC, image_identity=True),
        dataclasses.replace(TINY_ENC, patch_shape=None, input_feat_dim=12),
    ], ids=["pixels", "image_identity", "features"])
    def test_every_encoder_input_round_trips_bitwise(self, tmp_path, enc_cfg):
        ckpt = _tiny_checkpoint(enc_cfg)
        save_checkpoint(ckpt, tmp_path / "a")
        back = load_checkpoint(tmp_path / "a")
        assert back.encoder_config == enc_cfg
        assert back.params.names() == ckpt.params.names()
        for name, t in ckpt.params.items():
            assert back.params[name].data.dtype == np.float32, name
            assert back.params[name].data.tobytes() == t.data.tobytes(), name
        save_checkpoint(back, tmp_path / "b")
        for file in ("manifest.json", "params.f32"):
            assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes(), file

    def test_every_manifest_key_is_read(self, tiny_processed, tmp_path):
        # a key that is written but never read would be a second copy of a fact, free to disagree with the first
        ckpt = dataclasses.replace(_tiny_checkpoint(TINY_ENC), preprocess=tiny_processed.manifest)
        save_checkpoint(ckpt, tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        written = json.loads(path.read_text())
        for key in written:
            path.write_text(json.dumps({k: v for k, v in written.items() if k != key}))
            with pytest.raises(ValueError, match=f"{path}: missing key '{key}'"):
                load_checkpoint(tmp_path / "ck")
        for key in written["preprocess"]:  # the preprocessing manifest as preprocess writes it
            section = {k: v for k, v in written["preprocess"].items() if k != key}
            path.write_text(json.dumps({**written, "preprocess": section}))
            with pytest.raises(ValueError, match=f"{path}: field preprocess.{key} is missing"):
                load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("swap", [False, True], ids=["as-written", "two-swapped"])
    def test_earlier_parameter_list_is_ignored(self, tmp_path, swap):
        # the release before the layout followed from the encoder settings listed each parameter's name and shape
        ckpt = _tiny_checkpoint(TINY_ENC)
        save_checkpoint(ckpt, tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        entries = [{"name": name, "shape": list(t.shape)} for name, t in ckpt.params.items()]
        if swap:
            entries[0], entries[-1] = entries[-1], entries[0]
        path.write_text(json.dumps({**json.loads(path.read_text()), "params": entries}))
        back = load_checkpoint(tmp_path / "ck")
        assert back.params.names() == ckpt.params.names()
        for name, t in ckpt.params.items():
            assert back.params[name].data.tobytes() == t.data.tobytes(), name

    def test_blob_layout_follows_from_the_encoder_settings(self, tmp_path):
        ckpt = _tiny_checkpoint(TINY_ENC)
        save_checkpoint(ckpt, tmp_path / "ck")
        blob = np.fromfile(tmp_path / "ck" / "params.f32", dtype="<f4")
        offset = 0
        for name, shape in sorted(param_shapes(TINY_ENC).items()):
            size = math.prod(shape)
            assert blob[offset : offset + size].tobytes() == ckpt.params[name].data.tobytes(), name
            offset += size
        assert offset == blob.size

    def test_preprocessing_survives_round_trip(self, tiny_processed, tmp_path):
        ckpt = dataclasses.replace(_tiny_checkpoint(TINY_ENC), preprocess=tiny_processed.manifest)
        save_checkpoint(ckpt, tmp_path / "ck")
        back = load_checkpoint(tmp_path / "ck").preprocess
        assert back == tiny_processed.manifest and isinstance(back, Preprocessing)
        assert all(isinstance(getattr(back, f), tuple) for f in ("hvg_indices", "hvg_gene_names", "train_ids"))

    def test_history_survives_round_trip(self, tiny_processed, tmp_path):
        tcfg = TrainConfig(batch_size=16, epochs=3, temperature=0.05, seed=9)
        ckpt = fit(tiny_processed, tcfg, TINY_ENC)
        save_checkpoint(ckpt, tmp_path / "ck")
        assert load_checkpoint(tmp_path / "ck").history == ckpt.history

    def test_configs_survive_round_trip(self, tiny_processed, tmp_path):
        tcfg = TrainConfig(batch_size=8, epochs=1, learning_rate=5e-3, temperature=0.2, seed=4)
        save_checkpoint(fit(tiny_processed, tcfg, TINY_ENC), tmp_path / "ck")
        back = load_checkpoint(tmp_path / "ck")
        assert back.encoder_config == TINY_ENC  # tuple fields come back as tuples
        assert back.train_config == tcfg

    def test_earlier_manifest_refused_naming_a_retired_field(self, tmp_path):
        # the "encoder" and "train" sections exactly as an earlier release wrote them
        # (stexp train on the tests/test_cli.py micro config, --seed 7)
        written = json.loads(
            '{"encoder": {"attn_residual": true, "conv_channels": [6], "d_embed": 16, "hvg_num": 8,'
            ' "image_identity": false, "input_feat_dim": null, "input_kind": "pixels", "n_heads": 2,'
            ' "n_positions": 256, "patch_shape": [3, 8, 8], "proj_hidden": 16, "use_mhsa": true,'
            ' "use_positional": true}, "train": {"batch_size": 8, "beta1": 0.9, "beta2": 0.999,'
            ' "epochs": 3, "epsilon": 1e-08, "learn_temperature": false, "learning_rate": 0.002,'
            ' "seed": 7, "temperature": 0.1}}'
        )
        with pytest.raises(ValueError, match="field encoder.attn_residual is not a EncoderConfig field"):
            load_checkpoint(_write_checkpoint_dir(tmp_path / "ck", written))
        # the manifest written today has the same sections, key for key, minus the retired ones
        enc_cfg = EncoderConfig(hvg_num=8, d_embed=16, n_heads=2, conv_channels=(6,),
                                proj_hidden=16, patch_shape=(3, 8, 8))
        tcfg = TrainConfig(batch_size=8, epochs=3, learning_rate=2e-3, temperature=0.1, seed=7)
        retired = {"encoder": {"attn_residual", "input_kind"},
                   "train": {"learn_temperature", "beta1", "beta2", "epsilon"}}
        earlier = {section: {k: v for k, v in values.items() if k not in retired[section]}
                   for section, values in written.items()}
        assert json.loads(json.dumps({"encoder": asdict(enc_cfg), "train": asdict(tcfg)})) == earlier
        values = sum(math.prod(shape) for shape in param_shapes(enc_cfg).values())
        ckpt = load_checkpoint(_write_checkpoint_dir(tmp_path / "today", earlier, values))
        assert (ckpt.encoder_config, ckpt.train_config) == (enc_cfg, tcfg)

    @pytest.mark.parametrize("section, field, value", [
        ("encoder", "attn_residual", False),
        ("train", "learn_temperature", True),
        ("train", "epsilon", 1e-6),
    ])
    def test_retired_field_fails_as_unknown_when_the_checkpoint_loads(self, tiny_processed, tmp_path,
                                                                      section, field, value):
        tcfg = TrainConfig(batch_size=16, epochs=1, temperature=0.05, seed=9)
        save_checkpoint(fit(tiny_processed, tcfg, TINY_ENC), tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        manifest[section][field] = value
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"manifest.json: field {section}.{field} is not a"):
            load_checkpoint(tmp_path / "ck")

    def test_manifest_records_the_run(self, tiny_processed, tmp_path):
        tcfg = TrainConfig(batch_size=16, epochs=2, temperature=0.05, seed=9)
        ckpt = fit(tiny_processed, tcfg, TINY_ENC)
        save_checkpoint(ckpt, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert set(manifest) == {"encoder", "train", "preprocess", "loss_history"}
        assert (manifest["train"]["seed"], manifest["train"]["epochs"]) == (9, 2)
        assert manifest["loss_history"] == ckpt.history
        assert manifest["preprocess"] == json.loads(json.dumps(asdict(tiny_processed.manifest)))

    def test_fit_holds_the_configs_it_was_given(self, tiny_processed):
        tcfg = TrainConfig(batch_size=16, epochs=2, temperature=0.05, seed=9)
        ckpt = fit(tiny_processed, tcfg, TINY_ENC)
        assert ckpt.encoder_config is TINY_ENC and ckpt.train_config is tcfg
        assert ckpt.preprocess is tiny_processed.manifest
        assert not hasattr(ckpt, "manifest")


def _tiny_checkpoint(enc_cfg: EncoderConfig) -> Checkpoint:
    """An untrained checkpoint of `enc_cfg`, with a preprocessing manifest of its genes."""
    preprocess = Preprocessing(TARGET_LIBRARY_SIZE, "log1p", hvg_indices=tuple(range(enc_cfg.hvg_num)),
                               hvg_gene_names=tuple(f"g{i}" for i in range(enc_cfg.hvg_num)), train_ids=("s0",))
    return Checkpoint(init_params(enc_cfg, seed=2), enc_cfg, TrainConfig(seed=2), preprocess, [1.5])


def _write_checkpoint_dir(directory, sections: dict, values: int = 0):
    """A checkpoint directory whose manifest holds `sections` and whose params.f32 holds `values` zeros."""
    directory.mkdir()
    manifest = {**sections,
                "preprocess": {"target_sum": 10000.0, "transform": "log1p", "hvg_indices": [], "hvg_gene_names": [],
                               "train_ids": []},
                "loss_history": []}
    (directory / "manifest.json").write_text(json.dumps(manifest))
    (directory / "params.f32").write_bytes(bytes(4 * values))
    return directory
