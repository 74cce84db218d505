"""Encoder contracts: shapes, unit norms, attention properties, gradient checks."""

import hashlib

import numpy as np
import pytest

from stexp import diffcore as dc
from stexp import encoders as enc
from stexp.cli import ABLATION_TOGGLES


def tiny_cfg(**overrides):
    base = dict(
        hvg_num=8,
        d_embed=8,
        n_heads=2,
        n_positions=16,
        conv_channels=(4,),
        proj_hidden=8,
        patch_shape=(3, 8, 8),
    )
    base.update(overrides)
    return enc.EncoderConfig(**base)


def tiny_batch(cfg, n=4, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    if cfg.patch_shape is not None:
        patch = rng.random((n, *cfg.patch_shape)).astype(dtype)
    else:
        patch = rng.standard_normal((n, cfg.input_feat_dim)).astype(dtype)
    expr = rng.uniform(0.0, 4.0, (n, cfg.hvg_num)).astype(dtype)
    coords = rng.integers(0, cfg.n_positions, (n, 2)).astype(np.uint32)
    return patch, expr, coords


class TestConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            tiny_cfg(hvg_num=9, n_heads=2)

    def test_feat_dim_variants(self):
        assert tiny_cfg().feat_dim == 4
        assert tiny_cfg(conv_channels=(4, 8)).feat_dim == 12
        assert tiny_cfg(image_identity=True).feat_dim == 3 * 8 * 8
        assert tiny_cfg(patch_shape=None, input_feat_dim=13).feat_dim == 13

    def test_conv_stack_needs_a_channel_per_layer(self):
        for channels in ((), (4, 0)):
            with pytest.raises(ValueError, match="conv_channels"):
                tiny_cfg(conv_channels=channels)
        # no conv stack runs for precomputed features or the identity image path
        assert tiny_cfg(conv_channels=(), patch_shape=None, input_feat_dim=5).feat_dim == 5
        assert tiny_cfg(conv_channels=(), image_identity=True).feat_dim == 3 * 8 * 8

    @pytest.mark.parametrize("inputs", [{"patch_shape": None}, {"input_feat_dim": 5}])
    def test_exactly_one_input_shape_is_set(self, inputs):
        with pytest.raises(ValueError, match="exactly one of patch_shape and input_feat_dim"):
            tiny_cfg(**inputs)

    def test_identity_image_path_needs_pixels(self):
        with pytest.raises(ValueError, match="image_identity flattens pixels"):
            tiny_cfg(patch_shape=None, input_feat_dim=5, image_identity=True)


# the full model, each ablation variant of it, and precomputed features
LAYOUT_CONFIGS = {"full": {}, **ABLATION_TOGGLES, "features": {"patch_shape": None, "input_feat_dim": 12}}


class TestParamShapes:
    @pytest.mark.parametrize("overrides", LAYOUT_CONFIGS.values(), ids=LAYOUT_CONFIGS.keys())
    def test_names_and_shapes_are_those_init_params_makes(self, overrides):
        cfg = tiny_cfg(conv_channels=(4, 6), **overrides)
        params = enc.init_params(cfg, seed=0)
        assert enc.param_shapes(cfg) == {name: t.shape for name, t in params.items()}

    @pytest.mark.parametrize("cfg, digest", [
        (enc.EncoderConfig(hvg_num=64, patch_shape=(3, 32, 32)), "30b31d0a7babd3d9"),  # the acceptance model
        (tiny_cfg(), "a01cf037afbe7015"),  # grad-check's model
        (tiny_cfg(patch_shape=None, input_feat_dim=12, use_mhsa=False), "3f12817c4c9bc406"),
        (tiny_cfg(image_identity=True, use_positional=False), "b8ad8d8668db09b2"),
    ], ids=["acceptance", "grad_check", "features_no_mhsa", "identity_no_positional"])
    def test_init_params_draws_the_recorded_values(self, cfg, digest):
        # values drawn before the layout came from param_shapes; a change of draw order or fan-in changes them
        h = hashlib.sha256()
        for name, t in enc.init_params(cfg, seed=3).items():
            h.update(name.encode())
            h.update(t.data.tobytes())
        assert h.hexdigest()[:16] == digest


class TestEncodePatch:
    def test_zero_patch_finite(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=0)
        z = enc.encode_patch(dc.constant(np.zeros((2, 3, 8, 8), dtype=np.float32)), params, cfg)
        assert z.shape == (2, cfg.feat_dim)
        assert np.all(np.isfinite(z.data))

    def test_features_pass_through_exactly(self):
        cfg = tiny_cfg(patch_shape=None, input_feat_dim=6)
        params = enc.init_params(cfg, seed=0)
        v = np.random.default_rng(1).standard_normal((3, 6)).astype(np.float32)
        z = enc.encode_patch(dc.constant(v), params, cfg)
        np.testing.assert_array_equal(z.data, v)

    def test_features_are_prepared_as_a_view_of_themselves(self):
        cfg = tiny_cfg(patch_shape=None, input_feat_dim=6)
        v = np.random.default_rng(1).standard_normal((3, 6)).astype(np.float32)
        prepared = enc.prepare_patch_input(v, cfg)
        assert prepared.shape == v.shape and np.shares_memory(prepared, v)
        np.testing.assert_array_equal(prepared, v)
        assert enc.lower_patches(v, cfg) is None
        with pytest.raises(dc.GraphError, match=r"input shape \(7,\) != \(6,\)"):
            enc.prepare_patch_input(np.zeros((3, 7), dtype=np.float32), cfg)

    def test_shape_mismatch_rejected(self):
        cfg = tiny_cfg()
        with pytest.raises(dc.GraphError, match="patch"):
            enc.prepare_patch_input(np.zeros((2, 3, 7, 8), dtype=np.float32), cfg)

    def test_conv_gradients_pass_grad_check(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=3).astype(np.float64)
        patch, _, _ = tiny_batch(cfg, n=2, seed=3)

        def graph(p, inputs):
            z = enc.encode_patch(inputs[0], p, cfg)
            return dc.mean(enc.project(z, p, "img_proj"))

        # restrict to the image tower: spot-side params are not in this graph
        tower = dc.ParamSet()
        for name, t in params.items():
            if name.startswith(("conv.", "img_proj.")):
                tower.add(name, t.data)
        report = dc.grad_check(graph, tower, [patch], eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err


class TestProject:
    def test_unit_norm(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=0)
        z = dc.constant(np.random.default_rng(0).standard_normal((5, cfg.hvg_num)).astype(np.float32))
        h = enc.project(z, params, "spot_proj")
        np.testing.assert_allclose(np.linalg.norm(h.data, axis=1), 1.0, atol=1e-5)

    def test_deterministic(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=0)
        z = np.random.default_rng(1).standard_normal((4, cfg.hvg_num)).astype(np.float32)
        h1 = enc.project(dc.constant(z), params, "spot_proj").data
        h2 = enc.project(dc.constant(z), params, "spot_proj").data
        np.testing.assert_array_equal(h1, h2)

    def test_projection_gradients(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(4)
        z = rng.standard_normal((3, cfg.hvg_num))
        head = dc.ParamSet()
        full = enc.init_params(cfg, seed=4).astype(np.float64)
        for name, t in full.items():
            if name.startswith("spot_proj."):
                head.add(name, t.data)
        r = rng.standard_normal((cfg.d_embed, 1))

        def graph(p, inputs):
            return dc.mean(dc.matmul(enc.project(inputs[0], p, "spot_proj"), inputs[1]))

        report = dc.grad_check(graph, head, [z, r], eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err


class TestPositionalEncode:
    def test_row_selection_identity(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=0)
        coords = np.array([[3, 5]], dtype=np.uint32)
        sx, sy = enc.positional_encode(coords, params, cfg)
        np.testing.assert_array_equal(sx.data[0], params["pos.wx"].data[3])
        np.testing.assert_array_equal(sy.data[0], params["pos.wy"].data[5])

    def test_one_hot_equals_lookup_elementwise(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=1)
        coords = np.random.default_rng(2).integers(0, cfg.n_positions, (10, 2)).astype(np.uint32)
        sx, _ = enc.positional_encode(coords, params, cfg)
        np.testing.assert_array_equal(sx.data, params["pos.wx"].data[coords[:, 0]])

    def test_shared_coordinates_share_rows(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=0)
        coords = np.array([[7, 2], [7, 2]], dtype=np.uint32)
        sx, sy = enc.positional_encode(coords, params, cfg)
        np.testing.assert_array_equal(sx.data[0], sx.data[1])
        np.testing.assert_array_equal(sy.data[0], sy.data[1])

    def test_out_of_range_names_spot(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=0)
        coords = np.array([[1, 1], [16, 0]], dtype=np.uint32)
        with pytest.raises(ValueError, match="spot 1"):
            enc.positional_encode(coords, params, cfg)


class TestMhsa:
    def test_single_row_no_mixing(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=0).astype(np.float64)
        x = np.random.default_rng(3).standard_normal((1, cfg.hvg_num))
        out = enc.mhsa(dc.constant(x), params, cfg).data
        # softmax over one key is 1, so the output is concat(x Wv_i) @ W0
        heads = [x @ params[f"attn.h{i}.wv"].data for i in range(cfg.n_heads)]
        want = np.concatenate(heads, axis=1) @ params["attn.w0"].data
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_identical_rows_identical_outputs(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=0)
        row = np.random.default_rng(4).standard_normal((1, cfg.hvg_num)).astype(np.float32)
        x = np.repeat(row, 5, axis=0)
        out = enc.mhsa(dc.constant(x), params, cfg).data
        for i in range(1, 5):
            np.testing.assert_array_equal(out[0], out[i])

    def test_attention_rows_sum_to_one(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=5)
        x = np.random.default_rng(5).standard_normal((6, cfg.hvg_num)).astype(np.float32)
        # the attention maps are the row_softmax nodes of the graph mhsa builds
        maps, stack, seen = [], [enc.mhsa(dc.constant(x), params, cfg)], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                if node.op == "row_softmax":
                    maps.append(node.data)
                stack.extend(node.parents)
        assert len(maps) == cfg.n_heads
        for amap in maps:
            assert amap.shape == (6, 6)
            np.testing.assert_allclose(amap.sum(axis=1), 1.0, atol=1e-6)

    def test_permutation_equivariance(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=6).astype(np.float64)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((7, cfg.hvg_num))
        perm = rng.permutation(7)
        out = enc.mhsa(dc.constant(x), params, cfg).data
        out_perm = enc.mhsa(dc.constant(x[perm]), params, cfg).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


class TestEncodeSpots:
    def test_output_shape_and_norms(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=0)
        _, expr, coords = tiny_batch(cfg, n=6, dtype=np.float32)
        h = enc.embed_spots(expr, coords, params, cfg)
        assert h.shape == (6, cfg.d_embed)
        np.testing.assert_allclose(np.linalg.norm(h, axis=1), 1.0, atol=1e-5)

    def test_translation_changes_outputs(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=7)
        _, expr, coords = tiny_batch(cfg, n=4, seed=7, dtype=np.float32)
        coords = np.clip(coords, 0, cfg.n_positions - 3)
        h0 = enc.embed_spots(expr, coords, params, cfg)
        h1 = enc.embed_spots(expr, coords + 2, params, cfg)
        assert not np.array_equal(h0, h1)

    def test_permutation_equivariance_full_path(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=8).astype(np.float64)
        _, expr, coords = tiny_batch(cfg, n=6, seed=8)
        perm = np.random.default_rng(8).permutation(6)
        h = enc.embed_spots(expr, coords, params, cfg)
        h_perm = enc.embed_spots(expr[perm], coords[perm], params, cfg)
        np.testing.assert_allclose(h_perm, h[perm], atol=1e-10)

    def test_no_positional_and_no_mhsa_toggles(self):
        cfg = tiny_cfg(use_positional=False, use_mhsa=False)
        params = enc.init_params(cfg, seed=0)
        assert "pos.wx" not in params.names()
        assert "attn.w0" not in params.names()
        _, expr, coords = tiny_batch(cfg, n=4, dtype=np.float32)
        h = enc.embed_spots(expr, coords, params, cfg)
        np.testing.assert_allclose(np.linalg.norm(h, axis=1), 1.0, atol=1e-5)

    def test_spot_path_gradients(self):
        cfg = tiny_cfg()
        params = enc.init_params(cfg, seed=9).astype(np.float64)
        _, expr, coords = tiny_batch(cfg, n=3, seed=9)
        spot_names = [n for n in params.names() if not n.startswith(("conv.", "img_proj."))]
        tower = dc.ParamSet()
        for name in spot_names:
            tower.add(name, params[name].data)
        r = np.random.default_rng(9).standard_normal((cfg.d_embed, 1))

        def graph(p, inputs):
            h = enc.encode_spots(inputs[0], coords, p, cfg)
            return dc.mean(dc.matmul(h, inputs[1]))

        report = dc.grad_check(graph, tower, [expr, r], eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err
