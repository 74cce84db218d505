"""Primitive-by-primitive gradient verification against central differences.

The finite-difference oracle lives in ``grad_check`` itself and never calls
into the backward rules it is checking.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from stexp import diffcore as dc
from stexp import encoders as enc
from stexp.contrastive import TrainConfig, build_loss_graph


def _params_from(arrays: dict[str, np.ndarray]) -> dc.ParamSet:
    ps = dc.ParamSet()
    for name, arr in arrays.items():
        ps.add(name, arr)
    return ps


def _rng(seed=0):
    return np.random.default_rng(seed)


# (stride, padding) pairs swept by the conv2d geometry tests, on a 5x7 input
# with a 2x3 kernel so that no index can silently swap rows with columns.
CONV_GEOMETRIES = [(stride, padding) for stride in (1, 2, 3) for padding in (0, 1, 2)]


def _conv2d_reference(x, w, b, stride, padding):
    """Direct cross-correlation: one window product per output element."""
    n, _, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, ho, wo))
    for i in range(n):
        for o in range(c_out):
            for r in range(ho):
                for c in range(wo):
                    window = xp[i, :, r * stride : r * stride + kh, c * stride : c * stride + kw]
                    out[i, o, r, c] = b[o] + np.sum(window * w[o])
    return out


class TestForward:
    def test_matmul_values(self):
        a = dc.constant([[1.0, 2.0], [3.0, 4.0]])
        b = dc.constant([[5.0], [6.0]])
        np.testing.assert_array_equal(dc.matmul(a, b).data, [[17.0], [39.0]])

    def test_row_softmax_rows_sum_to_one_64bit(self):
        x = dc.constant(_rng(1).standard_normal((40, 9)) * 50)
        y = dc.row_softmax(x).data
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)

    def test_row_softmax_rows_sum_to_one_32bit(self):
        x = dc.constant((_rng(2).standard_normal((40, 9)) * 20).astype(np.float32))
        y = dc.row_softmax(x).data
        assert y.dtype == np.float32
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-6)

    def test_l2_normalize_unit_rows(self):
        x = dc.constant(_rng(3).standard_normal((10, 7)))
        norms = np.linalg.norm(dc.l2_normalize_rows(x).data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-7)

    def test_l2_normalize_zero_row_is_finite(self):
        x = dc.constant(np.zeros((2, 4)))
        y = dc.l2_normalize_rows(x).data
        assert np.all(np.isfinite(y))
        np.testing.assert_array_equal(y, 0.0)

    def test_cross_entropy_matches_log_softmax(self):
        logits = _rng(4).standard_normal((6, 5))
        targets = np.array([0, 1, 2, 3, 4, 0])
        got = dc.cross_entropy_with_index_targets(dc.constant(logits), targets).data
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        want = -np.log(p[np.arange(6), targets])
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("stride,padding", CONV_GEOMETRIES)
    def test_conv2d_matches_direct_loops_64bit(self, stride, padding):
        rng = _rng(5)
        x = rng.standard_normal((2, 3, 5, 7))
        w = rng.standard_normal((4, 3, 2, 3))
        b = rng.standard_normal(4)
        got = dc.conv2d(dc.constant(x), dc.constant(w), dc.constant(b), stride=stride, padding=padding).data
        assert got.transpose(0, 2, 3, 1).flags.c_contiguous  # NCHW shape over channels-last memory
        np.testing.assert_allclose(got, _conv2d_reference(x, w, b, stride, padding), rtol=0, atol=1e-12)

    def test_relu_bitwise_equals_where_form_and_propagates_nan(self):
        x = (_rng(8).standard_normal((4, 16, 9, 9)) * 3).astype(np.float32)
        x.flat[:4] = [-0.0, 0.0, -1e-45, 1e-45]
        got = dc.relu(dc.constant(x)).data
        want = np.where(x > 0, x, 0)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))  # -0.0 -> +0.0 as well
        x[1, 2, 3, 4] = np.nan
        assert np.isnan(dc.relu(dc.constant(x)).data[1, 2, 3, 4])

    def test_forward_deterministic(self):
        x = _rng(5).standard_normal((16, 16))
        w = _rng(6).standard_normal((16, 16))
        r1 = dc.matmul(dc.row_softmax(dc.constant(x)), dc.constant(w)).data
        r2 = dc.matmul(dc.row_softmax(dc.constant(x)), dc.constant(w)).data
        np.testing.assert_array_equal(r1, r2)

    def test_no_nan_after_chained_ops(self):
        x = dc.constant(_rng(7).standard_normal((8, 8)) * 30)
        y = dc.l2_normalize_rows(dc.gelu(dc.matmul(dc.row_softmax(x), x)))
        assert np.all(np.isfinite(y.data))


def _im2col_reference(x, kh, kw, stride, padding):
    """The lowering as kh*kw strided slice copies from a padded channels-last buffer."""
    n, c, h, wd = x.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, h + 2 * padding, wd + 2 * padding, c), dtype=x.dtype)
    xp[:, padding : padding + h, padding : padding + wd] = x.transpose(0, 2, 3, 1)
    cols = np.empty((n, ho, wo, kh, kw, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j] = xp[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(n, ho * wo, kh * kw * c)


def _col2im_reference(dcols, x_shape, kh, kw, stride, padding):
    """The input gradient from dcols [N, Ho, Wo, kh, kw, C] by kh*kw strided adds, in tap order, into a zeroed
    padded channels-last buffer; returned as an [N, C, H, W] view."""
    n, c, h, wd = x_shape
    _, ho, wo = dcols.shape[:3]
    dxp = np.zeros((n, h + 2 * padding, wd + 2 * padding, c), dtype=dcols.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols[:, :, :, i, j]
    return dxp[:, padding : padding + h, padding : padding + wd].transpose(0, 3, 1, 2)


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.dtype, a.shape, a.tobytes()


def _channels_last(a):
    """Whether a [N, C, H, W] array's memory runs C fastest, then W, H, N (zero strides of a broadcast aside)."""
    nhwc = a.transpose(0, 2, 3, 1)
    strides = [s for s, d in zip(nhwc.strides, nhwc.shape) if d > 1 and s != 0]
    return strides == sorted(strides, reverse=True) and (not strides or strides[-1] == a.itemsize)


class TestLowering:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride,padding", CONV_GEOMETRIES)
    def test_im2col_bitwise_equals_slice_copies(self, stride, padding, dtype):
        x = _rng(50).standard_normal((2, 3, 5, 7)).astype(dtype)
        got = dc.im2col(x, 2, 3, stride, padding)
        assert got.flags.c_contiguous
        assert _bits(got) == _bits(_im2col_reference(x, 2, 3, stride, padding))

    @pytest.mark.parametrize("stride,padding", CONV_GEOMETRIES)
    def test_conv2d_with_cols_bitwise_equals_without(self, stride, padding):
        rng = _rng(51)
        x = dc.constant(rng.standard_normal((2, 3, 5, 7)).astype(np.float32))
        w = dc.Tensor(rng.standard_normal((4, 3, 2, 3)).astype(np.float32), requires_grad=True)
        b = dc.Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        plain = dc.conv2d(x, w, b, stride=stride, padding=padding)
        lowered = dc.conv2d(x, w, b, stride=stride, padding=padding, cols=dc.im2col(x.data, 2, 3, stride, padding))
        assert lowered.parents == plain.parents
        assert _bits(lowered.data) == _bits(plain.data)
        g = rng.standard_normal(plain.shape).astype(np.float32)
        for want, got in zip(plain.grad_fn(g), lowered.grad_fn(g)):
            assert (want is None and got is None) or _bits(got) == _bits(want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride,padding", CONV_GEOMETRIES)
    def test_conv2d_input_gradient_bitwise_equals_scatter_by_tap(self, stride, padding, dtype):
        rng = _rng(54)
        x = dc.Tensor(rng.standard_normal((2, 3, 5, 7)).astype(dtype), requires_grad=True)
        w = dc.Tensor(rng.standard_normal((4, 3, 2, 3)).astype(dtype), requires_grad=True)
        b = dc.Tensor(rng.standard_normal(4).astype(dtype), requires_grad=True)
        out = dc.conv2d(x, w, b, stride=stride, padding=padding)
        n, c_out, ho, wo = out.shape
        for g in (rng.standard_normal(out.shape).astype(dtype), out.data * 2):  # C-order and channels-last
            got = out.grad_fn(g)[0]
            w_mat = w.data.transpose(0, 2, 3, 1).reshape(c_out, -1)
            dcols = (g.transpose(0, 2, 3, 1).reshape(-1, c_out) @ w_mat).reshape(n, ho, wo, 2, 3, 3)
            want = _col2im_reference(dcols, x.shape, 2, 3, stride, padding)
            assert _channels_last(got)
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("cols_shape, dtype", [
        ((1, 12, 18), np.float64), ((2, 6, 24), np.float64), ((24, 18), np.float64), ((2, 12, 17), np.float64),
        ((2, 12, 18), np.float32),
    ])
    def test_conv2d_rejects_cols_that_are_not_the_lowering(self, cols_shape, dtype):
        x = dc.constant(np.ones((2, 3, 5, 7)))
        w = dc.constant(np.ones((4, 3, 2, 3)))
        b = dc.constant(np.ones(4))
        want = dc.im2col(x.data, 2, 3, 2, 1)  # the shape and dtype the cases differ from
        assert (want.shape, want.dtype) == ((2, 12, 18), np.float64)
        with pytest.raises(dc.GraphError, match="conv2d"):
            dc.conv2d(x, w, b, stride=2, padding=1, cols=np.ones(cols_shape, dtype=dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mean_backward_is_a_view_with_the_materialized_bits(dtype):
    x = dc.Tensor(_rng(52).standard_normal((64, 16, 16, 16)).astype(dtype), requires_grad=True)
    out = dc.mean(x, axis=(2, 3))
    g = _rng(53).standard_normal(out.shape).astype(dtype)
    (got,) = out.grad_fn(g)
    want = np.broadcast_to(g[:, :, None, None], x.shape).astype(dtype) / 256
    assert not got.flags.writeable
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("shape, axis, layout", [
    ((64, 16, 16, 16), (2, 3), "c_order"), ((64, 16, 16, 16), (2, 3), "channels_last"),
    ((4, 8, 5, 7), None, "c_order"), ((4, 8, 5, 7), None, "channels_last"), ((300,), None, "c_order"),
])
def test_mean_matches_np_mean(shape, axis, layout, dtype, tol):
    x = _rng(55).standard_normal(shape).astype(dtype)
    if layout == "channels_last":
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        assert _channels_last(x) and not x.flags.c_contiguous
    got = dc.mean(dc.constant(x), axis=axis).data
    want = np.mean(x, axis=axis)
    assert got.dtype == dtype and got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def test_conv_stack_values_and_gradients_stay_channels_last():
    """In one training step every 4-D value an op computes and every 4-D gradient is channels-last, so no pass of
    the conv stack reads or writes mixed memory orders."""
    cfg = enc.EncoderConfig(hvg_num=16, d_embed=16, n_heads=4, conv_channels=(4, 8, 8), proj_hidden=16,
                            patch_shape=(3, 16, 16))
    params = enc.init_params(cfg, seed=1)
    rng = _rng(56)
    patches = dc.constant(rng.random((8, 3, 16, 16), dtype=np.float32))
    expr = dc.constant(rng.uniform(0.0, 4.0, (8, 16)).astype(np.float32))
    coords = rng.integers(0, cfg.n_positions, (8, 2)).astype(np.uint32)
    loss = build_loss_graph(params, patches, expr, coords, cfg, TrainConfig(seed=1))
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.parents)
    activations = [node for node in nodes.values() if node.parents and node.data.ndim == 4]
    assert sorted(node.op for node in activations) == ["conv2d"] * 3 + ["relu"] * 3
    grads = dc.backward(loss)
    for node in activations:
        assert _channels_last(node.data), node
        assert _channels_last(grads[id(node)]), node


class TestShapeErrors:
    def test_matmul_mismatch_names_op(self):
        a = dc.constant(np.ones((2, 3)))
        b = dc.constant(np.ones((4, 2)))
        with pytest.raises(dc.GraphError, match="matmul"):
            dc.matmul(a, b)

    def test_add_mismatch_names_op(self):
        with pytest.raises(dc.GraphError, match="add"):
            dc.add(dc.constant(np.ones((2, 3))), dc.constant(np.ones((3, 2))))

    def test_conv_channel_mismatch(self):
        x = dc.constant(np.ones((1, 3, 8, 8)))
        w = dc.constant(np.ones((4, 2, 3, 3)))
        with pytest.raises(dc.GraphError, match="conv2d"):
            dc.conv2d(x, w, dc.constant(np.ones(4)))

    def test_non_scalar_loss_rejected(self):
        ps = _params_from({"w": np.ones((2, 2))})
        with pytest.raises(dc.GraphError, match="scalar"):
            dc.evaluate_with_gradients(lambda p, i: p["w"], ps)

    def test_unused_parameter_rejected(self):
        ps = _params_from({"w": np.ones((2, 2)), "dead": np.ones(3)})
        with pytest.raises(dc.GraphError, match="dead"):
            dc.evaluate_with_gradients(lambda p, i: dc.mean(p["w"]), ps)


class TestEvaluateWithGradients:
    def test_sum_of_squares_gradient(self):
        # f(x) = sum(x*x) built as x x^T; frozen oracle value from central
        # differences at x=3: ((3+e)^2-(3-e)^2)/2e = 6.
        ps = _params_from({"x": np.array([[3.0]])})

        def graph(p, inputs):
            return dc.mean(dc.matmul(p["x"], dc.transpose(p["x"])))

        value, grads = dc.evaluate_with_gradients(graph, ps)
        assert value.data.reshape(()) == pytest.approx(9.0)
        np.testing.assert_allclose(grads["x"], [[6.0]], atol=1e-6)

    def test_constant_graph_zero_grads(self):
        ps = _params_from({"x": np.array([[2.0, 5.0]])})

        def graph(p, inputs):
            # multiply by zero: value independent of x
            return dc.mean(dc.scale(p["x"], 0.0))

        _, grads = dc.evaluate_with_gradients(graph, ps)
        np.testing.assert_array_equal(grads["x"], np.zeros((1, 2)))

    def test_gradient_accumulates_over_reuse(self):
        ps = _params_from({"x": np.array([[1.5, -0.5]])})

        def graph(p, inputs):
            return dc.mean(dc.add(p["x"], p["x"]))

        _, grads = dc.evaluate_with_gradients(graph, ps)
        np.testing.assert_allclose(grads["x"], np.full((1, 2), 1.0), atol=1e-12)

    def test_input_nodes_are_constants(self):
        ps = _params_from({"w": np.array([[2.0], [1.0]])})

        def graph(p, inputs):
            return dc.mean(dc.matmul(inputs[0], p["w"]))

        value, grads = dc.evaluate_with_gradients(graph, ps, [np.array([[3.0, 4.0]])])
        assert value.data.reshape(()) == pytest.approx(10.0)
        np.testing.assert_allclose(grads["w"], [[3.0], [4.0]], atol=1e-12)


class TestGradCheckPrimitives:
    """Every primitive passes the finite-difference oracle on randomized inputs."""

    EPS = 1e-5
    TOL = 1e-4

    def check(self, graph, arrays, inputs=()):
        report = dc.grad_check(graph, _params_from(arrays), inputs, eps=self.EPS, tol=self.TOL)
        assert report.passed, report.max_rel_err

    def test_matmul(self):
        rng = _rng(10)
        self.check(
            lambda p, i: dc.mean(dc.matmul(p["a"], p["b"])),
            {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((4, 2))},
        )

    def test_add_and_bias(self):
        rng = _rng(11)
        self.check(
            lambda p, i: dc.mean(dc.gelu(dc.add(p["a"], p["b"]))),
            {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)},
        )

    def test_scale_constant(self):
        rng = _rng(12)
        self.check(
            lambda p, i: dc.mean(dc.scale(p["a"], -1.7)),
            {"a": rng.standard_normal((2, 5))},
        )

    def test_row_softmax(self):
        rng = _rng(14)
        self.check(
            lambda p, i: dc.mean(dc.matmul(dc.row_softmax(p["x"]), p["r"])),
            {"x": rng.standard_normal((4, 6)), "r": rng.standard_normal((6, 3))},
        )

    def test_l2_normalize_rows(self):
        rng = _rng(17)
        self.check(
            lambda p, i: dc.mean(dc.matmul(dc.l2_normalize_rows(p["x"]), p["r"])),
            {"x": rng.standard_normal((4, 5)) + 0.5, "r": rng.standard_normal((5, 2))},
        )

    def test_transpose(self):
        rng = _rng(18)
        self.check(
            lambda p, i: dc.mean(dc.matmul(dc.transpose(p["x"]), p["y"])),
            {"x": rng.standard_normal((3, 4)), "y": rng.standard_normal((3, 2))},
        )

    def test_concat(self):
        rng = _rng(19)
        self.check(
            lambda p, i: dc.mean(dc.gelu(dc.concat([p["a"], p["b"]], axis=1))),
            {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal((3, 4))},
        )

    def test_conv2d(self):
        rng = _rng(20)
        self.check(
            lambda p, i: dc.mean(dc.conv2d(p["x"], p["w"], p["b"], stride=2, padding=1)),
            {
                "x": rng.standard_normal((2, 3, 6, 6)),
                "w": rng.standard_normal((4, 3, 3, 3)) * 0.5,
                "b": rng.standard_normal(4) * 0.1,
            },
        )

    @pytest.mark.parametrize("stride,padding", CONV_GEOMETRIES)
    def test_conv2d_geometry(self, stride, padding):
        rng = _rng(25)
        self.check(
            lambda p, i: dc.mean(dc.gelu(dc.conv2d(p["x"], p["w"], p["b"], stride=stride, padding=padding))),
            {
                "x": rng.standard_normal((2, 3, 5, 7)),
                "w": rng.standard_normal((4, 3, 2, 3)) * 0.5,
                "b": rng.standard_normal(4) * 0.1,
            },
        )

    def test_conv2d_constant_input(self):
        rng = _rng(26)
        x = rng.standard_normal((2, 3, 6, 5))
        self.check(
            lambda p, i: dc.mean(dc.gelu(dc.conv2d(i[0], p["w"], p["b"], stride=2, padding=1))),
            {"w": rng.standard_normal((4, 3, 3, 3)) * 0.5, "b": rng.standard_normal(4) * 0.1},
            [x],
        )
        out = dc.conv2d(dc.constant(x), dc.Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True),
                        dc.constant(np.zeros(4)))
        dx, dw, _ = out.grad_fn(np.ones(out.shape))
        assert dx is None and dw.shape == (4, 3, 3, 3)

    def test_relu_away_from_kink(self):
        rng = _rng(21)
        x = rng.standard_normal((4, 4))
        x[np.abs(x) < 0.05] += 0.1  # keep clear of the nondifferentiable point
        self.check(lambda p, i: dc.mean(dc.relu(p["x"])), {"x": x})

    def test_gelu(self):
        rng = _rng(22)
        self.check(lambda p, i: dc.mean(dc.gelu(p["x"])), {"x": rng.standard_normal((4, 4))})

    def test_mean_axis(self):
        rng = _rng(23)
        self.check(
            lambda p, i: dc.mean(dc.gelu(dc.mean(p["x"], axis=(2, 3)))),
            {"x": rng.standard_normal((2, 3, 4, 4))},
        )

    def test_cross_entropy(self):
        rng = _rng(24)
        self.check(
            lambda p, i: dc.mean(dc.cross_entropy_with_index_targets(p["l"], np.arange(4))),
            {"l": rng.standard_normal((4, 4))},
        )


class TestGradCheckOperation:
    def test_quadratic_graph_passes(self):
        rng = _rng(30)
        ps = _params_from({"w": rng.standard_normal((3, 3))})

        def graph(p, inputs):
            return dc.mean(dc.matmul(p["w"], dc.transpose(p["w"])))

        report = dc.grad_check(graph, ps, eps=1e-5, tol=1e-4)
        assert report.passed

    def test_linear_graph_near_exact(self):
        rng = _rng(31)
        ps = _params_from({"w": rng.standard_normal((4, 2))})
        c = rng.standard_normal((3, 4))

        def graph(p, inputs):
            return dc.mean(dc.matmul(inputs[0], p["w"]))

        report = dc.grad_check(graph, ps, [c], eps=1e-5, tol=1e-4)
        assert report.worst <= 1e-10, report.max_rel_err

    def test_eps_validation(self):
        ps = _params_from({"w": np.ones((1, 1))})
        with pytest.raises(ValueError, match="eps"):
            dc.grad_check(lambda p, i: dc.mean(p["w"]), ps, eps=0.0)

    def test_report_lists_every_parameter(self):
        rng = _rng(32)
        ps = _params_from({"a": rng.standard_normal((2, 2)), "b": rng.standard_normal(2)})

        def graph(p, inputs):
            return dc.mean(dc.add(p["a"], p["b"]))

        report = dc.grad_check(graph, ps)
        assert set(report.max_rel_err) == {"a", "b"}


class TestRandomizedPrimitiveProperties:
    def test_softmax_rows_sum_randomized(self):
        rng = _rng(40)
        for _ in range(20):
            x = dc.constant(rng.standard_normal((8, 8)) * rng.uniform(0.1, 40))
            np.testing.assert_allclose(dc.row_softmax(x).data.sum(axis=1), 1.0, atol=1e-12)

    def test_composed_graph_matches_fd_randomized(self):
        rng = _rng(41)
        for trial in range(5):
            ps = _params_from(
                {
                    "w1": rng.standard_normal((5, 4)),
                    "w2": rng.standard_normal((4, 3)),
                    "b": rng.standard_normal(4) * 0.2,
                }
            )
            x = rng.standard_normal((6, 5))

            def graph(p, inputs):
                h = dc.gelu(dc.add(dc.matmul(inputs[0], p["w1"]), p["b"]))
                return dc.mean(dc.row_softmax(dc.matmul(h, p["w2"])))

            report = dc.grad_check(graph, ps, [x], eps=1e-5, tol=1e-4)
            assert report.passed, f"trial {trial}:\n{report}"


SRC = Path(__file__).resolve().parents[1] / "src" / "stexp"


def test_every_primitive_is_called_by_the_model_graph():
    """Each exported function that records a graph node (calls _result) is called as dc.<name> in encoders or
    contrastive, so no primitive is kept alive by the grad-check suite alone."""
    tree = ast.parse((SRC / "diffcore.py").read_text())
    primitives = {
        f.name for f in tree.body
        if isinstance(f, ast.FunctionDef) and f.name in dc.__all__
        and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_result" for n in ast.walk(f))
    }
    assert {"conv2d", "mean", "cross_entropy_with_index_targets"} <= primitives
    called = {
        n.func.attr
        for module in ("encoders", "contrastive")
        for n in ast.walk(ast.parse((SRC / f"{module}.py").read_text()))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name) and n.func.value.id == "dc"
    }
    assert sorted(primitives - called) == []
