"""Dense-tensor compute graph with reverse-mode gradients.

The graph is built dynamically from a fixed, minimal primitive set:

    matmul, add, scale, row_softmax, l2_normalize_rows, transpose, concat,
    conv2d, relu, gelu, mean, cross_entropy_with_index_targets

Everything else in the model is composed from these, and the model graph
in ``encoders`` and ``contrastive`` calls each of them. ``conv2d`` takes its
per-channel bias as a required operand: every conv layer has one. Each
primitive knows its own exact reverse-mode rule, and ``grad_check``
verifies any graph against central finite differences, which stay fully
independent of the backward implementations.

Training runs in float32; verification clones everything to float64 first
(finite differences are noise-dominated in 32-bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

__all__ = [
    "GraphError",
    "Tensor",
    "ParamSet",
    "constant",
    "matmul",
    "add",
    "scale",
    "row_softmax",
    "l2_normalize_rows",
    "transpose",
    "concat",
    "conv2d",
    "relu",
    "gelu",
    "mean",
    "cross_entropy_with_index_targets",
    "backward",
    "evaluate_with_gradients",
    "grad_check",
    "GradCheckReport",
]

L2_NORM_EPS = 1e-8  # fixed epsilon added to the norm denominator


class GraphError(ValueError):
    """Raised when an op is applied to incompatible or invalid tensors."""


class Tensor:
    """A node in the compute graph wrapping a dense row-major array.

    Leaf tensors (parameters, constants) have no parents. Op outputs keep
    references to their parents plus a closure that maps the output
    gradient to parent gradients.
    """

    __slots__ = ("data", "parents", "grad_fn", "requires_grad", "op")

    def __init__(self, data, *, parents=(), grad_fn=None, requires_grad=False, op="leaf"):
        self.data = np.asarray(data)
        self.parents = tuple(parents)
        self.grad_fn = grad_fn
        self.requires_grad = bool(requires_grad)
        self.op = op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape}, dtype={self.data.dtype})"


def constant(data) -> Tensor:
    """Wrap an array as a non-differentiable leaf."""
    return Tensor(data, op="const")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _result(data, parents, grad_fn, op) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    return Tensor(
        data,
        parents=parents,
        grad_fn=grad_fn if requires else None,
        requires_grad=requires,
        op=op,
    )


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise GraphError(f"matmul: expected 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise GraphError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")

    out = a.data @ b.data

    def grad_fn(g):
        return g @ b.data.T, a.data.T @ g

    return _result(out, (a, b), grad_fn, "matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-D bias broadcast over the rows of a 2-D tensor."""
    if a.shape == b.shape:
        def grad_fn(g):
            return g, g

        return _result(a.data + b.data, (a, b), grad_fn, "add")

    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        def grad_fn(g):
            return g, g.sum(axis=0)

        return _result(a.data + b.data, (a, b), grad_fn, "add")

    raise GraphError(f"add: incompatible shapes {a.shape} and {b.shape}")


def scale(x: Tensor, s: float) -> Tensor:
    """Multiply by a Python number."""
    s = float(s)

    def grad_fn(g):
        return (g * s,)

    return _result(x.data * s, (x,), grad_fn, "scale")


def row_softmax(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise GraphError(f"row_softmax: expected 2-D input, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def grad_fn(g):
        dot = np.sum(g * y, axis=1, keepdims=True)
        return (y * (g - dot),)

    return _result(y, (x,), grad_fn, "row_softmax")


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Normalize each row to unit length; the norm denominator gets +1e-8."""
    if x.data.ndim != 2:
        raise GraphError(f"l2_normalize_rows: expected 2-D input, got {x.shape}")
    norms = np.sqrt(np.sum(x.data * x.data, axis=1, keepdims=True))
    denom = norms + L2_NORM_EPS
    y = x.data / denom

    def grad_fn(g):
        # y = x / (|x| + eps);  dy/dx = I/(|x|+eps) - x x^T / (|x| (|x|+eps)^2)
        dot = np.sum(g * x.data, axis=1, keepdims=True)
        safe_norms = np.where(norms > 0, norms, 1.0)
        correction = np.where(norms > 0, x.data * dot / (safe_norms * denom * denom), 0.0)
        return (g / denom - correction,)

    return _result(y, (x,), grad_fn, "l2_normalize_rows")


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise GraphError(f"transpose: expected 2-D input, got {x.shape}")

    def grad_fn(g):
        return (g.T,)

    return _result(x.data.T.copy(), (x,), grad_fn, "transpose")


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise GraphError("concat: empty input list")
    nd = tensors[0].data.ndim
    for t in tensors:
        if t.data.ndim != nd:
            raise GraphError("concat: rank mismatch between operands")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return _result(out, tensors, grad_fn, "concat")


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """The im2col lowering of an [N, C, H, W] array: cols [N, Ho*Wo, kh*kw*C] in x's dtype.

    x is padded once into a zeroed channels-last buffer [N, Hp, Wp, C]; one
    strided copy of its read-only window view then writes every receptive
    field as a row, in (kh, kw, C) order. ``conv2d`` checks the geometry.
    """
    n, c, h, wd = x.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, h + 2 * padding, wd + 2 * padding, c), dtype=x.dtype)
    xp[:, padding : padding + h, padding : padding + wd] = x.transpose(0, 2, 3, 1)
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]  # [N, Ho, Wo, C, kh, kw]
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(n, ho * wo, kh * kw * c)


def conv2d(x: Tensor, w: Tensor, b: Tensor, *, stride: int = 1, padding: int = 0,
           cols: np.ndarray | None = None) -> Tensor:
    """2-D convolution (cross-correlation) over [N, C, H, W] plus a per-channel bias b [Cout].

    Lowered to im2col plus flat 2-D GEMMs (Chellapilla et al., 2006). ``im2col``
    pads the input once into a zeroed channels-last buffer and fills ``cols``
    with one strided copy, so each row of ``cols`` [N*Ho*Wo, K] is one
    receptive field with K = kh*kw*C. A caller that already holds the input's
    lowering (a constant input seen again) passes it as ``cols``
    [N, Ho*Wo, K]; it is checked against x and the kernel. The three products
    are each one GEMM:

        out   = cols @ w_mat.T + b  [N*L, Cout], returned as contiguous NCHW
        dW    = g_flat.T @ cols     [Cout, K]
        dcols = g_flat @ w_mat      [N*L, K], scattered back by kh*kw strided adds

    where w_mat is the kernel reordered to [Cout, kh, kw, C] and g_flat the
    output gradient as [N*L, Cout]. When ``x`` does not require a gradient
    (a constant input such as the patch batch), the dcols GEMM and the
    scatter are skipped and its gradient is None.
    """
    if x.data.ndim != 4:
        raise GraphError(f"conv2d: expected 4-D input, got {x.shape}")
    if w.data.ndim != 4:
        raise GraphError(f"conv2d: expected 4-D kernel, got {w.shape}")
    n, c_in, h, wd = x.shape
    c_out, c_in_w, kh, kw = w.shape
    if c_in != c_in_w:
        raise GraphError(f"conv2d: channel mismatch, input {c_in} vs kernel {c_in_w}")
    if b.shape != (c_out,):
        raise GraphError(f"conv2d: bias shape {b.shape} != ({c_out},)")
    if stride < 1 or padding < 0:
        raise GraphError("conv2d: stride must be >= 1 and padding >= 0")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise GraphError(f"conv2d: kernel {kh}x{kw} does not fit input {h}x{wd} (padding={padding})")

    if cols is None:
        cols = im2col(x.data, kh, kw, stride, padding)
    elif cols.shape != (n, ho * wo, kh * kw * c_in) or cols.dtype != x.dtype:
        raise GraphError(f"conv2d: cols {cols.shape} {cols.dtype} is not the lowering of input {x.shape} "
                         f"{x.dtype} for a {kh}x{kw} kernel (stride={stride}, padding={padding})")
    dtype = np.result_type(x.data, w.data, b.data)
    cols = cols.reshape(n * ho * wo, kh * kw * c_in).astype(dtype, copy=False)
    w_mat = w.data.transpose(0, 2, 3, 1).reshape(c_out, -1)
    out = cols @ w_mat.T  # [N*L, Cout]
    out += b.data  # in place: no second [N*L, Cout] array
    out = np.ascontiguousarray(out.reshape(n, ho, wo, c_out).transpose(0, 3, 1, 2))

    def grad_fn(g):
        g_flat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, c_out)
        dw = (g_flat.T @ cols).reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
        dx = None
        if x.requires_grad:
            dcols = (g_flat @ w_mat).reshape(n, ho, wo, kh, kw, c_in)
            dxp = np.zeros((n, h + 2 * padding, wd + 2 * padding, c_in), dtype=dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols[:, :, :, i, j]
            dx = dxp[:, padding : padding + h, padding : padding + wd].transpose(0, 3, 1, 2)
        return dx, dw, g.sum(axis=(0, 2, 3))

    return _result(out, (x, w, b), grad_fn, "conv2d")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def grad_fn(g):
        return (g * mask,)

    return _result(np.maximum(x.data, 0), (x,), grad_fn, "relu")  # a NaN propagates


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x) with the Gaussian CDF."""
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * _INV_SQRT2))

    def grad_fn(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * xd * xd)
        return (g * (cdf + xd * pdf),)

    return _result(xd * cdf, (x,), grad_fn, "gelu")


def mean(x: Tensor, axis: tuple[int, ...] | None = None) -> Tensor:
    out = np.mean(x.data, axis=axis)
    count = x.size if axis is None else int(np.prod([x.shape[a] for a in axis]))

    def grad_fn(g):  # g gets back the reduced axes as size-1 axes, then one read-only view spreads g / count
        g_exp = np.expand_dims(g, () if axis is None else axis).astype(x.data.dtype, copy=False)
        return (np.broadcast_to(g_exp / count, x.shape),)

    return _result(out, (x,), grad_fn, "mean")


def cross_entropy_with_index_targets(logits: Tensor, targets) -> Tensor:
    """Per-row -log softmax(logits)[i, targets[i]]; returns a vector of length N."""
    if logits.data.ndim != 2:
        raise GraphError(f"cross_entropy_with_index_targets: expected 2-D logits, got {logits.shape}")
    idx = np.asarray(targets)
    if idx.ndim != 1 or idx.shape[0] != logits.shape[0]:
        raise GraphError(
            f"cross_entropy_with_index_targets: targets shape {idx.shape} does not match {logits.shape[0]} rows"
        )
    if idx.dtype.kind not in "iu" or np.any(idx < 0) or np.any(idx >= logits.shape[1]):
        raise GraphError("cross_entropy_with_index_targets: targets must index columns of logits")

    ld = logits.data
    m = ld.max(axis=1, keepdims=True)
    shifted = ld - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + m
    rows = np.arange(ld.shape[0])
    losses = lse[:, 0] - ld[rows, idx]

    def grad_fn(g):
        p = np.exp(ld - lse)
        p[rows, idx] -= 1.0
        return (p * g[:, None],)

    return _result(losses, (logits,), grad_fn, "cross_entropy_with_index_targets")


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents before children


def backward(root: Tensor) -> dict[int, np.ndarray]:
    """Reverse-mode pass from a scalar root; returns gradients keyed by node id.

    A gradient may be a read-only view (``mean`` broadcasts its own), so
    nothing writes into one: contributions are summed with ``+``, not ``+=``.
    """
    if root.size != 1:
        raise GraphError(f"backward: root must be scalar, got shape {root.shape}")
    order = _topo_order(root)
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or node.grad_fn is None:
            continue
        parent_grads = node.grad_fn(g)
        for parent, pg in zip(node.parents, parent_grads):
            if not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    return grads


# ---------------------------------------------------------------------------
# parameter sets
# ---------------------------------------------------------------------------


class ParamSet:
    """Named parameter tensors with deterministic iteration order (by name)."""

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise GraphError(f"ParamSet: duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data), requires_grad=True, op=f"param:{name}")
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        for name in self.names():
            yield name, self._params[name]

    def astype(self, dtype) -> "ParamSet":
        clone = ParamSet()
        for name, t in self.items():
            clone.add(name, t.data.astype(dtype))
        return clone


# ---------------------------------------------------------------------------
# evaluation and verification
# ---------------------------------------------------------------------------


def evaluate_with_gradients(
    graph: Callable[[ParamSet, list[Tensor]], Tensor],
    params: ParamSet,
    inputs: Iterable = (),
) -> tuple[Tensor, dict[str, np.ndarray]]:
    """Run ``graph(params, inputs)`` forward, then reverse-mode to every parameter.

    The graph must return a scalar. Every op on a parameter records its
    reverse rule, so a parameter that gets no gradient is unreachable from
    the output (either dead weight or a miswired graph), and this raises.
    """
    input_nodes = [_as_tensor(x) for x in inputs]
    value = graph(params, input_nodes)
    if not isinstance(value, Tensor):
        raise GraphError("evaluate_with_gradients: graph did not return a Tensor")
    if value.size != 1:
        raise GraphError(f"evaluate_with_gradients: loss must be scalar, got shape {value.shape}")

    grads = backward(value)
    out = {name: grads[id(node)] for name, node in params.items() if id(node) in grads}
    missing = [name for name in params.names() if name not in out]
    if missing:
        raise GraphError(f"evaluate_with_gradients: parameters not used by graph: {missing}")
    return value, out


@dataclass
class GradCheckReport:
    """Per-parameter max relative error between reverse-mode and central differences."""

    tol: float
    max_rel_err: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e <= self.tol for e in self.max_rel_err.values())

    @property
    def worst(self) -> float:
        return max(self.max_rel_err.values(), default=0.0)


# Gradient pairs whose common magnitude falls below this floor are treated as
# matching: central differences on an exactly-zero slope produce pure
# cancellation noise around 1e-11, which would otherwise dominate the ratio.
_REL_ERR_FLOOR = 1e-8


def _rel_err(a: float, b: float) -> float:
    scale_ = max(abs(a), abs(b))
    if scale_ < _REL_ERR_FLOOR:
        return 0.0
    return abs(a - b) / scale_


def grad_check(
    graph: Callable[[ParamSet, list[Tensor]], Tensor],
    params: ParamSet,
    inputs: Iterable = (),
    *,
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences in float64."""
    if eps <= 0:
        raise ValueError(f"grad_check: eps must be positive, got {eps}")

    params64 = params.astype(np.float64)
    inputs64 = []
    for x in inputs:
        arr = x.data if isinstance(x, Tensor) else np.asarray(x)
        inputs64.append(arr.astype(np.float64) if arr.dtype.kind == "f" else arr)

    _, analytic = evaluate_with_gradients(graph, params64, inputs64)

    def forward_value() -> float:
        nodes = [_as_tensor(x) for x in inputs64]
        return float(graph(params64, nodes).data.reshape(()))

    report = GradCheckReport(tol=tol)
    for name in params64.names():
        data = params64[name].data
        grad = analytic[name]
        flat = data.reshape(-1)
        gflat = grad.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = forward_value()
            flat[i] = orig - eps
            f_minus = forward_value()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            worst = max(worst, _rel_err(float(gflat[i]), fd))
        report.max_rel_err[name] = worst
    return report
