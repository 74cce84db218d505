"""Per-layer measurements for the traced run, taken from outside stexp.

The diffcore table walks the graph ``contrastive.build_loss_graph`` returns
through the public ``Tensor.op``, ``parents`` and ``grad_fn`` attributes. Each
node's primitive is called again on the node's own parents to time its
forward pass, and each node's ``grad_fn`` is called on the gradient
``diffcore.backward`` delivered to it to time its backward pass. The library
is neither edited nor patched.

Byte counts are computed from array sizes (they ignore cache misses).
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from stexp import contrastive, data, diffcore as dc, encoders, evaluation, inference

import workloads

TABLE_OPS = (
    "conv2d.l0", "conv2d.l1", "conv2d.l2", "matmul", "add", "concat", "mean", "relu", "gelu",
    "row_softmax", "l2_normalize_rows", "cross_entropy_with_index_targets", "scale", "transpose",
)
REPEATS = 5


def median_ms(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def graph_nodes(root: dc.Tensor) -> list[dc.Tensor]:
    """Every node reachable from root through parents, each once."""
    seen, order, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        order.append(node)
        stack.extend(node.parents)
    return order


def _conv_geometry(node: dc.Tensor) -> tuple[int, int]:
    """(stride, padding) that maps the node's input shape to its output shape."""
    h, ho, kh = node.parents[0].shape[2], node.shape[2], node.parents[1].shape[2]
    for stride in range(1, kh + 1):
        for padding in range(kh):
            if (h + 2 * padding - kh) // stride + 1 == ho:
                return stride, padding
    raise ValueError(f"conv2d node {node.shape}: no stride/padding fits")


def reinvoke(node: dc.Tensor):
    """A zero-argument call that recomputes node from its parents with the public primitive."""
    op, p = node.op, node.parents
    if op == "conv2d":
        stride, padding = _conv_geometry(node)
        return lambda: dc.conv2d(*p, stride=stride, padding=padding)
    if op == "mean":
        axis = None if node.data.ndim == 0 else tuple(range(node.data.ndim, p[0].data.ndim))
        return lambda: dc.mean(p[0], axis=axis)
    if op == "concat":
        axis = next((a for a in range(node.data.ndim) if node.shape[a] != p[0].shape[a]), 1)
        return lambda: dc.concat(p, axis=axis)
    if op == "scale" and len(p) == 1:
        flat_in, flat_out = p[0].data.reshape(-1), node.data.reshape(-1)
        i = int(np.argmax(np.abs(flat_in)))
        factor = float(flat_out[i] / flat_in[i])
        return lambda: dc.scale(p[0], factor)
    if op == "cross_entropy_with_index_targets":
        targets = np.arange(p[0].shape[0])  # the contrastive loss scores the diagonal
        return lambda: dc.cross_entropy_with_index_targets(p[0], targets)
    fn = getattr(dc, op)
    return lambda: fn(*p)


def op_label(node: dc.Tensor) -> str:
    if node.op == "conv2d":
        return "conv2d.l" + node.parents[1].op.split(".")[1]  # weight leaf is "param:conv.<i>.w"
    return node.op


def conv2d_cost(node: dc.Tensor) -> tuple[float, float]:
    """(flops, bytes) of one conv2d forward plus backward, lowered to im2col GEMMs.

    Forward: cols[N*L, K] @ w[K, Cout]. Backward: dW = g^T cols and
    dcols = g w, each the same 2*N*L*K*Cout flops. Bytes count each GEMM's
    operands and result once, plus reading x and writing dx.
    """
    x, w = node.parents[0], node.parents[1]
    n, c_out, ho, wo = node.shape
    lk = ho * wo
    k = int(np.prod(w.shape[1:]))
    item = node.data.itemsize
    cols, weights, out = n * lk * k, c_out * k, n * lk * c_out
    flops = 3 * 2.0 * n * lk * k * c_out
    elements = (cols + weights + out) * 3 + 2 * x.size
    return flops, float(elements * item)


@dataclass
class DiffcoreTable:
    fwd_ms: dict[str, float] = field(default_factory=dict)
    bwd_ms: dict[str, float] = field(default_factory=dict)
    backward_ms: float = 0.0
    step_ms: float = 0.0
    graph_nodes: int = 0
    conv_flops: float = 0.0
    conv_bytes: float = 0.0
    reinvoke_mismatches: list[str] = field(default_factory=list)

    @property
    def share_of_step(self) -> float:
        return (sum(self.fwd_ms.values()) + sum(self.bwd_ms.values())) / self.step_ms


def diffcore_table(checkpoint: contrastive.Checkpoint, slide: data.Slide) -> DiffcoreTable:
    """Per-op forward and backward times of one training step on the slide's first batch."""
    enc_cfg, train_cfg = checkpoint.encoder_config, checkpoint.train_config
    rows = np.arange(train_cfg.batch_size)
    patch_input = encoders.prepare_patch_input(slide.patches[rows], enc_cfg)
    expression, coords = slide.expression[rows], slide.coords[rows]
    params = checkpoint.params

    def graph(p, inputs):
        return contrastive.build_loss_graph(p, inputs[0], inputs[1], coords, enc_cfg, train_cfg)

    table = DiffcoreTable()
    table.step_ms = median_ms(lambda: dc.evaluate_with_gradients(graph, params, [patch_input, expression]))
    root = graph(params, [dc.constant(patch_input), dc.constant(expression)])
    table.backward_ms = median_ms(lambda: dc.backward(root))
    grads = dc.backward(root)
    nodes = graph_nodes(root)
    table.graph_nodes = len(nodes)
    for node in nodes:
        if not node.parents:
            continue
        label = op_label(node)
        call = reinvoke(node)
        if not np.allclose(call().data, node.data, rtol=1e-6, atol=1e-7):
            table.reinvoke_mismatches.append(label)
        table.fwd_ms[label] = table.fwd_ms.get(label, 0.0) + median_ms(call)
        if node.grad_fn is not None and id(node) in grads:
            g = grads[id(node)]
            table.bwd_ms[label] = table.bwd_ms.get(label, 0.0) + median_ms(lambda: node.grad_fn(g))
        if node.op == "conv2d":
            flops, nbytes = conv2d_cost(node)
            table.conv_flops += flops
            table.conv_bytes += nbytes
    return table


def probe(inputs: workloads.ProbeInputs, workdir, timed) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Time each layer's public functions once more on the workload's own state.

    Repeated calls are timed here and reported as medians; single calls go
    through ``timed`` so that they also land in the run's spans. Returns the metrics by name as (value, unit), and the diffcore ops whose
    re-invoked forward pass did not reproduce the graph's value.
    """
    ck, cfg = inputs.checkpoint, inputs.checkpoint.encoder_config
    out: dict[str, tuple[float, str]] = {}

    table = diffcore_table(ck, inputs.train_slide)
    for op in TABLE_OPS:
        out[f"diffcore.{op}.fwd_ms"] = (table.fwd_ms.get(op, 0.0), "ms")
        out[f"diffcore.{op}.bwd_ms"] = (table.bwd_ms.get(op, 0.0), "ms")
    out["diffcore.backward_ms"] = (table.backward_ms, "ms")
    out["diffcore.graph_nodes"] = (float(table.graph_nodes), "count")
    out["diffcore.table_share_of_step_pct"] = (100.0 * table.share_of_step, "%")
    out["diffcore.conv2d.flops_per_step"] = (table.conv_flops, "flop")
    out["diffcore.conv2d.bytes_per_step"] = (table.conv_bytes, "B")
    out["diffcore.conv2d.flops_per_byte"] = (table.conv_flops / table.conv_bytes, "flop/B")
    out["contrastive.step_ms"] = (table.step_ms, "ms")

    batch = np.arange(ck.train_config.batch_size)
    slide = inputs.train_slide
    out["encoders.embed_patches_ms"] = (median_ms(lambda: encoders.embed_patches(
        slide.patches[batch], ck.params, cfg)), "ms")
    out["encoders.embed_spots_ms"] = (median_ms(lambda: encoders.embed_spots(
        slide.expression[batch], slide.coords[batch], ck.params, cfg)), "ms")

    ckpt_dir, index_dir = workdir / "probe_checkpoint", workdir / "probe_index"
    for path in (ckpt_dir, index_dir):
        shutil.rmtree(path, ignore_errors=True)
    contrastive.save_checkpoint(ck, ckpt_dir)
    for _ in range(3):
        with timed("contrastive.load_checkpoint"):
            contrastive.load_checkpoint(ckpt_dir)
    with timed("inference.save_index"):
        inference.save_index(inputs.index, index_dir)
    with timed("inference.load_index"):
        inference.load_index(index_dir)
    with timed("data.transform_slide"):
        data.transform_slide(inputs.raw_slide, inputs.manifest)

    query, k = inputs.query_slide, inputs.k
    predict_ms = median_ms(lambda: inference.predict_slide(ck, inputs.index, query, k), 3)
    embed_ms = median_ms(lambda: workloads.embed_queries(query.patches, ck), 3)
    pred = inference.predict_slide(ck, inputs.index, query, k)
    out["inference.predict_ms_per_query"] = (predict_ms / query.spot_num, "ms")
    out["inference.search_ms_per_query"] = ((predict_ms - embed_ms) / query.spot_num, "ms")
    out["inference.search_share_pct"] = (100.0 * (predict_ms - embed_ms) / predict_ms, "%")
    n, d = inputs.index.embeddings.shape
    out["inference.scan_flops_per_query"] = (2.0 * n * d, "flop")
    out["inference.scan_bytes_per_query"] = (float(inputs.index.embeddings.itemsize * n * d), "B")
    out["inference.scan_flops_per_byte"] = (2.0 / inputs.index.embeddings.itemsize, "flop/B")
    out["inference.index_rows"] = (float(n), "count")
    out["inference.queries"] = (4.0 * query.spot_num, "count")  # predicted by the probe

    out["evaluation.compute_metrics_ms"] = (median_ms(lambda: evaluation.compute_metrics(
        pred, query.expression)), "ms")
    clusters = int(np.unique(query.labels).size)
    components = min(workloads.PCA_COMPONENTS, min(pred.shape))
    out["evaluation.detect_domains_ms"] = (median_ms(lambda: evaluation.detect_domains(
        pred, clusters, components, 0)), "ms")
    _, scores = evaluation.pca(pred, components)
    _, sse = evaluation.kmeans(scores, clusters, 0, with_sse=True)
    out["evaluation.kmeans_iters"] = (float(len(sse)), "count")
    return out, table.reinvoke_mismatches
