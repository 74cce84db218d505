"""Patch and spot encoders producing unit-norm embeddings in the joint space.

The patch path is a small stride-2 convolutional stack whose per-block
global-average-pooled features are concatenated (feature reuse across
depths), or an identity pass-through for precomputed features. The spot
path adds learnable per-axis positional encodings to the expression vector,
mixes the batch with multi-head self-attention (Q = K = V), and projects.

Both paths end in the same projection-head shape:
linear -> GELU -> linear -> L2 row normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import ParamSet, Tensor

CONV_KERNEL, CONV_STRIDE, CONV_PADDING = 3, 2, 1  # every conv layer: 3x3 kernel, stride 2, padding 1


@dataclass(frozen=True)
class EncoderConfig:
    hvg_num: int
    d_embed: int = 256
    n_heads: int = 4
    n_positions: int = 256  # positional table rows per axis
    conv_channels: tuple[int, ...] = (16, 32, 64)
    proj_hidden: int = 256
    patch_shape: tuple[int, int, int] | None = None  # (c, h, w) of pixel input
    input_feat_dim: int | None = None  # width of precomputed feature input; exactly one of the two is set
    use_positional: bool = True
    use_mhsa: bool = True
    image_identity: bool = False  # bypass the conv stack, flatten pixels

    def __post_init__(self):
        if self.hvg_num < 1:
            raise ValueError(f"EncoderConfig: hvg_num={self.hvg_num} must be at least 1")
        if self.d_embed <= 0:
            raise ValueError("EncoderConfig: d_embed must be positive")
        if self.proj_hidden < 1:
            raise ValueError(f"EncoderConfig: proj_hidden must be at least 1, got {self.proj_hidden}")
        if self.n_heads <= 0 or self.hvg_num % self.n_heads != 0:
            raise ValueError(
                f"EncoderConfig: hvg_num={self.hvg_num} must be divisible by n_heads={self.n_heads}"
            )
        if (self.patch_shape is None) == (self.input_feat_dim is None):
            raise ValueError("EncoderConfig: exactly one of patch_shape and input_feat_dim must be set")
        if self.image_identity and self.patch_shape is None:
            raise ValueError("EncoderConfig: image_identity flattens pixels, and features input has none")
        if self.convolves and not (self.conv_channels and min(self.conv_channels) >= 1):
            raise ValueError(f"EncoderConfig: conv_channels={list(self.conv_channels)} needs at least "
                             "one layer, each of at least 1 channel")

    @property
    def d_k(self) -> int:
        return self.hvg_num // self.n_heads

    @property
    def convolves(self) -> bool:
        """Whether patch pixels go through the conv stack; features and the identity image path skip it."""
        return self.patch_shape is not None and not self.image_identity

    @property
    def input_shape(self) -> tuple[int, ...]:
        """The shape of one spot's image input: (c, h, w) pixels or (input_feat_dim,) features."""
        return tuple(self.patch_shape) if self.patch_shape is not None else (self.input_feat_dim,)

    @property
    def feat_dim(self) -> int:
        """Width of the patch feature vector entering the image projection head."""
        return int(sum(self.conv_channels)) if self.convolves else math.prod(self.input_shape)


def param_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every learnable tensor's name and shape, in the order init_params draws them."""
    shapes = {}
    if cfg.convolves:
        c_in = cfg.patch_shape[0]
        for i, c_out in enumerate(cfg.conv_channels):
            shapes |= {f"conv.{i}.w": (c_out, c_in, CONV_KERNEL, CONV_KERNEL), f"conv.{i}.b": (c_out,)}
            c_in = c_out
    shapes |= {"img_proj.w1": (cfg.feat_dim, cfg.proj_hidden), "img_proj.b1": (cfg.proj_hidden,),
               "img_proj.w2": (cfg.proj_hidden, cfg.d_embed), "img_proj.b2": (cfg.d_embed,)}
    if cfg.use_positional:
        shapes |= {"pos.wx": (cfg.n_positions, cfg.hvg_num), "pos.wy": (cfg.n_positions, cfg.hvg_num)}
    if cfg.use_mhsa:
        for i in range(cfg.n_heads):
            shapes |= {f"attn.h{i}.{w}": (cfg.hvg_num, cfg.d_k) for w in ("wq", "wk", "wv")}
        shapes["attn.w0"] = (cfg.hvg_num, cfg.hvg_num)
    shapes |= {"spot_proj.w1": (cfg.hvg_num, cfg.proj_hidden), "spot_proj.b1": (cfg.proj_hidden,),
               "spot_proj.w2": (cfg.proj_hidden, cfg.d_embed), "spot_proj.b2": (cfg.d_embed,)}
    return shapes


def init_params(cfg: EncoderConfig, seed: int) -> ParamSet:
    """Create all learnable tensors in param_shapes order from a seeded generator.

    Weights are uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)), the fan-in being a
    kernel's C*kh*kw or a matrix's row count; biases start at zero.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ps = ParamSet()
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 1:
            ps.add(name, np.zeros(shape, dtype=np.float32))
        else:
            bound = 1.0 / math.sqrt(math.prod(shape[1:]) if len(shape) == 4 else shape[0])
            ps.add(name, rng.uniform(-bound, bound, size=shape).astype(np.float32))
    return ps


# ---------------------------------------------------------------------------
# forward graph builders (operate on diffcore tensors)
# ---------------------------------------------------------------------------


def prepare_patch_input(patches_or_features: np.ndarray, cfg: EncoderConfig) -> np.ndarray:
    """Bring raw patch data into the array layout the encoder consumes: flat rows unless the conv stack reads it."""
    arr = np.asarray(patches_or_features)
    if arr.shape[1:] != cfg.input_shape:
        raise dc.GraphError(f"encode_patch: input shape {arr.shape[1:]} != {cfg.input_shape}")
    return arr if cfg.convolves else arr.reshape(arr.shape[0], cfg.feat_dim)


def lower_patches(patches: np.ndarray, cfg: EncoderConfig) -> np.ndarray | None:
    """Layer 0's im2col columns [N, Ho*Wo, K] of a patch array; None when no conv stack reads the input."""
    if not cfg.convolves:
        return None
    return dc.im2col(prepare_patch_input(patches, cfg), CONV_KERNEL, CONV_KERNEL, CONV_STRIDE, CONV_PADDING)


def encode_patch(patch_input: Tensor, params: ParamSet, cfg: EncoderConfig,
                 lowered: np.ndarray | None = None) -> Tensor:
    """Patch pixels -> feature vector; precomputed features pass through unchanged.

    ``lowered``, the input's ``lower_patches`` rows, spares layer 0 its im2col.
    """
    if not cfg.convolves:
        return patch_input  # identity
    x = patch_input
    pooled = []
    for i in range(len(cfg.conv_channels)):
        x = dc.relu(dc.conv2d(x, params[f"conv.{i}.w"], params[f"conv.{i}.b"], stride=CONV_STRIDE,
                              padding=CONV_PADDING, cols=lowered if i == 0 else None))
        pooled.append(dc.mean(x, axis=(2, 3)))
    return dc.concat(pooled, axis=1)


def project(z: Tensor, params: ParamSet, head: str) -> Tensor:
    """linear -> GELU -> linear -> L2 row normalization."""
    h = dc.gelu(dc.add(dc.matmul(z, params[f"{head}.w1"]), params[f"{head}.b1"]))
    h = dc.add(dc.matmul(h, params[f"{head}.w2"]), params[f"{head}.b2"])
    return dc.l2_normalize_rows(h)


def _one_hot(indices: np.ndarray, depth: int, dtype) -> np.ndarray:
    out = np.zeros((indices.shape[0], depth), dtype=dtype)
    out[np.arange(indices.shape[0]), indices] = 1.0
    return out


def positional_encode(coords: np.ndarray, params: ParamSet, cfg: EncoderConfig) -> tuple[Tensor, Tensor]:
    """Row-select the positional tables via one-hot products.

    Mathematically identical to a table lookup; the one-hot matmul keeps the
    gradient path to the tables inside the primitive set.
    """
    coords = np.asarray(coords)
    over = np.flatnonzero((coords[:, 0] >= cfg.n_positions) | (coords[:, 1] >= cfg.n_positions))
    if over.size:
        raise ValueError(
            f"positional_encode: spot {int(over[0])} has coordinate {coords[over[0]].tolist()} "
            f">= table size {cfg.n_positions}"
        )
    wx, wy = params["pos.wx"], params["pos.wy"]
    px = dc.constant(_one_hot(coords[:, 0].astype(np.int64), cfg.n_positions, wx.dtype))
    py = dc.constant(_one_hot(coords[:, 1].astype(np.int64), cfg.n_positions, wy.dtype))
    return dc.matmul(px, wx), dc.matmul(py, wy)


def mhsa(x: Tensor, params: ParamSet, cfg: EncoderConfig) -> Tensor:
    """Multi-head self-attention with Q = K = V = x, concat heads, output map."""
    inv_sqrt_dk = 1.0 / math.sqrt(cfg.d_k)
    heads = []
    for i in range(cfg.n_heads):
        q = dc.matmul(x, params[f"attn.h{i}.wq"])
        k = dc.matmul(x, params[f"attn.h{i}.wk"])
        v = dc.matmul(x, params[f"attn.h{i}.wv"])
        scores = dc.scale(dc.matmul(q, dc.transpose(k)), inv_sqrt_dk)
        heads.append(dc.matmul(dc.row_softmax(scores), v))
    return dc.matmul(dc.concat(heads, axis=1), params["attn.w0"])


def encode_spots(expression: Tensor, coords: np.ndarray, params: ParamSet, cfg: EncoderConfig) -> Tensor:
    """Expression + positional encodings -> MHSA plus its input -> projection; rows unit-norm.

    Without that residual, the spot path cannot be trained at this depth.
    """
    x = expression
    if cfg.use_positional:
        sx, sy = positional_encode(coords, params, cfg)
        x = dc.add(dc.add(x, sx), sy)
    if cfg.use_mhsa:
        x = dc.add(x, mhsa(x, params, cfg))
    return project(x, params, "spot_proj")


def embed_patches(patches: np.ndarray, params: ParamSet, cfg: EncoderConfig) -> np.ndarray:
    """Forward-only patch embeddings as a plain array."""
    node = dc.constant(prepare_patch_input(patches, cfg))
    return project(encode_patch(node, params, cfg), params, "img_proj").data


def embed_spots(expression: np.ndarray, coords: np.ndarray, params: ParamSet, cfg: EncoderConfig) -> np.ndarray:
    """Forward-only spot embeddings as a plain array."""
    return encode_spots(dc.constant(expression), coords, params, cfg).data
