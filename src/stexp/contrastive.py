"""Symmetric contrastive objective over patch/spot pairs and the training loop.

Within a batch of N matched pairs, the similarity matrix between the two
unit-norm embedding sets is divided by the temperature and scored against
the identity label matrix with cross-entropy in both directions; the loss
is the average of the two directions. Matched pairs sit on the diagonal,
the N^2 - N off-diagonal entries are the negatives.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import diffcore as dc
from . import encoders as enc
from .data import Preprocessing, ProcessedDataset, batch_sampler, config_from_json, read_blob, read_json, write_json
from .diffcore import ParamSet, Tensor

log = logging.getLogger(__name__)

ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # moment decay rates, denominator epsilon


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries a diagnostic snapshot dict."""

    def __init__(self, message: str, snapshot: dict):
        super().__init__(message)
        self.snapshot = snapshot


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 40
    learning_rate: float = 1e-3
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("TrainConfig: batch_size must be >= 2")
        if self.epochs < 1:
            raise ValueError("TrainConfig: epochs must be >= 1")
        # written as `not (...)` so that a NaN, which compares False, is rejected too
        if not (0 < self.temperature < math.inf):
            raise ValueError(f"TrainConfig: temperature must be positive and finite, got {self.temperature}")
        if not (0 < self.learning_rate < math.inf):
            raise ValueError(f"TrainConfig: learning_rate must be positive and finite, got {self.learning_rate}")


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def symmetric_ce(sim: Tensor, inv_tau: float) -> Tensor:
    """(CE over rows + CE over columns) / 2 against diagonal targets."""
    n = sim.shape[0]
    targets = np.arange(n)
    logits = dc.scale(sim, inv_tau)
    loss_image = dc.mean(dc.cross_entropy_with_index_targets(logits, targets))
    loss_spot = dc.mean(dc.cross_entropy_with_index_targets(dc.transpose(logits), targets))
    return dc.scale(dc.add(loss_image, loss_spot), 0.5)


def build_loss_graph(
    params: ParamSet,
    patch_input: Tensor,
    expression: Tensor,
    coords: np.ndarray,
    enc_cfg: enc.EncoderConfig,
    train_cfg: TrainConfig,
    lowered: np.ndarray | None = None,
) -> Tensor:
    """Full training graph: both encoders, similarity, symmetric cross-entropy.

    ``lowered`` is the patch batch's ``encoders.lower_patches`` rows, if already built.
    """
    h_patch = enc.project(enc.encode_patch(patch_input, params, enc_cfg, lowered), params, "img_proj")
    h_spot = enc.encode_spots(expression, coords, params, enc_cfg)
    sim = dc.matmul(h_patch, dc.transpose(h_spot))
    return symmetric_ce(sim, 1.0 / train_cfg.temperature)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    params: ParamSet
    encoder_config: enc.EncoderConfig
    train_config: TrainConfig
    preprocess: Preprocessing  # the training data's preprocessing manifest, as transform_slide takes it
    history: list[float]  # mean loss per epoch


def save_checkpoint(ckpt: Checkpoint, directory: str | Path) -> None:
    """Write manifest.json, the settings and loss history, and params.f32, each parameter's <f4 values in name order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "encoder": asdict(ckpt.encoder_config),
        "train": asdict(ckpt.train_config),
        "preprocess": asdict(ckpt.preprocess),
        "loss_history": ckpt.history,
    }
    (directory / "params.f32").write_bytes(b"".join(t.data.astype("<f4").tobytes() for _, t in ckpt.params.items()))
    write_json(directory / "manifest.json", manifest)


def load_checkpoint(directory: str | Path) -> Checkpoint:
    """Read a checkpoint whose parameter layout is the one its encoder settings imply (encoders.param_shapes).

    Each settings section is parsed by config_from_json, so a manifest that lacks a setting, holds one of another
    type, one no config has or a preprocessing transform other than the implemented one is a ValueError naming the
    file and the dotted field. A params.f32 that does not hold exactly the float32 values of that layout is one
    naming params.f32, and so is one holding a NaN or an infinity, which also names the first parameter holding one.
    """
    directory = Path(directory)
    path = directory / "manifest.json"
    manifest = read_json(path, required={"encoder": dict, "train": dict, "preprocess": dict, "loss_history": list})
    enc_cfg = config_from_json(enc.EncoderConfig, manifest["encoder"], f"{path}: field encoder.")
    train_cfg = config_from_json(TrainConfig, manifest["train"], f"{path}: field train.")
    preprocessing = config_from_json(Preprocessing, manifest["preprocess"], f"{path}: field preprocess.")
    layout = sorted(enc.param_shapes(enc_cfg).items())
    ends = np.cumsum([math.prod(shape) for _, shape in layout])
    blob = read_blob(directory / "params.f32", "<f4", (int(ends[-1]),))
    nonfinite = np.flatnonzero(~np.isfinite(blob))
    if nonfinite.size:  # NaN or Inf would only surface later, as NaN predictions or an unrelated error
        name = layout[int(np.searchsorted(ends, nonfinite[0], side="right"))][0]
        raise ValueError(f"{directory / 'params.f32'}: parameter {name} holds {blob[nonfinite[0]]}")
    params = ParamSet()
    for (name, shape), values in zip(layout, np.split(blob, ends[:-1])):
        params.add(name, values.reshape(shape))
    return Checkpoint(params, enc_cfg, train_cfg, preprocessing, manifest["loss_history"])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _epoch_seed(seed: int, slide_index: int, epoch: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(slide_index, epoch)).generate_state(1)[0])


def fit(dataset: ProcessedDataset, train_cfg: TrainConfig, enc_cfg: enc.EncoderConfig) -> Checkpoint:
    """Adam on the symmetric contrastive loss over per-slide batches.

    Deterministic under a fixed seed: parameter init, batch order, and all
    updates derive from train_cfg.seed. Aborts with a diagnostic snapshot if
    the loss leaves the finite range.
    """
    train_slides = dataset.train_slides()
    if not train_slides:
        raise ValueError("fit: dataset has no training slides")
    if dataset.slides[0].gene_num != enc_cfg.hvg_num:
        raise ValueError(
            f"fit: dataset has {dataset.slides[0].gene_num} genes, encoder expects {enc_cfg.hvg_num}"
        )
    too_small = [s.slide_id for s in train_slides if s.spot_num < train_cfg.batch_size]
    if too_small:
        raise ValueError(f"fit: batch_size={train_cfg.batch_size} exceeds spot count of {too_small}")

    params = enc.init_params(enc_cfg, train_cfg.seed)
    # The patches are constant, so layer 0's im2col is built once per slide; each step gathers its rows.
    lowered = [enc.lower_patches(slide.image_input, enc_cfg) for slide in train_slides]
    moments1 = {n: np.zeros_like(t.data) for n, t in params.items()}
    moments2 = {n: np.zeros_like(t.data) for n, t in params.items()}
    step = 0
    history: list[float] = []

    for epoch in range(train_cfg.epochs):
        epoch_losses: list[float] = []
        for slide_index, slide in enumerate(train_slides):
            for batch in batch_sampler(slide, train_cfg.batch_size, _epoch_seed(train_cfg.seed, slide_index, epoch)):
                patch_input = enc.prepare_patch_input(slide.image_input[batch], enc_cfg)
                expression, coords = slide.expression[batch], slide.coords[batch]
                cols = None if lowered[slide_index] is None else lowered[slide_index][batch]

                def graph(p, inputs):
                    return build_loss_graph(p, inputs[0], inputs[1], coords, enc_cfg, train_cfg, cols)

                # A diverging step overflows; the loss check below reports it, not numpy warnings.
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    value, grads = dc.evaluate_with_gradients(graph, params, [patch_input, expression])
                    loss = float(value.data.reshape(()))
                    if not np.isfinite(loss):
                        snapshot = {
                            "epoch": epoch,
                            "step": step,
                            "slide_id": slide.slide_id,
                            "loss": loss,
                            "recent_epoch_losses": history[-5:],
                            "param_norms": {n: float(np.linalg.norm(params[n].data)) for n in params.names()},
                        }
                        raise TrainingDiverged(f"fit: loss became {loss} at epoch {epoch} step {step}", snapshot)

                    step += 1
                    b1, b2 = ADAM_BETA1, ADAM_BETA2
                    for name, g in grads.items():
                        m = moments1[name]
                        v = moments2[name]
                        m += (1.0 - b1) * (g - m)
                        v += (1.0 - b2) * (g * g - v)
                        m_hat = m / (1.0 - b1**step)
                        v_hat = v / (1.0 - b2**step)
                        params[name].data -= train_cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
                epoch_losses.append(loss)
        mean_loss = float(np.mean(epoch_losses))
        history.append(mean_loss)
        log.info("epoch %d/%d mean loss %.6f", epoch + 1, train_cfg.epochs, mean_loss)

    return Checkpoint(params, enc_cfg, train_cfg, dataset.manifest, history)
