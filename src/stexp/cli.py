"""Command-line surface: one JSON config, flag overrides, reproducible outputs.

Every artifact-writing command materializes into a temporary sibling
directory and renames it into place on success, writes a resolved-config
echo, and is byte-reproducible under a fixed seed.

Exit codes: 0 success, 1 validation/configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import shutil
import sys
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import diffcore as dc
from . import evaluation as ev
from . import inference
from .contrastive import (
    TrainConfig,
    TrainingDiverged,
    build_loss_graph,
    fit,
    load_checkpoint,
    save_checkpoint,
)
from .data import (
    GenConfig,
    config_from_json,
    field_hints,
    json_type_ok,
    load_dataset,
    load_slide,
    preprocess,
    read_blob,
    read_json,
    synth_generate,
    transform_slide,
    type_mismatch,
    write_json,
)
from .encoders import EncoderConfig, init_params

log = logging.getLogger(__name__)

# {ablation toggle: the EncoderConfig fields it replaces}
ABLATION_TOGGLES = {
    "no_positional_encoding": {"use_positional": False},
    "no_mhsa": {"use_mhsa": False},
    "no_image_path": {"image_identity": True},
}


class ValidationError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage text + exit 1, not argparse's default 2
        raise ValidationError(f"{message}\n{self.format_usage()}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


# The config dataclass behind each section, with the fields that no key sets:
# the encoder's input fields and hvg_num come from the data, the seed is the
# top-level key.
_DATACLASS_SECTIONS = {
    "data": (GenConfig, ()),
    "encoder": (EncoderConfig, ("hvg_num", "input_kind", "patch_shape", "input_feat_dim")),
    "train": (TrainConfig, ("seed",)),
}

# Keys that no dataclass field holds: {dotted key: (type, default)}.
_OTHER_KEYS = {
    "seed": (int, TrainConfig.seed),
    "data.hvg_num": (int, 64),
    "inference.k": (int, 50),
    "eval.pca_components": (int, 20),
    "eval.clusters": (int | None, None),
}


class ConfigKey(NamedTuple):
    """One accepted config key: its type annotation, its default as JSON, and the dataclass field it sets, if any."""

    hint: object
    default: object
    owner: type | None = None
    field: str | None = None


def _schema() -> dict[str, ConfigKey]:
    schema = {dotted: ConfigKey(hint, default) for dotted, (hint, default) in _OTHER_KEYS.items()}
    for section, (cls, derived) in _DATACLASS_SECTIONS.items():
        hints = field_hints(cls)
        for f in dataclasses.fields(cls):
            if f.name not in derived:
                default = list(f.default) if isinstance(f.default, tuple) else f.default
                schema[f"{section}.{f.metadata.get('cli', f.name)}"] = ConfigKey(hints[f.name], default, cls, f.name)
    return schema


SCHEMA = _schema()  # {dotted key: ConfigKey}, every key --config and --set accept
_SECTIONS = {dotted.rpartition(".")[0] for dotted in SCHEMA} - {""}


def _slot(config: dict, dotted: str) -> tuple[dict, str]:
    """The section of `config` that holds `dotted`, and the key's name within it."""
    *sections, name = dotted.split(".")
    for section in sections:
        config = config.setdefault(section, {})
    return config, name


def default_config() -> dict:
    config: dict = {}
    for dotted, key in SCHEMA.items():
        node, name = _slot(config, dotted)
        node[name] = key.default
    return config


def _assign(config: dict, dotted: str, value) -> None:
    key = SCHEMA.get(dotted)
    if key is None:
        raise ValidationError(f"unknown config key: {dotted}")
    if not json_type_ok(value, key.hint):
        raise ValidationError(type_mismatch(f"config key {dotted}", value, key.hint))
    node, name = _slot(config, dotted)
    node[name] = value


def _leaves(tree: dict, prefix: str = ""):
    """(dotted key, value) for every entry of a config file; a dict is descended into only as a section."""
    for name, value in tree.items():
        dotted = prefix + name
        if isinstance(value, dict) and dotted in _SECTIONS:
            yield from _leaves(value, dotted + ".")
        else:
            yield dotted, value


def resolve_config(args) -> dict:
    """defaults < --config file < --set overrides < --seed flag.

    Every key is checked against SCHEMA, name and type, before any work starts.
    """
    config = default_config()
    if getattr(args, "config", None):
        tree = read_json(args.config)
        if not isinstance(tree, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object")
        for dotted, value in _leaves(tree):
            _assign(config, dotted, value)
    for assignment in getattr(args, "set", None) or []:
        if "=" not in assignment:
            raise ValidationError(f"--set expects section.key=value, got {assignment!r}")
        dotted, raw = assignment.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _assign(config, dotted, value)
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    if config["seed"] < 0:
        raise ValidationError(f"config key seed={config['seed']} must be non-negative")
    return config


def config_object(config: dict, cls, **derived):
    """The `cls` instance that `config` sets up; `derived` fills the fields no key sets."""
    values = {}
    for dotted, key in SCHEMA.items():
        if key.owner is cls:
            node, name = _slot(config, dotted)
            values[key.field] = node[name]
    section = next(name for name, (owner, _) in _DATACLASS_SECTIONS.items() if owner is cls)
    return config_from_json(cls, values, f"config key {section}.", **derived)


def _encoder_config(config: dict, slides) -> EncoderConfig:
    """The encoder keys plus hvg_num and the input fields, which the data decides; checked against its coordinates."""
    sample = slides[0]
    if sample.patches is not None:
        inputs = {"input_kind": "pixels", "patch_shape": sample.patches.shape[1:], "input_feat_dim": None}
    else:
        inputs = {"input_kind": "features", "patch_shape": None, "input_feat_dim": sample.features.shape[1]}
    enc_cfg = config_object(config, EncoderConfig, hvg_num=config["data"]["hvg_num"], **inputs)
    coord_max = max(int(s.coords.max()) for s in slides)
    if enc_cfg.use_positional and enc_cfg.n_positions <= coord_max:
        raise ValidationError(f"config key encoder.n_positions={enc_cfg.n_positions} must exceed "
                              f"the largest slide coordinate, {coord_max}")
    return enc_cfg


# ---------------------------------------------------------------------------
# output handling
# ---------------------------------------------------------------------------


def check_out_dir(out: str | Path) -> None:
    """Refuse an output directory that already has contents."""
    out = Path(out)
    if out.exists() and any(out.iterdir()):
        raise ValidationError(f"output directory {out} already exists and is not empty")


@contextmanager
def atomic_out_dir(out: str | Path, config: dict):
    """Yield a staging directory, holding the resolved `config`'s echo, that is renamed to `out` only on success."""
    out = Path(out)
    check_out_dir(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = out.parent / f".tmp-{out.name}-{uuid.uuid4().hex[:8]}"
    staging.mkdir()
    try:
        write_json(staging / "config.resolved.json", config)
        yield staging
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if out.exists():
        out.rmdir()
    os.replace(staging, out)


def _write_divergence_snapshot(out: str | Path, snapshot: dict) -> Path:
    """Write a diverged run's snapshot to <out>.failed/divergence.json; returns that path."""
    path = Path(f"{out}.failed") / "divergence.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, snapshot)
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args, config) -> int:
    gen_cfg = config_object(config, GenConfig)
    with atomic_out_dir(args.out, config) as staging:
        synth_generate(gen_cfg, config["seed"], staging)
    print(f"wrote dataset to {args.out}")
    return 0


def _prepare_training(args, config):
    slides = load_dataset(args.data)
    ids = [s.slide_id for s in slides]
    if args.holdout is not None and args.holdout not in ids:
        raise ValidationError(f"--holdout {args.holdout!r} is not a slide of {args.data}")
    train_ids = [i for i in ids if i != args.holdout]
    enc_cfg = _encoder_config(config, slides)
    dataset = preprocess(slides, hvg_num=config["data"]["hvg_num"], train_ids=train_ids)
    return dataset, enc_cfg


def cmd_train(args, config) -> int:
    train_cfg = config_object(config, TrainConfig, seed=config["seed"])
    dataset, enc_cfg = _prepare_training(args, config)
    checkpoint = fit(dataset, train_cfg, enc_cfg)
    with atomic_out_dir(args.out, config) as staging:
        save_checkpoint(checkpoint, staging)
        ev.write_tsv(staging / "loss_curve.tsv", ("epoch", "mean_loss"),
                     [(i, f"{loss:.6f}") for i, loss in enumerate(checkpoint.history)])
    print(f"trained {checkpoint.train_config.epochs} epochs, final loss "
          f"{checkpoint.history[-1]:.6f}; checkpoint at {args.out}")
    return 0


def cmd_embed(args, config) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    slides = load_dataset(args.data)
    train_ids = set(checkpoint.preprocess["train_ids"])
    missing = sorted(train_ids - {s.slide_id for s in slides})
    if missing:  # the index holds every training spot
        raise ValidationError(f"embed: --data {args.data} lacks the checkpoint's training slides {missing}")
    train_slides = [transform_slide(s, checkpoint.preprocess) for s in slides if s.slide_id in train_ids]
    index = inference.build_index(checkpoint, train_slides)
    with atomic_out_dir(args.out, config) as staging:
        inference.save_index(index, staging)
    print(f"indexed {index.size} spots from {len(train_slides)} slides at {args.out}")
    return 0


def cmd_predict(args, config) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    index = inference.load_index(args.index)
    raw = load_slide(args.slide)
    slide = transform_slide(raw, checkpoint.preprocess)
    k = config["inference"]["k"]
    pred = inference.predict_slide(checkpoint, index, slide, k)
    with atomic_out_dir(args.out, config) as staging:
        pred.astype("<f4").tofile(staging / "expression.f32")
        meta = {
            "slide_id": slide.slide_id,
            "spot_num": slide.spot_num,
            "gene_num": pred.shape[1],
            "gene_names": slide.gene_names,
            "coord_max": slide.coord_max,
            "predicted": True,
            "k": k,
        }
        write_json(staging / "meta.json", meta)
    print(f"predicted {slide.spot_num} spots x {pred.shape[1]} genes at {args.out}")
    return 0


def cmd_eval(args, config) -> int:
    e = config["eval"]
    if e["clusters"] is not None and e["clusters"] < 1:
        raise ValidationError(f"config key eval.clusters={e['clusters']} must be null or at least 1")
    if e["pca_components"] < 1:
        raise ValidationError(f"config key eval.pca_components={e['pca_components']} must be at least 1")
    checkpoint = load_checkpoint(args.checkpoint)
    meta = read_json(Path(args.pred) / "meta.json",
                     required={"slide_id": str, "spot_num": int, "gene_num": int, "gene_names": tuple[str, ...]})
    pred = read_blob(Path(args.pred) / "expression.f32", "<f4", (meta["spot_num"], meta["gene_num"]))
    raw = load_slide(args.slide)
    slide = transform_slide(raw, checkpoint.preprocess)
    for key in ("slide_id", "gene_names"):
        if meta[key] != getattr(slide, key):
            raise ValidationError(f"eval: prediction {args.pred} has {key} {meta[key]!r}, "
                                  f"--slide {args.slide} has {getattr(slide, key)!r}")
    if slide.spot_num != pred.shape[0] or slide.gene_num != pred.shape[1]:
        raise ValidationError(
            f"eval: prediction {pred.shape} does not match processed slide "
            f"[{slide.spot_num}, {slide.gene_num}]"
        )
    if slide.labels is not None and e["clusters"] is not None and e["clusters"] > slide.spot_num:
        raise ValidationError(f"config key eval.clusters={e['clusters']} exceeds the {slide.spot_num} spots "
                              f"that preprocessing keeps of --slide {args.slide}")
    record = ev.compute_metrics(pred, slide.expression, slide_id=slide.slide_id,
                                gene_names=slide.gene_names)
    summary = {"slide_id": slide.slide_id, "pcc_acg": record.pcc_acg, "pcc_heg": record.pcc_heg,
               "mse": record.mse, "mae": record.mae}
    with atomic_out_dir(args.out, config) as staging:
        ev.write_metrics_tsv(staging / "metrics.tsv", "slide_id", [(record.slide_id, record)])
        ev.write_per_gene_tsv(record, staging / "per_gene.tsv")
        if slide.labels is not None:
            clusters = int(np.unique(slide.labels).size) if e["clusters"] is None else e["clusters"]
            labels = ev.detect_domains(pred, clusters, e["pca_components"], config["seed"])
            ev.write_labels_tsv(labels, staging / "labels.tsv", truth=slide.labels)
            summary["ari"] = ev.ari(labels, slide.labels)
        write_json(staging / "summary.json", summary)
    print(f"pcc_acg={record.pcc_acg:.4f} pcc_heg={record.pcc_heg:.4f} "
          f"mse={record.mse:.4f} mae={record.mae:.4f}"
          + (f" ari={summary['ari']:.4f}" if "ari" in summary else ""))
    return 0


def cmd_loocv(args, config) -> int:
    train_cfg, k = config_object(config, TrainConfig, seed=config["seed"]), config["inference"]["k"]
    slides = load_dataset(args.data)
    records = ev.loocv(slides, hvg_num=config["data"]["hvg_num"], train_cfg=train_cfg,
                       enc_cfg=_encoder_config(config, slides), ks=(k,))[k]
    with atomic_out_dir(args.out, config) as staging:
        ev.write_metrics_tsv(staging / "metrics.tsv", "slide_id", [(r.slide_id, r) for r in records])
        for record in records[:-1]:
            ev.write_per_gene_tsv(record, staging / f"per_gene_{record.slide_id}.tsv")
    mean = records[-1]
    print(f"loocv mean: pcc_acg={mean.pcc_acg:.4f} pcc_heg={mean.pcc_heg:.4f} "
          f"mse={mean.mse:.4f} mae={mean.mae:.4f}")
    return 0


def _flag_values(flag: str, raw: str | None, parse) -> list:
    """The comma-separated values of `flag`, each through `parse`; a malformed or repeated one exits 1."""
    values = []
    for item in raw.split(",") if raw else []:
        try:
            value = parse(item)
        except ValueError:
            raise ValidationError(f"{flag}: invalid value {item!r} in {raw!r}") from None
        if value in values:
            raise ValidationError(f"{flag}: value {item!r} repeated in {raw!r}")
        values.append(value)
    return values


def cmd_ablate(args, config) -> int:
    toggles = _flag_values("--toggles", args.toggles, str)
    k_values = _flag_values("--k-sweep", args.k_sweep, int)
    if not toggles and not k_values:
        raise ValidationError("ablate: empty toggle set (pass --toggles and/or --k-sweep)")
    for toggle in toggles:
        if toggle not in ABLATION_TOGGLES:
            raise ValidationError(f"--toggles: unknown toggle {toggle!r} (choose from {tuple(ABLATION_TOGGLES)})")
    train_cfg = config_object(config, TrainConfig, seed=config["seed"])
    slides = load_dataset(args.data)
    enc_cfg, k = _encoder_config(config, slides), config["inference"]["k"]
    variants = [("full", enc_cfg, (k, *k_values))]  # one LOOCV per model; the k= rows score full's folds
    variants += [(toggle, dataclasses.replace(enc_cfg, **ABLATION_TOGGLES[toggle]), (k,)) for toggle in toggles]

    results = {}
    for name, variant_cfg, ks in variants:
        log.info("ablation variant %s", name)
        results[name] = ev.loocv(slides, hvg_num=config["data"]["hvg_num"], train_cfg=train_cfg,
                                 enc_cfg=variant_cfg, ks=ks)
    rows = [(name, records[k][-1]) for name, records in results.items()]
    rows += [(f"k={k_value}", results["full"][k_value][-1]) for k_value in k_values]
    with atomic_out_dir(args.out, config) as staging:
        ev.write_metrics_tsv(staging / "ablation.tsv", "variant", rows)
    for name, m in rows:
        print(f"{name}: pcc_acg={m.pcc_acg:.4f}")
    return 0


# grad-check runs on a reduced model: exhaustive central differences on the
# full-size default would need millions of forward passes.
GRAD_CHECK_ENCODER = EncoderConfig(
    hvg_num=8, d_embed=8, n_heads=2, n_positions=16,
    conv_channels=(4,), proj_hidden=8, patch_shape=(3, 8, 8),
)


def _primitive_check_graphs(rng):
    yield "matmul", lambda p, i: dc.mean(dc.matmul(p["a"], p["b"])), {
        "a": rng.standard_normal((3, 4)), "b": rng.standard_normal((4, 2))}
    yield "add", lambda p, i: dc.mean(dc.add(p["a"], p["b"])), {
        "a": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}
    yield "scale", lambda p, i: dc.mean(dc.scale(p["a"], -1.7)), {"a": rng.standard_normal((2, 5))}
    yield "row_softmax", lambda p, i: dc.mean(dc.matmul(dc.row_softmax(p["x"]), p["r"])), {
        "x": rng.standard_normal((4, 6)), "r": rng.standard_normal((6, 3))}
    yield "l2_normalize_rows", lambda p, i: dc.mean(dc.matmul(dc.l2_normalize_rows(p["x"]), p["r"])), {
        "x": rng.standard_normal((4, 5)) + 0.5, "r": rng.standard_normal((5, 2))}
    yield "transpose", lambda p, i: dc.mean(dc.matmul(dc.transpose(p["x"]), p["y"])), {
        "x": rng.standard_normal((3, 4)), "y": rng.standard_normal((3, 2))}
    yield "concat", lambda p, i: dc.mean(dc.gelu(dc.concat([p["a"], p["b"]], axis=1))), {
        "a": rng.standard_normal((3, 2)), "b": rng.standard_normal((3, 4))}
    yield "conv2d", lambda p, i: dc.mean(dc.conv2d(p["x"], p["w"], p["b"], stride=2, padding=1)), {
        "x": rng.standard_normal((2, 3, 6, 6)), "w": rng.standard_normal((4, 3, 3, 3)) * 0.5,
        "b": rng.standard_normal(4) * 0.1}
    yield "conv2d_s1p0_2x3", lambda p, i: dc.mean(dc.gelu(dc.conv2d(p["x"], p["w"], p["b"]))), {
        "x": rng.standard_normal((2, 2, 5, 7)), "w": rng.standard_normal((3, 2, 2, 3)) * 0.5,
        "b": rng.standard_normal(3) * 0.1}
    relu_x = rng.standard_normal((4, 4))
    relu_x[np.abs(relu_x) < 0.05] += 0.1
    yield "relu", lambda p, i: dc.mean(dc.relu(p["x"])), {"x": relu_x}
    yield "gelu", lambda p, i: dc.mean(dc.gelu(p["x"])), {"x": rng.standard_normal((4, 4))}
    yield "mean", lambda p, i: dc.mean(dc.gelu(dc.mean(p["x"], axis=(2, 3)))), {
        "x": rng.standard_normal((2, 3, 4, 4))}
    yield "cross_entropy_with_index_targets", lambda p, i: dc.mean(
        dc.cross_entropy_with_index_targets(p["l"], np.arange(4))), {
        "l": rng.standard_normal((4, 4))}


def run_gradient_suite(eps: float, tol: float, seed: int = 0):
    """Check every primitive plus the full 4-pair loss graph; returns (lines, all_passed)."""
    rng = np.random.default_rng(seed)
    lines = []
    all_passed = True
    for name, graph, arrays in _primitive_check_graphs(rng):
        params = dc.ParamSet()
        for pname, arr in arrays.items():
            params.add(pname, arr)
        report = dc.grad_check(graph, params, eps=eps, tol=tol)
        all_passed &= report.passed
        lines.append(f"{name}: max_rel_err={report.worst:.3e} {'pass' if report.passed else 'FAIL'}")

    cfg = GRAD_CHECK_ENCODER
    tcfg = TrainConfig(batch_size=4, epochs=1, temperature=0.5, seed=seed)
    params = init_params(cfg, seed=seed).astype(np.float64)
    patches = rng.random((4, 3, 8, 8))
    expr = rng.uniform(0.0, 4.0, (4, 8))
    coords = rng.integers(0, cfg.n_positions, (4, 2)).astype(np.uint32)

    def graph(p, inputs):
        return build_loss_graph(p, inputs[0], inputs[1], coords, cfg, tcfg)

    report = dc.grad_check(graph, params, [patches, expr], eps=eps, tol=tol)
    all_passed &= report.passed
    lines.append(f"full_loss_graph: max_rel_err={report.worst:.3e} {'pass' if report.passed else 'FAIL'}")
    return lines, all_passed


def cmd_grad_check(args, config) -> int:
    lines, passed = run_gradient_suite(args.eps, args.tol, seed=config["seed"])
    for line in lines:
        print(line)
    if args.out:
        with atomic_out_dir(args.out, config) as staging:
            (staging / "grad_check.txt").write_text("\n".join(lines) + "\n")
    print("gradient suite:", "pass" if passed else "FAIL")
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stexp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry, e.g. train.epochs=10")
        p.add_argument("--seed", type=int, help="global seed (wins over config)")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a checkpoint on a dataset")
    common(p)
    p.add_argument("--data", required=True, help="dataset root directory")
    p.add_argument("--holdout", help="slide id to exclude from training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="build a retrieval index from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("predict", help="predict expression for one slide")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--slide", required=True, help="slide directory to predict")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score a prediction against observations")
    common(p)
    p.add_argument("--pred", required=True, help="directory written by predict")
    p.add_argument("--slide", required=True, help="observed slide directory")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("loocv", help="leave-one-out cross-validation")
    common(p)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_loocv)

    p = sub.add_parser("ablate", help="run ablation variants side by side")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--toggles", help=f"comma-separated subset of {tuple(ABLATION_TOGGLES)}")
    p.add_argument("--k-sweep", dest="k_sweep", help="comma-separated k values")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("grad-check", help="finite-difference gradient suite")
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="optional report directory")
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out is not None:  # before any load, training or prediction starts
            check_out_dir(args.out)
        return args.func(args, resolve_config(args))
    except ValueError as e:  # ValidationError, DataFormatError and other bad input
        print(f"error: {e}", file=sys.stderr)
        return 1
    except TrainingDiverged as e:  # train, loocv and ablate: keep the evidence beside --out
        path = _write_divergence_snapshot(args.out, e.snapshot)
        print(f"runtime failure: {e}; snapshot written to {path}", file=sys.stderr)
        return 2
    except Exception as e:  # other runtime failures
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
