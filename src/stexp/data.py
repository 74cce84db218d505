"""Dataset model, on-disk format, preprocessing, and the synthetic generator.

On-disk layout, one directory per slide:

    meta.json        slide_id, spot_num, gene_num, gene_names[], coord_max,
                     patch {c,h,w} or feat_dim, has_labels
    expression.f32   row-major spot_num x gene_num, little-endian float32
    coords.u32       spot_num x 2, little-endian uint32
    patches.f32      spot_num x c x h x w  (exactly one of patches/features)
    features.f32     spot_num x feat_dim
    labels.u16       optional spot_num, little-endian uint16

All shapes are authoritative from meta.json. Every artifact is read through
read_blob and read_json, which reject a missing file, a blob whose byte size
differs from its declared shape, unparsable JSON, or JSON without a key its
reader requires or with one that json_type_ok rejects, naming the file.
config_from_json applies the same rule to settings and requires each one: a
dataclass default fills none on read. NaN or Inf in any array, negative
counts, a slide_id that is no plain file name and a gene name holding a tab
or line break are rejected when a Slide is made, naming the field. Every
indented .json artifact is written by write_json, as strict JSON.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import reprlib
import types
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

TARGET_LIBRARY_SIZE = 1e4  # per-spot count sum before log1p


class DataFormatError(ValueError):
    """Raised when a slide directory or configuration violates the format."""


# A slide id names output files (per_gene_<slide_id>.tsv) and, like a gene name, fills .tsv cells.
_TSV_BREAKS = frozenset("\t\r\n")
_ID_BREAKS = _TSV_BREAKS | frozenset("/\\\0")


# ---------------------------------------------------------------------------
# slide model
# ---------------------------------------------------------------------------


@dataclass
class Slide:
    """One tissue section: expression, integer spot coordinates, and pixels or features."""

    slide_id: str
    expression: np.ndarray  # [spot_num, gene_num] float32
    coords: np.ndarray  # [spot_num, 2] uint32
    coord_max: int
    gene_names: list[str]
    patches: np.ndarray | None = None  # [spot_num, c, h, w] float32
    features: np.ndarray | None = None  # [spot_num, feat_dim] float32
    labels: np.ndarray | None = None  # [spot_num] uint16

    @property
    def spot_num(self) -> int:
        return self.expression.shape[0]

    @property
    def gene_num(self) -> int:
        return self.expression.shape[1]

    @property
    def image_input(self) -> np.ndarray:
        """The patches, or the precomputed features of a slide without them."""
        return self.patches if self.patches is not None else self.features

    def __post_init__(self):
        if self.slide_id in ("", ".", "..") or not _ID_BREAKS.isdisjoint(self.slide_id):
            raise DataFormatError(f"field slide_id={self.slide_id!r} must be a plain file name: not empty, '.' or "
                                  "'..', and without /, \\, NUL, tab, CR or LF")
        for i, name in enumerate(self.gene_names):
            if not _TSV_BREAKS.isdisjoint(name):
                raise DataFormatError(f"{self.slide_id}: field gene_names.{i}={name!r} holds a tab, CR or LF")
        if self.expression.ndim != 2 or self.expression.shape[0] < 1:
            raise DataFormatError(f"{self.slide_id}: expression must be [spot_num >= 1, gene_num]")
        n = self.spot_num
        if (self.patches is None) == (self.features is None):
            raise DataFormatError(f"{self.slide_id}: exactly one of patches/features must be present")
        if self.coords.shape != (n, 2):
            raise DataFormatError(f"{self.slide_id}: coords shape {self.coords.shape} != ({n}, 2)")
        if np.any(self.coords >= self.coord_max):
            raise DataFormatError(f"{self.slide_id}: coords contain entries >= coord_max={self.coord_max}")
        if len(self.gene_names) != self.gene_num:
            raise DataFormatError(f"{self.slide_id}: gene_names length != gene_num")
        if not np.all(np.isfinite(self.expression)):
            raise DataFormatError(f"{self.slide_id}: expression contains NaN/Inf")
        if np.any(self.expression < 0):
            raise DataFormatError(f"{self.slide_id}: expression contains negative counts")
        if self.patches is not None:
            if self.patches.ndim != 4 or self.patches.shape[0] != n:
                raise DataFormatError(f"{self.slide_id}: patches shape {self.patches.shape} inconsistent")
            if not np.all(np.isfinite(self.patches)):
                raise DataFormatError(f"{self.slide_id}: patches contain NaN/Inf")
        if self.features is not None:
            if self.features.ndim != 2 or self.features.shape[0] != n:
                raise DataFormatError(f"{self.slide_id}: features shape {self.features.shape} inconsistent")
            if not np.all(np.isfinite(self.features)):
                raise DataFormatError(f"{self.slide_id}: features contain NaN/Inf")
        if self.labels is not None and self.labels.shape != (n,):
            raise DataFormatError(f"{self.slide_id}: labels shape {self.labels.shape} != ({n},)")


def read_blob(path: str | Path, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """A blob as an array of `shape`, after checking that the file exists and holds exactly that many bytes."""
    path, dtype = Path(path), np.dtype(dtype)
    if not path.is_file():
        raise DataFormatError(f"missing file: {path}")
    size, expected = path.stat().st_size, int(np.prod(shape)) * dtype.itemsize
    if size != expected:
        raise DataFormatError(f"{path} is {size} bytes, but {list(shape)} {dtype.name} needs {expected}")
    return np.fromfile(path, dtype=dtype).reshape(shape)


def json_type_ok(value, hint) -> bool:
    """JSON value against a field annotation: bools are only bools, ints are no floats, a tuple is a list."""
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(hint, types.UnionType):
        return any(json_type_ok(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, list):
            return False
        if args[-1] is Ellipsis:
            return all(json_type_ok(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(json_type_ok, value, args))
    return isinstance(value, hint)  # str, bool, list, dict or NoneType


# Shortens a value an error message shows to about 100 characters: a manifest section can run to kilobytes.
_SHORT = reprlib.Repr()
_SHORT.maxlevel, _SHORT.maxdict, _SHORT.maxlist = 1, 2, 4
_SHORT.maxstring = _SHORT.maxother = _SHORT.maxlong = 20


def type_mismatch(what: str, value, hint) -> str:
    """The message for a JSON `value` of `what` that json_type_ok finds does not fit the annotation `hint`."""
    return f"{what} expects {hint.__name__ if isinstance(hint, type) else hint}, got {_SHORT.repr(value)}"


field_hints = functools.cache(typing.get_type_hints)  # {field: annotation} of a dataclass; resolving is slow


def config_from_json(cls, values: dict, where: str, **derived):
    """A `cls` from JSON `values`, every field but the `derived` ones no JSON holds, each checked by json_type_ok.

    An error names the field as `where` + its name, and a value `cls` itself refuses is reported after `where`
    (its trailing dot dropped). A list fits only a tuple field, so each becomes a tuple.
    """
    hints = field_hints(cls)
    for name, value in values.items():
        if name not in hints:
            raise DataFormatError(f"{where}{name} is not a {cls.__name__} field")
        if not json_type_ok(value, hints[name]):
            raise DataFormatError(type_mismatch(f"{where}{name}", value, hints[name]))
    for name in hints:
        if name not in values and name not in derived:
            raise DataFormatError(f"{where}{name} is missing")
    try:
        return cls(**{name: tuple(v) if isinstance(v, list) else v for name, v in values.items()}, **derived)
    except ValueError as e:  # a value the class's own check refuses, such as a count out of range
        raise DataFormatError(f"{where.rstrip('. ')}: {e}") from None


def read_json(path: str | Path, required: dict | None = None):
    """A JSON file's value; a missing or unparsable file, or a `required` key ({key: annotation}) that is missing or
    of another type, is a DataFormatError that names the file. A key whose annotation admits null may be absent."""
    try:
        value = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DataFormatError(f"missing file: {path}") from None
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise DataFormatError(f"{path} is not valid JSON: {e}") from None
    for key, hint in (required or {}).items():
        if not isinstance(value, dict) or (key not in value and not json_type_ok(None, hint)):
            raise DataFormatError(f"{path}: missing key {key!r}")
        if not json_type_ok(value.get(key), hint):
            raise DataFormatError(type_mismatch(f"{path}: field {key}", value.get(key), hint))
    return value


def require_object(value, dotted: str, keys: dict, path: str | Path) -> None:
    """Refuse a JSON field `dotted` of `path` that is not an object holding each of `keys` with its annotation."""
    if not isinstance(value, dict):
        raise DataFormatError(f"{path}: field {dotted} is a {type(value).__name__}, not an object")
    for key, hint in keys.items():
        if key not in value:
            raise DataFormatError(f"{path}: missing key {dotted}.{key}")
        if not json_type_ok(value[key], hint):
            raise DataFormatError(type_mismatch(f"{path}: field {dotted}.{key}", value[key], hint))


def _strict_json(value):
    """Non-finite floats as the strings "nan", "inf" and "-inf", which strict JSON can hold."""
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def write_json(path: str | Path, value) -> None:
    """Write `value` in the strict, sorted, one-space-indented form of the .json artifacts, newline-terminated."""
    Path(path).write_text(json.dumps(_strict_json(value), sort_keys=True, indent=1, allow_nan=False) + "\n")


def load_slide(directory: str | Path) -> Slide:
    """Load and validate one slide directory; little-endian byte order enforced."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    meta = read_json(meta_path, required={"slide_id": str, "spot_num": int, "gene_num": int,
                                          "gene_names": tuple[str, ...], "coord_max": int,
                                          "feat_dim": int | None, "has_labels": bool | None})
    n, g = meta["spot_num"], meta["gene_num"]
    expression = read_blob(directory / "expression.f32", "<f4", (n, g))
    coords = read_blob(directory / "coords.u32", "<u4", (n, 2))
    patches = features = labels = None
    if "patch" in meta:
        p = meta["patch"]
        require_object(p, "patch", {"c": int, "h": int, "w": int}, meta_path)
        patches = read_blob(directory / "patches.f32", "<f4", (n, p["c"], p["h"], p["w"]))
    elif meta.get("feat_dim") is not None:
        features = read_blob(directory / "features.f32", "<f4", (n, meta["feat_dim"]))
    else:
        raise DataFormatError(f"{meta_path}: neither patch nor feat_dim declared")
    if meta.get("has_labels"):
        labels = read_blob(directory / "labels.u16", "<u2", (n,))
    return Slide(
        slide_id=meta["slide_id"],
        expression=expression,
        coords=coords,
        coord_max=meta["coord_max"],
        gene_names=meta["gene_names"],
        patches=patches,
        features=features,
        labels=labels,
    )


def save_slide(slide: Slide, directory: str | Path) -> None:
    """Write a slide in the bit-exact binary format."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta: dict = {
        "slide_id": slide.slide_id,
        "spot_num": slide.spot_num,
        "gene_num": slide.gene_num,
        "gene_names": slide.gene_names,
        "coord_max": slide.coord_max,
        "has_labels": slide.labels is not None,
    }
    if slide.patches is not None:
        _, c, h, w = slide.patches.shape
        meta["patch"] = {"c": c, "h": h, "w": w}
        slide.patches.astype("<f4").tofile(directory / "patches.f32")
    else:
        meta["feat_dim"] = slide.features.shape[1]
        slide.features.astype("<f4").tofile(directory / "features.f32")
    slide.expression.astype("<f4").tofile(directory / "expression.f32")
    slide.coords.astype("<u4").tofile(directory / "coords.u32")
    if slide.labels is not None:
        slide.labels.astype("<u2").tofile(directory / "labels.u16")
    write_json(directory / "meta.json", meta)


def load_dataset(root: str | Path) -> list[Slide]:
    """Load every slide subdirectory under root (sorted by name); no two may hold the same slide_id."""
    root = Path(root)
    dirs = sorted(d for d in root.iterdir() if d.is_dir() and (d / "meta.json").exists())
    if not dirs:
        raise DataFormatError(f"no slide directories under {root}")
    slides = [load_slide(d) for d in dirs]
    seen: dict[str, Path] = {}
    for d, s in zip(dirs, slides):
        if seen.setdefault(s.slide_id, d) != d:
            raise DataFormatError(f"{seen[s.slide_id]} and {d} both hold slide_id {s.slide_id!r}")
    names = slides[0].gene_names
    for s in slides[1:]:
        if s.gene_names != names:
            raise DataFormatError(f"{s.slide_id}: gene panel differs from {slides[0].slide_id}")
    return slides


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Preprocessing:
    """The preprocessing manifest: the transform, and the gene panel selected from the training slides."""

    target_sum: float
    transform: str
    hvg_indices: tuple[int, ...]
    hvg_gene_names: tuple[str, ...]
    train_ids: tuple[str, ...]

    def __post_init__(self):
        for name, implemented in (("target_sum", TARGET_LIBRARY_SIZE), ("transform", "log1p")):
            if getattr(self, name) != implemented:
                raise ValueError(f"Preprocessing: {name}={getattr(self, name)!r} is not supported "
                                 f"(only {implemented!r})")


@dataclass
class ProcessedDataset:
    """Slides with normalized expression restricted to the selected gene subset."""

    slides: list[Slide]
    gene_names: list[str]
    manifest: Preprocessing

    def train_slides(self) -> list[Slide]:
        ids = set(self.manifest.train_ids)
        return [s for s in self.slides if s.slide_id in ids]

    def test_slides(self) -> list[Slide]:
        ids = set(self.manifest.train_ids)
        return [s for s in self.slides if s.slide_id not in ids]

    def get(self, slide_id: str) -> Slide:
        for s in self.slides:
            if s.slide_id == slide_id:
                return s
        raise KeyError(slide_id)


def kept_spots(slide: Slide) -> np.ndarray:
    """The mask of the spots preprocessing keeps: those with a count (counts are non-negative, so the rest are 0)."""
    return slide.expression.any(axis=1)


def _normalize(counts: np.ndarray) -> np.ndarray:
    """Each row library-size normalized to TARGET_LIBRARY_SIZE, then log1p, in float64; every row has a count."""
    expr = counts.astype(np.float64)
    return np.log1p(expr / expr.sum(axis=1, keepdims=True) * TARGET_LIBRARY_SIZE)


def transform_slide(slide: Slide, manifest: Preprocessing) -> Slide:
    """Apply a recorded preprocessing manifest to one raw slide.

    The slide must hold the manifest's gene panel: every hvg_indices entry
    is one of its genes, and its gene_names at those indices are exactly
    the manifest's hvg_gene_names. A slide that does not is a
    DataFormatError naming the slide and the field.
    """
    hvg = np.asarray(manifest.hvg_indices, dtype=np.int64)
    if hvg.size and not 0 <= hvg.min() <= hvg.max() < slide.gene_num:
        raise DataFormatError(f"{slide.slide_id}: gene_num={slide.gene_num} does not hold the manifest's "
                              f"hvg_indices {hvg.min()}..{hvg.max()}")
    names = [slide.gene_names[i] for i in hvg]
    if tuple(names) != manifest.hvg_gene_names:
        raise DataFormatError(f"{slide.slide_id}: gene_names at the manifest's hvg_indices are {names!r}, "
                              f"its hvg_gene_names {list(manifest.hvg_gene_names)!r}")
    keep = kept_spots(slide)
    if not keep.all():
        log.warning("%s: dropping %d zero-count spots", slide.slide_id, np.count_nonzero(~keep))
    return replace(
        slide,
        expression=_normalize(slide.expression[keep])[:, hvg].astype(np.float32),
        coords=slide.coords[keep],
        gene_names=names,
        patches=None if slide.patches is None else slide.patches[keep],
        features=None if slide.features is None else slide.features[keep],
        labels=None if slide.labels is None else slide.labels[keep],
    )


def preprocess(slides: list[Slide], hvg_num: int, train_ids: list[str]) -> ProcessedDataset:
    """Select highly-variable genes from the training slides only, then transform every slide.

    Genes are ranked by variance of the normalized log1p expression across
    all training spots; the top hvg_num are kept in variance-descending
    order (ties broken by lower gene index).
    """
    if not train_ids:
        raise DataFormatError("preprocess: train_ids is empty")
    ids = [s.slide_id for s in slides]
    unknown = [t for t in train_ids if t not in ids]
    if unknown:
        raise DataFormatError(f"preprocess: train_ids not in dataset: {unknown}")
    gene_num = slides[0].gene_num
    if not 1 <= hvg_num <= gene_num:
        raise DataFormatError(f"preprocess: hvg_num={hvg_num} outside [1, gene_num={gene_num}]")

    by_id = {s.slide_id: s for s in slides}
    variances = np.concatenate([_normalize(by_id[t].expression[kept_spots(by_id[t])]) for t in train_ids]).var(axis=0)
    hvg = np.lexsort((np.arange(gene_num), -variances))[:hvg_num]

    manifest = Preprocessing(TARGET_LIBRARY_SIZE, "log1p", hvg_indices=tuple(int(i) for i in hvg),
                             hvg_gene_names=tuple(slides[0].gene_names[i] for i in hvg), train_ids=tuple(train_ids))
    out_slides = [transform_slide(s, manifest) for s in slides]
    return ProcessedDataset(slides=out_slides, gene_names=out_slides[0].gene_names, manifest=manifest)


# ---------------------------------------------------------------------------
# batch sampling
# ---------------------------------------------------------------------------


def batch_sampler(slide: Slide, batch_size: int, seed: int) -> list[np.ndarray]:
    """One epoch of index batches for a single slide.

    Spot indices are shuffled deterministically by seed and partitioned into
    batches of batch_size; a short final batch is dropped. Batches never mix
    slides by construction. TrainConfig and fit keep batch_size within
    [2, spot_num].
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(slide.spot_num)
    n_full = slide.spot_num // batch_size
    return [perm[i * batch_size : (i + 1) * batch_size] for i in range(n_full)]


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


@dataclass
class GenConfig:
    """Configuration for the planted-signal synthetic dataset.

    A field whose command-line key differs from its name carries that key
    as `metadata["cli"]` (the key under the CLI's `data` section).
    """

    n_slides: int = field(default=4, metadata={"cli": "slides"})
    spots_per_slide: int = 128
    gene_num: int = 96
    n_domains: int = field(default=4, metadata={"cli": "domains"})
    signal: float = 1.0  # s in [0,1]: 1 = textures fully determined by expression programs
    patch_shape: tuple[int, int, int] = field(default=(3, 32, 32), metadata={"cli": "patch"})  # (c, h, w)
    coord_max: int = 256
    library_size: int = 4000

    def __post_init__(self):
        if self.n_slides < 1 or self.spots_per_slide < 1:
            raise DataFormatError("GenConfig: need at least one slide and one spot")
        if not 0.0 <= self.signal <= 1.0:
            raise DataFormatError(f"GenConfig: signal={self.signal} outside [0, 1]")
        if self.gene_num < 1 or self.n_domains < 1:
            raise DataFormatError("GenConfig: gene_num and n_domains must be positive")
        c, h, w = self.patch_shape
        if c < 1 or h < 4 or w < 4:
            raise DataFormatError(f"GenConfig: patch shape {self.patch_shape} too small")
        if self.library_size < 1:
            raise DataFormatError(f"GenConfig: library_size={self.library_size} must be at least 1")
        if self.spots_per_slide > self.coord_max * self.coord_max:
            raise DataFormatError("GenConfig: more spots than distinct coordinates")


# Planted-signal strength constants, calibrated so that a linear ridge decoder
# from raw pixels reaches mean per-gene PCC ~0.91 on a held-out slide at
# signal=1 (and ~0 at signal=0) for the default generator configuration.
N_TEXTURE_PARAMS = 12
_MARKER_BOOST = 8.0
_DOMAIN_LOG_SCALE = 0.8
_SPOT_JITTER = 0.2


def _render_patch(params: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Procedural two-grating texture controlled by 12 parameters in (-1, 1)."""
    c, h, w = shape
    base = 0.25 + 0.5 * (params[0:3] + 1.0) / 2.0  # per-channel base intensity
    amp = 0.25 * (params[3:6] + 1.0) / 2.0
    f1 = 1.0 + 3.0 * (params[6] + 1.0) / 2.0
    f2 = 1.0 + 3.0 * (params[7] + 1.0) / 2.0
    theta = params[8] * np.pi / 2.0
    phase = params[9:12] * np.pi
    v, u = np.meshgrid(np.linspace(0.0, 1.0, h), np.linspace(0.0, 1.0, w), indexing="ij")
    a = u * np.cos(theta) + v * np.sin(theta)
    b = u * np.sin(theta) - v * np.cos(theta)
    img = np.empty((c, h, w), dtype=np.float64)
    for ch in range(c):
        ph = phase[ch % 3]
        pattern = np.sin(2 * np.pi * f1 * a + ph) + 0.5 * np.sin(2 * np.pi * f2 * b + 2 * ph)
        img[ch] = base[ch % 3] + amp[ch % 3] * pattern
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def synth_generate(config: GenConfig, seed: int, out_dir: str | Path) -> Path:
    """Write a synthetic dataset with planted image/expression correspondence.

    Each slide is partitioned into spatial domains (nearest of n_domains
    random centers). Every domain carries a characteristic expression rate
    program; each spot realizes that program with small log-normal jitter
    and Poisson counting noise. The patch texture parameters are
    signal * f(spot rate program) + (1 - signal) * noise, so at signal=1
    pixels are a deterministic function of the spot's program and at
    signal=0 they are pure noise. Identical seeds give byte-identical
    output.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng_programs = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))

    d, g = config.n_domains, config.gene_num
    # domain rate programs: smooth log-normal variation plus disjoint marker blocks
    log_rates = rng_programs.normal(0.0, _DOMAIN_LOG_SCALE, size=(d, g))
    markers = np.arange(g) % d
    for dom in range(d):
        log_rates[dom, markers == dom] += np.log(_MARKER_BOOST)
    rates = np.exp(log_rates)
    texture_map = rng_programs.normal(0.0, 1.0, size=(N_TEXTURE_PARAMS, g)) / np.sqrt(g)

    gene_names = [f"g{i:04d}" for i in range(g)]
    for slide_idx in range(config.n_slides):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, slide_idx)))
        centers = rng.integers(0, config.coord_max, size=(d, 2))
        cells = rng.choice(config.coord_max * config.coord_max, size=config.spots_per_slide, replace=False)
        coords = np.stack([cells // config.coord_max, cells % config.coord_max], axis=1).astype(np.uint32)
        dist2 = ((coords[:, None, :].astype(np.int64) - centers[None, :, :]) ** 2).sum(axis=2)
        labels = dist2.argmin(axis=1).astype(np.uint16)

        n = config.spots_per_slide
        expression = np.empty((n, g), dtype=np.float32)
        patches = np.empty((n, *config.patch_shape), dtype=np.float32)
        for i in range(n):
            spot_rates = rates[labels[i]] * np.exp(rng.normal(0.0, _SPOT_JITTER, size=g))
            probs = spot_rates / spot_rates.sum()
            counts = rng.poisson(config.library_size * probs).astype(np.float32)
            if counts.sum() == 0:
                counts[int(np.argmax(probs))] = 1.0
            expression[i] = counts

            z = np.log(spot_rates)
            z = z - z.mean()
            u = texture_map @ z
            u = u / np.sqrt(1.0 + u * u)  # soft clip to (-1, 1)
            noise = rng.uniform(-1.0, 1.0, size=N_TEXTURE_PARAMS)
            params = config.signal * u + (1.0 - config.signal) * noise
            patches[i] = _render_patch(params, config.patch_shape)

        slide = Slide(
            slide_id=f"slide_{slide_idx:03d}",
            expression=expression,
            coords=coords,
            coord_max=config.coord_max,
            gene_names=gene_names,
            patches=patches,
            labels=labels,
        )
        save_slide(slide, out_dir / slide.slide_id)

    manifest = {
        "generator": "stexp.synth",
        "seed": seed,
        "config": asdict(config),
    }
    write_json(out_dir / "gen_manifest.json", manifest)
    return out_dir
