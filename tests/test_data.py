"""Dataset format round-trips, preprocessing arithmetic, generator properties."""

import ast
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from stexp.data import (
    DataFormatError,
    GenConfig,
    Slide,
    batch_sampler,
    load_dataset,
    load_slide,
    preprocess,
    read_json,
    save_slide,
    synth_generate,
    transform_slide,
)

import conftest


def make_slide(seed=0, spots=10, genes=8, with_features=False, labels=False) -> Slide:
    rng = np.random.default_rng(seed)
    kwargs = {}
    if with_features:
        kwargs["features"] = rng.random((spots, 5), dtype=np.float32)
    else:
        kwargs["patches"] = rng.random((spots, 3, 8, 8), dtype=np.float32)
    if labels:
        kwargs["labels"] = rng.integers(0, 3, spots).astype(np.uint16)
    return Slide(
        slide_id=f"s{seed}",
        expression=rng.poisson(5.0, (spots, genes)).astype(np.float32),
        coords=rng.integers(0, 64, (spots, 2)).astype(np.uint32),
        coord_max=64,
        gene_names=[f"g{i}" for i in range(genes)],
        **kwargs,
    )


class TestSlideFormat:
    def test_round_trip_identity(self, tmp_path):
        slide = make_slide(labels=True)
        save_slide(slide, tmp_path / "s")
        back = load_slide(tmp_path / "s")
        assert back.slide_id == slide.slide_id
        assert back.gene_names == slide.gene_names
        assert back.coord_max == slide.coord_max
        np.testing.assert_array_equal(back.expression, slide.expression)
        np.testing.assert_array_equal(back.coords, slide.coords)
        np.testing.assert_array_equal(back.patches, slide.patches)
        np.testing.assert_array_equal(back.labels, slide.labels)

    def test_round_trip_features_path(self, tmp_path):
        slide = make_slide(with_features=True)
        save_slide(slide, tmp_path / "s")
        back = load_slide(tmp_path / "s")
        np.testing.assert_array_equal(back.features, slide.features)
        assert back.patches is None

    def test_round_trip_bit_exact_blobs(self, tmp_path):
        slide = make_slide()
        save_slide(slide, tmp_path / "a")
        save_slide(load_slide(tmp_path / "a"), tmp_path / "b")
        for blob in ("expression.f32", "coords.u32", "patches.f32"):
            assert (tmp_path / "a" / blob).read_bytes() == (tmp_path / "b" / blob).read_bytes()

    def test_row_count_mismatch_names_expression(self, tmp_path):
        slide = make_slide(spots=10)
        save_slide(slide, tmp_path / "s")
        meta = json.loads((tmp_path / "s" / "meta.json").read_text())
        meta["spot_num"] = 11
        (tmp_path / "s" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DataFormatError, match="expression"):
            load_slide(tmp_path / "s")

    def test_coord_out_of_range_names_coords(self, tmp_path):
        slide = make_slide()
        save_slide(slide, tmp_path / "s")
        meta = json.loads((tmp_path / "s" / "meta.json").read_text())
        meta["coord_max"] = 2
        (tmp_path / "s" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DataFormatError, match="coord"):
            load_slide(tmp_path / "s")

    def test_missing_blob_named(self, tmp_path):
        slide = make_slide()
        save_slide(slide, tmp_path / "s")
        (tmp_path / "s" / "coords.u32").unlink()
        with pytest.raises(DataFormatError, match="coords"):
            load_slide(tmp_path / "s")

    def test_nan_in_blob_rejected(self, tmp_path):
        slide = make_slide()
        save_slide(slide, tmp_path / "s")
        bad = slide.expression.copy()
        bad[0, 0] = np.nan
        bad.astype("<f4").tofile(tmp_path / "s" / "expression.f32")
        with pytest.raises(DataFormatError, match="expression"):
            load_slide(tmp_path / "s")

    def test_negative_count_rejected(self, tmp_path):
        slide = make_slide()
        save_slide(slide, tmp_path / "s")
        bad = slide.expression.copy()
        bad[0, 0] = -0.01  # log1p of it is finite, so only a check on the raw counts sees it
        bad.astype("<f4").tofile(tmp_path / "s" / "expression.f32")
        with pytest.raises(DataFormatError, match="s0: expression contains negative counts"):
            load_slide(tmp_path / "s")

    def test_both_patch_kinds_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataFormatError, match="exactly one"):
            Slide(
                slide_id="bad",
                expression=rng.random((4, 3)).astype(np.float32),
                coords=np.zeros((4, 2), dtype=np.uint32),
                coord_max=8,
                gene_names=["a", "b", "c"],
                patches=rng.random((4, 1, 4, 4)).astype(np.float32),
                features=rng.random((4, 2)).astype(np.float32),
            )


class TestPreprocess:
    def test_normalization_arithmetic(self):
        # counts [1,1,2] -> scaled to 1e4 -> log1p, oracle by direct arithmetic
        slide = make_slide(spots=3, genes=3)
        slide.expression = np.array([[1, 1, 2], [2, 2, 4], [1, 2, 3]], dtype=np.float32)
        ds = preprocess([slide], hvg_num=3, train_ids=[slide.slide_id])
        row = np.sort(ds.slides[0].expression[0])  # column order is variance-ranked
        np.testing.assert_allclose(row, np.sort(np.log1p([2500.0, 2500.0, 5000.0])), rtol=1e-6)
        np.testing.assert_allclose(row[:2], [7.824, 7.824], atol=5e-4)
        np.testing.assert_allclose(row[2], 8.517, atol=5e-4)

    def test_constant_gene_never_selected(self):
        # equal spot totals, so library-size normalization keeps the constant
        # genes constant; genes 0 and 2 are the only non-constant columns
        slide = make_slide(spots=20, genes=6)
        slide.expression[:, :] = np.array([3, 1, 7, 2, 5, 4], dtype=np.float32)
        slide.expression[::2, 0] = 9.0
        slide.expression[::2, 2] = 1.0
        ds = preprocess([slide], hvg_num=2, train_ids=[slide.slide_id])
        assert set(ds.manifest["hvg_indices"]) == {0, 2}

    def test_hvg_equals_gene_num_orders_by_variance(self):
        slide = make_slide(spots=30, genes=5)
        ds = preprocess([slide], hvg_num=5, train_ids=[slide.slide_id])
        normed = np.log1p(
            slide.expression / slide.expression.sum(1, keepdims=True) * 1e4
        ).astype(np.float64)
        variances = normed.var(axis=0)
        assert ds.manifest["hvg_indices"] == list(np.lexsort((np.arange(5), -variances)))

    def test_selection_uses_training_slides_only(self):
        train = make_slide(seed=1, spots=40, genes=12)
        test_a = make_slide(seed=2, spots=40, genes=12)
        test_b = make_slide(seed=3, spots=40, genes=12)
        ds1 = preprocess([train, test_a], hvg_num=6, train_ids=[train.slide_id])
        ds2 = preprocess([train, test_b], hvg_num=6, train_ids=[train.slide_id])
        np.testing.assert_array_equal(ds1.manifest["hvg_indices"], ds2.manifest["hvg_indices"])

    def test_zero_count_spot_dropped_and_recorded(self):
        slide = make_slide(spots=8, genes=4)
        slide.expression[3] = 0.0
        ds = preprocess([slide], hvg_num=4, train_ids=[slide.slide_id])
        assert ds.slides[0].spot_num == 7
        assert ds.manifest["dropped_spots"] == {slide.slide_id: [3]}
        # patches stay aligned with kept expression rows
        np.testing.assert_array_equal(ds.slides[0].patches[3], slide.patches[4])

    def test_zero_count_warning_logged_once_per_slide(self, caplog):
        slides = [make_slide(seed=i, spots=8, genes=4) for i in range(2)]
        slides[0].expression[3] = 0.0
        with caplog.at_level(logging.WARNING, logger="stexp.data"):
            preprocess(slides, hvg_num=4, train_ids=[slides[0].slide_id])
        assert [r.getMessage() for r in caplog.records] == [f"{slides[0].slide_id}: dropping 1 zero-count spots"]

    def test_idempotent_via_manifest(self):
        slide = make_slide(spots=12, genes=9)
        ds = preprocess([slide], hvg_num=4, train_ids=[slide.slide_id])
        again = transform_slide(slide, ds.manifest)
        np.testing.assert_array_equal(again.expression, ds.slides[0].expression)
        assert again.gene_names == ds.slides[0].gene_names

    def test_manifest_records_the_panel_names(self):
        slide = make_slide(spots=12, genes=9)
        ds = preprocess([slide], hvg_num=4, train_ids=[slide.slide_id])
        assert ds.manifest["hvg_gene_names"] == [slide.gene_names[i] for i in ds.manifest["hvg_indices"]]
        assert ds.gene_names == ds.manifest["hvg_gene_names"]

    def test_other_gene_order_rejected(self):
        slide = make_slide(spots=12, genes=9)
        ds = preprocess([slide], hvg_num=4, train_ids=[slide.slide_id])
        slide.gene_names.reverse()  # the same genes, listed in another order
        with pytest.raises(DataFormatError, match=f"{slide.slide_id}: gene_names at the manifest's hvg_indices"):
            transform_slide(slide, ds.manifest)

    @pytest.mark.parametrize("index", [9, -1])
    def test_index_outside_the_slide_rejected(self, index):
        slide = make_slide(spots=12, genes=9)
        manifest = dict(preprocess([slide], hvg_num=4, train_ids=[slide.slide_id]).manifest)
        manifest["hvg_indices"] = [0, index]
        with pytest.raises(DataFormatError, match=f"{slide.slide_id}: gene_num=9 does not hold"):
            transform_slide(slide, manifest)

    @pytest.mark.parametrize("hvg_num", [5, 0, -4])
    def test_hvg_num_outside_one_to_gene_num_rejected(self, hvg_num):
        slide = make_slide(genes=4)
        with pytest.raises(DataFormatError, match=f"hvg_num={hvg_num} outside"):
            preprocess([slide], hvg_num=hvg_num, train_ids=[slide.slide_id])

    def test_empty_train_ids_rejected(self):
        with pytest.raises(DataFormatError, match="train_ids"):
            preprocess([make_slide()], hvg_num=2, train_ids=[])


class TestBatchSampler:
    def test_partition_arithmetic(self):
        slide = make_slide(spots=10)
        batches = batch_sampler(slide, 4, seed=0)
        assert len(batches) == 2
        flat = np.concatenate(batches)
        assert len(flat) == 8
        assert len(set(flat.tolist())) == 8

    def test_same_seed_same_batches(self):
        slide = make_slide(spots=32)
        a = batch_sampler(slide, 8, seed=5)
        b = batch_sampler(slide, 8, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_full_batch_is_permutation(self):
        slide = make_slide(spots=16)
        (batch,) = batch_sampler(slide, 16, seed=1)
        assert sorted(batch.tolist()) == list(range(16))


class TestSynthGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = conftest.default_gen_config(n_slides=2, spots_per_slide=16, gene_num=12)
        synth_generate(cfg, 3, tmp_path / "a")
        synth_generate(cfg, 3, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    def test_different_seed_differs(self, tmp_path):
        cfg = conftest.default_gen_config(n_slides=1, spots_per_slide=8, gene_num=12)
        synth_generate(cfg, 3, tmp_path / "a")
        synth_generate(cfg, 4, tmp_path / "b")
        assert (tmp_path / "a" / "slide_000" / "expression.f32").read_bytes() != (
            tmp_path / "b" / "slide_000" / "expression.f32"
        ).read_bytes()

    def test_output_passes_load_validation(self, synth_dataset_dir):
        slides = load_dataset(synth_dataset_dir)
        assert len(slides) == 4
        for s in slides:
            assert s.spot_num == 128
            assert s.labels is not None
            assert s.patches is not None
            assert float(s.patches.min()) >= 0.0 and float(s.patches.max()) <= 1.0

    @pytest.mark.parametrize("values, message", [
        ({"spots_per_slide": 0}, "need at least one slide and one spot"),
        ({"signal": 1.5}, r"signal=1.5 outside \[0, 1\]"),
    ])
    def test_invalid_config_rejected_on_construction(self, values, message):
        with pytest.raises(DataFormatError, match=f"GenConfig: {message}"):
            GenConfig(**values)

    def test_domains_are_spatially_coherent(self, synth_slides):
        # the label of a spot is the nearest domain center, so labels must
        # take every value and not be constant
        for s in synth_slides:
            assert len(np.unique(s.labels)) > 1


class TestPlantedSignalOracle:
    """Ridge decoder oracle, frozen pre-build; gates the generator's signal strength."""

    def test_signal_1_ridge_recovers_expression(self, synth_slides):
        r = conftest.ridge_pixel_decoder_pcc(synth_slides)
        assert r >= 0.8, f"ridge mean PCC {r:.4f} below 0.8"
        assert r == pytest.approx(conftest.RIDGE_PCC_SIGNAL_1, abs=0.02)

    def test_signal_0_ridge_finds_nothing(self, tmp_path):
        cfg = conftest.default_gen_config(signal=0.0)
        synth_generate(cfg, conftest.SYNTH_SEED, tmp_path / "s0")
        slides = load_dataset(tmp_path / "s0")
        r = conftest.ridge_pixel_decoder_pcc(slides)
        assert abs(r) < 0.1, f"ridge mean PCC {r:.4f} not ~0 at signal=0"


SRC = Path(__file__).resolve().parents[1] / "src" / "stexp"


def _owners(text: str) -> list[tuple[str, str | None]]:
    """(module, innermost enclosing function) of every src/stexp line that contains `text`."""
    owners = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        funcs = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)]
        for lineno, line in enumerate(source.splitlines(), 1):
            if text in line:
                around = [f for f in funcs if f.lineno <= lineno <= f.end_lineno]
                owners.append((path.stem, min(around, key=lambda f: f.end_lineno - f.lineno).name if around else None))
    return owners


def test_every_artifact_goes_through_one_reader():
    assert _owners("np.fromfile") == [("data", "read_blob")]
    assert _owners("np.frombuffer") == []
    assert _owners(".read_bytes(") == []
    # besides read_json, which also reads the --config file, only --set values are parsed
    assert _owners("json.loads(") == [("cli", "resolve_config"), ("data", "read_json")]
    # every indented artifact, the divergence snapshot included, is strict JSON from write_json
    assert _owners("indent=1") == [("data", "write_json")]


def test_settings_have_one_json_reader():
    # annotations are resolved and interpreted only in data, and one function builds a config object from JSON
    assert _owners("get_type_hints") == [("data", None)]
    assert _owners("typing.get_origin(") == [("data", "json_type_ok")]
    assert _owners("typing.get_args(") == [("data", "json_type_ok")] * 2
    calls = [owner for owner in _owners("config_from_json(") if owner != ("data", "config_from_json")]
    assert calls == [("cli", "config_object"), ("contrastive", "load_checkpoint"), ("contrastive", "load_checkpoint")]


def test_read_json_names_the_file_and_a_missing_required_key(tmp_path):
    path = tmp_path / "meta.json"
    path.write_text(json.dumps({"rows": 3}))
    assert read_json(path, required={"rows": int}) == {"rows": 3}
    with pytest.raises(DataFormatError, match=f"{re.escape(str(path))}: missing key 'entries'"):
        read_json(path, required={"rows": int, "entries": list})
    path.write_text("[]")  # parses, but holds no object to look a key up in
    with pytest.raises(DataFormatError, match="missing key 'rows'"):
        read_json(path, required={"rows": int})


def test_checkpoint_settings_are_parsed_once_when_it_loads():
    # the encoder and train sections' calls in load_checkpoint, beside the CLI's call and the definition
    load = ("contrastive", "load_checkpoint")
    assert _owners("config_from_json(") == [("cli", "config_object"), load, load, ("data", "config_from_json")]
    # a checkpoint holds typed settings; the only manifest read by key is a ProcessedDataset's own
    assert _owners(".manifest[") == [("data", "train_slides"), ("data", "test_slides")]


def test_no_module_reaches_into_another_modules_private_names():
    """A `_name` stays in its module: no relative import of one, and no `module._name` through a module alias."""
    reached = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level
                   and n.module is None for a in n.names}  # from . import diffcore as dc
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                reached += [(path.stem, a.name) for a in node.names if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and node.attr.startswith("_")):
                reached.append((path.stem, f"{node.value.id}.{node.attr}"))
    assert reached == []


def test_every_private_name_is_used_in_the_library():
    """Each `_name` function, method, class or module constant of src/stexp is referenced in src/stexp outside its
    own definition, so none is left that only tests reach."""
    defined, referenced = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        constants = [(t.id, node) for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                     for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                     if isinstance(t, ast.Name)]
        defs = [(n.name, n) for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        defined += [(path.stem, name, node.lineno, node.end_lineno) for name, node in constants + defs
                    if name.startswith("_") and not name.startswith("__")]
        referenced += [(path.stem, n.id if isinstance(n, ast.Name) else n.attr, n.lineno) for n in ast.walk(tree)
                       if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)]
    unused = [f"{module}.{name}" for module, name, first, last in defined
              if not any(ref == name and not (where == module and first <= line <= last)
                         for where, ref, line in referenced)]
    assert unused == []
