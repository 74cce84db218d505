"""CLI behavior: reproducibility, exit codes, atomic outputs, ablation tables."""

import dataclasses
import json
import re
import shutil
import warnings
from argparse import Namespace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from stexp import cli
from stexp import diffcore as dc
from stexp.cli import main
from stexp.contrastive import TrainConfig
from stexp.data import GenConfig, load_dataset, save_slide
from stexp.encoders import EncoderConfig


def micro_config(tmp_path: Path) -> Path:
    cfg = {
        "data": {"slides": 2, "spots_per_slide": 24, "gene_num": 24, "domains": 3,
                 "patch": [3, 8, 8], "hvg_num": 8},
        "encoder": {"d_embed": 16, "n_heads": 2, "conv_channels": [6], "proj_hidden": 16},
        "train": {"batch_size": 8, "epochs": 3, "temperature": 0.1, "learning_rate": 2e-3},
        "inference": {"k": 5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def dir_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestGenData:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = micro_config(tmp_path)
        assert main(["gen-data", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "a")]) == 0
        assert main(["gen-data", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "b")]) == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_environment_does_not_change_the_run(self, tmp_path, monkeypatch):
        # the seed comes from --seed or the config only; STEXP_SEED was once a third way
        cfg = micro_config(tmp_path)
        monkeypatch.delenv("STEXP_SEED", raising=False)
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("STEXP_SEED", "7")
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "env")]) == 0
        assert dir_bytes(tmp_path / "env") == dir_bytes(tmp_path / "plain")

    def test_failed_validation_leaves_no_output(self, tmp_path):
        cfg = micro_config(tmp_path)
        out = tmp_path / "bad"
        rc = main(["gen-data", "--config", str(cfg), "--set", "data.signal=2.0", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-*"))

    @pytest.mark.parametrize("library_size", [0, -5])
    def test_library_size_below_one_rejected_before_staging(self, tmp_path, capsys, monkeypatch, library_size):
        monkeypatch.setattr(cli, "atomic_out_dir", lambda *a: pytest.fail("staging directory made before the check"))
        out = tmp_path / "d"
        assert main(["gen-data", "--set", f"data.library_size={library_size}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config key data: GenConfig: library_size={library_size} must be at least 1" in err
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-*"))

    def test_existing_output_rejected(self, tmp_path):
        cfg = micro_config(tmp_path)
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "junk").write_text("x")
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 1
        assert (out / "junk").read_text() == "x"


class TestValidation:
    @pytest.mark.parametrize("command", [
        ["embed", "--checkpoint", "missing", "--data", "missing"],
        ["predict", "--checkpoint", "missing", "--index", "missing", "--slide", "missing"],
        ["train", "--data", "missing"],
    ])
    def test_occupied_out_rejected_before_any_work(self, tmp_path, capsys, command):
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "junk").write_text("x")
        assert main([*command, "--out", str(out)]) == 1
        assert f"output directory {out}" in capsys.readouterr().err
        assert (out / "junk").read_text() == "x"

    def test_unknown_subcommand_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_exit_1(self, tmp_path):
        assert main(["gen-data", "--bogus", "1", "--out", str(tmp_path / "x")]) == 1

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = micro_config(tmp_path)
        rc = main(["gen-data", "--config", str(cfg), "--set", "data.bogus=1",
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_unknown_config_file_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nonsense_section": {}}))
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("source", ["set", "file"])
    def test_unread_heg_size_key_rejected(self, tmp_path, capsys, source):
        # compute_metrics always ranks evaluation.HEG_SIZE genes; the key was never read
        if source == "set":
            args = ["--set", "eval.heg_size=10"]
        else:
            path = tmp_path / "heg.json"
            path.write_text(json.dumps({"eval": {"heg_size": 10}}))
            args = ["--config", str(path)]
        assert main(["gen-data", *args, "--out", str(tmp_path / "x")]) == 1
        assert "unknown config key: eval.heg_size" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("content", [None, '{"seed": 3,\n'], ids=["missing", "unparsable"])
    def test_bad_config_file_exits_1_naming_it(self, tmp_path, capsys, content):
        path = tmp_path / "run.json"
        if content is not None:
            path.write_text(content)
        out = tmp_path / "x"
        assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 1
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("gen-data", ["--seed", "-1"]),
        ("gen-data", ["--set", "seed=-1"]),
        ("grad-check", ["--seed", "-1"]),
    ])
    def test_negative_seed_rejected_naming_it(self, tmp_path, capsys, monkeypatch, command, flags):
        monkeypatch.setattr(cli, "synth_generate", lambda *a: pytest.fail("generated before the check"))
        monkeypatch.setattr(cli, "run_gradient_suite", lambda *a, **k: pytest.fail("checked before the seed"))
        out = tmp_path / "x"
        assert main([command, *flags, "--out", str(out)]) == 1
        assert "config key seed=-1 must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_config_echo_written(self, tmp_path):
        cfg = micro_config(tmp_path)
        out = tmp_path / "echo"
        main(["gen-data", "--config", str(cfg), "--seed", "3", "--out", str(out)])
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["seed"] == 3
        assert resolved["data"]["spots_per_slide"] == 24

    def test_set_override_wins_over_file(self, tmp_path):
        cfg = micro_config(tmp_path)
        out = tmp_path / "ovr"
        main(["gen-data", "--config", str(cfg), "--set", "data.spots_per_slide=16",
              "--seed", "1", "--out", str(out)])
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["data"]["spots_per_slide"] == 16


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> train(holdout) -> embed -> predict -> eval chain."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = micro_config(root)
    args = ["--config", str(cfg), "--seed", "7"]
    assert main(["gen-data", *args, "--out", str(root / "data")]) == 0
    assert main(["train", *args, "--data", str(root / "data"),
                 "--holdout", "slide_001", "--out", str(root / "ck")]) == 0
    assert main(["embed", *args, "--checkpoint", str(root / "ck"),
                 "--data", str(root / "data"), "--out", str(root / "idx")]) == 0
    assert main(["predict", *args, "--checkpoint", str(root / "ck"), "--index", str(root / "idx"),
                 "--slide", str(root / "data" / "slide_001"), "--out", str(root / "pred")]) == 0
    assert main(["eval", *args, "--pred", str(root / "pred"),
                 "--slide", str(root / "data" / "slide_001"),
                 "--checkpoint", str(root / "ck"), "--out", str(root / "ev")]) == 0
    return root, cfg


@pytest.fixture(scope="module")
def features_data(pipeline, tmp_path_factory):
    """The pipeline's slides with precomputed features (every 16th pixel value) in place of patches."""
    root, cfg = pipeline
    data = tmp_path_factory.mktemp("features")
    for s in load_dataset(root / "data"):
        save_slide(dataclasses.replace(s, patches=None, features=s.patches.reshape(s.spot_num, -1)[:, ::16]),
                   data / s.slide_id)
    return data, cfg


class TestFeaturesInput:
    def test_pipeline_runs_and_predicts_reproducibly(self, features_data, tmp_path):
        data, cfg = features_data
        args, slide = ["--config", str(cfg), "--seed", "7"], str(data / "slide_001")
        assert main(["train", *args, "--data", str(data), "--holdout", "slide_001",
                     "--out", str(tmp_path / "ck")]) == 0
        assert main(["embed", *args, "--checkpoint", str(tmp_path / "ck"), "--data", str(data),
                     "--out", str(tmp_path / "idx")]) == 0
        for pred in ("pred", "pred2"):
            assert main(["predict", *args, "--checkpoint", str(tmp_path / "ck"), "--index", str(tmp_path / "idx"),
                         "--slide", slide, "--out", str(tmp_path / pred)]) == 0
        assert dir_bytes(tmp_path / "pred") == dir_bytes(tmp_path / "pred2")
        assert main(["eval", *args, "--pred", str(tmp_path / "pred"), "--slide", slide,
                     "--checkpoint", str(tmp_path / "ck"), "--out", str(tmp_path / "ev")]) == 0
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert manifest["encoder"]["input_kind"] == "features" and manifest["encoder"]["input_feat_dim"] == 12


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        root, _ = pipeline
        assert (root / "ck" / "manifest.json").exists()
        assert (root / "ck" / "params.f32").exists()
        assert (root / "ck" / "loss_curve.tsv").exists()
        assert (root / "idx" / "embeddings.f32").exists()
        assert (root / "pred" / "expression.f32").exists()
        assert (root / "ev" / "metrics.tsv").exists()
        assert (root / "ev" / "per_gene.tsv").exists()
        assert (root / "ev" / "labels.tsv").exists()

    def test_loss_curve_rows(self, pipeline):
        root, _ = pipeline
        lines = (root / "ck" / "loss_curve.tsv").read_text().strip().split("\n")
        assert lines[0] == "epoch\tmean_loss"
        assert len(lines) == 1 + 3  # header + epochs

    def test_predict_rejects_training_slide(self, pipeline):
        root, cfg = pipeline
        rc = main(["predict", "--config", str(cfg), "--checkpoint", str(root / "ck"),
                   "--index", str(root / "idx"), "--slide", str(root / "data" / "slide_000"),
                   "--out", str(root / "leak")])
        assert rc == 1
        assert not (root / "leak").exists()

    def test_summary_has_ari_for_labeled_slide(self, pipeline):
        root, _ = pipeline
        summary = json.loads((root / "ev" / "summary.json").read_text())
        assert "ari" in summary and "pcc_acg" in summary

    @pytest.mark.parametrize("case", ["other_slide", "other_gene_names"])
    def test_eval_rejects_a_prediction_of_another_slide_or_panel(self, pipeline, tmp_path, capsys, case):
        root, cfg = pipeline
        pred, slide = root / "pred", "slide_001"
        meta = json.loads((pred / "meta.json").read_text())
        if case == "other_slide":  # the same shape and panel, scored against the wrong truth
            slide, values = "slide_000", ("'slide_001'", "'slide_000'")
        else:  # a prediction made under another gene selection
            pred = tmp_path / "pred"
            shutil.copytree(root / "pred", pred)
            values = (repr(meta["gene_names"][::-1]), repr(meta["gene_names"]))
            meta["gene_names"].reverse()
            (pred / "meta.json").write_text(json.dumps(meta))
        out = tmp_path / "ev"
        assert main(["eval", "--config", str(cfg), "--pred", str(pred), "--slide", str(root / "data" / slide),
                     "--checkpoint", str(root / "ck"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert all(value in err for value in values), err
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-*"))


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-4])


def _cut_in_half(path: Path) -> None:
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _without(key: str):
    def drop(path: Path) -> None:
        value = json.loads(path.read_text())
        del value[key]
        path.write_text(json.dumps(value))

    drop.__name__ = f"without_{key}"
    return drop


def _set(dotted: str, value):
    """Set a nested key of a JSON file (list items by position), or delete it when value is None."""
    def edit(path: Path) -> None:
        root = json.loads(path.read_text())
        *parents, key = dotted.split(".")
        node = root
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        if value is None:
            del node[key]
        else:
            node[key] = value
        path.write_text(json.dumps(root))

    edit.__name__ = f"without_{dotted}" if value is None else f"{dotted}={value}"
    return edit


def _provenance_entry(i: int, entry):
    """Replace entry i of an index's provenance.json."""
    def edit(path: Path) -> None:
        meta = json.loads(path.read_text())
        meta["entries"][i] = entry
        path.write_text(json.dumps(meta))

    edit.__name__ = f"entries.{i}={json.dumps(entry)}"
    return edit


# (corruption of ck/manifest.json, the field its error names); entry 0 is attn.h0.wk, an [8, 4] tensor
CHECKPOINT_FIELD_CORRUPTIONS = [
    (_set("preprocess.target_sum", 5000), "preprocess.target_sum"),
    (_set("preprocess.transform", "sqrt"), "preprocess.transform"),
    (_set("preprocess.transform", None), "preprocess.transform"),
    (_set("params.dtype", "<i4"), "params.dtype"),
    (_set("params.entries.0.shape", [9, 4]), "attn.h0.wk"),
    # a missing or mistyped nested field, named by its dotted path
    (_set("preprocess.hvg_indices", None), "preprocess.hvg_indices"),
    (_set("preprocess.train_ids", None), "preprocess.train_ids"),
    (_set("params.dtype", None), "params.dtype"),
    (_set("params.total_bytes", None), "params.total_bytes"),
    (_set("params.entries", None), "params.entries"),
    (_set("params.entries", 7), "params.entries"),
    *((_set(f"params.entries.0.{key}", None), f"params.entries.0.{key}")
      for key in ("name", "shape", "offset", "nbytes")),
    (_set("encoder", []), "encoder"),
    (_set("train", []), "train"),
    # a field of another type than its annotation, in a config section or in the layout
    (_set("encoder.use_mhsa", 0), "encoder.use_mhsa"),
    (_set("encoder.d_embed", "16"), "encoder.d_embed"),
    (_set("train.batch_size", 8.5), "train.batch_size"),
    (_set("preprocess.hvg_indices", "0,1"), "preprocess.hvg_indices"),
    (_set("params.total_bytes", "1024"), "params.total_bytes"),
    (_set("params.entries.0.offset", 0.0), "params.entries.0.offset"),
    # every setting is required, each missing one named: a field added to a config gets its row here
    *((_set(f"{section}.{f.name}", None), f"{section}.{f.name}")
      for section, cls in (("encoder", EncoderConfig), ("train", TrainConfig)) for f in dataclasses.fields(cls)),
    (_set("preprocess.hvg_gene_names", None), "preprocess.hvg_gene_names"),
    (_set("loss_history", None), "loss_history"),
    # a value of the right type that the config class itself refuses, named with its section
    (_set("encoder.n_heads", 3), "field encoder: EncoderConfig: hvg_num=8 must be divisible by n_heads=3"),
    (_set("train.epochs", 0), "field train: TrainConfig: epochs must be >= 1"),
    # an earlier release wrote these retired fields at the values the code now fixes; such a checkpoint is retrained
    *((_set(dotted, value), dotted) for dotted, value in (
        ("encoder.attn_residual", True), ("train.learn_temperature", False), ("train.beta1", 0.9),
        ("train.beta2", 0.999), ("train.epsilon", 1e-8))),
]
# (artifact under the pipeline root, corruption)
ARTIFACT_CORRUPTIONS = [
    ("ck/manifest.json", Path.unlink),
    ("ck/params.f32", Path.unlink),
    ("idx/provenance.json", Path.unlink),
    ("idx/embeddings.f32", Path.unlink),
    ("pred/meta.json", Path.unlink),
    ("ck/params.f32", _truncate),
    ("idx/expressions.f32", _truncate),
    ("pred/expression.f32", _truncate),
    ("ck/manifest.json", _cut_in_half),
    ("ck/manifest.json", _without("params")),
    ("ck/manifest.json", _without("preprocess")),
    ("idx/provenance.json", _without("entries")),
    ("idx/provenance.json", _set("rows", 24.0)),
    # each entry is a [slide id, spot index >= 0] pair
    *(("idx/provenance.json", _provenance_entry(3, entry)) for entry in (
        ["slide_000", 2.7], ["slide_000", "3"], [7, 3], ["slide_000", -1], ["slide_000", True], 5, ["slide_000"])),
    ("pred/meta.json", _without("slide_id")),
    ("pred/meta.json", _set("spot_num", "24")),
    ("pred/meta.json", _set("gene_num", 8.0)),
    *(("ck/manifest.json", corrupt) for corrupt, _ in CHECKPOINT_FIELD_CORRUPTIONS),
]
# the artifact directories each command reads
COMMAND_READS = {"embed": ("ck",), "predict": ("ck", "idx"), "eval": ("ck", "pred")}


def command_args(command: str, root: Path, data: Path) -> list[str]:
    """A command's inputs: the ck, idx and pred artifacts under root, the slides under data."""
    slide = str(data / "slide_001")
    return {
        "embed": ["--checkpoint", str(root / "ck"), "--data", str(data)],
        "predict": ["--checkpoint", str(root / "ck"), "--index", str(root / "idx"), "--slide", slide],
        "eval": ["--pred", str(root / "pred"), "--slide", slide, "--checkpoint", str(root / "ck")],
    }[command]


class TestArtifactCorruption:
    @pytest.mark.parametrize("command, artifact, corrupt", [
        pytest.param(command, artifact, corrupt, id=f"{command}-{artifact}-{corrupt.__name__.strip('_')}")
        for command, reads in COMMAND_READS.items()
        for artifact, corrupt in ARTIFACT_CORRUPTIONS
        if artifact.split("/")[0] in reads
    ])
    def test_exits_1_naming_the_file(self, pipeline, tmp_path, capsys, command, artifact, corrupt):
        root, cfg = pipeline
        for name in ("ck", "idx", "pred"):
            shutil.copytree(root / name, tmp_path / name)
        corrupt(tmp_path / artifact)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), *command_args(command, tmp_path, root / "data"),
                     "--out", str(out)]) == 1
        assert str(tmp_path / artifact) in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-*"))

    @pytest.mark.parametrize("corrupt, field", CHECKPOINT_FIELD_CORRUPTIONS,
                             ids=[corrupt.__name__ for corrupt, _ in CHECKPOINT_FIELD_CORRUPTIONS])
    @pytest.mark.parametrize("command", ["embed", "predict"])
    def test_checkpoint_field_error_names_the_field_before_any_embedding(self, pipeline, tmp_path, capsys,
                                                                          monkeypatch, command, corrupt, field):
        root, cfg = pipeline
        for name in ("ck", "idx"):
            shutil.copytree(root / name, tmp_path / name)
        corrupt(tmp_path / "ck" / "manifest.json")
        for name in ("embed_patches", "embed_spots"):
            monkeypatch.setattr(cli.inference.enc, name, lambda *a, **k: pytest.fail("embedding before the check"))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), *command_args(command, tmp_path, root / "data"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'ck' / 'manifest.json'}: " in err and field in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command, slide_id", [("embed", "slide_000"), ("predict", "slide_001"),
                                                   ("eval", "slide_001")])
    def test_other_gene_panel_exits_1_naming_the_slide(self, pipeline, tmp_path, capsys, monkeypatch,
                                                       command, slide_id):
        root, cfg = pipeline
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        for path in data.glob("*/meta.json"):  # every slide holds the same genes, in reverse order
            meta = json.loads(path.read_text())
            meta["gene_names"].reverse()
            path.write_text(json.dumps(meta))
        for module, name in ((cli.inference, "build_index"), (cli.inference, "predict_slide"),
                             (cli.ev, "compute_metrics")):
            monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("model work before the panel check"))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), *command_args(command, root, data), "--out", str(out)]) == 1
        assert f"{slide_id}: gene_names at the manifest's hvg_indices" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-*"))

    @pytest.mark.parametrize("patch, field", [({"c": 3, "w": 8}, "patch.h"), ([3, 8, 8], "field patch")],
                             ids=["without_h", "list"])
    def test_slide_meta_nested_field_names_the_file(self, pipeline, tmp_path, capsys, patch, field):
        root, cfg = pipeline
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        path = data / "slide_000" / "meta.json"
        meta = json.loads(path.read_text())
        meta["patch"] = patch
        path.write_text(json.dumps(meta))
        out = tmp_path / "ck"
        assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: " in err and field in err, err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, field", [
        ("patch", {"c": 3, "h": "8", "w": 8}, "patch.h"),
        ("spot_num", 24.0, "spot_num"),
        ("coord_max", "256", "coord_max"),
        ("gene_names", list(range(24)), "gene_names"),
        ("has_labels", "yes", "has_labels"),
    ], ids=["patch.h=str", "spot_num=float", "coord_max=str", "gene_names=ints", "has_labels=str"])
    def test_slide_meta_field_of_another_type_names_the_file(self, pipeline, tmp_path, capsys, key, value, field):
        root, cfg = pipeline
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        path = data / "slide_000" / "meta.json"
        _set(key, value)(path)
        out = tmp_path / "ck"
        assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 1
        assert f"{path}: field {field} expects" in capsys.readouterr().err
        assert not out.exists()


class TestLoocv:
    def test_rows_and_reproducibility(self, tmp_path):
        cfg = micro_config(tmp_path)
        args = ["--config", str(cfg), "--seed", "5", "--data"]
        assert main(["gen-data", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "d")]) == 0
        assert main(["loocv", *args, str(tmp_path / "d"), "--out", str(tmp_path / "r1")]) == 0
        assert main(["loocv", *args, str(tmp_path / "d"), "--out", str(tmp_path / "r2")]) == 0
        lines = (tmp_path / "r1" / "metrics.tsv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 + 1  # header + per-slide rows + mean
        assert lines[-1].startswith("mean\t")
        assert (tmp_path / "r1" / "metrics.tsv").read_bytes() == (tmp_path / "r2" / "metrics.tsv").read_bytes()
        assert (tmp_path / "r1" / "per_gene_slide_000.tsv").exists()


class TestAblate:
    def test_table_and_full_row_matches_loocv(self, tmp_path):
        cfg = micro_config(tmp_path)
        assert main(["gen-data", "--config", str(cfg), "--seed", "9", "--out", str(tmp_path / "d")]) == 0
        assert main(["ablate", "--config", str(cfg), "--seed", "9", "--data", str(tmp_path / "d"),
                     "--toggles", "no_image_path,no_positional_encoding", "--k-sweep", "1,5,24",
                     "--out", str(tmp_path / "ab")]) == 0
        assert main(["loocv", "--config", str(cfg), "--seed", "9", "--data", str(tmp_path / "d"),
                     "--out", str(tmp_path / "cv")]) == 0
        table = {
            line.split("\t")[0]: line.split("\t")[1:]
            for line in (tmp_path / "ab" / "ablation.tsv").read_text().strip().split("\n")[1:]
        }
        assert set(table) == {"full", "no_image_path", "no_positional_encoding", "k=1", "k=5", "k=24"}
        mean_row = (tmp_path / "cv" / "metrics.tsv").read_text().strip().split("\n")[-1].split("\t")[1:]
        assert table["full"] == mean_row
        assert table["k=5"] == table["full"]  # the config's own k
        for k in (1, 24):  # each k= row is the full model's LOOCV at that k
            assert main(["loocv", "--config", str(cfg), "--seed", "9", "--data", str(tmp_path / "d"),
                         "--set", f"inference.k={k}", "--out", str(tmp_path / f"cv{k}")]) == 0
            mean_row = (tmp_path / f"cv{k}" / "metrics.tsv").read_text().strip().split("\n")[-1].split("\t")[1:]
            assert table[f"k={k}"] == mean_row, k

    def test_each_model_trains_once_per_fold(self, pipeline, tmp_path, monkeypatch):
        root, cfg = pipeline
        fits = []
        real_fit = cli.ev.fit
        monkeypatch.setattr(cli.ev, "fit", lambda *a, **k: fits.append(1) or real_fit(*a, **k))
        assert main(["ablate", "--config", str(cfg), "--data", str(root / "data"),
                     "--toggles", "no_mhsa", "--k-sweep", "1,5", "--out", str(tmp_path / "ab")]) == 0
        slides = len(list((root / "data").glob("slide_*")))
        assert len(fits) == (1 + 1) * slides  # full and no_mhsa; the k= rows reuse full's folds

    def test_empty_toggles_rejected(self, tmp_path):
        cfg = micro_config(tmp_path)
        assert main(["gen-data", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "d")]) == 0
        rc = main(["ablate", "--config", str(cfg), "--data", str(tmp_path / "d"),
                   "--out", str(tmp_path / "ab")])
        assert rc == 1

    @pytest.mark.parametrize("flags, value", [
        (["--k-sweep", "1,,5"], "''"),
        (["--k-sweep", "x"], "'x'"),
        (["--k-sweep", "5,5"], "'5'"),
        (["--k-sweep", "5,05"], "'05'"),
        (["--toggles", "no_mhsa,no_mhsa"], "'no_mhsa'"),
        (["--toggles", "no_mhsa,"], "''"),
    ])
    def test_malformed_or_repeated_value_rejected_before_data_loads(self, tmp_path, capsys, monkeypatch,
                                                                    flags, value):
        monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("data loaded before the check"))
        out = tmp_path / "ab"
        assert main(["ablate", "--data", str(tmp_path / "d"), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert flags[0] in err and value in err, err
        assert not out.exists()

    def test_each_variant_changes_only_its_setting(self, pipeline, tmp_path, monkeypatch):
        root, cfg = pipeline
        calls = []

        def loocv(slides, **kwargs):  # each mean row records the call that made it (pcc_acg) and its k (mse)
            calls.append(kwargs)
            return {k: [SimpleNamespace(pcc_acg=len(calls) - 1, pcc_heg=0.0, mse=k, mae=0.0)] for k in kwargs["ks"]}

        monkeypatch.setattr(cli.ev, "loocv", loocv)
        assert main(["ablate", "--config", str(cfg), "--data", str(root / "data"),
                     "--toggles", "no_positional_encoding,no_mhsa,no_image_path", "--k-sweep", "1,5",
                     "--out", str(tmp_path / "ab")]) == 0
        assert len(calls) == 1 + len(cli.ABLATION_TOGGLES)
        full = calls[0]
        assert full["ks"] == (5, 1, 5) and all(call["train_cfg"] == full["train_cfg"] for call in calls)
        for call, changes in zip(calls[1:], cli.ABLATION_TOGGLES.values()):
            assert call["enc_cfg"] == dataclasses.replace(full["enc_cfg"], **changes) != full["enc_cfg"]
            assert call["ks"] == (5,)
        table = [line.split("\t") for line in (tmp_path / "ab" / "ablation.tsv").read_text().split("\n")[1:-1]]
        made_by = {name: (float(call), float(k)) for name, call, _, k, _ in table}  # (loocv call index, k)
        assert [row[0] for row in table] == ["full", *cli.ABLATION_TOGGLES, "k=1", "k=5"]
        assert made_by == {"full": (0, 5), **{name: (i, 5) for i, name in enumerate(cli.ABLATION_TOGGLES, 1)},
                           "k=1": (0, 1), "k=5": (0, 5)}

    def test_unknown_toggle_rejected(self, tmp_path):
        cfg = micro_config(tmp_path)
        assert main(["gen-data", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "d")]) == 0
        rc = main(["ablate", "--config", str(cfg), "--data", str(tmp_path / "d"),
                   "--toggles", "no_such_thing", "--out", str(tmp_path / "ab")])
        assert rc == 1


class TestGradCheckCommand:
    def test_default_passes(self, capsys):
        assert main(["grad-check", "--tol", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "full_loss_graph" in out
        assert "gradient suite: pass" in out

    def test_out_holds_the_printed_cases_and_the_config_echo(self, tmp_path, capsys):
        out = tmp_path / "gc"
        assert main(["grad-check", "--seed", "3", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1] == "gradient suite: pass"
        assert (out / "grad_check.txt").read_text().splitlines() == printed[:-1]
        assert json.loads((out / "config.resolved.json").read_text())["seed"] == 3

    def test_every_primitive_has_a_case(self):
        # a case named after each primitive op, whose graph really runs that op
        not_ops = {"GraphError", "Tensor", "ParamSet", "constant", "backward", "evaluate_with_gradients",
                   "grad_check", "GradCheckReport"}
        cases = {}
        for name, graph, arrays in cli._primitive_check_graphs(np.random.default_rng(0)):
            params = dc.ParamSet()
            for pname, arr in arrays.items():
                params.add(pname, arr)
            ops, stack = set(), [graph(params, [])]
            while stack:
                node = stack.pop()
                ops.add(node.op)
                stack.extend(node.parents)
            cases[name] = ops
        for op in sorted(set(dc.__all__) - not_ops):
            assert op in cases, f"run_gradient_suite has no {op} case"
            assert op in cases[op], f"the {op} case does not run {op}"


class TestDivergence:
    def test_train_writes_snapshot_without_warnings(self, tmp_path, capsys):
        cfg = micro_config(tmp_path)
        assert main(["gen-data", "--config", str(cfg), "--seed", "2", "--out", str(tmp_path / "d")]) == 0
        out = tmp_path / "ck"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--config", str(cfg), "--set", "train.learning_rate=1e12",
                       "--data", str(tmp_path / "d"), "--out", str(out)])
        assert rc == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        path = tmp_path / "ck.failed" / "divergence.json"
        assert str(path) in capsys.readouterr().err
        snapshot = json.loads(path.read_text(), parse_constant=pytest.fail)  # strict: no NaN/Infinity tokens
        assert {"epoch", "step", "slide_id", "loss", "param_norms"} <= set(snapshot)
        assert snapshot["loss"] in ("nan", "inf", "-inf")
        assert not out.exists()


class TestTypedKeys:
    @pytest.mark.parametrize("command, assignment, key", [
        ("train", 'encoder.use_mhsa="no"', "encoder.use_mhsa"),
        ("train", "train.epochs=abc", "train.epochs"),
        ("train", 'train.learning_rate="0.01"', "train.learning_rate"),
        ("gen-data", "data.patch=[3,8]", "data.patch"),
    ])
    def test_wrong_type_rejected_before_any_work(self, pipeline, tmp_path, monkeypatch, capsys,
                                                 command, assignment, key):
        root, cfg = pipeline
        monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("data loaded before the check"))
        monkeypatch.setattr(cli, "synth_generate", lambda *a: pytest.fail("generated before the check"))
        extra = ["--data", str(root / "data")] if command == "train" else []
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--set", assignment, *extra, "--out", str(out)]) == 1
        assert f"config key {key} expects" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("assignment", [
        "train.learning_rate=1", "train.learning_rate=0.5", "eval.clusters=null", "eval.clusters=3",
        "encoder.conv_channels=[]", "encoder.conv_channels=[4,8,16,32]", "data.patch=[1,4,4]",
        "encoder.use_mhsa=false", "seed=12",
    ])
    def test_well_typed_values_accepted(self, assignment):
        cli.resolve_config(Namespace(config=None, set=[assignment], seed=None))

    @pytest.mark.parametrize("assignment", [
        "train.epochs=true", "train.epochs=3.0", "seed=1.5", "eval.clusters=true", "eval.clusters=[3]",
        "encoder.use_mhsa=1", "encoder.conv_channels=6", "encoder.conv_channels=[4,8.5]",
        "encoder.conv_channels=[true]", "data.patch=[3,8,8,8]", "data.signal=true", "data.signal=[1]",
    ])
    def test_ill_typed_values_rejected(self, assignment):
        with pytest.raises(cli.ValidationError, match="expects"):
            cli.resolve_config(Namespace(config=None, set=[assignment], seed=None))

    def test_config_file_values_are_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"batch_size": "64"}}))
        with pytest.raises(cli.ValidationError, match="train.batch_size"):
            cli.resolve_config(Namespace(config=str(path), set=None, seed=None))

    def test_zero_epochs_rejected_and_no_output(self, pipeline, tmp_path):
        root, cfg = pipeline
        out = tmp_path / "ck"
        rc = main(["train", "--config", str(cfg), "--set", "train.epochs=0",
                   "--data", str(root / "data"), "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-*"))

    @pytest.mark.parametrize("assignment, message", [
        ("train.epochs=0", "config key train: TrainConfig: epochs must be >= 1"),
        ("encoder.n_heads=3", "config key encoder: EncoderConfig: hvg_num=8 must be divisible by n_heads=3"),
    ])
    def test_value_the_config_refuses_names_its_section(self, pipeline, tmp_path, capsys, assignment, message):
        root, cfg = pipeline
        out = tmp_path / "ck"
        assert main(["train", "--config", str(cfg), "--set", assignment,
                     "--data", str(root / "data"), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestPreflight:
    """Config values that would fail late, or train silently wrong, exit 1 before the work they would spoil."""

    @pytest.mark.parametrize("assignment, key", [
        ("train.learning_rate=-1", "learning_rate"),
        ("train.learning_rate=0", "learning_rate"),
        ("train.learning_rate=NaN", "learning_rate"),
        ("train.beta1=1", "beta1"),
        ("train.beta2=-0.1", "beta2"),
        ("train.beta2=NaN", "beta2"),
        ("train.epsilon=0", "epsilon"),
        ("train.temperature=NaN", "temperature"),
        ("train.temperature=Infinity", "temperature"),
        ("train.learning_rate=Infinity", "learning_rate"),
    ])
    def test_optimizer_bounds(self, pipeline, tmp_path, capsys, monkeypatch, assignment, key):
        root, cfg = pipeline
        monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("data loaded before the check"))
        out = tmp_path / "ck"
        assert main(["train", "--config", str(cfg), "--set", assignment, "--data", str(root / "data"),
                     "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_empty_conv_stack_rejected_before_preprocess(self, pipeline, tmp_path, capsys, monkeypatch):
        root, cfg = pipeline
        monkeypatch.setattr(cli, "preprocess", lambda *a, **k: pytest.fail("preprocessed before the check"))
        out = tmp_path / "ck"
        assert main(["train", "--config", str(cfg), "--set", "encoder.conv_channels=[]",
                     "--data", str(root / "data"), "--out", str(out)]) == 1
        assert "conv_channels" in capsys.readouterr().err
        assert not out.exists()

    def test_proj_hidden_below_one_rejected_before_preprocess(self, pipeline, tmp_path, capsys, monkeypatch):
        root, cfg = pipeline
        monkeypatch.setattr(cli, "preprocess", lambda *a, **k: pytest.fail("preprocessed before the check"))
        out = tmp_path / "ck"
        assert main(["train", "--config", str(cfg), "--set", "encoder.proj_hidden=0",
                     "--data", str(root / "data"), "--out", str(out)]) == 1
        assert "proj_hidden" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, field, value", [
        ("encoder", "foo", 1),  # no such field
        ("encoder", "attn_residual", False),  # retired: only true is implemented
        ("train", "beta1", 0.8),  # retired: only 0.9 is implemented
    ])
    def test_checkpoint_with_unsupported_field_rejected(self, pipeline, tmp_path, capsys,
                                                        section, field, value):
        root, cfg = pipeline
        ck = tmp_path / "ck"
        shutil.copytree(root / "ck", ck)
        manifest = json.loads((ck / "manifest.json").read_text())
        manifest[section][field] = value
        (ck / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "idx"
        assert main(["embed", "--config", str(cfg), "--checkpoint", str(ck), "--data", str(root / "data"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{section}.{field}" in err and str(ck / "manifest.json") in err
        assert not out.exists()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda entries: entries[1].update(offset=entries[1]["offset"] + 4), "do not tile the blob at"),
        (lambda entries: entries.pop(), "do not tile the blob exactly"),
    ], ids=["shifted-offset", "dropped-entry"])
    def test_checkpoint_with_untiled_offsets_names_the_manifest(self, pipeline, tmp_path, capsys,
                                                                corrupt, message):
        root, cfg = pipeline
        ck = tmp_path / "ck"
        shutil.copytree(root / "ck", ck)
        manifest = json.loads((ck / "manifest.json").read_text())
        corrupt(manifest["params"]["entries"])
        (ck / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "idx"
        assert main(["embed", "--config", str(cfg), "--checkpoint", str(ck), "--data", str(root / "data"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and str(ck / "manifest.json") in err
        assert not out.exists()

    @pytest.mark.parametrize("use_positional, rc", [("true", 1), ("false", 2)])
    def test_positional_table_smaller_than_coordinates(self, pipeline, tmp_path, capsys, monkeypatch,
                                                       use_positional, rc):
        root, cfg = pipeline

        def preprocess(*args, **kwargs):
            raise RuntimeError("preprocess reached")

        monkeypatch.setattr(cli, "preprocess", preprocess)
        monkeypatch.setattr(cli, "fit", lambda *a, **k: pytest.fail("fit called before the check"))
        out = tmp_path / "ck"
        assert main(["train", "--config", str(cfg), "--set", "encoder.n_positions=4",
                     "--set", f"encoder.use_positional={use_positional}",
                     "--data", str(root / "data"), "--out", str(out)]) == rc
        err = capsys.readouterr().err
        assert ("config key encoder.n_positions=4" in err) == (rc == 1)  # the table is unused without it
        assert ("preprocess reached" in err) == (rc == 2)
        assert not out.exists()

    @pytest.mark.parametrize("assignment, key", [
        ("eval.clusters=0", "eval.clusters"),
        ("eval.clusters=-2", "eval.clusters"),
        ("eval.pca_components=0", "eval.pca_components"),
    ])
    def test_eval_settings_checked_before_the_checkpoint_loads(self, pipeline, tmp_path, capsys, monkeypatch,
                                                                assignment, key):
        root, cfg = pipeline
        monkeypatch.setattr(cli, "load_checkpoint", lambda *a: pytest.fail("checkpoint loaded before the check"))
        monkeypatch.setattr(cli.ev, "compute_metrics", lambda *a, **k: pytest.fail("metrics computed"))
        out = tmp_path / "ev"
        assert main(["eval", "--config", str(cfg), "--set", assignment, "--pred", str(root / "pred"),
                     "--slide", str(root / "data" / "slide_001"), "--checkpoint", str(root / "ck"),
                     "--out", str(out)]) == 1
        assert f"config key {key}" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-*"))

    @pytest.mark.parametrize("clusters, rc", [(25, 1), (24, 0)])  # slide_001 keeps all of its 24 spots
    def test_eval_clusters_above_the_spot_count_rejected_before_anything_is_staged(self, pipeline, tmp_path, capsys,
                                                                                   monkeypatch, clusters, rc):
        root, cfg = pipeline
        if rc == 1:
            monkeypatch.setattr(cli.ev, "compute_metrics", lambda *a, **k: pytest.fail("metrics computed"))
        out = tmp_path / "ev"
        assert main(["eval", "--config", str(cfg), "--set", f"eval.clusters={clusters}", "--pred", str(root / "pred"),
                     "--slide", str(root / "data" / "slide_001"), "--checkpoint", str(root / "ck"),
                     "--out", str(out)]) == rc
        assert (f"config key eval.clusters={clusters} exceeds the 24 spots" in capsys.readouterr().err) == (rc == 1)
        assert out.exists() == (rc == 0)
        assert not list(tmp_path.glob(".tmp-*"))

    @pytest.mark.parametrize("command, zeroed", [
        (["loocv", "--set", "inference.k=0"], None),
        (["loocv", "--set", "inference.k=25"], None),  # each fold trains on the other slide's 24 spots
        (["loocv", "--set", "inference.k=24"], 3),  # preprocessing drops that spot of slide_000: one fold has 23
        (["ablate", "--toggles", "no_mhsa", "--k-sweep", "1,999"], None),
    ])
    def test_k_checked_before_the_first_fold_trains(self, pipeline, tmp_path, capsys, monkeypatch, command, zeroed):
        root, cfg = pipeline
        data = root / "data"
        if zeroed is not None:
            data = tmp_path / "data"
            shutil.copytree(root / "data", data)
            slide = load_dataset(data)[0]
            slide.expression[zeroed] = 0.0
            save_slide(slide, data / slide.slide_id)
        monkeypatch.setattr(cli.ev, "fit", lambda *a, **k: pytest.fail("a fold trained before k was checked"))
        out = tmp_path / "out"
        assert main([*command, "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 1
        assert "k=" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["loocv"], ["ablate", "--toggles", "no_mhsa"]])
    def test_batch_size_checked_against_every_slide_before_the_first_fold_trains(self, pipeline, tmp_path, capsys,
                                                                                 monkeypatch, command):
        root, cfg = pipeline
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        slide = load_dataset(data)[0]
        slide.expression[:17] = 0.0  # 7 spots kept, below the batch of 8; only the last fold trains on slide_000
        save_slide(slide, data / slide.slide_id)
        monkeypatch.setattr(cli.ev, "fit", lambda *a, **k: pytest.fail("a fold trained before the batch was checked"))
        out = tmp_path / "out"
        assert main([*command, "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 1
        assert "batch_size=8 exceeds the kept spot count of ['slide_000']" in capsys.readouterr().err
        assert not out.exists()

    def test_two_directories_with_one_slide_id_rejected(self, pipeline, tmp_path, capsys):
        root, cfg = pipeline
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        shutil.copytree(data / "slide_001", data / "slide_001b")
        out = tmp_path / "out"
        assert main(["loocv", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 1
        assert f"{data / 'slide_001'} and {data / 'slide_001b'} both hold slide_id 'slide_001'" in capsys.readouterr().err
        assert not out.exists()

    def test_embed_refuses_data_without_every_training_slide(self, pipeline, tmp_path, capsys):
        root, cfg = pipeline
        ck = tmp_path / "ck"  # trained on both slides
        assert main(["train", "--config", str(cfg), "--data", str(root / "data"), "--out", str(ck)]) == 0
        data = tmp_path / "data"
        shutil.copytree(root / "data" / "slide_000", data / "slide_000")
        out = tmp_path / "idx"
        assert main(["embed", "--config", str(cfg), "--checkpoint", str(ck), "--data", str(data),
                     "--out", str(out)]) == 1
        assert "lacks the checkpoint's training slides ['slide_001']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("hvg_num", [0, -4])
    @pytest.mark.parametrize("command", ["train", "loocv"])
    def test_hvg_num_below_one_rejected_before_preprocess(self, pipeline, tmp_path, capsys, monkeypatch,
                                                          command, hvg_num):
        root, cfg = pipeline
        for module in (cli, cli.ev):
            monkeypatch.setattr(module, "preprocess", lambda *a, **k: pytest.fail("preprocessed before the check"))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--set", f"data.hvg_num={hvg_num}",
                     "--data", str(root / "data"), "--out", str(out)]) == 1
        assert f"hvg_num={hvg_num}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["ablate", "--toggles", "no_image_path"],
        ["train", "--set", "encoder.image_identity=true"],
    ])
    def test_image_identity_on_features_rejected_before_preprocess(self, features_data, tmp_path, capsys,
                                                                   monkeypatch, command):
        data, cfg = features_data
        for module in (cli, cli.ev):
            monkeypatch.setattr(module, "preprocess", lambda *a, **k: pytest.fail("preprocessed before the check"))
        out = tmp_path / "out"
        assert main([*command, "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 1
        assert "image_identity" in capsys.readouterr().err
        assert not out.exists()


# Every key --set/--config accepts, each with a valid value that differs from its default.
CHANGED_VALUES = {
    "seed": 3,
    "data.slides": 2, "data.spots_per_slide": 24, "data.gene_num": 24, "data.domains": 3,
    "data.signal": 0.5, "data.patch": [3, 8, 8], "data.coord_max": 64, "data.library_size": 1000,
    "data.hvg_num": 8,
    "encoder.d_embed": 16, "encoder.n_heads": 2, "encoder.n_positions": 512,  # above every coordinate
    "encoder.conv_channels": [6], "encoder.proj_hidden": 16, "encoder.use_positional": False,
    "encoder.use_mhsa": False, "encoder.image_identity": True,
    "train.batch_size": 8, "train.epochs": 3, "train.learning_rate": 2e-3, "train.temperature": 0.1,
    "inference.k": 5,
    "eval.pca_components": 10, "eval.clusters": 7,
}


class _Reached(Exception):
    """Raised by a stubbed consumer once it has recorded what it was given."""


class TestSchema:
    def test_accepted_keys(self):
        assert set(cli.SCHEMA) == set(CHANGED_VALUES)

    def test_every_field_has_exactly_one_key(self):
        derived = {(EncoderConfig, n) for n in ("hvg_num", "input_kind", "patch_shape", "input_feat_dim")}
        derived.add((TrainConfig, "seed"))
        owned = [(key.owner, key.field) for key in cli.SCHEMA.values() if key.owner is not None]
        for cls in (GenConfig, EncoderConfig, TrainConfig):
            for f in dataclasses.fields(cls):
                want = 0 if (cls, f.name) in derived else 1
                assert owned.count((cls, f.name)) == want, f"{cls.__name__}.{f.name}"

    def test_defaults_are_the_dataclass_defaults(self):
        config = cli.default_config()
        assert cli.config_object(config, GenConfig) == GenConfig()
        assert cli.config_object(config, TrainConfig, seed=config["seed"]) == TrainConfig()
        inputs = {"hvg_num": 64, "input_kind": "pixels", "patch_shape": (3, 32, 32), "input_feat_dim": None}
        assert cli.config_object(config, EncoderConfig, **inputs) == EncoderConfig(**inputs)

    @pytest.mark.parametrize("dotted", sorted(CHANGED_VALUES))
    def test_set_reaches_its_consumer(self, pipeline, tmp_path, monkeypatch, dotted):
        root, _ = pipeline
        received = {}

        def stub(name):
            def record(*args, **kwargs):
                received[name] = (args, kwargs)
                raise _Reached
            return record

        monkeypatch.setattr(cli, "synth_generate", stub("synth_generate"))
        monkeypatch.setattr(cli.ev, "loocv", stub("loocv"))
        monkeypatch.setattr(cli.ev, "detect_domains", stub("detect_domains"))
        commands = {
            "gen-data": ["gen-data"],
            "loocv": ["loocv", "--data", str(root / "data")],
            "eval": ["eval", "--pred", str(root / "pred"), "--slide", str(root / "data" / "slide_001"),
                     "--checkpoint", str(root / "ck")],
        }

        def consumed(command, *extra):
            """What the consumers of `command` receive, as {name: value}."""
            received.clear()
            assert main([*commands[command], *extra, "--out", str(tmp_path / "out")]) == 2
            if command == "gen-data":
                (gen, seed, _), _ = received["synth_generate"]
                return {**{f"GenConfig.{k}": v for k, v in dataclasses.asdict(gen).items()}, "seed": seed}
            if command == "loocv":
                _, kw = received["loocv"]
                return {**{f"EncoderConfig.{k}": v for k, v in dataclasses.asdict(kw["enc_cfg"]).items()},
                        **{f"TrainConfig.{k}": v for k, v in dataclasses.asdict(kw["train_cfg"]).items()},
                        "hvg_num": kw["hvg_num"], "k": kw["ks"][0]}
            (_, clusters, pca_components, seed), _ = received["detect_domains"]
            return {"clusters": clusters, "pca_components": pca_components, "seed": seed}

        key = cli.SCHEMA[dotted]
        value = CHANGED_VALUES[dotted]
        expected = {
            GenConfig: {"gen-data": {f"GenConfig.{key.field}"}},
            EncoderConfig: {"loocv": {f"EncoderConfig.{key.field}"}},
            TrainConfig: {"loocv": {f"TrainConfig.{key.field}"}},
            None: {
                "seed": {"gen-data": {"seed"}, "loocv": {"TrainConfig.seed"}, "eval": {"seed"}},
                "data.hvg_num": {"loocv": {"hvg_num", "EncoderConfig.hvg_num"}},
                "inference.k": {"loocv": {"k"}},
                "eval.pca_components": {"eval": {"pca_components"}},
                "eval.clusters": {"eval": {"clusters"}},
            }.get(dotted),
        }[key.owner]
        for command, names in expected.items():
            before = consumed(command)
            after = consumed(command, "--set", f"{dotted}={json.dumps(value)}")
            changed = {name for name in before if before[name] != after[name]}
            assert changed == names, f"{dotted} via {command}"
            for name in names:
                assert after[name] == (tuple(value) if isinstance(value, list) else value)


def test_readme_config_example_resolves(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert blocks, "README.md has no JSON config example"
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.json"
        path.write_text(block)
        config = cli.resolve_config(Namespace(config=str(path), set=None, seed=None))
        cli.config_object(config, GenConfig)
        cli.config_object(config, TrainConfig, seed=config["seed"])
