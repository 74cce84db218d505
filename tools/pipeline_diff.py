#!/usr/bin/env python3
"""Run the micro-config pipeline on a revision's src/ and on the working tree's, and diff what each wrote.

    python tools/pipeline_diff.py REV

REV is any git revision, e.g. HEAD~1. Each side runs every stexp command once, with one BLAS thread, from the
same config and seed: gen-data, train --holdout slide_001, embed, predict, eval, loocv, ablate (all three
toggles and --k-sweep 1,5) and grad-check --out. The script prints `diff -r` of the two output trees and the
diffs of the commands' stdout and stderr (log lines and warnings), and exits 0 only when all three are identical.
For each float32 blob (`.f32`) that differs between the trees it also prints the element count, how many elements
differ and the largest |a - b|, so a change of summation order can be told from a bug at a glance. For each `.json`
file that differs it prints the dotted keys removed and added and how many other values changed, so a format change
reads as one line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
SEED = "7"
# tests/test_cli.py's micro_config
MICRO_CONFIG = {
    "data": {"slides": 2, "spots_per_slide": 24, "gene_num": 24, "domains": 3,
             "patch": [3, 8, 8], "hvg_num": 8},
    "encoder": {"d_embed": 16, "n_heads": 2, "conv_channels": [6], "proj_hidden": 16},
    "train": {"batch_size": 8, "epochs": 3, "temperature": 0.1, "learning_rate": 2e-3},
    "inference": {"k": 5},
}
COMMANDS = [
    ["gen-data", "--out", "data"],
    ["train", "--data", "data", "--holdout", "slide_001", "--out", "ck"],
    ["embed", "--checkpoint", "ck", "--data", "data", "--out", "idx"],
    ["predict", "--checkpoint", "ck", "--index", "idx", "--slide", "data/slide_001", "--out", "pred"],
    ["eval", "--pred", "pred", "--slide", "data/slide_001", "--checkpoint", "ck", "--out", "ev"],
    ["loocv", "--data", "data", "--out", "cv"],
    ["ablate", "--data", "data", "--toggles", "no_positional_encoding,no_mhsa,no_image_path",
     "--k-sweep", "1,5", "--out", "ab"],
]


def run_pipeline(src: Path, side: Path) -> None:
    """Every command against `src`, its outputs under side/out and their stdout and stderr in side/stdout.txt and
    side/stderr.txt."""
    out = side / "out"
    out.mkdir(parents=True)
    (out / "config.json").write_text(json.dumps(MICRO_CONFIG))
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    argvs = [[*cmd[:1], "--config", "config.json", "--seed", SEED, *cmd[1:]] for cmd in COMMANDS]
    argvs.append(["grad-check", "--seed", SEED, "--out", "gc"])
    logs = {"stdout": [], "stderr": []}
    for argv in argvs:
        done = subprocess.run([sys.executable, "-m", "stexp.cli", *argv], cwd=out, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for stream, log in logs.items():
            log.append(f"$ stexp {' '.join(argv)}\n{getattr(done, stream)}exit {done.returncode}\n")
    for stream, log in logs.items():
        (side / f"{stream}.txt").write_text("".join(log))


def blob_differences(a: Path, b: Path) -> list[str]:
    """One line per .f32 file under both a and b whose bytes differ: its size and how far its values moved."""
    lines = []
    for path_a in sorted(a.rglob("*.f32")):
        rel = path_a.relative_to(a)
        path_b = b / rel
        if not path_b.exists() or path_a.read_bytes() == path_b.read_bytes():
            continue
        va, vb = np.fromfile(path_a, dtype="<f4"), np.fromfile(path_b, dtype="<f4")
        if va.size != vb.size:
            lines.append(f"{rel}: {va.size} elements against {vb.size}")
            continue
        differ = va.view(np.uint32) != vb.view(np.uint32)
        largest = np.abs(va[differ].astype(np.float64) - vb[differ]).max()
        lines.append(f"{rel}: {va.size} elements, {int(differ.sum())} differ, max |a - b| {largest:.3g}")
    return lines


def _compare(x, y, prefix: str = "") -> tuple[list[str], list[str], int]:
    """The dotted keys only JSON value x holds, those only y holds, and how many of the other values differ; list items
    are keyed by position when both lists have one length."""
    if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        x, y = dict(enumerate(x)), dict(enumerate(y))
    if not (isinstance(x, dict) and isinstance(y, dict)):
        return [], [], int(x != y)
    removed = [f"{prefix}{key}" for key in x if key not in y]
    added = [f"{prefix}{key}" for key in y if key not in x]
    changed = 0
    for key in x:
        if key in y:
            inner = _compare(x[key], y[key], f"{prefix}{key}.")
            removed, added, changed = removed + inner[0], added + inner[1], changed + inner[2]
    return removed, added, changed


def json_differences(a: Path, b: Path) -> list[str]:
    """One line per .json file under both a and b whose bytes differ: the keys removed and added, the values changed."""
    lines = []
    for path_a in sorted(a.rglob("*.json")):
        rel = path_a.relative_to(a)
        path_b = b / rel
        if not path_b.exists() or path_a.read_bytes() == path_b.read_bytes():
            continue
        removed, added, changed = _compare(json.loads(path_a.read_text()), json.loads(path_b.read_text()))
        parts = [f"{verb} {', '.join(keys)}" for verb, keys in (("removed", removed), ("added", added)) if keys]
        parts += [f"{changed} values changed"] if changed else []
        lines.append(f"{rel}: {'; '.join(parts) or 'same values, other bytes'}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="pipeline-diff-") as tmp:
        tmp = Path(tmp)
        (tmp / "rev").mkdir()
        archive = subprocess.run(["git", "-C", str(REPO), "archive", argv[0], "src"], stdout=subprocess.PIPE)
        if archive.returncode != 0:
            return 2
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive.stdout, check=True)
        run_pipeline(tmp / "rev" / "src", tmp / "a")
        run_pipeline(REPO / "src", tmp / "b")
        identical = True
        print(f"a/ is {argv[0]}, b/ the working tree")
        for what in ("out", "stdout.txt", "stderr.txt"):
            diff = subprocess.run(["diff", "-r", f"a/{what}", f"b/{what}"], cwd=tmp, stdout=subprocess.PIPE, text=True)
            print(diff.stdout, end="")
            identical &= diff.returncode == 0
        out_a, out_b = tmp / "a" / "out", tmp / "b" / "out"
        for line in blob_differences(out_a, out_b) + json_differences(out_a, out_b):
            print(line)
    print("identical" if identical else "outputs differ")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
