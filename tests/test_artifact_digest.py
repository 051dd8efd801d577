"""tools/artifact_digest.py prints one digest per canonical artifact."""

import hashlib
import itertools
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import hyperts

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / \
    "artifact_digest.py"
CELL_FILES = ("best.json", "best_model.json", "cell.json",
              "history_best.csv", "results.ndjson")
# the single cells whose winner predicts 600 seeded windows
PREDICT_CELLS = ("h", "cnn", "lstm", "h_algebras", "cnn_s5")


def run_script(*args):
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(hyperts.__file__).parents[1]))
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture(scope="module")
def digest_run(tmp_path_factory):
    """One run of the script: its output directory and finished process."""
    out = tmp_path_factory.mktemp("artifacts") / "digest"
    return out, run_script(out)


def expected_paths():
    paths = {f"fixture/{t}.csv" for t in ("T0", "T1", "T2", "T3")}
    paths |= {"fixture/manifest.json", "data/dataset.json", "data/table.csv",
              "report.csv", "report.json",
              "data/correlations/correlation_matrix.csv"}
    paths |= {f"data/correlations/lag_{a}_{b}.csv"
              for a, b in itertools.combinations_with_replacement(
                  ("T0", "T1", "T2", "T3"), 2)}
    cells = ["h", "cnn", "lstm", "h_algebras", "h_resumed", "h_workers",
             "h_rerun", "cnn_s5"] + [
        f"grid/{label}_w{w}_s{s}" for label in ("CNN", "LSTM", "H", "HR")
        for w in (10, 20) for s in (1, 5)]
    paths |= {f"{cell}/{name}" for cell in cells for name in CELL_FILES}
    paths |= {f"{cell}/predictions.csv" for cell in PREDICT_CELLS}
    return paths


def test_one_digest_per_artifact(digest_run):
    out, proc = digest_run
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    paths = [line.split("  ", 1)[1] for line in lines]
    assert paths == sorted(expected_paths())
    digest, path = lines[0].split("  ", 1)
    assert digest == hashlib.sha256((out / path).read_bytes()).hexdigest()
    assert (out / "h" / "progress.ndjson").exists()

    by_path = {p: d for d, p in (line.split("  ", 1) for line in lines)}
    for name in CELL_FILES:
        for cell in ("h_resumed", "h_workers", "h_rerun"):
            assert by_path[f"{cell}/{name}"] == by_path[f"h/{name}"], name
    # the resumed run scored only the three configs its ledger lacked, and
    # the rerun none
    for cell in ("h_resumed", "h_rerun"):
        ledger = (out / cell / "progress.ndjson").read_text()
        assert len(ledger.splitlines()) == 6, cell
    assert (out / "h_rerun" / "best.stamp").exists()
    specs = [json.loads(line)["spec"] for line in
             (out / "h_algebras" / "results.ndjson").read_text().splitlines()]
    assert len(specs) == 21
    assert {s["test_layer"] for s in specs} == {
        "hyper:1:quaternion", "hyper:1:coquaternion", "hyper:1:cl11"}
    assert {s["n_dense1"] for s in specs} == {0, 1}
    for cell in PREDICT_CELLS:
        span = json.loads((out / cell / "cell.json").read_text())["span"]
        rows = (out / cell / "predictions.csv").read_text().splitlines()
        assert rows[0] == ",".join(f"y{j}" for j in range(span)), cell
        assert len(rows) == 601, cell
        assert all(math.isfinite(float(value)) for row in rows[1:]
                   for value in row.split(",")), cell
    assert json.loads((out / "cnn_s5" / "best.json").read_text())["spec"][
        "test_layer"] == "cnn:32"

    again = run_script(out)
    assert again.returncode == 2 and again.stdout == ""
    assert "is not empty" in again.stderr


def edited_copy(out, tmp_path, rel, edit):
    """A copy of the run's directory with ``edit`` applied to one file's
    text."""
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    path = copy / rel
    text = path.read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    return copy


def nudge_holdout(factor):
    def edit(text):
        value = json.loads(text)["holdout_mae"]
        return text.replace(f'"holdout_mae": {value!r}',
                            f'"holdout_mae": {value * factor!r}')
    return edit


class TestCompare:
    def test_directory_agrees_with_itself(self, digest_run):
        out, _ = digest_run
        proc = run_script("--compare", out, out)
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.startswith(f"{len(expected_paths())} files agree")

    def test_number_within_tolerance_agrees(self, digest_run, tmp_path):
        out, _ = digest_run
        copy = edited_copy(out, tmp_path, "h/best.json",
                           nudge_holdout(1 + 1e-12))
        proc = run_script("--compare", out, copy)
        assert proc.returncode == 0, proc.stdout

    def test_number_beyond_tolerance_named(self, digest_run, tmp_path):
        out, _ = digest_run
        copy = edited_copy(out, tmp_path, "h/best.json",
                           nudge_holdout(1 + 1e-6))
        proc = run_script("--compare", out, copy)
        assert proc.returncode == 1
        assert proc.stdout.startswith("differ: h/best.json: holdout_mae: ")

    def test_changed_winner_named(self, digest_run, tmp_path):
        out, _ = digest_run
        copy = edited_copy(out, tmp_path, "cnn/best.json",
                           lambda text: text.replace('"seed": 3', '"seed": 4'))
        proc = run_script("--compare", out, copy)
        assert proc.returncode == 1
        assert proc.stdout.startswith("differ: cnn/best.json: spec: winner ")

    def test_csv_cell_and_missing_file_named(self, digest_run, tmp_path):
        out, _ = digest_run
        copy = edited_copy(out, tmp_path, "h/history_best.csv",
                           lambda text: text.replace("\n1,", "\n1,9", 1))
        proc = run_script("--compare", out, copy)
        assert proc.returncode == 1
        assert proc.stdout.startswith(
            "differ: h/history_best.csv: line 3: cells[1]: ")
        (copy / "lstm" / "cell.json").unlink()
        proc = run_script("--compare", out, copy)
        assert proc.stdout == f"differ: lstm/cell.json: only under {out}\n"
