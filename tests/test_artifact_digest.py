"""tools/artifact_digest.py prints one digest per canonical artifact."""

import hashlib
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys

import hyperts

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / \
    "artifact_digest.py"
CELL_FILES = ("best.json", "best_model.json", "cell.json",
              "history_best.csv", "results.ndjson")


def run_script(out):
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(hyperts.__file__).parents[1]))
    return subprocess.run([sys.executable, str(SCRIPT), str(out)], env=env,
                          capture_output=True, text=True, timeout=300)


def expected_paths():
    paths = {f"fixture/{t}.csv" for t in ("T0", "T1", "T2", "T3")}
    paths |= {"fixture/manifest.json", "data/dataset.json", "data/table.csv",
              "report.csv", "report.json",
              "data/correlations/correlation_matrix.csv"}
    paths |= {f"data/correlations/lag_{a}_{b}.csv"
              for a, b in itertools.combinations_with_replacement(
                  ("T0", "T1", "T2", "T3"), 2)}
    cells = ["h", "cnn", "lstm", "h_algebras", "h_resumed", "h_workers"] + [
        f"grid/{label}_w{w}_s{s}" for label in ("CNN", "LSTM", "H", "HR")
        for w in (10, 20) for s in (1, 5)]
    paths |= {f"{cell}/{name}" for cell in cells for name in CELL_FILES}
    return paths


def test_one_digest_per_artifact(tmp_path):
    out = tmp_path / "digest"
    proc = run_script(out)
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
        assert by_path[f"h_resumed/{name}"] == by_path[f"h/{name}"], name
        assert by_path[f"h_workers/{name}"] == by_path[f"h/{name}"], name
    # the resumed run scored only the three configs its ledger lacked
    ledger = (out / "h_resumed" / "progress.ndjson").read_text()
    assert len(ledger.splitlines()) == 6
    specs = [json.loads(line)["spec"] for line in
             (out / "h_algebras" / "results.ndjson").read_text().splitlines()]
    assert len(specs) == 21
    assert {s["test_layer"] for s in specs} == {
        "hyper:1:quaternion", "hyper:1:coquaternion", "hyper:1:cl11"}
    assert {s["n_dense1"] for s in specs} == {0, 1}

    again = run_script(out)
    assert again.returncode == 2 and again.stdout == ""
    assert "is not empty" in again.stderr
