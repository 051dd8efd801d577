"""Digest every canonical artifact of a small, fixed set of hyperts runs.

Usage::

    python tools/artifact_digest.py OUT_DIR

``OUT_DIR`` must be empty or absent. The script writes a seeded four-ticker
CSV fixture, then runs in this process ``hyperts ingest``, ``correlate``,
single-cell searches, one ``search --all`` grid of 16 cells and its report,
all into ``OUT_DIR``. The single cells are an H, a CNN and an LSTM cell; an
H cell of all three algebras with and without the per-step Dense;
``h_resumed``, the H cell again, stopped after three configs and then
resumed from its ledger; ``h_workers``, the H cell scored by two worker
processes; ``h_rerun``, the H cell searched twice, the second run
reusing the first one's winner; and ``cnn_s5``, one bare CNN-32 at
window 40, span 5. The files of ``h_resumed``, ``h_workers`` and
``h_rerun`` must equal those of ``h``. The winners of ``h``, ``cnn``,
``lstm``, ``h_algebras`` and ``cnn_s5`` then predict 600 seeded windows
into each cell's ``predictions.csv``: more than ``model.INFER_ROWS``, so
the digests cover an inference pass run in parts. The final Dense of
``cnn_s5``'s winner reads 608 features, and for it those parts differ
from one pass over all 600 windows in the last bits, so a change to how
inference is cut shows in its digest. Cross-validation trains the
folds of one training-set size as one stacked model when the spec is
within ``search.STACK_LIMITS``: every window-10 single cell's 152 CV
windows give training sets of 136 and 137 (two stacks), and so do the
grid's CNN and LSTM cells but those at window 20, span 5 (140 windows,
one stack); the grid's H and HR cells at window 20 and ``cnn_s5`` fit
each fold alone. So both stacking cases reach the digests for every
class, and so does the per-fold path. It prints one
``sha256  relative/path`` line per file written, sorted by path, except the
two files that are not canonical artifacts: ``progress.ndjson`` (the resume
ledger, whose records also hold each config's seconds and the run's stamp)
and ``best.stamp`` (the cache key of the winner's files, not a result).
The CLI's own messages go to standard error.

Two builds of the package produce the same artifacts exactly when the
printed digests are equal. Since ingest records the fixture's paths, run
both at the same ``OUT_DIR``, importing each build in turn::

    PYTHONPATH=a/src python tools/artifact_digest.py /tmp/digest > a.txt
    rm -rf /tmp/digest
    PYTHONPATH=b/src python tools/artifact_digest.py /tmp/digest > b.txt
    diff a.txt b.txt

A change that reorders a floating-point sum moves numbers by an ulp or so
and changes bytes. For such a change, compare the two output directories
value by value instead (move each away from ``OUT_DIR`` after its run)::

    python tools/artifact_digest.py --compare A_DIR B_DIR

This passes, with exit code 0, when both hold the same canonical files,
every ``best.json`` names the same winner ``spec``, all text other than
numbers is identical, and every number ``a`` in one matches its ``b`` in
the other within ``|a - b| <= 1e-9 * max(|a|, |b|)``. Otherwise it names
the first offending file and field and exits with 1. JSON and NDJSON files
are compared as parsed documents, CSV files cell by cell (comment lines
as text), and any other file byte for byte.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import json
import math
import pathlib
import re
import sys

import numpy as np

TICKERS = ("T0", "T1", "T2", "T3")
ROWS = 200
SEED = 7

# (output directory, --class, extra flags); a directory named twice is
# searched twice, the second run resuming from the first one's ledger
SINGLE_CELLS = (
    ("h", "h", ["--max-configs", "6"]),
    ("cnn", "cnn", ["--sizes", "8", "--max-configs", "4"]),
    ("lstm", "lstm", ["--sizes", "8", "--max-configs", "4"]),
    ("h_algebras", "h", ["--sizes", "1", "--dense-units", "8"]),
    ("h_resumed", "h", ["--max-configs", "3"]),
    ("h_resumed", "h", ["--max-configs", "6"]),
    ("h_workers", "h", ["--max-configs", "6", "--workers", "2"]),
    ("h_rerun", "h", ["--max-configs", "6"]),
    ("h_rerun", "h", ["--max-configs", "6"]),
    ("cnn_s5", "cnn", ["--window", "40", "--span", "5", "--sizes", "32",
                       "--max-configs", "1"]),
)
# single cells whose winner predicts PREDICT_WINDOWS seeded windows
PREDICT_CELLS = ("h", "cnn", "lstm", "h_algebras", "cnn_s5")
PREDICT_WINDOWS = 600
# files under a cell that are no canonical artifact (see the docstring)
NOT_CANONICAL = ("progress.ndjson", "best.stamp")
GRID = ["--windows", "10,20", "--spans", "1,5", "--sizes", "8",
        "--dense-units", "32", "--max-configs", "2", "--epochs", "1"]
REL_TOL = 1e-9
# a CSV cell that is one number, as str() writes an int or repr() a float
NUMBER_RE = re.compile(r"-?(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|-?inf|nan")


def write_fixture(out: pathlib.Path) -> pathlib.Path:
    """Four price-like CSV exports whose first column lags a mixture of the
    other three; returns the ingest manifest."""
    rng = np.random.default_rng(SEED)
    t = np.arange(ROWS + 2, dtype=np.float64)
    drivers = np.column_stack([
        np.sin(2 * np.pi * t / 47) + 0.3 * rng.normal(size=t.size),
        np.cos(2 * np.pi * t / 71) + 0.3 * rng.normal(size=t.size),
        np.sin(2 * np.pi * t / 29 + 1.0) + 0.3 * rng.normal(size=t.size)])
    target = (0.8 * drivers[1:-1, 0] - 0.5 * drivers[:-2, 1]
              + 0.6 * drivers[1:-1, 2] + 0.1 * rng.normal(size=ROWS))
    prices = 50.0 + 5.0 * np.column_stack([target, drivers[2:]])
    start = datetime.date(2015, 1, 1)
    dates = [start + datetime.timedelta(days=i) for i in range(ROWS)]
    paths = {}
    for j, name in enumerate(TICKERS):
        path = out / f"{name}.csv"
        with open(path, "w") as fh:
            fh.write("Date,Open,High,Low,Close,Adj Close,Volume\n")
            for day, px in zip(dates, prices[:, j].tolist()):
                fh.write(f"{day.isoformat()},{px!r},{px!r},{px!r},{px!r},"
                         f"{px!r},1000\n")
        paths[name] = str(path)
    manifest = out / "manifest.json"
    with open(manifest, "w") as fh:
        json.dump({"tickers": paths, "order": list(TICKERS),
                   "target": TICKERS[0]}, fh, sort_keys=True)
    return manifest


def write_predictions(cell: pathlib.Path) -> None:
    """The cell winner's inference-mode predictions of ``PREDICT_WINDOWS``
    seeded standard-normal windows, one ``repr`` row per window, as
    ``cell/predictions.csv``."""
    from hyperts.model import load_model

    model = load_model(cell / "best_model.json")
    x = np.random.default_rng(SEED).normal(
        size=(PREDICT_WINDOWS, model.spec.window, 4))
    pred = model.forward(x, training=False)
    with open(cell / "predictions.csv", "w") as fh:
        fh.write(",".join(f"y{j}" for j in range(pred.shape[1])) + "\n")
        for row in pred.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def run_all(out: pathlib.Path) -> None:
    """Write the fixture and every run's artifacts under ``out``."""
    # imported here so that --compare runs without a build on the path
    from hyperts import cli

    fixture = out / "fixture"
    fixture.mkdir(parents=True)
    data = out / "data"
    commands = [["ingest", "--manifest", write_fixture(fixture),
                 "--out", data],
                ["correlate", "--data", data]]
    for name, klass, extra in SINGLE_CELLS:
        commands.append(["search", "--class", klass, "--data", data,
                         "--out", out / name, "--epochs", "2",
                         "--seed", "3"] + extra)
    commands.append(["search", "--all", "--data", data, "--out",
                     out / "grid", "--seed", "3"] + GRID)
    commands.append(["report", "--in", out / "grid",
                     "--out", out / "report.csv"])
    with contextlib.redirect_stdout(sys.stderr):
        for argv in commands:
            if cli.main([str(a) for a in argv]) != 0:
                raise SystemExit(f"hyperts {argv[0]} failed")
    for name in PREDICT_CELLS:
        write_predictions(out / name)


def canonical_files(out: pathlib.Path) -> list[str]:
    """Relative paths of every file under ``out`` except the resume
    ledgers and winner stamps, sorted."""
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                  if p.is_file() and p.name not in NOT_CANONICAL)


def digests(out: pathlib.Path) -> list[str]:
    """``sha256  relative/path`` of every canonical file under ``out``."""
    return [f"{hashlib.sha256((out / rel).read_bytes()).hexdigest()}  {rel}"
            for rel in canonical_files(out)]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _close(a: float, b: float) -> bool:
    if math.isfinite(a) and math.isfinite(b):
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return a == b or (math.isnan(a) and math.isnan(b))


def compare_values(a, b, field: str) -> str | None:
    """None when the parsed documents ``a`` and ``b`` agree (equal text and
    structure, numbers within ``REL_TOL``), else what differs first and at
    which field."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return f"{field or 'keys'}: keys {list(a)} vs {list(b)}"
        for key in a:
            found = compare_values(a[key], b[key],
                                   f"{field}.{key}" if field else key)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{field or 'items'}: {len(a)} vs {len(b)} items"
        for i, (x, y) in enumerate(zip(a, b)):
            found = compare_values(x, y, f"{field}[{i}]")
            if found:
                return found
        return None
    if _is_number(a) and _is_number(b):
        return None if _close(a, b) else f"{field}: {a!r} vs {b!r}"
    return None if a == b else f"{field}: {a!r} vs {b!r}"


def _csv_cell(text: str):
    return float(text) if NUMBER_RE.fullmatch(text) else text


def compare_files(a: pathlib.Path, b: pathlib.Path) -> str | None:
    """None when two same-named artifacts agree at value level, else the
    first offending field. JSON is compared as a parsed document (and a
    ``best.json`` first by its winner ``spec``), NDJSON line by line, CSV
    cell by cell (comment lines as text), anything else byte for byte."""
    if a.suffix == ".json":
        doc_a, doc_b = json.loads(a.read_text()), json.loads(b.read_text())
        if a.name == "best.json" and doc_a.get("spec") != doc_b.get("spec"):
            return (f"spec: winner {doc_a.get('spec')} vs"
                    f" {doc_b.get('spec')}")
        return compare_values(doc_a, doc_b, "")
    if a.suffix not in (".ndjson", ".csv"):
        return None if a.read_bytes() == b.read_bytes() else "bytes differ"
    lines_a, lines_b = a.read_text().splitlines(), b.read_text().splitlines()
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} vs {len(lines_b)} lines"
    for i, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if a.suffix == ".ndjson":
            found = compare_values(json.loads(x), json.loads(y), "")
        elif x.startswith("#") or y.startswith("#"):
            found = None if x == y else f"{x!r} vs {y!r}"
        else:
            found = compare_values([_csv_cell(c) for c in x.split(",")],
                                   [_csv_cell(c) for c in y.split(",")],
                                   "cells")
        if found:
            return f"line {i}: {found}"
    return None


def compare_dirs(a: pathlib.Path, b: pathlib.Path) -> str | None:
    """None when the artifacts under ``a`` and ``b`` agree at value level
    (see the module docstring), else the first offending file and field."""
    files = canonical_files(a)
    others = canonical_files(b)
    if files != others:
        only = min(set(files) ^ set(others))
        return f"{only}: only under {a if only in files else b}"
    for rel in files:
        found = compare_files(a / rel, b / rel)
        if found:
            return f"{rel}: {found}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        a, b = (pathlib.Path(d) for d in argv[1:])
        found = compare_dirs(a, b)
        if found:
            print(f"differ: {found}")
            return 1
        print(f"{len(canonical_files(a))} files agree: same winners, numbers"
              f" within {REL_TOL:g} relative")
        return 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/artifact_digest.py OUT_DIR\n"
              "       python tools/artifact_digest.py --compare A_DIR B_DIR",
              file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        # Searches resume from ledgers they find, so reusing a directory
        # would digest another run's scores.
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    run_all(out)
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
