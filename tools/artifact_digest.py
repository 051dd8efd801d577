"""Digest every canonical artifact of a small, fixed set of hyperts runs.

Usage::

    python tools/artifact_digest.py OUT_DIR

``OUT_DIR`` must be empty or absent. The script writes a seeded four-ticker
CSV fixture, then runs in this process ``hyperts ingest``, ``correlate``,
single-cell searches, one ``search --all`` grid of 16 cells and its report,
all into ``OUT_DIR``. The single cells are an H, a CNN and an LSTM cell; an
H cell of all three algebras with and without the per-step Dense;
``h_resumed``, the H cell again, stopped after three configs and then
resumed from its ledger; and ``h_workers``, the H cell scored by two worker
processes. The files of ``h_resumed`` and ``h_workers`` must equal those of
``h``. It prints one ``sha256  relative/path`` line per file written,
sorted by path, except ``progress.ndjson`` (a timing ledger, not a
canonical artifact). The CLI's own messages go to standard error.

Two builds of the package produce the same artifacts exactly when the
printed digests are equal. Since ingest records the fixture's paths, run
both at the same ``OUT_DIR``, importing each build in turn::

    PYTHONPATH=a/src python tools/artifact_digest.py /tmp/digest > a.txt
    rm -rf /tmp/digest
    PYTHONPATH=b/src python tools/artifact_digest.py /tmp/digest > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import json
import pathlib
import sys

import numpy as np

from hyperts import cli

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
)
GRID = ["--windows", "10,20", "--spans", "1,5", "--sizes", "8",
        "--dense-units", "32", "--max-configs", "2", "--epochs", "1"]


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


def run_all(out: pathlib.Path) -> None:
    """Write the fixture and every run's artifacts under ``out``."""
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


def digests(out: pathlib.Path) -> list[str]:
    """``sha256  relative/path`` of every file under ``out`` except the
    timing ledgers, sorted by path."""
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name == "progress.ndjson":
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(out).as_posix()}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/artifact_digest.py OUT_DIR",
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
