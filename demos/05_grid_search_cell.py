"""One grid-search cell end to end through the CLI: ingest -> correlate ->
search (H and reordered HR) -> report.

Run:  python demos/05_grid_search_cell.py   (a few minutes)
"""

import datetime
import json
import pathlib
import tempfile

import numpy as np

from hyperts.cli import main

rng = np.random.default_rng(3)

# four correlated random-walk "tickers"
n = 420
drivers = rng.normal(size=(3, n)).cumsum(axis=1)
target = 0.7 * drivers[0] - 0.4 * drivers[1] + 0.5 * drivers[2] \
    + rng.normal(scale=0.3, size=n)
cols = {"Copper": 50 + target, "FCX": 30 + drivers[0],
        "CLP": 700 + 20 * drivers[1], "SCCO": 60 + drivers[2]}
with tempfile.TemporaryDirectory(prefix="hyperts_cell_") as tmp:
    workdir = pathlib.Path(tmp)
    start = datetime.date(2015, 1, 1)
    paths = {}
    for name, vals in cols.items():
        p = workdir / f"{name}.csv"
        with open(p, "w") as fh:
            fh.write("Date,Close\n")
            for i, v in enumerate(vals):
                day = start + datetime.timedelta(days=i)
                fh.write(f"{day.isoformat()},{v}\n")
        paths[name] = str(p)
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps({
        "tickers": paths, "order": ["Copper", "FCX", "CLP", "SCCO"],
        "target": "Copper"}))

    data = workdir / "data"
    results = workdir / "results"
    steps = [
        ["ingest", "--manifest", str(manifest), "--out", str(data)],
        ["correlate", "--data", str(data), "--max-lag", "20"],
        ["search", "--class", "h", "--data", str(data), "--window", "10",
         "--span", "1", "--sizes", "1,2", "--algebra", "quaternion",
         "--dense-units", "8", "--epochs", "30", "--seed", "1",
         "--out", str(results / "H_w10_s1")],
        ["search", "--class", "h", "--data", str(data), "--window", "10",
         "--span", "1", "--sizes", "1,2", "--algebra", "quaternion",
         "--dense-units", "8", "--epochs", "30", "--seed", "1",
         "--order", "FCX,CLP,SCCO,Copper",
         "--out", str(results / "HR_w10_s1")],
        ["report", "--in", str(results), "--out", str(workdir / "report.csv")],
    ]
    for argv in steps:
        print("\n$ hyperts " + " ".join(argv))
        code = main(argv)
        assert code == 0, f"step failed: {argv}"

    print("\n--- report.csv ---")
    print((workdir / "report.csv").read_text())
