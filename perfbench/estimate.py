"""Serial hours of the paper's protocol, extrapolated from measured seconds.

    python3 perfbench/estimate.py [--seed 1]

Times one epoch of one CV fold (batch 32, 2008 aligned rows) for every
config of the hypercomplex cell at window 10 span 1, and for a seeded
sample of two configs per size of each class at windows 10, 20, 40 and 60.
A cell costs configs x 10 folds x 100 epochs of that, plus one more config
for the winner's retrain; the span only sizes the last Dense, so the grid
of 64 cells (4 windows x 4 spans x CNN/LSTM/H/HR) repeats each window's
four classes for four spans.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hyperts.cli  # noqa: E402
import hyperts.data  # noqa: E402
from hyperts.model import build  # noqa: E402
from hyperts.search import Grid, enumerate_specs  # noqa: E402
from hyperts.train import TrainConfig, fit  # noqa: E402

import fixture  # noqa: E402
from run import warm_up  # noqa: E402
from workloads import cli  # noqa: E402

FOLDS, EPOCHS, WINDOWS, SPANS = 10, 100, (10, 20, 40, 60), 4


def epoch_fold_seconds(spec, table, target) -> float:
    dataset = hyperts.data.make_windows(table, target, spec.window, spec.span)
    plan = hyperts.data.split(dataset, folds=FOLDS)
    train = np.setdiff1d(plan.cv_indices, plan.folds[0])
    model = build(spec)
    start = time.perf_counter()
    fit(model, dataset.x[train], dataset.y[train], TrainConfig(epochs=1))
    return time.perf_counter() - start


def cell_hours(per_config_s: float, configs: int) -> float:
    return (configs + 1) * per_config_s * FOLDS * EPOCHS / 3600.0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    warm_up()
    work = HERE.parent / ".perfbench_work" / "estimate"
    try:
        manifest = fixture.write_csvs(work, 2008, args.seed)
        cli(["ingest", "--manifest", str(manifest), "--out", str(work / "d")])
        table, _, target = hyperts.cli.load_dataset(work / "d")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    full = enumerate_specs(Grid.default("hyper"), 10, 1, args.seed)
    full_s = [epoch_fold_seconds(s, table, target) for s in full]
    rng = np.random.default_rng(args.seed)
    per_config = {}
    for window in WINDOWS:
        for kind in ("cnn", "lstm", "hyper"):
            grid = Grid.default(kind)
            specs = enumerate_specs(grid, window, 1, args.seed)
            sample = [s for size in grid.sizes for s in rng.choice(
                [s for s in specs if s.size == size], 2, replace=False)]
            per_config[(kind, window)] = (len(specs), float(np.mean(
                [epoch_fold_seconds(s, table, target) for s in sample])))
    grid_h = SPANS * sum(
        cell_hours(per_s, n) * (2 if kind == "hyper" else 1)
        for (kind, _), (n, per_s) in per_config.items())
    print(json.dumps({
        "h_cell_w10_configs": len(full),
        "h_cell_w10_epoch_fold_s_mean": float(np.mean(full_s)),
        "h_cell_w10_serial_hours": cell_hours(float(np.mean(full_s)),
                                              len(full)),
        "per_config_epoch_fold_s": {f"{k}_w{w}": round(v[1], 5)
                                    for (k, w), v in per_config.items()},
        "grid_64_cells_serial_hours": grid_h}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
