"""Ingestion walk-through on generated CSVs: align on dates, standardize,
inspect the correlation structure, window into supervised pairs.

Run:  python demos/03_data_and_correlations.py
"""

import datetime
import pathlib
import tempfile

import numpy as np

from hyperts import (align, correlation_matrix, lagged_correlation, load_csv,
                     make_windows, split, standardize)

rng = np.random.default_rng(42)

# fabricate four correlated daily series with a few missing days each
n = 400
base = np.cumsum(rng.normal(size=n))
series_values = {
    "Alpha": 50 + 2.0 * base + rng.normal(scale=1.0, size=n),
    "Beta": 30 + 1.5 * base + rng.normal(scale=2.0, size=n),
    "Gamma": 80 - 1.0 * base + rng.normal(scale=2.0, size=n),
    "Delta": 10 + rng.normal(scale=1.0, size=n).cumsum(),
}
with tempfile.TemporaryDirectory(prefix="hyperts_demo_") as tmp:
    workdir = pathlib.Path(tmp)
    start = datetime.date(2020, 1, 1)
    for name, vals in series_values.items():
        skip = set(rng.choice(n, size=5, replace=False).tolist())
        with open(workdir / f"{name}.csv", "w") as fh:
            fh.write("Date,Close\n")
            for i, v in enumerate(vals):
                if i in skip:
                    continue
                day = start + datetime.timedelta(days=i)
                fh.write(f"{day.isoformat()},{v}\n")

    order = ["Alpha", "Beta", "Gamma", "Delta"]
    series = {name: load_csv(workdir / f"{name}.csv", name) for name in order}
table = align(series, order)
print(f"aligned {len(table)} of {n} days (rows with any gap dropped)")

std, scaler = standardize(table)
print("per-column mean after standardization:",
      np.round(std.values.mean(axis=0), 12))

m = correlation_matrix(std)
print("\nPearson correlation matrix:")
print("        " + "".join(f"{t:>8}" for t in m.tickers))
for name, row in zip(m.tickers, m.r):
    print(f"{name:>7} " + "".join(f"{v:8.4f}" for v in row))

curve = lagged_correlation(std.column("Alpha"), std.column("Beta"),
                           max_lag=10, pair=("Alpha", "Beta"))
print("\nAlpha->Beta lagged correlation (lag 0..10):")
print(np.round(curve.values, 3))

ds = make_windows(std, target="Alpha", window=20, span=5, scaler=scaler)
plan = split(ds, cv_fraction=0.8, folds=10)
print(f"\nwindowed: {len(ds)} samples of X{ds.x.shape[1:]} -> Y{ds.y.shape[1:]}")
print(f"cv block {len(plan.cv_indices)} samples in {len(plan.folds)} folds,"
      f" holdout {len(plan.holdout_indices)} samples (strictly later)")
