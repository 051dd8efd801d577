"""Seeded Yahoo-style CSV exports for the benchmark.

The target ticker is a lagged mixture of three smooth drivers plus noise,
so a forecaster that sees the last two rows of every channel can predict
it. Each ticker misses a few dates that no other ticker misses, so the
inner join drops exactly `DROPS` of the `rows + DROPS` weekdays.
"""

from __future__ import annotations

import datetime
import json
import pathlib

import numpy as np

TICKERS = ["Copper", "FCX", "SCCO", "CLP"]  # column order; Copper is the target
DROP_SIZES = (2, 3, 3, 2)
DROPS = sum(DROP_SIZES)
LEVELS = (50.0, 30.0, 60.0, 700.0)
SCALES = (5.0, 4.0, 6.0, 40.0)
# Noise on the target, in driver units: about a quarter of its spread, so a
# winner's holdout MAE sits near the noise floor rather than on how far a
# few epochs got, and varies little from seed to seed.
NOISE = 0.3


def weekdays(n: int) -> list[datetime.date]:
    day = datetime.date(2015, 1, 1)
    out = []
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += datetime.timedelta(days=1)
    return out


def lagged_mixture(n: int, rng: np.random.Generator) -> np.ndarray:
    """[n, 4] values: column 0 = 0.9 d1[t-1] - 0.6 d2[t-2] + 0.8 d3[t-1] +
    noise, columns 1..3 = smooth drivers, each a blend of two sinusoids with
    seeded phases. Periods of 23..71 steps put several cycles in every
    holdout block, so holdout MAE depends little on where the phases fall."""
    t = np.arange(n + 2, dtype=np.float64)
    ph = rng.uniform(0.0, 2 * np.pi, size=6)
    d1 = np.sin(2 * np.pi * t / 29 + ph[0]) \
        + 0.5 * np.sin(2 * np.pi * t / 71 + ph[1])
    d2 = np.cos(2 * np.pi * t / 41 + ph[2]) \
        + 0.5 * np.sin(2 * np.pi * t / 23 + ph[3])
    d3 = np.sin(2 * np.pi * t / 53 + ph[4]) \
        + 0.4 * np.cos(2 * np.pi * t / 37 + ph[5])
    target = np.zeros(n + 2)
    target[2:] = 0.9 * d1[1:-1] - 0.6 * d2[:-2] + 0.8 * d3[1:-1] \
        + rng.normal(scale=NOISE, size=n)
    return np.column_stack([target, d1, d2, d3])[2:]


def write_csvs(out_dir, rows: int, seed: int) -> pathlib.Path:
    """Write one CSV per ticker plus a manifest; return the manifest path.

    The aligned table has exactly `rows` rows.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, rows])
    n_base = rows + DROPS
    dates = weekdays(n_base)
    values = lagged_mixture(n_base, rng) * SCALES + LEVELS
    dropped = rng.choice(n_base, size=DROPS, replace=False)
    bounds = np.cumsum((0,) + DROP_SIZES)
    paths = {}
    for j, name in enumerate(TICKERS):
        skip = set(dropped[bounds[j]:bounds[j + 1]].tolist())
        path = out / f"{name}.csv"
        lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
        for i, day in enumerate(dates):
            if i not in skip:
                px = repr(float(values[i, j]))
                lines.append(f"{day.isoformat()},{px},{px},{px},{px},{px},"
                             f"{1000 + i}")
        path.write_text("\n".join(lines) + "\n")
        paths[name] = str(path)
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps(
        {"tickers": paths, "order": TICKERS, "target": TICKERS[0]}))
    return manifest
