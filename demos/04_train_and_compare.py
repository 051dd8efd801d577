"""Train one model of each class on a synthetic lagged-mixture task and
compare score against trainable-parameter count.

Run:  python demos/04_train_and_compare.py   (about a minute on a laptop)
"""

import datetime

import numpy as np

from hyperts import ModelSpec, TrainConfig, build, evaluate, fit
from hyperts.data import SeriesTable, make_windows, split, standardize

rng = np.random.default_rng(11)
n = 500
t = np.arange(n + 3, dtype=np.float64)
c1 = np.sin(2 * np.pi * t / 97) + 0.5 * np.sin(2 * np.pi * t / 223 + 1.0)
c2 = np.cos(2 * np.pi * t / 149) + 0.5 * np.sin(2 * np.pi * t / 59 + 0.3)
c3 = np.sin(2 * np.pi * t / 193 + 2.0) + 0.4 * np.cos(2 * np.pi * t / 109)
c0 = np.zeros(n + 3)
for i in range(3, n + 3):
    c0[i] = 0.9 * c1[i - 1] - 0.6 * c2[i - 2] + 0.8 * c3[i - 1] \
        + rng.normal(scale=0.05)
values = np.column_stack([c0, c1, c2, c3])[3:]
dates = [datetime.date(2015, 1, 1) + datetime.timedelta(days=i)
         for i in range(n)]
table = SeriesTable(dates=dates, order=["T0", "T1", "T2", "T3"],
                    values=values)

std, scaler = standardize(table)
ds = make_windows(std, "T0", window=10, span=1, scaler=scaler)
plan = split(ds, cv_fraction=0.8, folds=10)
cv, ho = plan.cv_indices, plan.holdout_indices
print(f"{len(ds)} samples; train on {len(cv)}, score on {len(ho)} held out")

specs = [
    ModelSpec(kind="hyper", size=1, algebra="quaternion", n_dense1=0,
              n_dense2=1, dense_units=8, dense_activation="linear",
              window=10, span=1, seed=0),
    ModelSpec(kind="cnn", size=16, algebra=None, n_dense1=0, n_dense2=1,
              dense_units=8, dense_activation="linear", window=10, span=1,
              seed=0),
    ModelSpec(kind="lstm", size=8, algebra=None, n_dense1=0, n_dense2=1,
              dense_units=8, dense_activation="linear", window=10, span=1,
              seed=0),
]
config = TrainConfig(epochs=100, batch_size=32, seed=0, lr=1e-2)

print(f"\n{'model':>22} {'params':>7} {'holdout MAE':>12}")
for spec in specs:
    model = build(spec)
    history = fit(model, ds.x[cv], ds.y[cv], config)
    score = evaluate(model, ds.x[ho], ds.y[ho])
    name = spec.test_layer_code()
    print(f"{name:>22} {model.param_count():7d} {score:12.4f}"
          f"   (final train loss {history[-1][0]:.4f})")

print("\nThe hypercomplex model reaches a comparable score with a fraction"
      "\nof the weights; predictions are in standardized units, and"
      "\nds.scaler holds each column's mean and std.")
