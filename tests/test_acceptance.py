"""Acceptance battery: each test enforces one release criterion at its
stated tolerance and prints a single PASS/FAIL line.

Heavy end-to-end artifacts (the desk-scale three-class experiment) are
built once in a module-scoped fixture and shared by the criteria that
assert on them. Environment switches:

  HYPERTS_REAL_DATA  - path to a manifest of real ticker CSV exports; when
                       set, the dataset-pipeline criterion checks the
                       published row count and correlation directly.
  HYPERTS_FULL_CELL  - run the complete hypercomplex grid cell (hours)
                       instead of the measured-extrapolation feasibility
                       check.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from conftest import (check_layer_gradients, check_model_gradients,
                      lagged_mixture_values, market_like_csvs,
                      synthetic_table, write_ticker_csvs)
from hyperts.algebra import AlgebraKind, hmul, table_for
from hyperts.analysis import pearson
from hyperts.cli import load_dataset, main as cli_main
from hyperts.data import make_windows, split, standardize
from hyperts.model import ModelSpec, build
from hyperts.nn import (Activation, Conv1D, Dense, Flatten, HyperDense, LSTM,
                        MaxPool1D)
from hyperts.search import (Grid, enumerate_specs, fold_seeds, run_search)
from hyperts.train import TrainConfig, evaluate, fit


def report(num, name, ok, details=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} {details}")
    assert ok, f"criterion {num} ({name}) failed: {details}"


# -- criterion 1: algebra exactness ------------------------------------------

def test_criterion_1_algebra_exactness():
    start = time.perf_counter()
    rules = {
        AlgebraKind.QUATERNION: {
            (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
            (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
            (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1)},
        AlgebraKind.COQUATERNION: {
            (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
            (2, 1): (3, -1), (2, 2): (0, 1), (2, 3): (1, -1),
            (3, 1): (2, 1), (3, 2): (1, 1), (3, 3): (0, 1)},
        AlgebraKind.CLIFFORD11: {
            (1, 1): (0, 1), (1, 2): (3, 1), (1, 3): (2, 1),
            (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
            (3, 1): (2, -1), (3, 2): (1, -1), (3, 3): (0, 1)},
    }
    exact = 0
    for kind, rule in rules.items():
        table = table_for(kind)
        for a in range(4):
            for b in range(4):
                got = hmul(np.eye(4)[a], np.eye(4)[b], table)
                want = np.zeros(4)
                if a == 0:
                    want[b] = 1.0
                elif b == 0:
                    want[a] = 1.0
                else:
                    d, sign = rule[(a, b)]
                    want[d] = sign
                assert np.array_equal(got, want)
                exact += 1
    q = table_for(AlgebraKind.QUATERNION)
    rng = np.random.default_rng(1)
    triples = rng.uniform(-1.0, 1.0, size=(10_000, 3, 4))
    worst = 0.0
    for a, b, c in triples:
        lhs = hmul(hmul(a, b, q), c, q)
        rhs = hmul(a, hmul(b, c, q), q)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - start
    report(1, "algebra exactness",
           exact == 48 and worst < 1e-12 and elapsed < 1.0,
           f"(48 basis products exact, associativity worst {worst:.2e},"
           f" {elapsed:.2f}s)")


# -- criterion 2: gradient correctness ----------------------------------------

def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    n = 20
    checked = {}

    acts = [Activation.LINEAR, Activation.RELU]
    for kind in AlgebraKind:
        worst = 0.0
        for _ in range(n):
            in_h = int(rng.integers(1, 3))
            lyr = HyperDense(in_h, int(rng.integers(1, 4)), kind,
                             activation=acts[int(rng.integers(2))], rng=rng)
            worst = max(worst, check_layer_gradients(
                lyr, rng.normal(size=(2, 3, 4 * in_h)), rng))
        checked[f"hyperdense-{kind.value}"] = worst
    worst = 0.0
    for _ in range(n):
        feat = int(rng.integers(2, 6))
        lyr = Dense(feat, int(rng.integers(1, 5)),
                    activation=acts[int(rng.integers(2))], rng=rng)
        worst = max(worst, check_layer_gradients(
            lyr, rng.normal(size=(3, feat)), rng))
    checked["dense"] = worst
    worst = 0.0
    for _ in range(n):
        ch = int(rng.integers(1, 4))
        lyr = Conv1D(ch, int(rng.integers(1, 5)), kernel_size=3,
                     activation=acts[int(rng.integers(2))], rng=rng)
        worst = max(worst, check_layer_gradients(
            lyr, rng.normal(size=(2, 6, ch)), rng))
    checked["conv1d"] = worst
    worst = 0.0
    for _ in range(n):
        ch = int(rng.integers(1, 3))
        lyr = LSTM(ch, int(rng.integers(1, 4)), rng=rng)
        worst = max(worst, check_layer_gradients(
            lyr, rng.normal(size=(2, 5, ch)), rng))
    checked["lstm"] = worst
    worst = 0.0
    for _ in range(n):
        worst = max(worst, check_layer_gradients(
            MaxPool1D(2), rng.normal(size=(2, int(rng.integers(4, 8)), 3)),
            rng))
    checked["maxpool"] = worst
    worst = 0.0
    for _ in range(n):
        worst = max(worst, check_layer_gradients(
            Flatten(), rng.normal(size=(int(rng.integers(2, 5)), 3)), rng))
    checked["flatten"] = worst

    combos = [("cnn", 3, None), ("lstm", 3, None), ("hyper", 2, "quaternion"),
              ("hyper", 2, "coquaternion"), ("hyper", 2, "cl11")]
    worst = 0.0
    for i in range(n):
        kind, size, alg = combos[i % len(combos)]
        spec = ModelSpec(kind=kind, size=size, algebra=alg,
                         n_dense1=i % 2, n_dense2=(i // 2) % 2,
                         dense_units=4, dense_activation="relu", window=8,
                         span=2, seed=100 + i)
        worst = max(worst, check_model_gradients(
            build(spec), rng.normal(size=(2, 8, 4)), rng))
    checked["composed-model"] = worst

    elapsed = time.perf_counter() - start
    overall = max(checked.values())
    report(2, "gradient correctness",
           overall <= 1e-4 and elapsed < 120.0,
           f"({n} instances/case, worst rel err {overall:.2e},"
           f" {elapsed:.1f}s)")


# -- criterion 3: parameter-count claim ---------------------------------------

def test_criterion_3_parameter_counts():
    rng = np.random.default_rng(3)
    ok = True
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            hyper = HyperDense(m, n, AlgebraKind.QUATERNION, rng=rng)
            dense = Dense(4 * m, 4 * n, rng=rng)
            ok &= hyper.param_count() == 4 * m * n + 4 * n
            ok &= dense.param_count() == 16 * m * n + 4 * n
            ok &= hyper.param_count() < dense.param_count()
    # equal real width harness: hyper with u units (width 4u) vs cnn/lstm
    # with 4u filters/units, identical window/span/dense settings
    ratios = []
    for u in (1, 2, 4, 8):
        for nd2 in (0, 1):
            common = dict(n_dense1=0, n_dense2=nd2, dense_units=8,
                          dense_activation="linear", window=10, span=1,
                          seed=0)
            h = build(ModelSpec(kind="hyper", size=u, algebra="quaternion",
                                **common)).param_count()
            c = build(ModelSpec(kind="cnn", size=4 * u, algebra=None,
                                **common)).param_count()
            l = build(ModelSpec(kind="lstm", size=4 * u, algebra=None,
                                **common)).param_count()
            ok &= h < c < l
            ratios.append(h / c)
    report(3, "parameter-count claim", ok,
           f"(4mn+4n < 16mn+4n on 16 layer configs; equal-width full-model"
           f" hyper/cnn ratios {min(ratios):.2f}..{max(ratios):.2f})")


# -- criterion 4: dataset pipeline --------------------------------------------

def test_criterion_4_dataset_pipeline(tmp_path):
    real = os.environ.get("HYPERTS_REAL_DATA")
    if real:
        manifest, mode = real, "real exports"
    else:
        manifest, mode = market_like_csvs(tmp_path), "checked-in fixture"
    data_dir = tmp_path / "data"
    code = cli_main(["ingest", "--manifest", str(manifest),
                     "--out", str(data_dir)])
    table, _, _ = load_dataset(data_dir)
    rows_ok = abs(len(table) - 2008) <= 0.01 * 2008
    r = pearson(table.column(table.order[0]), table.column(table.order[1]))
    corr_ok = abs(r - 0.9483) <= 0.02
    report(4, "dataset pipeline",
           code == 0 and rows_ok and corr_ok,
           f"({mode}: {len(table)} rows vs 2008 +-1%,"
           f" r({table.order[0]},{table.order[1]}) = {r:.4f} vs"
           f" 0.9483 +-0.02)")


# -- criteria 5-7: desk-scale experiment --------------------------------------

DESK_SEED = 1
DESK_CONFIG = TrainConfig(epochs=100, batch_size=32, seed=DESK_SEED, lr=1e-2)

DESK_GRIDS = {
    "hyper": Grid(kind="hyper", sizes=(1,),
                  algebras=("quaternion", "coquaternion"), n_dense1=(0,),
                  n_dense2=(0, 1), dense_units=(8,), activations=("linear",)),
    "cnn": Grid(kind="cnn", sizes=(16, 32), n_dense1=(0,), n_dense2=(1,),
                dense_units=(8, 16), activations=("linear",)),
    "lstm": Grid(kind="lstm", sizes=(8, 16), n_dense1=(0,), n_dense2=(1,),
                 dense_units=(8, 16), activations=("linear",)),
}


def desk_dataset():
    table = synthetic_table(n=500, noise=0.05, seed=11)
    std, scaler = standardize(table)
    ds = make_windows(std, "T0", window=10, span=1, scaler=scaler)
    return ds, split(ds, cv_fraction=0.8, folds=10)


def run_desk_cells(out_root, workers=1):
    ds, plan = desk_dataset()
    results = {}
    for kind, grid in DESK_GRIDS.items():
        specs = enumerate_specs(grid, window=10, span=1, seed=DESK_SEED)
        assert len(specs) == 4
        results[kind] = run_search(specs, ds, plan, out_root / kind,
                                   config=DESK_CONFIG, base_seed=DESK_SEED,
                                   workers=workers)
    return results


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    start = time.perf_counter()
    results = run_desk_cells(root)
    elapsed = time.perf_counter() - start
    return {"root": root, "results": results, "seconds": elapsed}


def test_criterion_5_desk_scale_experiment(desk_run):
    ds, plan = desk_dataset()
    # least-squares oracle on flattened windows must solve the fixture first
    flat = np.hstack([ds.x.reshape(len(ds), -1), np.ones((len(ds), 1))])
    cv, ho = plan.cv_indices, plan.holdout_indices
    coef, *_ = np.linalg.lstsq(flat[cv], ds.y[cv], rcond=None)
    oracle = float(np.mean(np.abs(flat[ho] @ coef - ds.y[ho])))

    results = desk_run["results"]
    holdout = {k: r.holdout_mae for k, r in results.items()}
    params = {k: r.best["param_count"] for k, r in results.items()}
    ok = oracle < 0.1
    ok &= all(v < 0.15 for v in holdout.values())
    ok &= 3 * params["hyper"] <= min(params["cnn"], params["lstm"])
    ok &= desk_run["seconds"] < 600.0
    report(5, "desk-scale experiment", ok,
           f"(oracle {oracle:.3f} < 0.1; holdout MAE"
           f" H={holdout['hyper']:.3f} CNN={holdout['cnn']:.3f}"
           f" LSTM={holdout['lstm']:.3f} all < 0.15; params"
           f" H={params['hyper']} <= 1/3 of CNN={params['cnn']},"
           f" LSTM={params['lstm']}; {desk_run['seconds']:.0f}s serial"
           f" < 600s)")


def test_criterion_6_determinism(desk_run, tmp_path):
    repeat = run_desk_cells(tmp_path / "repeat")
    identical = True
    for kind in DESK_GRIDS:
        for fname in ("results.ndjson", "best.json"):
            a = (desk_run["root"] / kind / fname).read_bytes()
            b = (tmp_path / "repeat" / kind / fname).read_bytes()
            identical &= a == b
    ds, plan = desk_dataset()
    specs = enumerate_specs(DESK_GRIDS["hyper"], 10, 1, DESK_SEED)
    run_search(specs, ds, plan, tmp_path / "w2", config=DESK_CONFIG,
               base_seed=DESK_SEED, workers=2)
    pooled = (tmp_path / "w2" / "results.ndjson").read_bytes()
    serial = (desk_run["root"] / "hyper" / "results.ndjson").read_bytes()
    report(6, "determinism", identical and pooled == serial,
           "(repeat run byte-identical; 2-worker pool matches serial)")


def test_criterion_7_ordering_effect_harness(tmp_path):
    table = synthetic_table(n=300, seed=11)
    manifest = write_ticker_csvs(tmp_path, table)
    data_dir = tmp_path / "data"
    assert cli_main(["ingest", "--manifest", str(manifest),
                     "--out", str(data_dir)]) == 0
    cells = tmp_path / "cells"
    base_args = ["--data", str(data_dir), "--window", "10", "--span", "1",
                 "--sizes", "1", "--algebra", "quaternion",
                 "--dense-units", "8", "--epochs", "10", "--seed", "5"]
    assert cli_main(["search", "--class", "h",
                     "--out", str(cells / "H_w10_s1")] + base_args) == 0
    assert cli_main(["search", "--class", "h",
                     "--out", str(cells / "HR_w10_s1"),
                     "--order", "T1,T2,T3,T0"] + base_args) == 0
    labels = {}
    complete = True
    for name in ("H_w10_s1", "HR_w10_s1"):
        cell = json.loads((cells / name / "cell.json").read_text())
        labels[name] = cell["label"]
        lines = (cells / name / "results.ndjson").read_text().splitlines()
        complete &= len(lines) == cell["configs"]
    distinct = (cells / "H_w10_s1" / "results.ndjson").read_bytes() != \
        (cells / "HR_w10_s1" / "results.ndjson").read_bytes()
    assert cli_main(["report", "--in", str(cells),
                     "--out", str(tmp_path / "ordering.csv")]) == 0
    doc = json.loads((tmp_path / "ordering.json").read_text())
    both = set(doc["labels"]) >= {"H", "HR"}
    report(7, "ordering effect harness",
           labels["H_w10_s1"] == "H" and labels["HR_w10_s1"] == "HR"
           and complete and distinct and both,
           f"(labels {sorted(labels.values())}, both ledgers complete and"
           f" distinct, comparison report covers {doc['labels']})")


# -- criterion 8: full-protocol feasibility ------------------------------------

def full_cell_dataset():
    from hyperts.data import SeriesTable
    import datetime

    values = lagged_mixture_values(n=2008, noise=0.05, seed=7)
    dates = [datetime.date(2015, 1, 1) + datetime.timedelta(days=i)
             for i in range(2008)]
    table = SeriesTable(dates=dates, order=["T0", "T1", "T2", "T3"],
                        values=values)
    std, scaler = standardize(table)
    ds = make_windows(std, "T0", window=10, span=1, scaler=scaler)
    return ds, split(ds, cv_fraction=0.8, folds=10)


def test_criterion_8_full_cell_feasibility(tmp_path):
    ds, plan = full_cell_dataset()
    grid = Grid.default("hyper")
    specs = enumerate_specs(grid, window=10, span=1, seed=DESK_SEED)
    assert grid.raw_size() == 576 and len(specs) == 450

    if os.environ.get("HYPERTS_FULL_CELL"):
        start = time.perf_counter()
        run_search(specs, ds, plan, tmp_path / "full_cell",
                   base_seed=DESK_SEED)
        hours = (time.perf_counter() - start) / 3600.0
        report(8, "full-protocol feasibility", hours < 8.0,
               f"(full 450-config cell ran in {hours:.2f}h)")
        return

    # measured extrapolation: time the cheapest and heaviest config of every
    # size stratum for 5 epochs on one fold, scale to 100 epochs x 10 folds
    sample_epochs = 5
    cfg = dataclasses.replace(TrainConfig(), epochs=sample_epochs)
    fold0 = plan.folds[0]
    train_idx = np.setdiff1d(plan.cv_indices, fold0)
    per_size = {}
    for size in grid.sizes:
        costs = []
        for nd, du, act in ((0, 8, "linear"), (1, 64, "relu")):
            spec = ModelSpec(kind="hyper", size=size, algebra="quaternion",
                             n_dense1=nd, n_dense2=nd, dense_units=du,
                             dense_activation=act, window=10, span=1,
                             seed=DESK_SEED)
            model_seed, shuffle_seed = fold_seeds(DESK_SEED, spec, 0)
            model = build(dataclasses.replace(spec, seed=model_seed))
            start = time.perf_counter()
            fit(model, ds.x[train_idx], ds.y[train_idx],
                dataclasses.replace(cfg, seed=shuffle_seed))
            evaluate(model, ds.x[fold0], ds.y[fold0])
            costs.append(time.perf_counter() - start)
        per_size[size] = max(costs)
    configs_per_size = len(specs) // len(grid.sizes)
    serial_hours = sum(configs_per_size * c * (100 / sample_epochs) * 10
                       for c in per_size.values()) * 1.25 / 3600.0
    eight_core_hours = serial_hours / 8.0

    # checkpoint/resume exercised on the real-scale cell (2-spec subsample)
    sub = [s for s in specs if s.size == 1][:2]
    run_search(sub, ds, plan, tmp_path / "full", base_seed=DESK_SEED)
    lines = (tmp_path / "full" / "progress.ndjson").read_text().splitlines()
    resumed_dir = tmp_path / "resumed"
    run_search(sub[:1], ds, plan, resumed_dir, base_seed=DESK_SEED)
    run_search(sub, ds, plan, resumed_dir, base_seed=DESK_SEED)
    resumable = (resumed_dir / "results.ndjson").read_bytes() == \
        (tmp_path / "full" / "results.ndjson").read_bytes() \
        and len(lines) == 2
    report(8, "full-protocol feasibility",
           eight_core_hours < 8.0 and resumable,
           f"(576-point grid -> 450 evaluated configs; measured estimate"
           f" {serial_hours:.2f}h serial, {eight_core_hours:.2f}h on 8"
           f" cores < 8h; checkpoint resume verified at scale)")
