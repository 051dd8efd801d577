"""Grid enumeration, cross-validation, and the resumable search driver."""

import dataclasses
import hashlib
import json
import math
import types
import weakref

import numpy as np
import pytest

import hyperts.data as data_mod
import hyperts.search as search_mod
from conftest import synthetic_table
from hyperts.data import SplitPlan, WindowedDataset, make_windows, split
from hyperts.model import CLASS_KINDS, ModelSpec, build
from hyperts.search import (Grid, cross_validate, enumerate_specs, fold_seeds,
                            run_search)
from hyperts.train import TrainConfig, evaluate, fit, write_history_csv


def count_signatures(grid):
    """Independent dedup oracle: count distinct behavioral signatures of the
    raw Cartesian product (dense_units/activation are inert when both
    optional dense layers are off)."""
    algebras = grid.algebras if grid.kind == "hyper" else (None,)
    sigs = set()
    for size in grid.sizes:
        for alg in algebras:
            for nd1 in grid.n_dense1:
                for nd2 in grid.n_dense2:
                    for units in grid.dense_units:
                        for act in grid.activations:
                            if nd1 == 0 and nd2 == 0:
                                sigs.add((size, alg, nd1, nd2, None, None))
                            else:
                                sigs.add((size, alg, nd1, nd2, units, act))
    return len(sigs)


class TestEnumerate:
    def test_cnn_counts(self):
        grid = Grid.default("cnn")
        assert grid.raw_size() == 160
        specs = enumerate_specs(grid, window=10, span=1, seed=0)
        assert len(specs) == count_signatures(grid) == 125

    def test_lstm_counts(self):
        grid = Grid.default("lstm")
        assert grid.raw_size() == 160
        assert len(enumerate_specs(grid, 10, 1, 0)) == 125

    def test_hyper_counts(self):
        grid = Grid.default("hyper")
        assert grid.raw_size() == 576
        specs = enumerate_specs(grid, window=10, span=1, seed=0)
        assert len(specs) == count_signatures(grid) == 450

    def test_single_axis_order(self):
        grid = Grid(kind="cnn", sizes=(8, 16, 32), n_dense1=(0,),
                    n_dense2=(0,), dense_units=(8,), activations=("linear",))
        specs = enumerate_specs(grid, 10, 1, 0)
        assert [s.size for s in specs] == [8, 16, 32]

    def test_enumeration_is_deterministic(self):
        grid = Grid.default("hyper")
        a = [s.canonical() for s in enumerate_specs(grid, 10, 1, 0)]
        b = [s.canonical() for s in enumerate_specs(grid, 10, 1, 0)]
        assert a == b
        assert len(set(a)) == len(a)

    def test_both_dense_off_collapses_to_canonical(self):
        grid = Grid(kind="cnn", sizes=(8,), dense_units=(8, 16),
                    activations=("linear", "relu"))
        specs = enumerate_specs(grid, 10, 1, 0)
        no_dense = [s for s in specs if s.n_dense1 == 0 and s.n_dense2 == 0]
        assert len(no_dense) == 1
        assert no_dense[0].dense_units == 8
        assert no_dense[0].dense_activation == "linear"

    @pytest.mark.parametrize("grid", [
        Grid.default("cnn"), Grid.default("hyper"),
        Grid.default("hyper", algebras=["cl11"]),
        Grid(kind="lstm", sizes=(8, 16), dense_units=(8, 16),
             activations=("linear", "relu"))])
    def test_limit_takes_the_first_specs(self, grid):
        full = [s.canonical() for s in enumerate_specs(grid, 10, 1, 0)]
        for limit in (1, 2, 3, 7, 40, len(full) - 1, len(full),
                      len(full) + 5):
            got = enumerate_specs(grid, 10, 1, 0, limit=limit)
            assert [s.canonical() for s in got] == full[:limit], limit

    @pytest.mark.parametrize("limit", [0, -1, -125])
    def test_limit_below_one_rejected(self, limit):
        with pytest.raises(ValueError,
                           match=rf"limit must be >= 1, got {limit}$"):
            enumerate_specs(Grid.default("cnn"), 10, 1, 0, limit=limit)


def small_dataset(n_rows=110, noise=0.05, seed=11, window=10):
    table = synthetic_table(n=n_rows, noise=noise, seed=seed)
    from hyperts.data import standardize

    std, scaler = standardize(table)
    ds = make_windows(std, "T0", window=window, span=1, scaler=scaler)
    return ds, split(ds, cv_fraction=0.8, folds=10)


def hyper_spec(size=1, seed=0, **kw):
    base = dict(kind="hyper", size=size, algebra="quaternion", n_dense1=0,
                n_dense2=0, dense_units=8, dense_activation="linear",
                window=10, span=1, seed=seed)
    base.update(kw)
    return ModelSpec(**base)


FAST = TrainConfig(epochs=5, batch_size=32, seed=0)


def read_results(out):
    """The records of the canonical ledger ``results.ndjson`` in ``out``."""
    return [json.loads(line)
            for line in (out / "results.ndjson").read_text().splitlines()]


def strict_records(path):
    """The records of an NDJSON ledger, parsed as strict JSON: a bare
    ``NaN`` or ``Infinity`` raises."""
    def reject(constant):
        raise ValueError(f"{path.name}: bare {constant}")

    return [json.loads(line, parse_constant=reject)
            for line in path.read_text().splitlines()]


class TestCrossValidate:
    def test_returns_10_fold_maes(self):
        ds, plan = small_dataset()
        mean, maes, params = cross_validate(hyper_spec(), ds, plan, FAST,
                                            base_seed=1)
        assert len(maes) == 10
        assert mean == pytest.approx(np.mean(maes))
        assert params == build(hyper_spec()).param_count()

    def test_matches_independent_fold_loop(self):
        # scripted oracle: the same protocol written as a direct loop
        ds, plan = small_dataset()
        spec = hyper_spec(size=2)
        want = []
        cv = set(plan.cv_indices.tolist())
        for k, fold in enumerate(plan.folds):
            train_idx = np.array(sorted(cv - set(fold.tolist())))
            model_seed, shuffle_seed = fold_seeds(7, spec, k)
            model = build(dataclasses.replace(spec, seed=model_seed))
            fit(model, ds.x[train_idx], ds.y[train_idx],
                dataclasses.replace(FAST, seed=shuffle_seed))
            want.append(evaluate(model, ds.x[fold], ds.y[fold]))
        mean, maes, _ = cross_validate(spec, ds, plan, FAST, base_seed=7)
        assert maes == want

    def test_zero_model_scores_mean_abs_target(self, monkeypatch):
        ds, plan = small_dataset()

        def zero_fit(model, x, y, cfg, index):
            # every member views its row of the stack's vector, so zeroed
            # weights make each fold's model predict exactly 0
            model.params()[0][...] = 0.0
            return [[] for _ in cfg.seed]

        monkeypatch.setattr(search_mod, "fit", zero_fit)
        mean, maes, _ = cross_validate(hyper_spec(), ds, plan, FAST)
        # folds are equal-sized here, so the unweighted fold mean equals the
        # mean absolute target over the cv block
        want = float(np.mean(np.abs(ds.y[plan.cv_indices])))
        assert mean == pytest.approx(want)

    def test_deterministic_across_calls(self):
        ds, plan = small_dataset()
        a = cross_validate(hyper_spec(), ds, plan, FAST, base_seed=3)
        b = cross_validate(hyper_spec(), ds, plan, FAST, base_seed=3)
        assert a == b

    def test_empty_fold_rejected(self):
        ds, plan = small_dataset()
        plan.folds[3] = plan.folds[3][:0]
        with pytest.raises(ValueError, match="fold"):
            cross_validate(hyper_spec(), ds, plan, FAST)


STACK_SPECS = [("cnn", 3, None), ("lstm", 3, None)] + [
    ("hyper", size, algebra) for algebra in ("quaternion", "coquaternion",
                                              "cl11") for size in (1, 2)]
# (rows, batch size): window-10 CV blocks of 80, 88 and 112 samples. The
# first splits into ten equal folds, so one stack trains them all; the
# others give training sets of two sizes (79/80 and 100/101), and at batch
# 20 those take 5 and 6 steps per epoch, the last one of a single sample.
STACK_SPLITS = [(110, 32), (120, 32), (150, 20)]


class TestStackedCrossValidate:
    @pytest.mark.parametrize("limit", [math.inf, 0],
                             ids=["stacked", "per-fold"])
    @pytest.mark.parametrize("rows,batch", STACK_SPLITS,
                             ids=["one-size", "two-sizes", "two-step-counts"])
    @pytest.mark.parametrize("kind,size,algebra", STACK_SPECS,
                             ids=[f"{k}{s}-{a}" if a else f"{k}{s}"
                                  for k, s, a in STACK_SPECS])
    def test_fold_maes_equal_fitting_each_fold_alone(
            self, kind, size, algebra, rows, batch, limit, monkeypatch):
        monkeypatch.setattr(search_mod, "STACK_LIMITS",
                            dict.fromkeys(CLASS_KINDS, (limit, limit)))
        ds, plan = small_dataset(n_rows=rows)
        config = TrainConfig(epochs=2, batch_size=batch, lr=1e-2)
        spec = ModelSpec(kind=kind, size=size, algebra=algebra, n_dense1=1,
                         n_dense2=1, dense_units=4, dense_activation="relu",
                         window=10, span=1, seed=0)
        sizes = {len(plan.cv_indices) - len(fold) for fold in plan.folds}
        assert len(sizes) == (1 if rows == 110 else 2)
        if rows == 150:
            assert len({-(-n // batch) for n in sizes}) == 2
        want = []
        for k, fold in enumerate(plan.folds):
            model_seed, shuffle_seed = fold_seeds(4, spec, k)
            model = build(dataclasses.replace(spec, seed=model_seed))
            rows = np.setdiff1d(plan.cv_indices, fold)
            fit(model, ds.x[rows], ds.y[rows],
                dataclasses.replace(config, seed=shuffle_seed))
            want.append(evaluate(model, ds.x[fold], ds.y[fold]))
        _, maes, params = cross_validate(spec, ds, plan, config, base_seed=4)
        assert maes == want
        assert params == model.param_count()

    @pytest.mark.parametrize("kind,size,window,stacked", [
        ("lstm", 32, 20, True), ("lstm", 64, 10, False),
        ("cnn", 32, 20, True), ("cnn", 64, 10, False), ("cnn", 8, 40, False),
        ("hyper", 32, 10, True), ("hyper", 1, 20, False)])
    def test_stacks_only_within_the_class_limits(self, kind, size, window,
                                                  stacked, monkeypatch):
        ds, plan = small_dataset(n_rows=110 + window, window=window)
        spec = ModelSpec(kind=kind, size=size,
                         algebra="cl11" if kind == "hyper" else None,
                         n_dense1=0, n_dense2=0, dense_units=8,
                         dense_activation="linear", window=window, span=1,
                         seed=0)
        stacks = []
        real = search_mod._fit_folds

        def fit_folds(*args):
            stacks.append(len(args[5]))
            return real(*args)

        monkeypatch.setattr(search_mod, "_fit_folds", fit_folds)
        cross_validate(spec, ds, plan, dataclasses.replace(FAST, epochs=1))
        # a CV block of 88 windows gives training sets of 79 and 80, held
        # by 8 and 2 folds
        assert sorted(stacks) == ([2, 8] if stacked else [1] * 10)

    def test_frees_each_fold_model_before_the_next_fit(self, monkeypatch):
        monkeypatch.setattr(search_mod, "STACK_LIMITS",
                            dict.fromkeys(CLASS_KINDS, (0, 0)))
        refs = []
        real = search_mod._fit_folds

        def fit_folds(*args):
            assert [ref() for ref in refs] == [None] * len(refs)
            models, histories = real(*args)
            refs.extend(weakref.ref(model) for model in models)
            return models, histories

        monkeypatch.setattr(search_mod, "_fit_folds", fit_folds)
        ds, plan = small_dataset()
        cross_validate(hyper_spec(), ds, plan, FAST)
        assert len(refs) == 10


class TestRunSearch:
    def test_single_config(self, tmp_path):
        ds, plan = small_dataset()
        specs = [hyper_spec()]
        result = run_search(specs, ds, plan, tmp_path, config=FAST,
                            base_seed=1)
        records = read_results(tmp_path)
        assert len(records) == 1
        assert result.best == records[0]
        assert (tmp_path / "results.ndjson").exists()
        assert (tmp_path / "best.json").exists()
        assert (tmp_path / "best_model.json").exists()
        assert result.holdout_mae is not None
        history = [l for l in
                   (tmp_path / "history_best.csv").read_text().splitlines()
                   if not l.startswith("#")]
        assert history[0] == "epoch,loss,mae"
        assert len(history) == 1 + FAST.epochs

    def test_selects_independently_computed_argmin(self, tmp_path):
        ds, plan = small_dataset()
        specs = [hyper_spec(size=1), hyper_spec(size=4)]
        oracle = {}
        for spec in specs:
            mean, _, _ = cross_validate(spec, ds, plan, FAST, base_seed=5)
            oracle[spec.canonical()] = mean
        result = run_search(specs, ds, plan, tmp_path, config=FAST,
                            base_seed=5)
        for record in read_results(tmp_path):
            key = ModelSpec.from_json_dict(record["spec"]).canonical()
            assert record["mean_mae"] == oracle[key]
        want_best = min(oracle, key=oracle.get)
        assert ModelSpec.from_json_dict(result.best["spec"]).canonical() \
            == want_best

    def test_resume_after_partial_ledger(self, tmp_path):
        ds, plan = small_dataset()
        specs = [hyper_spec(size=s) for s in (1, 2, 4)]
        full_dir = tmp_path / "full"
        run_search(specs, ds, plan, full_dir, config=FAST, base_seed=2)

        broken_dir = tmp_path / "broken"
        run_search(specs, ds, plan, broken_dir, config=FAST, base_seed=2)
        progress = (broken_dir / "progress.ndjson").read_text().splitlines()
        (broken_dir / "progress.ndjson").write_text(
            "\n".join(progress[:2]) + "\n")  # simulate a kill after 2 configs
        run_search(specs, ds, plan, broken_dir, config=FAST, base_seed=2)

        resumed = (broken_dir / "progress.ndjson").read_text().splitlines()
        assert len(resumed) == 3  # one recomputed, two reused
        assert (broken_dir / "results.ndjson").read_bytes() == \
            (full_dir / "results.ndjson").read_bytes()
        assert (broken_dir / "best.json").read_bytes() == \
            (full_dir / "best.json").read_bytes()

    def test_resume_after_torn_last_line(self, tmp_path):
        ds, plan = small_dataset()
        specs = [hyper_spec(size=s) for s in (1, 2, 4)]
        full_dir = tmp_path / "full"
        run_search(specs, ds, plan, full_dir, config=FAST, base_seed=2)

        torn_dir = tmp_path / "torn"
        run_search(specs, ds, plan, torn_dir, config=FAST, base_seed=2)
        ledger = torn_dir / "progress.ndjson"
        ledger.write_bytes(ledger.read_bytes()[:-20])  # killed mid-write
        run_search(specs, ds, plan, torn_dir, config=FAST, base_seed=2)

        lines = ledger.read_text().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line) for line in lines)
        for name in ("results.ndjson", "best.json"):
            assert (torn_dir / name).read_bytes() == \
                (full_dir / name).read_bytes()

    def test_unparseable_complete_line_raises(self, tmp_path):
        ds, plan = small_dataset()
        (tmp_path / "progress.ndjson").write_text('{"spec": \n')
        with pytest.raises(json.JSONDecodeError):
            run_search([hyper_spec()], ds, plan, tmp_path, config=FAST)

    @pytest.mark.parametrize("change", ["epochs", "lr", "batch_size",
                                        "base_seed", "data", "split"])
    def test_rerun_under_other_settings_raises_and_writes_nothing(
            self, change, tmp_path):
        ds, plan = small_dataset()
        run_search([hyper_spec()], ds, plan, tmp_path, config=FAST,
                   base_seed=2)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        other_ds, other_plan = small_dataset(seed=12)
        rerun = {
            "epochs": {"config": dataclasses.replace(FAST, epochs=6)},
            "lr": {"config": dataclasses.replace(FAST, lr=1e-2)},
            "batch_size": {"config": dataclasses.replace(FAST, batch_size=8)},
            "base_seed": {"base_seed": 3},
            "data": {"dataset": other_ds, "plan": other_plan},
            "split": {"plan": split(ds, cv_fraction=0.7, folds=10)},
        }[change]
        args = {"dataset": ds, "plan": plan, "config": FAST, "base_seed": 2,
                **rerun}
        with pytest.raises(ValueError, match="scored under other") as info:
            run_search([hyper_spec(), hyper_spec(size=2)],
                       out_dir=tmp_path, **args)
        assert str(tmp_path / "progress.ndjson") in str(info.value)
        assert "best.stamp" in before
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_unstamped_ledger_raises(self, tmp_path):
        ds, plan = small_dataset()
        run_search([hyper_spec()], ds, plan, tmp_path, config=FAST)
        ledger = tmp_path / "progress.ndjson"
        records = [json.loads(l) for l in ledger.read_text().splitlines()]
        ledger.write_text("".join(
            json.dumps({k: v for k, v in r.items() if k != "run"}) + "\n"
            for r in records))
        with pytest.raises(ValueError, match="scored under other"):
            run_search([hyper_spec()], ds, plan, tmp_path, config=FAST)

    def test_other_shuffle_seed_still_resumes(self, tmp_path):
        # each fold derives its own shuffle seed, so config.seed is unused
        ds, plan = small_dataset()
        run_search([hyper_spec()], ds, plan, tmp_path, config=FAST)
        run_search([hyper_spec()], ds, plan, tmp_path,
                   config=dataclasses.replace(FAST, seed=5))
        assert len((tmp_path / "progress.ndjson").read_text()
                   .splitlines()) == 1

    def test_every_spec_once_in_ledger(self, tmp_path):
        ds, plan = small_dataset()
        specs = [hyper_spec(size=s) for s in (1, 2)]
        run_search(specs, ds, plan, tmp_path, config=FAST, base_seed=2)
        run_search(specs, ds, plan, tmp_path, config=FAST, base_seed=2)
        lines = (tmp_path / "progress.ndjson").read_text().splitlines()
        keys = [json.dumps(json.loads(l)["spec"], sort_keys=True)
                for l in lines]
        assert len(keys) == len(set(keys)) == 2

    def test_worker_count_does_not_change_results(self, tmp_path):
        ds, plan = small_dataset()
        specs = [hyper_spec(size=s) for s in (1, 2)]
        cfg = TrainConfig(epochs=2, batch_size=32, seed=0)
        run_search(specs, ds, plan, tmp_path / "w1", config=cfg, base_seed=4,
                   workers=1)
        run_search(specs, ds, plan, tmp_path / "w2", config=cfg, base_seed=4,
                   workers=2)
        assert (tmp_path / "w1" / "results.ndjson").read_bytes() == \
            (tmp_path / "w2" / "results.ndjson").read_bytes()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers, tmp_path):
        ds, plan = small_dataset()
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_search([hyper_spec()], ds, plan, tmp_path, config=FAST,
                       workers=workers)

    def test_empty_spec_list_rejected_before_writing(self, tmp_path):
        ds, plan = small_dataset()
        out = tmp_path / "cell"
        with pytest.raises(ValueError, match="no configurations"):
            run_search([], ds, plan, out, config=FAST)
        assert not out.exists()

    @pytest.mark.parametrize("base_seed", [-1, -7])
    def test_negative_base_seed_rejected_before_writing(self, base_seed,
                                                        tmp_path):
        ds, plan = small_dataset()
        out = tmp_path / "cell"
        with pytest.raises(ValueError,
                           match=f"base_seed must be >= 0, got {base_seed}"):
            run_search([hyper_spec()], ds, plan, out, config=FAST,
                       base_seed=base_seed)
        assert not out.exists()

    def test_tie_break_prefers_fewer_params(self):
        records = [
            {"spec": {"test_layer": "cnn:16", "n_dense1": 0}, "mean_mae": 0.5,
             "param_count": 300},
            {"spec": {"test_layer": "cnn:8", "n_dense1": 0}, "mean_mae": 0.5,
             "param_count": 200},
        ]
        assert search_mod._best_of(records)["param_count"] == 200

    def test_non_finite_mean_never_wins(self):
        records = [
            {"spec": {"test_layer": "cnn:8"}, "mean_mae": float("nan"),
             "param_count": 100},
            {"spec": {"test_layer": "cnn:16"}, "mean_mae": 0.5,
             "param_count": 300},
            {"spec": {"test_layer": "cnn:32"}, "mean_mae": float("inf"),
             "param_count": 50},
            {"spec": {"test_layer": "cnn:64"}, "mean_mae": None,
             "param_count": 10},  # as a ledger records a non-finite mean
        ]
        for order in (records, records[::-1]):
            assert search_mod._best_of(order)["mean_mae"] == 0.5

    def test_no_finite_mean_raises(self):
        records = [{"spec": {"test_layer": f"cnn:{i}"}, "mean_mae": mean,
                    "param_count": 100}
                   for i, mean in enumerate([math.nan, None, math.inf])]
        with pytest.raises(ValueError, match="finite"):
            search_mod._best_of(records)

    def test_winner_is_a_plain_fit_on_the_cv_block(self, tmp_path):
        # scripted oracle: the winner's retrain written as one direct fit
        ds, plan = small_dataset()
        spec = hyper_spec(size=2)
        run_search([spec], ds, plan, tmp_path / "cell", config=FAST,
                   base_seed=6)
        model_seed, shuffle_seed = fold_seeds(6, spec, len(plan.folds))
        model = build(dataclasses.replace(spec, seed=model_seed))
        cv = plan.cv_indices
        history = fit(model, ds.x[cv], ds.y[cv],
                      dataclasses.replace(FAST, seed=shuffle_seed))
        model.save(tmp_path / "best_model.json")
        write_history_csv(history, tmp_path / "history_best.csv",
                          header_lines=[f"spec: {spec.canonical()}"])
        for name in ("best_model.json", "history_best.csv"):
            assert (tmp_path / "cell" / name).read_bytes() == \
                (tmp_path / name).read_bytes(), name


def count_data_hashes(monkeypatch):
    """List the header of every sha256 started by ``hyperts.data`` from
    here on; ``WindowedDataset.digest`` is what hashes the windows."""
    headers = []

    def sha256(header):
        headers.append(header)
        return hashlib.sha256(header)

    monkeypatch.setattr(data_mod, "hashlib",
                        types.SimpleNamespace(sha256=sha256))
    return headers


class TestRunStamp:
    def test_stamp_is_pinned(self):
        # ledgers on disk hold these values; a new formula strands them
        ds = WindowedDataset(x=(np.arange(144.0) / 8.0).reshape(24, 3, 2),
                             y=(np.arange(48.0) / -4.0).reshape(24, 2))
        plan = split(ds, cv_fraction=0.75, folds=4)
        config = TrainConfig(epochs=3, batch_size=4, lr=0.01)
        assert search_mod._run_stamp(ds, plan, config, 7) == \
            "e3879542f1838a66"
        assert search_mod._run_stamp(ds, plan, TrainConfig(), 0) == \
            "86bc7f31cde06ddc"

    def test_dataset_is_hashed_once_per_settings(self, tmp_path,
                                                 monkeypatch):
        headers = count_data_hashes(monkeypatch)
        ds, plan = small_dataset()
        assert headers == []  # windowing and splitting hash nothing
        specs = [hyper_spec(), hyper_spec(size=2)]
        run_search(specs, ds, plan, tmp_path / "a", config=FAST, base_seed=2)
        assert len(headers) == 1
        calls = count_fits(monkeypatch)
        run_search(specs, ds, plan, tmp_path / "a", config=FAST, base_seed=2)
        assert calls == [] and len(headers) == 1  # the rerun hashes no data
        run_search(specs[:1], ds, plan, tmp_path / "b", config=FAST,
                   base_seed=2)
        assert len(headers) == 1  # another cell on the same dataset
        run_search(specs[:1], ds, plan, tmp_path / "c", config=FAST,
                   base_seed=3)
        assert len(headers) == 2

    @pytest.mark.parametrize("field", ["x", "y"])
    def test_changed_data_in_a_new_dataset_object_raises(self, field,
                                                         tmp_path):
        ds, plan = small_dataset()
        run_search([hyper_spec()], ds, plan, tmp_path, config=FAST)
        before = dir_bytes(tmp_path)
        changed = dataclasses.replace(
            ds, **{field: getattr(ds, field) + 1e-9})
        with pytest.raises(ValueError, match="scored under other"):
            run_search([hyper_spec()], changed, plan, tmp_path, config=FAST)
        assert dir_bytes(tmp_path) == before

    @pytest.mark.parametrize("fault,match", [
        ("cv_reversed_holdout_short", r"cv_indices must be 0\.\.79$"),
        ("cv_reversed", r"cv_indices must be 0\.\.79$"),
        ("holdout_short", r"holdout_indices must be 80\.\.99, after"),
        ("holdout_reversed", r"holdout_indices must be 80\.\.99, after"),
        ("holdout_empty", r"holdout_indices must be 100\.\.99, after"),
        ("folds_reversed", r"folds must be np\.array_split\(plan\.cv_indices,"
                           r" 10\)$"),
        ("folds_interleaved", r"folds must be np\.array_split\("
                              r"plan\.cv_indices, 10\)$"),
        ("folds_resized", r"folds must be np\.array_split\("
                          r"plan\.cv_indices, 10\)$"),
        ("folds_empty", r"folds must be np\.array_split\(plan\.cv_indices,"
                        r" 0\)$")])
    def test_plan_other_than_split_raises_and_writes_nothing(
            self, fault, match, tmp_path):
        # all but holdout_empty, folds_resized and folds_empty get
        # split(ds)'s stamp, so the stamp alone could not tell them apart
        ds, plan = small_dataset()
        cv, holdout, folds = plan.cv_indices, plan.holdout_indices, plan.folds
        every = np.arange(len(ds))
        other = {
            "cv_reversed_holdout_short": (cv[::-1], holdout[:-5], folds),
            "cv_reversed": (cv[::-1], holdout, folds),
            "holdout_short": (cv, holdout[:-5], folds),
            "holdout_reversed": (cv, holdout[::-1], folds),
            "holdout_empty": (every, every[:0], np.array_split(every, 10)),
            "folds_reversed": (cv, holdout, folds[::-1]),
            "folds_interleaved": (cv, holdout,
                                  [cv[k::10] for k in range(10)]),
            "folds_resized": (cv, holdout, [cv[:9], cv[9:16], *folds[2:]]),
            "folds_empty": (cv, holdout, []),
        }[fault]
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=match):
            run_search([hyper_spec()], ds, SplitPlan(*other), out,
                       config=FAST)
        assert not out.exists()


class TestNonFiniteScores:
    """A diverged config's scores are ``null`` in both ledgers, never a bare
    ``NaN``, which is not JSON."""

    SPECS = [hyper_spec(size=1), hyper_spec(size=2)]

    def search(self, out, monkeypatch, specs=None):
        """Search with size-2 configs scoring NaN on their first fold, and
        so a NaN mean."""
        real = search_mod.cross_validate

        def scorer(spec, *args):
            mean, maes, params = real(spec, *args)
            if spec.size == 2:
                mean, maes = math.nan, [math.nan] + maes[1:]
            return mean, maes, params

        monkeypatch.setattr(search_mod, "cross_validate", scorer)
        ds, plan = small_dataset()
        return run_search(specs or self.SPECS, ds, plan, out, config=FAST,
                          base_seed=2)

    def test_ledgers_record_null(self, tmp_path, monkeypatch):
        result = self.search(tmp_path, monkeypatch)
        for name in ("progress.ndjson", "results.ndjson"):
            by_size = {r["spec"]["test_layer"]: r
                       for r in strict_records(tmp_path / name)}
            bad = by_size["hyper:2:quaternion"]
            assert bad["mean_mae"] is None, name
            assert bad["fold_maes"][0] is None, name
            assert all(math.isfinite(m) for m in bad["fold_maes"][1:]), name
        assert result.best["spec"] == self.SPECS[0].to_json_dict()

    def test_finite_records_unchanged(self, tmp_path, monkeypatch):
        self.search(tmp_path / "both", monkeypatch)
        self.search(tmp_path / "finite", monkeypatch, self.SPECS[:1])
        lines = (tmp_path / "both" / "results.ndjson").read_text() \
            .splitlines(keepends=True)
        assert lines[0] == \
            (tmp_path / "finite" / "results.ndjson").read_text()
        assert (tmp_path / "both" / "best.json").read_bytes() == \
            (tmp_path / "finite" / "best.json").read_bytes()

    @pytest.mark.parametrize("written", ["null", "NaN"])
    def test_resume_reads_non_finite_records_back(self, written, tmp_path,
                                                  monkeypatch):
        self.search(tmp_path / "fresh", monkeypatch)
        out = tmp_path / "resumed"
        self.search(out, monkeypatch)
        ledger = out / "progress.ndjson"
        if written == "NaN":  # as an older ledger wrote it
            ledger.write_text(ledger.read_text().replace("null", "NaN"))
        (out / "results.ndjson").unlink()
        calls = count_fits(monkeypatch)
        self.search(out, monkeypatch)
        assert calls == []
        strict_records(out / "results.ndjson")
        assert canonical_bytes(out) == canonical_bytes(tmp_path / "fresh")


def dir_bytes(out, skip=()):
    return {p.name: p.read_bytes() for p in out.iterdir()
            if p.name not in skip}


def canonical_bytes(out):
    """Every file but the ledger, whose records hold each config's seconds."""
    return dir_bytes(out, skip={"progress.ndjson"})


def count_fits(monkeypatch):
    """List the spec of every fold fitted from here on, the winner's retrain
    included: one entry per fold of each ``search._fit_folds`` call."""
    calls = []
    real = search_mod._fit_folds

    def folds(*args, **kw):
        calls.extend([args[0]] * len(args[5]))
        return real(*args, **kw)

    monkeypatch.setattr(search_mod, "_fit_folds", folds)
    return calls


class TestWinnerCache:
    SPECS = [hyper_spec(size=s) for s in (1, 2)]

    def search(self, out, specs=None):
        ds, plan = small_dataset()
        return run_search(specs or self.SPECS, ds, plan, out, config=FAST,
                          base_seed=2)

    def test_rerun_fits_nothing_and_changes_no_file(self, tmp_path,
                                                    monkeypatch):
        first = self.search(tmp_path)
        before = dir_bytes(tmp_path)
        assert set(before) == {"progress.ndjson", "results.ndjson",
                               "best.json", "best_model.json",
                               "history_best.csv", "best.stamp"}
        calls = count_fits(monkeypatch)
        again = self.search(tmp_path)
        assert calls == []
        assert again == first
        assert dir_bytes(tmp_path) == before

    @pytest.mark.parametrize("name", ["best.json", "best_model.json",
                                      "history_best.csv", "best.stamp"])
    @pytest.mark.parametrize("damage", ["truncated", "deleted", "edited"])
    def test_damaged_file_retrains_once_and_restores_every_file(
            self, name, damage, tmp_path, monkeypatch):
        fresh = tmp_path / "fresh"
        self.search(fresh)
        out = tmp_path / "damaged"
        self.search(out)
        path = out / name
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-7])
        elif damage == "deleted":
            path.unlink()
        else:  # bump the last digit
            text = path.read_text()
            i = max(text.rfind(d) for d in "0123456789")
            path.write_text(text[:i] + str((int(text[i]) + 1) % 10)
                            + text[i + 1:])
        ledger = (out / "progress.ndjson").read_bytes()
        assert canonical_bytes(out) != canonical_bytes(fresh)
        calls = count_fits(monkeypatch)
        self.search(out)
        assert len(calls) == 1
        assert canonical_bytes(out) == canonical_bytes(fresh)
        assert (out / "progress.ndjson").read_bytes() == ledger

    def test_stamp_of_another_run_retrains(self, tmp_path, monkeypatch):
        self.search(tmp_path)
        before = dir_bytes(tmp_path)
        stamp = json.loads(before["best.stamp"])
        (tmp_path / "best.stamp").write_text(
            json.dumps(dict(stamp, run="0" * 16)))
        calls = count_fits(monkeypatch)
        self.search(tmp_path)
        assert len(calls) == 1
        assert dir_bytes(tmp_path) == before

    @pytest.mark.parametrize("first", ["loser", "winner"])
    def test_growing_specs_retrains_only_a_new_winner(self, first, tmp_path,
                                                      monkeypatch):
        ds, plan = small_dataset()
        scores = {spec.canonical(): cross_validate(spec, ds, plan, FAST,
                                                   base_seed=2)[0]
                  for spec in self.SPECS}
        loser, winner = sorted(self.SPECS,
                               key=lambda s: -scores[s.canonical()])
        old, new = (loser, winner) if first == "loser" else (winner, loser)
        self.search(tmp_path / "grown", [old])
        self.search(tmp_path / "fresh", [old, new])
        calls = count_fits(monkeypatch)
        result = self.search(tmp_path / "grown", [old, new])
        assert result.best["spec"] == winner.to_json_dict()
        # ten folds for the new config, then a retrain only if it won
        assert calls == [new] * (11 if new == winner else 10)
        assert canonical_bytes(tmp_path / "grown") == \
            canonical_bytes(tmp_path / "fresh")
