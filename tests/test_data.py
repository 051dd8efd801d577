"""CSV ingestion, alignment, standardization, windowing, and splits."""

import dataclasses
import datetime
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import synthetic_table
from hyperts.data import (SeriesTable, WindowedDataset, align, load_csv,
                          load_manifest, make_windows, split, standardize)


def write_csv(path, rows, header="Date,Close"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
    return path


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        p = write_csv(tmp_path / "a.csv",
                      ["2020-01-01,1.5", "2020-01-02,2.5", "2020-01-03,3.5"])
        pairs = load_csv(p, "A")
        assert [v for _, v in pairs] == [1.5, 2.5, 3.5]
        assert pairs[0][0] == datetime.date(2020, 1, 1)

    def test_blank_close_skipped(self, tmp_path):
        p = write_csv(tmp_path / "a.csv",
                      ["2020-01-01,1.0", "2020-01-02,", "2020-01-03,3.0"])
        assert len(load_csv(p, "A")) == 2

    def test_non_finite_close_skipped(self, tmp_path, caplog):
        p = write_csv(tmp_path / "a.csv",
                      ["2020-01-01,1.0", "2020-01-02,nan", "2020-01-03,inf",
                       "2020-01-04,-inf", "2020-01-05,5.0"])
        with caplog.at_level("WARNING"):
            pairs = load_csv(p, "A")
        assert [v for _, v in pairs] == [1.0, 5.0]
        assert caplog.text.count("skipping unparseable row") == 3

    def test_unsorted_input_sorted(self, tmp_path):
        p = write_csv(tmp_path / "a.csv",
                      ["2020-01-03,3.0", "2020-01-01,1.0", "2020-01-02,2.0"])
        pairs = load_csv(p, "A")
        assert [v for _, v in pairs] == [1.0, 2.0, 3.0]

    def test_duplicate_date_keeps_first(self, tmp_path):
        p = write_csv(tmp_path / "a.csv",
                      ["2020-01-01,1.0", "2020-01-01,9.0"])
        pairs = load_csv(p, "A")
        assert pairs == [(datetime.date(2020, 1, 1), 1.0)]

    def test_extra_yahoo_columns_tolerated(self, tmp_path):
        p = write_csv(tmp_path / "a.csv",
                      ["2020-01-01,1,2,0.5,1.5,1.4,100"],
                      header="Date,Open,High,Low,Close,Adj Close,Volume")
        assert load_csv(p, "A") == [(datetime.date(2020, 1, 1), 1.5)]

    def test_empty_file_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [])
        with pytest.raises(ValueError):
            load_csv(p, "A")

    def test_missing_columns_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2020-01-01,1.0"],
                      header="Date,Open")
        with pytest.raises(ValueError):
            load_csv(p, "A")


def pairs(*items):
    return [(datetime.date.fromisoformat(d), v) for d, v in items]


class TestAlign:
    def test_two_series_partial_overlap(self):
        table = align({
            "A": pairs(("2020-01-01", 1.0), ("2020-01-02", 2.0),
                       ("2020-01-03", 3.0)),
            "B": pairs(("2020-01-02", 20.0), ("2020-01-03", 30.0),
                       ("2020-01-04", 40.0)),
        }, ["A", "B"])
        assert len(table) == 2
        np.testing.assert_array_equal(table.values, [[2, 20], [3, 30]])

    def test_identical_dates_full_length(self):
        days = [("2020-01-0%d" % i, float(i)) for i in range(1, 6)]
        table = align({"A": pairs(*days), "B": pairs(*days)}, ["A", "B"])
        assert len(table) == 5

    def test_four_series_one_gap_each(self):
        # 5 dates, each series missing a different one; only day 5 survives
        days = ["2020-01-0%d" % i for i in range(1, 6)]
        series = {}
        for i, name in enumerate(["A", "B", "C", "D"]):
            series[name] = pairs(*[(d, float(j)) for j, d in enumerate(days)
                                   if j != i])
        table = align(series, ["A", "B", "C", "D"])
        assert len(table) == 1
        assert table.dates[0] == datetime.date(2020, 1, 5)

    def test_empty_intersection_rejected(self):
        with pytest.raises(ValueError):
            align({"A": pairs(("2020-01-01", 1.0)),
                   "B": pairs(("2020-01-02", 1.0))}, ["A", "B"])

    def test_column_order_respected(self):
        days = [("2020-01-01", 1.0)]
        table = align({"A": pairs(*days), "B": pairs(("2020-01-01", 2.0))},
                      ["B", "A"])
        np.testing.assert_array_equal(table.values, [[2.0, 1.0]])


def tiny_table(values, order=None):
    values = np.asarray(values, dtype=np.float64)
    order = order or [f"C{i}" for i in range(values.shape[1])]
    dates = [datetime.date(2020, 1, 1) + datetime.timedelta(days=i)
             for i in range(values.shape[0])]
    return SeriesTable(dates=dates, order=order, values=values)


class TestStandardize:
    def test_hand_computed_population_std(self):
        table = tiny_table([[1.0], [2.0], [3.0]])
        out, scaler = standardize(table)
        # mean 2, population std sqrt(2/3)
        want = (np.array([1.0, 2.0, 3.0]) - 2.0) / math.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(out.values[:, 0], want, atol=1e-12)
        np.testing.assert_allclose(want[0], -1.224744871391589, atol=1e-12)
        assert scaler.std[0] == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_idempotent_on_standardized(self, rng):
        x = rng.normal(size=(100, 2))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out, _ = standardize(tiny_table(x))
        np.testing.assert_allclose(out.values, x, atol=1e-12)

    def test_round_trip_inverse(self, rng):
        table = tiny_table(rng.normal(loc=5.0, scale=3.0, size=(50, 3)))
        out, scaler = standardize(table)
        np.testing.assert_allclose(scaler.inverse(out.values), table.values,
                                   atol=1e-10)

    def test_moments_after_transform(self, rng):
        out, _ = standardize(tiny_table(rng.normal(size=(200, 4)) * 7 + 3))
        assert np.all(np.abs(out.values.mean(axis=0)) < 1e-10)
        np.testing.assert_allclose(out.values.std(axis=0), 1.0, atol=1e-10)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            standardize(tiny_table([[1.0, 1.0], [1.0, 2.0]]))


class TestMakeWindows:
    def test_sample_count_formula(self):
        table = tiny_table(np.arange(40.0).reshape(10, 4))
        ds = make_windows(table, "C0", window=5, span=1)
        assert len(ds) == 5  # 10 - 5 - 1 + 1

    def test_long_series_count(self):
        table = synthetic_table(n=2008)
        ds = make_windows(table, "T0", window=60, span=20)
        assert len(ds) == 1929  # 2008 - 60 - 20 + 1

    def test_ramp_first_sample(self):
        table = tiny_table(np.repeat(np.arange(10.0)[:, None], 4, axis=1))
        ds = make_windows(table, "C0", window=3, span=2)
        np.testing.assert_array_equal(ds.x[0][:, 0], [0, 1, 2])
        np.testing.assert_array_equal(ds.y[0], [3, 4])

    def test_window_target_alignment(self, rng):
        table = tiny_table(rng.normal(size=(30, 4)))
        ds = make_windows(table, "C2", window=4, span=3)
        tgt = table.column("C2")
        for i in range(len(ds)):
            np.testing.assert_array_equal(ds.y[i], tgt[i + 4:i + 7])
            np.testing.assert_array_equal(ds.x[i], table.values[i:i + 4])

    def test_too_short_rejected(self):
        table = tiny_table(np.zeros((5, 4)) + np.arange(5)[:, None])
        with pytest.raises(ValueError, match="window \\+ span"):
            make_windows(table, "C0", window=4, span=2)

    @pytest.mark.parametrize("window,span", [(0, 1), (-5, 1), (4, 0),
                                             (4, -1)])
    def test_window_or_span_below_one_rejected(self, window, span):
        table = tiny_table(np.zeros((10, 4)) + np.arange(10)[:, None])
        with pytest.raises(ValueError, match=rf"^window {window} and span"
                                             rf" {span} must be >= 1$"):
            make_windows(table, "C0", window=window, span=span)

    def test_permuted_order_permutes_channels_only(self, rng):
        table = tiny_table(rng.normal(size=(20, 4)))
        base = make_windows(table, "C1", window=4, span=2)
        perm = make_windows(table, "C1", window=4, span=2,
                            order=["C3", "C1", "C0", "C2"])
        np.testing.assert_array_equal(perm.y, base.y)
        for j, name in enumerate(["C3", "C1", "C0", "C2"]):
            k = table.order.index(name)
            np.testing.assert_array_equal(perm.x[:, :, j], base.x[:, :, k])

    def test_bad_order_rejected(self, rng):
        table = tiny_table(rng.normal(size=(20, 4)))
        with pytest.raises(ValueError):
            make_windows(table, "C0", 4, 1, order=["C0", "C1", "C2", "C2"])


class TestWindowedDataset:
    def make_ds(self):
        source = np.arange(48.0) / 8.0
        return source, WindowedDataset(x=source.reshape(8, 3, 2),
                                       y=source[:16].reshape(8, 2))

    def test_arrays_are_owned_read_only_float64(self, rng):
        ds = make_windows(tiny_table(rng.normal(size=(20, 4))), "C1",
                          window=4, span=2)
        for array in (ds.x, ds.y):
            assert array.dtype == np.float64
            assert array.flags.c_contiguous and array.flags.owndata
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ds.x[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ds.y[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.x = np.zeros_like(ds.x)

    def test_other_dtypes_and_layouts_are_copied_to_float64(self):
        x = np.arange(24, dtype=np.int32).reshape(3, 4, 2).transpose(0, 2, 1)
        ds = WindowedDataset(x=x, y=[[1], [2], [3]])
        assert ds.x.dtype == ds.y.dtype == np.float64
        assert ds.x.flags.c_contiguous
        np.testing.assert_array_equal(ds.x, x)

    def test_digest_is_sha256_of_header_x_then_y(self):
        _, ds = self.make_ds()
        want = hashlib.sha256(b"head" + ds.x.tobytes() + ds.y.tobytes())
        assert ds.digest("head") == want.hexdigest()[:16]
        assert ds.digest("other") != ds.digest("head")

    def test_mutating_the_source_changes_neither_data_nor_digest(self):
        source, ds = self.make_ds()
        first = ds.digest("head")
        source += 1.0  # the constructor was given views of this array
        _, fresh = self.make_ds()
        np.testing.assert_array_equal(ds.x, fresh.x)
        np.testing.assert_array_equal(ds.y, fresh.y)
        assert ds.digest("head") == fresh.digest("head") == first

    def test_replace_starts_with_an_empty_memo(self):
        _, ds = self.make_ds()
        first = ds.digest("head")
        assert dataclasses.replace(ds).digest("head") == first
        changed = dataclasses.replace(ds, y=ds.y + 1.0)
        assert changed.digest("head") != first
        assert ds.digest("head") == first

    def test_pickled_copy_is_read_only_with_the_same_digest(self):
        _, ds = self.make_ds()
        ds.digest("head")
        copy = pickle.loads(pickle.dumps(ds))
        assert not copy.x.flags.writeable and not copy.y.flags.writeable
        assert copy.digest("head") == ds.digest("head")


class TestSplit:
    def make_ds(self, n):
        table = tiny_table(np.arange(float(4 * (n + 4))).reshape(-1, 4))
        return make_windows(table, "C0", window=3, span=2)

    def test_100_samples(self):
        plan = split(self.make_ds(100))
        assert len(plan.cv_indices) == 80
        assert len(plan.holdout_indices) == 20
        assert all(len(f) == 8 for f in plan.folds)

    def test_101_samples_floor_rule(self):
        plan = split(self.make_ds(101))
        assert len(plan.cv_indices) == 80
        assert len(plan.holdout_indices) == 21

    def test_95_samples_fold_sizes(self):
        plan = split(self.make_ds(95))
        assert len(plan.cv_indices) == 76
        sizes = [len(f) for f in plan.folds]
        assert sorted(sizes, reverse=True) == [8, 8, 8, 8, 8, 8, 7, 7, 7, 7]
        assert max(sizes) - min(sizes) <= 1

    def test_partition_and_chronology(self):
        plan = split(self.make_ds(100))
        joined = np.concatenate(plan.folds)
        np.testing.assert_array_equal(joined, plan.cv_indices)
        assert set(plan.cv_indices) & set(plan.holdout_indices) == set()
        assert plan.cv_indices.max() < plan.holdout_indices.min()

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            split(self.make_ds(10))

    @pytest.mark.parametrize("folds", [1, 0])
    def test_fewer_than_two_folds_rejected(self, folds):
        # a single fold leaves cross-validation no training rows
        with pytest.raises(ValueError, match="folds must be >= 2"):
            split(self.make_ds(100), folds=folds)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            split(self.make_ds(100), cv_fraction=1.0)
        with pytest.raises(ValueError):
            split(self.make_ds(100), cv_fraction=0.0)


class TestWindowAndSplitProperties:
    @settings(max_examples=60, deadline=None)
    @given(window=st.integers(1, 12), span=st.integers(1, 6),
           extra=st.integers(0, 30),
           order=st.permutations(["C0", "C1", "C2", "C3"]),
           target=st.sampled_from(["C0", "C1", "C2", "C3"]))
    def test_windows_are_consecutive_rows(self, window, span, extra, order,
                                          target):
        length = window + span + extra
        table = tiny_table(np.arange(4.0 * length).reshape(length, 4))
        ds = make_windows(table, target, window, span, order=order)
        assert len(ds) == extra + 1
        cols = [table.order.index(name) for name in order]
        tgt = table.column(target)
        for i in range(len(ds)):
            np.testing.assert_array_equal(
                ds.x[i], table.values[i:i + window][:, cols])
            np.testing.assert_array_equal(
                ds.y[i], tgt[i + window:i + window + span])

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(4, 300), folds=st.integers(2, 12),
           cv_fraction=st.floats(0.05, 0.95))
    def test_split_is_chronological_and_tiles_cv(self, n, folds,
                                                 cv_fraction):
        assume(math.floor(cv_fraction * n) >= folds)
        table = tiny_table(np.arange(4.0 * (n + 3)).reshape(-1, 4))
        ds = make_windows(table, "C0", window=3, span=1)
        assert len(ds) == n
        plan = split(ds, cv_fraction=cv_fraction, folds=folds)
        assert plan.cv_indices.max() < plan.holdout_indices.min()
        np.testing.assert_array_equal(
            np.concatenate([plan.cv_indices, plan.holdout_indices]),
            np.arange(n))
        assert len(plan.folds) == folds
        np.testing.assert_array_equal(np.concatenate(plan.folds),
                                      plan.cv_indices)
        for fold in plan.folds:
            np.testing.assert_array_equal(
                fold, np.arange(fold[0], fold[0] + len(fold)))
        sizes = [len(fold) for fold in plan.folds]
        assert max(sizes) - min(sizes) <= 1


class TestManifest:
    def test_load(self, tmp_path):
        import json
        doc = {"tickers": {"A": "a.csv", "B": "b.csv"},
               "order": ["B", "A"], "target": "A"}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        tickers, order, target = load_manifest(path)
        assert order == ["B", "A"] and target == "A"
        assert tickers["B"] == "b.csv"

    def test_target_defaults_to_first(self, tmp_path):
        import json
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"tickers": {"A": "a.csv"},
                                    "order": ["A"]}))
        assert load_manifest(path)[2] == "A"

    def test_unknown_target_rejected(self, tmp_path):
        import json
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"tickers": {"A": "a.csv"},
                                    "order": ["A"], "target": "Z"}))
        with pytest.raises(ValueError):
            load_manifest(path)
