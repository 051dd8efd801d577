"""End-to-end command-line behavior: artifacts, exit codes, idempotency."""

import json
import os

import numpy as np
import pytest

from conftest import synthetic_table, write_ticker_csvs
from hyperts import cli
from hyperts.cli import load_dataset, main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def ingested(tmp_path):
    table = synthetic_table(n=120)
    manifest = write_ticker_csvs(tmp_path, table)
    data_dir = tmp_path / "data"
    assert run(["ingest", "--manifest", manifest, "--out", data_dir]) == 0
    return data_dir


class TestIngest:
    def test_row_count_with_known_overlap(self, tmp_path):
        table = synthetic_table(n=60)
        # drop different rows from two tickers: overlap = 60 - 2
        manifest = write_ticker_csvs(tmp_path, table,
                                     drop={"T0": {3}, "T2": {7}})
        out = tmp_path / "data"
        assert run(["ingest", "--manifest", manifest, "--out", out]) == 0
        loaded, scaler, target = load_dataset(out)
        assert len(loaded) == 58
        assert target == "T0"
        assert scaler.order == ["T0", "T1", "T2", "T3"]

    def test_values_are_standardized(self, ingested):
        table, _, _ = load_dataset(ingested)
        assert np.all(np.abs(table.values.mean(axis=0)) < 1e-10)
        np.testing.assert_allclose(table.values.std(axis=0), 1.0, atol=1e-10)

    def test_missing_file_nonzero_exit(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            {"tickers": {"A": str(tmp_path / "nope.csv")}, "order": ["A"]}))
        assert run(["ingest", "--manifest", manifest,
                    "--out", tmp_path / "d"]) != 0

    @pytest.mark.parametrize("doc,error", [
        ({"order": ["A"]}, "no tickers in the document"),
        (["A"], "not a JSON object"),
        ({"tickers": ["A"], "order": ["A"]}, "tickers: not a JSON object"),
        ({"tickers": {"A": "a.csv"}, "order": "A"},
         "order is not a JSON list of names"),
        ({"tickers": {"A": "a.csv"}, "order": [["A"]]},
         "order is not a JSON list of names"),
        ({"tickers": {"A": "a.csv"}, "order": []}, "order names no columns"),
        ({"tickers": {"T0": "a.csv"}, "order": {"T0": 1}},
         "order is not a JSON list of names"),
        ({"tickers": {"A": "a.csv"}, "order": ["A", "B"]},
         "order lists unknown tickers ['B']"),
        ({"tickers": {"A": "a.csv", "B": None}, "order": ["A", "B"]},
         "tickers ['B'] have no path string"),
        ({"tickers": {"A": ["a.csv"]}, "order": ["A"]},
         "tickers ['A'] have no path string"),
        ({"tickers": {"A": "a.csv"}, "order": ["A"], "target": "B"},
         "target 'B' is not in order ['A']"),
        ({"tickers": {"A": "a.csv", "B": "b.csv"}, "order": ["A", "A", "B"]},
         "order ['A', 'A', 'B'] names a column twice"),
    ], ids=["no-tickers", "array", "tickers-array", "order-string",
            "order-nested", "order-empty", "order-object", "unknown-ticker",
            "path-null", "path-list", "unknown-target", "order-repeats"])
    def test_malformed_manifest_names_it(self, tmp_path, doc, error, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "d"
        assert run(["ingest", "--manifest", manifest, "--out", out]) == 1
        assert f"error: {manifest}: {error}" in capsys.readouterr().err
        assert not out.exists()

    def test_idempotent_artifacts(self, tmp_path):
        table = synthetic_table(n=50)
        manifest = write_ticker_csvs(tmp_path, table)
        out = tmp_path / "data"
        assert run(["ingest", "--manifest", manifest, "--out", out]) == 0
        first = (out / "dataset.json").read_bytes()
        assert run(["ingest", "--manifest", manifest, "--out", out]) == 0
        assert (out / "dataset.json").read_bytes() == first


class TestCorrelate:
    def test_artifact_set(self, ingested):
        assert run(["correlate", "--data", ingested, "--max-lag", 10]) == 0
        out = ingested / "correlations"
        assert (out / "correlation_matrix.csv").exists()
        lag_files = sorted(p.name for p in out.glob("lag_*.csv"))
        assert len(lag_files) == 10  # C(4,2) + 4

    def test_duplicated_column_unit_correlation(self, tmp_path):
        table = synthetic_table(n=80)
        values = table.values.copy()
        values[:, 1] = values[:, 0] * 2.0 + 1.0  # same series up to scale
        table.values = values
        manifest = write_ticker_csvs(tmp_path, table)
        data_dir = tmp_path / "data"
        assert run(["ingest", "--manifest", manifest, "--out", data_dir]) == 0
        assert run(["correlate", "--data", data_dir]) == 0
        lines = [l for l in (data_dir / "correlations" /
                             "correlation_matrix.csv").read_text().splitlines()
                 if not l.startswith("#")]
        row = lines[1].split(",")  # T0 row
        assert float(row[2]) == pytest.approx(1.0)

    def test_missing_dataset_nonzero_exit(self, tmp_path):
        assert run(["correlate", "--data", tmp_path / "nothing"]) != 0

    def test_dataset_without_scaler_names_it(self, ingested, capsys):
        path = ingested / "dataset.json"
        doc = json.loads(path.read_text())
        del doc["scaler"]
        path.write_text(json.dumps(doc))
        assert run(["correlate", "--data", ingested]) == 1
        assert f"error: {path}: no scaler in the document" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("fault,error", [
        (lambda s: {k: v for k, v in s.items() if k != "mean"},
         "scaler: no mean in the document"),
        (lambda s: list(s.values()), "scaler: not a JSON object"),
    ], ids=["no-mean", "array"])
    def test_malformed_scaler_names_it(self, ingested, fault, error, capsys):
        path = ingested / "dataset.json"
        doc = json.loads(path.read_text())
        doc["scaler"] = fault(doc["scaler"])
        path.write_text(json.dumps(doc))
        assert run(["correlate", "--data", ingested]) == 1
        assert f"error: {path}: {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("fault,error", [
        (lambda d: d.update(dates=d["dates"][:-1] + ["2020-13-01"]),
         "dates is not a list of ISO dates"),
        (lambda d: d.update(dates=d["dates"][:-1] + [20200101]),
         "dates is not a list of ISO dates"),
        (lambda d: d.update(dates=d["dates"][::-1]),
         "dates is not a list of ISO dates in increasing order"),
        (lambda d: d.update(dates=d["dates"][:1] + d["dates"][:-1]),
         "dates is not a list of ISO dates in increasing order"),
        (lambda d: d.update(dates=d["dates"][:-1]),
         "values is not a [dates, order] = (119, 4) table of numbers"),
        (lambda d: d.update(values=[row[:3] for row in d["values"]]),
         "values is not a [dates, order] = (120, 4) table of numbers"),
        (lambda d: d.update(values=d["values"][:-1] + [[0.0]]),
         "values is not a [dates, order] = (120, 4) table of numbers"),
        (lambda d: d.update(order=["T0", "T0", "T2", "T3"]),
         "order ['T0', 'T0', 'T2', 'T3'] names a column twice"),
        (lambda d: d.update(order=[["T0"], "T1", "T2", "T3"]),
         "order is not a JSON list of names"),
        (lambda d: d.update(target="Z"),
         "target 'Z' is not in order ['T0', 'T1', 'T2', 'T3']"),
        (lambda d: d["scaler"].update(order=["T1", "T0", "T2", "T3"]),
         "scaler.order ['T1', 'T0', 'T2', 'T3'] is not the order"),
        (lambda d: d["scaler"].update(mean=d["scaler"]["mean"][:3]),
         "scaler.mean does not hold one number per column"),
        (lambda d: d["scaler"].update(std=d["scaler"]["std"] + [1.0]),
         "scaler.std does not hold one number per column"),
        (lambda d: d["scaler"]["mean"].__setitem__(0, "x"),
         "scaler.mean does not hold one number per column"),
        (lambda d: d["scaler"]["std"].__setitem__(2, None),
         "scaler.std does not hold one number per column"),
        (lambda d: d["values"][5].__setitem__(1, "1.5"),
         "values is not a [dates, order] = (120, 4) table of numbers"),
        (lambda d: d["values"][5].__setitem__(1, float("nan")),
         "values holds a non-finite number"),
        (lambda d: d["values"][7].__setitem__(3, float("inf")),
         "values holds a non-finite number"),
        (lambda d: d["scaler"]["mean"].__setitem__(1, float("nan")),
         "scaler.mean holds a non-finite number"),
        (lambda d: d["scaler"]["std"].__setitem__(0, float("-inf")),
         "scaler.std holds a non-finite number"),
        (lambda d: d["scaler"]["std"].__setitem__(2, 0),
         "scaler.std holds a number <= 0"),
        (lambda d: d["scaler"]["std"].__setitem__(3, -1.0),
         "scaler.std holds a number <= 0"),
    ], ids=["date-invalid", "date-number", "dates-reversed",
            "dates-repeated", "dates-short", "values-narrow",
            "values-ragged", "order-repeats", "order-nested",
            "target-unknown", "scaler-order", "scaler-mean-short",
            "scaler-std-long", "scaler-mean-string", "scaler-std-null",
            "values-string", "values-nan", "values-infinity",
            "scaler-mean-nan", "scaler-std-infinity", "scaler-std-zero",
            "scaler-std-negative"])
    def test_inconsistent_dataset_names_file_and_field(self, ingested, fault,
                                                       error, capsys):
        path = ingested / "dataset.json"
        doc = json.loads(path.read_text())
        fault(doc)
        path.write_text(json.dumps(doc))
        assert run(["correlate", "--data", ingested]) == 1
        assert f"error: {path}: {error}" in capsys.readouterr().err
        assert not (ingested / "correlations").exists()

    def test_unparseable_dataset_names_it(self, ingested, capsys):
        path = ingested / "dataset.json"
        path.write_text("")
        assert run(["correlate", "--data", ingested]) == 1
        assert f"error: {path}: Expecting value" in capsys.readouterr().err

    @pytest.mark.parametrize("max_lag", [-1, -3])
    def test_negative_max_lag_exits_1_before_writing(self, ingested, max_lag,
                                                     capsys):
        assert run(["correlate", "--data", ingested,
                    "--max-lag", max_lag]) == 1
        assert f"max_lag must be >= 0, got {max_lag}" in \
            capsys.readouterr().err
        assert not (ingested / "correlations").exists()


SMOKE = ["--epochs", 3, "--sizes", "2", "--algebra", "quaternion",
         "--max-configs", 1, "--seed", 9]


class TestSearch:
    def test_smoke_cell_end_to_end(self, ingested, tmp_path):
        out = tmp_path / "cell"
        assert run(["search", "--class", "h", "--data", ingested,
                    "--window", 10, "--span", 1, "--out", out] + SMOKE) == 0
        cell = json.loads((out / "cell.json").read_text())
        assert cell["label"] == "H"
        best = json.loads((out / "best.json").read_text())
        assert best["param_count"] > 0
        assert len(best["fold_maes"]) == 10
        assert "holdout_mae" in best

    def test_rerun_identical_best(self, ingested, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["search", "--class", "h", "--data", ingested,
                        "--window", 10, "--span", 1, "--out", out]
                       + SMOKE) == 0
        assert (out1 / "best.json").read_bytes() == \
            (out2 / "best.json").read_bytes()
        assert (out1 / "results.ndjson").read_bytes() == \
            (out2 / "results.ndjson").read_bytes()

    def test_rerun_leaves_the_cell_files_untouched(self, ingested,
                                                   tmp_path):
        out = tmp_path / "cell"
        argv = ["search", "--class", "h", "--data", ingested, "--out", out]
        assert run(argv + SMOKE) == 0
        # an old stamp, so that a rewrite within the clock's tick shows too
        names = ("results.ndjson", "cell.json")
        for name in names:
            os.utime(out / name, ns=(10 ** 9, 10 ** 9))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(argv + SMOKE) == 0
        assert [(out / n).stat().st_mtime_ns for n in names] == [10 ** 9] * 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("flags", [
        ["--epochs", 4], ["--lr", 0.01], ["--batch-size", 8], ["--seed", 10],
        ["--order", "T1,T2,T3,T0"],
    ], ids=["epochs", "lr", "batch-size", "seed", "order"])
    def test_rerun_under_other_settings_exits_1_and_changes_nothing(
            self, ingested, tmp_path, flags, capsys):
        out = tmp_path / "cell"
        argv = ["search", "--class", "h", "--data", ingested, "--out", out]
        assert run(argv + SMOKE) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run(argv + SMOKE + flags) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {out / 'progress.ndjson'}: scored under other")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("damage,message", [
        ("not_json", "Expecting value"), ("list", "not a JSON object"),
        ("no_spec", "no spec in the document"),
        ("not_utf8", "'utf-8' codec can't decode byte 0xff"),
        ("spec", "spec 'x' is not an object"),
        ("fold_maes", "fold_maes 3 is not a list"),
        ("fold_mae", "fold_maes '0.5' is not a number or null"),
        ("mean_mae", "mean_mae '0.5' is not a number or null"),
        ("param_count", "param_count 12.5 is not an integer"),
        ("bool_param_count", "param_count True is not an integer")])
    def test_damaged_ledger_line_exits_1_naming_ledger_and_line(
            self, ingested, tmp_path, damage, message, capsys):
        out = tmp_path / "cell"
        argv = ["search", "--class", "h", "--data", ingested, "--out", out]
        assert run(argv + SMOKE) == 0
        ledger = out / "progress.ndjson"
        lines = ledger.read_bytes().splitlines()
        record = json.loads(lines[-1])  # stamped by this run

        def changed(**fields):
            return json.dumps(dict(record, **fields)).encode()

        line = {"not_json": b'{"spec": ', "list": b"[1, 2]",
                "no_spec": json.dumps(
                    {k: v for k, v in record.items() if k != "spec"}).encode(),
                "not_utf8": b'{"spec": "\xff"}',
                "spec": changed(spec="x"),
                "fold_maes": changed(fold_maes=3),
                "fold_mae": changed(fold_maes=[0.5, "0.5"]),
                "mean_mae": changed(mean_mae="0.5"),
                "param_count": changed(param_count=12.5),
                "bool_param_count": changed(param_count=True)}[damage]
        ledger.write_bytes(b"\n".join(lines + [line]) + b"\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run(argv + SMOKE) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {ledger} line {len(lines) + 1}: {message}")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_reordered_input_labeled_hr(self, ingested, tmp_path):
        out = tmp_path / "cell"
        assert run(["search", "--class", "h", "--data", ingested,
                    "--window", 10, "--span", 1, "--out", out,
                    "--order", "T1,T2,T3,T0"] + SMOKE) == 0
        cell = json.loads((out / "cell.json").read_text())
        assert cell["label"] == "HR"
        assert cell["order"] == ["T1", "T2", "T3", "T0"]

    @pytest.mark.parametrize("order,label", [
        ("T1,T0,T3,T2", "H_1-0-3-2"),
        ("T3,T2,T1,T0", "H_3-2-1-0"),
        ("T0,T1,T3,T2", "H_0-1-3-2"),
    ])
    def test_other_orders_labeled_by_their_positions(self, ingested, tmp_path,
                                                     order, label):
        out = tmp_path / "cell"
        assert run(["search", "--class", "h", "--data", ingested,
                    "--out", out, "--order", order] + SMOKE) == 0
        cell = json.loads((out / "cell.json").read_text())
        assert cell["label"] == label
        assert cell["order"] == order.split(",")

    def test_cnn_label(self, ingested, tmp_path):
        out = tmp_path / "cell"
        assert run(["search", "--class", "cnn", "--data", ingested,
                    "--window", 10, "--span", 1, "--out", out, "--epochs", 2,
                    "--sizes", "8", "--max-configs", 1, "--seed", 1]) == 0
        assert json.loads((out / "cell.json").read_text())["label"] == "CNN"

    def test_all_mode_loops_cells(self, ingested, tmp_path):
        out = tmp_path / "matrix"
        assert run(["search", "--all", "--data", ingested,
                    "--windows", "10", "--spans", "1", "--out", out,
                    "--epochs", 2, "--max-configs", 1, "--seed", 2]) == 0
        dirs = sorted(p.name for p in out.iterdir())
        assert dirs == ["CNN_w10_s1", "HR_w10_s1", "H_w10_s1", "LSTM_w10_s1"]
        for d in dirs:
            assert (out / d / "best.json").exists()
        hr = json.loads((out / "HR_w10_s1" / "cell.json").read_text())
        assert hr["order"] == ["T1", "T2", "T3", "T0"]  # rotated default

    @pytest.mark.parametrize("cells", [
        ["--class", "h"] + SMOKE,
        ["--all", "--windows", "10", "--spans", "1", "--epochs", 1,
         "--max-configs", 1],
    ])
    def test_dataset_loaded_once(self, ingested, tmp_path, monkeypatch,
                                 cells):
        calls = []

        def counting_load(data_dir):
            calls.append(data_dir)
            return load_dataset(data_dir)

        monkeypatch.setattr(cli, "load_dataset", counting_load)
        assert run(["search", "--data", ingested, "--out", tmp_path / "out"]
                   + cells) == 0
        assert len(calls) == 1

    def test_all_plans_each_cell_once(self, ingested, tmp_path, monkeypatch):
        calls = {"Grid.default": 0, "enumerate_specs": 0, "make_windows": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli.Grid, "default", classmethod(
            counting("Grid.default", cli.Grid.default.__func__)))
        for name in ("enumerate_specs", "make_windows"):
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        assert run(["search", "--all", "--data", ingested,
                    "--out", tmp_path / "matrix", "--windows", "10,20",
                    "--spans", "1,2", "--sizes", "8,1", "--epochs", 1,
                    "--max-configs", 1]) == 0
        # one restricted grid per class and one spec list per cell; the
        # search pass builds each cell's windows again, so that one set of
        # windows is alive at a time
        assert calls == {"Grid.default": 3, "enumerate_specs": 16,
                         "make_windows": 16}

    @pytest.mark.parametrize("flags", [
        ["--all", "--class", "cnn"],
        ["--all", "--order", "T1,T2,T3,T0"],
        ["--all", "--window", 10],
        ["--all", "--span", 1],
        ["--class", "h", "--windows", "10"],
        ["--class", "h", "--spans", "1"],
    ])
    def test_flag_of_the_other_mode_exits_1(self, ingested, tmp_path, flags,
                                            capsys):
        out = tmp_path / "out"
        grid = ["--windows", "10", "--spans", "1"] if "--all" in flags \
            else []
        assert run(["search", "--data", ingested, "--out", out] + flags
                   + grid + SMOKE) == 1
        assert f"{flags[-2]} cannot be used" in capsys.readouterr().err
        assert not out.exists()

    def test_single_cell_defaults_to_window_10_span_1(self, ingested,
                                                      tmp_path):
        out = tmp_path / "cell"
        assert run(["search", "--class", "h", "--data", ingested,
                    "--out", out] + SMOKE) == 0
        cell = json.loads((out / "cell.json").read_text())
        assert (cell["window"], cell["span"]) == (10, 1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_exits_1(self, ingested, tmp_path,
                                            workers, capsys):
        out = tmp_path / "cell"
        assert run(["search", "--class", "h", "--data", ingested,
                    "--out", out, "--workers", workers] + SMOKE) == 1
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cells", [
        ["--class", "h"] + SMOKE,
        ["--all", "--windows", "10,20", "--spans", "1", "--epochs", 1,
         "--max-configs", 1],
    ], ids=["one-cell", "all"])
    @pytest.mark.parametrize("seed", [-1, -5])
    def test_negative_seed_exits_1_before_writing(self, ingested, tmp_path,
                                                  seed, cells, capsys):
        out = tmp_path / "cell"
        assert run(["search", "--data", ingested, "--out", out] + cells
                   + ["--seed", seed]) == 1
        assert f"seed must be >= 0, got {seed}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("klass", ["cnn", "lstm"])
    @pytest.mark.parametrize("algebra", ["quaternion", "all"])
    def test_algebra_without_hyper_class_exits_1(self, ingested, tmp_path,
                                                 klass, algebra, capsys):
        out = tmp_path / "cell"
        assert run(["search", "--class", klass, "--data", ingested,
                    "--out", out, "--algebra", algebra, "--sizes", "8",
                    "--max-configs", 1, "--epochs", 1]) == 1
        assert f"--algebra cannot be used with --class {klass}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("max_configs", [0, -1])
    def test_max_configs_below_one_exits_1(self, ingested, tmp_path,
                                           max_configs, capsys):
        out = tmp_path / "cell"
        assert run(["search", "--class", "cnn", "--data", ingested,
                    "--out", out, "--epochs", 1, "--sizes", "8",
                    "--max-configs", max_configs]) == 1
        assert "max_configs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1"])
    def test_bad_learning_rate_exits_1(self, ingested, tmp_path, lr, capsys):
        out = tmp_path / "cell"
        assert run(["search", "--class", "h", "--data", ingested,
                    "--out", out, "--lr", lr] + SMOKE) == 1
        assert "lr must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_epochs_exits_1(self, ingested, tmp_path, capsys):
        out = tmp_path / "cell"
        assert run(["search", "--class", "h", "--data", ingested,
                    "--out", out, "--epochs", 0, "--max-configs", 1]) == 1
        assert "epochs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--sizes", "--dense-units",
                                      "--windows", "--spans"])
    @pytest.mark.parametrize("value", ["", "abc", "8,", "8,,16"],
                             ids=["empty", "word", "last-empty",
                                  "inner-empty"])
    def test_list_flag_that_is_not_integers_exits_2_naming_it(
            self, ingested, tmp_path, flag, value, capsys):
        out = tmp_path / "matrix"
        with pytest.raises(SystemExit) as exc:
            run(["search", "--all", "--data", ingested, "--out", out,
                 "--windows", "10", "--spans", "1", "--epochs", 1,
                 "--max-configs", 1, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid int_list value: {value!r}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("order", ["", "T0,T1,T2", "T0,T1,T2,T3,"],
                             ids=["empty", "short", "last-empty"])
    def test_order_that_is_not_a_permutation_exits_1(
            self, ingested, tmp_path, order, capsys):
        out = tmp_path / "cell"
        assert run(["search", "--class", "h", "--data", ingested,
                    "--out", out, "--order", order] + SMOKE) == 1
        assert f"order {order.split(',')} is not a permutation" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("windows,error", [
        ("10,200", "series length 120 < window + span = 201"),
        ("10,3", "window 3 too small for cnn stack: minimum is 4"),
    ], ids=["too-long", "too-small"])
    def test_all_checks_every_cell_before_the_first_search(
            self, ingested, tmp_path, windows, error, capsys):
        out = tmp_path / "matrix"
        assert run(["search", "--all", "--data", ingested, "--out", out,
                    "--windows", windows, "--spans", "1", "--epochs", 1,
                    "--max-configs", 1]) == 1
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_all_checks_the_restriction_of_every_class_first(
            self, ingested, tmp_path, capsys):
        out = tmp_path / "matrix"
        # 128 is a CNN and LSTM size but not a hypercomplex one
        assert run(["search", "--all", "--data", ingested, "--out", out,
                    "--windows", "10", "--spans", "1", "--sizes", "128",
                    "--epochs", 1, "--max-configs", 1]) == 1
        assert "restriction (128,) leaves no values" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--window", -5), ("--window", 0), ("--span", -1), ("--span", 0)])
    def test_window_or_span_below_one_exits_1_naming_it(
            self, ingested, tmp_path, flag, value, capsys):
        out = tmp_path / "cell"
        assert run(["search", "--class", "h", "--data", ingested,
                    "--out", out, flag, value] + SMOKE) == 1
        window, span = (value, 1) if flag == "--window" else (10, value)
        assert f"window {window} and span {span} must be >= 1" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_too_small_window_exits_1_before_writing(self, ingested,
                                                     tmp_path, capsys):
        out = tmp_path / "cell"
        assert run(["search", "--class", "cnn", "--data", ingested,
                    "--out", out, "--window", 3, "--sizes", "8",
                    "--max-configs", 1, "--epochs", 1]) == 1
        assert "window 3 too small for cnn stack: minimum is 4" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("klass", ["h", "cnn"])
    def test_dataset_of_three_tickers_exits_1_before_writing(
            self, tmp_path, klass, capsys):
        table = synthetic_table(n=120, order=["T0", "T1", "T2"])
        table.values = table.values[:, :3]
        data_dir = tmp_path / "data"
        assert run(["ingest", "--manifest", write_ticker_csvs(tmp_path, table),
                    "--out", data_dir]) == 0
        out = tmp_path / "cell"
        assert run(["search", "--class", klass, "--data", data_dir,
                    "--out", out, "--sizes", "2,8", "--max-configs", 1,
                    "--epochs", 1]) == 1
        assert ("the dataset has 3 channels, the models take INPUT_CHANNELS"
                " = 4" in capsys.readouterr().err)
        assert not out.exists()


class TestReport:
    def run_two_cells(self, ingested, tmp_path):
        res = tmp_path / "results"
        for klass, sizes in (("h", "1"), ("cnn", "8")):
            assert run(["search", "--class", klass, "--data", ingested,
                        "--window", 10, "--span", 1,
                        "--out", res / f"{klass}_w10_s1", "--epochs", 2,
                        "--sizes", sizes, "--max-configs", 1,
                        "--seed", 3]) == 0
        return res

    def test_min_param_class_flagged(self, ingested, tmp_path):
        res = self.run_two_cells(ingested, tmp_path)
        out = tmp_path / "report.csv"
        assert run(["report", "--in", res, "--out", out]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        cell = doc["cells"][0]
        assert set(cell["classes"]) == {"H", "CNN"}
        assert cell["classes"]["H"]["param_count"] < \
            cell["classes"]["CNN"]["param_count"]
        assert cell["min_params_label"] == "H"
        header = [l for l in out.read_text().splitlines()
                  if not l.startswith("#")][0]
        assert header.startswith("window,span,CNN_mae")

    def test_byte_identical_regeneration(self, ingested, tmp_path):
        res = self.run_two_cells(ingested, tmp_path)
        out = tmp_path / "report.csv"
        assert run(["report", "--in", res, "--out", out]) == 0
        first = out.read_bytes()
        first_json = (tmp_path / "report.json").read_bytes()
        assert run(["report", "--in", res, "--out", out]) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "report.json").read_bytes() == first_json

    def test_empty_results_nonzero_exit(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert run(["report", "--in", tmp_path / "empty",
                    "--out", tmp_path / "r.csv"]) != 0

    def test_full_16_cell_grid_shape(self, tmp_path):
        # fabricate completed cells for every window x span, two classes
        res = tmp_path / "results"
        for w in (10, 20, 40, 60):
            for s in (1, 5, 10, 20):
                for label, params in (("H", 100), ("CNN", 400)):
                    d = res / f"{label}_w{w}_s{s}"
                    d.mkdir(parents=True)
                    (d / "cell.json").write_text(json.dumps(
                        {"label": label, "window": w, "span": s,
                         "order": ["A", "B", "C", "D"]}))
                    (d / "best.json").write_text(json.dumps(
                        {"spec": {"test_layer": "x:1"}, "mean_mae": 0.1,
                         "holdout_mae": 0.2, "param_count": params}))
        out = tmp_path / "grid.csv"
        assert run(["report", "--in", res, "--out", out]) == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 17  # header + 16 cells
        assert all(row.endswith(",H") for row in rows[1:])  # fewest params

    @pytest.mark.parametrize("key", ["label", "window", "span"])
    def test_cell_document_without_a_field_exits_1(self, key, tmp_path,
                                                   capsys):
        d = tmp_path / "results" / "H_w10_s1"
        d.mkdir(parents=True)
        cell = {"label": "H", "window": 10, "span": 1}
        del cell[key]
        (d / "cell.json").write_text(json.dumps(cell))
        (d / "best.json").write_text(json.dumps(
            {"spec": {"test_layer": "x:1"}, "mean_mae": 0.1,
             "holdout_mae": 0.2, "param_count": 100}))
        out = tmp_path / "grid.csv"
        assert run(["report", "--in", tmp_path / "results", "--out",
                    out]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"error: {d / 'cell.json'}: no {key} in the document" in err

    @pytest.mark.parametrize("key,value,what", [
        ("window", "ten", "an integer"), ("window", 10.5, "an integer"),
        ("span", "ten", "an integer"), ("span", 10.5, "an integer"),
        ("label", 5, "a string"), ("label", ["H"], "a string")])
    def test_cell_field_that_is_not_an_integer_names_it(self, key, value,
                                                        what, tmp_path,
                                                        capsys):
        d = tmp_path / "results" / "H_w10_s1"
        d.mkdir(parents=True)
        (d / "cell.json").write_text(json.dumps(
            dict({"label": "H", "window": 10, "span": 1}, **{key: value})))
        (d / "best.json").write_text(json.dumps(
            {"spec": {"test_layer": "x:1"}, "mean_mae": 0.1,
             "holdout_mae": 0.2, "param_count": 100}))
        out = tmp_path / "grid.csv"
        assert run(["report", "--in", tmp_path / "results", "--out",
                    out]) == 1
        assert not out.exists()
        assert (f"error: {d / 'cell.json'}: {key} {value!r} is not {what}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key,value,what", [
        ("param_count", "12", "an integer"),
        ("param_count", 12.0, "an integer"),
        ("param_count", True, "an integer"),
        ("param_count", None, "an integer"),
        ("mean_mae", "abc", "a number"), ("mean_mae", True, "a number"),
        ("holdout_mae", None, "a number"), ("holdout_mae", "0.2", "a number")])
    def test_param_count_that_is_not_an_integer_names_best_json(
            self, key, value, what, tmp_path, capsys):
        res = tmp_path / "results"
        for label, fields in (("H", {key: value}), ("CNN", {})):
            d = res / f"{label}_w10_s1"
            d.mkdir(parents=True)
            (d / "cell.json").write_text(json.dumps(
                {"label": label, "window": 10, "span": 1}))
            (d / "best.json").write_text(json.dumps(dict(
                {"spec": {"test_layer": "x:1"}, "mean_mae": 0.1,
                 "holdout_mae": 0.2, "param_count": 400}, **fields)))
        out = tmp_path / "grid.csv"
        assert run(["report", "--in", res, "--out", out]) == 1
        assert not out.exists()
        assert (f"error: {res / 'H_w10_s1' / 'best.json'}: {key}"
                f" {value!r} is not {what}" in capsys.readouterr().err)

    def test_unparseable_best_document_names_it(self, tmp_path, capsys):
        d = tmp_path / "results" / "H_w10_s1"
        d.mkdir(parents=True)
        (d / "cell.json").write_text(json.dumps(
            {"label": "H", "window": 10, "span": 1}))
        (d / "best.json").write_text("{")
        out = tmp_path / "grid.csv"
        assert run(["report", "--in", tmp_path / "results", "--out",
                    out]) == 1
        assert not out.exists()
        assert f"error: {d / 'best.json'}: Expecting" in \
            capsys.readouterr().err

    def test_two_cells_with_same_label_window_span_rejected(self, tmp_path,
                                                            capsys):
        res = tmp_path / "results"
        for sub, params in (("a", 100), ("b", 200)):
            d = res / sub / "H_w10_s1"
            d.mkdir(parents=True)
            (d / "cell.json").write_text(json.dumps(
                {"label": "H", "window": 10, "span": 1,
                 "order": ["A", "B", "C", "D"]}))
            (d / "best.json").write_text(json.dumps(
                {"spec": {"test_layer": "x:1"}, "mean_mae": 0.1,
                 "holdout_mae": 0.2, "param_count": params}))
        out = tmp_path / "grid.csv"
        assert run(["report", "--in", res, "--out", out]) == 1
        assert not out.exists() and not out.with_suffix(".json").exists()
        err = capsys.readouterr().err
        assert (f"{res / 'a' / 'H_w10_s1'} and {res / 'b' / 'H_w10_s1'} are"
                f" both H cells at window 10, span 1") in err
