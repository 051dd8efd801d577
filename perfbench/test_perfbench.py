"""The benchmark's own tests: smoke-size runs of every workload in both
modes, the refusal outside a checkout, and the reference computations
against the library. Run with `python -m pytest perfbench`."""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import fixture  # noqa: E402
import reference  # noqa: E402
from hyperts.model import ModelSpec, build  # noqa: E402
from hyperts.search import Grid, enumerate_specs  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True, proc.stdout
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in doc["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "hyper_cell", "--seed", "1",
                     "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_fixture_aligns_to_the_requested_rows(tmp_path):
    manifest = fixture.write_csvs(tmp_path, rows=120, seed=5)
    dates, order, values = reference.aligned_table(manifest)
    assert len(dates) == 120 and order == fixture.TICKERS
    assert values.shape == (120, 4)


@pytest.mark.parametrize("kind,window", [("hyper", 10), ("cnn", 40),
                                         ("lstm", 40)])
def test_reference_matches_the_library(kind, window):
    rng = np.random.default_rng(0)
    specs = enumerate_specs(Grid.default(kind), window, 5, seed=1)
    for spec in specs:
        assert reference.param_count(spec.to_json_dict()) == \
            build(spec).param_count()
    x = rng.normal(size=(7, window, 4))
    for i in rng.choice(len(specs), size=6, replace=False):
        model = build(specs[i])
        for p in model.params():
            p += rng.normal(scale=0.1, size=p.shape)
        want = model.forward(x, training=False)
        got = reference.forward(model.to_doc(), x)
        assert np.max(np.abs(got - want)) < 1e-12


def test_hypercomplex_rules_cover_every_algebra():
    spec = ModelSpec(kind="hyper", size=2, algebra="quaternion", n_dense1=0,
                     n_dense2=0, dense_units=8, dense_activation="linear",
                     window=10, span=1, seed=0)
    x = np.random.default_rng(1).normal(size=(3, 10, 4))
    for algebra in reference.RULES:
        model = build(ModelSpec(**{**spec.__dict__, "algebra": algebra}))
        got = reference.forward(model.to_doc(), x)
        assert np.max(np.abs(got - model.forward(x))) < 1e-12
