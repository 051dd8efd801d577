"""The three workloads: what set-up, a fresh search, a rerun and inference
each do, and which cells each produces.

Every program call goes through a module attribute (`hyperts.search.
run_search(...)`, not a name bound at import), so the tracer's wrappers are
the ones called while tracing is on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import pathlib
import re

import numpy as np

import hyperts.cli
import hyperts.data
import hyperts.search
import hyperts.train

import fixture

# One epoch per fit, so a step size large enough that every winner beats
# predicting the CV-block mean.
BASE_LR = 0.01


@dataclasses.dataclass
class Cell:
    """One (class, window, span, channel order) search cell of a round."""

    out: pathlib.Path
    kind: str
    window: int
    span: int
    order: list[str]


def cli(argv: list[str]) -> str:
    """Run one `hyperts` command in-process; return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hyperts.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"hyperts {' '.join(argv)} exited with {code}")
    return buf.getvalue()


class Workload:
    """What `run.Run` drives: `setup(dir)`, then per round `search(dir)`,
    `resume(dir)` and, per `Cell` of `cells(dir)`, inference on
    `windows(cell)`. `smoke` keeps one config per cell and fewer cells."""

    rows: int
    epochs: int
    setup_reps = 9
    resume_reps = 2
    predict_reps = 5
    per_cell = 2  # configs per cell

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.per_cell = 1 if smoke else self.per_cell
        self.manifest = None
        self.data_dir = None
        self.ingested_rows = None

    def ingest(self, out: pathlib.Path) -> None:
        self.manifest = fixture.write_csvs(out / "csv", self.rows, self.seed)
        self.data_dir = out / "data"
        said = cli(["ingest", "--manifest", str(self.manifest),
                    "--out", str(self.data_dir)])
        self.ingested_rows = int(re.search(r"ingested (\d+) rows",
                                           said).group(1))

    def cells(self, out: pathlib.Path) -> list[Cell]:
        raise NotImplementedError

    @property
    def configs_per_search(self) -> int:
        raise NotImplementedError


# -- library route: run_search over a seeded stratified draw ------------------

class LibraryWorkload(Workload):
    """Set-up ingests through the CLI, then windows, splits and draws specs
    with the library; each round calls `run_search` once per cell.

    A cell is one stratum of the full grid: every config of one class and
    size with a given n_dense1 and dense_units (n_dense1 = 0 also takes the
    bare stack). The seed draws `per_cell` distinct configs from it, so it
    picks n_dense2, activation and algebra. Strata fix how much work a
    search and each winner is, so seeds change the inputs, not the load.
    One config in each of many strata gives a rerun many winners to
    retrain, long enough to time steadily.
    """

    # (kind, window, span) -> [(size, n_dense1, dense_units), ...]
    strata: dict[tuple[str, int, int], list[tuple[int, int, int]]]

    def setup(self, out: pathlib.Path) -> None:
        self.ingest(out)
        table, scaler, target = hyperts.cli.load_dataset(self.data_dir)
        rng = np.random.default_rng([self.seed, 7])
        self.inputs = {}
        for (kind, window, span), sizes in self.strata.items():
            dataset = hyperts.data.make_windows(table, target, window, span,
                                                scaler=scaler)
            plan = hyperts.data.split(dataset, cv_fraction=0.8, folds=10)
            pool = hyperts.search.enumerate_specs(
                hyperts.search.Grid.default(kind), window, span, self.seed)
            for size, nd1, units in sizes[:1] if self.smoke else sizes:
                members = [s for s in pool if s.size == size
                           and s.n_dense1 == nd1
                           and (s.dense_units == units or
                                s.n_dense1 == s.n_dense2 == 0)]
                picks = rng.choice(len(members), size=self.per_cell,
                                   replace=False)
                cell = Cell(pathlib.Path(f"{kind}_{size}_{nd1}_{units}"),
                            kind, window, span, list(table.order))
                self.inputs[cell.out.name] = (
                    cell, dataset, plan, [members[i] for i in sorted(picks)])

    @property
    def configs_per_search(self) -> int:
        return sum(len(specs) for *_, specs in self.inputs.values())

    def config(self) -> hyperts.train.TrainConfig:
        return hyperts.train.TrainConfig(epochs=self.epochs, batch_size=32,
                                         seed=self.seed, lr=BASE_LR)

    def search(self, out: pathlib.Path) -> None:
        for name, (_, dataset, plan, specs) in self.inputs.items():
            hyperts.search.run_search(specs, dataset, plan, out / name,
                                      config=self.config(),
                                      base_seed=self.seed, workers=1)

    resume = search

    def cells(self, out: pathlib.Path) -> list[Cell]:
        return [dataclasses.replace(cell, out=out / name)
                for name, (cell, *_) in self.inputs.items()]

    def windows(self, cell: Cell) -> np.ndarray:
        return self.inputs[cell.out.name][1].x


class HyperCell(LibraryWorkload):
    name = "hyper_cell"
    rows = 2008
    epochs = 1
    per_cell = 1
    predict_reps = 3
    strata = {("hyper", 10, 1): [
        (1, 1, 16), (1, 1, 64), (2, 0, 32), (2, 1, 16), (4, 0, 16),
        (4, 1, 32), (8, 0, 64), (8, 1, 8), (16, 0, 8), (16, 1, 16),
        (32, 0, 32), (32, 1, 64)]}


class BaselineCells(LibraryWorkload):
    name = "baseline_cells"
    rows = 808
    epochs = 1
    predict_reps = 4
    per_cell = 1
    # After one epoch a CNN with 8 filters, or without a per-step Dense and
    # with Dense width 8, predicts little more than the mean on some seeds
    # (see CHANGES.md), so the CNN strata avoid both.
    strata = {("cnn", 40, 5): [(16, 0, 32), (16, 1, 32), (32, 1, 16)],
              ("lstm", 40, 5): [(8, 0, 8), (8, 1, 16), (16, 0, 32),
                                (16, 1, 8)]}


# -- CLI route: ingest, correlate, search --all, report, search --all -----------

class CliGrid(Workload):
    name = "cli_grid"
    rows = 808
    epochs = 1
    predict_reps = 3
    max_lag = 60
    labels = ("CNN", "LSTM", "H", "HR")

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.windows_list = [10] if smoke else [10, 20]
        self.spans_list = [1] if smoke else [1, 5]
        self._windows = {}

    def setup(self, out: pathlib.Path) -> None:
        self.ingest(out)
        cli(["correlate", "--data", str(self.data_dir),
             "--max-lag", str(self.max_lag)])

    @property
    def n_cells(self) -> int:
        return len(self.windows_list) * len(self.spans_list) * len(self.labels)

    @property
    def configs_per_search(self) -> int:
        return self.n_cells * self.per_cell

    def _search_argv(self, out: pathlib.Path) -> list[str]:
        return ["search", "--all", "--data", str(self.data_dir),
                "--out", str(out),
                "--windows", ",".join(map(str, self.windows_list)),
                "--spans", ",".join(map(str, self.spans_list)),
                "--sizes", "8", "--dense-units", "32",
                "--max-configs", str(self.per_cell),
                "--epochs", str(self.epochs), "--lr", str(BASE_LR),
                "--seed", str(self.seed), "--workers", "1"]

    def search(self, out: pathlib.Path) -> None:
        cli(self._search_argv(out))
        cli(["report", "--in", str(out), "--out", str(out / "report.csv")])

    def resume(self, out: pathlib.Path) -> None:
        cli(self._search_argv(out))

    def cells(self, out: pathlib.Path) -> list[Cell]:
        found = []
        for path in sorted(out.glob("*/cell.json")):
            doc = json.loads(path.read_text())
            found.append(Cell(path.parent, doc["class"], doc["window"],
                              doc["span"], list(doc["order"])))
        return found

    def windows(self, cell: Cell) -> np.ndarray:
        key = (cell.window, cell.span, tuple(cell.order))
        if key not in self._windows:
            table, scaler, target = hyperts.cli.load_dataset(self.data_dir)
            self._windows[key] = hyperts.data.make_windows(
                table, target, cell.window, cell.span, order=cell.order,
                scaler=scaler).x
        return self._windows[key]


WORKLOADS = {cls.name: cls for cls in (HyperCell, BaselineCells, CliGrid)}
