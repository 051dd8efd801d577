"""Correctness checks on a run's outputs, against `reference`.

Each check compares the program's output with a value computed apart from
it, never with a stored copy of an earlier output. `Verdict` counts the
operations whose output failed a check and keeps one line per problem.
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib

import numpy as np

import hyperts.cli
import hyperts.model

import reference

FOLDS = 10
ATOL = 1e-9


class Verdict:
    def __init__(self):
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str, count_op: bool = True) -> None:
        if count_op:
            self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def ledger_state(cells) -> dict:
    """Bytes of each cell's canonical ledgers and its progress line count."""
    state = {}
    for cell in cells:
        progress = (cell.out / "progress.ndjson").read_text().splitlines()
        state[str(cell.out)] = ((cell.out / "results.ndjson").read_bytes(),
                                (cell.out / "best.json").read_bytes(),
                                len(progress))
    return state


def ledger_bytes(cells) -> int:
    return sum((cell.out / name).stat().st_size for cell in cells
               for name in ("progress.ndjson", "results.ndjson", "best.json"))


def compare_rerun(before: dict, after: dict, verdict: Verdict) -> None:
    """A rerun leaves results.ndjson and best.json byte-identical and scores
    no config; a cell that differs counts its winner retrain as failed."""
    for key, (results, best, lines) in before.items():
        if after[key] != (results, best, lines):
            verdict.fail(f"{key}: rerun changed the ledgers or scored a config")


class Reference:
    """The standardized table and its windows, built from the CSV exports."""

    def __init__(self, manifest):
        self.dates, self.order, self.raw = reference.aligned_table(manifest)
        with open(manifest) as fh:
            self.target = json.load(fh)["target"]
        self.std = (self.raw - self.raw.mean(axis=0)) / self.raw.std(axis=0)
        self._cache = {}

    def windows(self, cell):
        key = (cell.window, cell.span, tuple(cell.order))
        if key not in self._cache:
            self._cache[key] = reference.windows(
                self.std, self.order, cell.order, self.target, cell.window,
                cell.span)
        return self._cache[key]


def _unseeded(spec: dict) -> dict:
    """A spec without its seed: the winner is retrained from a derived one."""
    return {k: v for k, v in spec.items() if k != "seed"}


def check_cell(cell, program_x, ref: Reference, verdict: Verdict) -> float:
    """Check one searched cell; return the winner's holdout MAE."""
    records = [json.loads(line) for line in
               (cell.out / "results.ndjson").read_text().splitlines()]
    for rec in records:
        maes = rec["fold_maes"]
        if len(maes) != FOLDS or not all(math.isfinite(m) for m in maes) \
                or not math.isclose(rec["mean_mae"], float(np.mean(maes)),
                                    rel_tol=1e-12, abs_tol=0.0):
            verdict.fail(f"{cell.out}: mean_mae is not the mean of"
                         f" {FOLDS} finite fold MAEs ({rec['spec']})")
        elif rec["param_count"] != reference.param_count(rec["spec"]):
            verdict.fail(f"{cell.out}: param_count {rec['param_count']} !="
                         f" closed form {reference.param_count(rec['spec'])}")
    best = json.loads((cell.out / "best.json").read_text())
    lowest = min(r["mean_mae"] for r in records)
    ties = [r for r in records if r["mean_mae"] == lowest]
    fewest = min(r["param_count"] for r in ties)
    holdout = best.get("holdout_mae", float("nan"))
    x, y = ref.windows(cell)
    cv_n = reference.cv_size(len(x))
    if best["mean_mae"] != lowest or best["param_count"] != fewest \
            or best["spec"] not in [r["spec"] for r in ties]:
        verdict.fail(f"{cell.out}: best.json is not the argmin")
        return holdout
    if not math.isfinite(holdout):
        verdict.fail(f"{cell.out}: holdout MAE {holdout} is not finite")
        return holdout
    doc = json.loads((cell.out / "best_model.json").read_text())
    want = reference.forward(doc, x[cv_n:])
    got = hyperts.model.load_model(cell.out / "best_model.json").forward(
        program_x[cv_n:], training=False)
    mean_mae = float(np.mean(np.abs(y[cv_n:] - y[:cv_n].mean())))
    if _unseeded(doc["spec"]) != _unseeded(best["spec"]):
        verdict.fail(f"{cell.out}: best_model.json is not the winner")
    elif got.shape != want.shape or np.max(np.abs(got - want)) > ATOL:
        verdict.fail(f"{cell.out}: holdout predictions differ from the"
                     f" reference forward pass")
    elif abs(float(np.mean(np.abs(want - y[cv_n:]))) - holdout) > ATOL:
        verdict.fail(f"{cell.out}: holdout MAE {holdout} differs from the"
                     f" reference")
    elif not holdout < mean_mae:
        verdict.fail(f"{cell.out}: holdout MAE {holdout:.4f} is not below"
                     f" the CV-mean predictor's {mean_mae:.4f}")
    return holdout


def check_rounds(workload, round_dirs, verdict: Verdict) -> float:
    """Check every round; return the mean winner holdout MAE of round 0."""
    ref = Reference(workload.manifest)
    first = {}
    holdouts = []
    for k, out in enumerate(round_dirs):
        for cell in workload.cells(out):
            hold = check_cell(cell, workload.windows(cell), ref, verdict)
            results = (cell.out / "results.ndjson").read_bytes()
            key = cell.out.name
            if k == 0:
                holdouts.append(hold)
                first[key] = results
            elif results != first.get(key):
                verdict.fail(f"{cell.out}: results differ from round 0",
                             count_op=False)
    if workload.name == "cli_grid":
        check_cli_outputs(workload, ref, round_dirs, verdict)
    return float(np.mean(holdouts))


def _csv_rows(path: pathlib.Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")]


def check_cli_outputs(workload, ref: Reference, round_dirs,
                      verdict: Verdict) -> None:
    """ingest, correlate and report outputs of the CLI route."""
    table, scaler, _ = hyperts.cli.load_dataset(workload.data_dir)
    if workload.ingested_rows != len(ref.dates) or \
            [d.isoformat() for d in table.dates] != ref.dates:
        verdict.fail(f"ingest kept {workload.ingested_rows} rows, the"
                     f" exports share {len(ref.dates)} dates", count_op=False)
    elif not np.allclose(scaler.inverse(table.values), ref.raw,
                         rtol=1e-12, atol=0.0):
        verdict.fail("inverse-scaled columns differ from the CSV Close values",
                     count_op=False)
    corr_dir = workload.data_dir / "correlations"
    rows = _csv_rows(corr_dir / "correlation_matrix.csv")
    matrix = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    if rows[0][1:] != ref.order or \
            np.max(np.abs(matrix - np.corrcoef(ref.raw.T))) > ATOL:
        verdict.fail("correlation matrix differs from np.corrcoef",
                     count_op=False)
    n = len(ref.raw)
    for a, b in itertools.combinations_with_replacement(ref.order, 2):
        ia, ib = ref.order.index(a), ref.order.index(b)
        got = np.array([float(r[1]) for r in
                        _csv_rows(corr_dir / f"lag_{a}_{b}.csv")[1:]])
        want = np.array([np.corrcoef(ref.raw[:n - lag, ia],
                                     ref.raw[lag:, ib])[0, 1]
                         for lag in range(workload.max_lag + 1)])
        if got.shape != want.shape or np.max(np.abs(got - want)) > ATOL:
            verdict.fail(f"lag curve {a}->{b} differs from np.corrcoef",
                         count_op=False)
    for out in round_dirs:
        report = json.loads((out / "report.json").read_text())
        entries = [(cell["window"], cell["span"], label, info)
                   for cell in report["cells"]
                   for label, info in cell["classes"].items()]
        best = {}
        for path in out.glob("*/best.json"):
            best[path.parent.name] = json.loads(path.read_text())
        covered = {f"{label}_w{w}_s{s}": info["holdout_mae"]
                   for w, s, label, info in entries}
        if len(entries) != workload.n_cells or set(covered) != set(best) or \
                any(best[k]["holdout_mae"] != v for k, v in covered.items()):
            verdict.fail(f"{out}: report covers {len(entries)} cells, expected"
                         f" the {workload.n_cells} searched", count_op=False)
