"""Comparison-table assembly from completed search cells.

A search cell directory contains ``cell.json`` (label, window, span, order)
plus the search ledgers. The report groups cells into a window x span grid
and lists, per architecture label, the best score and trainable-parameter
count, flagging the minimum-parameter label in each cell.
"""

from __future__ import annotations

import pathlib

from .model import read_json, typed_field, write_csv
from .search import BEST_FILE, CELL_FILE

CANONICAL_LABELS = ["CNN", "LSTM", "H", "HR"]
BEST_FIELDS = ("mean_mae", "holdout_mae", "param_count", "spec")


def _label_order(labels) -> list[str]:
    known = [l for l in CANONICAL_LABELS if l in labels]
    extra = sorted(set(labels) - set(CANONICAL_LABELS))
    return known + extra


def build_report(results_dir) -> dict:
    """Window x span grid of each label's best, read from every completed
    cell (``cell.json`` plus ``best.json``) under ``results_dir``; raises
    ``ValueError`` if there is none, two share a label, window and span,
    either document lacks a field the report reads, a cell's label is not
    a string, its window or span or a winner's ``param_count`` is not an
    integer, or a winner's ``mean_mae`` or ``holdout_mae`` is not a number."""
    grid: dict[tuple[int, int], dict] = {}
    dirs: dict[tuple[str, int, int], pathlib.Path] = {}
    for cell_path in sorted(pathlib.Path(results_dir).glob("**/" + CELL_FILE)):
        best_path = cell_path.parent / BEST_FILE
        if not best_path.exists():
            continue
        cell = read_json(cell_path, ("label", "window", "span"))
        best = read_json(best_path, BEST_FIELDS)
        label = typed_field(cell, "label", str, "a string", cell_path)
        window, span = (typed_field(cell, key, int, "an integer", cell_path)
                        for key in ("window", "span"))
        for key in ("mean_mae", "holdout_mae"):
            typed_field(best, key, (int, float), "a number", best_path)
        # the parameter count ranks the labels
        typed_field(best, "param_count", int, "an integer", best_path)
        other = dirs.setdefault((label, window, span), cell_path.parent)
        if other != cell_path.parent:
            raise ValueError(f"{other} and {cell_path.parent} are both {label}"
                             f" cells at window {window}, span {span}")
        grid.setdefault((window, span), {})[label] = {
            k: best[k] for k in BEST_FIELDS}
    if not grid:
        raise ValueError(f"no completed search cells under {results_dir}")
    out_cells = []
    for (window, span) in sorted(grid):
        classes = grid[(window, span)]
        min_label = min(classes, key=lambda l: (classes[l]["param_count"], l))
        out_cells.append({
            "window": window,
            "span": span,
            "classes": classes,
            "min_params_label": min_label,
        })
    labels = _label_order({label for label, _, _ in dirs})
    return {"labels": labels, "cells": out_cells}


def write_report_csv(report: dict, path,
                     header_lines: list[str] | None = None) -> None:
    labels = report["labels"]
    cols = ["window", "span"]
    for label in labels:
        cols += [f"{label}_mae", f"{label}_holdout_mae", f"{label}_params"]
    cols.append("min_params_label")
    rows = [cols]
    for cell in report["cells"]:
        row = [str(cell["window"]), str(cell["span"])]
        for label in labels:
            info = cell["classes"].get(label)
            if info is None:
                row += ["", "", ""]
            else:
                row += [repr(info["mean_mae"]), repr(info["holdout_mae"]),
                        str(info["param_count"])]
        rows.append(row + [cell["min_params_label"]])
    write_csv(path, header_lines, rows)
