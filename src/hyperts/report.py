"""Comparison-table assembly from completed search cells.

A search cell directory contains ``cell.json`` (label, window, span, order)
plus the search ledgers. The report groups cells into a window x span grid
and lists, per architecture label, the best score and trainable-parameter
count, flagging the minimum-parameter label in each cell.
"""

from __future__ import annotations

import json
import pathlib

CANONICAL_LABELS = ["CNN", "LSTM", "H", "HR"]


def _label_order(labels) -> list[str]:
    known = [l for l in CANONICAL_LABELS if l in labels]
    extra = sorted(set(labels) - set(CANONICAL_LABELS))
    return known + extra


def collect_cells(results_dir) -> list[dict]:
    """Find every completed cell (cell.json + best.json) under a directory."""
    root = pathlib.Path(results_dir)
    cells = []
    for cell_path in sorted(root.glob("**/cell.json")):
        best_path = cell_path.parent / "best.json"
        if not best_path.exists():
            continue
        with open(cell_path) as fh:
            cell = json.load(fh)
        with open(best_path) as fh:
            best = json.load(fh)
        cells.append({
            "label": cell["label"],
            "window": int(cell["window"]),
            "span": int(cell["span"]),
            "order": cell.get("order"),
            "best": best,
        })
    return cells


def build_report(results_dir) -> dict:
    cells = collect_cells(results_dir)
    if not cells:
        raise ValueError(f"no completed search cells under {results_dir}")
    grid: dict[tuple[int, int], dict] = {}
    for cell in cells:
        key = (cell["window"], cell["span"])
        entry = grid.setdefault(key, {})
        best = cell["best"]
        entry[cell["label"]] = {
            "mean_mae": best["mean_mae"],
            "holdout_mae": best["holdout_mae"],
            "param_count": best["param_count"],
            "spec": best["spec"],
        }
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
    labels = _label_order({lbl for cell in out_cells
                           for lbl in cell["classes"]})
    return {"labels": labels, "cells": out_cells}


def write_report_csv(report: dict, path,
                     header_lines: list[str] | None = None) -> None:
    labels = report["labels"]
    cols = ["window", "span"]
    for label in labels:
        cols += [f"{label}_mae", f"{label}_holdout_mae", f"{label}_params"]
    cols.append("min_params_label")
    with open(path, "w") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        fh.write(",".join(cols) + "\n")
        for cell in report["cells"]:
            row = [str(cell["window"]), str(cell["span"])]
            for label in labels:
                info = cell["classes"].get(label)
                if info is None:
                    row += ["", "", ""]
                else:
                    row += [repr(info["mean_mae"]), repr(info["holdout_mae"]),
                            str(info["param_count"])]
            row.append(cell["min_params_label"])
            fh.write(",".join(row) + "\n")


def write_report_json(report: dict, path, meta: dict | None = None) -> None:
    doc = dict(report)
    if meta:
        doc["meta"] = meta
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
