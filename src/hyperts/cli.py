"""Command-line entry point: ingest -> correlate -> search -> report.

Each command is idempotent: given identical inputs and seed it rewrites
byte-identical artifacts (no timestamps in any output). Artifact metadata
records the package version, the seed, a hash of the effective
configuration, and the defaults in force. `search` loads the dataset once
and runs its cells on it; --workers sets the size of each cell's worker
pool (default 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import pathlib
import sys

import numpy as np

from . import __version__
from .analysis import all_pair_lag_curves, correlation_matrix, \
    write_lag_csv, write_matrix_csv
from .data import SeriesTable, Scaler, align, check_order, load_csv, \
    load_manifest, make_windows, split, standardize
from .model import read_json, require_keys, spec_key, write_csv, write_json
from .report import build_report, write_report_csv
from .search import CELL_FILE, Grid, enumerate_specs, run_search
from .train import TrainConfig

DATASET_FILE = "dataset.json"
TABLE_FILE = "table.csv"

DEFAULT_WINDOW = 10
DEFAULT_SPAN = 1
DEFAULT_WINDOWS = [10, 20, 40, 60]
DEFAULT_SPANS = [1, 5, 10, 20]


def _config_hash(payload) -> str:
    return hashlib.sha256(spec_key(payload).encode()).hexdigest()[:16]


def _meta(seed, payload, defaults) -> dict:
    return {"version": __version__, "seed": seed,
            "config_hash": _config_hash(payload), "defaults": defaults}


def _meta_lines(meta: dict) -> list[str]:
    return [f"{k}: {json.dumps(meta[k], sort_keys=True)}"
            for k in sorted(meta)]


# -- ingest ----------------------------------------------------------------

def save_dataset(out_dir, table: SeriesTable, scaler: Scaler, target: str,
                 meta: dict) -> None:
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "meta": meta,
        "order": table.order,
        "target": target,
        "dates": [d.isoformat() for d in table.dates],
        "values": table.values.tolist(),
        "scaler": {"order": scaler.order, "mean": scaler.mean.tolist(),
                   "std": scaler.std.tolist()},
    }
    with open(out / DATASET_FILE, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")
    write_csv(out / TABLE_FILE, _meta_lines(meta), [["Date", *table.order]]
              + [[day.isoformat(), *map(repr, row)]
                 for day, row in zip(table.dates, table.values.tolist())])


def _numbers(path, field, value, shape, what) -> np.ndarray:
    """The JSON table ``value`` as a finite float64 array of ``shape``;
    otherwise raises ``ValueError`` naming ``path`` and ``field``."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged table: no number array at all
        array = np.asarray(None)
    if array.dtype.kind not in "iuf" or array.shape != shape:
        raise ValueError(f"{path}: {field} {what}")
    if not np.isfinite(array).all():
        raise ValueError(f"{path}: {field} holds a non-finite number")
    return array.astype(np.float64, copy=False)


def load_dataset(data_dir) -> tuple[SeriesTable, Scaler, str]:
    """The table, scaler and target saved by ``save_dataset``: the one
    reader of ``dataset.json``. Raises ``ValueError`` naming the file and
    the field if a field is missing, ``order`` and ``target`` break
    ``data.check_order``'s rule, ``dates`` are not increasing ISO dates,
    ``values`` is not a [dates, order] table of finite numbers, the
    scaler's ``order``, ``mean`` or ``std`` does not match ``order``, or a
    ``std`` is not positive."""
    import datetime
    path = pathlib.Path(data_dir) / DATASET_FILE
    doc = read_json(path, ("dates", "order", "values", "scaler", "target"))
    stats = doc["scaler"]
    require_keys(stats, ("order", "mean", "std"), f"{path}: scaler")
    order = doc["order"]
    check_order(order, doc["target"], path)
    try:
        dates = [datetime.date.fromisoformat(d) for d in doc["dates"]]
    except (TypeError, ValueError):
        dates = None
    if dates is None or dates != sorted(set(dates)):
        raise ValueError(f"{path}: dates is not a list of ISO dates in"
                         f" increasing order")
    want = (len(dates), len(order))
    values = _numbers(path, "values", doc["values"], want,
                      f"is not a [dates, order] = {want} table of numbers")
    if stats["order"] != order:
        raise ValueError(f"{path}: scaler.order {stats['order']} is not the"
                         f" order {order}")
    per_column = f"does not hold one number per column of order {order}"
    mean, std = (_numbers(path, f"scaler.{key}", stats[key], (len(order),),
                          per_column) for key in ("mean", "std"))
    if not (std > 0.0).all():
        raise ValueError(f"{path}: scaler.std holds a number <= 0")
    return (SeriesTable(dates=dates, order=order, values=values),
            Scaler(order=stats["order"], mean=mean, std=std), doc["target"])


def cmd_ingest(args) -> int:
    tickers, order, target = load_manifest(args.manifest)
    series = {name: load_csv(tickers[name], name) for name in order}
    table = align(series, order)
    table_std, scaler = standardize(table)
    payload = {"manifest": {n: str(tickers[n]) for n in order},
               "order": order, "target": target}
    meta = _meta(None, payload, {"price_column": "Close"})
    save_dataset(args.out, table_std, scaler, target, meta)
    print(f"ingested {len(table_std)} rows x {len(order)} columns"
          f" -> {args.out}")
    return 0


# -- correlate ---------------------------------------------------------------

def cmd_correlate(args) -> int:
    table, _, _ = load_dataset(args.data)
    matrix = correlation_matrix(table)
    curves = all_pair_lag_curves(table, max_lag=args.max_lag)
    out = pathlib.Path(args.out) if args.out else \
        pathlib.Path(args.data) / "correlations"
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(None, {"data": str(args.data), "max_lag": args.max_lag},
                 {"lag_convention": "values[l] = pearson(a[0:n-l], b[l:n])"})
    lines = _meta_lines(meta)
    write_matrix_csv(matrix, out / "correlation_matrix.csv", lines)
    for curve in curves:
        a, b = curve.pair
        write_lag_csv(curve, out / f"lag_{a}_{b}.csv", lines)
    print(f"wrote correlation matrix and {len(curves)} lag curves -> {out}")
    return 0


# -- search ------------------------------------------------------------------

def _rotated(order: list[str]) -> list[str]:
    """The order with its first name moved to the end: (T1, T2, T3, T0)."""
    return order[1:] + order[:1]


def _class_label(kind: str, order: list[str], default_order: list[str]) -> str:
    """``CNN``, ``LSTM`` or ``H`` for the dataset's own order, with an
    ``R`` for its rotation; any other permutation of the dataset's columns
    adds their positions, so (T1, T0, T3, T2) labels an H cell
    ``H_1-0-3-2``."""
    base = {"cnn": "CNN", "lstm": "LSTM", "hyper": "H"}[kind]
    if order == default_order:
        return base
    if order == _rotated(default_order):
        return base + "R"
    return base + "_" + "-".join(str(default_order.index(name))
                                 for name in order)


def int_list(text: str) -> tuple[int, ...]:
    """One or more comma-separated integers, such as ``10,20``."""
    return tuple(int(item) for item in text.split(","))


def _restrict(values, wanted):
    if wanted is None:
        return values
    keep = [v for v in values if v in wanted]
    if not keep:
        raise ValueError(f"restriction {wanted} leaves no values from {values}")
    return type(values)(keep)


def cmd_search(args) -> int:
    if args.all:
        mode = "with --all"
        unused = {"--class": args.klass, "--order": args.order,
                  "--window": args.window, "--span": args.span}
    else:
        mode = "without --all"
        unused = {"--windows": args.windows, "--spans": args.spans}
    mixed = [flag for flag, value in unused.items() if value is not None]
    if mixed:
        raise ValueError(f"{', '.join(mixed)} cannot be used {mode}")
    if not args.all and args.klass is None:
        raise ValueError("--class is required unless --all is given")
    if args.klass in ("cnn", "lstm") and args.algebra is not None:
        raise ValueError(f"--algebra cannot be used with --class {args.klass}")
    if args.max_configs is not None and args.max_configs < 1:
        raise ValueError(f"max_configs must be >= 1, got {args.max_configs}")
    train = {"epochs": args.epochs, "batch_size": args.batch_size,
             "lr": args.lr}
    config = TrainConfig(**train)
    algebras = None if args.algebra in (None, "all") else [args.algebra]

    table, _, target = load_dataset(args.data)
    default_order = table.order
    if args.all:
        windows = DEFAULT_WINDOWS if args.windows is None else args.windows
        spans = DEFAULT_SPANS if args.spans is None else args.spans
        rotated = _rotated(default_order)
        cells = [(k, w, s, o)
                 for w in windows for s in spans
                 for k, o in [("cnn", default_order), ("lstm", default_order),
                              ("hyper", default_order), ("hyper", rotated)]]
    else:
        kind = {"cnn": "cnn", "lstm": "lstm", "h": "hyper"}[args.klass]
        order = default_order if args.order is None else args.order
        window = DEFAULT_WINDOW if args.window is None else args.window
        span = DEFAULT_SPAN if args.span is None else args.span
        cells = [(kind, window, span, order)]

    grids = {}
    for kind in dict.fromkeys(cell[0] for cell in cells):
        grid = Grid.default(kind, algebras=algebras)
        grids[kind] = dataclasses.replace(
            grid, sizes=_restrict(grid.sizes, args.sizes),
            dense_units=_restrict(grid.dense_units, args.dense_units))

    # CNN, LSTM and H cells share windows; holding every set of the default
    # grid at once would take 26, 66 and 134 MiB at 808, 2,000 and 4,000 rows
    @functools.lru_cache(maxsize=1)
    def cut(window, span, order):
        return make_windows(table, target, window, span, list(order))
    # planning checks every cell before a search writes
    plans = [(kind, window, span, order,
              split(cut(window, span, tuple(order)), cv_fraction=0.8),
              enumerate_specs(grids[kind], window, span, args.seed,
                              limit=args.max_configs))
             for kind, window, span, order in cells]
    for kind, window, span, order, plan, specs in plans:
        label = _class_label(kind, order, default_order)
        out = pathlib.Path(args.out)
        if args.all:
            out = out / f"{label}_w{window}_s{span}"

        result = run_search(specs, cut(window, span, tuple(order)), plan, out,
                            config=config, base_seed=args.seed,
                            workers=args.workers)
        # written after the search, so that a refused rerun changes no file
        common = {"class": kind, "window": window, "span": span,
                  "order": order, "seed": args.seed, "configs": len(specs),
                  "grid_raw_size": grids[kind].raw_size()}
        meta = _meta(args.seed, dict(common, **train),
                     dict(train, cv_fraction=0.8, folds=plan.folds_n))
        write_json(out / CELL_FILE,
                   dict(common, label=label, target=target, meta=meta))
        print(f"{label} window={window} span={span}: best mean MAE"
              f" {result.best['mean_mae']:.4f},"
              f" params {result.best['param_count']},"
              f" holdout MAE {result.holdout_mae:.4f}")
    return 0


# -- report --------------------------------------------------------------------

def cmd_report(args) -> int:
    report = build_report(args.in_dir)
    meta = _meta(None, {"in": str(args.in_dir)}, {})
    out = pathlib.Path(args.out)
    base = out.with_suffix("") if out.suffix in (".csv", ".json") else out
    write_report_csv(report, base.with_suffix(".csv"), _meta_lines(meta))
    write_json(base.with_suffix(".json"), dict(report, meta=meta))
    print(f"wrote {base.with_suffix('.csv')} and {base.with_suffix('.json')}"
          f" ({len(report['cells'])} cells)")
    return 0


# -- parser ----------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperts",
        description="Hypercomplex vs classical time-series forecasting"
                    " experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="align ticker CSVs into a dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("correlate", help="correlation matrix and lag curves")
    p.add_argument("--data", required=True)
    p.add_argument("--max-lag", type=int, default=60)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("search", help="grid search one experiment cell")
    p.add_argument("--class", dest="klass", choices=["cnn", "lstm", "h"],
                   default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--window", type=int, default=None,
                   help=f"window of a one-cell search (default {DEFAULT_WINDOW})")
    p.add_argument("--span", type=int, default=None,
                   help=f"span of a one-cell search (default {DEFAULT_SPAN})")
    p.add_argument("--order", type=lambda text: text.split(","),
                   default=None, help="comma-separated ticker permutation")
    p.add_argument("--algebra", default=None,
                   choices=["quaternion", "coquaternion", "cl11", "all"],
                   help="algebra of the hyper cells (default all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--sizes", type=int_list, default=None,
                   help="restrict the test-layer size axis, e.g. 8,16")
    p.add_argument("--dense-units", type=int_list, default=None,
                   help="restrict the dense-units axis, e.g. 8,16")
    p.add_argument("--max-configs", type=int, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes per cell (default 1)")
    p.add_argument("--all", action="store_true",
                   help="loop every window/span/class cell sequentially")
    p.add_argument("--windows", type=int_list, default=None,
                   help="window list for --all, e.g. 10,20 (default"
                        " 10,20,40,60)")
    p.add_argument("--spans", type=int_list, default=None,
                   help="span list for --all, e.g. 1,5 (default 1,5,10,20)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("report", help="assemble the comparison table")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
