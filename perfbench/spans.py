"""Span tracing from outside the program.

`Tracer.installed()` replaces each traced public function of the `hyperts`
modules with a timing wrapper in every namespace where it is looked up (a
module that did `from .train import fit` holds its own binding, so that
binding is replaced too) and each traced method on its class. Spans nest on
a stack: a span's self time is its duration minus the time its direct child
spans cover. Totals stay in memory and are read with `snapshot()`.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

LAYER_CLASSES = ("HyperDense", "Dense", "Conv1D", "LSTM", "MaxPool1D",
                 "Flatten", "Dropout")

# (module, attribute, span name). An attribute "Class.method" is a method.
TARGETS = (
    [("hyperts.nn", f"{cls}.{m}", f"nn.{cls}.{m}")
     for cls in LAYER_CLASSES for m in ("forward", "backward")]
    + [("hyperts.train", "fit", "train.fit"),
       ("hyperts.train", "Adam.step", "train.Adam.step"),
       ("hyperts.train", "mse", "train.loss"),
       ("hyperts.train", "mae", "train.loss"),
       ("hyperts.train", "mse_grad", "train.loss"),
       ("hyperts.train", "evaluate", "train.evaluate"),
       ("hyperts.model", "build", "model.build"),
       ("hyperts.model", "Model.save", "model.save"),
       ("hyperts.model", "load_model", "model.load_model"),
       ("hyperts.search", "cross_validate", "search.cross_validate"),
       ("hyperts.search", "run_search", "search.run_search"),
       ("hyperts.data", "load_csv", "data.load_csv"),
       ("hyperts.data", "align", "data.align"),
       ("hyperts.data", "standardize", "data.standardize"),
       ("hyperts.data", "make_windows", "data.make_windows"),
       ("hyperts.data", "split", "data.split"),
       ("hyperts.analysis", "correlation_matrix",
        "analysis.correlation_matrix"),
       ("hyperts.analysis", "all_pair_lag_curves",
        "analysis.all_pair_lag_curves"),
       ("hyperts.report", "build_report", "report.build_report"),
       ("hyperts.cli", "load_dataset", "cli.load_dataset"),
       ("hyperts.cli", "save_dataset", "cli.save_dataset")])


class Tracer:
    def __init__(self):
        self.total = {}   # span name -> seconds
        self.own = {}     # span name -> seconds not covered by child spans
        self.calls = {}   # span name -> number of spans
        self.samples = 0  # fit(): training samples x epochs
        self._stack = []  # child seconds of each open span

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += took
                self.total[name] = self.total.get(name, 0.0) + took
                self.own[name] = self.own.get(name, 0.0) + took - children
                self.calls[name] = self.calls.get(name, 0) + 1
                if name == "train.fit":
                    self.samples += len(args[1]) * _fit_epochs(args, kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore the originals on exit."""
        undo = []
        try:
            for module, attr, name in TARGETS:
                owner = sys.modules[module]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(owner, attr)
                wrapper = self._wrap(name, orig)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "hyperts" or mod is None:
                        continue
                    if vars(mod).get(attr) is orig:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def snapshot(self) -> dict:
        return {"total": dict(self.total), "own": dict(self.own),
                "calls": dict(self.calls), "samples": self.samples}


def _fit_epochs(args, kwargs) -> int:
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    if config is None:
        import hyperts.train
        config = hyperts.train.TrainConfig()
    return config.epochs


def diff(after: dict, before: dict) -> dict:
    """Per-span totals accumulated between two snapshots."""
    out = {}
    for key in ("total", "own", "calls"):
        out[key] = {name: value - before[key].get(name, 0)
                    for name, value in after[key].items()}
    out["samples"] = after["samples"] - before["samples"]
    return out


def layer_metrics(span: dict, ledger_bytes: int) -> dict:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    total, own, calls = span["total"], span["own"], span["calls"]
    out = {}
    for cls in LAYER_CLASSES:
        out[f"nn.{cls}.forward_s"] = (total.get(f"nn.{cls}.forward", 0.0), "s")
        out[f"nn.{cls}.backward_s"] = (
            total.get(f"nn.{cls}.backward", 0.0), "s")
        out[f"nn.{cls}.forward_calls"] = (
            calls.get(f"nn.{cls}.forward", 0), "count")
    out.update({
        "train.fit_s": (total.get("train.fit", 0.0), "s"),
        "train.fit.self_s": (own.get("train.fit", 0.0), "s"),
        "train.Adam.step_s": (total.get("train.Adam.step", 0.0), "s"),
        "train.loss_s": (total.get("train.loss", 0.0), "s"),
        "train.evaluate_s": (total.get("train.evaluate", 0.0), "s"),
        "train.fit.steps": (calls.get("train.Adam.step", 0), "count"),
        "train.fit.samples": (span["samples"], "count"),
        "model.build_s": (total.get("model.build", 0.0), "s"),
        "model.build_calls": (calls.get("model.build", 0), "count"),
        "model.save_s": (total.get("model.save", 0.0), "s"),
        "model.load_model_s": (total.get("model.load_model", 0.0), "s"),
        "search.cross_validate_s": (
            total.get("search.cross_validate", 0.0), "s"),
        "search.cross_validate_calls": (
            calls.get("search.cross_validate", 0), "count"),
        "search.run_search.self_s": (own.get("search.run_search", 0.0), "s"),
        "search.ledger_bytes": (ledger_bytes, "bytes"),
    })
    for name in ("data.load_csv", "data.align", "data.standardize",
                 "data.make_windows", "data.split",
                 "analysis.correlation_matrix",
                 "analysis.all_pair_lag_curves", "report.build_report",
                 "cli.load_dataset", "cli.save_dataset"):
        out[f"{name}_s"] = (total.get(name, 0.0), "s")
    out["cli.load_dataset_calls"] = (calls.get("cli.load_dataset", 0), "count")
    return out
