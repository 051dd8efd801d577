"""Benchmark of the hyperts search protocol.

    python3 perfbench/run.py --workload hyper_cell --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout. One run is one process with one
worker. It sets up the workload's inputs from --seed several times, then
repeats whole rounds (a fresh search, reruns of it into the same directory,
inference with every saved winner) until --seconds are spent, checks every
output against `reference`, and prints one JSON object as its last line:
the end-to-end metrics with --trace 0, or with --trace 1 the per-layer
metrics of traced rounds. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def environment() -> dict:
    """What decides the speed of numpy here: cores, versions, thread env."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: os.environ.get(k, "unset") for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def warm_up() -> None:
    """Reach the steady state of a long search before anything is timed.

    OpenBLAS starts its threads and fills its buffers on the first large
    products (about 1 s on a 2-core machine, paid again at the first bigger
    shape), so a few products of the workloads' shapes run first. glibc
    serves large arrays with fresh mmap pages until the first free of a big
    block raises its mmap threshold; freeing an untouched 30 MB block up
    front gives every round the heap that a long search ends up with,
    without adding to the peak resident memory.
    """
    import numpy as np
    for m, k, n in ((512, 512, 512), (4096, 128, 128), (320, 128, 32),
                    (8192, 4, 128), (32, 640, 32)):
        a, b = np.ones((m, k)), np.ones((k, n))
        for _ in range(3):
            a.T @ (a @ b)
    block = np.empty(30 * 2**20 // 8)
    del block


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


class Run:
    def __init__(self, workload, work: pathlib.Path, seconds: float):
        self.wl = workload
        self.work = work
        self.seconds = seconds
        self.verdict = checks.Verdict()
        self.attempted = 0
        self.round_dirs = []
        self.setup_times = []
        self.search_times = []
        self.resume_times = []
        self.predict_rates = []

    def setup(self) -> None:
        self.setup_times.append(
            timed(self.wl.setup, self.work / f"setup{len(self.setup_times)}"))

    def round(self) -> pathlib.Path:
        """Fresh search, reruns, inference: the same operations every time."""
        wl = self.wl
        out = self.work / f"round{len(self.round_dirs)}"
        self.round_dirs.append(out)
        self.search_times.append(timed(wl.search, out))
        cells = wl.cells(out)
        self.attempted += wl.configs_per_search + len(cells)
        before = checks.ledger_state(cells)
        for _ in range(wl.resume_reps):
            self.resume_times.append(timed(wl.resume, out))
            self.attempted += len(cells)
            checks.compare_rerun(before, checks.ledger_state(cells),
                                 self.verdict)
        inputs = [(cell.out / "best_model.json", wl.windows(cell))
                  for cell in cells]
        for _ in range(wl.predict_reps):
            start = time.perf_counter()
            preds = [hyperts.model.load_model(path).forward(x, training=False)
                     for path, x in inputs]
            took = time.perf_counter() - start
            self.predict_rates.append(sum(len(x) for _, x in inputs) / took)
            self.attempted += len(inputs)
            for (path, _), pred in zip(inputs, preds):
                if not np.all(np.isfinite(pred)):
                    self.verdict.fail(f"{path}: non-finite predictions")
        return out

    def time_left(self, start: float, last: float) -> bool:
        return time.perf_counter() - start + last <= self.seconds


def measure(run: Run) -> dict:
    start = time.perf_counter()
    for _ in range(run.wl.setup_reps):
        run.setup()
    while True:
        took = timed(run.round)
        if not run.time_left(start, took):
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    holdout = checks.check_rounds(run.wl, run.round_dirs, run.verdict)
    med = statistics.median
    return {
        "setup_s": (med(run.setup_times), "s"),
        "search_s": (med(run.search_times), "s"),
        "resume_s": (med(run.resume_times), "s"),
        "predict_windows_per_s": (med(run.predict_rates), "windows/s"),
        "best_holdout_mae": (holdout, "standardized"),
        "peak_rss_mb": (peak, "MB"),
    }


def measure_traced(run: Run) -> dict:
    """Untraced rounds alternate with traced passes (set-up + round) while
    time is left. Per-layer values are medians over the traced passes; the
    overhead compares the searches of the two kinds of round."""
    start = time.perf_counter()
    run.setup()
    tracer = spans.Tracer()
    passes, plain, traced = [], [], []
    while True:
        took = timed(run.round)
        plain.append(run.search_times[-1])
        before = tracer.snapshot()
        with tracer.installed():
            took += timed(lambda: (run.setup(), run.round()))
        traced.append(run.search_times[-1])
        span = spans.diff(tracer.snapshot(), before)
        cells = run.wl.cells(run.round_dirs[-1])
        passes.append(spans.layer_metrics(span, checks.ledger_bytes(cells)))
        if not run.time_left(start, took):
            break
    checks.check_rounds(run.wl, run.round_dirs, run.verdict)
    metrics = {name: (statistics.median(p[name][0] for p in passes), unit)
               for name, (_, unit) in passes[0].items()}
    metrics["trace.overhead"] = (
        statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    run = Run(workload, work, args.seconds)
    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)
    warm_up()
    try:
        metrics = measure_traced(run) if args.trace else measure(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("# samples " + json.dumps({
        "setup_s": run.setup_times, "search_s": run.search_times,
        "resume_s": run.resume_times,
        "predict_windows_per_s": run.predict_rates}))
    for problem in run.verdict.problems:
        print(f"# check failed: {problem}")
    print(json.dumps({
        "correct": not run.verdict.problems,
        "attempted": run.attempted,
        "failed": run.verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "hyperts" / "__init__.py").is_file():
        print(f"error: no hyperts sources under {SRC}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    os.environ.pop("HYPERTS_WORKERS", None)
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        import hyperts.model
        import checks
        import spans
        import workloads
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
