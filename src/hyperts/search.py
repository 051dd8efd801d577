"""Hyperparameter grid enumeration, 10-fold cross-validation scoring, and a
resumable (optionally parallel) exhaustive search.

Every evaluated configuration is appended to ``progress.ndjson`` as soon as
it completes, stamped with a hash of the run's settings, split sizes and
data, so an interrupted search resumes without recomputation and a rerun
under other settings is refused. The read-only ``WindowedDataset`` memoizes
the hash, so cells and reruns that share one dataset object hash its
windows once. The final ``results.ndjson`` keeps only
``CANONICAL_FIELDS`` (no timing, no stamp) in canonical spec order, so
repeated runs with the same seed are byte-identical regardless of worker
count or completion order. The winner's artifacts are hashed into
``best.stamp`` under the same run stamp, so a rerun of a finished search
reuses them instead of retraining the winner.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import math
import pathlib
import time

import numpy as np

from .algebra import AlgebraKind
from .data import SplitPlan, WindowedDataset
from .model import (INPUT_CHANNELS, Model, ModelSpec, build, require_keys,
                    spec_key, typed_field, write_json, write_text)
from .train import TrainConfig, evaluate, fit, write_history_csv

CELL_FILE = "cell.json"
PROGRESS_FILE = "progress.ndjson"
RESULTS_FILE = "results.ndjson"
BEST_FILE = "best.json"
BEST_MODEL_FILE = "best_model.json"
BEST_HISTORY_FILE = "history_best.csv"
BEST_STAMP_FILE = "best.stamp"
# the winner's artifacts, whose digests BEST_STAMP_FILE records
WINNER_FILES = (BEST_FILE, BEST_MODEL_FILE, BEST_HISTORY_FILE)

CNN_SIZES = [8, 16, 32, 64, 128]
LSTM_SIZES = [8, 16, 32, 64, 128]
HYPER_SIZES = [1, 2, 4, 8, 16, 32]
DENSE_UNITS = [8, 16, 32, 64]
ACTIVATIONS = ["linear", "relu"]
ALL_ALGEBRAS = [k.value for k in AlgebraKind]
# the fields of a ledger record that results.ndjson and best.json keep
CANONICAL_FIELDS = ("spec", "fold_maes", "mean_mae", "param_count")
# The largest (size, window), by class, whose folds train as one stack. A
# stack saves per-call overhead but holds every member's activations at
# once, so it pays only while one member's step is small; past these
# limits one config's CV timed no faster or slower stacked (CHANGES.md has
# the figures). An LSTM steps through time, so its window does not count.
STACK_LIMITS = {"lstm": (32, math.inf), "cnn": (32, 20), "hyper": (32, 10)}


@dataclasses.dataclass(frozen=True)
class Grid:
    """Axis value lists for one architecture class."""

    kind: str  # "cnn" | "lstm" | "hyper"
    sizes: tuple[int, ...]
    algebras: tuple[str, ...] = ()  # hyper only
    n_dense1: tuple[int, ...] = (0, 1)
    n_dense2: tuple[int, ...] = (0, 1)
    dense_units: tuple[int, ...] = tuple(DENSE_UNITS)
    activations: tuple[str, ...] = tuple(ACTIVATIONS)

    @classmethod
    def default(cls, kind: str, algebras: list[str] | None = None) -> "Grid":
        if kind == "cnn":
            return cls(kind="cnn", sizes=tuple(CNN_SIZES))
        if kind == "lstm":
            return cls(kind="lstm", sizes=tuple(LSTM_SIZES))
        if kind == "hyper":
            return cls(kind="hyper", sizes=tuple(HYPER_SIZES),
                       algebras=tuple(algebras or ALL_ALGEBRAS))
        raise ValueError(f"unknown class {kind!r}")

    def axes(self) -> tuple[tuple, ...]:
        """The value lists in ``ModelSpec`` field order, size to activation."""
        algebras = self.algebras if self.kind == "hyper" else (None,)
        return (self.sizes, algebras, self.n_dense1, self.n_dense2,
                self.dense_units, self.activations)

    def raw_size(self) -> int:
        return math.prod(len(axis) for axis in self.axes())


def enumerate_specs(grid: Grid, window: int, span: int, seed: int,
                    limit: int | None = None) -> list[ModelSpec]:
    """Lexicographic Cartesian product without its inert combinations.

    When both optional dense layers are absent the (dense_units, activation)
    axes are inert: only the grid's first dense_units and activation values
    are kept there. With ``limit`` the enumeration stops at that many specs,
    so it returns the first ``limit`` specs of the whole enumeration; a
    limit below 1 raises ``ValueError``.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"enumerate_specs: limit must be >= 1, got {limit}")
    inert = (grid.dense_units[0], grid.activations[0])
    specs = (ModelSpec(kind=grid.kind, size=size, algebra=algebra,
                       n_dense1=nd1, n_dense2=nd2, dense_units=units,
                       dense_activation=act, window=window, span=span,
                       seed=seed)
             for size, algebra, nd1, nd2, units, act in itertools.product(
                 *grid.axes())
             if nd1 or nd2 or (units, act) == inert)
    return list(itertools.islice(specs, limit))


def fold_seeds(base_seed: int, spec: ModelSpec, fold: int) -> tuple[int, int]:
    """(model seed, shuffle seed) for one fold, stable across processes and
    scheduling order."""
    ss = np.random.SeedSequence([base_seed, spec.stable_id(), fold])
    state = ss.generate_state(2)
    return int(state[0]), int(state[1])


def _fit_folds(spec: ModelSpec, dataset: WindowedDataset,
               train_idx: np.ndarray, config: TrainConfig, base_seed: int,
               ks: list[int]) -> tuple[list[Model], list[list]]:
    """Fresh models of the folds ``ks`` (the fold count for the winner's
    retrain on the whole CV block), each built and shuffled from its
    ``fold_seeds``: row ``i`` of ``train_idx`` is fold ``ks[i]``'s training
    set. Several folds train as one ``Model.stack``, so each step serves
    all of them and every member gets the bits of fitting it alone; a lone
    fold is a plain fit, which times faster than a stack of one (CHANGES.md
    has the figures). Returns the trained models and their histories."""
    seeds = [fold_seeds(base_seed, spec, k) for k in ks]
    models = [build(dataclasses.replace(spec, seed=model_seed))
              for model_seed, _ in seeds]
    shuffle = tuple(seed for _, seed in seeds)
    if len(ks) == 1:
        return models, [fit(models[0], dataset.x, dataset.y,
                            dataclasses.replace(config, seed=shuffle[0]),
                            train_idx[0])]
    return models, fit(Model.stack(models), dataset.x, dataset.y,
                       dataclasses.replace(config, seed=shuffle), train_idx)


def cross_validate(spec: ModelSpec, dataset: WindowedDataset, plan: SplitPlan,
                   config: TrainConfig = TrainConfig(),
                   base_seed: int = 0) -> tuple[float, list[float], int]:
    """Mean MAE over k folds: train on cv minus fold, score MAE on the fold.
    Returns the mean, the fold MAEs and the spec's parameter count.

    Folds are fitted in groups by ``_fit_folds``, each from a seed derived
    from (base_seed, spec id, fold index). When the spec's size and window
    are within its class's ``STACK_LIMITS``, a group is every fold whose
    training set has one size (``np.array_split`` folds give at most two
    sizes); otherwise every fold is a group of its own. Each fold's model
    is scored on its fold, and its MAE has the same bits either way.
    """
    cv, folds = plan.cv_indices, plan.folds
    train = [np.setdiff1d(cv, fold) for fold in folds]
    max_size, max_window = STACK_LIMITS[spec.kind]
    stacked = spec.size <= max_size and spec.window <= max_window
    groups: dict[int, list[int]] = {}  # by training-set size, or by fold
    for k, idx in enumerate(train):
        groups.setdefault(len(idx) if stacked else k, []).append(k)
    maes = [0.0] * len(folds)
    for ks in groups.values():
        models, _ = _fit_folds(spec, dataset, np.stack([train[k] for k in ks]),
                               config, base_seed, ks)
        for k, model in zip(ks, models):
            fold = folds[k]
            maes[k] = evaluate(model, dataset.x[fold], dataset.y[fold])
        param_count = models[0].param_count()
        # free this group's weights and caches before the next group's fit
        del models, model
    return float(np.mean(maes)), maes, param_count


def _best_of(records: list[dict]) -> dict:
    """argmin mean MAE, ties broken by smaller param_count then by the
    lexicographic canonical spec. A mean that is null (a non-finite mean,
    as ledgers record it) or not finite (the ``NaN`` of older ledgers)
    ranks after every finite one, and is never the winner."""
    def mean_of(record):
        mean = record["mean_mae"]
        return mean if mean is not None and math.isfinite(mean) else math.inf

    best = min(records, key=lambda r: (mean_of(r), r["param_count"],
                                       spec_key(r["spec"])))
    if mean_of(best) == math.inf:
        raise ValueError("no configuration has a finite mean MAE")
    return best


def _eval_spec(spec: ModelSpec, dataset: WindowedDataset, plan: SplitPlan,
               config: TrainConfig, base_seed: int) -> dict:
    start = time.perf_counter()
    mean_mae, maes, param_count = cross_validate(spec, dataset, plan, config,
                                                 base_seed)
    seconds = time.perf_counter() - start
    # JSON has no NaN, so a ledger records a non-finite score as null
    return {
        "spec": spec.to_json_dict(),
        "fold_maes": [mae if math.isfinite(mae) else None for mae in maes],
        "mean_mae": mean_mae if math.isfinite(mean_mae) else None,
        "param_count": param_count,
        "seconds": seconds,
    }


def _run_stamp(dataset: WindowedDataset, plan: SplitPlan,
               config: TrainConfig, base_seed: int) -> str:
    """Hash of all that a ledger record's scores depend on besides its spec:
    the training settings with the base seed in place of ``config.seed``
    (which ``_fit_folds`` replaces), the split sizes and the windowed data.
    The data is hashed by ``WindowedDataset.digest``, once per dataset
    object and settings."""
    settings = dict(dataclasses.asdict(config), seed=base_seed,
                    cv=plan.cv_n,
                    folds=[len(fold) for fold in plan.folds],
                    shapes=[dataset.x.shape, dataset.y.shape])
    return dataset.digest(spec_key(settings))


@dataclasses.dataclass
class SearchResult:
    best: dict
    holdout_mae: float


def _winner_digests(out: pathlib.Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in WINNER_FILES}


def _cached_winner(out: pathlib.Path, run: str,
                   best: dict) -> SearchResult | None:
    """The result recorded under ``out`` if ``BEST_STAMP_FILE`` names
    ``run``, every winner file still hashes to its recorded digest and
    ``best.json`` holds ``best``; None otherwise, never an error."""
    try:
        stamp = json.loads((out / BEST_STAMP_FILE).read_bytes())
        if stamp["run"] != run or stamp["files"] != _winner_digests(out):
            return None
        doc = json.loads((out / BEST_FILE).read_bytes())
        if {k: doc[k] for k in CANONICAL_FIELDS} != best:
            return None
        return SearchResult(best=best, holdout_mae=doc["holdout_mae"])
    except (OSError, ValueError, LookupError, TypeError):
        return None


def run_search(specs: list[ModelSpec], dataset: WindowedDataset,
               plan: SplitPlan, out_dir,
               config: TrainConfig = TrainConfig(), base_seed: int = 0,
               workers: int = 1) -> SearchResult:
    """Evaluate every spec, checkpointing each result as it completes.

    ``workers`` processes score configs in parallel, each task carrying its
    spec, dataset, plan, config and seed. A ``workers`` below 1, a negative
    ``base_seed``, an empty ``specs``, a ``plan`` of another length than
    ``dataset`` or a ``dataset`` without ``INPUT_CHANNELS`` channels raises
    ``ValueError`` before any file is written.
    Specs already in the ledger (keyed by ``spec_key``) are skipped on
    resume; a ledger line torn by a kill mid-write is cut off and its spec
    scored again. A record stamped by another run (other training settings,
    base seed, split sizes or data, see ``_run_stamp``), or not stamped,
    raises ``ValueError`` naming the ledger; a complete line that is not
    UTF-8 or not a JSON object (a ``json.JSONDecodeError`` if it does not
    parse), or a record without one of ``CANONICAL_FIELDS`` or with one of
    another type (``spec`` an object, ``fold_maes`` a list of numbers or
    nulls, ``mean_mae`` a number or null, ``param_count`` an integer), names
    the ledger and the line. Neither writes a file. After
    scoring, the best spec is retrained on the full CV block and scored on
    the holdout block; its weights are saved alongside the ledgers, and
    ``BEST_STAMP_FILE``, written last, records the run stamp and a digest
    of each of ``WINNER_FILES``. A rerun whose winner is already recorded
    under this run's stamp, with all three files unchanged, reuses them
    and fits nothing; any other state retrains and rewrites them.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if base_seed < 0:
        raise ValueError(f"base_seed must be >= 0, got {base_seed}")
    if not specs:
        raise ValueError("run_search: no configurations to search")
    if plan.n != len(dataset):
        raise ValueError(f"run_search: plan splits {plan.n} samples, the"
                         f" dataset holds {len(dataset)}")
    if dataset.x.shape[-1] != INPUT_CHANNELS:
        raise ValueError(f"run_search: the dataset has {dataset.x.shape[-1]}"
                         f" channels, the models take INPUT_CHANNELS ="
                         f" {INPUT_CHANNELS}")
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    progress_path = out / PROGRESS_FILE
    run = _run_stamp(dataset, plan, config, base_seed)

    done: dict[str, dict] = {}
    ledger_bytes = progress_path.read_bytes() if progress_path.exists() \
        else b""
    intact = ledger_bytes[:ledger_bytes.rfind(b"\n") + 1]
    for lineno, line in enumerate(intact.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{progress_path} line {lineno}"
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{where}: {exc}") from None
        try:
            # an older ledger's bare NaN reads back as null
            record = json.loads(text, parse_constant=lambda _: None)
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(f"{where}: {exc.msg}", exc.doc,
                                       exc.pos) from None
        require_keys(record, (), where)
        if record.get("run") != run:
            raise ValueError(
                f"{progress_path}: scored under other training settings,"
                f" seed, split or data; search into a new directory")
        require_keys(record, CANONICAL_FIELDS, where)
        typed_field(record, "spec", dict, "an object", where)
        number = (int, float, type(None))  # null: a non-finite score
        for mae in typed_field(record, "fold_maes", list, "a list", where):
            typed_field({"fold_maes": mae}, "fold_maes", number,
                        "a number or null", where)
        typed_field(record, "mean_mae", number, "a number or null", where)
        typed_field(record, "param_count", int, "an integer", where)
        done.setdefault(spec_key(record["spec"]), record)

    wanted = {spec.canonical(): spec for spec in specs}
    todo = [spec for key, spec in wanted.items() if key not in done]

    with open(progress_path, "a") as ledger:
        ledger.truncate(len(intact))  # drop a torn last record

        def note(record):
            ledger.write(json.dumps(dict(record, run=run), sort_keys=True)
                         + "\n")
            ledger.flush()
            done[spec_key(record["spec"])] = record

        args = (dataset, plan, config, base_seed)
        if workers == 1 or len(todo) <= 1:
            for spec in todo:
                note(_eval_spec(spec, *args))
        else:
            with concurrent.futures.ProcessPoolExecutor(workers) as pool:
                futures = [pool.submit(_eval_spec, s, *args) for s in todo]
                for fut in concurrent.futures.as_completed(futures):
                    note(fut.result())

    canonical = [{k: done[key][k] for k in CANONICAL_FIELDS}
                 for key in sorted(wanted)]
    write_text(out / RESULTS_FILE, "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in canonical))

    best = _best_of(canonical)
    cached = _cached_winner(out, run, best)
    if cached is not None:
        return cached
    spec = ModelSpec.from_json_dict(best["spec"])
    (model,), (history,) = _fit_folds(spec, dataset, plan.cv_indices[None],
                                      config, base_seed, [plan.folds_n])
    holdout = plan.holdout_indices
    holdout_mae = evaluate(model, dataset.x[holdout], dataset.y[holdout])
    model.save(out / BEST_MODEL_FILE)
    write_history_csv(history, out / BEST_HISTORY_FILE,
                      header_lines=[f"spec: {spec.canonical()}"])

    write_json(out / BEST_FILE, dict(best, holdout_mae=holdout_mae))
    write_json(out / BEST_STAMP_FILE,
               {"run": run, "files": _winner_digests(out)})
    return SearchResult(best=best, holdout_mae=holdout_mae)
