"""CSV ingestion, timestamp alignment, standardization, and supervised
windowing of multivariate daily series.

Input files are Yahoo!-export compatible: a header row with at least
``Date`` and ``Close`` columns; extra columns are ignored. Alignment is an
inner join on dates - any date missing from one series drops the whole
record. Splits are chronological: the holdout block is strictly later than
every cross-validation sample, and CV folds are contiguous.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import hashlib
import logging
import math

import numpy as np

from .model import read_json, require_keys

log = logging.getLogger(__name__)


@dataclasses.dataclass
class SeriesTable:
    """Aligned table: one row per date, one column per ticker (fixed order)."""

    dates: list[datetime.date]
    order: list[str]
    values: np.ndarray  # [len(dates), len(order)]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.order.index(name)]

    def __len__(self) -> int:
        return len(self.dates)


@dataclasses.dataclass
class Scaler:
    """Per-column mean/std (population std) captured by standardize()."""

    order: list[str]
    mean: np.ndarray
    std: np.ndarray

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


@dataclasses.dataclass(frozen=True)
class WindowedDataset:
    """Supervised pairs: X[i] holds ``window`` rows of all channels starting
    at origin t; Y[i] holds the next ``span`` values of the target column.

    The dataset owns read-only C-contiguous float64 copies of ``x`` and
    ``y``, so its data cannot change after construction and ``digest``
    hashes it at most once per header. ``dataclasses.replace`` and
    unpickling (as a worker process does) go through the constructor, so
    each copy is read-only too and starts with an empty memo.
    """

    x: np.ndarray  # [n, window, channels]
    y: np.ndarray  # [n, span]
    scaler: Scaler | None = None
    _digests: dict[str, str] = dataclasses.field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("x", "y"):
            array = np.array(getattr(self, name), dtype=np.float64, order="C")
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __reduce__(self):
        return type(self), (self.x, self.y, self.scaler)

    def __len__(self) -> int:
        return self.x.shape[0]

    def digest(self, header: str) -> str:
        """The first 16 hex digits of sha256 over ``header``, then ``x``,
        then ``y``; computed once per header and memoized."""
        if header not in self._digests:
            sha = hashlib.sha256(header.encode())
            sha.update(self.x)
            sha.update(self.y)
            self._digests[header] = sha.hexdigest()[:16]
        return self._digests[header]


@dataclasses.dataclass(frozen=True)
class SplitPlan:
    """Chronological split of ``n`` samples: a CV block ``0..cv_n-1`` in
    ``folds_n`` contiguous near-equal folds, then the holdout. The sizes fix
    every index, built afresh on each access, so no other layout fits."""

    n: int
    cv_n: int
    folds_n: int

    def __post_init__(self):
        if self.folds_n < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds_n}")
        if self.cv_n < self.folds_n:
            raise ValueError(
                f"cv block of {self.cv_n} samples < {self.folds_n} folds")
        if self.cv_n >= self.n:
            raise ValueError(f"cv block of {self.cv_n} samples leaves no"
                             f" holdout of {self.n} samples")

    @property
    def cv_indices(self) -> np.ndarray:
        return np.arange(self.cv_n)

    @property
    def holdout_indices(self) -> np.ndarray:
        return np.arange(self.cv_n, self.n)

    @property
    def folds(self) -> list[np.ndarray]:
        return np.array_split(self.cv_indices, self.folds_n)


def load_csv(path, ticker: str) -> list[tuple[datetime.date, float]]:
    """Read (date, close) pairs from one CSV export, sorted by date.

    Rows that fail to parse or whose close is not finite (``nan``, ``inf``)
    are skipped with a warning; duplicate dates keep the first occurrence.
    An empty or value-free file is rejected.
    """
    pairs: dict[datetime.date, float] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "Date" not in reader.fieldnames \
                or "Close" not in reader.fieldnames:
            raise ValueError(
                f"{ticker}: {path} must have Date and Close columns,"
                f" found {reader.fieldnames}")
        for lineno, row in enumerate(reader, start=2):
            try:
                day = datetime.date.fromisoformat(row["Date"].strip())
                value = float(row["Close"])
            except (ValueError, TypeError, AttributeError):
                value = math.nan
            if not math.isfinite(value):
                log.warning("%s: skipping unparseable row %d in %s",
                            ticker, lineno, path)
                continue
            if day in pairs:
                log.warning("%s: duplicate date %s in %s, keeping first",
                            ticker, day, path)
                continue
            pairs[day] = value
    if not pairs:
        raise ValueError(f"{ticker}: no usable rows in {path}")
    return sorted(pairs.items())


def align(series: dict[str, list[tuple[datetime.date, float]]],
          order: list[str]) -> SeriesTable:
    """Inner-join the named series on dates, columns in the given order."""
    if not order:
        raise ValueError("align: need at least one series")
    missing = [name for name in order if name not in series]
    if missing:
        raise ValueError(f"align: series missing for {missing}")
    maps = {name: dict(series[name]) for name in order}
    common = set(maps[order[0]])
    for name in order[1:]:
        common &= set(maps[name])
    if not common:
        raise ValueError("align: no common dates across series")
    dates = sorted(common)
    values = np.array([[maps[name][d] for name in order] for d in dates],
                      dtype=np.float64)
    return SeriesTable(dates=dates, order=list(order), values=values)


def standardize(table: SeriesTable) -> tuple[SeriesTable, Scaler]:
    """Per-column (x - mean) / std with population std over all rows."""
    mean = table.values.mean(axis=0)
    std = table.values.std(axis=0)  # ddof=0
    bad = [name for name, s in zip(table.order, std) if s == 0.0]
    if bad:
        raise ValueError(f"standardize: zero variance in columns {bad}")
    scaler = Scaler(order=list(table.order), mean=mean, std=std)
    out = SeriesTable(dates=list(table.dates), order=list(table.order),
                      values=scaler.transform(table.values))
    return out, scaler


def make_windows(table: SeriesTable, target: str, window: int, span: int,
                 order: list[str] | None = None,
                 scaler: Scaler | None = None) -> WindowedDataset:
    """Build supervised pairs; sample count = L - window - span + 1.

    X[i] covers rows t..t+window-1 in the given channel order; Y[i] is the
    target column at rows t+window..t+window+span-1 (no overlap, no gap).
    """
    if window < 1 or span < 1:
        raise ValueError(f"window {window} and span {span} must be >= 1")
    order = list(order) if order is not None else list(table.order)
    if sorted(order) != sorted(table.order):
        raise ValueError(
            f"order {order} is not a permutation of table columns {table.order}")
    if target not in order:
        raise ValueError(f"target {target!r} not among columns {order}")
    length = len(table)
    if length < window + span:
        raise ValueError(
            f"series length {length} < window + span = {window + span}")
    cols = [table.order.index(name) for name in order]
    values = table.values[:, cols]
    tgt = table.column(target)
    n = length - window - span + 1
    sw = np.lib.stride_tricks.sliding_window_view(values, window, axis=0)
    x = sw[:n].transpose(0, 2, 1)
    yw = np.lib.stride_tricks.sliding_window_view(tgt, span, axis=0)
    y = yw[window:window + n]
    return WindowedDataset(x=x, y=y, scaler=scaler)  # copies both views


def split(dataset: WindowedDataset, cv_fraction: float = 0.8,
          folds: int = 10) -> SplitPlan:
    """Chronological split at floor(cv_fraction * N), then ``folds``
    contiguous near-equal partitions (sizes differ by at most 1) of the CV
    block; ``SplitPlan`` raises ``ValueError`` if a fold or the holdout
    would be empty."""
    if not 0.0 < cv_fraction < 1.0:
        raise ValueError(f"cv_fraction must be in (0, 1), got {cv_fraction}")
    n = len(dataset)
    return SplitPlan(n, int(np.floor(cv_fraction * n)), folds)


def check_order(order, target, where) -> None:
    """Raise ``ValueError`` naming ``where`` unless the JSON value ``order``
    is a non-empty list of distinct names that holds ``target``."""
    if not isinstance(order, list) or \
            not all(isinstance(name, str) for name in order):
        raise ValueError(f"{where}: order is not a JSON list of names")
    if not order:
        raise ValueError(f"{where}: order names no columns")
    if len(set(order)) != len(order):
        raise ValueError(f"{where}: order {order} names a column twice")
    if target not in order:
        raise ValueError(f"{where}: target {target!r} is not in order {order}")


def load_manifest(path) -> tuple[dict[str, str], list[str], str]:
    """Read a dataset manifest: ticker name -> csv path, channel order, and
    target ticker (defaults to the first in order); raises ``ValueError``
    naming the manifest unless ``order`` keeps ``check_order``'s rule and
    ``tickers`` maps each name in it to a path string."""
    doc = read_json(path, ("tickers", "order"))
    require_keys(doc["tickers"], (), f"{path}: tickers")
    order = doc["order"]
    first = order[0] if isinstance(order, list) and order else None
    target = doc.get("target", first)
    check_order(order, target, path)
    missing = [t for t in order if t not in doc["tickers"]]
    if missing:
        raise ValueError(f"{path}: order lists unknown tickers {missing}")
    pathless = [t for t in order if not isinstance(doc["tickers"][t], str)]
    if pathless:
        raise ValueError(f"{path}: tickers {pathless} have no path string")
    return dict(doc["tickers"]), order, target
