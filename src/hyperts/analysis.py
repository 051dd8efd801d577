"""Pearson correlation matrix and lagged cross-correlation curves."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .data import SeriesTable
from .model import write_csv


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"pearson: need equal-length 1-D series,"
                         f" got {x.shape} and {y.shape}")
    n = x.size
    if n < 2:
        raise ValueError("pearson: need at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt((xc * xc).sum() / (n - 1))
    sy = np.sqrt((yc * yc).sum() / (n - 1))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("pearson: zero-variance input")
    return float((xc * yc).sum() / ((n - 1) * sx * sy))


@dataclasses.dataclass
class CorrelationMatrix:
    tickers: list[str]
    r: np.ndarray  # symmetric, unit diagonal


@dataclasses.dataclass
class LaggedCorrelation:
    """values[l] = pearson(a[0:n-l], b[l:n]): 'a leads b' convention."""

    pair: tuple[str, str]
    values: np.ndarray


def correlation_matrix(table: SeriesTable) -> CorrelationMatrix:
    k = len(table.order)
    r = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            r[i, j] = r[j, i] = pearson(table.values[:, i], table.values[:, j])
    return CorrelationMatrix(tickers=list(table.order), r=r)


def lagged_correlation(a: np.ndarray, b: np.ndarray, max_lag: int = 60,
                       pair: tuple[str, str] = ("a", "b")) -> LaggedCorrelation:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size != b.size:
        raise ValueError("lagged_correlation: unequal lengths")
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    if a.size <= max_lag + 1:
        raise ValueError(
            f"series of length {a.size} too short for max_lag {max_lag}")
    vals = np.empty(max_lag + 1)
    n = a.size
    for lag in range(max_lag + 1):
        vals[lag] = pearson(a[:n - lag], b[lag:])
    return LaggedCorrelation(pair=pair, values=vals)


def all_pair_lag_curves(table: SeriesTable,
                        max_lag: int = 60) -> list[LaggedCorrelation]:
    """Lag curves for every unordered pair including self-pairs
    (C(k,2) + k curves)."""
    out = []
    for a, b in itertools.combinations_with_replacement(table.order, 2):
        out.append(lagged_correlation(table.column(a), table.column(b),
                                      max_lag=max_lag, pair=(a, b)))
    return out


def write_matrix_csv(matrix: CorrelationMatrix, path,
                     header_lines: list[str] | None = None) -> None:
    write_csv(path, header_lines, [["", *matrix.tickers]] + [
        [name, *map(repr, row)] for name, row in
        zip(matrix.tickers, matrix.r.tolist())])


def write_lag_csv(curve: LaggedCorrelation, path,
                  header_lines: list[str] | None = None) -> None:
    write_csv(path, header_lines, [["lag", "r"]] + [
        [str(lag), repr(r)] for lag, r in enumerate(curve.values.tolist())])
