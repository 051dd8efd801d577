"""Loss, score metric, Adam optimizer, and the shared training loop."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import Model, write_csv
from .nn import ShapeError


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and epsilon


def _error(pred: np.ndarray, target: np.ndarray, name: str) -> np.ndarray:
    """``pred - target`` in float64, requiring equal shapes."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(
            f"{name}: shapes differ, {pred.shape} vs {target.shape}")
    return pred - target


# Each metric is written once, over the error ``pred - target``; the public
# functions and ``fit`` (which computes one error per step) both use these.
# ``axis`` (None: all) and ``size`` say which elements one mean runs over,
# so that ``fit`` takes one mean per member of a stacked model.

def _mse_of(err: np.ndarray, axis=None) -> np.ndarray:
    return np.mean(err ** 2, axis=axis)


def _mse_grad_of(err: np.ndarray, size: int) -> np.ndarray:
    return 2.0 * err / size


def _mae_of(err: np.ndarray, axis=None) -> np.ndarray:
    return np.mean(np.abs(err), axis=axis)


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over all elements."""
    return float(_mse_of(_error(pred, target, "mse")))


def mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(mse)/d(pred) = 2 (pred - target) / N."""
    err = _error(pred, target, "mse")
    return _mse_grad_of(err, err.size)


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error over all elements."""
    return float(_mae_of(_error(pred, target, "mae")))


class Adam:
    """Bias-corrected Adam; updates the given parameter arrays in place."""

    def __init__(self, params: list[np.ndarray], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        self.t += 1
        b1c = 1.0 - BETA1 ** self.t
        b2c = 1.0 - BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            if g.shape != p.shape:
                raise ShapeError(
                    f"adam: gradient shape {g.shape} != param shape {p.shape}")
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + EPS)


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    seed: int | tuple[int, ...] = 0  # one per member of a Model.stack
    lr: float = 1e-3

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


def fit(model: Model, x: np.ndarray, y: np.ndarray,
        config: TrainConfig = TrainConfig(),
        index: np.ndarray | None = None) -> list:
    """Train with minibatch Adam on MSE; returns per-epoch (loss, mae).

    ``index`` names the rows of ``x`` and ``y`` to train on (default all,
    for a plain model), so a caller that trains on a subset need not copy
    it. Shuffling is seeded from config.seed, so identical (model seed,
    config, data) runs produce bit-identical weights and histories.
    Parameters are updated in place.

    The model's member axis ``lead`` (``()``, or ``(members,)`` for a
    ``Model.stack``) sets both shapes: ``config.seed`` has shape ``lead``
    and ``index`` has shape ``lead + (n,)``. So member ``i`` of a stack
    trains on rows ``index[i]`` of the shared ``x`` and ``y``, shuffled by
    its own seed, so all members share each step and every member's
    weights and history (one list per member is returned) are the bits of
    fitting it alone.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) != len(x):
        raise ShapeError(f"fit: {len(x)} inputs but {len(y)} targets")
    lead = model.layers[0].lead
    if np.shape(config.seed) != lead:
        raise ValueError(f"fit: a model of member shape {lead} needs shuffle"
                         f" seeds of that shape, got {config.seed!r}")
    index = np.arange(len(x)) if index is None else np.asarray(index)
    if index.ndim != len(lead) + 1 or index.shape[:-1] != lead:
        raise ShapeError(f"fit: index of shape {index.shape} for a model of"
                         f" member shape {lead}")
    n = index.shape[-1]
    if n == 0:
        raise ValueError("fit: empty training slice")
    rows = index.reshape(-1, n)  # one row per member
    seeds = np.ravel(config.seed).tolist()
    rngs = [np.random.default_rng(seed) for seed in seeds]
    per = tuple(range(len(lead), len(lead) + y.ndim))  # one member's errors
    opt = Adam(model.params(), lr=config.lr)
    histories = [[] for _ in seeds]
    for _ in range(config.epochs):
        orders = np.stack([rng.permutation(n) for rng in rngs])
        loss_sum = np.zeros(len(seeds))
        mae_sum = np.zeros(len(seeds))
        for start in range(0, n, config.batch_size):
            idx = orders[:, start:start + config.batch_size]
            take = np.take_along_axis(rows, idx, axis=1).reshape(
                lead + (-1,))
            err = _error(model.forward(x[take], training=True), y[take],
                         "mse")
            loss_sum += _mse_of(err, per) * idx.shape[1]
            mae_sum += _mae_of(err, per) * idx.shape[1]
            model.backward(_mse_grad_of(err, idx.shape[1] * y[0].size))
            opt.step(model.grads())
        for history, loss, score in zip(histories, loss_sum / n,
                                        mae_sum / n):
            history.append((float(loss), float(score)))
    return histories if lead else histories[0]


def evaluate(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    """MAE of inference-mode predictions (dropout inactive). ``Model.forward``
    computes them in parts of at most ``model.INFER_ROWS`` windows, so the
    memory they take does not grow with the number of windows."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("evaluate: empty slice")
    pred = model.forward(x, training=False)
    return mae(pred, y)


def write_history_csv(history: list[tuple[float, float]], path,
                      header_lines: list[str] | None = None) -> None:
    """Persist a fit() history as epoch,loss,mae rows."""
    write_csv(path, header_lines, [["epoch", "loss", "mae"]] + [
        [str(epoch), repr(loss), repr(score)]
        for epoch, (loss, score) in enumerate(history, start=1)])
