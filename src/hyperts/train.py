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

def _mse_of(err: np.ndarray) -> float:
    return float(np.mean(err ** 2))


def _mse_grad_of(err: np.ndarray) -> np.ndarray:
    return 2.0 * err / err.size


def _mae_of(err: np.ndarray) -> float:
    return float(np.mean(np.abs(err)))


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over all elements."""
    return _mse_of(_error(pred, target, "mse"))


def mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(mse)/d(pred) = 2 (pred - target) / N."""
    return _mse_grad_of(_error(pred, target, "mse"))


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error over all elements."""
    return _mae_of(_error(pred, target, "mae"))


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
    seed: int = 0
    lr: float = 1e-3

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


def fit(model: Model, x: np.ndarray, y: np.ndarray,
        config: TrainConfig = TrainConfig()) -> list[tuple[float, float]]:
    """Train with minibatch Adam on MSE; returns per-epoch (loss, mae).

    Shuffling is seeded from config.seed, so identical (model seed, config,
    data) runs produce bit-identical weights and histories. Parameters are
    updated in place.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("fit: empty training slice")
    if y.shape[0] != n:
        raise ShapeError(f"fit: {n} inputs but {y.shape[0]} targets")
    rng = np.random.default_rng(config.seed)
    opt = Adam(model.params(), lr=config.lr)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        mae_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = x[idx], y[idx]
            err = _error(model.forward(xb, training=True), yb, "mse")
            loss_sum += _mse_of(err) * len(idx)
            mae_sum += _mae_of(err) * len(idx)
            model.backward(_mse_grad_of(err))
            opt.step(model.grads())
        history.append((loss_sum / n, mae_sum / n))
    return history


def evaluate(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    """MAE of inference-mode predictions (dropout inactive)."""
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
