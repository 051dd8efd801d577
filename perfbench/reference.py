"""Computations made apart from `hyperts`, used to check its outputs.

Nothing here imports the package: the aligned table is read straight from
the CSV exports, hypercomplex products come from each algebra's
multiplication rules, and the forward pass follows the documented
seven-stage stack (test layer, optional per-step Dense, MaxPool1D(2),
Flatten, optional Dense, Dropout, Dense(span)) with the stack's fixed
choices: Conv1D kernel 3 with ReLU, linear HyperDense.
"""

from __future__ import annotations

import csv
import json

import numpy as np

CONV_KERNEL = 3
POOL = 2
CHANNELS = 4

# e_a * e_b = sign * e_d for the imaginary units 1 = i, 2 = j, 3 = k.
RULES = {
    "quaternion": {
        (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1)},
    "coquaternion": {
        (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 1): (3, -1), (2, 2): (0, 1), (2, 3): (1, -1),
        (3, 1): (2, 1), (3, 2): (1, 1), (3, 3): (0, 1)},
    "cl11": {
        (1, 1): (0, 1), (1, 2): (3, 1), (1, 3): (2, 1),
        (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 1): (2, -1), (3, 2): (1, -1), (3, 3): (0, 1)},
}


def basis_product(a: int, b: int, algebra: str) -> tuple[int, int]:
    if a == 0:
        return b, 1
    if b == 0:
        return a, 1
    return RULES[algebra][(a, b)]


def hprod(p: np.ndarray, q: np.ndarray, algebra: str) -> np.ndarray:
    """Elementwise hypercomplex product p * q over the last axis (size 4)."""
    out = np.zeros(np.broadcast_shapes(p.shape, q.shape))
    for a in range(4):
        for b in range(4):
            d, sign = basis_product(a, b, algebra)
            out[..., d] += sign * p[..., a] * q[..., b]
    return out


# -- the table, read from the exports ------------------------------------------

def read_closes(path) -> dict[str, float]:
    with open(path, newline="") as fh:
        return {row["Date"]: float(row["Close"]) for row in csv.DictReader(fh)}


def aligned_table(manifest_path) -> tuple[list[str], list[str], np.ndarray]:
    """(dates common to every export, column order, raw Close values)."""
    with open(manifest_path) as fh:
        doc = json.load(fh)
    order = list(doc["order"])
    closes = {name: read_closes(doc["tickers"][name]) for name in order}
    dates = sorted(set.intersection(*(set(c) for c in closes.values())))
    values = np.array([[closes[name][d] for name in order] for d in dates])
    return dates, order, values


def windows(std_values: np.ndarray, order: list[str], channel_order,
            target: str, window: int, span: int):
    """x[i] = rows i..i+window-1 in `channel_order`; y[i] = the target at
    rows i+window..i+window+span-1."""
    cols = [order.index(name) for name in channel_order]
    tgt = std_values[:, order.index(target)]
    n = len(std_values) - window - span + 1
    x = np.stack([std_values[i:i + window][:, cols] for i in range(n)])
    y = np.stack([tgt[i + window:i + window + span] for i in range(n)])
    return x, y


def cv_size(n: int) -> int:
    return int(np.floor(0.8 * n))


# -- parameter counts --------------------------------------------------------------

def parse_test_layer(spec: dict) -> tuple[str, int, str | None]:
    parts = spec["test_layer"].split(":")
    return parts[0], int(parts[1]), parts[2] if len(parts) > 2 else None


def param_count(spec: dict) -> int:
    """Closed form: 4mn + 4n for a hypercomplex layer of m input and n
    output slots, fk*c + f for Conv1D, 4n(c + n) + 4n for LSTM, io + o for
    each Dense."""
    kind, size, _ = parse_test_layer(spec)
    window, units = spec["window"], spec["dense_units"]
    if kind == "hyper":
        m = CHANNELS // 4
        count, width, steps = 4 * m * size + 4 * size, 4 * size, window
    elif kind == "cnn":
        count = size * CONV_KERNEL * CHANNELS + size
        width, steps = size, window - CONV_KERNEL + 1
    else:
        count = 4 * size * (CHANNELS + size) + 4 * size
        width, steps = size, window
    if spec["n_dense1"]:
        count += width * units + units
        width = units
    width *= steps // POOL
    if spec["n_dense2"]:
        count += width * units + units
        width = units
    return count + width * spec["span"] + spec["span"]


# -- forward pass --------------------------------------------------------------------

def _params_by_layer(doc: dict) -> list[tuple[str, dict]]:
    layers: dict[str, dict] = {}
    for entry in doc["params"]:
        arr = np.asarray(entry["values"], dtype=np.float64)
        layers.setdefault(entry["layer"], {})[entry["param"]] = \
            arr.reshape(entry["shape"])
    return sorted(layers.items())


def _dense(x, p, activation):
    z = x @ p["w"] + p["b"]
    return np.maximum(z, 0.0) if activation == "relu" else z


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def forward(doc: dict, x: np.ndarray) -> np.ndarray:
    """Inference-mode predictions [n, span] of a saved weight document."""
    spec = doc["spec"]
    kind, size, algebra = parse_test_layer(spec)
    layers = _params_by_layer(doc)
    expected = [{"hyper": "hyperdense", "cnn": "conv1d", "lstm": "lstm"}[kind]]
    expected += ["dense"] * (spec["n_dense1"] + spec["n_dense2"] + 1)
    names = [lid.split("_", 1)[1].split("[")[0] for lid, _ in layers]
    if names != expected:
        raise ValueError(f"weight document holds layers {names},"
                         f" expected {expected}")
    params = [p for _, p in layers]
    n = x.shape[0]
    if kind == "hyper":
        w, b = params[0]["w"], params[0]["b"]            # [u, s, 4], [u, 4]
        xs = x.reshape(n, x.shape[1], -1, 1, 4)           # [n, t, s, 1, 4]
        w_rows = w.transpose(1, 0, 2)                     # [s, u, 4]
        h = hprod(w_rows, xs, algebra).sum(axis=2) + b    # [n, t, u, 4]
        h = h.reshape(n, x.shape[1], 4 * size)
    elif kind == "cnn":
        w, b = params[0]["w"], params[0]["b"]            # [f, k, c]
        steps = x.shape[1] - CONV_KERNEL + 1
        z = b + sum(x[:, k:k + steps, :] @ w[:, k, :].T
                    for k in range(CONV_KERNEL))
        h = np.maximum(z, 0.0)
    else:
        w, u, b = params[0]["w"], params[0]["u"], params[0]["b"]
        hid = np.zeros((n, size))
        cell = np.zeros((n, size))
        out = []
        for t in range(x.shape[1]):
            z = x[:, t, :] @ w + hid @ u + b
            i, f = _sigmoid(z[:, :size]), _sigmoid(z[:, size:2 * size])
            g, o = np.tanh(z[:, 2 * size:3 * size]), _sigmoid(z[:, 3 * size:])
            cell = f * cell + i * g
            hid = o * np.tanh(cell)
            out.append(hid)
        h = np.stack(out, axis=1)
    rest = params[1:]
    if spec["n_dense1"]:
        h = _dense(h, rest.pop(0), spec["dense_activation"])
    steps = h.shape[1] // POOL
    h = h[:, :steps * POOL].reshape(n, steps, POOL, -1).max(axis=2)
    h = h.reshape(n, -1)
    if spec["n_dense2"]:
        h = _dense(h, rest.pop(0), spec["dense_activation"])
    return _dense(h, rest.pop(0), "linear")
