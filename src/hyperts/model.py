"""Declarative model specs and assembly of the seven-stage testing stack.

Stack order is fixed: test layer (Conv1D | LSTM | HyperDense), optional
per-timestep Dense, MaxPool1D, Flatten, optional Dense, Dropout(0.5),
final Dense(span). A spec plus a seed fully determines the initial
weights, so identical specs always build identical models.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

from .algebra import AlgebraKind
from .nn import (Activation, Conv1D, Dense, Dropout, Flatten, HyperDense,
                 Layer, LSTM, MaxPool1D, ShapeError)

CLASS_KINDS = ("cnn", "lstm", "hyper")

INPUT_CHANNELS = 4
CONV_KERNEL = 3
POOL_SIZE = 2
CONV_ACTIVATION = Activation.RELU
HYPER_ACTIVATION = Activation.LINEAR


def spec_key(spec_doc: dict) -> str:
    """Canonical serialization of a spec's JSON dict (the ledger key)."""
    return json.dumps(spec_doc, sort_keys=True, separators=(",", ":"))


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """One point in architecture space.

    ``kind``/``size`` select the test layer (n_filters for cnn, n_units for
    lstm, n_hunits for hyper); ``algebra`` applies to hyper only. The two
    optional dense layers share ``dense_units`` and ``dense_activation``.
    """

    kind: str
    size: int
    algebra: str | None
    n_dense1: int
    n_dense2: int
    dense_units: int
    dense_activation: str
    window: int
    span: int
    seed: int

    def __post_init__(self):
        if self.kind not in CLASS_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "hyper":
            if self.algebra is None:
                raise ValueError("hyper spec requires an algebra")
            AlgebraKind(self.algebra)
        elif self.algebra is not None:
            raise ValueError(f"{self.kind} spec must not set an algebra")
        if self.size < 1:
            raise ValueError("test layer size must be >= 1")
        if self.n_dense1 not in (0, 1) or self.n_dense2 not in (0, 1):
            raise ValueError("n_dense1/n_dense2 must be 0 or 1")
        if self.dense_units < 1:
            raise ValueError("dense_units must be >= 1")
        Activation(self.dense_activation)
        if self.window < 2:
            raise ValueError("window must be >= 2 (pooling needs 2 steps)")
        if self.span < 1:
            raise ValueError("span must be >= 1")

    def test_layer_code(self) -> str:
        if self.kind == "hyper":
            return f"hyper:{self.size}:{self.algebra}"
        return f"{self.kind}:{self.size}"

    def to_json_dict(self) -> dict:
        return {
            "test_layer": self.test_layer_code(),
            "n_dense1": self.n_dense1,
            "n_dense2": self.n_dense2,
            "dense_units": self.dense_units,
            "dense_activation": self.dense_activation,
            "window": self.window,
            "span": self.span,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelSpec":
        parts = doc["test_layer"].split(":")
        kind = parts[0]
        size = int(parts[1])
        algebra = parts[2] if kind == "hyper" else None
        return cls(kind=kind, size=size, algebra=algebra,
                   n_dense1=int(doc["n_dense1"]), n_dense2=int(doc["n_dense2"]),
                   dense_units=int(doc["dense_units"]),
                   dense_activation=doc["dense_activation"],
                   window=int(doc["window"]), span=int(doc["span"]),
                   seed=int(doc["seed"]))

    def canonical(self) -> str:
        """Stable key used for ledgers, dedup, and resume."""
        return spec_key(self.to_json_dict())

    def stable_id(self) -> int:
        """64-bit id derived from the canonical form (process-independent)."""
        digest = hashlib.sha256(self.canonical().encode()).digest()
        return int.from_bytes(digest[:8], "big")


class Model:
    """An assembled layer stack with uniform forward/backward.

    The layers take batches only; ``forward`` and ``backward`` also accept a
    single window (and its 1-D output gradient) by lifting it to a batch of
    one and returning row 0.

    All trainable reals live in one contiguous float64 vector and all their
    gradients in a second one, laid out layer by layer in ``_param_names``
    order. Each layer's named arrays (``w``, ``dw``, ...) are views of their
    slices, so layers must write into them in place, never rebind them.
    ``params()`` and ``grads()`` return the two vectors, which lets an
    optimizer update every parameter with one set of vector operations.
    """

    def __init__(self, spec: ModelSpec, layers: list[Layer]):
        self.spec = spec
        self.layers = layers
        self.layer_ids = [f"{i:02d}_{lyr.name}" for i, lyr in enumerate(layers)]
        named = [(lyr, pname) for lyr in layers for pname in lyr._param_names]
        self._params = np.concatenate(
            [getattr(lyr, pname).reshape(-1) for lyr, pname in named])
        self._grads = np.concatenate(
            [getattr(lyr, "d" + pname).reshape(-1) for lyr, pname in named])
        start = 0
        for lyr, pname in named:
            shape = getattr(lyr, pname).shape
            stop = start + math.prod(shape)
            setattr(lyr, pname, self._params[start:stop].reshape(shape))
            setattr(lyr, "d" + pname, self._grads[start:stop].reshape(shape))
            start = stop

    def param_count(self) -> int:
        return sum(lyr.param_count() for lyr in self.layers)

    def params(self) -> list[np.ndarray]:
        return [self._params]

    def grads(self) -> list[np.ndarray]:
        return [self._grads]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        expect = (self.spec.window, INPUT_CHANNELS)
        if x.shape[-2:] != expect or x.ndim not in (2, 3):
            raise ShapeError(
                f"model expects input [window={expect[0]}, {expect[1]}] or"
                f" [batch, {expect[0]}, {expect[1]}], got {x.shape}")
        out = x if x.ndim == 3 else x[None]
        for lyr in self.layers:
            out = lyr.forward(out, training=training)
        return out if x.ndim == 3 else out[0]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate a loss gradient; fills every layer's grads and
        returns the gradient with respect to the model input."""
        g = np.asarray(grad_out, dtype=np.float64)
        single = g.ndim == 1
        if single:
            g = g[None]
        for lyr in reversed(self.layers):
            g = lyr.backward(g)
        return g[0] if single else g

    # -- weight (de)serialization ------------------------------------------

    def to_doc(self) -> dict:
        entries = []
        for lid, lyr in zip(self.layer_ids, self.layers):
            for pname, arr in zip(lyr.param_names(), lyr.params()):
                entries.append({
                    "layer": lid,
                    "param": pname,
                    "shape": list(arr.shape),
                    "values": arr.reshape(-1).tolist(),
                })
        return {"spec": self.spec.to_json_dict(), "params": entries}

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_doc()))

    def load_params(self, doc: dict) -> None:
        by_key = {(e["layer"], e["param"]): e for e in doc["params"]}
        for lid, lyr in zip(self.layer_ids, self.layers):
            for pname, arr in zip(lyr.param_names(), lyr.params()):
                entry = by_key.pop((lid, pname))
                shape = tuple(entry["shape"])
                if shape != arr.shape:
                    raise ValueError(f"{lid}.{pname}: document shape {shape}"
                                     f" != layer shape {arr.shape}")
                vals = np.asarray(entry["values"], dtype=np.float64)
                arr[...] = vals.reshape(shape)
        if by_key:
            raise ValueError(f"unmatched parameters in document: {list(by_key)}")


def min_window(kind: str) -> int:
    """Smallest window for which the stack still has >= POOL_SIZE time steps
    when pooling is reached."""
    if kind == "cnn":
        return CONV_KERNEL + POOL_SIZE - 1
    return POOL_SIZE


def build(spec: ModelSpec) -> Model:
    """Assemble the testing stack for a spec; deterministic given spec.seed."""
    need = min_window(spec.kind)
    if spec.window < need:
        raise ShapeError(
            f"window {spec.window} too small for {spec.kind} stack:"
            f" minimum is {need}")
    ss = np.random.SeedSequence(spec.seed)
    init_ss, drop_ss = ss.spawn(2)
    rng = np.random.default_rng(init_ss)
    act = Activation(spec.dense_activation)

    layers: list[Layer] = []
    t = spec.window
    if spec.kind == "cnn":
        layers.append(Conv1D(INPUT_CHANNELS, spec.size, CONV_KERNEL,
                             activation=CONV_ACTIVATION, rng=rng))
        t = t - CONV_KERNEL + 1
        f = spec.size
    elif spec.kind == "lstm":
        layers.append(LSTM(INPUT_CHANNELS, spec.size, rng=rng))
        f = spec.size
    else:
        layers.append(HyperDense(INPUT_CHANNELS // 4, spec.size,
                                 AlgebraKind(spec.algebra),
                                 activation=HYPER_ACTIVATION, rng=rng))
        f = 4 * spec.size
    if spec.n_dense1:
        layers.append(Dense(f, spec.dense_units, activation=act, rng=rng))
        f = spec.dense_units
    layers.append(MaxPool1D(POOL_SIZE))
    t = t // POOL_SIZE
    layers.append(Flatten())
    width = t * f
    if spec.n_dense2:
        layers.append(Dense(width, spec.dense_units, activation=act, rng=rng))
        width = spec.dense_units
    layers.append(Dropout(0.5, rng=np.random.default_rng(drop_ss)))
    layers.append(Dense(width, spec.span, activation=Activation.LINEAR,
                        rng=rng))
    return Model(spec, layers)


def load_model(doc_or_path) -> Model:
    """Rebuild a model from a serialized weight document (path or dict)."""
    if isinstance(doc_or_path, (str, bytes)) or hasattr(doc_or_path, "__fspath__"):
        with open(doc_or_path) as fh:
            doc = json.load(fh)
    else:
        doc = doc_or_path
    spec = ModelSpec.from_json_dict(doc["spec"])
    model = build(spec)
    model.load_params(doc)
    return model
