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
from .nn import stack as nn_stack

CLASS_KINDS = ("cnn", "lstm", "hyper")
# a spec's JSON fields, in the order ModelSpec.to_json_dict writes them
SPEC_FIELDS = ("test_layer", "n_dense1", "n_dense2", "dense_units",
               "dense_activation", "window", "span", "seed")
# the fields of each ``params`` entry of a weight document
PARAM_ENTRY_FIELDS = ("layer", "param", "shape", "values")
# the most weight values Model.save encodes in one piece
SAVE_CHUNK = 4096
# the most windows an inference forward sends through the layers at once
INFER_ROWS = 256

INPUT_CHANNELS = 4
CONV_KERNEL = 3
POOL_SIZE = 2
CONV_ACTIVATION = Activation.RELU
HYPER_ACTIVATION = Activation.LINEAR


def min_window(kind: str) -> int:
    """Smallest window for which the stack still has >= POOL_SIZE time steps
    when pooling is reached."""
    if kind == "cnn":
        return CONV_KERNEL + POOL_SIZE - 1
    return POOL_SIZE


def require_keys(doc, keys, where) -> None:
    """Raise ``ValueError`` naming ``where`` if the JSON document ``doc`` is
    not an object, or naming every one of ``keys`` that it lacks."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: not a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{where}: no {' or '.join(missing)} in the document")


def read_json(path, keys) -> dict:
    """The JSON object in the file at ``path``; raises ``ValueError`` naming
    ``path`` if the file does not parse, holds no object, or lacks ``keys``."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    require_keys(doc, keys, path)
    return doc


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` unless the file already holds exactly
    these bytes, so that a rerun which changes nothing leaves the file, and
    its modification time, as they were."""
    data = text.encode()
    try:
        with open(path, "rb") as fh:
            if fh.read() == data:
                return
    except FileNotFoundError:
        pass
    with open(path, "wb") as fh:
        fh.write(data)


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` (through ``write_text``) as key-sorted JSON
    indented by 2, with a trailing newline: the format of every JSON file a
    person reads."""
    write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def write_csv(path, comments, rows) -> None:
    """Write one ``# `` line per comment, then each row of cells the caller
    has already formatted, comma-joined: the format of every CSV artifact."""
    with open(path, "w") as fh:
        for line in comments or ():
            fh.write(f"# {line}\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def spec_key(doc) -> str:
    """Compact key-sorted JSON of ``doc``: a spec's ledger key, and the text
    a configuration hash is taken of."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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
        if self.window < min_window(self.kind):
            raise ShapeError(f"window {self.window} too small for {self.kind}"
                             f" stack: minimum is {min_window(self.kind)}")
        if self.span < 1:
            raise ValueError("span must be >= 1")

    def test_layer_code(self) -> str:
        if self.kind == "hyper":
            return f"hyper:{self.size}:{self.algebra}"
        return f"{self.kind}:{self.size}"

    def to_json_dict(self) -> dict:
        return {"test_layer": self.test_layer_code(),
                **{field: getattr(self, field) for field in SPEC_FIELDS[1:]}}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelSpec":
        """The spec ``to_json_dict`` wrote; raises ``ValueError`` naming
        the spec if it lacks any field or its test layer is malformed."""
        where = f"spec {spec_key(doc)}"
        require_keys(doc, SPEC_FIELDS, where)
        kind, *rest = str(doc["test_layer"]).split(":")
        if len(rest) != (2 if kind == "hyper" else 1):
            raise ValueError(f"{where}: test_layer is not kind:size or"
                             f" hyper:size:algebra")
        ints = {field: int(doc[field]) for field in SPEC_FIELDS[1:]
                if field != "dense_activation"}
        return cls(kind=kind, size=int(rest[0]),
                   algebra=rest[1] if kind == "hyper" else None,
                   dense_activation=doc["dense_activation"], **ints)

    def canonical(self) -> str:
        """Stable key used for ledgers, dedup, and resume."""
        return spec_key(self.to_json_dict())

    def stable_id(self) -> int:
        """64-bit id derived from the canonical form (process-independent)."""
        digest = hashlib.sha256(self.canonical().encode()).digest()
        return int.from_bytes(digest[:8], "big")


class Model:
    """An assembled layer stack over batches of windows: ``forward`` takes
    ``[batch, window, 4]``, so one window goes in as ``x[None]``.

    ``_param_table`` names each trainable array once, as (layer id, layer,
    attribute) in serialization order. All trainable reals live in one
    float64 vector and their gradients in a second, in that order; each
    layer's named arrays (``w``, ``dw``, ...) are views of their slices, so
    layers write into them in place and never rebind them. ``params()`` and
    ``grads()`` return the two vectors, so an optimizer updates every
    parameter with one set of vector operations.

    ``Model.stack(models)`` trains several same-spec models as one: its
    layers are ``nn.stack``-ed, its inputs, outputs and gradients carry a
    leading member axis (``[members, batch, window, 4]`` in), and its two
    vectors are ``[members, param_count]`` with one row per member. Each
    member model's arrays become views of its row, so after training the
    stack every member is an ordinary trained model to score, save or
    predict with.
    """

    def __init__(self, spec: ModelSpec, layers: list[Layer]):
        self.spec = spec
        self.layers = layers
        self._param_table = [(f"{i:02d}_{lyr.name}", lyr, pname)
                             for i, lyr in enumerate(layers)
                             for pname in lyr.param_names()]
        params = np.concatenate(
            [getattr(lyr, pname).reshape(layers[0].lead + (-1,))
             for _, lyr, pname in self._param_table], axis=-1)
        self._bind(params, np.zeros_like(params))

    @classmethod
    def stack(cls, models: list["Model"]) -> "Model":
        """One model whose member ``i`` is ``models[i]`` (all of one spec
        but for the seed); every member's arrays become views of its row of
        the stack's vectors."""
        stacked = cls(models[0].spec,
                      [nn_stack(list(layers))
                       for layers in zip(*(m.layers for m in models))])
        for row, model in enumerate(models):
            model._bind(stacked._params[row], stacked._grads[row])
        return stacked

    def _bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Make ``params`` and ``grads`` the model's vectors (their last
        axis runs over the table) and rebind every named array, and its
        gradient, to a view of its slice; ``params`` must hold the arrays'
        values already."""
        self._params, self._grads = params, grads
        start = 0
        for _, lyr, pname in self._param_table:
            shape = getattr(lyr, pname).shape
            stop = start + math.prod(shape[params.ndim - 1:])
            setattr(lyr, pname, params[..., start:stop].reshape(shape))
            setattr(lyr, "d" + pname, grads[..., start:stop].reshape(shape))
            start = stop

    def param_count(self) -> int:
        """Trainable reals of one member (of the model, if not stacked)."""
        return self._params.shape[-1]

    def params(self) -> list[np.ndarray]:
        """The parameter vector; ``fit`` calls this once, so it raises
        ``ValueError`` there if a layer array was rebound off the vectors."""
        for lid, lyr, pname in self._param_table:
            for name, vector in ((pname, self._params),
                                 ("d" + pname, self._grads)):
                if not np.shares_memory(getattr(lyr, name), vector):
                    raise ValueError(f"{lid}.{name} was rebound: it no longer"
                                     f" views the model's vector")
        return [self._params]

    def grads(self) -> list[np.ndarray]:
        return [self._grads]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Outputs for a batch of windows.

        With ``training=False`` a batch of more than ``INFER_ROWS`` windows
        goes through the layers in ``np.array_split`` parts of at least
        ``INFER_ROWS / 2`` windows, and every layer's cache is dropped after
        each part, so memory does not grow with the number of windows. The
        output is the parts' outputs concatenated: the bits of one pass
        wherever BLAS runs the same kernel for a part's rows as for the
        whole batch's. No cache is left afterwards, so a later ``backward``
        raises ``RuntimeError``. A training forward, or an inference forward
        of at most ``INFER_ROWS`` windows, is one pass that keeps every
        layer's cache for ``backward``."""
        lead = self.layers[0].lead
        expect = (self.spec.window, INPUT_CHANNELS)
        shape = np.shape(x)
        if (len(shape) != len(lead) + 3 or shape[:len(lead)] != lead
                or shape[-2:] != expect):
            member = f"members={lead[0]}, " if lead else ""
            raise ShapeError(f"model expects input [{member}batch,"
                             f" {expect[0]}, {expect[1]}], got {shape}")
        axis = len(lead)
        if training or shape[axis] <= INFER_ROWS:
            return self._pass(x, training)
        parts = []
        for part in np.array_split(x, math.ceil(shape[axis] / INFER_ROWS),
                                   axis=axis):
            parts.append(self._pass(part, False))
            for lyr in self.layers:
                lyr._cache = None
        return np.concatenate(parts, axis=axis)

    def _pass(self, x, training: bool) -> np.ndarray:
        for lyr in self.layers:
            x = lyr.forward(x, training=training)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate a loss gradient; fills every layer's grads and
        returns the gradient with respect to the model input."""
        for lyr in reversed(self.layers):
            grad_out = lyr.backward(grad_out)
        return grad_out

    # -- weight (de)serialization ------------------------------------------

    def to_doc(self) -> dict:
        entries = []
        for lid, lyr, pname in self._param_table:
            arr = getattr(lyr, pname)
            entries.append({"layer": lid, "param": pname,
                            "shape": list(arr.shape),
                            "values": arr.reshape(-1).tolist()})
        return {"spec": self.spec.to_json_dict(), "params": entries}

    def save(self, path) -> None:
        """Write ``json.dumps(self.to_doc())`` to ``path``, encoding at most
        ``SAVE_CHUNK`` values at a time, so that neither the text nor the
        Python floats of a large weight array are ever all in memory."""
        with open(path, "w") as fh:
            fh.write(f'{{"spec": {json.dumps(self.spec.to_json_dict())},'
                     f' "params": [')
            for i, (lid, lyr, pname) in enumerate(self._param_table):
                arr = getattr(lyr, pname)
                flat = arr.reshape(-1)
                head = json.dumps({"layer": lid, "param": pname,
                                   "shape": list(arr.shape)})
                fh.write(f'{", " if i else ""}{head[:-1]}, "values": [')
                for start in range(0, flat.size, SAVE_CHUNK):
                    chunk = flat[start:start + SAVE_CHUNK].tolist()
                    fh.write((", " if start else "")
                             + json.dumps(chunk)[1:-1])
                fh.write("]}")
            fh.write("]}")

    def load_params(self, doc: dict) -> None:
        """Copy a ``to_doc`` document into the model's arrays; raises
        ``ValueError`` naming any entry missing, incomplete, misshaped or
        unmatched."""
        by_key = {}
        for i, entry in enumerate(doc["params"]):
            require_keys(entry, PARAM_ENTRY_FIELDS, f"params[{i}]")
            by_key[(entry["layer"], entry["param"])] = entry
        for lid, lyr, pname in self._param_table:
            arr = getattr(lyr, pname)
            entry = by_key.pop((lid, pname), None)
            if entry is None:
                raise ValueError(f"{lid}.{pname}: no entry in the document")
            shape = tuple(entry["shape"])
            if shape != arr.shape:
                raise ValueError(f"{lid}.{pname}: document shape {shape}"
                                 f" != layer shape {arr.shape}")
            vals = np.asarray(entry["values"], dtype=np.float64)
            if vals.size != arr.size:
                raise ValueError(f"{lid}.{pname}: document has {vals.size}"
                                 f" values for shape {shape}")
            arr[...] = vals.reshape(shape)
        if by_key:
            raise ValueError(f"unmatched parameters in document: {list(by_key)}")


def build(spec: ModelSpec) -> Model:
    """Assemble the testing stack for a spec; deterministic given spec.seed."""
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


def load_model(path) -> Model:
    """Rebuild a model from the weight document ``Model.save`` wrote to
    ``path``. A document already in memory loads with
    ``build(ModelSpec.from_json_dict(doc["spec"])).load_params(doc)``.
    A file that is not a JSON object with ``spec`` and ``params`` raises
    ``ValueError``."""
    doc = read_json(path, ("spec", "params"))
    model = build(ModelSpec.from_json_dict(doc["spec"]))
    model.load_params(doc)
    return model
