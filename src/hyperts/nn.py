"""Neural-network layers with explicit forward/backward passes.

All arithmetic is float64. Sequence layers (HyperDense, Conv1D, LSTM,
MaxPool1D) take only batches shaped [batch, time, features]; Flatten keeps
the leading batch axis; Dense and Dropout apply elementwise or along the
last axis of any input. Every layer caches what its backward pass needs.
A layer names its trainable arrays once, in ``_param_names``; the gradient
of attribute ``<name>`` lives at ``d<name>`` (same shape) and is filled by
``backward()``. Once the layer is part of a ``Model``, both arrays are
views into the model's parameter and gradient vectors, so ``backward()``
writes gradients in place and nothing may rebind them.

``stack(layers)`` makes one layer of several same-shaped ones: its
``lead`` is ``(members,)`` where a plain layer's is ``()``, and that axis
leads its arrays, its inputs and its outputs (so [members, batch, time,
features] for a sequence layer). Plain and stacked layers run the same
lines: each forward and backward indexes time and features from the end,
takes products per member with ``@`` and never reduces over the member
axis, and a Dropout fills one row of draws per generator. So each member
computes exactly the bits its own layer would.

Backward passes are written as 2-D matrix products over the flattened
batch-and-time rows, so BLAS does the reductions. Each pass is
deterministic: the same inputs give the same bits on every call.
"""

from __future__ import annotations

import copy
import enum
import math

import numpy as np

from .algebra import AlgebraKind, left_mul_matrix, table_for


class ShapeError(ValueError):
    """Raised when an input does not match a layer's expected dimensions."""


class Activation(enum.Enum):
    LINEAR = "linear"
    RELU = "relu"


def _apply_act(z: np.ndarray, act: Activation) -> np.ndarray:
    if act is Activation.RELU:
        return np.maximum(z, 0.0)
    return z


def _act_backward(g: np.ndarray, z: np.ndarray,
                  act: Activation) -> np.ndarray:
    """dL/dz from the upstream gradient ``g`` at pre-activation ``z``
    (``g`` itself for linear)."""
    if act is Activation.RELU:
        return g * (z > 0.0)
    return g


def _select_bits(mask: np.ndarray, a: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """The exact float64 of ``a`` where the int64 ``mask`` is all ones and of
    ``b`` where it is zero: a bitwise blend, so signed zeros and NaN payloads
    are copied unchanged, and unlike ``np.where`` it does not branch on each
    element."""
    a_bits = a.view(np.int64)
    b_bits = b.view(np.int64)
    out = a_bits ^ b_bits
    out &= mask
    out ^= b_bits
    return out.view(np.float64)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Base contract: forward/backward over batches, plus trainable arrays
    named once.

    ``_param_names`` lists the attributes holding the trainable arrays, in
    serialization order; each has a same-shaped gradient at ``d<name>``.
    ``params()``, ``grads()``, ``param_names()`` and ``param_count()`` all
    derive from that one declaration.

    ``backward`` reads what ``forward`` cached through ``_cached()`` and
    checks its upstream gradient's shape through ``_upstream()``.

    ``lead`` is the shape of the leading member axis: ``()`` for a plain
    layer, ``(members,)`` for one made by ``stack``.
    """

    name = "layer"
    _param_names: tuple[str, ...] = ()
    _cache = None
    lead: tuple[int, ...] = ()

    def _zero_grads(self) -> None:
        for pname in self._param_names:
            setattr(self, "d" + pname, np.zeros_like(getattr(self, pname)))

    def params(self) -> list[np.ndarray]:
        return [getattr(self, pname) for pname in self._param_names]

    def grads(self) -> list[np.ndarray]:
        return [getattr(self, "d" + pname) for pname in self._param_names]

    def param_names(self) -> list[str]:
        return list(self._param_names)

    def param_count(self) -> int:
        return int(sum(p.size for p in self.params()))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _cached(self):
        """The cache of the last ``forward``."""
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        return self._cache

    def _upstream(self, grad_out: np.ndarray, shape: tuple) -> np.ndarray:
        """``grad_out`` as float64, required to have the output's shape."""
        g = np.asarray(grad_out, dtype=np.float64)
        if g.shape != shape:
            raise ShapeError(f"{self.name}: upstream gradient shape {g.shape}"
                             f" does not match output shape {shape}")
        return g


def _as_batch(x: np.ndarray, layer: Layer,
              features: int | None = None) -> np.ndarray:
    """Return ``x`` as float64, requiring [batch, time, features] after the
    layer's member axis, with ``features`` on the last axis when it is
    given."""
    x = np.asarray(x, dtype=np.float64)
    lead = layer.lead
    if (x.ndim != len(lead) + 3 or x.shape[:len(lead)] != lead
            or (features is not None and x.shape[-1] != features)):
        want = "features" if features is None else f"features={features}"
        member = f"members={lead[0]}, " if lead else ""
        raise ShapeError(f"{layer.name}: expected [{member}batch, time,"
                         f" {want}] input, got shape {x.shape}")
    return x


def _lift(arr: np.ndarray, lead: int, ndim: int) -> np.ndarray:
    """``arr`` with singleton axes after its first ``lead`` (member) axes,
    so that its other axes line up with the last axes of an ``ndim``-axis
    array and each member broadcasts over only its own rows."""
    extra = (1,) * (ndim - arr.ndim)
    return arr.reshape(arr.shape[:lead] + extra + arr.shape[lead:])


class HyperDense(Layer):
    """Dense layer over 4D hypercomplex elements.

    Weights, inputs, and bias are hypercomplex: the input row at each time
    step is split into ``in_h`` consecutive 4-tuples (real, i, j, k), each
    output unit accumulates left products weight*input over the input slots,
    adds a hypercomplex bias, and applies the activation componentwise.
    Weights are shared across time, so [batch, time, 4*in_h] maps to
    [batch, time, 4*units].

    Trainable reals: 4*units*in_h weights + 4*units biases.

    Forward is one product with the real block matrix of the weights.
    Backward gets the input gradient from the same matrix and the weight
    gradient from one product of the output gradient with the input rows,
    contracted with the structure constants.
    """

    _param_names = ("w", "b")

    def __init__(self, in_h: int, units: int, kind: AlgebraKind,
                 activation: Activation = Activation.LINEAR, *,
                 rng: np.random.Generator):
        if in_h < 1 or units < 1:
            raise ValueError("in_h and units must be >= 1")
        self.name = f"hyperdense[{AlgebraKind(kind).value}]"
        self.in_h = in_h
        self.units = units
        self.kind = AlgebraKind(kind)
        self.table = table_for(self.kind)
        self.activation = Activation(activation)
        # fan computed on real widths; each of the 4 components initialized
        # as an independent real
        self.w = glorot_uniform(rng, 4 * in_h, 4 * units, (units, in_h, 4))
        self.b = np.zeros((units, 4), dtype=np.float64)
        self._zero_grads()

    def _block_matrix(self) -> np.ndarray:
        """Real [4*units, 4*in_h] matrix (one per member) whose (u,s) 4x4
        block is the left-multiplication matrix of w[u, s]."""
        m = left_mul_matrix(self.w, self.table)  # [..., u, s, d, q]
        return m.swapaxes(-3, -2).reshape(
            self.lead + (4 * self.units, 4 * self.in_h))

    def forward(self, x, training=False):
        xb = _as_batch(x, self, 4 * self.in_h)
        lead = self.lead
        bsz, t, width = xb.shape[-3:]
        flat = xb.reshape(lead + (bsz * t, width))
        m = self._block_matrix()
        z = flat @ m.swapaxes(-1, -2) + self.b.reshape(lead + (1, -1))
        y = _apply_act(z, self.activation)
        self._cache = (flat, z, m, bsz, t)
        return y.reshape(lead + (bsz, t, 4 * self.units))

    def backward(self, grad_out):
        flat, z, m, bsz, t = self._cached()
        lead = self.lead
        g = self._upstream(grad_out, lead + (bsz, t, 4 * self.units))
        dz = _act_backward(g.reshape(z.shape), z, self.activation)
        self.db[...] = dz.sum(axis=-2).reshape(self.db.shape)
        # dw[u,s,p] = sum_{d,q} gux[u,s,d,q] c[p,q,d], where one GEMM over
        # the rows gives gux[u,d,s,q] = sum_n dz[n,u,d] x[n,s,q]; as rows
        # (u, s) by columns (d, q), one more product contracts it with the
        # structure constants as a [(d, q), p] matrix.
        gux = (dz.swapaxes(-1, -2) @ flat).reshape(
            lead + (self.units, 4, self.in_h, 4)).swapaxes(-3, -2)
        self.dw[...] = (gux.reshape(lead + (-1, 16))
                        @ self.table.transpose(2, 1, 0).reshape(16, 4)
                        ).reshape(self.dw.shape)
        return (dz @ m).reshape(lead + (bsz, t, 4 * self.in_h))


class Dense(Layer):
    """Fully connected layer applied along the last axis: y = f(x @ W + b).

    Backward flattens the leading axes into rows, so both gradients are
    single 2-D products. Forward keeps the batched product on the input's
    own shape: on 3-D inference batches, one large threaded 2-D product
    raised peak memory.
    """

    _param_names = ("w", "b")

    def __init__(self, in_features: int, units: int,
                 activation: Activation = Activation.LINEAR, *,
                 rng: np.random.Generator):
        self.name = "dense"
        self.in_features = in_features
        self.units = units
        self.activation = Activation(activation)
        self.w = glorot_uniform(rng, in_features, units, (in_features, units))
        self.b = np.zeros(units, dtype=np.float64)
        self._zero_grads()

    def forward(self, x, training=False):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"{self.name}: last input dim {x.shape[-1]} != in_features ="
                f" {self.in_features} (input shape {x.shape})")
        lead = len(self.lead)
        z = x @ _lift(self.w, lead, x.ndim) + _lift(self.b, lead, x.ndim)
        self._cache = (x, z)
        return _apply_act(z, self.activation)

    def backward(self, grad_out):
        x, z = self._cached()
        g = self._upstream(grad_out, z.shape)
        dz = _act_backward(g, z, self.activation)
        lead = self.lead
        xf = x.reshape(lead + (-1, self.in_features))
        dzf = dz.reshape(lead + (-1, self.units))
        self.dw[...] = xf.swapaxes(-1, -2) @ dzf
        self.db[...] = dzf.sum(axis=-2)
        return (dzf @ self.w.swapaxes(-1, -2)).reshape(x.shape)


class Conv1D(Layer):
    """Valid (no-padding) cross-correlation along time, stride 1.

    out[t, f] = act( sum_{k,c} kernel[f, k, c] * x[t+k, c] + b[f] ),
    output time length = time - kernel_size + 1.

    Backward takes each kernel tap k as a Dense layer on the shifted rows
    x[:, k:k+t_out, :]: two 2-D products per tap give its weight gradient
    and its share of the input gradient (im2col-style lowering).
    """

    _param_names = ("w", "b")

    def __init__(self, channels: int, filters: int, kernel_size: int = 3,
                 activation: Activation = Activation.RELU, *,
                 rng: np.random.Generator):
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.name = "conv1d"
        self.channels = channels
        self.filters = filters
        self.kernel_size = kernel_size
        self.activation = Activation(activation)
        fan_in = kernel_size * channels
        fan_out = kernel_size * filters
        self.w = glorot_uniform(rng, fan_in, fan_out,
                                (filters, kernel_size, channels))
        self.b = np.zeros(filters, dtype=np.float64)
        self._zero_grads()

    def forward(self, x, training=False):
        xb = _as_batch(x, self, self.channels)
        lead = self.lead
        bsz, t, _ = xb.shape[-3:]
        if t < self.kernel_size:
            raise ShapeError(
                f"{self.name}: time length {t} < kernel_size {self.kernel_size}")
        t_out = t - self.kernel_size + 1
        # cols[..., (k, c), (b, t_out)] = x[..., b, t_out + k, c]: one
        # product of the kernel rows [f, (k, c)] with these columns
        win = np.lib.stride_tricks.sliding_window_view(
            xb, self.kernel_size, axis=-2)  # [..., b, t_out, c, k]
        cols = np.moveaxis(win, (-1, -2), (-4, -3)).reshape(
            lead + (self.kernel_size * self.channels, bsz * t_out))
        kernel = self.w.reshape(lead + (self.filters, -1))
        z = np.moveaxis((kernel @ cols).reshape(
            lead + (self.filters, bsz, t_out)), -3, -1) \
            + _lift(self.b, len(lead), xb.ndim)
        y = _apply_act(z, self.activation)
        self._cache = (xb, z)
        return y

    def backward(self, grad_out):
        xb, z = self._cached()
        g = self._upstream(grad_out, z.shape)
        dz = _act_backward(g, z, self.activation)
        lead = self.lead
        bsz, t_out, _ = z.shape[-3:]
        dzf = dz.reshape(lead + (bsz * t_out, self.filters))
        self.db[...] = dz.sum(axis=(-3, -2))
        # tap k sees the input rows x[:, k:k+t_out, :]: it gets the weight
        # gradient dz^T x_k and adds dz w[:, k, :] back onto those rows
        dx = np.zeros_like(xb)
        for k in range(self.kernel_size):
            xk = xb[..., k:k + t_out, :].reshape(
                lead + (bsz * t_out, self.channels))
            self.dw[..., k, :] = dzf.swapaxes(-1, -2) @ xk
            dx[..., k:k + t_out, :] += (dzf @ self.w[..., k, :]).reshape(
                lead + (bsz, t_out, self.channels))
        return dx


class LSTM(Layer):
    """Gated recurrent layer returning the full hidden sequence.

    Standard cell without peepholes: sigmoid input/forget/output gates,
    tanh candidate and cell output. Gate blocks are stored in (i, f, g, o)
    order inside the stacked kernels. State starts at zero.
    """

    _param_names = ("w", "u", "b")

    def __init__(self, channels: int, units: int, *, rng: np.random.Generator):
        self.name = "lstm"
        self.channels = channels
        self.units = units
        self.w = glorot_uniform(rng, channels, 4 * units, (channels, 4 * units))
        self.u = glorot_uniform(rng, units, 4 * units, (units, 4 * units))
        self.b = np.zeros(4 * units, dtype=np.float64)
        self._zero_grads()

    @staticmethod
    def _sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    def forward(self, x, training=False):
        xb = _as_batch(x, self, self.channels)
        lead = self.lead
        bsz, t, _ = xb.shape[-3:]
        n = self.units
        b = _lift(self.b, len(lead), xb.ndim - 1)
        gates = np.empty((t,) + lead + (bsz, 4 * n))
        tanh_c = np.empty((t,) + lead + (bsz, n))
        # hs[s] and cells[s] are the states before step s (row 0 is the zero
        # start state), so step s reads row s and writes row s + 1.
        hs = np.zeros((t + 1,) + lead + (bsz, n))
        cells = np.zeros((t + 1,) + lead + (bsz, n))
        for step in range(t):
            zg = xb[..., step, :] @ self.w + hs[step] @ self.u + b
            gate = gates[step]
            gi, gf, gg, go = (gate[..., :n], gate[..., n:2 * n],
                              gate[..., 2 * n:3 * n], gate[..., 3 * n:])
            gi[...] = self._sigmoid(zg[..., :n])
            gf[...] = self._sigmoid(zg[..., n:2 * n])
            gg[...] = np.tanh(zg[..., 2 * n:3 * n])
            go[...] = self._sigmoid(zg[..., 3 * n:])
            cells[step + 1] = gf * cells[step] + gi * gg
            tanh_c[step] = np.tanh(cells[step + 1])
            hs[step + 1] = go * tanh_c[step]
        self._cache = (xb, gates, tanh_c, hs, cells)
        return np.moveaxis(hs[1:], 0, -2)

    def backward(self, grad_out):
        xb, gates, tanh_c, hs, cells = self._cached()
        lead = self.lead
        bsz, t, _ = xb.shape[-3:]
        n = self.units
        g = self._upstream(grad_out, lead + (bsz, t, n))
        self.dw[...] = 0.0
        self.du[...] = 0.0
        self.db[...] = 0.0
        w_t = self.w.swapaxes(-1, -2)
        u_t = self.u.swapaxes(-1, -2)
        dx = np.empty_like(xb)
        dh_next = np.zeros(lead + (bsz, n))
        dc_next = np.zeros(lead + (bsz, n))
        dzg = np.empty(lead + (bsz, 4 * n))
        for step in range(t - 1, -1, -1):
            dh = g[..., step, :] + dh_next
            gate = gates[step]
            gi, gf, gg, go = (gate[..., :n], gate[..., n:2 * n],
                              gate[..., 2 * n:3 * n], gate[..., 3 * n:])
            tc = tanh_c[step]
            dc = dc_next + dh * go * (1.0 - tc * tc)
            dzg[..., :n] = dc * gg * gi * (1.0 - gi)
            dzg[..., n:2 * n] = dc * cells[step] * gf * (1.0 - gf)
            dzg[..., 2 * n:3 * n] = dc * gi * (1.0 - gg * gg)
            dzg[..., 3 * n:] = dh * tc * go * (1.0 - go)
            self.dw += xb[..., step, :].swapaxes(-1, -2) @ dzg
            self.du += hs[step].swapaxes(-1, -2) @ dzg
            self.db += dzg.sum(axis=-2)
            dx[..., step, :] = dzg @ w_t
            dh_next = dzg @ u_t
            dc_next = dc * gf
        return dx


class MaxPool1D(Layer):
    """Non-overlapping max pooling of pairs of time steps (the testing
    stack's one pool size, 2); a trailing odd step is dropped.

    The pairs are the strided time slices ``x[:, 0:end:2, :]`` and
    ``x[:, 1:end:2, :]``. The second step wins its pair only where it is
    larger, or NaN while the first is not, so each pair pools to its first
    maximum or NaN (the ``argmax`` rule). Backward routes the gradient to
    the winning step.
    """

    def __init__(self, pool_size: int = 2):
        if pool_size != 2:
            raise ValueError(f"MaxPool1D pools pairs of steps: pool_size"
                             f" must be 2, got {pool_size}")
        self.name = "maxpool1d"

    def forward(self, x, training=False):
        xb = _as_batch(x, self)
        t = xb.shape[-2]
        if t < 2:
            raise ShapeError(f"{self.name}: time length {t} < pool_size 2")
        end = t // 2 * 2
        first, second = xb[..., 0:end:2, :], xb[..., 1:end:2, :]
        # all ones where the second step wins its pair
        wins = np.negative(~(second <= first) & (first == first),
                           dtype=np.int64)
        self._cache = (wins, xb.shape)
        return _select_bits(wins, second, first)

    def backward(self, grad_out):
        wins, shape = self._cached()
        end = shape[-2] // 2 * 2
        g = self._upstream(grad_out, wins.shape).view(np.int64)
        # every position that lost its pair, or was dropped, keeps +0.0
        dx = np.zeros(shape)
        np.bitwise_and(g, wins, out=dx[..., 1:end:2, :].view(np.int64))
        np.bitwise_and(g, ~wins, out=dx[..., 0:end:2, :].view(np.int64))
        return dx


class Flatten(Layer):
    """Reshape [batch, ...] -> [batch, prod(...)], keeping the batch axis
    (and the member axis of a stacked layer)."""

    def __init__(self):
        self.name = "flatten"

    def forward(self, x, training=False):
        x = np.asarray(x, dtype=np.float64)
        self._cache = x.shape
        return x.reshape(x.shape[:len(self.lead) + 1] + (-1,))

    def backward(self, grad_out):
        shape = self._cached()
        keep = len(self.lead) + 1
        g = self._upstream(grad_out,
                           shape[:keep] + (math.prod(shape[keep:]),))
        return g.reshape(shape)


class Dropout(Layer):
    """Inverted dropout: zero each element with probability ``rate`` during
    training, scale survivors by 1/(1-rate); identity at inference.

    ``rngs`` holds one generator per member (one for a plain layer); each
    fills its member's row of the draws in place."""

    def __init__(self, rate: float = 0.5, *, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.name = "dropout"
        self.rate = rate
        self.rngs = (rng,)

    def forward(self, x, training=False):
        x = np.asarray(x, dtype=np.float64)
        if not training or self.rate == 0.0:
            self._cache = (None, x.shape)
            return x
        draws = np.empty(self.lead + x.shape[len(self.lead):])
        for rng, row in zip(self.rngs, draws.reshape(len(self.rngs), -1)):
            rng.random(out=row)
        mask = (draws >= self.rate) / (1.0 - self.rate)
        self._cache = (mask, x.shape)
        return x * mask

    def backward(self, grad_out):
        mask, shape = self._cached()
        g = self._upstream(grad_out, shape)
        return g if mask is None else g * mask


def stack(layers: list[Layer]) -> Layer:
    """One layer over a leading member axis of ``len(layers)``, member ``i``
    being ``layers[i]``: the layers must share class and settings. Each
    trainable array is the members' arrays stacked (a copy), with zeroed
    gradients; a Dropout joins the members' generators."""
    out = copy.copy(layers[0])
    out.lead = (len(layers),)
    out._cache = None
    for pname in out._param_names:
        setattr(out, pname, np.stack([getattr(lyr, pname) for lyr in layers]))
    out._zero_grads()
    if isinstance(out, Dropout):
        out.rngs = sum((lyr.rngs for lyr in layers), ())
    return out
