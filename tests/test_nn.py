"""Layer forward/backward behavior, including finite-difference checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import check_layer_gradients, max_rel_err, numeric_grad
from hyperts.algebra import AlgebraKind, hmul, left_mul_matrix, table_for
from hyperts.nn import (Activation, Conv1D, Dense, Dropout, Flatten,
                        HyperDense, LSTM, MaxPool1D, ShapeError, stack)


class TestHyperDense:
    def test_identity_weight_is_identity(self, rng):
        lyr = HyperDense(1, 1, AlgebraKind.QUATERNION, rng=rng)
        lyr.w[...] = 0.0
        lyr.w[0, 0, 0] = 1.0  # real unit
        lyr.b[...] = 0.0
        x = rng.normal(size=(1, 6, 4))
        np.testing.assert_allclose(lyr.forward(x), x, atol=1e-15)

    def test_i_weight_maps_j_to_k(self, rng):
        lyr = HyperDense(1, 1, AlgebraKind.QUATERNION, rng=rng)
        lyr.w[...] = 0.0
        lyr.w[0, 0, 1] = 1.0  # w = i
        lyr.b[...] = 0.0
        out = lyr.forward(np.array([[[0.0, 0.0, 1.0, 0.0]]]))
        np.testing.assert_allclose(out, [[[0.0, 0.0, 0.0, 1.0]]], atol=1e-15)

    @pytest.mark.parametrize("kind", list(AlgebraKind))
    def test_matches_block_matrix_oracle(self, kind, rng):
        in_h, units, t = 2, 3, 4
        lyr = HyperDense(in_h, units, kind, rng=rng)
        x = rng.normal(size=(1, t, 4 * in_h))
        table = table_for(kind)
        # oracle: per-element products w[u, s] * x[t, slot s] summed over the
        # input slots, through hmul rather than the layer's block matrix
        want = np.zeros((1, t, 4 * units))
        for step in range(t):
            for u in range(units):
                acc = lyr.b[u].copy()
                for s in range(in_h):
                    acc += hmul(lyr.w[u, s], x[0, step, 4 * s:4 * s + 4],
                                table)
                want[0, step, 4 * u:4 * u + 4] = acc
        np.testing.assert_allclose(lyr.forward(x), want, atol=1e-12)

    def test_real_only_weights_match_block_diagonal_dense(self, rng):
        # real-only hypercomplex weights scale each 4-tuple uniformly, which
        # is a plain Dense with a 4-block-diagonal weight matrix
        for kind in AlgebraKind:
            in_h, units = 3, 2
            lyr = HyperDense(in_h, units, kind, rng=rng)
            lyr.w[:, :, 1:] = 0.0
            dense = Dense(4 * in_h, 4 * units, rng=rng)
            dense.w[...] = 0.0
            for u in range(units):
                for s in range(in_h):
                    for d in range(4):
                        dense.w[4 * s + d, 4 * u + d] = lyr.w[u, s, 0]
            dense.b[...] = lyr.b.reshape(-1)
            x = rng.normal(size=(1, 5, 4 * in_h))
            np.testing.assert_allclose(lyr.forward(x), dense.forward(x),
                                       atol=1e-12)

    def test_single_element_backward_is_transpose_map(self, rng):
        lyr = HyperDense(1, 1, AlgebraKind.QUATERNION, rng=rng)
        lyr.w[...] = 0.0
        lyr.w[0, 0, 1] = 1.0  # w = i
        lyr.b[...] = 0.0
        x = rng.normal(size=(1, 1, 4))
        lyr.forward(x)
        upstream = rng.normal(size=(1, 1, 4))
        dx = lyr.backward(upstream)
        m = left_mul_matrix(np.array([0.0, 1.0, 0.0, 0.0]),
                            table_for(AlgebraKind.QUATERNION))
        np.testing.assert_allclose(dx, upstream @ m, atol=1e-12)
        np.testing.assert_allclose(dx[0, 0], m.T @ upstream[0, 0], atol=1e-12)

    @pytest.mark.parametrize("kind", list(AlgebraKind))
    def test_gradients(self, kind, rng):
        for _ in range(3):
            lyr = HyperDense(2, 3, kind, activation=Activation.RELU, rng=rng)
            check_layer_gradients(lyr, rng.normal(size=(2, 3, 8)), rng)

    @settings(max_examples=40, deadline=None)
    @given(table=hnp.arrays(np.float64, (4, 4, 4),
                            elements=st.floats(-2.0, 2.0, width=64)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_gradients_under_any_structure_tensor(self, table, seed):
        # backward contracts ``table`` by hand rather than through
        # left_mul_matrix, so it must agree for every bilinear product, not
        # only the three algebras' sparse +-1 tables
        rng = np.random.default_rng(seed)
        lyr = HyperDense(2, 3, AlgebraKind.QUATERNION, rng=rng)
        lyr.table = table
        check_layer_gradients(lyr, rng.normal(size=(2, 3, 8)), rng)

    @pytest.mark.parametrize("units", [1, 2, 3, 8, 32])
    @pytest.mark.parametrize("kind", list(AlgebraKind))
    def test_weight_gradient_bits_match_einsum(self, kind, units, rng):
        # at in_h = 1, the only width a built model uses, the product with
        # the structure constants must give the einsum contraction's bits,
        # so that artifacts stay byte-identical
        lyr = HyperDense(1, units, kind, rng=rng)
        x = rng.normal(size=(5, 6, 4))
        g = rng.normal(size=lyr.forward(x).shape)
        lyr.backward(g)
        gux = (g.reshape(-1, 4 * units).T @ x.reshape(-1, 4)).reshape(
            units, 4, 1, 4)
        want = np.einsum("udsq,pqd->usp", gux, lyr.table)
        assert np.array_equal(lyr.dw.view(np.int64), want.view(np.int64))

    def test_param_count(self, rng):
        lyr = HyperDense(3, 5, AlgebraKind.QUATERNION, rng=rng)
        assert lyr.param_count() == 4 * 5 * 3 + 4 * 5


class TestDense:
    def test_identity(self, rng):
        lyr = Dense(4, 4, rng=rng)
        lyr.w[...] = np.eye(4)
        lyr.b[...] = 0.0
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(lyr.forward(x), x)

    def test_hand_sum(self, rng):
        lyr = Dense(4, 1, rng=rng)
        lyr.w[...] = 1.0
        lyr.b[...] = 0.0
        np.testing.assert_allclose(lyr.forward(np.array([1.0, 2, 3, 4])), [10])

    def test_applies_per_row_and_once_for_1d(self, rng):
        lyr = Dense(3, 2, rng=rng)
        x = rng.normal(size=(5, 3))
        rows = np.stack([lyr.forward(x[i]) for i in range(5)])
        np.testing.assert_allclose(lyr.forward(x), rows)

    def test_gradients(self, rng):
        for act in Activation:
            for _ in range(3):
                lyr = Dense(5, 4, activation=act, rng=rng)
                check_layer_gradients(lyr, rng.normal(size=(3, 5)), rng)

    def test_param_count_vs_hyperdense(self, rng):
        # same real widths 4m -> 4n: dense needs 16mn+4n, hyper 4mn+4n
        for m, n in [(1, 1), (2, 3), (4, 2)]:
            dense = Dense(4 * m, 4 * n, rng=rng)
            hyper = HyperDense(m, n, AlgebraKind.QUATERNION, rng=rng)
            assert dense.param_count() == 16 * m * n + 4 * n
            assert hyper.param_count() == 4 * m * n + 4 * n
            assert hyper.param_count() < dense.param_count()


class TestConv1D:
    def test_kernel1_identity(self, rng):
        lyr = Conv1D(1, 1, kernel_size=1, activation=Activation.LINEAR,
                     rng=rng)
        lyr.w[...] = 1.0
        lyr.b[...] = 0.0
        x = rng.normal(size=(1, 5, 1))
        np.testing.assert_allclose(lyr.forward(x), x)

    def test_sliding_sums(self, rng):
        lyr = Conv1D(1, 1, kernel_size=2, activation=Activation.LINEAR,
                     rng=rng)
        lyr.w[...] = 1.0
        lyr.b[...] = 0.0
        out = lyr.forward(np.array([[[1.0], [2.0], [3.0]]]))
        np.testing.assert_allclose(out, [[[3.0], [5.0]]])

    def test_output_length_and_params(self, rng):
        lyr = Conv1D(4, 8, kernel_size=3, rng=rng)
        out = lyr.forward(np.zeros((1, 10, 4)))
        assert out.shape == (1, 8, 8)
        assert lyr.param_count() == 8 * 3 * 4 + 8

    def test_rejects_short_input(self, rng):
        lyr = Conv1D(2, 1, kernel_size=3, rng=rng)
        with pytest.raises(ShapeError):
            lyr.forward(np.zeros((1, 2, 2)))

    def test_gradients(self, rng):
        for act in Activation:
            for _ in range(3):
                lyr = Conv1D(3, 4, kernel_size=3, activation=act, rng=rng)
                check_layer_gradients(lyr, rng.normal(size=(2, 7, 3)), rng)


def assert_close_to_scale(got, want, rtol=1e-12):
    """Every element of ``got`` within ``rtol`` of the largest magnitude in
    ``want`` (sums that cancel have no meaningful per-element ratio)."""
    assert got.shape == want.shape
    scale = max(float(np.max(np.abs(want))), np.finfo(np.float64).tiny)
    assert float(np.max(np.abs(got - want))) <= rtol * scale


def run_backward(lyr, x, g):
    """forward then backward; copies of dx and every parameter gradient."""
    lyr.forward(x, training=True)
    dx = lyr.backward(g)
    return [dx.copy()] + [d.copy() for d in lyr.grads()]


def assert_backward_matches(lyr, x, oracle, rng):
    """The layer's dx, dw, db against the oracle's within 1e-12 of scale,
    and the same bits from a second call on the same inputs."""
    g = rng.normal(size=lyr.forward(x).shape)
    first = run_backward(lyr, x, g)
    for got, want in zip(first, oracle(lyr, x, g)):
        assert_close_to_scale(got, want)
    for a, b in zip(first, run_backward(lyr, x, g)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def relu_mask(z, act):
    return (z > 0.0) if act is Activation.RELU else 1.0


# The three oracles below are the einsum formulations the layers used before
# their backward passes became 2-D matrix products. They read only the
# layers' weights and settings and share no code with the layers.

def hyperdense_einsum_backward(lyr, x, g):
    """(dx, dw, db) of HyperDense by per-row einsums."""
    c = lyr.table
    xh = x.reshape(-1, lyr.in_h, 4)
    # m[u,d,s,q] = sum_p w[u,s,p] c[p,q,d]: the left product as a matrix
    m = np.einsum("usp,pqd->udsq", lyr.w, c)
    z = np.einsum("udsq,nsq->nud", m, xh) + lyr.b
    dzh = g.reshape(-1, lyr.units, 4) * relu_mask(z, lyr.activation)
    gux = np.einsum("nud,nsq->udsq", dzh, xh)
    dw = np.einsum("udsq,pqd->usp", gux, c)
    dx = np.einsum("nud,udsq->nsq", dzh, m).reshape(x.shape)
    return dx, dw, dzh.sum(axis=0)


def dense_einsum_backward(lyr, x, g):
    """(dx, dw, db) of Dense with the gradient taken on x's own shape."""
    z = np.einsum("...i,iu->...u", x, lyr.w) + lyr.b
    dz = g * relu_mask(z, lyr.activation)
    dzf = dz.reshape(-1, lyr.units)
    dw = np.einsum("ni,nu->iu", x.reshape(-1, lyr.in_features), dzf)
    db = dzf.sum(axis=0)
    return np.einsum("...u,iu->...i", dz, lyr.w), dw, db


def conv1d_einsum_backward(lyr, x, g):
    """(dx, dw, db) of Conv1D: the weight gradient over sliding windows, and
    dx as the full correlation of dz with the kernel flipped in time."""
    k = lyr.kernel_size
    bsz, t, _ = x.shape
    win = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)
    z = np.einsum("btck,fkc->btf", win, lyr.w) + lyr.b
    dz = g * relu_mask(z, lyr.activation)
    dw = np.einsum("btf,btck->fkc", dz, win)
    pad = np.zeros((bsz, t + k - 1, lyr.filters))
    pad[:, k - 1:k - 1 + dz.shape[1], :] = dz
    dwin = np.lib.stride_tricks.sliding_window_view(pad, k, axis=1)
    dx = np.einsum("btfk,fkc->btc", dwin, lyr.w[:, ::-1, :])
    return dx, dw, dz.sum(axis=(0, 1))


class TestBackwardOracles:
    @pytest.mark.parametrize("act", list(Activation))
    @pytest.mark.parametrize("kind", list(AlgebraKind))
    @pytest.mark.parametrize("in_h", [1, 2, 3])
    def test_hyperdense(self, in_h, kind, act, rng):
        lyr = HyperDense(in_h, 5, kind, activation=act, rng=rng)
        lyr.b[...] = rng.normal(size=lyr.b.shape)
        assert_backward_matches(lyr, rng.normal(size=(6, 7, 4 * in_h)),
                                hyperdense_einsum_backward, rng)

    @pytest.mark.parametrize("act", list(Activation))
    @pytest.mark.parametrize("shape", [(9, 6), (4, 7, 6)], ids=["2d", "3d"])
    def test_dense(self, shape, act, rng):
        lyr = Dense(6, 5, activation=act, rng=rng)
        lyr.b[...] = rng.normal(size=lyr.b.shape)
        assert_backward_matches(lyr, rng.normal(size=shape),
                                dense_einsum_backward, rng)

    @pytest.mark.parametrize("act", list(Activation))
    @pytest.mark.parametrize("extra", [0, 1, 5, 17])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4])
    def test_conv1d(self, kernel, extra, act, rng):
        lyr = Conv1D(3, 5, kernel_size=kernel, activation=act, rng=rng)
        lyr.b[...] = rng.normal(size=lyr.b.shape)
        assert_backward_matches(lyr, rng.normal(size=(4, kernel + extra, 3)),
                                conv1d_einsum_backward, rng)


class TestLSTM:
    def test_zero_weights_give_zero_hidden(self):
        lyr = LSTM(2, 3, rng=np.random.default_rng(0))
        lyr.w[...] = 0.0
        lyr.u[...] = 0.0
        lyr.b[...] = 0.0
        out = lyr.forward(np.ones((1, 7, 2)))
        np.testing.assert_array_equal(out, np.zeros((1, 7, 3)))

    def test_single_step_hand_recurrence(self):
        # 1 unit, scalar input x=1, unit weights, zero bias, zero state:
        # gates sigma(1), candidate tanh(1), h = sigma(1)*tanh(sigma(1)*tanh(1))
        lyr = LSTM(1, 1, rng=np.random.default_rng(0))
        lyr.w[...] = 1.0
        lyr.u[...] = 1.0
        lyr.b[...] = 0.0
        out = lyr.forward(np.array([[[1.0]]]))
        sig1 = 1.0 / (1.0 + np.exp(-1.0))
        want = sig1 * np.tanh(sig1 * np.tanh(1.0))
        np.testing.assert_allclose(out, [[[want]]], atol=1e-14)

    def test_param_count(self):
        lyr = LSTM(4, 8, rng=np.random.default_rng(0))
        assert lyr.param_count() == 4 * (4 * 8 + 8 * 8 + 8)

    def test_returns_full_sequence(self, rng):
        lyr = LSTM(3, 5, rng=rng)
        out = lyr.forward(rng.normal(size=(1, 9, 3)))
        assert out.shape == (1, 9, 5)

    def test_gradients_through_5_steps(self, rng):
        for _ in range(3):
            lyr = LSTM(2, 3, rng=rng)
            check_layer_gradients(lyr, rng.normal(size=(2, 5, 2)), rng)


class TestMaxPool1D:
    def test_hand_pooling(self):
        lyr = MaxPool1D(2)
        out = lyr.forward(np.array([[[1.0], [3.0], [2.0], [5.0]]]))
        np.testing.assert_allclose(out, [[[3.0], [5.0]]])

    def test_trailing_remainder_dropped(self):
        lyr = MaxPool1D(2)
        out = lyr.forward(np.arange(10.0).reshape(1, 5, 2))
        assert out.shape == (1, 2, 2)

    def test_constant_input_ties_route_to_first(self):
        lyr = MaxPool1D(2)
        x = np.ones((1, 4, 2))
        out = lyr.forward(x)
        np.testing.assert_array_equal(out, np.ones((1, 2, 2)))
        dx = lyr.backward(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        want = np.array([[[1.0, 2.0], [0, 0], [3, 4], [0, 0]]])
        np.testing.assert_array_equal(dx, want)

    def test_backward_argmax_routing(self):
        lyr = MaxPool1D(2)
        lyr.forward(np.array([[[1.0], [3.0], [2.0], [5.0]]]))
        dx = lyr.backward(np.array([[[7.0], [9.0]]]))
        np.testing.assert_array_equal(dx, [[[0.0], [7.0], [0.0], [9.0]]])

    def test_rejects_short_input(self):
        with pytest.raises(ShapeError):
            MaxPool1D(2).forward(np.zeros((1, 1, 3)))

    @pytest.mark.parametrize("pool_size", [3, 1, 4])
    def test_rejects_pool_size_other_than_two(self, pool_size):
        with pytest.raises(ValueError, match=f"got {pool_size}"):
            MaxPool1D(pool_size)

    def test_gradients(self, rng):
        for _ in range(3):
            check_layer_gradients(MaxPool1D(2), rng.normal(size=(2, 7, 3)),
                                  rng)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_argmax_formulation_bit_for_bit(self, data):
        p = 2
        t = data.draw(st.integers(p, 4 * p + 1))
        bsz = data.draw(st.integers(1, 3))
        f = data.draw(st.integers(1, 3))
        # a small value set makes ties, signed-zero ties and NaN windows common
        x = data.draw(hnp.arrays(np.float64, (bsz, t, f), elements=(
            st.sampled_from([-1.0, -0.0, 0.0, 1.0, np.nan, -np.inf]))))
        g = data.draw(hnp.arrays(np.float64, (bsz, t // p, f),
                                 elements=st.floats(width=64)))
        want_out, want_dx = argmax_pool(x, g, p)
        lyr = MaxPool1D(p)
        out = lyr.forward(x)
        dx = lyr.backward(g)
        for got, want in ((out, want_out), (dx, want_dx)):
            assert np.array_equal(got, want, equal_nan=True)
            # equal bits: signed zeros and NaNs are the very same floats
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def argmax_pool(x, g, p):
    """Max pooling by argmax over reshaped windows, and its backward by
    scattering ``g`` to the argmax positions: the reference formulation."""
    bsz, t, f = x.shape
    t_out = t // p
    win = x[:, :t_out * p, :].reshape(bsz, t_out, p, f)
    idx = win.argmax(axis=2)
    out = np.take_along_axis(win, idx[:, :, None, :], axis=2)[:, :, 0, :]
    dwin = np.zeros((bsz, t_out, p, f))
    np.put_along_axis(dwin, idx[:, :, None, :], g[:, :, None, :], axis=2)
    dx = np.zeros((bsz, t, f))
    dx[:, :t_out * p, :] = dwin.reshape(bsz, -1, f)
    return out, dx


class TestFlatten:
    def test_row_major_flatten(self):
        out = Flatten().forward(np.array([[[1.0, 2, 3], [4, 5, 6]]]))
        np.testing.assert_array_equal(out, [[1, 2, 3, 4, 5, 6]])

    def test_round_trip(self, rng):
        lyr = Flatten()
        x = rng.normal(size=(1, 4, 3))
        y = lyr.forward(x)
        back = lyr.backward(y)
        np.testing.assert_array_equal(back, x)
        np.testing.assert_array_equal(lyr.backward(np.ones((1, 12))).shape,
                                      (1, 4, 3))

    def test_batch_keeps_leading_axis(self, rng):
        x = rng.normal(size=(5, 4, 3))
        assert Flatten().forward(x).shape == (5, 12)

    def test_gradients(self, rng):
        check_layer_gradients(Flatten(), rng.normal(size=(1, 4, 3)), rng)


class TestDropout:
    def test_inference_identity(self, rng):
        lyr = Dropout(0.5, rng=rng)
        x = rng.normal(size=(10, 4))
        np.testing.assert_array_equal(lyr.forward(x, training=False), x)

    def test_rate_zero_identity_both_modes(self, rng):
        lyr = Dropout(0.0, rng=rng)
        x = rng.normal(size=(10, 4))
        np.testing.assert_array_equal(lyr.forward(x, training=True), x)
        np.testing.assert_array_equal(lyr.forward(x, training=False), x)

    def test_empirical_zero_fraction(self):
        lyr = Dropout(0.5, rng=np.random.default_rng(42))
        x = np.ones(100_000)
        out = lyr.forward(x, training=True)
        frac = float(np.mean(out == 0.0))
        assert abs(frac - 0.5) < 0.01
        # survivors carry the inverted scale
        np.testing.assert_allclose(out[out != 0.0], 2.0)

    def test_backward_uses_persisted_mask(self, rng):
        lyr = Dropout(0.5, rng=np.random.default_rng(7))
        x = rng.normal(size=(20,))
        out = lyr.forward(x, training=True)
        grad = lyr.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad == 0.0, out == 0.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0, rng=np.random.default_rng(0))


class TestBatchOnly:
    @pytest.mark.parametrize("make", [
        lambda r: HyperDense(1, 1, AlgebraKind.QUATERNION, rng=r),
        lambda r: Conv1D(4, 1, rng=r),
        lambda r: LSTM(4, 2, rng=r),
        lambda r: MaxPool1D(2),
    ])
    def test_sequence_layers_reject_single_window(self, make, rng):
        lyr = make(rng)
        x = rng.normal(size=(1, 6, 4))
        lyr.forward(x)
        with pytest.raises(ShapeError, match="batch, time, features"):
            lyr.forward(x[0])

    @pytest.mark.parametrize("make", [
        lambda r: HyperDense(2, 1, AlgebraKind.QUATERNION, rng=r),
        lambda r: Conv1D(8, 1, rng=r),
        lambda r: LSTM(8, 2, rng=r),
    ], ids=["HyperDense", "Conv1D", "LSTM"])
    def test_rejects_bad_width(self, make, rng):
        lyr = make(rng)
        lyr.forward(np.zeros((1, 3, 8)))
        with pytest.raises(ShapeError, match="features=8"):
            lyr.forward(np.zeros((1, 3, 6)))


class TestRequiredRng:
    @pytest.mark.parametrize("make", [
        lambda: HyperDense(1, 1, AlgebraKind.QUATERNION),
        lambda: Dense(3, 2),
        lambda: Conv1D(2, 1),
        lambda: LSTM(2, 2),
        lambda: Dropout(0.5),
    ], ids=["HyperDense", "Dense", "Conv1D", "LSTM", "Dropout"])
    def test_layer_without_rng_rejected(self, make):
        with pytest.raises(TypeError, match="rng"):
            make()


class TestBackwardBeforeForward:
    @pytest.mark.parametrize("make", [
        lambda r: Dense(3, 2, rng=r),
        lambda r: HyperDense(1, 1, AlgebraKind.QUATERNION, rng=r),
        lambda r: Conv1D(2, 1, rng=r),
        lambda r: LSTM(2, 2, rng=r),
        lambda r: MaxPool1D(2),
        lambda r: Flatten(),
        lambda r: Dropout(0.5, rng=r),
    ])
    def test_raises(self, make, rng):
        with pytest.raises(RuntimeError):
            make(rng).backward(np.zeros(4))


class TestUpstreamGradientShape:
    @pytest.mark.parametrize("make", [
        lambda r: HyperDense(1, 2, AlgebraKind.QUATERNION, rng=r),
        lambda r: Dense(4, 3, rng=r),
        lambda r: Conv1D(4, 3, rng=r),
        lambda r: LSTM(4, 3, rng=r),
        lambda r: MaxPool1D(2),
        lambda r: Flatten(),
        lambda r: Dropout(0.5, rng=r),
    ], ids=["HyperDense", "Dense", "Conv1D", "LSTM", "MaxPool1D", "Flatten",
            "Dropout"])
    @pytest.mark.parametrize("training", [False, True])
    def test_rejects_wrong_shape(self, make, training, rng):
        lyr = make(rng)
        out = lyr.forward(rng.normal(size=(2, 6, 4)), training=training)
        lyr.backward(np.ones_like(out))
        bad = np.ones(out.shape[:-1] + (out.shape[-1] + 1,))
        with pytest.raises(ShapeError,
                           match=r"upstream gradient shape .* does not match"
                                 r" output shape"):
            lyr.backward(bad)


# name -> (layer from an rng, (time, features) of its input)
STACKABLE = {
    "HyperDense": (lambda r: HyperDense(2, 3, AlgebraKind.COQUATERNION,
                                        Activation.RELU, rng=r), (6, 8)),
    "HyperDense-1-unit": (lambda r: HyperDense(1, 1, AlgebraKind.CLIFFORD11,
                                               rng=r), (6, 4)),
    "Dense": (lambda r: Dense(4, 3, Activation.RELU, rng=r), (6, 4)),
    "Conv1D": (lambda r: Conv1D(4, 3, rng=r), (6, 4)),
    "LSTM": (lambda r: LSTM(4, 3, rng=r), (6, 4)),
    "MaxPool1D": (lambda r: MaxPool1D(2), (7, 4)),
    "Flatten": (lambda r: Flatten(), (6, 4)),
    "Dropout": (lambda r: Dropout(0.5, rng=r), (6, 4)),
}
MEMBER_SEEDS = (3, 4, 5)


def fresh(name):
    """One layer of class ``name`` per member seed, biases off zero."""
    make = STACKABLE[name][0]
    layers = [make(np.random.default_rng(seed)) for seed in MEMBER_SEEDS]
    for lyr, seed in zip(layers, MEMBER_SEEDS):
        for pname, p in zip(lyr.param_names(), lyr.params()):
            if pname == "b":
                p += np.random.default_rng(seed + 100).normal(size=p.shape)
    return layers


def member_input(name, rng):
    t, f = STACKABLE[name][1]
    return rng.normal(size=(len(MEMBER_SEEDS), 5, t, f))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


class TestStackedLayers:
    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("name", list(STACKABLE))
    def test_each_member_computes_its_own_bits(self, name, training, rng):
        stacked = stack(fresh(name))
        assert stacked.lead == (len(MEMBER_SEEDS),)
        x = member_input(name, rng)
        y = stacked.forward(x, training=training)
        g = rng.normal(size=y.shape)
        dx = stacked.backward(g)
        for i, lyr in enumerate(fresh(name)):
            assert same_bits(lyr.forward(x[i], training=training), y[i])
            assert same_bits(lyr.backward(g[i]), dx[i])
            for mine, stacked_grad in zip(lyr.grads(), stacked.grads()):
                assert same_bits(mine, stacked_grad[i])

    @pytest.mark.parametrize("name", list(STACKABLE))
    def test_gradients(self, name, rng):
        stacked = stack(fresh(name)[:2])
        check_layer_gradients(stacked, member_input(name, rng)[:2], rng)

    def test_one_member_dropout_draws_as_the_plain_layer(self, rng):
        x = rng.normal(size=(5, 6, 4))
        plain = Dropout(0.5, rng=np.random.default_rng(9))
        stacked = stack([Dropout(0.5, rng=np.random.default_rng(9))])
        assert stacked.lead == (1,)
        for _ in range(2):
            assert same_bits(stacked.forward(x[None], training=True)[0],
                             plain.forward(x, training=True))

    def test_rejects_input_without_the_member_axis(self, rng):
        stacked = stack(fresh("LSTM"))
        with pytest.raises(ShapeError, match=r"members=3, batch, time"):
            stacked.forward(rng.normal(size=(5, 6, 4)))
        with pytest.raises(ShapeError, match=r"members=3, batch, time"):
            stacked.forward(rng.normal(size=(2, 5, 6, 4)))
