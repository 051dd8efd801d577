"""Loss/metric functions, Adam updates, and the training loop."""

import dataclasses

import numpy as np
import pytest

from conftest import max_rel_err, numeric_grad
from hyperts.model import Model, ModelSpec, build
from hyperts.nn import ShapeError
from hyperts.train import Adam, TrainConfig, evaluate, fit, mae, mse, mse_grad


class TestLosses:
    def test_mse_zero_when_equal(self, rng):
        x = rng.normal(size=(4, 3))
        assert mse(x, x) == 0.0

    def test_mse_hand_value(self):
        assert mse(np.zeros(2), np.array([1.0, 3.0])) == pytest.approx(5.0)

    def test_mse_grad_matches_finite_differences(self, rng):
        pred = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))
        analytic = mse_grad(pred, target)
        numeric = numeric_grad(lambda: mse(pred, target), pred)
        assert max_rel_err(analytic, numeric) < 1e-6

    def test_mae_zero_when_equal(self, rng):
        x = rng.normal(size=10)
        assert mae(x, x) == 0.0

    def test_mae_hand_value(self):
        assert mae(np.zeros(2), np.array([1.0, 3.0])) == pytest.approx(2.0)

    def test_mae_at_most_rms(self, rng):
        for _ in range(50):
            pred, target = rng.normal(size=(2, 20))
            assert mae(pred, target) <= np.sqrt(mse(pred, target)) + 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mse(np.zeros(2), np.zeros(3))
        with pytest.raises(ShapeError):
            mae(np.zeros(2), np.zeros(3))


class TestAdam:
    def test_zero_gradient_no_update(self):
        p = np.array([1.0, -2.0])
        opt = Adam([p])
        opt.step([np.zeros(2)])
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_first_step_is_minus_lr(self):
        # bias corrections cancel at t=1: update = -lr * g/(|g| + eps')
        p = np.array([0.0])
        opt = Adam([p], lr=1e-3)
        opt.step([np.array([1.0])])
        assert p[0] == pytest.approx(-1e-3, rel=1e-4)

    def test_constant_gradient_update_approaches_lr_sign(self):
        p = np.array([0.0])
        opt = Adam([p], lr=1e-3)
        g = np.array([0.5])
        prev = p.copy()
        for _ in range(5000):
            prev = p.copy()
            opt.step([g])
        assert (prev - p)[0] == pytest.approx(1e-3, rel=1e-3)

    def test_lr_zero_leaves_params(self, rng):
        p = rng.normal(size=5)
        ref = p.copy()
        opt = Adam([p], lr=0.0)
        for _ in range(10):
            opt.step([rng.normal(size=5)])
        np.testing.assert_array_equal(p, ref)

    def test_shape_mismatch_rejected(self):
        opt = Adam([np.zeros(3)])
        with pytest.raises(ShapeError):
            opt.step([np.zeros(4)])


def tiny_spec(seed=0, kind="cnn", size=2):
    return ModelSpec(kind=kind, size=size, algebra=None, n_dense1=0,
                     n_dense2=0, dense_units=8, dense_activation="linear",
                     window=6, span=1, seed=seed)


def linear_problem(rng, n=64):
    x = rng.normal(size=(n, 6, 4))
    y = 2.0 * x[:, -1, :1]  # predict twice the last value of channel 0
    return x, y


class DenseOnly:
    """Minimal trainable stack (one Dense layer) for convergence checks;
    exposes the same forward/backward/params/grads surface fit() uses."""

    def __init__(self, seed=0, in_features=1, units=1):
        from hyperts.nn import Dense

        self.layer = Dense(in_features, units,
                           rng=np.random.default_rng(seed))
        self.layers = [self.layer]  # fit reads the member axis off layer 0

    def forward(self, x, training=False):
        return self.layer.forward(x, training=training)

    def backward(self, grad_out):
        return self.layer.backward(grad_out)

    def params(self):
        return self.layer.params()

    def grads(self):
        return self.layer.grads()


class TestFit:
    def test_history_length_and_epochs_validation(self, rng):
        x, y = linear_problem(rng)
        model = build(tiny_spec())
        history = fit(model, x, y, TrainConfig(epochs=5, seed=1))
        assert len(history) == 5
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="lr must be finite and > 0"):
            TrainConfig(lr=lr)

    def test_learns_linear_target(self, rng):
        # y = 2x on a Dense-only model
        x = rng.normal(size=(64, 1))
        y = 2.0 * x
        model = DenseOnly(seed=3)
        history = fit(model, x, y, TrainConfig(epochs=500, seed=1, lr=1e-2))
        assert history[-1][0] < 1e-3

    def test_empty_slice_rejected(self, rng):
        model = build(tiny_spec())
        with pytest.raises(ValueError):
            fit(model, np.zeros((0, 6, 4)), np.zeros((0, 1)))

    def test_same_seed_identical_histories_and_weights(self, rng):
        x, y = linear_problem(rng)
        runs = []
        for _ in range(2):
            model = build(tiny_spec(seed=11))
            hist = fit(model, x, y, TrainConfig(epochs=8, seed=4))
            runs.append((hist, [p.copy() for p in model.params()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b)

    def test_smoothed_loss_mostly_decreases(self, rng):
        x = rng.normal(size=(128, 3))
        y = x @ np.array([[1.5], [-0.5], [0.25]]) + 0.3
        model = DenseOnly(seed=5, in_features=3)
        history = fit(model, x, y, TrainConfig(epochs=60, seed=2, lr=1e-2))
        losses = np.array([h[0] for h in history])
        smooth = np.convolve(losses, np.ones(5) / 5, mode="valid")
        frac = np.mean(np.diff(smooth) < 0)
        assert frac >= 0.9

    def test_matches_a_loop_over_the_public_metrics_bit_for_bit(self, rng):
        # fit derives loss, MAE and gradient from one error per step; they
        # must be the very floats of mse, mae and mse_grad
        x, y = linear_problem(rng, n=45)
        config = TrainConfig(epochs=3, batch_size=8, seed=5, lr=1e-2)
        model = build(tiny_spec(seed=9, size=3))
        history = fit(model, x, y, config)

        ref = build(tiny_spec(seed=9, size=3))
        order_rng = np.random.default_rng(config.seed)
        opt = Adam(ref.params(), lr=config.lr)
        want = []
        for _ in range(config.epochs):
            order = order_rng.permutation(len(x))
            loss_sum = mae_sum = 0.0
            for start in range(0, len(x), config.batch_size):
                idx = order[start:start + config.batch_size]
                pred = ref.forward(x[idx], training=True)
                loss_sum += mse(pred, y[idx]) * len(idx)
                mae_sum += mae(pred, y[idx]) * len(idx)
                ref.backward(mse_grad(pred, y[idx]))
                opt.step(ref.grads())
            want.append((loss_sum / len(x), mae_sum / len(x)))
        assert history == want
        np.testing.assert_array_equal(model.params()[0], ref.params()[0])

    def test_target_shape_mismatch_named_as_mse(self, rng):
        x, y = linear_problem(rng)
        with pytest.raises(ShapeError, match=r"^mse: shapes differ"):
            fit(build(tiny_spec()), x, np.zeros((len(x), 2)))

    def test_updates_params_in_place(self, rng):
        x, y = linear_problem(rng)
        model = build(tiny_spec(seed=7))
        refs = model.params()
        fit(model, x, y, TrainConfig(epochs=2, seed=0))
        assert all(r is p for r, p in zip(refs, model.params()))


class TestStackedFit:
    @pytest.mark.parametrize("kind", ["cnn", "lstm"])
    def test_each_member_trains_as_if_alone(self, kind, rng):
        # members train on their own 45 of 60 shared rows, at batch 8: five
        # full steps and a last one of five
        x = rng.normal(size=(60, 6, 4))
        y = 2.0 * x[:, -1, :1] + rng.normal(scale=0.1, size=(60, 1))
        index = np.stack([np.sort(rng.permutation(60)[:45])
                          for _ in range(3)])
        config = TrainConfig(epochs=3, batch_size=8, seed=(5, 6, 7), lr=1e-2)
        members = [build(tiny_spec(seed=s, kind=kind, size=3))
                   for s in (9, 10, 11)]
        histories = fit(Model.stack(members), x, y, config, index)
        assert len(histories) == 3
        for i, (member, seed) in enumerate(zip(members, config.seed)):
            alone = build(tiny_spec(seed=9 + i, kind=kind, size=3))
            history = fit(alone, x[index[i]], y[index[i]],
                          dataclasses.replace(config, seed=seed))
            assert histories[i] == history
            np.testing.assert_array_equal(member.params()[0],
                                          alone.params()[0])

    def test_index_matches_fitting_the_copied_rows(self, rng):
        x, y = linear_problem(rng)
        rows = np.sort(rng.permutation(len(x))[:50])
        config = TrainConfig(epochs=3, batch_size=8, seed=4, lr=1e-2)
        by_index, by_copy = build(tiny_spec(seed=2)), build(tiny_spec(seed=2))
        assert (fit(by_index, x, y, config, rows)
                == fit(by_copy, x[rows], y[rows], config))
        np.testing.assert_array_equal(by_index.params()[0],
                                      by_copy.params()[0])

    @pytest.mark.parametrize("seed", [5, (5, 6), (5, 6, 7, 8)])
    def test_seed_count_must_match_members(self, seed, rng):
        stacked = Model.stack([build(tiny_spec(seed=s)) for s in (1, 2, 3)])
        x, y = linear_problem(rng)
        with pytest.raises(ValueError, match=r"member shape \(3,\) needs"):
            fit(stacked, x, y, TrainConfig(epochs=1, seed=seed))

    @pytest.mark.parametrize("seed", [(1, 2), (1,)])
    def test_plain_model_rejects_a_tuple_seed(self, seed, rng):
        x, y = linear_problem(rng)
        with pytest.raises(ValueError, match=r"member shape \(\) needs"):
            fit(build(tiny_spec(seed=1)), x, y, TrainConfig(epochs=1,
                                                            seed=seed))

    def test_index_needs_one_row_per_member(self, rng):
        stacked = Model.stack([build(tiny_spec(seed=s)) for s in (1, 2)])
        x, y = linear_problem(rng)
        index = np.zeros((3, 10), dtype=int)
        with pytest.raises(ShapeError, match=r"index of shape \(3, 10\)"):
            fit(stacked, x, y, TrainConfig(epochs=1, seed=(1, 2)), index)

    @pytest.mark.parametrize("index", [np.arange(10), None])
    def test_stack_rejects_a_1d_index(self, index, rng):
        # a 1-D index (the default, all rows, is one) is not broadcast to
        # the members
        stacked = Model.stack([build(tiny_spec(seed=s)) for s in (1, 2)])
        x, y = linear_problem(rng)
        with pytest.raises(ShapeError, match=r"index of shape \(\d+,\)"):
            fit(stacked, x, y, TrainConfig(epochs=1, seed=(1, 2)), index)

    @pytest.mark.parametrize("shape", [(), (1, 10)])
    def test_plain_model_needs_a_1d_index(self, shape, rng):
        x, y = linear_problem(rng)
        index = np.zeros(shape, dtype=int)
        with pytest.raises(ShapeError, match=r"member shape \(\)"):
            fit(build(tiny_spec(seed=1)), x, y, TrainConfig(epochs=1), index)


class TestEvaluate:
    def test_exact_predictor_scores_zero(self, rng):
        model = build(tiny_spec(seed=1))
        x = rng.normal(size=(10, 6, 4))
        y = model.forward(x)
        assert evaluate(model, x, y) == 0.0

    def test_constant_zero_model_scores_mean_abs(self, rng):
        model = build(tiny_spec(seed=1))
        model.layers[-1].w[...] = 0.0
        model.layers[-1].b[...] = 0.0
        x, y = linear_problem(rng)
        assert evaluate(model, x, y) == pytest.approx(np.mean(np.abs(y)))

    def test_deterministic(self, rng):
        model = build(tiny_spec(seed=2))
        x, y = linear_problem(rng)
        assert evaluate(model, x, y) == evaluate(model, x, y)

    def test_empty_slice_rejected(self, rng):
        model = build(tiny_spec())
        with pytest.raises(ValueError):
            evaluate(model, np.zeros((0, 6, 4)), np.zeros((0, 1)))
