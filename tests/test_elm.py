"""Tests for the random-hidden-layer regressor."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvsde.elm import (TrainSet, elm_init, elm_predict, elm_train, fit_scaler,
                       hidden_layer, solve_output_weights, training_residual)


def _toy_problem(n=60, p=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] - 0.2 * X[:, 2] * X[:, 3]
    return TrainSet(inputs=X, targets=y)


class TestInit:
    def test_frozen_layer_shapes(self):
        mdl = elm_init(4, 25, np.random.default_rng(0))
        assert mdl.input_weights.shape == (25, 4)
        assert mdl.biases.shape == (25,)
        np.testing.assert_array_equal(mdl.output_weights, 0.0)

    def test_hidden_layer_is_standard_normal(self):
        mdl = elm_init(50, 400, np.random.default_rng(1))
        w = np.concatenate([mdl.input_weights.ravel(), mdl.biases])
        assert abs(w.mean()) < 0.02
        assert w.std() == pytest.approx(1.0, abs=0.02)

    def test_same_seed_same_layer(self):
        a = elm_init(4, 25, np.random.default_rng(3))
        b = elm_init(4, 25, np.random.default_rng(3))
        np.testing.assert_array_equal(a.input_weights, b.input_weights)
        np.testing.assert_array_equal(a.biases, b.biases)


class TestTraining:
    def test_interpolates_when_hidden_matches_samples(self):
        # N training points and K >= N hidden units with ridge disabled:
        # the least-squares solution reproduces the targets exactly
        data = _toy_problem(n=50)
        mdl = elm_init(4, 100, np.random.default_rng(5))
        mdl = elm_train(mdl, data, ridge=0.0)
        got = elm_predict(mdl, data.inputs)
        assert np.max(np.abs(got - data.targets)) <= 1e-6
        # the same holds member by member for a stack of 6 networks with
        # 5 targets each on shared inputs, solved in one call
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(50, 4))
        Y = rng.normal(size=(6, 50, 5))
        H = hidden_layer(Z, rng.normal(size=(6, 100, 4)),
                         rng.normal(size=(6, 100)))
        V = solve_output_weights(H, Y, ridge=0.0)
        assert V.shape == (6, 100, 5)
        assert np.max(np.abs(H @ V - Y)) <= 1e-6

    @pytest.mark.parametrize("ridge", [2.0, 1e-8])
    @pytest.mark.parametrize("n,k", [(20, 40), (40, 40), (60, 20)])
    def test_matches_svd_reference(self, svd_ridge_solve, n, k, ridge):
        # dual form below and at N = K, primal above, on 6 members' own
        # bootstrap resamples (repeated rows) of n days with 9 features
        rng = np.random.default_rng(n + k)
        H = hidden_layer(rng.normal(size=(n, 9)), rng.normal(size=(6, k, 9)),
                         rng.normal(size=(6, k)))
        idx = rng.integers(0, n, size=(6, n))
        Hb = np.take_along_axis(H, idx[..., None], 1)
        Y = rng.normal(size=(n, 5))[idx]
        want = svd_ridge_solve(Hb, Y, ridge)
        np.testing.assert_allclose(solve_output_weights(Hb, Y, ridge), want,
                                   rtol=1e-9, atol=1e-9 * np.abs(want).max())

    def test_singular_gram_at_zero_ridge_names_ridge(self):
        # a repeated row makes the 20 x 20 dual Gram singular
        rng = np.random.default_rng(15)
        H = hidden_layer(rng.normal(size=(20, 3)), rng.normal(size=(40, 3)),
                         rng.normal(size=40))
        H[7] = H[3]
        with pytest.raises(ValueError, match="ridge"):
            solve_output_weights(H, rng.normal(size=(20, 5)), ridge=0.0)
        assert np.isfinite(solve_output_weights(H, np.ones((20, 5)),
                                                ridge=1e-8)).all()

    def test_single_hidden_unit_closed_form(self):
        # K = 1: prediction is w * sigmoid(g(x)); the optimal w has the
        # explicit least-squares form <h, y> / <h, h>
        data = _toy_problem(n=30)
        mdl = elm_init(4, 1, np.random.default_rng(6))
        mdl = elm_train(mdl, data, ridge=0.0)
        mean, std = fit_scaler(data.inputs)
        Z = (data.inputs - mean) / std
        h = 1.0 / (1.0 + np.exp(-(Z @ mdl.input_weights.T + mdl.biases)))
        h = h[:, 0]
        w_expected = float(h @ data.targets / (h @ h))
        assert mdl.output_weights[0] == pytest.approx(w_expected, rel=1e-10)

    def test_prediction_matches_naive_evaluation(self):
        data = _toy_problem()
        mdl = elm_train(elm_init(4, 40, np.random.default_rng(7)), data)
        x = np.array([0.3, -1.2, 0.8, 0.1])
        z = (x - mdl.scaler_mean) / mdl.scaler_std
        h = 1.0 / (1.0 + np.exp(-(mdl.input_weights @ z + mdl.biases)))
        assert elm_predict(mdl, x) == pytest.approx(
            float(h @ mdl.output_weights), rel=1e-12)

    def test_fits_constant_target(self):
        X = np.random.default_rng(8).normal(size=(40, 3))
        data = TrainSet(inputs=X, targets=np.full(40, 2.5))
        mdl = elm_train(elm_init(3, 30, np.random.default_rng(9)), data)
        got = elm_predict(mdl, X)
        np.testing.assert_allclose(got, 2.5, atol=0.02)

    def test_training_residual_decreases_with_width(self):
        data = _toy_problem(n=80)
        res = []
        for k in (2, 10, 60):
            mdl = elm_train(elm_init(4, k, np.random.default_rng(10)), data)
            res.append(training_residual(mdl, data))
        assert res[0] > res[1] > res[2]

    def test_ridge_shrinks_weights(self):
        data = _toy_problem(n=50)
        free = elm_train(elm_init(4, 80, np.random.default_rng(11)), data,
                         ridge=0.0)
        reg = elm_train(elm_init(4, 80, np.random.default_rng(11)), data,
                        ridge=10.0)
        assert (np.linalg.norm(reg.output_weights)
                < np.linalg.norm(free.output_weights))

    def test_constant_feature_does_not_blow_up(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 3))
        X[:, 1] = 7.0  # zero-variance column
        data = TrainSet(inputs=X, targets=X[:, 0])
        mdl = elm_train(elm_init(3, 20, np.random.default_rng(13)), data)
        assert np.isfinite(elm_predict(mdl, X)).all()

    def test_scalar_vs_batch_prediction(self):
        data = _toy_problem()
        mdl = elm_train(elm_init(4, 20, np.random.default_rng(14)), data)
        batch = elm_predict(mdl, data.inputs[:3])
        singles = [elm_predict(mdl, x) for x in data.inputs[:3]]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)



@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 30), p=st.integers(1, 12),
       m=st.one_of(st.none(), st.integers(1, 12)), k=st.integers(1, 40),
       scale=st.sampled_from([1.0, 300.0]), seed=st.integers(0, 2 ** 32 - 1))
@example(n=23, p=9, m=200, k=100, scale=1.0, seed=0)
def test_hidden_layer_is_the_sigmoid_formula_bit_for_bit(n, p, m, k, scale,
                                                         seed):
    # the in-place layer against the out-of-place formula, for one network
    # (2-D W) and stacks (3-D W); scale 300 drives inputs past the clip
    rng = np.random.default_rng(seed)
    stack = () if m is None else (m,)
    Z = scale * rng.normal(size=(n, p))
    W, b = rng.normal(size=stack + (k, p)), rng.normal(size=stack + (k,))
    want = 1.0 / (1.0 + np.exp(-np.clip(
        Z @ np.swapaxes(W, -1, -2) + b[..., None, :], -500.0, 500.0)))
    got = hidden_layer(Z, W, b)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
