"""Tests for the random-hidden-layer regressor."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvsde.elm import elm_train, fit_scaler, hidden_layer


def _toy_problem(n=60, p=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] - 0.2 * X[:, 2] * X[:, 3]
    return X, y


def _train_one(X, y, k, seed, ridge):
    """One network of k hidden units, drawn from ``default_rng(seed)``
    (weights, then biases), trained on every row of the standardized X:
    its standardized inputs, hidden layer (N, k) and output weights (k,)."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((1, k, X.shape[1]))
    b = rng.standard_normal((1, k))
    mean, std = fit_scaler(X)
    Z = (X - mean) / std
    H, V = elm_train(Z, W, b, y[:, None], np.arange(len(y))[None], ridge)
    return Z, W, b, H[0], V[0, :, 0]


class TestTraining:
    def test_interpolates_when_hidden_matches_samples(self):
        # N training points and K >= N hidden units with ridge disabled:
        # the least-squares solution reproduces the targets exactly
        X, y = _toy_problem(n=50)
        _, _, _, H, v = _train_one(X, y, 100, 5, ridge=0.0)
        assert np.max(np.abs(H @ v - y)) <= 1e-6
        # the same holds member by member for a stack of 6 networks with
        # 5 targets, each solved on its own ordering of the 50 rows
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(50, 4))
        Y = rng.normal(size=(50, 5))
        rows = np.stack([rng.permutation(50) for _ in range(6)])
        H, V = elm_train(Z, rng.normal(size=(6, 100, 4)),
                         rng.normal(size=(6, 100)), Y, rows, ridge=0.0)
        assert H.shape == (6, 50, 100) and V.shape == (6, 100, 5)
        assert np.max(np.abs(H @ V - Y)) <= 1e-6

    @pytest.mark.parametrize("ridge", [2.0, 1e-8])
    @pytest.mark.parametrize("n,k", [(20, 40), (40, 40), (60, 20)])
    def test_matches_svd_reference(self, svd_ridge_solve, n, k, ridge):
        # dual form below and at N = K, primal above, on 6 members' own
        # bootstrap resamples (repeated rows) of n days with 9 features
        rng = np.random.default_rng(n + k)
        Z = rng.normal(size=(n, 9))
        W, b = rng.normal(size=(6, k, 9)), rng.normal(size=(6, k))
        idx = rng.integers(0, n, size=(6, n))
        Y = rng.normal(size=(n, 5))
        H, V = elm_train(Z, W, b, Y, idx, ridge)
        np.testing.assert_array_equal(H, hidden_layer(Z, W, b))
        want = svd_ridge_solve(np.take_along_axis(H, idx[..., None], 1),
                               Y[idx], ridge)
        np.testing.assert_allclose(V, want, rtol=1e-9,
                                   atol=1e-9 * np.abs(want).max())

    def test_singular_gram_at_zero_ridge_names_ridge(self):
        # a repeated row makes the 20 x 20 dual Gram singular
        rng = np.random.default_rng(15)
        Z = rng.normal(size=(20, 3))
        W, b = rng.normal(size=(1, 40, 3)), rng.normal(size=(1, 40))
        rows = np.arange(20)[None]
        rows[0, 7] = 3
        with pytest.raises(ValueError, match="ridge"):
            elm_train(Z, W, b, rng.normal(size=(20, 5)), rows, ridge=0.0)
        _, V = elm_train(Z, W, b, np.ones((20, 5)), rows, ridge=1e-8)
        assert np.isfinite(V).all()

    def test_single_hidden_unit_closed_form(self):
        # K = 1: prediction is w * sigmoid(g(x)); the optimal w has the
        # explicit least-squares form <h, y> / <h, h>
        X, y = _toy_problem(n=30)
        Z, W, b, _, v = _train_one(X, y, 1, 6, ridge=0.0)
        h = 1.0 / (1.0 + np.exp(-(Z @ W[0].T + b[0])))
        h = h[:, 0]
        w_expected = float(h @ y / (h @ h))
        assert v[0] == pytest.approx(w_expected, rel=1e-10)

    def test_fits_constant_target(self):
        X = np.random.default_rng(8).normal(size=(40, 3))
        _, _, _, H, v = _train_one(X, np.full(40, 2.5), 30, 9, ridge=1e-8)
        np.testing.assert_allclose(H @ v, 2.5, atol=0.02)

    def test_training_residual_decreases_with_width(self):
        X, y = _toy_problem(n=80)
        res = []
        for k in (2, 10, 60):
            _, _, _, H, v = _train_one(X, y, k, 10, ridge=1e-8)
            res.append(np.max(np.abs(H @ v - y)))
        assert res[0] > res[1] > res[2]

    def test_ridge_shrinks_weights(self):
        X, y = _toy_problem(n=50)
        free = _train_one(X, y, 80, 11, ridge=0.0)[-1]
        reg = _train_one(X, y, 80, 11, ridge=10.0)[-1]
        assert np.linalg.norm(reg) < np.linalg.norm(free)

    def test_constant_feature_does_not_blow_up(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 3))
        X[:, 1] = 7.0  # zero-variance column
        _, _, _, H, v = _train_one(X, X[:, 0], 20, 13, ridge=1e-8)
        assert np.isfinite(H @ v).all()


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
