"""Single-hidden-layer extreme learning machine.

The hidden layer applies a random frozen affine map followed by a sigmoid;
only the linear output weights are trained, by (optionally ridge-damped)
least squares: one linear solve of the ridge normal equations on the
smaller of the two Gram matrices per network.  Features are
standardized before the random projection so standard-normal weights do
not saturate the sigmoids on raw physical units.

``hidden_layer`` fills one buffer for a stack of networks sharing their
inputs (an ensemble's members) and ``solve_output_weights`` broadcasts
over leading axes, so the stack trains in one call; a target matrix trains
one output column per target on one hidden layer (the multi-output ELM).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

DEFAULT_RIDGE = 1e-8


@dataclass(frozen=True)
class TrainSet:
    """Paired regression inputs (N x input_dim) and targets, (N) or (N x T)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        y = np.asarray(self.targets, dtype=float)
        if y.ndim != 2:
            y = y.ravel()
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "targets", y)
        if X.shape[0] != y.shape[0] or y.shape[0] < 1:
            raise ValueError("inputs and targets must pair up, N >= 1")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("training data must be finite")

    @property
    def n(self) -> int:
        return self.targets.shape[0]


@dataclass(frozen=True)
class ElmModel:
    """Random-projection regressor; only output_weights change in training."""

    input_weights: np.ndarray       # (K, input_dim), frozen at init
    biases: np.ndarray              # (K,), frozen at init
    output_weights: np.ndarray      # (K,) or (K, T), zero until trained
    scaler_mean: np.ndarray         # (input_dim,)
    scaler_std: np.ndarray          # (input_dim,), zero-variance -> 1

    @property
    def hidden_size(self) -> int:
        return self.biases.size

    @property
    def input_dim(self) -> int:
        return self.input_weights.shape[1]


def elm_init(input_dim: int, hidden_size: int, rng) -> ElmModel:
    """Draw the frozen random hidden layer from the given stream."""
    if hidden_size < 1 or input_dim < 1:
        raise ValueError("hidden_size and input_dim must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    W = rng.standard_normal((hidden_size, input_dim))
    b = rng.standard_normal(hidden_size)
    return ElmModel(input_weights=W, biases=b,
                    output_weights=np.zeros(hidden_size),
                    scaler_mean=np.zeros(input_dim),
                    scaler_std=np.ones(input_dim))


def fit_scaler(X):
    """Per-feature standardization constants; constant features get std 1."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return mean, std


def hidden_layer(Z, W, b):
    """Sigmoid activations (..., N, K) of the standardized inputs Z (N, p)
    that the stack shares, under frozen weights W (..., K, p) and biases
    b (..., K): the product Z Wᵀ, a BLAS call per network, plus b, then
    1 / (1 + exp(-clip(z, ±500))) in place."""
    A = Z @ np.swapaxes(W, -1, -2)
    A += b[..., None, :]
    np.clip(A, -500.0, 500.0, out=A)
    np.exp(np.negative(A, out=A), out=A)
    A += 1.0
    return np.reciprocal(A, out=A)


def solve_output_weights(H, Y, ridge: float = DEFAULT_RIDGE):
    """Ridge least-squares output weights V (..., K, T) with H V ~ Y, for
    hidden activations H (..., N, K) and targets Y (..., N, T).

    Solves the normal equations on the smaller Gram matrix (Huang et al.
    2012, IEEE Trans. SMC-B 42:513): the dual form Hᵀ (H Hᵀ + ridge I)⁻¹ Y
    when N <= K, else the primal form (Hᵀ H + ridge I)⁻¹ Hᵀ Y.  At N = K
    the dual is the accurate one on a bootstrap resample: Hᵀ annihilates
    the null directions of repeated rows exactly, which the primal Gram
    only damps by the ridge.  With ridge = 0 a Gram singular to working
    precision (condition number >= 1/eps), such as the dual Gram of
    repeated rows, raises ``ValueError``.
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    Ht = np.swapaxes(H, -1, -2)
    dual = H.shape[-2] <= H.shape[-1]
    G = H @ Ht if dual else Ht @ H
    G += ridge * np.eye(G.shape[-1])
    if ridge == 0 and (np.linalg.cond(G) >= 1 / np.finfo(float).eps).any():
        raise ValueError("ridge = 0 leaves the Gram matrix singular to "
                         "working precision; use ridge > 0")
    return (Ht @ np.linalg.solve(G, Y) if dual
            else np.linalg.solve(G, Ht @ Y))


def _hidden(model: ElmModel, X):
    Z = (np.atleast_2d(X) - model.scaler_mean) / model.scaler_std
    return hidden_layer(Z, model.input_weights, model.biases)


def elm_train(model: ElmModel, data: TrainSet,
              ridge: float = DEFAULT_RIDGE) -> ElmModel:
    """Fit the standardization to ``data`` and solve the output weights by
    ``solve_output_weights`` on the hidden layer."""
    if data.inputs.shape[1] != model.input_dim:
        raise ValueError("input dimension mismatch")
    mean, std = fit_scaler(data.inputs)
    model = replace(model, scaler_mean=mean, scaler_std=std)
    V = solve_output_weights(_hidden(model, data.inputs),
                             data.targets.reshape(data.n, -1), ridge)
    return replace(model, output_weights=V.reshape(
        (model.hidden_size,) + data.targets.shape[1:]))


def elm_predict(model: ElmModel, x):
    """Evaluate the trained network on one input vector (or a batch)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if np.atleast_2d(x).shape[1] != model.input_dim:
        raise ValueError("input dimension mismatch")
    out = _hidden(model, x) @ model.output_weights
    return out[0] if single else out


def training_residual(model: ElmModel, data: TrainSet) -> float:
    """Max absolute training error of a trained model."""
    return float(np.max(np.abs(elm_predict(model, data.inputs)
                               - data.targets)))
