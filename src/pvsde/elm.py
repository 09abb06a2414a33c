"""Single-hidden-layer extreme learning machines, trained as a stack.

The hidden layer applies a random frozen affine map followed by a sigmoid;
only the linear output weights are trained, by ridge-damped least squares:
one linear solve of the ridge normal equations on the smaller of the two
Gram matrices per network.  Features are standardized (``fit_scaler``)
before the random projection so standard-normal weights do not saturate
the sigmoids on raw physical units.

``elm_train`` is the one trainer: M networks share their standardized
inputs (an ensemble's members), ``hidden_layer`` fills one buffer with
every network's activations, and ``solve_output_weights`` solves each
network on its own rows in one broadcast call.  A target matrix trains one
output column per target on one hidden layer (the multi-output ELM).
"""

from __future__ import annotations

import numpy as np


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


def solve_output_weights(H, Y, ridge: float):
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


def elm_train(Z, W, b, Y, rows, ridge: float):
    """Train a stack of M networks on shared standardized inputs Z (N, p).

    W (M, K, p) and b (M, K) are the frozen hidden layers, Y (N, T) the
    targets and ``rows`` (M, n) the input rows each network is solved on
    (a bootstrap resample, or every row).  Returns every network's hidden
    layer on all N inputs, H (M, N, K), and the output weights V (M, K, T)
    of the ridge problem on each network's rows, so H @ V predicts the N
    inputs."""
    H = hidden_layer(Z, W, b)
    V = solve_output_weights(H[np.arange(len(rows))[:, None], rows],
                             Y[rows], ridge)
    return H, V
