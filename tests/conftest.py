"""Test-session settings.

BLAS and OpenMP pools are pinned to one thread unless the environment
already sets them: the suite's numerical work is many small solves, and a
pool per core oversubscribes the cores.  pytest loads this file before any
test module imports numpy, which reads these variables once, at import.
"""

import os

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def svd_ridge_solve():
    """Ridge least squares V (..., K, T) of H (..., N, K) V ~ Y through the
    SVD of H, gain s / (s² + ridge) per singular value: the reference the
    normal-equation solve in ``elm.solve_output_weights`` is checked
    against."""
    import numpy as np

    def solve(H, Y, ridge):
        U, s, Vt = np.linalg.svd(H, full_matrices=False)
        gain = s / (s * s + ridge)
        return (np.swapaxes(Vt, -1, -2)
                @ (gain[..., None] * (np.swapaxes(U, -1, -2) @ Y)))
    return solve


@pytest.fixture
def peak_bytes():
    """The peak of the memory ``tracemalloc`` traces (numpy's array data
    among it) while ``fn()`` runs."""
    import tracemalloc

    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
