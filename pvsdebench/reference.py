"""A fixed reference loop that times the host, not the program.

The benchmark's host changes speed by up to 2x within seconds (see
README.md, noise section).  Timing this loop next to each pass and each
set-up tells how fast the host was at that moment, so the end-to-end
times can be scaled to a host where the loop takes ``NOMINAL_S``.  The
loop touches no ``pvsde`` code, so a change to the program cannot move
it: it mixes what the program's time is made of -- interpreted Python,
small BLAS products and numpy vector passes.
"""

from __future__ import annotations

import time

import numpy as np

# about the median of seconds() on a shared 2-vCPU x86-64 host (Python
# 3.11, numpy 2.4, OpenBLAS, one thread), where it ranged from about
# 0.017 to 0.026 s; the scaled figures are those of a host this fast
NOMINAL_S = 0.020

_RNG = np.random.default_rng(20211127)
_A = _RNG.standard_normal((100, 100))
_V = _RNG.standard_normal(5000)


def seconds() -> float:
    """Wall time of one fixed round of the reference loop."""
    t0 = time.perf_counter()
    for _ in range(100):
        _A @ _A
        np.sort(np.cumsum(_V))
        s = 0.0
        for x in range(2000):
            s += x * 0.5
    return time.perf_counter() - t0


def scaled(wall: float, ref: float) -> float:
    """``wall`` seconds measured while the loop took ``ref`` seconds, as
    seconds on the nominal host."""
    return wall * NOMINAL_S / ref
