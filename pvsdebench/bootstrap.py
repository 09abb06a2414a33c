"""Locate the checkout's ``src/`` tree and pin numeric thread pools.

The benchmark measures one single-threaded client: BLAS and OpenMP pools
are pinned to one thread so a two-core machine is not oversubscribed, and
the pinned values are recorded with every result.  The pins must be in the
environment before numpy is first imported.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "PVSDE_THREADS")


def pinned_env(base=None) -> dict:
    """A copy of ``base`` (default: this process) with every pool at 1."""
    env = dict(os.environ if base is None else base)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def sources_present() -> bool:
    return (SRC / "pvsde" / "__init__.py").is_file()


def enter() -> bool:
    """Pin threads and put ``src/`` first on ``sys.path``.

    Call from a script entry point before anything imports numpy.  Returns
    False when the checkout has no ``src/pvsde`` package to measure.
    """
    if not sources_present():
        return False
    os.environ.update(pinned_env())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True
