"""Test-session settings.

BLAS and OpenMP pools are pinned to one thread unless the environment
already sets them: the suite's numerical work is many small solves, and a
pool per core oversubscribes the cores.  pytest loads this file before any
test module imports numpy, which reads these variables once, at import.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
