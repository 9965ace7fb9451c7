"""Test setup: BLAS and OpenMP run on one thread, as ``fupbench/run.py`` pins them.

Several acceptance criteria assert a wall-time budget.  A default OpenBLAS
pool on a busy machine holds more threads than there are free cores, and
threads that spin while they wait can stall a budgeted call far beyond its
work.  These variables are read when numpy loads, and pytest imports this file
before any test module; a value already set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_name, "1")
