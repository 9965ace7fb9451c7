"""Test setup: BLAS and OpenMP run on one thread, as ``fupbench/run.py`` pins them.

Several acceptance criteria assert a time budget.  A default OpenBLAS
pool on a busy machine holds more threads than there are free cores, and
threads that spin while they wait can stall a budgeted call far beyond its
work.  These variables are read when numpy loads, and pytest imports this file
before any test module.  A value already set in the environment is
overridden, as ``run.py`` overrides it: with two preset OpenBLAS threads beside
busy processes, the ~1,700 small ``expm`` calls of acceptance criterion 2
waited on a BLAS worker past their thread-time budget.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_name] = "1"
