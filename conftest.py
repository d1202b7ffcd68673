"""Pins the suite to one BLAS thread, as perfbench's ``BLAS_ENV`` does.

OpenBLAS reads these variables once, when numpy first loads it, and a
forward pass's products may round differently at another thread count (see
the README's determinism contract). So this file sits at the repo root, where
pytest loads it before it collects any test module that imports numpy.
Subprocesses the tests start inherit the setting.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy loaded before conftest.py could pin the BLAS thread count"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
