"""Kernel backend selection.

The state-vector RK4 loops in ``_kernels`` are compiled with numba when it is
importable. Setting the environment variable ``NLQCORR_DISABLE_NUMBA`` to
``1``/``true``/``yes`` before import forces the identical pure-numpy code
paths to run uncompiled. Spectral work always goes through LAPACK.
"""

import os

DISABLE_ENV = "NLQCORR_DISABLE_NUMBA"


def _numba_wanted() -> bool:
    return os.environ.get(DISABLE_ENV, "0").strip().lower() not in ("1", "true", "yes")


USING_NUMBA = False
_njit = None
if _numba_wanted():
    try:
        from numba import njit as _njit

        USING_NUMBA = True
    except ImportError:
        pass


def jit(func):
    """Compile ``func`` with numba when enabled, otherwise return it unchanged."""
    if USING_NUMBA:
        return _njit(cache=True)(func)
    return func


def backend_name() -> str:
    return "numba" if USING_NUMBA else "numpy"
