"""Backend report.

Every kernel is plain numpy; spectral work goes through LAPACK. The names
below stay for callers that record which backend produced a result.
"""

USING_NUMBA = False


def backend_name() -> str:
    return "numpy"
