import numpy as np
import pytest

from nlqcorr import _kernels


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # pay the numba JIT cost once, before any timed assertions run
    ops = np.zeros((1, 2, 2), dtype=complex)
    ops[0] = [[1, 0], [0, -1]]
    coefs = np.array([1.0])
    powers = np.array([1], dtype=np.int64)
    psi = np.array([1, 0], dtype=complex)
    out = np.empty((2, 2), dtype=complex)
    _kernels.rk4_state_run(psi, ops, coefs, powers, 1e-3, 2, out, 0)
    _kernels.rk4_state_step(psi, ops, coefs, powers, 1e-3)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
