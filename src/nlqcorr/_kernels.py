"""Hot numeric kernels: fixed-step RK4 loops for the structured state flow.

Every function here is plain numpy code compiled with numba when the backend
allows it (see ``_backend``); with ``NLQCORR_DISABLE_NUMBA=1`` the same code
runs uncompiled. States are small (dimension <= 32), so kernels favour
explicit loops over BLAS-heavy vectorization. Callers are responsible for
validation; inputs must be contiguous complex128 arrays.
"""

import numpy as np

from ._backend import jit


@jit
def state_generator_apply(psi, ops, coefs, powers):
    """-i M(psi) psi for the structured generator M = sum_j c_j <O_j>^p_j O_j."""
    d = psi.shape[0]
    dpsi = np.zeros(d, dtype=np.complex128)
    for j in range(ops.shape[0]):
        w = ops[j] @ psi
        if powers[j] == 0:
            c = coefs[j]
        else:
            ev = (np.conj(psi) * w).sum().real
            c = coefs[j] * ev ** powers[j]
        dpsi += c * w
    return -1j * dpsi


@jit
def rk4_state_step(psi, ops, coefs, powers, dt):
    """One classical RK4 step of i dpsi/dt = M(psi) psi."""
    k1 = state_generator_apply(psi, ops, coefs, powers)
    k2 = state_generator_apply(psi + (0.5 * dt) * k1, ops, coefs, powers)
    k3 = state_generator_apply(psi + (0.5 * dt) * k2, ops, coefs, powers)
    k4 = state_generator_apply(psi + dt * k3, ops, coefs, powers)
    return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@jit
def rk4_state_run(psi, ops, coefs, powers, dt, nsteps, out, offset):
    """``nsteps`` uniform RK4 steps; the state after step k lands in out[offset+k]."""
    p = psi
    for k in range(nsteps):
        p = rk4_state_step(p, ops, coefs, powers, dt)
        out[offset + k] = p
    return p
