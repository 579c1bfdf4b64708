"""Time evolution: fixed-step RK4 integrators and closed-form propagators.

The generic integrator advances ``i dpsi/dt = M(t, psi) psi`` with classical
4th-order steps on a uniform grid, splitting any step that straddles a
switching time so the discontinuous generator is never sampled across a
switch (the active term set is frozen per sub-interval at its midpoint).
States are never renormalized; norm drift is a monitored error channel.

``exact_pair_propagator`` is the closed-form solution for the quadratic
sigma_z pair: each factor is a z rotation by the conserved initial average,
accumulated only over the switched-on interval. ``integrate_qvn`` advances
the isospectral q-deformed von Neumann flow ``i drho/dt = [H, rho^q]``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, qstate
from ._backend import backend_name
from .hamfun import (
    HamiltonianFunction,
    SwitchedHamiltonian,
    SwitchingSchedule,
    kappa,
)

NORM_DRIFT_ABORT = 1e-6
CHECK_BATCH = 64  # RK4 steps run between two norm checks in ``integrate``
QVN_EIG_FLOOR = 1e-12
QVN_NEG_TOL = -1e-10


class NumericalError(RuntimeError):
    """Numerical failure during integration (norm drift, spectrum breakdown)."""


@dataclass
class Trajectory:
    """Uniformly sampled evolution record.

    ``states`` holds state vectors (n+1, d) or density matrices (n+1, d, d);
    protocol-level mixtures may leave it None and carry only observables.
    """

    times: np.ndarray
    states: np.ndarray | None
    observables: dict[str, np.ndarray] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        return self.observables[name]

    def norms(self) -> np.ndarray:
        if self.states is None or self.states.ndim != 2:
            raise ValueError("trajectory does not carry state vectors")
        return np.linalg.norm(self.states, axis=1)

    @property
    def final_state(self) -> np.ndarray:
        if self.states is None:
            raise ValueError("trajectory does not carry states")
        return self.states[-1]


def _as_switched(h, dim: int) -> SwitchedHamiltonian:
    if isinstance(h, SwitchedHamiltonian):
        return h
    if isinstance(h, HamiltonianFunction):
        return SwitchedHamiltonian((h,), (dim,), (math.inf,))
    raise TypeError("expected a SwitchedHamiltonian or HamiltonianFunction")


def _py_rk4_step(h: SwitchedHamiltonian, psi: np.ndarray, t_mid: float, dt: float) -> np.ndarray:
    def f(p):
        return -1j * (h.effective_matrix(t_mid, p) @ p)

    k1 = f(psi)
    k2 = f(psi + (0.5 * dt) * k1)
    k3 = f(psi + (0.5 * dt) * k2)
    k4 = f(psi + dt * k3)
    return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(h, psi0, t_end: float, dt: float,
              observables: dict[str, np.ndarray] | None = None) -> Trajectory:
    """Fixed-step RK4 trajectory of the switched composite flow.

    ``t_end`` must be an integer number of ``dt`` steps (uniform sampling).
    Observables are sampled at every step. Aborts with a diagnostic if the
    norm drifts from 1 by more than ``NORM_DRIFT_ABORT`` or turns non-finite,
    at the first batch of ``CHECK_BATCH`` steps that contains the bad sample.
    """
    psi0 = qstate.check_state(psi0)
    h = _as_switched(h, psi0.size)
    if h.dim != psi0.size:
        raise ValueError(f"state dim {psi0.size} does not match Hamiltonian dim {h.dim}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    n = int(round(t_end / dt))
    if abs(n * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError("t_end must be an integer multiple of dt")
    obs = {}
    for name, op in (observables or {}).items():
        obs[name] = qstate.check_hermitian(op, name=f"observable {name!r}")

    times = np.arange(n + 1) * dt
    d = psi0.size
    states = np.empty((n + 1, d), dtype=complex)
    states[0] = psi0

    big_t = n * dt
    eps = 1e-12 * max(1.0, big_t)
    events = sorted({float(tk) for tk in h.detection_times
                     if math.isfinite(tk) and eps < tk < big_t - eps})
    breaks = [0.0] + events + [big_t]

    struct = h.structured()
    psi = psi0.astype(complex)
    next_rec = 1
    checked = 1
    t_cur = 0.0

    def check_recorded():
        # samples [checked, next_rec) are new; abort at the first bad one
        nonlocal checked
        norms = np.linalg.norm(states[checked:next_rec], axis=1)
        drift = np.abs(norms - 1.0)
        bad = ~(drift <= NORM_DRIFT_ABORT)
        if np.any(bad):
            first = int(np.argmax(bad))
            raise NumericalError(
                f"norm drift {drift[first]:.3e} at t = {times[checked + first]:#.6g} "
                f"exceeds {NORM_DRIFT_ABORT:.1e} (dt = {dt:g}); generator may be "
                "unacceptable or the step too large"
            )
        checked = next_rec

    # overflow inside a batch surfaces as a non-finite sample, caught by check_recorded
    with np.errstate(over="ignore", invalid="ignore"):
        for ta, tb in zip(breaks[:-1], breaks[1:]):
            if tb - ta <= eps:
                continue
            t_mid = 0.5 * (ta + tb)
            if struct is not None:
                ops, coefs, powers, tsw = struct
                mask = t_mid < tsw
                aops = np.ascontiguousarray(ops[mask])
                acoefs = np.ascontiguousarray(coefs[mask])
                apows = np.ascontiguousarray(powers[mask])

                def step_once(p, h_step):
                    return _kernels.rk4_state_step(p, aops, acoefs, apows, h_step)

                def run_batch(p, m, idx0):
                    return _kernels.rk4_state_run(p, aops, acoefs, apows, dt, m, states, idx0)
            else:

                def step_once(p, h_step, _t=t_mid):
                    return _py_rk4_step(h, p, _t, h_step)

                def run_batch(p, m, idx0, _t=t_mid):
                    for j in range(m):
                        p = _py_rk4_step(h, p, _t, dt)
                        states[idx0 + j] = p
                    return p

            # finish a step left dangling by an event inside it
            if next_rec <= n and t_cur > times[next_rec - 1] + eps:
                target = min(times[next_rec], tb)
                if target > t_cur + eps:
                    psi = step_once(psi, target - t_cur)
                    t_cur = target
                if abs(t_cur - times[next_rec]) <= eps:
                    states[next_rec] = psi
                    next_rec += 1
                    t_cur = times[next_rec - 1]
                    check_recorded()
            # whole steps inside the segment, checked batch by batch
            m = int(math.floor((tb - t_cur) / dt + 1e-9))
            for lo in range(0, m, CHECK_BATCH):
                mb = min(CHECK_BATCH, m - lo)
                psi = run_batch(psi, mb, next_rec)
                next_rec += mb
                check_recorded()
            if m > 0:
                t_cur = times[next_rec - 1]
            # partial step up to the event boundary
            if tb - t_cur > eps:
                psi = step_once(psi, tb - t_cur)
                t_cur = tb

    if next_rec != n + 1:
        raise RuntimeError("internal stepping error: grid not fully recorded")

    values = {
        name: np.einsum("ti,ij,tj->t", states.conj(), op, states).real
        for name, op in obs.items()
    }
    meta = {
        "integrator": "rk4-fixed",
        "dt": dt,
        "backend": backend_name(),
        "schedule": h.detection_times,
        "hamiltonians": h.labels,
        "fd_gradient": h.uses_fd_gradient,
    }
    return Trajectory(times=times, states=states, observables=values, metadata=meta)


# ---------------------------------------------------------------------------
# closed-form propagation


def exact_pair_propagator(psi0, coef_a: float, coef_b: float,
                          schedule: SwitchingSchedule, t: float) -> np.ndarray:
    """Closed-form switched evolution for the quadratic sigma_z pair.

    Each qubit factor rotates about z with the conserved initial average,
    exp(-i c_k <sigma_z(0)>_k sigma_z kappa(t, t_k)); exactly norm preserving.
    """
    psi0 = qstate.check_state(psi0)
    if psi0.size != 4:
        raise ValueError("exact_pair_propagator expects a two-qubit state (dim 4)")
    if t < 0:
        raise ValueError("t must be >= 0")
    if schedule.subsystem_dims != (2, 2):
        raise ValueError("schedule must describe two qubits")
    t1, t2 = schedule.detection_times
    # <sigma_z> of each factor, read off the populations of |00>, |01>, |10>, |11>
    p0, p1, p2, p3 = (psi0 * psi0.conj()).real
    z1 = (p0 + p1) - (p2 + p3)
    z2 = (p0 + p2) - (p1 + p3)
    alpha = coef_a * z1 * kappa(t, t1)
    beta = coef_b * z2 * kappa(t, t2)
    e1, e2 = cmath.exp(-1j * alpha), cmath.exp(-1j * beta)
    c1, c2 = e1.conjugate(), e2.conjugate()
    return np.array([e1 * e2, e1 * c2, c1 * e2, c1 * c2]) * psi0


def one_particle_propagator(h: HamiltonianFunction, rho0, duration: float,
                            fallback_dt: float = 1e-3) -> np.ndarray:
    """Unitary of the self-consistent one-particle flow over ``duration``.

    Closed form (a single Hermitian exponential) whenever the function's
    generator is conserved along its own flow, which covers the whole built-in
    catalogue; otherwise RK4 on the unitary at ``fallback_dt`` resolution.
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    rho0 = np.asarray(rho0, dtype=complex)
    if h.conserved_generator:
        return qstate.herm_exp(h.effective_matrix(rho0), -1j * duration)
    return propagator_family(h, rho0, [duration], fallback_dt)[duration]


def propagator_family(h: HamiltonianFunction, rho0, durations,
                      fallback_dt: float = 1e-3) -> dict[float, np.ndarray]:
    """One-particle flow unitaries for every duration in ``durations``.

    The conserved-generator case diagonalizes once and exponentiates per
    duration; the generic case integrates the unitary ODE incrementally
    through the sorted durations.
    """
    taus = sorted({float(t) for t in durations})
    if taus and taus[0] < 0:
        raise ValueError("durations must be >= 0")
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    if h.conserved_generator:
        g = h.effective_matrix(rho0)
        w, v = qstate.eigh(g)
        vh = v.conj().T
        return {tau: (v * np.exp(-1j * w * tau)) @ vh for tau in taus}

    def deriv(u):
        return -1j * (h.effective_matrix(u @ rho0 @ u.conj().T) @ u)

    out = {}
    u = qstate.identity(d)
    t_cur = 0.0
    for tau in taus:
        while tau - t_cur > 1e-15:
            step = min(fallback_dt, tau - t_cur)
            k1 = deriv(u)
            k2 = deriv(u + (0.5 * step) * k1)
            k3 = deriv(u + (0.5 * step) * k2)
            k4 = deriv(u + step * k3)
            u = u + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_cur += step
        out[tau] = u.copy()
    return out


def switched_pair_state(psi0, h1: HamiltonianFunction, h2: HamiltonianFunction,
                        tau1: float, tau2: float, dims=(2, 2)) -> np.ndarray:
    """Composite state after each factor evolved for its own switched duration.

    The composite switched flow factorizes exactly into one-particle unitaries
    (the two lifted generator terms commute at all times), so passing the
    kappa integrals as durations reproduces the full switched solution.
    """
    psi0 = qstate.check_state(psi0)
    d1, d2 = (int(d) for d in dims)
    if d1 * d2 != psi0.size:
        raise ValueError("dims do not factor the composite dimension")
    rho = np.outer(psi0, psi0.conj())
    u1 = one_particle_propagator(h1, qstate.reduced_density(rho, dims, 0), tau1)
    u2 = one_particle_propagator(h2, qstate.reduced_density(rho, dims, 1), tau2)
    return np.kron(u1, u2) @ psi0


# ---------------------------------------------------------------------------
# q-deformed von Neumann flow


def _qvn_rhs(x, hmat, q: float, qint: int) -> tuple[np.ndarray, float]:
    """-i [H, x**q] and the smallest eigenvalue of ``x`` (0.0 for integer powers)."""
    if qint > 0:
        xq = x
        for _ in range(qint - 1):
            xq = xq @ x
        minw = 0.0
    else:
        xq, minw = qstate.herm_power(x, q, QVN_EIG_FLOOR)
    return -1j * (hmat @ xq - xq @ hmat), minw


def _qvn_step(r, hmat, q: float, qint: int, dt: float) -> tuple[np.ndarray | None, float]:
    """One RK4 step of i dr/dt = [H, r**q].

    Returns ``(None, minw)`` as soon as a stage leaves the flow's domain: an
    eigenvalue below ``QVN_NEG_TOL``, or NaN for a non-finite stage or result.
    """
    d1, minw = _qvn_rhs(r, hmat, q, qint)
    if not minw >= QVN_NEG_TOL:
        return None, minw
    d2, minw = _qvn_rhs(r + (0.5 * dt) * d1, hmat, q, qint)
    if not minw >= QVN_NEG_TOL:
        return None, minw
    d3, minw = _qvn_rhs(r + (0.5 * dt) * d2, hmat, q, qint)
    if not minw >= QVN_NEG_TOL:
        return None, minw
    d4, minw = _qvn_rhs(r + dt * d3, hmat, q, qint)
    if not minw >= QVN_NEG_TOL:
        return None, minw
    out = r + (dt / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    if not np.isfinite(out).all():
        return None, math.nan
    return out, minw


def integrate_qvn(hmat, rho0, q: float, t_end: float, dt: float,
                  coupling: float = 1.0,
                  observables: dict[str, np.ndarray] | None = None) -> Trajectory:
    """Fixed-step RK4 for i drho/dt = coupling * [H, rho^q].

    The flow is isospectral and trace preserving; matrix powers for
    non-integer q go through spectral decomposition with an eigenvalue floor
    at ``QVN_EIG_FLOOR``, and a genuinely negative eigenvalue aborts.
    """
    hmat = qstate.check_hermitian(hmat, name="Hamiltonian")
    rho0 = qstate.check_density_matrix(rho0)
    if hmat.shape != rho0.shape:
        raise ValueError("Hamiltonian and density matrix dimensions differ")
    if q <= 0:
        raise ValueError("q must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    n = int(round(t_end / dt))
    if abs(n * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError("t_end must be an integer multiple of dt")

    qint = int(round(q)) if abs(q - round(q)) < 1e-12 and round(q) >= 1 else 0
    if qint == 0:
        w, _ = qstate.eigh(rho0)
        if w[0] < QVN_EIG_FLOOR:
            raise ValueError(
                f"non-integer q requires a strictly positive density matrix "
                f"(smallest eigenvalue {w[0]:.3e})"
            )
    obs = {}
    for name, op in (observables or {}).items():
        obs[name] = qstate.check_hermitian(op, name=f"observable {name!r}")

    d = rho0.shape[0]
    times = np.arange(n + 1) * dt
    rhos = np.empty((n + 1, d, d), dtype=complex)
    rhos[0] = rho0
    r = rho0
    # overflow inside a step surfaces as a non-finite stage, caught by _qvn_step
    with np.errstate(over="ignore", invalid="ignore"):
        hc = coupling * hmat
        for k in range(n):
            r, minw = _qvn_step(r, hc, q, qint, dt)
            if r is None:
                if math.isnan(minw):
                    raise NumericalError(
                        f"density matrix became non-finite at t = {times[k]:#.6g} "
                        f"with q = {q:g}, coupling = {coupling:g}; reduce dt"
                    )
                raise NumericalError(
                    f"negative eigenvalue below {QVN_NEG_TOL:.1e} at t = {times[k]:#.6g} "
                    f"with non-integer q = {q:g}; reduce dt"
                )
            rhos[k + 1] = r
    values = {
        name: np.einsum("tij,ji->t", rhos, op).real for name, op in obs.items()
    }
    meta = {
        "integrator": "rk4-fixed",
        "dt": dt,
        "backend": backend_name(),
        "q": q,
        "coupling": coupling,
    }
    return Trajectory(times=times, states=rhos, observables=values, metadata=meta)
