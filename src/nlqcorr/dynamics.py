"""Time evolution: fixed-step RK4 integrators and closed-form propagators.

``integrate`` advances ``i dpsi/dt = M(t, psi) psi`` with classical
4th-order steps on a uniform grid. The generator jumps at every switching
time, so each step is split at the switches strictly inside it and never
samples across one; a switch within 1e-9 dt before or 1e-12 max(1, t_end)
after a grid point acts at that point. ``SwitchedHamiltonian`` is only the
record of parts and schedule; how it acts on a state is decided here, in
``_segment_rhs``. Between two switches the active term set is fixed, and the
right-hand side is built once: either the stacked product of all active
generator terms c <O>^p O, or, for any other generator, each factor's
gradient applied to its own axis of psi; the composite matrix is never formed.
States are never renormalized; norm drift is a monitored error channel.
One RK4 step (``_rk4``) serves every flow here; the q-deformed right-hand
side raises as soon as a stage leaves that flow's domain.

``exact_pair_propagator`` is the closed-form solution for the quadratic
sigma_z pair: each factor is a z rotation by the conserved initial average,
accumulated only over the switched-on interval. ``propagator_family``
propagates one factor through a whole array of durations from one
diagonalization; ``switched_states`` combines one such stack per factor into
the composite states of the switched multiparticle flow, for any number of
factors. ``integrate_qvn`` advances the isospectral q-deformed von Neumann
flow ``i drho/dt = [H, rho^q]``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import qstate
from ._backend import backend_name
from .hamfun import COMMUTATOR_TOL, HamiltonianFunction, NonFiniteGradient, SwitchedHamiltonian, SwitchingSchedule

NORM_DRIFT_ABORT = 1e-6
CHECK_BATCH = 64  # RK4 steps run between two norm checks in ``integrate``
QVN_EIG_FLOOR = 1e-12
QVN_NEG_TOL = -1e-10
FALLBACK_DT = 1e-3  # RK4 step of ``propagator_family`` when the closed form is not exact


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


def _as_switched(h, dim: int) -> SwitchedHamiltonian:
    if isinstance(h, SwitchedHamiltonian):
        return h
    if isinstance(h, HamiltonianFunction):
        return SwitchedHamiltonian((h,), SwitchingSchedule((math.inf,), (dim,)))
    raise TypeError("expected a SwitchedHamiltonian or HamiltonianFunction")


def _rk4(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of dy/dt = f(y)."""
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _segment_rhs(h: SwitchedHamiltonian):
    """t_mid -> (psi -> -i M(t_mid, psi) psi), the right-hand side of one segment.

    The active parts are those switched on at ``t_mid``. When every part
    carries generator terms c <O>^p O, the active terms act as one stacked
    product; otherwise each active part's gradient acts on its own axis of
    psi viewed as a (d_1, ..., d_n) tensor, from that factor's reduced
    density matrix. The composite matrix is never formed.
    """
    dims = h.schedule.subsystem_dims
    detection = np.array(h.schedule.detection_times)
    d = math.prod(dims)
    structured = all(p.terms is not None for p in h.parts)
    if structured:
        terms = [(k, term) for k, p in enumerate(h.parts) for term in p.terms]
        owner = np.array([k for k, _ in terms], dtype=np.int64)
        all_ops = np.stack([qstate.lift_operator(term.operator, dims, k) for k, term in terms])
        all_coefs = np.array([term.coef for _, term in terms], dtype=float)
        all_powers = np.array([term.power for _, term in terms], dtype=np.int64)

    def rhs(t_mid: float):
        # a part is on strictly before its detection time; at that time it counts as detected
        on = t_mid < detection
        if structured:
            on = on[owner]
            m = int(on.sum())
            # the active operators stacked as one (m d, d) matrix; np.dot beats @ on tiny arrays
            ops, icoefs, powers = all_ops[on].reshape(m * d, d), -1j * all_coefs[on], all_powers[on]

            def f(psi):
                w = np.dot(ops, psi).reshape(m, d)
                return np.dot(icoefs * np.dot(w, psi.conj()).real ** powers, w)

            return f
        active = [(k, p) for k, p in enumerate(h.parts) if on[k]]

        def f(psi):
            out = np.zeros_like(psi)
            try:
                for k, part in active:
                    # psi as (before, d_k, after), and the k-th reduced density matrix
                    x = psi.reshape(math.prod(dims[:k]), dims[k], -1)
                    xk = x.transpose(1, 0, 2).reshape(dims[k], -1)
                    out += (part.effective_matrix(xk @ xk.conj().T) @ x).reshape(-1)
            except NonFiniteGradient:
                # a blown-up stage: the norm check names the first bad sample
                return np.full_like(psi, np.nan)
            return -1j * out

        return f

    return rhs


def _grid(t_end: float, dt: float) -> np.ndarray:
    """The sample times 0, dt, ..., t_end; ``t_end`` must be a whole number of steps.

    A step no longer than 1e-12 max(1, t_end) is rejected: ``integrate``
    drops every segment that short, so such a step would have nothing to run.
    """
    if not 0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and >= 0, got {t_end!r}")
    if not dt > 1e-12 * max(1.0, t_end):
        raise ValueError(f"dt must exceed 1e-12 max(1, t_end), got {dt!r}")
    n = int(round(t_end / dt))
    if abs(n * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError("t_end must be an integer multiple of dt")
    return np.arange(n + 1) * dt


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
    dim = math.prod(h.schedule.subsystem_dims)
    if dim != psi0.size:
        raise ValueError(f"state dim {psi0.size} does not match Hamiltonian dim {dim}")
    times = _grid(t_end, dt)
    obs = qstate.check_observables(observables)
    n = times.size - 1
    states = np.empty((n + 1, psi0.size), dtype=complex)
    states[0] = psi = psi0.astype(complex)

    # the segments between switching times, each with its own right-hand side;
    # a segment no longer than eps is dropped, its end switching straight to the next
    eps = 1e-12 * max(1.0, n * dt)
    events = sorted({tk for tk in h.schedule.detection_times
                     if math.isfinite(tk) and eps < tk < n * dt - eps})
    breaks = [0.0] + events + [n * dt]
    segments = [(ta, tb) for ta, tb in zip(breaks[:-1], breaks[1:]) if tb - ta > eps]
    segment_rhs = _segment_rhs(h)
    rhs = [segment_rhs(0.5 * (ta + tb)) for ta, tb in segments]
    ends = [tb for _, tb in segments]

    grid = times.tolist()
    # segment k takes whole steps from the grid point where it begins up to grid
    # point ``last``, the one its end reaches or misses by under 1e-9 dt; an end
    # within eps after a grid point switches there, any later end splits its step
    k, last = 0, -1
    # overflow surfaces as a non-finite sample, caught by the norm check
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            t, t_next = grid[i], grid[i + 1]
            if i > last:
                last = i + math.floor((ends[k] - t) / dt + 1e-9)
            while ends[k] <= t + eps:
                k += 1
                last = i + math.floor((ends[k] - t) / dt + 1e-9)
            if i < last:
                psi = _rk4(rhs[k], psi, dt)
            else:
                # split the step at each switch inside it; the last piece stops at
                # a switch within eps before the grid point and is left out if it
                # would be no longer than eps
                while ends[k] < t_next - eps:
                    psi = _rk4(rhs[k], psi, ends[k] - t)
                    t, k = ends[k], k + 1
                if min(t_next, ends[k]) > t + eps:
                    psi = _rk4(rhs[k], psi, min(t_next, ends[k]) - t)
            states[i + 1] = psi
            if i + 1 == n or (i + 1) % CHECK_BATCH == 0:
                lo = i // CHECK_BATCH * CHECK_BATCH + 1
                drift = np.abs(np.linalg.norm(states[lo:i + 2], axis=1) - 1.0)
                bad = ~(drift <= NORM_DRIFT_ABORT)
                if bad.any():
                    first = int(np.argmax(bad))
                    raise NumericalError(
                        f"norm drift {drift[first]:.3e} at t = {times[lo + first]:#.6g} "
                        f"exceeds {NORM_DRIFT_ABORT:.1e} (dt = {dt:g}); generator may be "
                        "unacceptable or the step too large"
                    )

    values = {name: np.einsum("ti,ij,tj->t", states.conj(), op, states).real
              for name, op in obs.items()}
    meta = {"integrator": "rk4-fixed", "dt": dt, "backend": backend_name(),
            "schedule": h.schedule.detection_times,
            "hamiltonians": tuple(p.label for p in h.parts),
            "fd_gradient": tuple(p.uses_fd_gradient for p in h.parts)}
    return Trajectory(times=times, states=states, observables=values, metadata=meta)


# ---------------------------------------------------------------------------
# closed-form propagation


def exact_pair_propagator(psi0, coef_a: float, coef_b: float,
                          schedule: SwitchingSchedule, t: float) -> np.ndarray:
    """Closed-form switched evolution for the quadratic sigma_z pair.

    Each qubit factor rotates about z with the conserved initial average,
    exp(-i c_k <sigma_z(0)>_k sigma_z min(t, t_k)); exactly norm preserving.
    ``t`` may be +inf only once both particles are detected.
    """
    psi0 = qstate.check_state(psi0)
    if psi0.size != 4:
        raise ValueError("exact_pair_propagator expects a two-qubit state (dim 4)")
    if not t >= 0:
        raise ValueError(f"t must be >= 0 and finite or +inf, got {t!r}")
    if schedule.subsystem_dims != (2, 2):
        raise ValueError("schedule must describe two qubits")
    t1, t2 = schedule.detection_times
    # <sigma_z> of each factor, read off the populations of |00>, |01>, |10>, |11>
    p0, p1, p2, p3 = (psi0 * psi0.conj()).real
    z1 = (p0 + p1) - (p2 + p3)
    z2 = (p0 + p2) - (p1 + p3)
    # each factor's switched-on duration
    k1, k2 = min(t, t1), min(t, t2)
    if not math.isfinite(k1 + k2):
        raise ValueError("t = inf leaves a never-detected particle; switched durations must be finite")
    alpha = coef_a * z1 * k1
    beta = coef_b * z2 * k2
    e1, e2 = cmath.exp(-1j * alpha), cmath.exp(-1j * beta)
    c1, c2 = e1.conjugate(), e2.conjugate()
    return np.array([e1 * e2, e1 * c2, c1 * e2, c1 * c2]) * psi0


def propagator_family(h: HamiltonianFunction, rho0, durations) -> np.ndarray:
    """One-particle flow unitaries for a 1-d array of durations, shape (n, d, d).

    Closed form exp(-i G(rho0) tau) when G stays at G(rho0): its terms commute
    pairwise (``h.terms_commute``), or G(rho0) commutes with rho0, a fixed
    point, to ``COMMUTATOR_TOL`` relative to G(rho0). The whole catalogue
    qualifies: one diagonalization, then the phases exp(-i w tau) for every
    duration at once. Otherwise RK4 on the unitary at ``FALLBACK_DT`` through
    the sorted distinct durations; a unitary off unitarity by more than
    ``NORM_DRIFT_ABORT`` raises ``NumericalError``. Entries follow the input
    order; repeated durations share one unitary.
    """
    taus = np.asarray(durations, dtype=float)
    if taus.ndim != 1:
        raise ValueError("durations must be a 1-d sequence")
    if not ((taus >= 0) & (taus < np.inf)).all():
        raise ValueError("durations must be finite and >= 0; a never-detected particle has none at t = inf")
    rho0 = np.asarray(rho0, dtype=complex)
    g = h.effective_matrix(rho0)
    # the scale is floored at the smallest normal float, below which G(rho0) has no relative precision
    if h.terms_commute or (np.max(np.abs(g @ rho0 - rho0 @ g))
                           <= COMMUTATOR_TOL * max(np.max(np.abs(g)), np.finfo(float).tiny)):
        w, v = qstate.eigh(g)
        # U(tau) = sum_k exp(-i w_k tau) P_k over the eigenprojectors P_k = v_k v_k^dag
        proj = v.T[:, :, None] * v.T.conj()[:, None, :]
        return np.tensordot(np.exp(-1j * np.multiply.outer(taus, w)), proj, axes=1)

    def deriv(u):
        try:
            return -1j * (h.effective_matrix(u @ rho0 @ u.conj().T) @ u)
        except NonFiniteGradient:
            # a blown-up stage: the unitarity check names the duration interval
            return np.full_like(u, np.nan)

    distinct, inverse = np.unique(taus, return_inverse=True)
    out = np.empty((distinct.size,) + rho0.shape, dtype=complex)
    u = eye = qstate.identity(rho0.shape[0])
    t_cur = 0.0
    # overflow surfaces as a non-finite unitary, caught by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        for i, tau in enumerate(distinct):
            while tau - t_cur > 1e-15:
                step = min(FALLBACK_DT, tau - t_cur)
                u = _rk4(deriv, u, step)
                t_cur += step
            drift = np.max(np.abs(u.conj().T @ u - eye))
            if not drift <= NORM_DRIFT_ABORT:
                raise NumericalError(
                    f"unitarity drift {drift:.3e} exceeds {NORM_DRIFT_ABORT:.1e} for durations in "
                    f"({distinct[i - 1] if i else 0.0:g}, {tau:g}] at FALLBACK_DT = {FALLBACK_DT:g}")
            out[i] = u
    return out[inverse.reshape(-1)]


def switched_states(psi0, hs, taus, dims=(2, 2)) -> np.ndarray:
    """Composite states after each factor evolved for its own switched durations.

    ``hs`` holds one generator and ``taus`` one 1-d duration array per factor
    of ``dims``, all arrays of one length n; row i of the (n, prod(dims))
    result is the state after factor k evolved for ``taus[k][i]``. The
    switched multiparticle flow factorizes exactly into one-particle unitaries
    (lifted generator terms of different factors commute at all times), so
    passing each factor's switched-on duration min(t, t_k) reproduces the
    full switched solution.
    """
    psi0 = qstate.check_state(psi0)
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) != psi0.size:
        raise ValueError("dims do not factor the composite dimension")
    if not len(hs) == len(taus) == len(dims):
        raise ValueError("need one generator and one duration array per factor")
    taus = [np.asarray(tau, dtype=float) for tau in taus]
    if any(tau.shape != taus[0].shape for tau in taus):
        raise ValueError("duration arrays must have the same shape")
    rho = np.outer(psi0, psi0.conj())
    u = propagator_family(hs[0], qstate.partial_trace(rho, dims, 1), taus[0])
    for k in range(1, len(dims)):
        uk = propagator_family(hs[k], qstate.partial_trace(rho, dims, k + 1), taus[k])
        m = u.shape[1] * dims[k]
        # a stack of kron(u, uk), entry by entry as np.kron forms it
        u = (u[:, :, None, :, None] * uk[:, None, :, None, :]).reshape(-1, m, m)
    return u @ psi0


# ---------------------------------------------------------------------------
# q-deformed von Neumann flow


def integrate_qvn(hmat, rho0, q: float, t_end: float, dt: float,
                  coupling: float = 1.0,
                  observables: dict[str, np.ndarray] | None = None) -> Trajectory:
    """Fixed-step RK4 for i drho/dt = coupling * [H, rho^q].

    The flow is isospectral and trace preserving; matrix powers for
    non-integer q go through spectral decomposition with an eigenvalue floor
    at ``QVN_EIG_FLOOR``, and a genuinely negative eigenvalue aborts. Both
    failures, and a non-finite state, name the start of the failing step.
    """
    hmat = qstate.check_hermitian(hmat, name="Hamiltonian")
    rho0 = qstate.check_density_matrix(rho0)
    if hmat.shape != rho0.shape:
        raise ValueError("Hamiltonian and density matrix dimensions differ")
    if q <= 0:
        raise ValueError("q must be positive")
    times = _grid(t_end, dt)

    qint = int(round(q)) if abs(q - round(q)) < 1e-12 and round(q) >= 1 else 0
    if qint == 0:
        w, _ = qstate.eigh(rho0)
        if w[0] < QVN_EIG_FLOOR:
            raise ValueError(
                f"non-integer q requires a strictly positive density matrix "
                f"(smallest eigenvalue {w[0]:.3e})"
            )
    obs = qstate.check_observables(observables)

    rhos = np.empty((times.size,) + rho0.shape, dtype=complex)
    rhos[0] = r = rho0
    hc = coupling * hmat

    # both closures report ``t``, the start of the step the loop below is taking
    def non_finite():
        return NumericalError(
            f"density matrix became non-finite at t = {t:#.6g} "
            f"with q = {q:g}, coupling = {coupling:g}; reduce dt"
        )

    def f(x):
        # -i [H, x**q]; a non-integer power needs a spectrum inside the domain
        if qint > 0:
            xq = x
            for _ in range(qint - 1):
                xq = xq @ x
        else:
            xq, minw = qstate.herm_power(x, q, QVN_EIG_FLOOR)
            if math.isnan(minw):
                raise non_finite()
            if minw < QVN_NEG_TOL:
                raise NumericalError(
                    f"negative eigenvalue below {QVN_NEG_TOL:.1e} at t = {t:#.6g} "
                    f"with non-integer q = {q:g}; reduce dt"
                )
        return -1j * (hc @ xq - xq @ hc)

    # overflow inside a step surfaces as a non-finite stage or result
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t in enumerate(times[:-1]):
            r = _rk4(f, r, dt)
            if not np.isfinite(r).all():
                raise non_finite()
            rhos[k + 1] = r
    values = {name: np.einsum("tij,ji->t", rhos, op).real for name, op in obs.items()}
    meta = {"integrator": "rk4-fixed", "dt": dt, "backend": backend_name(),
            "q": q, "coupling": coupling}
    return Trajectory(times=times, states=rhos, observables=values, metadata=meta)
