"""Measurement protocols for two-time correlations on entangled qubit pairs.

Two rival recipes for the joint statistics of measuring particle #1 at t1 and
particle #2 at t2, in either order; one reader builds the outcome tables of
both from a (weight, state) row per sign of the particle detected first:

* the switching protocol keeps the joint evolution unitary and simply shuts
  each particle's generator off at its detection time, reading all outcome
  probabilities from the final frozen state;
* the Zeno protocol projects the joint state when the first particle is
  detected (#1 on a tie), renormalizes each branch and lets the other
  particle continue with the branch-conditioned generator; its tables and
  curves share this one branch evolution, ``zeno_branches``.

For bilinear (linear quantum mechanics) Hamiltonian functions the two agree
identically; for genuinely nonlinear functions the Zeno route develops a
nonlocal response of the later-detected particle to the distant measurement
while the switching route stays local.

Also here: multi-time history probabilities in their unitary-filter and
Heisenberg-projected forms, and a pre/post-selection mean-field demonstration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qstate
from .dynamics import Trajectory, propagator_family, switched_states
from .hamfun import HamiltonianFunction

PROJECTOR_TOL = 1e-12
DEAD_BRANCH_TOL = 1e-14
TABLE_SUM_TOL = 1e-10
CORRELATOR_TOL = 1e-10


# ---------------------------------------------------------------------------
# histories


@dataclass(frozen=True)
class HistorySpec:
    """Ordered projective events riding on one free unitary evolution.

    ``projectors`` is a sequence of (time, projector) pairs with strictly
    increasing times; ``free_generator`` drives the evolution between events.
    """

    projectors: tuple[tuple[float, np.ndarray], ...]
    free_generator: np.ndarray

    def __post_init__(self):
        gen = qstate.check_hermitian(self.free_generator, name="free generator")
        events = []
        prev = 0.0
        for i, (t, e) in enumerate(self.projectors):
            t = float(t)
            if not math.isfinite(t):
                raise ValueError(f"projector {i} time must be finite, got {t!r}")
            if t < 0 or (i > 0 and t <= prev):
                raise ValueError("projector times must be positive and strictly increasing")
            prev = t
            e = qstate.check_hermitian(e, name=f"projector {i}")
            if np.max(np.abs(e @ e - e)) > PROJECTOR_TOL:
                raise ValueError(f"projector {i} is not idempotent to {PROJECTOR_TOL:.1e}")
            if e.shape != gen.shape:
                raise ValueError("projector and generator dimensions differ")
            events.append((t, e))
        if not events:
            raise ValueError("history needs at least one projector")
        object.__setattr__(self, "projectors", tuple(events))
        object.__setattr__(self, "free_generator", gen)


def history_probability_unitary(spec: HistorySpec, rho0) -> float:
    """History probability from the overall evolution operator.

    Builds K = E_n U(t_n - t_{n-1}) ... E_1 U(t_1) out of forward propagators
    and returns Tr(K rho0 K^dag); the free stretch after the last event is
    unitary and drops out of the trace.
    """
    rho0 = qstate.check_density_matrix(rho0)
    k = qstate.identity(rho0.shape[0])
    prev = 0.0
    for t, e in spec.projectors:
        k = e @ qstate.herm_exp(spec.free_generator, -1j * (t - prev)) @ k
        prev = t
    val = np.trace(k @ rho0 @ k.conj().T)
    return float(val.real)


def history_probability_projected(spec: HistorySpec, rho0) -> float:
    """Same probability through Heisenberg-rotated projectors.

    Evaluates Tr(E_n(t_n) ... E_1(t_1) rho0 E_1(t_1) ... E_n(t_n)) with
    E(t) = U(t)^dag E U(t); equal to the unitary route by the group law of
    the free evolution.
    """
    rho0 = qstate.check_density_matrix(rho0)
    chain = qstate.identity(rho0.shape[0])
    for t, e in spec.projectors:
        u = qstate.herm_exp(spec.free_generator, -1j * t)
        chain = (u.conj().T @ e @ u) @ chain
    val = np.trace(chain @ rho0 @ chain.conj().T)
    return float(val.real)


# ---------------------------------------------------------------------------
# outcome tables


@dataclass(frozen=True)
class MeasurementOutcomeTable:
    """Joint +-/-+ outcome probabilities of a two-particle spin measurement.

    ``correlator`` is the <X (x) Y> value; for spin observables along the
    measurement directions it must equal sum_{s,s'} s s' p(s,s'), which is
    validated on construction.
    """

    outcomes: dict[tuple[int, int], float]
    correlator: float
    dead_branches: tuple[int, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        probs = self.outcomes
        for key in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            if key not in probs:
                raise ValueError(f"outcome table is missing {key}")
            p = probs[key]
            if p < -1e-12 or p > 1 + 1e-12:
                raise ValueError(f"probability {p!r} for {key} outside [0, 1]")
        total = sum(probs.values())
        if abs(total - 1.0) > TABLE_SUM_TOL:
            raise ValueError(f"outcome probabilities sum to {total!r}, not 1")
        implied = sum(sa * sb * p for (sa, sb), p in probs.items())
        if abs(implied - self.correlator) > CORRELATOR_TOL:
            raise ValueError(
                f"correlator {self.correlator!r} inconsistent with outcome table value {implied!r}; "
                "observables must be the unit spins along the measurement directions"
            )

    def marginal(self, particle: str, sign: int) -> float:
        """Probability that particle ``"first"`` or ``"second"`` reads ``sign``."""
        axis = {"first": 0, "second": 1}.get(particle)
        if axis is None:
            raise ValueError(f"unknown particle {particle!r}; expected 'first' or 'second'")
        return sum(p for key, p in self.outcomes.items() if key[axis] == sign)


def _outcome_table(protocol: str, t1: float, t2: float, rows, directions, first: int = 1,
                   correlator: float | None = None) -> MeasurementOutcomeTable:
    """p(s1, s2) = w_s <psi_s| E_s1 (x) E_s2 |psi_s> from one row (w_s, psi_s) per sign s.

    ``s`` is the sign of particle ``first`` (1 or 2). A row whose state is
    None is a dead branch: it reads exact zeros and is flagged. ``correlator``
    defaults to sum_{s1,s2} s1 s2 p(s1, s2).
    """
    e1, e2 = (dict(zip((1, -1), qstate.projector(d))) for d in directions)
    outcomes = {}
    for s, (w, psi) in zip((1, -1), rows):
        for other in (1, -1):
            s1, s2 = (s, other) if first == 1 else (other, s)
            outcomes[(s1, s2)] = 0.0 if psi is None else w * qstate.expectation(psi, np.kron(e1[s1], e2[s2]))
    if correlator is None:
        correlator = sum(s1 * s2 * p for (s1, s2), p in outcomes.items())
    dead = tuple(s for s, (_, psi) in zip((1, -1), rows) if psi is None)
    return MeasurementOutcomeTable(outcomes=outcomes, correlator=correlator, dead_branches=dead,
                                   metadata={"protocol": protocol, "t1": t1, "t2": t2})


# ---------------------------------------------------------------------------
# the two rival protocols


def _check_table_times(t1: float, t2: float):
    if not (t1 >= 0 and t2 >= 0):
        raise ValueError("detection times must be >= 0")
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise ValueError("outcome tables need finite detection times on both particles")


def switching_correlator(psi0, h1: HamiltonianFunction, h2: HamiltonianFunction,
                         t1: float, t2: float, obs_x, obs_y,
                         directions) -> MeasurementOutcomeTable:
    """Joint outcome table of the switching protocol.

    Evolves to the frozen state (each factor switched off at its own
    detection time; the two times may come in either order), reads
    p(s, s') = <E_s (x) E_s'> there, and the correlator from <X (x) Y>.
    ``directions`` is the pair of measurement axes; ``obs_x``/``obs_y`` are
    the single-particle observables (unit spins along those axes for a
    consistent table).
    """
    _check_table_times(t1, t2)
    obs_x = qstate.check_hermitian(obs_x, name="obs_x")
    obs_y = qstate.check_hermitian(obs_y, name="obs_y")
    psi_f = switched_states(psi0, (h1, h2), ([t1], [t2]))[0]
    return _outcome_table("switching", t1, t2, [(1.0, psi_f)] * 2, directions,
                          correlator=qstate.expectation(psi_f, np.kron(obs_x, obs_y)))


def zeno_branches(psi0, h1, h2, t1, t2, direction_a, direction_b, times):
    """The renormalized +- branches of projecting the first-detected particle, evolved on.

    The pair evolves jointly and unswitched to the first detection time
    min(t1, t2), where the particle detected first (#1 on a tie) is projected
    along its axis and frozen; in each branch the other particle then evolves
    from its branch-conditioned reduced state up to each of ``times``, and
    stops at its own detection time. Returns ``(first, [(weight, states or
    None), ...])``: ``first`` is the projected particle (1 or 2), the branches
    come in the order of its outcomes +1, -1, and ``states`` holds the
    (len(times), 4) pair states in (#1, #2) factor order; a branch whose
    projection weight falls below ``DEAD_BRANCH_TOL`` carries ``None``.
    """
    first, h_other, axis = (1, h2, direction_a) if t1 <= t2 else (2, h1, direction_b)
    t_first, t_other = min(t1, t2), max(t1, t2)
    if not math.isfinite(t_first):
        raise ValueError("the Zeno protocol needs a finite first detection time")
    psi = switched_states(psi0, (h1, h2), ([t_first], [t_first]))[0].reshape(2, 2)
    # the #1-first arithmetic with the projected particle as factor one: exchanging
    # the factors of a pair state is the exact transpose of its 2x2 form
    psi = (psi if first == 1 else psi.T).reshape(-1)
    taus = np.minimum(times, t_other) - t_first
    branches = []
    for e in qstate.projector(axis):
        v = np.kron(e, qstate.identity(2)) @ psi
        w = float(np.vdot(v, v).real)
        if w < DEAD_BRANCH_TOL:
            branches.append((0.0, None))
            continue
        v = v / np.sqrt(w)
        u = propagator_family(h_other, qstate.partial_trace(np.outer(v, v.conj()), (2, 2), 2), taus)
        # kron(I, u) @ v for every duration at once, then back in (#1, #2) order
        states = v.reshape(2, 2) @ u.transpose(0, 2, 1)
        branches.append((w, (states if first == 1 else states.transpose(0, 2, 1)).reshape(-1, 4)))
    return first, branches


def zeno_correlator(psi0, h1: HamiltonianFunction, h2: HamiltonianFunction,
                    t1: float, t2: float, direction_a, direction_b) -> MeasurementOutcomeTable:
    """Joint outcome table of the Zeno-projection protocol.

    Evolves jointly (unswitched) to the first detection, projects the
    particle detected first (#1 on a tie) along its axis and renormalizes
    each branch, then evolves the other particle alone from the
    branch-conditioned reduced state to its own detection. The joint
    probability is the branch weight times the conditional probability.
    Branches annihilated by the projection (weight below ``DEAD_BRANCH_TOL``)
    contribute zero; ``dead_branches`` holds their signs of the particle
    detected first.
    """
    _check_table_times(t1, t2)
    # read after both detections, where the pair state is frozen
    first, branches = zeno_branches(psi0, h1, h2, t1, t2, direction_a, direction_b, [math.inf])
    rows = [(w, None if states is None else states[0]) for w, states in branches]
    return _outcome_table("zeno", t1, t2, rows, (direction_a, direction_b), first)


def _check_series_inputs(t1: float, t2: float, t_grid) -> np.ndarray:
    if not (t1 >= 0 and t2 >= 0):
        raise ValueError("detection times must be >= 0")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be non-negative and strictly increasing")
    return t_grid


def _series_states(protocol: str, psi0, h1, h2, t1, t2, t_grid, direction_a, direction_b):
    """Pair states of either protocol on a grid, as ``(head, branches)``.

    Switching: ``head`` holds the switched pair state at every grid time and
    there are no branches. Zeno: ``head`` holds the joint unswitched states at
    the grid times up to the first detection, and each projection branch of
    :func:`zeno_branches` gives ``(weight, states)`` at the later times.
    A dead branch carries ``None``.
    """
    if protocol == "switching":
        return switched_states(psi0, (h1, h2), (np.minimum(t_grid, t1), np.minimum(t_grid, t2))), []
    if protocol != "zeno":
        raise ValueError(f"unknown protocol {protocol!r}")
    pre = t_grid <= min(t1, t2)
    return (switched_states(psi0, (h1, h2), (t_grid[pre], t_grid[pre])),
            zeno_branches(psi0, h1, h2, t1, t2, direction_a, direction_b, t_grid[~pre])[1])


def reduced_state_series(protocol: str, psi0, h1: HamiltonianFunction,
                         h2: HamiltonianFunction, t1: float, t2: float, t_grid,
                         keep: int, direction_a=(1.0, 0.0, 0.0),
                         direction_b=(1.0, 0.0, 0.0)) -> np.ndarray:
    """Reduced matrices of particle ``keep`` (1 or 2) on a time grid, (n, 2, 2).

    Switching: the reduced state of the switched pair state. Zeno: the joint
    unswitched evolution up to the first detection, then the weighted mixture
    over the two projection branches (see :func:`ensemble_average_trajectory`).
    Both keeps read the whole pair state, so t = inf needs finite t1 and t2.
    """
    t_grid = _check_series_inputs(t1, t2, t_grid)
    head, branches = _series_states(protocol, psi0, h1, h2, t1, t2, t_grid, direction_a, direction_b)
    parts = [qstate.reduced_states(head, (2, 2), keep)]
    if branches:
        parts.append(sum(w * qstate.reduced_states(states, (2, 2), keep)
                         for w, states in branches if states is not None))
    return np.concatenate(parts)


def ensemble_average_trajectory(protocol: str, psi0, h1: HamiltonianFunction,
                                h2: HamiltonianFunction, t1: float, t2: float,
                                observables: dict[str, np.ndarray], t_grid,
                                direction_a=(1.0, 0.0, 0.0),
                                direction_b=(1.0, 0.0, 0.0)) -> Trajectory:
    """Observable averages along either protocol on a time grid.

    Switching: single-branch expectations in the switched state. Zeno: up to
    the first detection the joint unswitched evolution; afterwards the
    probability-weighted mixture over the two projection branches of the
    particle detected first (#1 on a tie), measured along ``direction_a``
    (#1) or ``direction_b`` (#2), both x by default. Either protocol takes
    the times in either order, +inf meaning never detected; Zeno needs a
    finite first detection, and a grid point t = inf needs both finite.
    """
    t_grid = _check_series_inputs(t1, t2, t_grid)
    psi0 = qstate.check_state(psi0)
    obs = qstate.check_observables(observables)
    meta = {"protocol": protocol, "t1": t1, "t2": t2,
            "hamiltonians": (h1.label, h2.label)}

    def averages(states):
        return {name: np.einsum("ti,ij,tj->t", states.conj(), op, states).real
                for name, op in obs.items()}

    head, branches = _series_states(protocol, psi0, h1, h2, t1, t2, t_grid, direction_a, direction_b)
    if protocol == "switching":
        meta["integrator"] = "closed-form switched propagator"
        return Trajectory(times=t_grid, states=head, observables=averages(head), metadata=meta)

    pre = averages(head)
    post = [(w, averages(states)) for w, states in branches if states is not None]
    values = {name: np.concatenate([pre[name], sum(w * vals[name] for w, vals in post)])
              for name in obs}

    meta["integrator"] = "closed-form branch mixture"
    meta["direction_a"] = tuple(float(x) for x in np.asarray(direction_a, dtype=float))
    meta["direction_b"] = tuple(float(x) for x in np.asarray(direction_b, dtype=float))
    meta["branch_weights"] = tuple(w for w, _ in branches)
    return Trajectory(times=t_grid, states=None, observables=values, metadata=meta)


# ---------------------------------------------------------------------------
# pre/post-selection mean-field demonstration


@dataclass(frozen=True)
class TeleportationReport:
    """Mean-field vectors of the selected sub-beam versus the full beam.

    ``b_pre`` and ``b_post`` are exact (coupling times the Bloch vector of
    the conditional and of the full-marginal state of particle #2);
    ``b_sampled`` estimates the mode's beam from simulated per-pair spin
    outcomes, axes assigned round robin.
    """

    selection: str
    n_pairs: int
    n_retained: int
    b_pre: np.ndarray
    b_post: np.ndarray
    b_sampled: np.ndarray
    retained_state: np.ndarray
    coupling: float


def _bloch(rho) -> np.ndarray:
    return np.array([
        np.trace(rho @ qstate.sigma_x).real,
        np.trace(rho @ qstate.sigma_y).real,
        np.trace(rho @ qstate.sigma_z).real,
    ])


def teleportation_demo(psi_pair, n_pairs: int, selection: str, alice_direction,
                       keep_alice_outcome: int = -1, coupling: float = 1.0,
                       seed: int = 1234) -> TeleportationReport:
    """Compare pre-selected and post-selected beams feeding a mean-field term.

    Pre-selection discards pairs by Alice's sampled outcome on particle #1
    before anything else happens to particle #2: the retained beam is in the
    conditional state, and its mean field can be nonzero even when the full
    beam's vanishes. Post-selection merely relabels complete data afterwards,
    so the field that ever acted is the full ensemble's.
    """
    psi_pair = qstate.check_state(psi_pair)
    if psi_pair.size != 4:
        raise ValueError("expected a two-qubit pair state")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if selection not in ("pre", "post"):
        raise ValueError("selection must be 'pre' or 'post'")
    if keep_alice_outcome not in (1, -1):
        raise ValueError("keep_alice_outcome must be +1 or -1")
    eplus, eminus = qstate.projector(alice_direction)
    keep_proj = eplus if keep_alice_outcome == 1 else eminus
    rho = np.outer(psi_pair, psi_pair.conj())
    rho_a = qstate.partial_trace(rho, (2, 2), keep=1)
    rho_b_full = qstate.partial_trace(rho, (2, 2), keep=2)

    p_keep = float(np.trace(rho_a @ keep_proj).real)
    raw = np.kron(keep_proj, qstate.identity(2)) @ rho @ np.kron(keep_proj, qstate.identity(2))
    if p_keep < DEAD_BRANCH_TOL:
        raise ValueError("selection rule retains no pairs: Alice never sees that outcome")
    rho_b_cond = qstate.partial_trace(raw / p_keep, (2, 2), keep=2)

    rng = np.random.default_rng(seed)
    alice_keep = rng.random(n_pairs) < p_keep
    n_retained = int(np.count_nonzero(alice_keep))
    if selection == "pre":
        if n_retained == 0:
            raise ValueError("selection retained no pairs in this sample")
        beam_state, beam_size = rho_b_cond, n_retained
    else:
        beam_state, beam_size = rho_b_full, n_pairs

    # empirical mean field: each beam member measures one axis, round robin
    bloch_beam = _bloch(beam_state)
    b_sampled = np.zeros(3)
    for axis in range(3):
        count = beam_size // 3 + (1 if axis < beam_size % 3 else 0)
        if count == 0:
            continue
        p_up = (1.0 + bloch_beam[axis]) / 2
        ups = int(np.count_nonzero(rng.random(count) < p_up))
        b_sampled[axis] = coupling * (2 * ups - count) / count

    return TeleportationReport(
        selection=selection,
        n_pairs=n_pairs,
        n_retained=n_retained if selection == "pre" else n_pairs,
        b_pre=coupling * _bloch(rho_b_cond),
        b_post=coupling * _bloch(rho_b_full),
        b_sampled=b_sampled,
        retained_state=rho_b_cond if selection == "pre" else rho_b_full,
        coupling=coupling,
    )
