"""Property tests for the spectral route, the batched propagators, the state right-hand sides and the numerical-failure checks."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nlqcorr import beams, dynamics, hamfun, protocols, qstate

SETTINGS = settings(max_examples=60, deadline=None)

seeds = st.integers(0, 2**32 - 1)


def random_unitary(seed, n):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def from_spectrum(seed, w):
    u = random_unitary(seed, len(w))
    h = (u * np.asarray(w, dtype=float)) @ u.conj().T
    return (h + h.conj().T) / 2


@st.composite
def spectra(draw, max_dim=16, low=-10.0, high=10.0, zeros=True):
    """Eigenvalue lists with repeated values and, optionally, a zero block."""
    n = draw(st.integers(1, max_dim))
    distinct = draw(st.lists(st.floats(low, high), min_size=1, max_size=n))
    nzero = draw(st.integers(0, n - 1)) if zeros else 0
    return [0.0] * nzero + [distinct[i % len(distinct)] for i in range(n - nzero)]


# --- spectral route ---

@SETTINGS
@given(spectra(), seeds)
def test_eigh_reconstructs_degenerate_and_rank_deficient(w, seed):
    h = from_spectrum(seed, w)
    got_w, v = qstate.eigh(h)
    scale = max(1.0, np.abs(w).max())
    assert np.all(np.diff(got_w) >= 0)
    assert np.max(np.abs(got_w - np.sort(w))) <= 1e-12 * scale
    assert np.max(np.abs((v * got_w) @ v.conj().T - h)) <= 1e-12 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(len(w)))) <= 1e-12


@SETTINGS
@given(spectra(), seeds, st.floats(-10, 10), st.floats(-10, 10))
def test_herm_exp_unitary_and_group_law(w, seed, s, t):
    h = from_spectrum(seed, w)
    n = len(w)
    us, ut = qstate.herm_exp(h, -1j * s), qstate.herm_exp(h, -1j * t)
    assert np.max(np.abs(us @ us.conj().T - np.eye(n))) <= 1e-12
    assert np.max(np.abs(us @ ut - qstate.herm_exp(h, -1j * (s + t)))) <= 1e-11


@SETTINGS
@given(spectra(low=1e-3, high=1.0, zeros=False), seeds, st.floats(0.25, 3.0))
def test_power_inverts_on_full_rank_density(p, seed, q):
    rho = from_spectrum(seed, np.asarray(p) / np.sum(p))
    rq, minw = qstate.herm_power(rho, q, dynamics.QVN_EIG_FLOOR)
    assert minw == pytest.approx(np.min(p) / np.sum(p), rel=1e-9, abs=1e-14)
    back, _ = qstate.herm_power(rq, 1.0 / q, dynamics.QVN_EIG_FLOOR)
    assert np.max(np.abs(back - rho)) <= 1e-9


# --- q-deformed flow ---

fractional_q = st.floats(0.2, 3.0).filter(lambda q: abs(q - round(q)) > 1e-3)


@st.composite
def qvn_setups(draw):
    d = draw(st.integers(2, 4))
    p = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)))
    rho0 = from_spectrum(draw(seeds), p / p.sum())
    hm = from_spectrum(draw(seeds), draw(st.lists(st.floats(-1, 1), min_size=d, max_size=d)))
    return hm, rho0


@SETTINGS
@given(qvn_setups(), fractional_q)
def test_qvn_fractional_isospectral_and_trace_preserving(setup, q):
    hm, rho0 = setup
    traj = dynamics.integrate_qvn(hm, rho0, q, 1.0, 1e-2)
    w0 = np.linalg.eigvalsh(rho0)
    for rho in traj.states[::20]:
        assert np.max(np.abs(np.linalg.eigvalsh(rho) - w0)) <= 1e-7
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12


def _failure_time(exc):
    return float(re.search(r"at t = (\S+)", str(exc)).group(1))


@SETTINGS
@given(qvn_setups(),
       st.one_of(st.tuples(fractional_q, st.floats(8.0, 150.0)),
                 st.tuples(st.sampled_from([1.0, 2.0, 3.0]), st.floats(100.0, 300.0))))
def test_qvn_oversized_step_raises_numerical_error(setup, q_and_log_coupling):
    hm, rho0 = setup
    q, log_coupling = q_and_log_coupling
    assume(np.linalg.norm(hm @ rho0 - rho0 @ hm) > 1e-2)
    dt, coupling = 0.5, 10.0 ** log_coupling
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(dynamics.NumericalError) as info:
            dynamics.integrate_qvn(hm, rho0, q, 50.0, dt, coupling=coupling)
        # the reported time is the start of the failing step: every step before it is fine
        t_bad = _failure_time(info.value)
        dynamics.integrate_qvn(hm, rho0, q, round(t_bad / dt) * dt, dt, coupling=coupling)


# --- state integrator ---

@SETTINGS
@given(st.floats(1.3, 200.0))
def test_integrate_oversized_step_names_first_bad_sample(log_coupling):
    hm = 10.0 ** log_coupling * qstate.sigma_z
    psi0 = np.array([1, 1], dtype=complex) / np.sqrt(2)
    dt = 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(dynamics.NumericalError) as info:
            dynamics.integrate(hamfun.linear(hm), psi0, 80.0, dt)
        # the reported time is the first bad sample: the run up to the one before it passes
        k = round(_failure_time(info.value) / dt)
        assert k >= 1
        dynamics.integrate(hamfun.linear(hm), psi0, (k - 1) * dt, dt)


@SETTINGS
@given(seeds, st.floats(-10, 10), st.floats(-10, 10), st.integers(2, 60), st.data())
def test_integrate_splits_steps_at_switches(seed, a, b, n, data):
    psi0 = random_unitary(seed, 4)[:, 0]
    dt = 1e-3
    k = data.draw(st.integers(1, n - 1))
    u, v = sorted(data.draw(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2, unique=True)))

    def run(t1, t2=np.inf):
        sched = hamfun.SwitchingSchedule((t1, t2), (2, 2))
        comp = hamfun.polchinski_extend(
            [hamfun.quadratic_average(qstate.sigma_z, c) for c in (a, b)], (2, 2), sched)
        traj = dynamics.integrate(comp, psi0, n * dt, dt)
        exact = [dynamics.exact_pair_propagator(psi0, a, b, sched, t) for t in traj.times]
        assert np.max(np.abs(traj.states - exact)) <= 1e-6
        return traj.states

    on_grid = run(k * dt)
    # a switch 1e-13 after a grid point, or within 1e-9 dt before one, acts at that point
    for t1 in (k * dt + 1e-13, k * dt - u * 1e-9 * dt):
        assert np.array_equal(run(t1), on_grid)
    run((k - 1 + u) * dt)  # strictly inside a step
    run((k - 1 + u) * dt, (k - 1 + v) * dt)  # two switches in one step


# --- closed-form pair propagator ---

def exact_pair_reference(psi0, coef_a, coef_b, schedule, t):
    """The closed form built from the two reduced density matrices."""
    rho = np.outer(psi0, psi0.conj())
    z1 = np.trace(qstate.partial_trace(rho, (2, 2), keep=1) @ qstate.sigma_z).real
    z2 = np.trace(qstate.partial_trace(rho, (2, 2), keep=2) @ qstate.sigma_z).real
    t1, t2 = schedule.detection_times
    alpha = coef_a * z1 * min(t, t1)
    beta = coef_b * z2 * min(t, t2)
    ph1 = np.array([np.exp(-1j * alpha), np.exp(1j * alpha)])
    ph2 = np.array([np.exp(-1j * beta), np.exp(1j * beta)])
    return np.kron(ph1, ph2) * psi0


@SETTINGS
@given(seeds, st.floats(-10, 10), st.floats(-10, 10),
       st.floats(0, 20), st.one_of(st.floats(0, 20), st.just(np.inf)), st.floats(0, 25))
def test_exact_pair_propagator_matches_reduced_state_reference(seed, a, b, t1, t2, t):
    psi0 = random_unitary(seed, 4)[:, 0]
    sched = hamfun.SwitchingSchedule((t1, t2), (2, 2))
    got = dynamics.exact_pair_propagator(psi0, a, b, sched, t)
    assert np.max(np.abs(got - exact_pair_reference(psi0, a, b, sched, t))) <= 1e-13


# --- batched propagation ---

FAST = settings(max_examples=30, deadline=None)

catalogue = st.tuples(st.sampled_from(hamfun.CATALOGUE_NAMES), st.floats(-10, 10))


def pair_state(seed):
    return random_unitary(seed, 4)[:, 0]


def one_particle_density(seed):
    psi = random_unitary(seed, 2)[:, 0]
    return np.outer(psi, psi.conj())


def nonconserved(cz, cx):
    # sigma_z quadratic plus sigma_x linear: the terms do not commute
    return hamfun.HamiltonianFunction("nonconserved", terms=(
        hamfun.GeneratorTerm(qstate.sigma_z, power=1, coef=cz),
        hamfun.GeneratorTerm(qstate.sigma_x, power=0, coef=cx)))


# unsorted, with zeros and repeats; the large ones reach phases of order 1e4
durations = st.lists(st.one_of(st.just(0.0), st.floats(0, 10), st.floats(10, 1e3)),
                     min_size=1, max_size=12).flatmap(
    lambda taus: st.permutations(taus + taus[: len(taus) // 2]))


def mixed_density(seed, d):
    """A random full-rank d-level density matrix."""
    return from_spectrum(seed, np.random.default_rng(seed).dirichlet(np.ones(d)))


def no_fallback(*args):
    raise AssertionError("propagator_family ran its RK4 fallback")


def closed_form_stack(h, rho0, taus):
    """propagator_family with the RK4 fallback disabled."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_rk4", no_fallback)
        return dynamics.propagator_family(h, rho0, taus)


@FAST
@given(catalogue, seeds, st.booleans(), durations)
# a subnormal coupling leaves the computed mean field no relative precision
@example(("mean-field", 2.2250738585e-313), 0, True, [1.0])
def test_propagator_stack_matches_single_durations_conserved(entry, seed, mixed, taus):
    # every catalogue entry takes the closed form, on pure and on mixed states
    h = hamfun.catalogue_entry(*entry)
    rho0 = mixed_density(seed, 2) if mixed else one_particle_density(seed)
    stack = closed_form_stack(h, rho0, taus)
    assert stack.shape == (len(taus), 2, 2)
    g = h.effective_matrix(rho0)
    for u, tau in zip(stack, taus):
        assert np.max(np.abs(u - closed_form_stack(h, rho0, [tau])[0])) <= 1e-12
        # independent closed form, to the roundoff of a phase |w| tau
        scale = max(1.0, np.abs(np.linalg.eigvalsh(g)).max() * tau)
        assert np.max(np.abs(u - qstate.herm_exp(g, -1j * tau))) <= 1e-14 * scale


@FAST
@given(st.floats(0.5, 4.0), st.floats(0.5, 4.0), seeds,
       st.lists(st.integers(0, 200), min_size=1, max_size=6))
def test_propagator_stack_matches_single_durations_nonconserved(cz, cx, seed, steps):
    # durations on the fallback grid, unsorted and repeated, so the incremental
    # RK4 takes the same steps as a run from zero to each duration
    dt = dynamics.FALLBACK_DT
    taus = [k * dt for k in steps + steps[:2]]
    h = nonconserved(cz, cx)
    rho0 = one_particle_density(seed)
    stack = dynamics.propagator_family(h, rho0, taus)
    for u, tau in zip(stack, taus):
        single = dynamics.propagator_family(h, rho0, [tau])[0]
        assert np.max(np.abs(u - single)) <= 1e-12


@pytest.mark.parametrize("as_callable", [False, True])
def test_stiff_fallback_raises_numerical_error(as_callable):
    # energy 5000 <sigma_z>^2 + 3000 <sigma_x>: a FALLBACK_DT step of RK4 is unstable
    # for it, and as a callable its finite-difference gradient turns non-finite
    def energy(rho):
        return 5000.0 * np.trace(rho @ qstate.sigma_z).real ** 2 + 3000.0 * np.trace(rho @ qstate.sigma_x).real

    h = hamfun.from_callable(energy) if as_callable else hamfun.HamiltonianFunction("stiff", terms=(
        hamfun.GeneratorTerm(qstate.sigma_z, power=1, coef=10000.0),
        hamfun.GeneratorTerm(qstate.sigma_x, power=0, coef=3000.0)))
    rho0 = np.array([[0.8, 0.3], [0.3, 0.2]], dtype=complex)
    # a pair whose first particle has the reduced state rho0
    w, v = np.linalg.eigh(rho0)
    psi0 = np.sqrt(w[0]) * np.kron(v[:, 0], [1, 0]) + np.sqrt(w[1]) * np.kron(v[:, 1], [0, 1])
    obs = {"zz": np.kron(qstate.sigma_z, qstate.sigma_z)}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(dynamics.NumericalError, match=r"durations in \(0, 0\.01\] at FALLBACK_DT"):
            dynamics.propagator_family(h, rho0, [0.5, 0.01])
        with pytest.raises(dynamics.NumericalError):
            protocols.ensemble_average_trajectory(
                "switching", psi0, h, hamfun.catalogue_entry("linear-z"), 0.3, 0.4, obs,
                np.arange(11) * 0.05)


def test_propagator_family_rejects_bad_durations():
    h = hamfun.catalogue_entry("quadratic-z", 1.0)
    rho0 = one_particle_density(0)
    for bad in ([-1.0], [0.5, np.nan], [np.inf], [[0.5]]):
        with pytest.raises(ValueError):
            dynamics.propagator_family(h, rho0, bad)


def sub_beam_loop(beam, t):
    """Per-pair oracle: one switched pair state and one partial trace per pair."""
    out = []
    for t0, t1, t2 in beam.times:
        psi = dynamics.switched_states(
            beam.psi0, (beam.h1, beam.h2), ([max(0.0, min(t, t1) - t0)], [max(0.0, min(t, t2) - t0)]))[0]
        out.append(qstate.partial_trace(np.outer(psi, psi.conj()), (2, 2), keep=1))
    return np.stack(out)


@st.composite
def beam_setups(draw):
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(seeds))
    births = rng.uniform(0.0, 4.0, n)
    flights = rng.exponential(2.5, size=(3, n))
    h1 = hamfun.catalogue_entry(*draw(catalogue))
    h2 = hamfun.catalogue_entry(*draw(catalogue))
    return pair_state(draw(seeds)), h1, h2, births, flights, draw(st.floats(0.0, 8.0))


@FAST
@given(beam_setups())
def test_sub_beam_state_matches_pair_loop_and_ignores_t2(setup):
    psi0, h1, h2, births, (f1, f2, f2_redrawn), t = setup
    beam = beams.BeamSpec.from_flight_times(psi0, h1, h2, births, f1, f2)
    got = beams.sub_beam_state(beam, t)
    assert got.shape == (beam.n_pairs, 2, 2)
    assert np.max(np.abs(got - sub_beam_loop(beam, t))) <= 1e-12
    redrawn = beams.sub_beam_state(
        beams.BeamSpec.from_flight_times(psi0, h1, h2, births, f1, f2_redrawn), t)
    assert np.max(np.abs(got - redrawn)) <= 1e-12


def locality_series_per_point(protocol, psi0, h1, h2, t1, t2, grid, keep, direction_a):
    """The reduced-state series as locality-check computed it, point by point."""
    def reduced(psi):
        return qstate.partial_trace(np.outer(psi, psi.conj()), (2, 2), keep=keep)

    if protocol == "switching":
        return np.stack([reduced(dynamics.switched_states(
            psi0, (h1, h2), ([min(t, t1)], [min(t, t2)]))[0]) for t in grid])
    psi_t1 = dynamics.switched_states(psi0, (h1, h2), ([t1], [t1]))[0]
    branches = []
    for e in qstate.projector(direction_a):
        v = np.kron(e, qstate.identity(2)) @ psi_t1
        w = np.vdot(v, v).real
        if w >= protocols.DEAD_BRANCH_TOL:
            branches.append((w, v / np.sqrt(w)))
    series = []
    for t in grid:
        if t <= t1:
            series.append(reduced(dynamics.switched_states(psi0, (h1, h2), ([t], [t]))[0]))
            continue
        mix = np.zeros((2, 2), dtype=complex)
        for w, v in branches:
            u2 = dynamics.propagator_family(
                h2, qstate.partial_trace(np.outer(v, v.conj()), (2, 2), keep=2), [min(t, t2) - t1])[0]
            mix += w * reduced(np.kron(qstate.identity(2), u2) @ v)
        series.append(mix)
    return np.stack(series)


@FAST
@given(catalogue, catalogue, seeds, st.integers(2, 15), st.floats(0.05, 0.5),
       st.floats(0.0, 0.8), st.floats(0.0, 1.0))
def test_reduced_state_series_matches_per_point_formula(e1, e2, seed, n, dt, u1, u2):
    psi0 = pair_state(seed)
    h1, h2 = hamfun.catalogue_entry(*e1), hamfun.catalogue_entry(*e2)
    grid = np.arange(n) * dt
    # both detection times mostly inside the grid, t1 <= t2
    t1 = u1 * grid[-1]
    t2 = t1 + u2 * grid[-1]
    for protocol in ("switching", "zeno"):
        for keep in (1, 2):
            args = (protocol, psi0, h1, h2, t1, t2, grid, keep, (1.0, 0.0, 0.0))
            got = protocols.reduced_state_series(*args)
            assert got.shape == (n, 2, 2)
            assert np.max(np.abs(got - locality_series_per_point(*args))) <= 1e-12


def zeno_table_per_branch(psi0, h1, h2, t1, t2, direction_a, direction_b):
    """The Zeno outcome table and dead branches, one branch and one kron product at a time."""
    psi_t1 = dynamics.switched_states(psi0, (h1, h2), ([t1], [t1]))[0]
    eye2 = qstate.identity(2)
    outcomes, dead = {}, []
    for sa, ea in zip((1, -1), qstate.projector(direction_a)):
        v = np.kron(ea, eye2) @ psi_t1
        w = float(np.vdot(v, v).real)
        if w < protocols.DEAD_BRANCH_TOL:
            dead.append(sa)
            outcomes.update({(sa, 1): 0.0, (sa, -1): 0.0})
            continue
        v = v / np.sqrt(w)
        rho2 = qstate.partial_trace(np.outer(v, v.conj()), (2, 2), keep=2)
        vt = np.kron(eye2, dynamics.propagator_family(h2, rho2, [t2 - t1])[0]) @ v
        for sb, eb in zip((1, -1), qstate.projector(direction_b)):
            outcomes[(sa, sb)] = w * qstate.expectation(vt, np.kron(ea, eb))
    return outcomes, tuple(dead)


def unit_vector(seed):
    v = np.random.default_rng(seed).normal(size=3)
    return v / np.linalg.norm(v)


@st.composite
def zeno_setups(draw, first=1):
    """Random pair, generators, times and axes with particle ``first`` detected first
    (strictly, for #2); some pairs start on an eigenstate of that particle's axis at
    its detection time 0, so that one projection branch is dead."""
    h1, h2 = (hamfun.catalogue_entry(*draw(catalogue)) for _ in range(2))
    da, db = unit_vector(draw(seeds)), unit_vector(draw(seeds))
    late = draw(st.floats(0.0, 6.0))
    if draw(st.booleans()):
        e = qstate.projector((da, db)[first - 1])[draw(st.integers(0, 1))]
        up = e[:, np.argmax(np.linalg.norm(e, axis=0))]
        up, other = up / np.linalg.norm(up), random_unitary(draw(seeds), 2)[:, 0]
        psi0, early = (np.kron(up, other) if first == 1 else np.kron(other, up)), 0.0
    else:
        psi0, early = pair_state(draw(seeds)), draw(st.floats(0.0, 1.0)) * late
    if first == 1:
        return psi0, h1, h2, early, late, da, db
    assume(early < late)
    return psi0, h1, h2, late, early, da, db


@FAST
@given(zeno_setups())
def test_zeno_correlator_matches_per_branch_table(setup):
    table = protocols.zeno_correlator(*setup)
    outcomes, dead = zeno_table_per_branch(*setup)
    assert table.dead_branches == dead
    for key, p in outcomes.items():
        assert abs(table.outcomes[key] - p) <= 1e-14
    for sa in dead:
        assert table.outcomes[(sa, 1)] == table.outcomes[(sa, -1)] == 0.0


@FAST
@given(zeno_setups())
def test_table_marginals_match_reduced_state_series(setup):
    psi0, h1, h2, t1, t2, da, db = setup
    tables = {
        "switching": protocols.switching_correlator(
            psi0, h1, h2, t1, t2, qstate.pauli_vector(da), qstate.pauli_vector(db), (da, db)),
        "zeno": protocols.zeno_correlator(psi0, h1, h2, t1, t2, da, db),
    }
    for protocol, table in tables.items():
        rho2 = protocols.reduced_state_series(
            protocol, psi0, h1, h2, t1, t2, [t2], keep=2, direction_a=da)[0]
        for sb, eb in zip((1, -1), qstate.projector(db)):
            assert abs(table.marginal("second", sb) - np.trace(eb @ rho2).real) <= 1e-13
    weights = protocols.ensemble_average_trajectory(
        "zeno", psi0, h1, h2, t1, t2, {}, [t2], direction_a=da).metadata["branch_weights"]
    for sa, w in zip((1, -1), weights):
        assert abs(tables["zeno"].marginal("first", sa) - w) <= 1e-13


def second_first_branches(psi0, h1, h2, t2, direction_b):
    """(sign of #2, its projector, weight, renormalized state or None) of projecting #2 at t2."""
    psi_t2 = dynamics.switched_states(psi0, (h1, h2), ([t2], [t2]))[0]
    branches = []
    for sb, eb in zip((1, -1), qstate.projector(direction_b)):
        v = np.kron(qstate.identity(2), eb) @ psi_t2
        w = float(np.vdot(v, v).real)
        branches.append((sb, eb, w, None if w < protocols.DEAD_BRANCH_TOL else v / np.sqrt(w)))
    return branches


def evolve_first_particle(h1, v, tau):
    """kron(U1, I) v, with U1 particle #1's flow from its branch-conditioned state."""
    rho1 = qstate.partial_trace(np.outer(v, v.conj()), (2, 2), keep=1)
    return np.kron(dynamics.propagator_family(h1, rho1, [tau])[0], qstate.identity(2)) @ v


def second_first_table(psi0, h1, h2, t1, t2, direction_a, direction_b):
    """The Zeno table and dead branches for t2 < t1, projecting #2 first."""
    outcomes, dead = {}, []
    for sb, eb, w, v in second_first_branches(psi0, h1, h2, t2, direction_b):
        if v is None:
            dead.append(sb)
            outcomes.update({(1, sb): 0.0, (-1, sb): 0.0})
            continue
        vt = evolve_first_particle(h1, v, t1 - t2)
        for sa, ea in zip((1, -1), qstate.projector(direction_a)):
            outcomes[(sa, sb)] = w * qstate.expectation(vt, np.kron(ea, eb))
    return outcomes, tuple(dead)


def second_first_series(psi0, h1, h2, t1, t2, grid, keep, direction_b):
    """The Zeno reduced-state series of particle ``keep`` for t2 < t1, point by point."""
    def reduced(psi):
        return qstate.partial_trace(np.outer(psi, psi.conj()), (2, 2), keep=keep)

    branches = second_first_branches(psi0, h1, h2, t2, direction_b)
    series = []
    for t in grid:
        if t <= t2:
            series.append(reduced(dynamics.switched_states(psi0, (h1, h2), ([t], [t]))[0]))
            continue
        series.append(sum(w * reduced(evolve_first_particle(h1, v, min(t, t1) - t2))
                          for _, _, w, v in branches if v is not None))
    return np.stack(series)


def grid_through(*times):
    """A grid from 0 past the latest time that contains the given times."""
    return np.union1d(np.linspace(0.0, max(times) + 1.0, 7), times)


@FAST
@given(zeno_setups(first=2))
def test_zeno_projects_the_second_particle_when_it_is_detected_first(setup):
    psi0, h1, h2, t1, t2, da, db = setup
    table = protocols.zeno_correlator(*setup)
    outcomes, dead = second_first_table(*setup)
    assert table.dead_branches == dead
    for key, p in outcomes.items():
        assert abs(table.outcomes[key] - p) <= 1e-14
    for sb in dead:
        assert table.outcomes[(1, sb)] == table.outcomes[(-1, sb)] == 0.0
    grid = grid_through(t1, t2)
    for keep in (1, 2):
        got = protocols.reduced_state_series("zeno", psi0, h1, h2, t1, t2, grid, keep, da, db)
        assert np.max(np.abs(got - second_first_series(psi0, h1, h2, t1, t2, grid, keep, db))) <= 1e-13


@FAST
@given(zeno_setups(first=2))
def test_zeno_is_symmetric_under_exchanging_the_particles(setup):
    psi0, h1, h2, t1, t2, da, db = setup
    mirror = (psi0.reshape(2, 2).T.reshape(-1), h2, h1, t2, t1, db, da)
    table, mirrored = protocols.zeno_correlator(*setup), protocols.zeno_correlator(*mirror)
    assert table.dead_branches == mirrored.dead_branches
    for (s1, s2), p in table.outcomes.items():
        assert abs(p - mirrored.outcomes[(s2, s1)]) <= 1e-14
    grid = grid_through(t1, t2)
    for keep in (1, 2):
        got = protocols.reduced_state_series("zeno", *setup[:5], grid, keep, da, db)
        want = protocols.reduced_state_series("zeno", *mirror[:5], grid, 3 - keep, db, da)
        assert np.max(np.abs(got - want)) <= 1e-14


@FAST
@given(seeds, seeds, seeds, st.floats(-5, 5), st.floats(-5, 5), st.floats(0.0, 6.0),
       st.floats(0.0, 6.0), seeds, seeds)
def test_bilinear_zeno_equals_switching_in_either_order(s1, s2, s_psi, c1, c2, t1, t2, s_a, s_b):
    h1 = hamfun.linear(from_spectrum(s1, [c1, -c1]))
    h2 = hamfun.linear(from_spectrum(s2, [c2, 0.0]))
    psi0, da, db = pair_state(s_psi), unit_vector(s_a), unit_vector(s_b)
    sw = protocols.switching_correlator(
        psi0, h1, h2, t1, t2, qstate.pauli_vector(da), qstate.pauli_vector(db), (da, db))
    ze = protocols.zeno_correlator(psi0, h1, h2, t1, t2, da, db)
    for key, p in sw.outcomes.items():
        assert abs(ze.outcomes[key] - p) <= 1e-12
    assert abs(ze.correlator - sw.correlator) <= 1e-12
    # the particle detected later does not see which way the other was measured
    later = 1 if t2 < t1 else 2
    grid = grid_through(t1, t2)
    series = [protocols.reduced_state_series(protocol, psi0, h1, h2, t1, t2, grid, later, da, db)
              for protocol in ("switching", "zeno")]
    assert np.max(np.abs(series[0] - series[1])) <= 1e-12


# --- covariance under local unitaries ---

def conjugated(h, u):
    """h with each term's operator O replaced by u O u^dag."""
    terms = tuple(hamfun.GeneratorTerm(u @ t.operator @ u.conj().T, t.power, t.coef) for t in h.terms)
    return hamfun.HamiltonianFunction(h.label, terms=terms)


def bloch_rotation(u):
    """The rotation R with u (a.sigma) u^dag = (R a).sigma."""
    paulis = (qstate.sigma_x, qstate.sigma_y, qstate.sigma_z)
    return np.array([[np.trace(p @ u @ q @ u.conj().T).real / 2 for q in paulis] for p in paulis])


@st.composite
def term_generators(draw):
    """A catalogue entry, a quadratic term on a random axis, or that term plus a
    linear one on another axis (non-conserved, so it takes the RK4 fallback)."""
    kind = draw(st.sampled_from(("catalogue", "axis", "nonconserved")))
    if kind == "catalogue":
        return hamfun.catalogue_entry(*draw(catalogue))
    terms = [hamfun.GeneratorTerm(qstate.pauli_vector(unit_vector(draw(seeds))), 1, draw(st.floats(-5, 5)))]
    if kind == "nonconserved":
        terms.append(hamfun.GeneratorTerm(qstate.pauli_vector(unit_vector(draw(seeds))), 0,
                                          draw(st.floats(0.5, 4.0))))
    return hamfun.HamiltonianFunction(kind, terms=terms)


@st.composite
def covariance_setups(draw):
    h1, h2 = draw(term_generators()), draw(term_generators())
    # the fallback steps at FALLBACK_DT up to the latest detection, so keep those runs short
    late = 0.25 if "nonconserved" in (h1.label, h2.label) else 6.0
    # drawn independently, so either particle may be detected first
    times = draw(st.floats(0.0, late)), draw(st.floats(0.0, late))
    us = random_unitary(draw(seeds), 2), random_unitary(draw(seeds), 2)
    return pair_state(draw(seeds)), (h1, h2), times, (unit_vector(draw(seeds)), unit_vector(draw(seeds))), us


def protocol_readouts(psi0, hs, times, axes):
    """Both outcome tables and the reduced-state series of both particles under both protocols."""
    (h1, h2), (t1, t2), (da, db) = hs, times, axes
    tables = (protocols.switching_correlator(psi0, h1, h2, t1, t2, qstate.pauli_vector(da),
                                             qstate.pauli_vector(db), axes),
              protocols.zeno_correlator(psi0, h1, h2, t1, t2, da, db))
    series = {(protocol, keep): protocols.reduced_state_series(
                  protocol, psi0, h1, h2, t1, t2, grid_through(t1, t2), keep, da, db)
              for protocol in ("switching", "zeno") for keep in (1, 2)}
    return tables, series


@FAST
@given(covariance_setups())
def test_protocols_are_covariant_under_local_unitaries(setup):
    psi0, hs, times, axes, us = setup
    mapped_psi0 = np.kron(*us) @ psi0
    mapped_hs = tuple(conjugated(h, u) for h, u in zip(hs, us))
    mapped_axes = tuple(bloch_rotation(u) @ a for u, a in zip(us, axes))
    tables, series = protocol_readouts(psi0, hs, times, axes)
    mapped_tables, mapped_series = protocol_readouts(mapped_psi0, mapped_hs, times, mapped_axes)
    # a table checks that its outcomes sum to 1, so an all-zero table cannot pass as invariant
    for table, mapped in zip(tables, mapped_tables):
        assert table.dead_branches == mapped.dead_branches
        assert abs(table.correlator - mapped.correlator) <= 1e-12
        for key, p in table.outcomes.items():
            assert abs(mapped.outcomes[key] - p) <= 1e-12
    for (protocol, keep), rho in series.items():
        u = us[keep - 1]
        assert np.max(np.abs(mapped_series[protocol, keep] - u @ rho @ u.conj().T)) <= 1e-12


# --- state right-hand sides ---

def unit_hermitian(seed, d):
    """A random Hermitian matrix of spectral norm 1."""
    h = from_spectrum(seed, np.random.default_rng(seed).uniform(-1.0, 1.0, d))
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def quadratic_energy(coef, op):
    def energy(rho):
        return coef * np.trace(rho @ op).real ** 2 / 2
    return energy


def quadratic_gradient(coef, op):
    def gradient(rho):
        return coef * np.trace(rho @ op).real * op
    return gradient


@st.composite
def factor_parts(draw, d):
    """One Hamiltonian function on a d-level factor: explicit terms, a supplied gradient or FD."""
    kind = draw(st.sampled_from(["terms", "gradient", "fd"]))
    coef = draw(st.floats(-2.0, 2.0))
    op = unit_hermitian(draw(seeds), d)
    if kind == "terms":
        extra = hamfun.GeneratorTerm(unit_hermitian(draw(seeds), d), draw(st.integers(0, 2)),
                                     draw(st.floats(-2.0, 2.0)))
        return hamfun.HamiltonianFunction(
            "terms", terms=(hamfun.GeneratorTerm(op, power=1, coef=coef), extra))
    if kind == "gradient":
        return hamfun.from_callable(quadratic_energy(coef, op), gradient=quadratic_gradient(coef, op))
    quadratic, linear_op = quadratic_energy(coef, op), unit_hermitian(draw(seeds), d)

    def energy(rho):
        return quadratic(rho) + np.trace(rho @ linear_op).real
    return hamfun.from_callable(energy)


detection_times = st.one_of(st.floats(0.0, 2.0), st.just(np.inf))


@st.composite
def multiparty_setups(draw):
    """Qubit catalogue entries and single-term qutrit generators on two or three
    factors, detection times drawn from ``detection_times``, and an evolution
    time on the integrator grid."""
    dims = draw(st.sampled_from([(2, 2, 2), (2, 3), (3, 2, 2)]))
    parts = []
    for d in dims:
        coef = draw(st.floats(-3.0, 3.0))
        if d == 2:
            parts.append(hamfun.catalogue_entry(draw(st.sampled_from(hamfun.CATALOGUE_NAMES)), coef))
        else:
            op = unit_hermitian(draw(seeds), d)
            parts.append(draw(st.sampled_from([hamfun.linear(coef * op),
                                               hamfun.quadratic_average(op, coef)])))
    times = [draw(detection_times) for _ in dims]
    psi0 = random_unitary(draw(seeds), int(np.prod(dims)))[:, 0]
    return dims, parts, times, psi0, draw(st.integers(0, 2500))


@settings(max_examples=15, deadline=None)
@given(multiparty_setups())
def test_switched_states_matches_multiparty_integrator(setup):
    dims, parts, times, psi0, steps = setup
    dt = 1e-3
    comp = hamfun.polchinski_extend(parts, dims, hamfun.SwitchingSchedule(tuple(times), dims))
    ref = dynamics.integrate(comp, psi0, steps * dt, dt).states[-1]
    taus = [[min(steps * dt, tk)] for tk in times]
    got = dynamics.switched_states(psi0, parts, taus, dims)[0]
    assert np.max(np.abs(got - ref)) <= 1e-7


def fixed_point_generators(d, seed):
    """A term generator whose terms do not commute, and a finite-difference energy."""
    a, b = unit_hermitian(seed, d), unit_hermitian(seed + 1, d)
    terms = hamfun.HamiltonianFunction("nonconserved", terms=(
        hamfun.GeneratorTerm(a, power=1, coef=1.0), hamfun.GeneratorTerm(b, power=0, coef=0.5)))
    quadratic = quadratic_energy(1.0, a)
    return terms, hamfun.from_callable(lambda rho: quadratic(rho) + np.trace(rho @ b).real)


@FAST
@given(st.sampled_from([2, 3]), seeds, st.lists(st.floats(0, 1), min_size=1, max_size=6))
def test_any_generator_takes_the_closed_form_at_the_maximally_mixed_state(d, seed, taus):
    # every G commutes with I/d, so I/d is a fixed point of any flow
    rho0 = np.eye(d, dtype=complex) / d
    for h in fixed_point_generators(d, seed):
        assert not h.terms_commute
        g = h.effective_matrix(rho0)
        for u, tau in zip(closed_form_stack(h, rho0, taus), taus):
            assert np.max(np.abs(u - qstate.herm_exp(g, -1j * tau))) <= 1e-14


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([2, 3]), seeds, detection_times, detection_times, st.integers(0, 300))
def test_switched_states_at_a_fixed_point_matches_the_integrator(d, seed, t1, t2, steps):
    # both factors of a maximally entangled pair start, and stay, at I/d
    parts, dims, dt = fixed_point_generators(d, seed), (d, d), 0.005
    psi0 = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    comp = hamfun.polchinski_extend(parts, dims, hamfun.SwitchingSchedule((t1, t2), dims))
    ref = dynamics.integrate(comp, psi0, steps * dt, dt).states[-1]
    got = dynamics.switched_states(psi0, parts, [[min(steps * dt, t1)], [min(steps * dt, t2)]], dims)[0]
    assert np.max(np.abs(got - ref)) <= 1e-7


@SETTINGS
@given(st.lists(st.integers(2, 3), min_size=2, max_size=3), st.integers(1, 5), seeds, st.data())
def test_reduced_states_match_partial_trace(dims, n, seed, data):
    keep = data.draw(st.integers(1, len(dims)))
    psis = np.stack([random_unitary(seed + i, int(np.prod(dims)))[:, 0] for i in range(n)])
    got = qstate.reduced_states(psis, dims, keep)
    assert got.shape == (n, dims[keep - 1], dims[keep - 1])
    for psi, rho in zip(psis, got):
        ref = qstate.partial_trace(np.outer(psi, psi.conj()), dims, keep)
        assert np.max(np.abs(rho - ref)) <= 1e-14


@st.composite
def switched_generators(draw, structured_only=False):
    dims = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 2, 2)]))
    if structured_only:
        parts = [hamfun.HamiltonianFunction("terms", terms=tuple(
            hamfun.GeneratorTerm(unit_hermitian(draw(seeds), d), draw(st.integers(0, 2)),
                                 draw(st.floats(-1.0, 1.0)))
            for _ in range(draw(st.integers(1, 3))))) for d in dims]
    else:
        parts = [draw(factor_parts(d)) for d in dims]
    times = [draw(detection_times) for _ in dims]
    h = hamfun.SwitchedHamiltonian(parts, hamfun.SwitchingSchedule(tuple(times), dims))
    return h, random_unitary(draw(seeds), int(np.prod(dims)))[:, 0], draw(st.floats(0.0, 2.5))


def switched_on(h, t):
    """(k, part) for every part of ``h`` still on at time t."""
    return [(k, part) for k, (part, tk) in enumerate(zip(h.parts, h.schedule.detection_times))
            if t < tk]


@FAST
@given(switched_generators())
def test_factorwise_apply_matches_composite_matrix(setup):
    h, psi, t = setup
    dims = h.schedule.subsystem_dims
    rho = np.outer(psi, psi.conj())

    def reduced(k):
        # summed in the integrator's order: a finite-difference gradient magnifies
        # the last bits of rho_k by 1 / FD_STEP
        x = np.moveaxis(psi.reshape(dims), k, 0).reshape(dims[k], -1)
        rho_k = x @ x.conj().T
        assert np.max(np.abs(rho_k - qstate.partial_trace(rho, dims, k + 1))) <= 1e-14
        return rho_k

    m = np.zeros((psi.size, psi.size), dtype=complex)
    for k, part in switched_on(h, t):
        m += qstate.lift_operator(part.effective_matrix(reduced(k)), dims, k)
    got = dynamics._segment_rhs(h)(t)(psi)
    assert np.max(np.abs(got - -1j * m @ psi)) <= 1e-12


def state_generator_loop(psi, ops, coefs, powers):
    """-i M(psi) psi for M = sum_j c_j <O_j>^p_j O_j, one term at a time."""
    dpsi = np.zeros(psi.size, dtype=complex)
    for op, c, p in zip(ops, coefs, powers):
        w = op @ psi
        if p != 0:
            c = c * (np.conj(psi) * w).sum().real ** p
        dpsi += c * w
    return -1j * dpsi


@FAST
@given(switched_generators(structured_only=True))
def test_stacked_structured_rhs_matches_term_loop(setup):
    h, psi, t = setup
    dims = h.schedule.subsystem_dims
    terms = [(k, term) for k, part in switched_on(h, t) for term in part.terms]
    ref = state_generator_loop(psi, [qstate.lift_operator(term.operator, dims, k) for k, term in terms],
                               [term.coef for _, term in terms], [term.power for _, term in terms])
    assert np.max(np.abs(dynamics._segment_rhs(h)(t)(psi) - ref)) <= 1e-14


def fd_gradient_loop(energy, rho, step):
    """The central-difference gradient as a loop that builds every direction on each call."""
    d = rho.shape[0]
    g = np.zeros((d, d), dtype=complex)
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        g[i, i] = (energy(rho + step * e) - energy(rho - step * e)) / (2 * step)
    for i in range(d):
        for j in range(i + 1, d):
            ex = np.zeros((d, d), dtype=complex)
            ex[i, j] = 1.0
            ex[j, i] = 1.0
            dx = (energy(rho + step * ex) - energy(rho - step * ex)) / (2 * step)
            ey = np.zeros((d, d), dtype=complex)
            ey[i, j] = 1j
            ey[j, i] = -1j
            dy = (energy(rho + step * ey) - energy(rho - step * ey)) / (2 * step)
            g[i, j] = (dx + 1j * dy) / 2
            g[j, i] = (dx - 1j * dy) / 2
    return g


def bits(a):
    return np.asarray(a, dtype=complex).view(np.uint64)


@SETTINGS
@given(st.integers(1, 4), seeds, st.floats(-3.0, 3.0), st.floats(-7.0, -3.0))
def test_fd_gradient_matches_direction_loop_bit_for_bit(d, seed, coef, log_step):
    rng = np.random.default_rng(seed)
    rho = from_spectrum(seed, rng.uniform(0.0, 1.0, d))
    op = unit_hermitian(seed + 1, d)
    step = 10.0 ** log_step

    def recorder(calls):
        def energy(r):
            calls.append(r.copy())
            return float(coef * np.trace(r @ op).real ** 3 + np.trace(r @ r).real)
        return energy

    got_calls, ref_calls = [], []
    got = hamfun._fd_gradient(recorder(got_calls), rho, step)
    ref = fd_gradient_loop(recorder(ref_calls), rho, step)
    assert np.array_equal(bits(got), bits(ref))
    # the same 2 d^2 perturbed matrices, in the same order
    assert len(got_calls) == len(ref_calls) == 2 * d * d
    assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(got_calls, ref_calls))


def off_grid_times(draw, dt, n):
    # a switch strictly inside a step, or never
    return [draw(st.one_of(st.just(np.inf), st.builds(
        lambda k, u: (k + u) * dt, st.integers(0, n - 1), st.floats(0.05, 0.95))))
        for _ in range(2)]


@FAST
@given(st.data(), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), seeds, seeds)
def test_structured_and_generic_paths_give_one_trajectory(data, a, b, seed_op, seed_psi):
    dt, n = 0.01, 40
    sched = hamfun.SwitchingSchedule(tuple(off_grid_times(data.draw, dt, n)), (2, 2))
    ops = (qstate.sigma_z, unit_hermitian(seed_op, 2))
    catalogue_pair = [hamfun.quadratic_average(op, c) for op, c in zip(ops, (a, b))]
    wrapped_pair = [hamfun.from_callable(quadratic_energy(c, op), gradient=quadratic_gradient(c, op))
                    for op, c in zip(ops, (a, b))]
    psi0 = pair_state(seed_psi)
    structured = hamfun.polchinski_extend(catalogue_pair, (2, 2), sched)
    generic = hamfun.polchinski_extend(wrapped_pair, (2, 2), sched)
    # the stacked path needs terms on every part, the factor-wise path takes the rest
    assert all(p.terms for p in catalogue_pair) and not any(p.terms for p in wrapped_pair)
    ref = dynamics.integrate(structured, psi0, n * dt, dt)
    got = dynamics.integrate(generic, psi0, n * dt, dt)
    assert np.max(np.abs(got.states - ref.states)) <= 1e-12


# --- non-finite inputs ---

non_finite = st.sampled_from([np.nan, np.inf, -np.inf, complex(np.nan, 1.0), complex(0.0, -np.inf)])


@FAST
@given(st.integers(1, 8), seeds, st.integers(0, 63), non_finite)
def test_non_finite_state_is_rejected(n, seed, pos, bad):
    psi = random_unitary(seed, n)[:, 0]
    psi[pos % n] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError):
            qstate.check_state(psi)
        with pytest.raises(ValueError):
            dynamics.integrate(hamfun.linear(qstate.identity(n)), psi, 0.1, 0.01)


@FAST
@given(spectra(max_dim=6, low=0.1, high=1.0, zeros=False), seeds, st.integers(0, 63),
       st.integers(0, 63), non_finite)
def test_non_finite_matrix_is_rejected(w, seed, i, j, bad):
    n = len(w)
    good = from_spectrum(seed, np.asarray(w) / np.sum(w))
    m = good.copy()
    # placed on both mirror entries, so only finiteness can reject it
    m[i % n, j % n] = m[j % n, i % n] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for check in (qstate.check_hermitian, qstate.check_density_matrix, qstate.eigh):
            with pytest.raises(ValueError):
                check(m)
        with pytest.raises(ValueError):
            dynamics.integrate_qvn(m, good, 1.0, 0.1, 0.01)
        with pytest.raises(ValueError):
            dynamics.integrate_qvn(good, m, 0.5, 0.1, 0.01)


@FAST
@given(st.integers(1, 3), seeds, st.integers(0, 63), st.integers(0, 63), non_finite)
def test_non_finite_supplied_gradient_is_rejected(d, seed, i, j, bad):
    g = unit_hermitian(seed, d)
    g[i % d, j % d] = g[j % d, i % d] = bad
    h = hamfun.from_callable(lambda rho: 0.0, gradient=lambda rho: g)
    psi0 = random_unitary(seed, d)[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(hamfun.NonFiniteGradient):
            h.effective_matrix(np.outer(psi0, psi0.conj()))
        with pytest.raises(dynamics.NumericalError):
            dynamics.integrate(h, psi0, 0.1, 0.01)
