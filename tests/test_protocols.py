import math
import warnings

import numpy as np
import pytest

from nlqcorr import dynamics, hamfun, protocols, qstate
from _util import random_direction, random_hermitian, random_state

I2 = np.eye(2, dtype=complex)
XHAT = (1.0, 0.0, 0.0)


def quad_pair(a=8.0, b=0.5):
    return (hamfun.quadratic_average(qstate.sigma_z, a),
            hamfun.quadratic_average(qstate.sigma_z, b))


def random_history(rng, dim=2):
    gen = random_hermitian(rng, dim)
    times = np.sort(rng.uniform(0.2, 5.0, size=2))
    projs = tuple(
        (float(t), np.outer(v, v.conj()))
        for t, v in ((t, random_state(rng, dim)) for t in times))
    a, b = random_state(rng, dim), random_state(rng, dim)
    w = rng.uniform(0.2, 0.8)
    rho0 = w * np.outer(a, a.conj()) + (1 - w) * np.outer(b, b.conj())
    return protocols.HistorySpec(projs, gen), rho0


# --- histories ---

def test_history_certain_event(rng):
    gen = random_hermitian(rng, 2)
    spec = protocols.HistorySpec(((1.0, I2.copy()),), gen)
    psi = random_state(rng, 2)
    rho0 = np.outer(psi, psi.conj())
    assert protocols.history_probability_unitary(spec, rho0) == pytest.approx(1.0, abs=1e-12)


def test_history_impossible_event():
    up = np.array([1, 0], dtype=complex)
    down_proj = np.diag([0.0, 1.0]).astype(complex)
    spec = protocols.HistorySpec(((1.0, down_proj),), np.zeros((2, 2), dtype=complex))
    assert protocols.history_probability_unitary(spec, np.outer(up, up.conj())) == pytest.approx(0.0, abs=1e-14)


def test_history_single_projector_is_born_rule(rng):
    gen = random_hermitian(rng, 2)
    v = random_state(rng, 2)
    proj = np.outer(v, v.conj())
    t1 = 1.3
    spec = protocols.HistorySpec(((t1, proj),), gen)
    psi = random_state(rng, 2)
    rho0 = np.outer(psi, psi.conj())
    u = qstate.herm_exp(gen, -1j * t1)
    expected = qstate.expectation(u @ psi, proj)
    assert protocols.history_probability_projected(spec, rho0) == pytest.approx(expected, abs=1e-12)


def test_history_commuting_projectors_classical_chain():
    # H = 0 and commuting projectors: the chained probability is a plain product
    p1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    p2 = np.diag([1.0, 0.0, 1.0]).astype(complex)
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    spec = protocols.HistorySpec(((1.0, p2), (2.0, p1)), np.zeros((3, 3), dtype=complex))
    assert protocols.history_probability_unitary(spec, rho0) == pytest.approx(0.5, abs=1e-13)


def test_history_routes_agree(rng):
    worst = 0.0
    for _ in range(100):
        spec, rho0 = random_history(rng)
        pu = protocols.history_probability_unitary(spec, rho0)
        pp = protocols.history_probability_projected(spec, rho0)
        worst = max(worst, abs(pu - pp))
    assert worst <= 1e-12


def test_history_rejects_non_projector(rng):
    gen = random_hermitian(rng, 2)
    with pytest.raises(ValueError):
        protocols.HistorySpec(((1.0, 0.5 * I2),), gen)
    with pytest.raises(ValueError):
        protocols.HistorySpec(((2.0, I2.copy()), (1.0, I2.copy())), gen)


def test_history_rejects_non_finite_times(rng):
    gen = random_hermitian(rng, 2)
    for bad in (math.nan, math.inf, -math.inf):
        for events in (((bad, I2.copy()), (2.0, I2.copy())),
                       ((1.0, I2.copy()), (bad, I2.copy()))):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError):
                    protocols.HistorySpec(events, gen)


# --- correlator tables ---

def test_switching_singlet_anticorrelated_with_equal_linears(rng):
    # identical evolutions leave the singlet invariant, so simultaneous
    # z measurements stay perfectly anticorrelated at any detection time
    hm = random_hermitian(rng, 2)
    h = hamfun.linear(hm)
    zhat = (0.0, 0.0, 1.0)
    for t_meas in (0.7, 2.9):
        table = protocols.switching_correlator(
            qstate.singlet_state(), h, h, t_meas, t_meas,
            qstate.pauli_vector(zhat), qstate.pauli_vector(zhat), (zhat, zhat))
        assert table.outcomes[(1, -1)] == pytest.approx(0.5, abs=1e-12)
        assert table.outcomes[(-1, 1)] == pytest.approx(0.5, abs=1e-12)
        assert table.outcomes[(1, 1)] == pytest.approx(0.0, abs=1e-12)
        assert table.outcomes[(-1, -1)] == pytest.approx(0.0, abs=1e-12)
        assert table.correlator == pytest.approx(-1.0, abs=1e-12)


def test_linear_tables_agree_between_protocols(rng):
    for _ in range(40):
        h1 = hamfun.linear(random_hermitian(rng, 2))
        h2 = hamfun.linear(random_hermitian(rng, 2))
        psi0 = random_state(rng, 4)
        t1 = rng.uniform(0, 4)
        t2 = t1 + rng.uniform(0, 4)
        da, db = random_direction(rng), random_direction(rng)
        ts = protocols.switching_correlator(
            psi0, h1, h2, t1, t2, qstate.pauli_vector(da), qstate.pauli_vector(db), (da, db))
        tz = protocols.zeno_correlator(psi0, h1, h2, t1, t2, da, db)
        for key in ts.outcomes:
            assert abs(ts.outcomes[key] - tz.outcomes[key]) <= 1e-12
        assert abs(ts.correlator - tz.correlator) <= 1e-12


def test_zeno_singlet_static_anticorrelation():
    zero = hamfun.linear(np.zeros((2, 2), dtype=complex))
    zhat = (0.0, 0.0, 1.0)
    for t1 in (0.5, 2.0, 7.7):
        table = protocols.zeno_correlator(
            qstate.singlet_state(), zero, zero, t1, t1 + 1.0, zhat, zhat)
        assert table.outcomes[(1, -1)] == pytest.approx(0.5, abs=1e-12)
        assert table.outcomes[(-1, 1)] == pytest.approx(0.5, abs=1e-12)


def test_zeno_dead_branch_flagged():
    up_up = np.kron([1, 0], [1, 0]).astype(complex)
    zero = hamfun.linear(np.zeros((2, 2), dtype=complex))
    zhat = (0.0, 0.0, 1.0)
    table = protocols.zeno_correlator(up_up, zero, zero, 1.0, 2.0, zhat, zhat)
    assert table.dead_branches == (-1,)
    assert table.outcomes[(-1, 1)] == 0.0
    assert table.outcomes[(-1, -1)] == 0.0
    assert table.outcomes[(1, 1)] == pytest.approx(1.0, abs=1e-12)


def test_switching_first_marginals_ignore_other_side(rng):
    h1, _ = quad_pair()
    psi0 = qstate.tilted_pair_state()
    da = XHAT
    base = None
    for b_coef in (0.0, 0.5, 5.0):
        for t2 in (4.0, 8.0, 20.0):
            for db in ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0)):
                h2 = hamfun.quadratic_average(qstate.sigma_z, b_coef)
                table = protocols.switching_correlator(
                    psi0, h1, h2, 3.5, t2,
                    qstate.pauli_vector(da), qstate.pauli_vector(db), (da, db))
                marg = (table.marginal("first", 1), table.marginal("first", -1))
                if base is None:
                    base = marg
                assert abs(marg[0] - base[0]) <= 1e-10
                assert abs(marg[1] - base[1]) <= 1e-10


def test_table_probabilities_sum_to_one(rng):
    h1, h2 = quad_pair()
    psi0 = random_state(rng, 4)
    table = protocols.switching_correlator(
        psi0, h1, h2, 1.0, 2.0,
        qstate.pauli_vector(XHAT), qstate.pauli_vector(XHAT), (XHAT, XHAT))
    assert sum(table.outcomes.values()) == pytest.approx(1.0, abs=1e-12)
    implied = sum(sa * sb * p for (sa, sb), p in table.outcomes.items())
    assert table.correlator == pytest.approx(implied, abs=1e-10)


def test_table_rejects_inconsistent_correlator():
    outcomes = {(1, 1): 0.5, (1, -1): 0.0, (-1, 1): 0.0, (-1, -1): 0.5}
    with pytest.raises(ValueError):
        protocols.MeasurementOutcomeTable(outcomes=outcomes, correlator=0.0)


def test_table_marginal_rejects_unknown_particle():
    outcomes = {(1, 1): 0.5, (1, -1): 0.0, (-1, 1): 0.0, (-1, -1): 0.5}
    table = protocols.MeasurementOutcomeTable(outcomes=outcomes, correlator=1.0)
    assert table.marginal("first", 1) == table.marginal("second", -1) == 0.5
    with pytest.raises(ValueError, match="unknown particle"):
        table.marginal("third", 1)


# --- ensemble trajectories ---

def test_trajectories_start_at_initial_expectations():
    psi0 = qstate.tilted_pair_state()
    h1, h2 = quad_pair()
    obs = {"xx": np.kron(qstate.sigma_x, qstate.sigma_x)}
    grid = np.array([0.0, 0.5, 1.0])
    for protocol in ("switching", "zeno"):
        traj = protocols.ensemble_average_trajectory(
            protocol, psi0, h1, h2, 3.5, 8.0, obs, grid, direction_a=XHAT)
        assert traj.column("xx")[0] == pytest.approx(
            qstate.expectation(psi0, obs["xx"]), abs=1e-12)


def test_zeno_equals_switching_before_measurement():
    psi0 = qstate.tilted_pair_state()
    h1, h2 = quad_pair()
    obs = {"1x": np.kron(I2, qstate.sigma_x), "x1": np.kron(qstate.sigma_x, I2)}
    grid = np.round(np.arange(0.0, 3.5 + 1e-9, 0.05), 10)
    sw = protocols.ensemble_average_trajectory("switching", psi0, h1, h2, 3.5, 8.0, obs, grid)
    ze = protocols.ensemble_average_trajectory("zeno", psi0, h1, h2, 3.5, 8.0, obs, grid,
                                               direction_a=XHAT)
    for name in obs:
        assert np.max(np.abs(sw.column(name) - ze.column(name))) <= 1e-10


def test_switching_second_particle_blind_to_first_detection():
    psi0 = qstate.tilted_pair_state()
    h1, h2 = quad_pair()
    obs = {"1x": np.kron(I2, qstate.sigma_x)}
    grid = np.round(np.arange(0.0, 10.0 + 1e-9, 0.01), 10)
    with_detection = protocols.ensemble_average_trajectory(
        "switching", psi0, h1, h2, 3.5, 8.0, obs, grid)
    never = protocols.ensemble_average_trajectory(
        "switching", psi0, h1, h2, np.inf, 8.0, obs, grid)
    assert np.max(np.abs(with_detection.column("1x") - never.column("1x"))) <= 1e-10


def test_zeno_nonlocal_gap_exists():
    psi0 = qstate.tilted_pair_state()
    h1, h2 = quad_pair()
    obs = {"1x": np.kron(I2, qstate.sigma_x)}
    grid = np.round(np.arange(0.0, 10.0 + 1e-9, 0.01), 10)
    sw = protocols.ensemble_average_trajectory("switching", psi0, h1, h2, 3.5, 8.0, obs, grid)
    ze = protocols.ensemble_average_trajectory("zeno", psi0, h1, h2, 3.5, 8.0, obs, grid,
                                               direction_a=XHAT)
    mask = (grid > 3.5) & (grid <= 8.0)
    gap = np.max(np.abs(sw.column("1x")[mask] - ze.column("1x")[mask]))
    assert gap > 1e-3


def test_zeno_metadata_names_both_axes_when_particle_2_is_detected_first():
    # with t2 < t1 the branches are particle #2's signs along direction_b, at t2
    psi0 = qstate.tilted_pair_state()
    h1, h2 = quad_pair()
    zhat = (0.0, 0.0, 1.0)
    traj = protocols.ensemble_average_trajectory(
        "zeno", psi0, h1, h2, 8.0, 3.5, {"1x": np.kron(I2, qstate.sigma_x)},
        np.array([0.0, 5.0]), direction_a=XHAT, direction_b=zhat)
    assert (traj.metadata["direction_a"], traj.metadata["direction_b"]) == (XHAT, zhat)
    psi = dynamics.switched_states(psi0, (h1, h2), ([3.5], [3.5]))[0]
    rho = np.outer(psi, psi.conj())
    weights = {k: [np.trace(qstate.partial_trace(rho, (2, 2), k) @ e).real
                   for e in qstate.projector(axis)] for k, axis in ((1, XHAT), (2, zhat))}
    assert traj.metadata["branch_weights"] == pytest.approx(weights[2], abs=1e-14)
    assert np.max(np.abs(np.subtract(weights[1], weights[2]))) > 0.1


def test_trajectory_rejects_bad_inputs():
    psi0 = qstate.tilted_pair_state()
    h1, h2 = quad_pair()
    obs = {"1x": np.kron(I2, qstate.sigma_x)}
    with pytest.raises(ValueError):
        protocols.ensemble_average_trajectory(
            "telepathy", psi0, h1, h2, 1.0, 2.0, obs, np.array([0.0, 1.0]))
    # the Zeno protocol takes either detection order, and needs a finite first detection
    for t1 in (2.0, np.inf):
        traj = protocols.ensemble_average_trajectory(
            "zeno", psi0, h1, h2, t1, 1.0, obs, np.array([0.0, 1.0, 3.0]))
        assert traj.column("1x").shape == (3,)
    table = protocols.zeno_correlator(psi0, h1, h2, 2.0, 1.0, XHAT, XHAT)
    assert sum(table.outcomes.values()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="finite first detection"):
        protocols.ensemble_average_trajectory(
            "zeno", psi0, h1, h2, np.inf, np.inf, obs, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="finite detection times"):
        protocols.zeno_correlator(psi0, h1, h2, np.inf, 1.0, XHAT, XHAT)


def test_series_reject_infinite_durations():
    # a grid point at t = inf leaves a never-detected particle with no state
    psi0 = qstate.tilted_pair_state()
    h1, h2 = quad_pair()
    obs = {"1x": np.kron(I2, qstate.sigma_x)}
    grid = np.array([0.0, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for protocol, t1, t2 in (("switching", 1.0, np.inf), ("switching", np.inf, 2.0),
                                 ("zeno", 1.0, np.inf), ("zeno", np.inf, 2.0)):
            with pytest.raises(ValueError, match="finite"):
                protocols.reduced_state_series(protocol, psi0, h1, h2, t1, t2, grid, keep=1)
            with pytest.raises(ValueError, match="finite"):
                protocols.ensemble_average_trajectory(protocol, psi0, h1, h2, t1, t2, obs, grid)
        # with both detection times finite the state at t = inf is the frozen one
        frozen = protocols.reduced_state_series("switching", psi0, h1, h2, 1.0, 2.0, grid, keep=1)
        assert np.array_equal(frozen[1], protocols.reduced_state_series(
            "switching", psi0, h1, h2, 1.0, 2.0, [0.0, 3.0], keep=1)[1])


# --- teleportation demonstration ---

def test_teleport_singlet_post_selection_zero_field():
    report = protocols.teleportation_demo(
        qstate.singlet_state(), 10000, "post", (0.0, 0.0, 1.0))
    assert np.linalg.norm(report.b_post) <= 1e-12


def test_teleport_singlet_pre_selection_polarizes():
    n = 10000
    report = protocols.teleportation_demo(
        qstate.singlet_state(), n, "pre", (0.0, 0.0, 1.0), keep_alice_outcome=-1)
    assert report.b_pre[2] == pytest.approx(1.0, abs=1e-12)
    assert report.b_sampled[2] > 0
    assert abs(report.b_sampled[2] - 1.0) <= 3 / np.sqrt(n)
    # retained states are Bob's spin-up particles
    assert np.max(np.abs(report.retained_state - np.diag([1.0, 0.0]))) <= 1e-12


def test_teleport_product_state_pre_equals_post():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    pair = np.kron(plus, plus)
    report = protocols.teleportation_demo(pair, 2000, "pre", (0.0, 0.0, 1.0), keep_alice_outcome=1)
    assert np.max(np.abs(report.b_pre - report.b_post)) <= 1e-12


def test_teleport_coupling_scales_field():
    report = protocols.teleportation_demo(
        qstate.singlet_state(), 1000, "pre", (0.0, 0.0, 1.0), coupling=2.5)
    assert report.b_pre[2] == pytest.approx(2.5, abs=1e-12)


def test_teleport_empty_selection_raises():
    up_up = np.kron([1, 0], [1, 0]).astype(complex)
    with pytest.raises(ValueError):
        protocols.teleportation_demo(up_up, 100, "pre", (0.0, 0.0, 1.0), keep_alice_outcome=-1)
