
import math
import warnings

import numpy as np
import pytest

from nlqcorr import dynamics, hamfun, qstate
from _util import random_hermitian, random_state

I2 = np.eye(2, dtype=complex)
NEVER = hamfun.SwitchingSchedule((math.inf,) * 2, (2, 2))


def example_setup(a=8.0, b=0.5, t1=3.5, t2=8.0):
    sched = hamfun.SwitchingSchedule((t1, t2), (2, 2))
    h1 = hamfun.quadratic_average(qstate.sigma_z, a)
    h2 = hamfun.quadratic_average(qstate.sigma_z, b)
    comp = hamfun.polchinski_extend([h1, h2], (2, 2), sched)
    return qstate.tilted_pair_state(), comp, sched


# --- generic integrator ---

def test_integrate_linear_matches_herm_exp(rng):
    hm = random_hermitian(rng, 4)
    psi0 = random_state(rng, 4)
    traj = dynamics.integrate(hamfun.linear(hm), psi0, 2.0, 1e-3)
    for i in (500, 1000, 2000):
        exact = qstate.herm_exp(hm, -1j * traj.times[i]) @ psi0
        assert np.linalg.norm(traj.states[i] - exact) <= 1e-8


def test_integrate_example_matches_exact_propagator():
    psi0, comp, sched = example_setup()
    traj = dynamics.integrate(comp, psi0, 10.0, 1e-3)
    devs = [np.linalg.norm(traj.states[i] - dynamics.exact_pair_propagator(psi0, 8.0, 0.5, sched, t))
            for i, t in enumerate(traj.times)]
    assert max(devs) <= 1e-6


def test_integrate_fourth_order_convergence():
    psi0, comp, sched = example_setup()

    def max_dev(dt):
        traj = dynamics.integrate(comp, psi0, 10.0, dt)
        return max(
            np.linalg.norm(traj.states[i] - dynamics.exact_pair_propagator(psi0, 8.0, 0.5, sched, t))
            for i, t in enumerate(traj.times))

    assert max_dev(1e-3) / max_dev(5e-4) >= 8.0


def test_integrate_zero_coefficients_constant():
    psi0, comp, _ = example_setup(a=0.0, b=0.0)
    traj = dynamics.integrate(comp, psi0, 1.0, 1e-2)
    assert np.max(np.abs(traj.states - psi0)) <= 1e-12


def test_integrate_off_grid_switch_times():
    psi0, _, _ = example_setup()
    sched = hamfun.SwitchingSchedule((1.23457, 2.54321), (2, 2))
    h1 = hamfun.quadratic_average(qstate.sigma_z, 8.0)
    h2 = hamfun.quadratic_average(qstate.sigma_z, 0.5)
    comp = hamfun.polchinski_extend([h1, h2], (2, 2), sched)
    traj = dynamics.integrate(comp, psi0, 4.0, 1e-3)
    devs = [np.linalg.norm(traj.states[i] - dynamics.exact_pair_propagator(psi0, 8.0, 0.5, sched, t))
            for i, t in enumerate(traj.times)]
    assert max(devs) <= 1e-6


def test_integrate_conserves_factor_averages():
    psi0, comp, _ = example_setup()
    obs = {"z1": np.kron(qstate.sigma_z, I2), "z2": np.kron(I2, qstate.sigma_z)}
    traj = dynamics.integrate(comp, psi0, 10.0, 1e-3, observables=obs)
    for name in obs:
        col = traj.column(name)
        assert np.max(np.abs(col - col[0])) <= 1e-9


def test_integrate_norm_history_tight():
    psi0, comp, _ = example_setup()
    traj = dynamics.integrate(comp, psi0, 10.0, 1e-3)
    assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) <= 1e-9
    assert np.all(np.diff(traj.times) > 0)
    steps = np.diff(traj.times)
    assert np.max(np.abs(steps - steps[0])) <= 1e-12


def test_reduced_state_independent_of_other_side_closed_form():
    # rho_1(t) of the switched flow must not feel B or t2
    psi0 = qstate.tilted_pair_state()
    h1 = hamfun.quadratic_average(qstate.sigma_z, 8.0)
    grid = np.round(np.arange(0.0, 6.0 + 1e-9, 0.05), 10)

    def rho1_series(b, t2):
        h2 = hamfun.quadratic_average(qstate.sigma_z, b)
        out = []
        for t in grid:
            s = dynamics.switched_states(
                psi0, (h1, h2), ([min(t, 3.5)], [min(t, t2)]))[0]
            out.append(qstate.partial_trace(np.outer(s, s.conj()), (2, 2), 1))
        return np.stack(out)

    base = rho1_series(0.5, 5.0)
    for b, t2 in ((0.0, 5.0), (5.0, 8.0), (0.5, 20.0)):
        assert np.max(np.abs(rho1_series(b, t2) - base)) <= 1e-10


def test_integrate_cross_coupling_is_truncation_error():
    # the composite RK map leaks a little B-dependence into rho_1; the leak
    # must shrink at 4th order with the step, like any truncation error
    psi0 = qstate.tilted_pair_state()
    h1 = hamfun.quadratic_average(qstate.sigma_z, 8.0)

    def coupling(dt):
        series = {}
        for b in (0.0, 5.0):
            h2 = hamfun.quadratic_average(qstate.sigma_z, b)
            comp = hamfun.polchinski_extend(
                [h1, h2], (2, 2), hamfun.SwitchingSchedule((3.5, 5.0), (2, 2)))
            traj = dynamics.integrate(comp, psi0, 6.0, dt)
            series[b] = np.stack([
                qstate.partial_trace(np.outer(s, s.conj()), (2, 2), 1) for s in traj.states])
        return np.max(np.abs(series[0.0] - series[5.0]))

    coarse = coupling(2e-3)
    fine = coupling(1e-3)
    assert coarse / fine >= 8.0
    assert fine <= 1e-8


def test_integrate_norm_drift_aborts():
    # an oversized step on a stiff linear generator decays the norm visibly
    hm = 40.0 * qstate.sigma_z.astype(complex)
    psi0 = np.array([1, 1], dtype=complex) / np.sqrt(2)
    with pytest.raises(dynamics.NumericalError):
        dynamics.integrate(hamfun.linear(hm), psi0, 80.0, 0.1)


def test_integrate_generic_path_matches_structured(rng):
    psi0 = qstate.tilted_pair_state()
    sched = hamfun.SwitchingSchedule((0.7, 1.6), (2, 2))
    h_user = hamfun.from_callable(
        lambda rho: 8.0 * np.trace(rho @ qstate.sigma_z).real ** 2 / 2, label="user")
    h2 = hamfun.quadratic_average(qstate.sigma_z, 0.5)
    comp_user = hamfun.polchinski_extend([h_user, h2], (2, 2), sched)
    comp_ref = hamfun.polchinski_extend(
        [hamfun.quadratic_average(qstate.sigma_z, 8.0), h2], (2, 2), sched)
    tr_user = dynamics.integrate(comp_user, psi0, 2.0, 1e-2)
    tr_ref = dynamics.integrate(comp_ref, psi0, 2.0, 1e-2)
    assert tr_user.metadata["fd_gradient"] == (True, False)
    assert np.max(np.abs(tr_user.states - tr_ref.states)) <= 1e-9


def test_integrate_blowup_raises_numerical_error_on_both_paths():
    # an oversized step on a huge quadratic coupling overflows inside the first step;
    # the finite-difference gradient of the generic path must not escape as ValueError
    coef = 1e150

    def energy(rho):
        return coef * np.trace(rho @ qstate.sigma_z).real ** 2 / 2

    sched = NEVER
    paths = {
        "structured": [hamfun.quadratic_average(qstate.sigma_z, coef)] * 2,
        "generic": [hamfun.from_callable(energy)] * 2,
    }
    messages = {}
    for name, parts in paths.items():
        comp = hamfun.polchinski_extend(parts, (2, 2), sched)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(dynamics.NumericalError) as info:
                dynamics.integrate(comp, qstate.tilted_pair_state(), 5.0, 0.5)
        messages[name] = str(info.value)
    assert "at t = 0.500000 " in messages["structured"]
    assert messages["generic"] == messages["structured"]
    # outside integrate the gradient keeps its ValueError
    huge = np.diag([1e200, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="non-finite"):
        with np.errstate(over="ignore", invalid="ignore"):
            hamfun.from_callable(energy).effective_matrix(huge)


def test_integrate_input_validation():
    psi0, comp, _ = example_setup()
    with pytest.raises(ValueError):
        dynamics.integrate(comp, psi0, 1.0, -1e-3)
    for t_end in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="t_end must be finite"):
            dynamics.integrate(comp, psi0, t_end, 1e-3)
    with pytest.raises(ValueError):
        dynamics.integrate(comp, psi0, 1.0005, 1e-2)
    with pytest.raises(ValueError):
        dynamics.integrate(comp, np.array([1, 0], dtype=complex), 1.0, 1e-2)


def test_integrate_rejects_step_below_switch_resolution():
    # integrate drops every segment no longer than 1e-12 max(1, t_end), so a
    # step that short would leave nothing to run
    h = hamfun.quadratic_average(qstate.sigma_z)
    for t_end, dt in ((1e-13, 1e-13), (0.0, 1e-12)):
        with pytest.raises(ValueError, match="dt must exceed"):
            dynamics.integrate(h, [1, 0], t_end, dt)


# --- exact propagator ---

def test_exact_propagator_singlet_fixed_point(rng):
    sched = hamfun.SwitchingSchedule((3.5, 8.0), (2, 2))
    psi0 = qstate.singlet_state()
    for _ in range(5):
        a, b = rng.uniform(-10, 10, size=2)
        t = rng.uniform(0, 12)
        out = dynamics.exact_pair_propagator(psi0, a, b, sched, t)
        # both conserved averages vanish, so the state is exactly fixed
        assert np.max(np.abs(out - psi0)) <= 1e-14


def test_exact_propagator_frozen_after_both_deaths():
    psi0 = qstate.tilted_pair_state()
    sched = hamfun.SwitchingSchedule((3.5, 8.0), (2, 2))
    late = dynamics.exact_pair_propagator(psi0, 8.0, 0.5, sched, 8.0)
    for t in (8.5, 10.0, 100.0):
        out = dynamics.exact_pair_propagator(psi0, 8.0, 0.5, sched, t)
        assert np.max(np.abs(out - late)) <= 1e-14


def test_exact_propagator_never_schedule_recovers_unswitched():
    psi0 = qstate.tilted_pair_state()
    finite = hamfun.SwitchingSchedule((1e9, 1e9), (2, 2))
    for t in (0.0, 2.5, 9.9):
        a = dynamics.exact_pair_propagator(psi0, 8.0, 0.5, NEVER, t)
        b = dynamics.exact_pair_propagator(psi0, 8.0, 0.5, finite, t)
        assert np.max(np.abs(a - b)) <= 1e-12
        assert abs(np.linalg.norm(a) - 1.0) <= 1e-15


def test_exact_propagator_validation():
    sched = hamfun.SwitchingSchedule((1.0, 2.0), (2, 2))
    with pytest.raises(ValueError):
        dynamics.exact_pair_propagator(np.array([1, 0], dtype=complex), 1.0, 1.0, sched, 1.0)


def test_exact_propagator_rejects_nan_and_unfrozen_infinite_time():
    psi0 = qstate.tilted_pair_state()
    detected = hamfun.SwitchingSchedule((1.0, 2.0), (2, 2))
    for sched in (detected, hamfun.SwitchingSchedule((1.0, np.inf), (2, 2)), NEVER):
        with pytest.raises(ValueError, match="finite"):
            dynamics.exact_pair_propagator(psi0, 8.0, 0.5, sched, np.nan)
    for sched in (hamfun.SwitchingSchedule((np.inf, 2.0), (2, 2)), NEVER):
        with pytest.raises(ValueError, match="finite"):
            dynamics.exact_pair_propagator(psi0, 8.0, 0.5, sched, np.inf)
    # with both particles detected the state at t = inf is the frozen one
    assert np.array_equal(dynamics.exact_pair_propagator(psi0, 8.0, 0.5, detected, np.inf),
                          dynamics.exact_pair_propagator(psi0, 8.0, 0.5, detected, 3.0))


# --- one-particle propagation helpers ---

def test_propagator_family_conserved_matches_generic(rng):
    # same nonlinear flow through the closed form and the unitary ODE
    h = hamfun.quadratic_average(qstate.sigma_z, 1.3)
    psi = random_state(rng, 2)
    rho = np.outer(psi, psi.conj())
    u_closed = dynamics.propagator_family(h, rho, [2.0])[0]
    h_generic = hamfun.from_callable(
        lambda r: 1.3 * np.trace(r @ qstate.sigma_z).real ** 2 / 2,
        gradient=lambda r: 1.3 * np.trace(r @ qstate.sigma_z).real * np.asarray(qstate.sigma_z),
        label="generic-quad")
    u_ode = dynamics.propagator_family(h_generic, rho, [2.0])[0]
    assert np.max(np.abs(u_closed - u_ode)) <= 1e-8


def test_switched_states_matches_exact_propagator():
    psi0 = qstate.tilted_pair_state()
    h1 = hamfun.quadratic_average(qstate.sigma_z, 8.0)
    h2 = hamfun.quadratic_average(qstate.sigma_z, 0.5)
    sched = hamfun.SwitchingSchedule((3.5, 8.0), (2, 2))
    for t in (0.0, 1.0, 3.5, 5.0, 9.0):
        lhs = dynamics.switched_states(
            psi0, (h1, h2), ([min(t, 3.5)], [min(t, 8.0)]))[0]
        rhs = dynamics.exact_pair_propagator(psi0, 8.0, 0.5, sched, t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_switched_states_pair_is_kron_product_bit_for_bit(rng):
    # the CSVs of every pair command stay byte-identical only while the pair
    # case is exactly kron(u1, u2) @ psi0
    psi0 = random_state(rng, 4)
    rho = np.outer(psi0, psi0.conj())
    for e1, e2 in ((("quadratic-z", 8.0), ("mean-field", 0.5)),
                   (("linear-z", -2.0), ("quadratic-z", 3.0))):
        h1, h2 = hamfun.catalogue_entry(*e1), hamfun.catalogue_entry(*e2)
        tau1, tau2 = rng.uniform(0.0, 10.0, (2, 17))
        got = dynamics.switched_states(psi0, (h1, h2), (tau1, tau2))
        u1 = dynamics.propagator_family(h1, qstate.partial_trace(rho, (2, 2), 1), tau1)
        u2 = dynamics.propagator_family(h2, qstate.partial_trace(rho, (2, 2), 2), tau2)
        ref = np.stack([np.kron(a, b) @ psi0 for a, b in zip(u1, u2)])
        assert np.array_equal(got, ref)


def test_switched_states_validation():
    h = hamfun.quadratic_average(qstate.sigma_z)
    psi0 = qstate.tilted_pair_state()
    with pytest.raises(ValueError, match="one generator"):
        dynamics.switched_states(psi0, (h,), ([1.0],))
    with pytest.raises(ValueError, match="same shape"):
        dynamics.switched_states(psi0, (h, h), ([1.0], [1.0, 2.0]))
    with pytest.raises(ValueError, match="factor"):
        dynamics.switched_states(psi0, (h, h, h), ([1.0], [1.0], [1.0]), dims=(2, 2, 2))


# --- q-deformed von Neumann flow ---

def test_qvn_linear_case_matches_von_neumann(rng):
    hm = random_hermitian(rng, 2)
    rho0 = np.diag([0.75, 0.25]).astype(complex)
    traj = dynamics.integrate_qvn(hm, rho0, 1.0, 2.0, 1e-3)
    u = qstate.herm_exp(hm, -1j * 2.0)
    assert np.max(np.abs(traj.states[-1] - u @ rho0 @ u.conj().T)) <= 1e-8


def test_qvn_stationary_when_commuting():
    rho0 = np.diag([0.6, 0.4]).astype(complex)
    for q in (0.7, 1.0, 2.0):
        traj = dynamics.integrate_qvn(qstate.sigma_z, rho0, q, 1.0, 1e-2)
        assert np.max(np.abs(traj.states - rho0)) <= 1e-12


@pytest.mark.parametrize("q", [0.7, 2.0])
def test_qvn_isospectral(rng, q):
    hm = random_hermitian(rng, 3)
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    traj = dynamics.integrate_qvn(hm, rho0, q, 2.0, 1e-3)
    w0 = np.linalg.eigvalsh(rho0)
    wt = np.linalg.eigvalsh(traj.states[-1])
    assert np.max(np.abs(np.sort(w0) - np.sort(wt))) <= 1e-8


def test_qvn_trace_conservation(rng):
    hm = random_hermitian(rng, 2)
    rho0 = np.diag([0.75, 0.25]).astype(complex)
    traj = dynamics.integrate_qvn(hm, rho0, 0.7, 5.0, 1e-3)
    tr1 = np.einsum("tii->t", traj.states).real
    tr2 = np.einsum("tij,tji->t", traj.states, traj.states).real
    assert np.max(np.abs(tr1 - 1.0)) <= 1e-8
    assert np.max(np.abs(tr2 - tr2[0])) <= 1e-8
    # Hermiticity is preserved, not repaired
    final = traj.states[-1]
    assert np.max(np.abs(final - final.conj().T)) <= 1e-12


def test_qvn_rejects_bad_inputs():
    rho0 = np.diag([0.75, 0.25]).astype(complex)
    with pytest.raises(ValueError):
        dynamics.integrate_qvn(qstate.sigma_x, rho0, -1.0, 1.0, 1e-2)
    pure = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        dynamics.integrate_qvn(qstate.sigma_x, pure, 0.7, 1.0, 1e-2)
    dynamics.integrate_qvn(qstate.sigma_x, pure, 2.0, 0.1, 1e-2)  # integer powers are fine


def test_qvn_negative_eigenvalue_aborts():
    rho0 = np.diag([0.75, 0.25]).astype(complex)
    with pytest.raises(dynamics.NumericalError):
        dynamics.integrate_qvn(5.0 * qstate.sigma_x, rho0, 0.7, 5.0, 2.5)


def test_qvn_coupling_rescales_time():
    rho0 = np.diag([0.75, 0.25]).astype(complex)
    slow = dynamics.integrate_qvn(qstate.sigma_x, rho0, 1.0, 2.0, 1e-3, coupling=1.0)
    fast = dynamics.integrate_qvn(qstate.sigma_x, rho0, 1.0, 1.0, 5e-4, coupling=2.0)
    assert np.max(np.abs(slow.states[-1] - fast.states[-1])) <= 1e-8
