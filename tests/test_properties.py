"""Property tests for the spectral route and the numerical-failure checks."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlqcorr import dynamics, hamfun, qstate

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


# --- closed-form pair propagator ---

def exact_pair_reference(psi0, coef_a, coef_b, schedule, t):
    """The closed form built from the two reduced density matrices."""
    rho = np.outer(psi0, psi0.conj())
    z1 = np.trace(qstate.partial_trace(rho, (2, 2), keep=1) @ qstate.sigma_z).real
    z2 = np.trace(qstate.partial_trace(rho, (2, 2), keep=2) @ qstate.sigma_z).real
    t1, t2 = schedule.detection_times
    alpha = coef_a * z1 * hamfun.kappa(t, t1)
    beta = coef_b * z2 * hamfun.kappa(t, t2)
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
