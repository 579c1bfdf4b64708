import numpy as np
import pytest

from nlqcorr import qstate
from _util import random_density, random_direction, random_hermitian, random_state

I2 = np.eye(2, dtype=complex)


def brute_force_ptrace_first(psi):
    # independent index contraction: rho1[i,k] = sum_j psi[i,j] conj(psi[k,j])
    a = psi.reshape(2, 2)
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for k in range(2):
            for j in range(2):
                out[i, k] += a[i, j] * np.conj(a[k, j])
    return out


# --- kron ---

def test_kron_singlet_xx_expectation():
    psi = qstate.singlet_state()
    xx = np.kron(qstate.sigma_x, qstate.sigma_x)
    # direct 4x4 evaluation of the hand-expanded singlet
    manual = np.vdot(psi, xx @ psi).real
    assert abs(manual + 1) < 1e-14
    assert abs(qstate.expectation(psi, xx) + 1) < 1e-14


# --- partial trace ---

def test_partial_trace_singlet_maximally_mixed():
    rho = np.outer(qstate.singlet_state(), qstate.singlet_state().conj())
    for keep in (1, 2):
        assert np.max(np.abs(qstate.partial_trace(rho, (2, 2), keep) - I2 / 2)) < 1e-14


def test_partial_trace_product_state(rng):
    a, b = random_state(rng, 2), random_state(rng, 3)
    rho = np.outer(np.kron(a, b), np.kron(a, b).conj())
    r1 = qstate.partial_trace(rho, (2, 3), 1)
    assert np.max(np.abs(r1 - np.outer(a, a.conj()))) < 1e-14


def test_partial_trace_tilted_pair_matches_brute_force():
    psi = qstate.tilted_pair_state()
    rho = np.outer(psi, psi.conj())
    got = qstate.partial_trace(rho, (2, 2), 1)
    assert np.max(np.abs(got - brute_force_ptrace_first(psi))) < 1e-14
    # spectrum is {1/9, 8/9} in the tilted basis
    w, _ = qstate.eigh(got)
    assert np.allclose(w, [1 / 9, 8 / 9], atol=1e-13)


def test_partial_trace_of_kron_returns_factor(rng):
    ra, rb = random_density(rng, 2), random_density(rng, 3)
    rho = np.kron(ra, rb)
    assert np.max(np.abs(qstate.partial_trace(rho, (2, 3), 1) - ra)) <= 1e-12
    assert np.max(np.abs(qstate.partial_trace(rho, (2, 3), 2) - rb)) <= 1e-12


def test_partial_trace_preserves_trace(rng):
    rho = random_density(rng, 6)
    r1 = qstate.partial_trace(rho, (2, 3), 1)
    assert abs(np.trace(r1) - np.trace(rho)) <= 1e-12
    assert abs(np.trace(r1) - 1) <= 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        qstate.partial_trace(np.eye(6) / 6, (2, 2), 1)
    with pytest.raises(ValueError):
        qstate.partial_trace(np.eye(4) / 4, (2, 2), 3)


# --- herm_exp / eigh ---

def test_herm_exp_sigma_z_pi():
    got = qstate.herm_exp(qstate.sigma_z, -1j * np.pi)
    assert np.max(np.abs(got - np.diag([-1, -1]))) <= 1e-12


def test_herm_exp_zero_scale(rng):
    h = random_hermitian(rng, 4)
    assert np.max(np.abs(qstate.herm_exp(h, 0.0) - np.eye(4))) <= 1e-13


def test_herm_exp_sigma_x_quarter_turn():
    # 2x2 closed form: cos(pi/2) I - i sin(pi/2) sigma_x
    got = qstate.herm_exp(qstate.sigma_x, -1j * np.pi / 2)
    assert np.max(np.abs(got - (-1j) * qstate.sigma_x)) <= 1e-12


def test_herm_exp_unitary_for_imaginary_scale(rng):
    h = random_hermitian(rng, 5)
    u = qstate.herm_exp(h, -1j * 1.7)
    assert np.max(np.abs(u @ u.conj().T - np.eye(5))) <= 1e-10


def test_herm_exp_group_law(rng):
    for _ in range(10):
        h = random_hermitian(rng, 3)
        t, s = rng.uniform(0, 3, size=2)
        lhs = qstate.herm_exp(h, -1j * t) @ qstate.herm_exp(h, -1j * s)
        rhs = qstate.herm_exp(h, -1j * (t + s))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_herm_exp_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qstate.herm_exp(np.array([[0, 1], [0, 0]], dtype=complex), -1j)


def test_eigh_matches_lapack_oracle(rng):
    for n in (2, 3, 4, 8, 16):
        h = random_hermitian(rng, n)
        w, v = qstate.eigh(h)
        w_ref = np.linalg.eigvalsh(h)
        scale = max(1.0, np.abs(w_ref).max())
        assert np.max(np.abs(w - w_ref)) <= 1e-12 * scale
        assert np.max(np.abs(h @ v - v * w)) <= 1e-12 * scale
        assert np.max(np.abs(v @ v.conj().T - np.eye(n))) <= 1e-12


# --- expectation ---

def test_expectation_eigenstate():
    up = np.array([1, 0], dtype=complex)
    assert qstate.expectation(up, qstate.sigma_z) == pytest.approx(1.0, abs=1e-14)


def test_expectation_singlet_anticorrelation():
    zz = np.kron(qstate.sigma_z, qstate.sigma_z)
    assert qstate.expectation(qstate.singlet_state(), zz) == pytest.approx(-1.0, abs=1e-14)


def test_expectation_tilted_pair_z_value():
    psi = qstate.tilted_pair_state()
    got = qstate.expectation(psi, np.kron(qstate.sigma_z, I2))
    assert got == pytest.approx(-7 * np.sqrt(2) / 18, abs=1e-14)


def test_expectation_linear_in_observable(rng):
    psi = random_state(rng, 3)
    a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
    alpha, beta = rng.normal(size=2)
    lhs = qstate.expectation(psi, alpha * a + beta * b)
    rhs = alpha * qstate.expectation(psi, a) + beta * qstate.expectation(psi, b)
    assert abs(lhs - rhs) <= 1e-12


def test_expectation_density_matrix_input(rng):
    rho = random_density(rng, 2)
    assert qstate.expectation(rho, qstate.sigma_z) == pytest.approx(
        np.trace(rho @ qstate.sigma_z).real, abs=1e-14)


def test_expectation_errors():
    with pytest.raises(ValueError):
        qstate.expectation(np.array([1, 0, 0], dtype=complex), qstate.sigma_z)
    # anti-Hermitian observable leaves an imaginary residue
    skew = np.array([[0, 1], [-1, 0]], dtype=complex)
    with pytest.raises(ValueError):
        qstate.expectation(np.array([1, 1j], dtype=complex) / np.sqrt(2), skew)


# --- projector ---

def test_projector_z_axis():
    ep, em = qstate.projector((0, 0, 1))
    assert np.max(np.abs(ep - np.diag([1, 0]))) <= 1e-14
    assert np.max(np.abs(em - np.diag([0, 1]))) <= 1e-14


def test_projector_x_axis():
    ep, em = qstate.projector((1, 0, 0))
    assert np.max(np.abs(ep - (I2 + qstate.sigma_x) / 2)) <= 1e-14
    assert np.max(np.abs(em - (I2 - qstate.sigma_x) / 2)) <= 1e-14


def test_projector_algebra_random_directions(rng):
    for _ in range(25):
        ep, em = qstate.projector(random_direction(rng))
        assert np.max(np.abs(ep @ ep - ep)) <= 1e-12
        assert np.max(np.abs(ep + em - I2)) <= 1e-12
        assert np.max(np.abs(ep @ em)) <= 1e-12


def test_projector_rejects_non_unit():
    with pytest.raises(ValueError):
        qstate.projector((1, 1, 0))


# --- validation helpers ---

def test_check_state_norm_window():
    qstate.check_state(np.array([1, 0], dtype=complex) * (1 + 5e-10))
    with pytest.raises(ValueError):
        qstate.check_state(np.array([1, 0], dtype=complex) * (1 + 5e-9))


def test_check_hermitian_no_repair():
    bad = np.array([[1, 1e-10], [0, 1]], dtype=complex)
    with pytest.raises(ValueError):
        qstate.check_hermitian(bad)


def test_check_density_matrix(rng):
    qstate.check_density_matrix(random_density(rng, 3))
    with pytest.raises(ValueError):
        qstate.check_density_matrix(np.diag([0.5, 0.6]).astype(complex))
    with pytest.raises(ValueError):
        qstate.check_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_standard_states_normalized():
    assert np.linalg.norm(qstate.singlet_state()) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(qstate.tilted_pair_state()) == pytest.approx(1.0, abs=1e-15)
