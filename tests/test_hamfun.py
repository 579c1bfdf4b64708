import math

import numpy as np
import pytest

from nlqcorr import dynamics, hamfun, qstate
from _util import random_hermitian, random_state

I2 = np.eye(2, dtype=complex)
NEVER = hamfun.SwitchingSchedule((math.inf,) * 2, (2, 2))


def wirtinger_fd(h, psi, step=1e-5):
    """Finite-difference oracle for (M psi)_k = d H / d conj(psi_k)."""
    out = np.zeros(psi.size, dtype=complex)
    for k in range(psi.size):
        ex = np.zeros(psi.size, dtype=complex)
        ex[k] = step
        dx = (h.state_energy(psi + ex) - h.state_energy(psi - ex)) / (2 * step)
        ey = np.zeros(psi.size, dtype=complex)
        ey[k] = 1j * step
        dy = (h.state_energy(psi + ey) - h.state_energy(psi - ey)) / (2 * step)
        out[k] = (dx + 1j * dy) / 2
    return out


# --- effective Hamiltonians ---

def test_effective_hamiltonian_linear_case(rng):
    hmat = random_hermitian(rng, 3)
    h = hamfun.linear(hmat)
    for _ in range(5):
        psi = random_state(rng, 3)
        assert np.max(np.abs(hamfun.effective_hamiltonian(h, psi) - hmat)) <= 1e-13


def test_effective_hamiltonian_quadratic_at_spin_up():
    h = hamfun.quadratic_average(qstate.sigma_z, coef=3.0)
    up = np.array([1, 0], dtype=complex)
    assert np.max(np.abs(hamfun.effective_hamiltonian(h, up) - 3.0 * qstate.sigma_z)) <= 1e-13


@pytest.mark.parametrize("factory", [
    lambda rng: hamfun.linear(random_hermitian(rng, 2)),
    lambda rng: hamfun.quadratic_average(random_hermitian(rng, 2), coef=1.7),
    lambda rng: hamfun.mean_field(0.8),
])
def test_gradient_matches_wirtinger_fd(rng, factory):
    h = factory(rng)
    for _ in range(50):
        psi = random_state(rng, 2)
        analytic = hamfun.effective_hamiltonian(h, psi) @ psi
        assert np.max(np.abs(analytic - wirtinger_fd(h, psi))) <= 1e-6


def test_fd_gradient_fallback_matches_analytic(rng):
    analytic = hamfun.quadratic_average(qstate.sigma_z, coef=2.0)
    numeric = hamfun.from_callable(
        lambda rho: 2.0 * np.trace(rho @ qstate.sigma_z).real ** 2 / 2, label="fd-quad")
    assert numeric.uses_fd_gradient
    assert not analytic.uses_fd_gradient
    for _ in range(10):
        psi = random_state(rng, 2)
        rho = np.outer(psi, psi.conj())
        dev = np.abs(numeric.effective_matrix(rho) - analytic.effective_matrix(rho))
        assert np.max(dev) <= 1e-8


def test_effective_hamiltonian_additive_over_sum(rng):
    a = hamfun.quadratic_average(qstate.sigma_z, coef=1.3)
    b = hamfun.quadratic_average(qstate.sigma_x, coef=0.7)

    def combined_energy(rho):
        return a.energy(rho) + b.energy(rho)

    combined = hamfun.from_callable(
        combined_energy,
        gradient=lambda rho: a.effective_matrix(rho) + b.effective_matrix(rho),
        label="sum",
    )
    for _ in range(10):
        psi = random_state(rng, 2)
        lhs = hamfun.effective_hamiltonian(combined, psi)
        rhs = hamfun.effective_hamiltonian(a, psi) + hamfun.effective_hamiltonian(b, psi)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_mean_field_gradient_is_bloch_field(rng):
    h = hamfun.mean_field(coupling=2.5)
    psi = random_state(rng, 2)
    rho = np.outer(psi, psi.conj())
    bloch = np.array([np.trace(rho @ s).real for s in (qstate.sigma_x, qstate.sigma_y, qstate.sigma_z)])
    expected = 2.5 * (bloch[0] * qstate.sigma_x + bloch[1] * qstate.sigma_y + bloch[2] * qstate.sigma_z)
    assert np.max(np.abs(h.effective_matrix(rho) - expected)) <= 1e-13
    # the terms do not commute, but the field commutes with the state itself
    assert not h.terms_commute
    g = h.effective_matrix(rho)
    assert np.max(np.abs(g @ rho - rho @ g)) <= 1e-15


def test_callable_energy_is_never_taken_as_conserved():
    # Weinberg-type <sigma_z>^2 + <sigma_x>: the generator moves along its own flow,
    # so the unitary must be integrated, as for the same energy written as terms
    def energy(rho):
        return np.trace(rho @ qstate.sigma_z).real ** 2 + np.trace(rho @ qstate.sigma_x).real

    h = hamfun.from_callable(energy, label="weinberg")
    as_terms = hamfun.HamiltonianFunction("weinberg-terms", terms=(
        hamfun.GeneratorTerm(qstate.sigma_z, power=1, coef=2.0),
        hamfun.GeneratorTerm(qstate.sigma_x, power=0, coef=1.0)))
    assert not h.terms_commute and not as_terms.terms_commute
    psi = np.array([np.cos(0.3), np.sin(0.3)], dtype=complex)
    rho = np.outer(psi, psi.conj())
    u = dynamics.propagator_family(h, rho, [0.5])[0]
    assert np.max(np.abs(u - dynamics.propagator_family(as_terms, rho, [0.5])[0])) <= 1e-9
    # the closed form of a frozen generator is visibly off
    assert np.max(np.abs(u - qstate.herm_exp(h.effective_matrix(rho), -0.5j))) > 1e-3


# --- switching schedule and the multiparticle extension ---

def test_schedule_validation():
    hamfun.SwitchingSchedule((3.5, math.inf), (2, 2))
    with pytest.raises(ValueError):
        hamfun.SwitchingSchedule((-1.0, 2.0), (2, 2))
    with pytest.raises(ValueError):
        hamfun.SwitchingSchedule((1.0,), (2, 2))
    assert NEVER.detection_times == (math.inf, math.inf)


def composite_rhs(comp, t):
    """The integrator's right-hand side -i M(t, psi) psi of the composite."""
    return dynamics._segment_rhs(comp)(t)


def test_polchinski_linear_additivity(rng):
    h1m, h2m = random_hermitian(rng, 2), random_hermitian(rng, 2)
    comp = hamfun.polchinski_extend([hamfun.linear(h1m), hamfun.linear(h2m)], (2, 2), NEVER)
    total = np.kron(h1m, I2) + np.kron(I2, h2m)
    rhs = composite_rhs(comp, 0.0)
    for _ in range(10):
        psi = random_state(rng, 4)
        assert np.max(np.abs(rhs(psi) - -1j * total @ psi)) <= 1e-12


def test_polchinski_switching_kills_terms(rng):
    h1 = hamfun.quadratic_average(qstate.sigma_z, 8.0)
    h2 = hamfun.quadratic_average(qstate.sigma_z, 0.5)
    comp = hamfun.polchinski_extend([h1, h2], (2, 2), hamfun.SwitchingSchedule((3.5, 8.0), (2, 2)))
    psi = random_state(rng, 4)
    rho = np.outer(psi, psi.conj())
    # at t=5 only the second-particle term survives
    z2 = np.trace(qstate.partial_trace(rho, (2, 2), 2) @ qstate.sigma_z).real
    m = 0.5 * z2 * np.kron(I2, qstate.sigma_z)
    # at its detection time a particle already counts as detected
    for t in (3.5, 5.0):
        assert np.max(np.abs(composite_rhs(comp, t)(psi) - -1j * m @ psi)) <= 1e-12
    # past both detection times the composite vanishes on every state
    for t in (8.0, 9.0):
        assert np.max(np.abs(composite_rhs(comp, t)(psi))) == 0.0


def test_polchinski_never_matches_unswitched(rng):
    h1 = hamfun.quadratic_average(qstate.sigma_z, 8.0)
    h2 = hamfun.quadratic_average(qstate.sigma_x, 0.5)
    comp = hamfun.polchinski_extend([h1, h2], (2, 2), NEVER)
    for _ in range(100):
        psi = random_state(rng, 4)
        rho = np.outer(psi, psi.conj())
        direct = (np.kron(h1.effective_matrix(qstate.partial_trace(rho, (2, 2), 1)), I2)
                  + np.kron(I2, h2.effective_matrix(qstate.partial_trace(rho, (2, 2), 2))))
        for t in (0.0, 17.3, 1e6):
            assert np.max(np.abs(composite_rhs(comp, t)(psi) - -1j * direct @ psi)) <= 1e-12


def test_polchinski_dimension_mismatch():
    h1 = hamfun.quadratic_average(qstate.sigma_z)
    with pytest.raises(ValueError):
        hamfun.polchinski_extend([h1], (2, 2), NEVER)
    with pytest.raises(ValueError):
        hamfun.polchinski_extend([h1, h1], (2, 3), hamfun.SwitchingSchedule((math.inf,) * 2, (2, 3)))


def test_structured_terms_cover_catalogue(rng):
    h1 = hamfun.quadratic_average(qstate.sigma_z, 8.0)
    h2 = hamfun.linear(qstate.sigma_x)
    sched = hamfun.SwitchingSchedule((1.0, 2.0), (2, 2))
    comp = hamfun.polchinski_extend([h1, h2], (2, 2), sched)
    psi = random_state(rng, 4)
    z1 = qstate.expectation(psi, np.kron(qstate.sigma_z, I2))
    both = 8.0 * z1 * np.kron(qstate.sigma_z, I2) + np.kron(I2, qstate.sigma_x)
    assert np.max(np.abs(composite_rhs(comp, 0.5)(psi) - -1j * both @ psi)) <= 1e-12
    only_second = np.kron(I2, qstate.sigma_x)
    assert np.max(np.abs(composite_rhs(comp, 1.5)(psi) - -1j * only_second @ psi)) <= 1e-12
    assert dynamics.integrate(comp, psi, 0.1, 0.1).metadata["fd_gradient"] == (False, False)
    # a state-functional part falls back to finite-difference gradients
    mixed = hamfun.polchinski_extend([h1, hamfun.from_callable(lambda rho: 0.0)], (2, 2), sched)
    assert dynamics.integrate(mixed, psi, 0.1, 0.1).metadata["fd_gradient"] == (False, True)


def test_bad_detection_time_is_refused_before_any_step():
    calls = []

    def energy(rho):
        calls.append(rho)
        return np.trace(rho @ qstate.sigma_z).real ** 2 / 2

    psi0 = qstate.tilted_pair_state()
    for parts in ([hamfun.quadratic_average(qstate.sigma_z)] * 2, [hamfun.from_callable(energy)] * 2):
        for times in ((math.nan, math.inf), (-1.0, 2.0), (2.0, math.nan)):
            with pytest.raises(ValueError, match="detection times"):
                dynamics.integrate(hamfun.SwitchedHamiltonian(
                    parts, hamfun.SwitchingSchedule(times, (2, 2))), psi0, 1.0, 0.1)
        # a composite is built on a validated schedule only, never on raw times
        with pytest.raises(TypeError):
            hamfun.SwitchedHamiltonian(parts, (math.nan, math.inf))
    assert calls == []


def test_catalogue_entries():
    for name in hamfun.CATALOGUE_NAMES:
        h = hamfun.catalogue_entry(name, 1.5)
        assert h.terms is not None
    with pytest.raises(ValueError):
        hamfun.catalogue_entry("unknown")
