import warnings

import numpy as np
import pytest

from nlqcorr import beams, hamfun, protocols, qstate
from _util import random_hermitian, random_state

I2 = np.eye(2, dtype=complex)


def quad_pair(a=8.0, b=0.5):
    return (hamfun.quadratic_average(qstate.sigma_z, a),
            hamfun.quadratic_average(qstate.sigma_z, b))


def brute_force_frequency_average(pair_obs, pair_states):
    # full 4^N construction of (1/N) sum_i O_i, N small
    n = len(pair_states)
    dim = 4**n
    big = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        term = np.eye(1, dtype=complex)
        for j in range(n):
            term = np.kron(term, pair_obs if j == i else np.eye(4))
        big += term
    big /= n
    product = np.ones(1, dtype=complex)
    for s in pair_states:
        product = np.kron(product, s)
    return float(np.vdot(product, big @ product).real)


def test_frequency_average_identical_states(rng):
    obs = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    single = qstate.expectation(psi, obs)
    assert beams.frequency_average(obs, [psi] * 7) == pytest.approx(single, abs=1e-13)


def test_frequency_average_balanced_pair():
    zz = np.kron(qstate.sigma_z, qstate.sigma_z)
    up_up = np.kron([1, 0], [1, 0]).astype(complex)      # <zz> = +1
    up_down = np.kron([1, 0], [0, 1]).astype(complex)    # <zz> = -1
    assert beams.frequency_average(zz, [up_up, up_down]) == pytest.approx(0.0, abs=1e-14)


def test_frequency_average_matches_brute_force_n3(rng):
    obs = random_hermitian(rng, 4)
    states = [random_state(rng, 4) for _ in range(3)]
    fast = beams.frequency_average(obs, states)
    slow = brute_force_frequency_average(obs, states)
    assert abs(fast - slow) <= 1e-12


def test_frequency_average_requires_states():
    with pytest.raises(ValueError):
        beams.frequency_average(np.eye(4), [])


def test_beam_spec_validation():
    h1, h2 = quad_pair()
    beams.BeamSpec(qstate.singlet_state(), h1, h2, [[0.0, 1.0, 2.0]])
    with pytest.raises(ValueError):
        beams.BeamSpec(qstate.singlet_state(), h1, h2, [[1.0, 0.5, 2.0]])
    with pytest.raises(ValueError):
        beams.BeamSpec(qstate.singlet_state(), h1, h2, [[0.0, 1.0]])
    # +inf detection means never detected; NaN and non-finite births are rejected
    beams.BeamSpec(qstate.singlet_state(), h1, h2, [[0.0, np.inf, np.inf]])
    for row in ([np.nan, 1.0, 2.0], [0.0, np.nan, 2.0], [0.0, 1.0, np.nan],
                [-np.inf, 1.0, 2.0], [np.inf, np.inf, np.inf]):
        with pytest.raises(ValueError):
            beams.BeamSpec(qstate.singlet_state(), h1, h2, [row])
    with pytest.raises(ValueError):
        beams.BeamSpec.from_flight_times(qstate.singlet_state(), h1, h2, [0.0], [np.nan], [1.0])


def test_beam_spec_flight_time_parametrization():
    h1, h2 = quad_pair()
    spec = beams.BeamSpec.from_flight_times(
        qstate.tilted_pair_state(), h1, h2, [0.0, 1.5, 4.0], 3.5, 8.0)
    assert spec.n_pairs == 3
    assert np.allclose(spec.times[:, 1] - spec.times[:, 0], 3.5)
    assert np.allclose(spec.times[:, 2] - spec.times[:, 0], 8.0)
    direct = beams.BeamSpec(
        qstate.tilted_pair_state(), h1, h2,
        [[0.0, 3.5, 8.0], [1.5, 5.0, 9.5], [4.0, 7.5, 12.0]])
    assert np.allclose(spec.times, direct.times)


def test_sub_beam_singlet_is_maximally_mixed():
    h1, h2 = quad_pair()
    spec = beams.BeamSpec(qstate.singlet_state(), h1, h2,
                          [[0.0, 3.5, 8.0], [1.0, 4.5, 9.0]])
    for rho in beams.sub_beam_state(spec, 0.0):
        assert np.max(np.abs(rho - I2 / 2)) <= 1e-13


def test_sub_beam_independent_of_second_detection_times():
    h1, h2 = quad_pair()
    psi0 = qstate.tilted_pair_state()
    results = []
    for t2 in (5.0, 8.0, 20.0):
        spec = beams.BeamSpec(psi0, h1, h2, [[0.0, 3.5, t2], [1.0, 4.5, t2 + 1.0]])
        results.append(beams.sub_beam_state(spec, 6.0))
    for later in results[1:]:
        for a, b in zip(results[0], later):
            assert np.max(np.abs(a - b)) <= 1e-12


def test_sub_beam_staggered_births_shift_trajectories():
    h1, h2 = quad_pair()
    psi0 = qstate.tilted_pair_state()
    spec = beams.BeamSpec(psi0, h1, h2, [[0.0, 3.5, 8.0], [1.0, 4.5, 9.0]])
    at_3 = beams.sub_beam_state(spec, 3.0)
    at_2 = beams.sub_beam_state(
        beams.BeamSpec(psi0, h1, h2, [[0.0, 3.5, 8.0]]), 2.0)
    # the pair born at t0=1 observed at t=3 matches the t0=0 pair at t=2
    assert np.max(np.abs(at_3[1] - at_2[0])) <= 1e-13
    # a pair not yet born sits in its initial reduced state
    early = beams.sub_beam_state(spec, 0.5)
    rho0 = qstate.partial_trace(np.outer(psi0, psi0.conj()), (2, 2), 1)
    assert np.max(np.abs(early[1] - rho0)) <= 1e-14


def test_sub_beam_state_at_infinite_time():
    h1, h2 = quad_pair()
    psi0 = qstate.tilted_pair_state()
    detected = beams.BeamSpec(psi0, h1, h2, [[0.0, 3.5, 8.0], [1.0, 4.5, 9.0]])
    never = beams.BeamSpec(psi0, h1, h2, [[0.0, 3.5, 8.0], [1.0, np.inf, 9.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # once every particle is detected, the state at t = inf is the frozen one
        assert np.array_equal(beams.sub_beam_state(detected, np.inf),
                              beams.sub_beam_state(detected, 10.0))
        # a never-detected particle has no state at t = inf
        with pytest.raises(ValueError, match="finite"):
            beams.sub_beam_state(never, np.inf)


def test_never_detected_particle_at_infinite_time_is_named():
    # both routes build the whole pair state, so the frozen particle #1 still
    # needs particle #2's unitary, whose duration is infinite
    message = "durations must be finite and >= 0; a never-detected particle has none at t = inf"
    h1, h2 = quad_pair()
    psi0 = qstate.tilted_pair_state()
    with pytest.raises(ValueError) as beam_error:
        beams.sub_beam_state(beams.BeamSpec(psi0, h1, h2, [[0.0, 3.5, np.inf]]), np.inf)
    with pytest.raises(ValueError) as series_error:
        protocols.reduced_state_series("switching", psi0, h1, h2, 3.5, np.inf,
                                       [0.0, 5.0, np.inf], keep=1)
    assert str(beam_error.value) == str(series_error.value) == message


def test_sample_variance_concentrates_like_one_over_n(rng):
    # synthetic Bernoulli outcomes: var of the beam mean scales as 1/N
    p = 0.3
    m_runs = 3000
    variances = {}
    for n in (8, 32):
        means = rng.binomial(n, p, size=m_runs) / n
        variances[n] = means.var()
    ratio = variances[8] / variances[32]
    assert 2.5 <= ratio <= 6.5   # ideal 4, generous sampling window


def test_frequency_average_accepts_lists_and_arrays(rng):
    obs = random_hermitian(rng, 4)
    vectors = [random_state(rng, 4) for _ in range(5)]
    densities = [np.outer(v, v.conj()) for v in vectors]
    expected = np.mean([qstate.expectation(v, obs) for v in vectors])
    for states in (vectors, np.array(vectors), densities, np.array(densities)):
        assert beams.frequency_average(obs, states) == pytest.approx(expected, abs=1e-13)


def test_frequency_average_keeps_expectation_checks(rng):
    obs = random_hermitian(rng, 4)
    for empty in ([], np.empty((0, 4), dtype=complex)):
        with pytest.raises(ValueError, match="at least one"):
            beams.frequency_average(obs, empty)
    # dimension mismatch, for state vectors and for density matrices
    with pytest.raises(ValueError, match="do not match"):
        beams.frequency_average(obs, [random_state(rng, 2)] * 3)
    with pytest.raises(ValueError, match="do not match"):
        beams.frequency_average(obs, np.stack([np.eye(2) / 2] * 3))
    with pytest.raises(ValueError, match="Hermitian"):
        beams.frequency_average(obs + 1j * np.eye(4), [random_state(rng, 4)])
    # a non-Hermitian "density matrix" leaves an imaginary residue above tolerance
    residue = 10 * qstate.EXPECTATION_IMAG_TOL
    bad = np.array([[0.5, residue * 1j], [0.0, 0.5]])
    good = np.eye(2) / 2
    with pytest.raises(ValueError, match="imaginary residue"):
        beams.frequency_average(qstate.sigma_x, [good, bad, good])
    # a residue within tolerance passes
    ok = np.array([[0.5, 0.1 * qstate.EXPECTATION_IMAG_TOL * 1j], [0.0, 0.5]])
    assert beams.frequency_average(qstate.sigma_x, [good, ok]) == pytest.approx(0.0, abs=1e-10)
