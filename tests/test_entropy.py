import math

import numpy as np
import pytest

from nlqcorr import entropy


# --- Shannon ---

def test_shannon_uniform_two_is_one_bit():
    assert entropy.shannon_entropy([0.5, 0.5], base=2) == pytest.approx(1.0, abs=1e-14)


def test_shannon_deterministic_is_zero():
    assert entropy.shannon_entropy([1.0], base=2) == 0.0
    assert entropy.shannon_entropy([1.0, 0.0, 0.0], base=2) == 0.0


def test_shannon_two_term_direct_sum():
    p = [1 / 3, 2 / 3]
    direct = (1 / 3) * math.log2(3) + (2 / 3) * math.log2(3 / 2)
    assert entropy.shannon_entropy(p, base=2) == pytest.approx(direct, abs=1e-14)


def test_shannon_hartley_special_case():
    # equal counts: information log2(N / N_k) recovered from the count distribution
    counts = np.array([4, 4, 4, 4]) / 16
    assert entropy.shannon_entropy(counts, base=2) == pytest.approx(math.log2(4), abs=1e-14)


def test_distribution_validation():
    with pytest.raises(ValueError):
        entropy.shannon_entropy([0.5, 0.6])
    with pytest.raises(ValueError):
        entropy.shannon_entropy([1.5, -0.5])
    # tiny negative roundoff within tolerance is clipped, not rejected
    entropy.shannon_entropy([1.0 + 5e-15, -5e-15])


# --- KN averages ---

def test_kn_linear_is_arithmetic_mean(rng):
    p = np.array([0.2, 0.3, 0.5])
    x = rng.normal(size=3)
    linear = entropy.KNFunction(lambda v: v, lambda v: v, "linear")
    assert entropy.kn_average(x, p, linear) == pytest.approx(float(p @ x), abs=1e-12)


def test_kn_sqrt_two_point_closed_form():
    for p_plus in (0.0, 0.25, 0.5, 0.9, 1.0):
        got = entropy.kn_average([9.0, 1.0], [p_plus, 1 - p_plus], entropy.kn_sqrt())
        assert got == pytest.approx((3 * p_plus + (1 - p_plus)) ** 2, abs=1e-12)


def test_kn_affine_invariance(rng):
    phi = entropy.kn_sqrt()
    for _ in range(20):
        x = rng.uniform(0.1, 30.0, size=4)
        p = rng.uniform(0.1, 1.0, size=4)
        p /= p.sum()
        base = entropy.kn_average(x, p, phi)
        shifted = entropy.kn_average(x, p, entropy.kn_affine(phi, 2.0, 3.0))
        assert abs(base - shifted) <= 1e-10


def test_kn_exponential_reproduces_renyi(rng):
    # phi(x) = 2^((1 - alpha) x) turns the Shannon random variable log2(1/p_k)
    # into the Renyi alpha-entropy
    for alpha in (0.5, 2.0, 3.5):
        scale = (1 - alpha) * math.log(2)
        phi = entropy.KNFunction(lambda x: math.exp(scale * x), lambda y: math.log(y) / scale,
                                 f"exp[alpha={alpha:g}]")
        for _ in range(10):
            p = rng.uniform(0.05, 1.0, size=5)
            p /= p.sum()
            info = np.log2(1 / p)
            via_kn = entropy.kn_average(info, p, phi)
            assert abs(via_kn - entropy.renyi_entropy(p, alpha, base=2)) <= 1e-10


def test_kn_function_rejects_broken_inverse():
    with pytest.raises(ValueError):
        entropy.KNFunction(lambda x: x**3, lambda y: y, "broken")


def test_kn_average_domain_violation():
    with pytest.raises(ValueError):
        entropy.kn_average([-1.0, 4.0], [0.5, 0.5], entropy.kn_sqrt())


# --- Renyi ---

def test_renyi_uniform_collapses_alpha():
    p = np.full(8, 1 / 8)
    for alpha in (0.3, 0.9, 2.0, 5.0):
        assert entropy.renyi_entropy(p, alpha, base=2) == pytest.approx(3.0, abs=1e-12)


def test_renyi_symmetric_two_point():
    assert entropy.renyi_entropy([0.5, 0.5], 2.0, base=2) == pytest.approx(1.0, abs=1e-14)


def test_renyi_limit_approaches_shannon(rng):
    p = rng.uniform(0.05, 1.0, size=6)
    p /= p.sum()
    shannon = entropy.shannon_entropy(p, base=2)
    for alpha in (1 - 1e-4, 1 + 1e-4):
        assert abs(entropy.renyi_entropy(p, alpha, base=2) - shannon) <= 1e-3


def test_renyi_order_one_is_shannon():
    got = entropy.renyi_entropy([0.25, 0.75], 1.0)
    assert got == pytest.approx(entropy.shannon_entropy([0.25, 0.75], base=2), abs=1e-14)


def test_renyi_additive_over_products(rng):
    for alpha in (0.5, 2.0, 3.0):
        a = rng.uniform(0.1, 1.0, size=3)
        a /= a.sum()
        b = rng.uniform(0.1, 1.0, size=4)
        b /= b.sum()
        joint = np.outer(a, b).ravel()
        lhs = entropy.renyi_entropy(joint, alpha, base=2)
        rhs = entropy.renyi_entropy(a, alpha, base=2) + entropy.renyi_entropy(b, alpha, base=2)
        assert abs(lhs - rhs) <= 1e-10


# --- the decomposition identity ---

def test_kn_decomposition_endpoints():
    lhs, rhs = entropy.kn_decomposition_check(1.0)
    assert lhs == pytest.approx(1.0, abs=1e-14)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    lhs, rhs = entropy.kn_decomposition_check(0.5)
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert abs(rhs) <= 1e-12


def test_kn_decomposition_random_sweep(rng):
    worst = 0.0
    for p_plus in rng.uniform(0, 1, size=1000):
        lhs, rhs = entropy.kn_decomposition_check(float(p_plus))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


# --- Tsallis ---

def test_tsallis_uniform_two_q2():
    assert entropy.tsallis_entropy([0.5, 0.5], 2.0) == pytest.approx(0.5, abs=1e-14)


def test_tsallis_deterministic_zero():
    for q in (0.5, 2.0, 3.7):
        assert entropy.tsallis_entropy([1.0, 0.0], q) == 0.0


def test_tsallis_pseudo_additivity(rng):
    for q in (0.5, 2.0, 3.0):
        a = rng.uniform(0.1, 1.0, size=3)
        a /= a.sum()
        b = rng.uniform(0.1, 1.0, size=3)
        b /= b.sum()
        joint = np.outer(a, b).ravel()
        sa = entropy.tsallis_entropy(a, q)
        sb = entropy.tsallis_entropy(b, q)
        lhs = entropy.tsallis_entropy(joint, q)
        assert abs(lhs - (sa + sb + (1 - q) * sa * sb)) <= 1e-12


def test_tsallis_limit_is_natural_log_shannon(rng):
    p = rng.uniform(0.05, 1.0, size=5)
    p /= p.sum()
    nat = entropy.shannon_entropy(p, base=math.e)
    assert entropy.tsallis_entropy(p, 1.0) == pytest.approx(nat, abs=1e-14)
    for q in (1 - 1e-4, 1 + 1e-4):
        assert abs(entropy.tsallis_entropy(p, q) - nat) <= 1e-3


def test_q_deformation_linearization_error_is_second_order():
    # p^q - p = (q-1) p ln p + O((q-1)^2), so the residual shrinks 4x when
    # the offset halves
    grid = np.linspace(1e-4, 1.0, 500)

    def max_residual(q):
        return np.max(np.abs(grid**q - grid - (q - 1) * grid * np.log(grid)))

    for delta in (1e-2, 1e-3):
        big, small = max_residual(1 + delta), max_residual(1 + delta / 2)
        assert big / small == pytest.approx(4.0, rel=0.15)

