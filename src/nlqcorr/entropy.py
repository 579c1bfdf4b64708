"""Generalized entropies and Kolmogorov-Nagumo (KN) averages.

Shannon and Renyi information measures, Tsallis entropy, and KN
quasi-linear averages phi^-1(sum p_k phi(x_k)) of classical values.
Conventions: 0 log(1/0) := 0 and 0^q := 0 for q > 0; the log
base is an explicit parameter, defaulting to 2 for information quantities
while Tsallis entropy uses the natural log. Hartley information log(N/N_k)
is the deterministic special case of ``shannon_entropy`` on empirical count
distributions and gets no separate entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

DIST_SUM_TOL = 1e-12
DIST_NEG_TOL = -1e-14
KN_ROUNDTRIP_TOL = 1e-10


def _as_distribution(weights) -> np.ndarray:
    p = np.asarray(weights, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("probability distribution must be a 1-d sequence")
    if np.any(p < DIST_NEG_TOL):
        raise ValueError(f"negative probability below {DIST_NEG_TOL:.1e}")
    total = p.sum()
    if abs(total - 1.0) > DIST_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return np.clip(p, 0.0, None)


def shannon_entropy(weights, base: float = 2.0) -> float:
    """sum_k p_k log_base(1/p_k) with the 0 log(1/0) := 0 convention."""
    if base <= 1:
        raise ValueError("log base must exceed 1")
    p = _as_distribution(weights)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum() / math.log(base))


@dataclass(frozen=True)
class KNFunction:
    """Strictly monotonic map with inverse, the kernel of a KN average.

    ``domain`` bounds the arguments phi accepts; the inverse is verified
    against phi on a sample grid at construction (tolerance 1e-10).
    """

    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    label: str
    domain: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self):
        lo = max(self.domain[0], -8.0)
        hi = min(self.domain[1], 8.0)
        if not lo < hi:
            raise ValueError("KN function domain is empty")
        for x in np.linspace(lo, hi, 17):
            back = self.inverse(self.forward(float(x)))
            if abs(back - x) > KN_ROUNDTRIP_TOL:
                raise ValueError(
                    f"inverse fails roundtrip at x={x!r}: phi^-1(phi(x)) = {back!r}"
                )

    def check_domain(self, values: np.ndarray):
        lo, hi = self.domain
        if np.any(values < lo) or np.any(values > hi):
            raise ValueError(f"values outside KN domain [{lo}, {hi}]")


def kn_sqrt() -> KNFunction:
    return KNFunction(math.sqrt, lambda y: y * y, "sqrt", domain=(0.0, math.inf))


def kn_affine(phi: KNFunction, a: float, b: float) -> KNFunction:
    """a phi + b; leaves every KN average invariant for a != 0."""
    if a == 0:
        raise ValueError("affine scale must be nonzero")
    return KNFunction(
        lambda x: a * phi.forward(x) + b,
        lambda y: phi.inverse((y - b) / a),
        f"{a:g}*{phi.label}+{b:g}",
        domain=phi.domain,
    )


def kn_average(values, weights, phi: KNFunction) -> float:
    """phi^-1(sum_k p_k phi(x_k))."""
    p = _as_distribution(weights)
    x = np.asarray(values, dtype=float)
    if x.shape != p.shape:
        raise ValueError("values and weights must have matching length")
    phi.check_domain(x)
    acc = sum(pk * phi.forward(float(xk)) for pk, xk in zip(p, x))
    return float(phi.inverse(acc))


def renyi_entropy(weights, alpha: float, base: float = 2.0) -> float:
    """(1/(1-alpha)) log_base(sum_k p_k^alpha) for alpha > 0.

    At alpha = 1 it returns the limit, the Shannon entropy in the same base.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if base <= 1:
        raise ValueError("log base must exceed 1")
    p = _as_distribution(weights)
    if alpha == 1:
        return shannon_entropy(p, base)
    nz = p[p > 0]
    return float(math.log((nz**alpha).sum()) / ((1 - alpha) * math.log(base)))


def kn_decomposition_check(p_plus: float) -> tuple[float, float]:
    """Both sides of the sqrt-kernel split of the quadratic pair energy.

    lhs = (p+ - p-)^2; rhs rebuilds it from one KN average with phi = sqrt
    over the values {9, 1} minus a linear average: they agree identically.
    """
    if not 0 <= p_plus <= 1:
        raise ValueError("p_plus must lie in [0, 1]")
    p_minus = 1.0 - p_plus
    lhs = (p_plus - p_minus) ** 2
    phi = kn_sqrt()
    rhs = kn_average([9.0, 1.0], [p_plus, p_minus], phi) - 4.0 * (p_plus - p_minus) - 4.0
    return lhs, rhs


def tsallis_entropy(weights, q: float) -> float:
    """(sum_k p_k^q - 1)/(1 - q); its limit, the natural-log Shannon entropy, at q = 1."""
    p = _as_distribution(weights)
    if q == 1:
        return shannon_entropy(p, base=math.e)
    nz = p[p > 0]
    return float(((nz**q).sum() - 1.0) / (1.0 - q))

