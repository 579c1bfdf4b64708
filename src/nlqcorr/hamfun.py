"""Hamiltonian functions of density matrices and their switched composites.

A :class:`HamiltonianFunction` is a real energy ``H(rho)`` together with its
Hermitian gradient ``G(rho)`` (the effective Hamiltonian: ``dH = Tr(G drho)``,
and the induced pure-state flow is ``i dpsi/dt = G(|psi><psi|) psi``). Every
energy is a function of ``rho``, so it is invariant under a global phase of
``psi`` by construction.

The built-in catalogue covers the linear form ``<H>``, the quadratic average
``c <X>^2 / 2`` for Hermitian ``X``, and the mean-field form
``c ||<sigma>||^2 / 2`` whose gradient is the Bloch-vector field
``c <sigma>.sigma``. Custom functions may supply only ``energy``; the gradient
then falls back to central finite differences over the Hermitian entries of
``rho`` (flagged in trajectory metadata). Whether a flow has a closed form is
decided by ``dynamics.propagator_family``, from ``terms_commute`` and the state.

:func:`polchinski_extend` builds the multiparticle composite: each subsystem
contributes its own energy evaluated on its reduced density matrix, gated by a
reversed-step switching factor that shuts the term off at that subsystem's
detection time. Reduced dynamics of one subsystem is then independent of every
other subsystem's Hamiltonian function and detection time. The composite,
:class:`SwitchedHamiltonian`, only records the parts and their validated
:class:`SwitchingSchedule`; ``dynamics`` decides how it acts on a state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import qstate

COMMUTATOR_TOL = 1e-12
FD_STEP = 1e-5  # central-difference step of the finite-difference gradient


# ---------------------------------------------------------------------------
# Hamiltonian functions


@dataclass(frozen=True)
class GeneratorTerm:
    """One structured generator term c <O>^p O.

    ``power`` 0 gives a linear energy ``c <O>``, ``power`` 1 the quadratic
    average ``c <O>^2 / 2``; in general the energy contribution is
    ``c <O>^(p+1) / (p+1)``.
    """

    operator: np.ndarray
    power: int
    coef: float

    def __post_init__(self):
        op = qstate.check_hermitian(self.operator, name="generator term operator")
        op = op.copy()
        op.setflags(write=False)
        object.__setattr__(self, "operator", op)
        if self.power < 0:
            raise ValueError("generator term power must be >= 0")


class HamiltonianFunction:
    """Real energy function of a density matrix with its effective Hamiltonian."""

    def __init__(
        self,
        label: str,
        energy: Callable[[np.ndarray], float] | None = None,
        gradient: Callable[[np.ndarray], np.ndarray] | None = None,
        terms: Sequence[GeneratorTerm] | None = None,
    ):
        if energy is None and terms is None:
            raise ValueError("need energy or terms")
        self.label = label
        self._energy = energy
        self._gradient = gradient
        self.terms = tuple(terms) if terms is not None else None
        # pairwise commuting terms c <O>^p O keep every <O>, so G(rho) is conserved
        ops = [t.operator for t in self.terms or ()]
        self.terms_commute = self.terms is not None and all(
            np.max(np.abs(a @ b - b @ a)) <= COMMUTATOR_TOL
            for i, a in enumerate(ops) for b in ops[i + 1:])

    @property
    def dim(self) -> int | None:
        if self.terms:
            return self.terms[0].operator.shape[0]
        return None

    @property
    def uses_fd_gradient(self) -> bool:
        return self.terms is None and self._gradient is None

    def energy(self, rho) -> float:
        rho = np.asarray(rho, dtype=complex)
        if self.terms is not None:
            total = 0.0
            for term in self.terms:
                ev = np.trace(rho @ term.operator).real
                total += term.coef * ev ** (term.power + 1) / (term.power + 1)
            return float(total)
        return float(self._energy(rho))

    def state_energy(self, psi) -> float:
        psi = np.asarray(psi, dtype=complex)
        return self.energy(np.outer(psi, psi.conj()))

    def effective_matrix(self, rho) -> np.ndarray:
        """Hermitian gradient G(rho); analytic when available, else central FD."""
        rho = np.asarray(rho, dtype=complex)
        if self.terms is not None:
            g = np.zeros_like(rho)
            for term in self.terms:
                ev = np.trace(rho @ term.operator).real
                g = g + term.coef * ev ** term.power * term.operator
            return g
        if self._gradient is not None:
            g = np.asarray(self._gradient(rho), dtype=complex)
            if not np.isfinite(g).all():
                raise NonFiniteGradient("supplied gradient produced non-finite entries")
            return qstate.check_hermitian(g, tol=1e-10, name="supplied gradient")
        return _fd_gradient(self.energy, rho, FD_STEP)

    def __repr__(self):
        return f"HamiltonianFunction({self.label!r})"


class NonFiniteGradient(ValueError):
    """A supplied or finite-difference gradient came out with non-finite entries.

    ``dynamics`` reads it as a blown-up stage of an RK4 step and reports
    where the run failed as a ``NumericalError``.
    """


@functools.lru_cache(maxsize=32)
def _fd_directions(d: int, step: float) -> tuple[np.ndarray, np.ndarray]:
    """The d^2 perturbations ``step * E_k`` of the central differences, and their read-out.

    The Hermitian units E_k come in the order the gradient reads them: the
    diagonal units, then for each pair i < j (row-major) the symmetric unit
    (1 at ij and ji) and the antisymmetric one (i at ij, -i at ji). With D_k
    the directional derivative along E_k, G = sum_k w_k D_k E_k, where w_k is
    1 on the diagonal and 1/2 off it; the read-out is that map as a
    (d^2, d^2) matrix acting on the vector of D_k.
    """
    units = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        units.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            ex = np.zeros((d, d), dtype=complex)
            ex[i, j] = 1.0
            ex[j, i] = 1.0
            ey = np.zeros((d, d), dtype=complex)
            ey[i, j] = 1j
            ey[j, i] = -1j
            units += [ex, ey]
    units = np.stack(units)
    weights = np.where(np.arange(d * d) < d, 1.0, 0.5)
    readout = np.ascontiguousarray((weights[:, None, None] * units).reshape(d * d, d * d).T)
    pert = step * units
    pert.setflags(write=False)
    readout.setflags(write=False)
    return pert, readout


def _fd_gradient(energy: Callable[[np.ndarray], float], rho: np.ndarray, step: float) -> np.ndarray:
    """Central finite-difference gradient over the Hermitian entries of rho.

    Calls ``energy`` 2 d^2 times: at rho + p and then rho - p for every
    perturbation p of :func:`_fd_directions`.
    """
    d = rho.shape[0]
    pert, readout = _fd_directions(d, step)
    plus, minus = rho + pert, rho - pert
    diff = np.array([energy(a) - energy(b) for a, b in zip(plus, minus)]) / (2 * step)
    g = np.dot(readout, diff).reshape(d, d)
    if not np.isfinite(g).all():
        raise NonFiniteGradient("finite-difference gradient produced non-finite entries")
    return g


# ---------------------------------------------------------------------------
# catalogue factories


def linear(op, label: str | None = None) -> HamiltonianFunction:
    """Energy <H> = Tr(rho H), the bilinear (linear quantum mechanics) case."""
    op = qstate.check_hermitian(op, name="linear Hamiltonian operator")
    return HamiltonianFunction(
        label or "linear", terms=(GeneratorTerm(op, power=0, coef=1.0),)
    )


def quadratic_average(op, coef: float = 1.0, label: str | None = None) -> HamiltonianFunction:
    """Energy coef * <X>^2 / 2 with gradient coef * <X> X."""
    op = qstate.check_hermitian(op, name="quadratic-average operator")
    return HamiltonianFunction(
        label or "quadratic-average", terms=(GeneratorTerm(op, power=1, coef=float(coef)),)
    )


def mean_field(coupling: float = 1.0, label: str | None = None) -> HamiltonianFunction:
    """Qubit mean-field energy coupling * ||<sigma>||^2 / 2.

    The gradient is coupling * <sigma>.sigma, i.e. precession in the field
    produced by the beam's own average magnetic moment. The terms do not
    commute, but G(rho) commutes with rho (the Bloch vector precesses about
    itself), so every state is a fixed point. The overall proportionality
    between the field and Tr(rho sigma) is the ``coupling`` parameter.
    """
    terms = tuple(
        GeneratorTerm(op, power=1, coef=float(coupling))
        for op in (qstate.sigma_x, qstate.sigma_y, qstate.sigma_z)
    )
    return HamiltonianFunction(label or "mean-field", terms=terms)


def from_callable(
    energy: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray] | None = None,
    label: str = "custom",
) -> HamiltonianFunction:
    """Wrap a user energy function of rho; gradient falls back to finite differences.

    ``energy`` must be defined on Hermitian matrices in a neighbourhood of the
    density-matrix manifold (finite differencing perturbs trace and spectrum).
    ``propagator_family`` integrates its unitary unless ``rho0`` is a fixed point.
    """
    return HamiltonianFunction(label, energy=energy, gradient=gradient)


CATALOGUE_NAMES = ("linear-z", "quadratic-z", "mean-field")


def catalogue_entry(name: str, coef: float = 1.0) -> HamiltonianFunction:
    """Named catalogue entries addressable from CLI configs."""
    if name == "linear-z":
        return linear(coef * np.asarray(qstate.sigma_z), label=f"linear-z[{coef:g}]")
    if name == "quadratic-z":
        return quadratic_average(qstate.sigma_z, coef, label=f"quadratic-z[{coef:g}]")
    if name == "mean-field":
        return mean_field(coef, label=f"mean-field[{coef:g}]")
    raise ValueError(f"unknown catalogue entry {name!r}; known: {CATALOGUE_NAMES}")


# ---------------------------------------------------------------------------
# gradients at pure states


def effective_hamiltonian(h: HamiltonianFunction, psi) -> np.ndarray:
    """Hermitian M with i dpsi/dt = M psi at the pure state psi."""
    psi = qstate.check_state(psi)
    return h.effective_matrix(np.outer(psi, psi.conj()))


# ---------------------------------------------------------------------------
# switching schedules and the multiparticle extension


@dataclass(frozen=True)
class SwitchingSchedule:
    """Per-subsystem detection times; +inf means never detected."""

    detection_times: tuple[float, ...]
    subsystem_dims: tuple[int, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.detection_times)
        dims = tuple(int(d) for d in self.subsystem_dims)
        if len(times) != len(dims) or not times:
            raise ValueError("need one detection time per subsystem")
        for t in times:
            if math.isnan(t) or t < 0:
                raise ValueError(f"detection times must be >= 0 or +inf, got {t}")
        if min(dims) < 1:
            raise ValueError("subsystem dimensions must be positive")
        object.__setattr__(self, "detection_times", times)
        object.__setattr__(self, "subsystem_dims", dims)


@dataclass(frozen=True)
class SwitchedHamiltonian:
    """The composite sum_k theta(t - t_k) H_k(rho_k) as a record: one part per subsystem.

    Produced by :func:`polchinski_extend`; part k acts on the k-th reduced
    density matrix and is switched off at the k-th detection time of
    ``schedule``. How the composite acts on a state is ``dynamics``' business.
    """

    parts: tuple[HamiltonianFunction, ...]
    schedule: SwitchingSchedule

    def __post_init__(self):
        if not isinstance(self.schedule, SwitchingSchedule):
            raise TypeError("schedule must be a SwitchingSchedule")
        parts = tuple(self.parts)
        dims = self.schedule.subsystem_dims
        if len(parts) != len(dims):
            raise ValueError("need exactly one Hamiltonian function per subsystem")
        for part, d in zip(parts, dims):
            if part.dim is not None and part.dim != d:
                raise ValueError(
                    f"part {part.label!r} has dimension {part.dim}, subsystem expects {d}"
                )
        object.__setattr__(self, "parts", parts)


def polchinski_extend(h_list: Sequence[HamiltonianFunction], dims: Sequence[int],
                      schedule: SwitchingSchedule) -> SwitchedHamiltonian:
    """Compose one Hamiltonian function per subsystem into the switched extension.

    At time t the composite energy is sum_k theta(t - t_k) H_k(rho_k) with
    rho_k the k-th reduced density matrix; with an all-infinite schedule this
    is the plain unswitched multiparticle extension.
    """
    dims = tuple(int(d) for d in dims)
    if schedule.subsystem_dims != dims:
        raise ValueError(
            f"schedule dims {schedule.subsystem_dims} do not match subsystem dims {dims}"
        )
    return SwitchedHamiltonian(tuple(h_list), schedule)
