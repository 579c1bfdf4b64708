"""Dense complex linear algebra for few-qubit systems.

States are 1-d complex numpy arrays, operators and density matrices square
2-d complex arrays. Systems stay small (a few qubits, dimension <= 32), so
storage is dense row-major and Hermitian eigenproblems go through LAPACK
(``np.linalg.eigh``). Hermiticity violations are errors, never silently
symmetrized away. All functions are pure and never mutate inputs.
"""

from __future__ import annotations

import math

import numpy as np

HERMITIAN_TOL = 1e-12
STATE_NORM_TOL = 1e-9
UNIT_DIRECTION_TOL = 1e-10
EXPECTATION_IMAG_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10
TILTED_PAIR_ANGLE = np.pi / 8
TILTED_PAIR_AMPLITUDE = 1 / 3


def _const(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=complex)
    a.setflags(write=False)
    return a


sigma_x = _const([[0, 1], [1, 0]])
sigma_y = _const([[0, -1j], [1j, 0]])
sigma_z = _const([[1, 0], [0, -1]])


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def pauli_vector(direction) -> np.ndarray:
    """a . sigma for a real 3-vector a."""
    a = np.asarray(direction, dtype=float)
    if a.shape != (3,):
        raise ValueError("direction must be a real 3-vector")
    return a[0] * sigma_x + a[1] * sigma_y + a[2] * sigma_z


# ---------------------------------------------------------------------------
# validation helpers


def check_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def check_hermitian(m, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    a = check_square(m, name)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    dev = np.abs(a - a.conj().T).max()
    if not dev <= tol:
        raise ValueError(f"{name} is not Hermitian: max |M - M^dag| = {dev:.3e} > {tol:.1e}")
    return a


def check_observables(observables) -> dict[str, np.ndarray]:
    """Validate a name -> Hermitian operator mapping (None means no observables)."""
    return {name: check_hermitian(op, name=f"observable {name!r}")
            for name, op in (observables or {}).items()}


def check_state(psi) -> np.ndarray:
    v = np.asarray(psi, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"state must be a 1-d amplitude vector, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= STATE_NORM_TOL:
        raise ValueError(f"state norm {norm!r} deviates from 1 by more than {STATE_NORM_TOL:.1e}")
    return v


def check_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity, unit trace and spectrum of a density matrix."""
    a = check_hermitian(rho, name="density matrix")
    tr = np.trace(a)
    if not abs(tr - 1.0) <= HERMITIAN_TOL:
        raise ValueError(f"density matrix trace {tr!r} deviates from 1 by more than {HERMITIAN_TOL:.1e}")
    w, _ = eigh(a)
    if not w[0] >= DENSITY_EIG_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")
    return a


# ---------------------------------------------------------------------------
# operations


def partial_trace(rho, dims, keep: int) -> np.ndarray:
    """Reduced matrix of factor ``keep`` (1-based) of a composite operator on ``dims``."""
    dims = tuple(int(d) for d in dims)
    a = check_square(rho, "composite matrix")
    if int(np.prod(dims)) != a.shape[0]:
        raise ValueError(f"dims {dims} do not factor dimension {a.shape[0]}")
    if not 1 <= keep <= len(dims):
        raise ValueError(f"keep={keep} out of range for {len(dims)} subsystems")
    t = a.reshape(dims + dims)
    n = len(dims)
    for j in sorted((i for i in range(len(dims)) if i != keep - 1), reverse=True):
        t = np.trace(t, axis1=j, axis2=j + n)
        n -= 1
    return t


def reduced_states(psis, dims, keep: int) -> np.ndarray:
    """Reduced matrices of one factor of a stack of composite pure states.

    ``psis`` is an (n, prod(dims)) array of state vectors; returns the
    (n, d, d) stack of reduced matrices of factor ``keep`` (1-based, as in
    :func:`partial_trace`).
    """
    dims = tuple(int(d) for d in dims)
    if not 1 <= keep <= len(dims):
        raise ValueError(f"keep={keep} out of range for {len(dims)} subsystems")
    m = np.asarray(psis, dtype=complex)
    if m.shape[-1] != math.prod(dims):
        raise ValueError(f"dims {dims} do not factor dimension {m.shape[-1]}")
    # factor ``keep`` on axis 1, the traced factors flattened behind it in any order
    d = dims[keep - 1]
    m = m.reshape((-1,) + dims).swapaxes(1, keep).reshape(-1, d, m.shape[-1] // d)
    return np.einsum("nab,ncb->nac", m, m.conj())


def lift_operator(op, dims, index: int) -> np.ndarray:
    """Embed a one-subsystem operator into the composite space at ``index`` (0-based)."""
    dims = tuple(int(d) for d in dims)
    a = check_square(op, "operator")
    if a.shape[0] != dims[index]:
        raise ValueError(f"operator dimension {a.shape[0]} does not match subsystem dim {dims[index]}")
    before = int(np.prod(dims[:index])) if index > 0 else 1
    after = int(np.prod(dims[index + 1:])) if index + 1 < len(dims) else 1
    out = a
    if before > 1:
        out = np.kron(identity(before), out)
    if after > 1:
        out = np.kron(out, identity(after))
    return out


def eigh(mat) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix (LAPACK)."""
    w, v = np.linalg.eigh(check_hermitian(mat))
    return w, v


def herm_exp(h, scale: complex) -> np.ndarray:
    """exp(scale * H) for Hermitian H via spectral decomposition.

    Unitary (to working precision) whenever ``scale`` is purely imaginary.
    """
    w, v = eigh(h)
    return (v * np.exp(scale * w)) @ v.conj().T


def herm_power(rho, q: float, floor: float) -> tuple[np.ndarray, float]:
    """Spectral power rho**q of a Hermitian positive semidefinite matrix.

    Eigenvalues below ``floor`` are treated as exact zeros. Returns the
    powered matrix together with the smallest raw eigenvalue, so the caller
    can detect a genuinely negative (or, for non-finite input, NaN) spectrum.
    ``rho`` is not re-validated: this is the inner step of the q-deformed
    flow, whose stage matrices are Hermitian by construction.
    """
    w, v = np.linalg.eigh(rho)
    pw = np.where(w < floor, 0.0, w) ** q
    return (v * pw) @ v.conj().T, float(w[0])


def expectation(state, obs) -> float:
    """Real expectation value of ``obs`` in a pure state or density matrix.

    Raises if the imaginary residue exceeds tolerance (non-Hermitian input or
    mismatched dimensions would show up here).
    """
    o = check_square(obs, "observable")
    s = np.asarray(state, dtype=complex)
    if s.ndim == 1:
        if s.size != o.shape[0]:
            raise ValueError(f"state dim {s.size} does not match observable dim {o.shape[0]}")
        val = np.vdot(s, o @ s)
    elif s.ndim == 2:
        if s.shape != o.shape:
            raise ValueError(f"density matrix shape {s.shape} does not match observable {o.shape}")
        val = np.trace(s @ o)
    else:
        raise ValueError("state must be a vector or a density matrix")
    if abs(val.imag) > EXPECTATION_IMAG_TOL:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e} above tolerance")
    return float(val.real)


def projector(direction) -> tuple[np.ndarray, np.ndarray]:
    """Spin projectors (E+, E-) = (I +- a.sigma)/2 along a unit 3-vector a."""
    a = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(a)
    if not abs(norm - 1.0) <= UNIT_DIRECTION_TOL:
        raise ValueError(f"direction norm {norm!r} deviates from 1 by more than {UNIT_DIRECTION_TOL:.1e}")
    x = pauli_vector(a)
    eye = identity(2)
    return (eye + x) / 2, (eye - x) / 2


# ---------------------------------------------------------------------------
# standard two-qubit states


def singlet_state() -> np.ndarray:
    """(|+-> - |-+>)/sqrt(2)."""
    return np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def tilted_pair_state() -> np.ndarray:
    """Entangled pair a |1>|2> - sqrt(1-a^2) |2>|1> over a tilted qubit basis.

    ``|1>`` and ``|2>`` are the z basis rotated by ``TILTED_PAIR_ANGLE`` (pi/8),
    and a = ``TILTED_PAIR_AMPLITUDE``: amplitudes 1/3 and -2*sqrt(2)/3.
    """
    a = TILTED_PAIR_AMPLITUDE
    c, s = np.cos(TILTED_PAIR_ANGLE), np.sin(TILTED_PAIR_ANGLE)
    k1 = np.array([c, s], dtype=complex)
    k2 = np.array([-s, c], dtype=complex)
    return a * np.kron(k1, k2) - np.sqrt(1 - a**2) * np.kron(k2, k1)
