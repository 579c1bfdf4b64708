"""Dense complex linear algebra for few-qubit systems.

States are 1-d complex numpy arrays, operators and density matrices square
2-d complex arrays. Systems stay small (a few qubits, dimension <= 32), so
storage is dense row-major and Hermitian eigenproblems go through LAPACK
(``np.linalg.eigh``). Hermiticity violations are errors, never silently
symmetrized away. All functions are pure and never mutate inputs.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12
STATE_NORM_TOL = 1e-9
UNIT_DIRECTION_TOL = 1e-10
EXPECTATION_IMAG_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10


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
    dev = np.max(np.abs(a - a.conj().T))
    if dev > tol:
        raise ValueError(f"{name} is not Hermitian: max |M - M^dag| = {dev:.3e} > {tol:.1e}")
    return a


def check_state(psi, tol: float = STATE_NORM_TOL) -> np.ndarray:
    v = np.asarray(psi, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"state must be a 1-d amplitude vector, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state norm {norm!r} deviates from 1 by more than {tol:.1e}")
    return v


def check_density_matrix(rho, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate Hermiticity, unit trace and spectrum of a density matrix."""
    a = check_hermitian(rho, tol, name="density matrix")
    tr = np.trace(a)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"density matrix trace {tr!r} deviates from 1 by more than {tol:.1e}")
    w, _ = eigh(a)
    if w[0] < DENSITY_EIG_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")
    return a


# ---------------------------------------------------------------------------
# operations


def kron(a, b) -> np.ndarray:
    """Tensor product of two square operators."""
    return np.kron(check_square(a, "first factor"), check_square(b, "second factor"))


def reduced_density(rho, dims, keep: int) -> np.ndarray:
    """Reduced matrix of the ``keep``-th (0-based) factor of a composite operator."""
    dims = tuple(int(d) for d in dims)
    a = check_square(rho, "composite matrix")
    if int(np.prod(dims)) != a.shape[0]:
        raise ValueError(f"dims {dims} do not factor dimension {a.shape[0]}")
    if not 0 <= keep < len(dims):
        raise ValueError(f"keep={keep} out of range for {len(dims)} subsystems")
    t = a.reshape(dims + dims)
    n = len(dims)
    for j in sorted((i for i in range(len(dims)) if i != keep), reverse=True):
        t = np.trace(t, axis1=j, axis2=j + n)
        n -= 1
    return t


def partial_trace(rho, dims, keep: int) -> np.ndarray:
    """Partial trace of a bipartite matrix.

    Parameters
    ----------
    rho : array
        Square matrix of dimension ``d1 * d2``.
    dims : (d1, d2)
        Subsystem dimensions.
    keep : {1, 2}
        Which subsystem survives (1-based).

    Returns
    -------
    The reduced ``d1 x d1`` (keep=1) or ``d2 x d2`` (keep=2) matrix.
    """
    d1, d2 = (int(d) for d in dims)
    if keep not in (1, 2):
        raise ValueError("keep must be 1 or 2")
    return reduced_density(rho, (d1, d2), keep - 1)


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
    if abs(norm - 1.0) > UNIT_DIRECTION_TOL:
        raise ValueError(f"direction norm {norm!r} deviates from 1 by more than {UNIT_DIRECTION_TOL:.1e}")
    x = pauli_vector(a)
    eye = identity(2)
    return (eye + x) / 2, (eye - x) / 2


# ---------------------------------------------------------------------------
# standard two-qubit states


def singlet_state() -> np.ndarray:
    """(|+-> - |-+>)/sqrt(2)."""
    return np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def tilted_pair_state(angle: float = np.pi / 8, amplitude: float = 1 / 3) -> np.ndarray:
    """Entangled pair a |1>|2> - sqrt(1-a^2) |2>|1> over a tilted qubit basis.

    ``|1>`` and ``|2>`` are the z basis rotated by ``angle``; the defaults give
    amplitudes 1/3 and -2*sqrt(2)/3 at angle pi/8.
    """
    if not 0 <= amplitude <= 1:
        raise ValueError("amplitude must lie in [0, 1]")
    c, s = np.cos(angle), np.sin(angle)
    k1 = np.array([c, s], dtype=complex)
    k2 = np.array([-s, c], dtype=complex)
    return amplitude * np.kron(k1, k2) - np.sqrt(1 - amplitude**2) * np.kron(k2, k1)
