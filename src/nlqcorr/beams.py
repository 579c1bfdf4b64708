"""Beams of pairs: per-pair birth/detection times, frequency averages, sub-beams.

A beam of N pairs is a tensor product of single-pair states, but it is never
materialized as one 4^N vector: identity factors trace out of frequency
operators, so the averaged pair observable reduces to the arithmetic mean of
per-pair expectations, and the sub-beam of particles #1 is just the stack of
per-pair reduced matrices. The explicit 4^N construction survives only as a
small-N test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qstate
from .dynamics import switched_states
from .hamfun import HamiltonianFunction


@dataclass(frozen=True)
class BeamSpec:
    """N pairs sharing one initial state and Hamiltonian pair.

    Each row of ``times`` is (t0, t1, t2): a finite birth time and the two
    detection times, with t0 <= t1 and t0 <= t2 (+inf: never detected).
    """

    psi0: np.ndarray
    h1: HamiltonianFunction
    h2: HamiltonianFunction
    times: np.ndarray

    def __post_init__(self):
        psi0 = qstate.check_state(self.psi0)
        if psi0.size != 4:
            raise ValueError("beam pairs must be two-qubit states")
        psi0 = psi0.copy()
        psi0.setflags(write=False)
        object.__setattr__(self, "psi0", psi0)
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 2 or t.shape[1] != 3 or t.shape[0] < 1:
            raise ValueError("times must be an (n_pairs, 3) array of (t0, t1, t2)")
        # NaN fails every comparison, so it is rejected too
        if not (np.isfinite(t[:, 0]).all() and (t[:, 1:] >= t[:, :1]).all()):
            raise ValueError("each pair needs a finite t0 with t0 <= t1 and t0 <= t2")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @classmethod
    def from_flight_times(cls, psi0, h1, h2, birth_times, flight1, flight2) -> "BeamSpec":
        """Build from birth times and times of flight dt_k = t_k - t0."""
        t0 = np.asarray(birth_times, dtype=float)
        d1 = np.broadcast_to(np.asarray(flight1, dtype=float), t0.shape)
        d2 = np.broadcast_to(np.asarray(flight2, dtype=float), t0.shape)
        if np.any(d1 < 0) or np.any(d2 < 0):
            raise ValueError("times of flight must be >= 0")
        return cls(psi0, h1, h2, np.column_stack([t0, t0 + d1, t0 + d2]))

    @property
    def n_pairs(self) -> int:
        return self.times.shape[0]


def frequency_average(pair_obs, pair_states) -> float:
    """Beam average of a pair observable without building the 4^N operator.

    The frequency form (1/N) sum_i O_i with identity on every other pair has,
    on a product state, exactly the arithmetic mean of per-pair expectations.
    ``pair_states`` is a sequence or an (N, d) / (N, d, d) array of state
    vectors or density matrices; the checks are those of
    :func:`qstate.expectation`, applied to every pair.
    """
    obs = qstate.check_hermitian(pair_obs, name="pair observable")
    if not isinstance(pair_states, np.ndarray):
        pair_states = list(pair_states)
    states = np.asarray(pair_states, dtype=complex)
    if states.size == 0:
        raise ValueError("need at least one pair state")
    if states.ndim == 2 and states.shape[1] == obs.shape[0]:
        vals = np.einsum("ni,ij,nj->n", states.conj(), obs, states)
    elif states.ndim == 3 and states.shape[1:] == obs.shape:
        vals = np.einsum("nij,ji->n", states, obs)
    else:
        raise ValueError(f"pair states of shape {states.shape[1:]} do not match "
                         f"observable {obs.shape}")
    residue = np.max(np.abs(vals.imag))
    if residue > qstate.EXPECTATION_IMAG_TOL:
        raise ValueError(f"expectation has imaginary residue {residue:.3e} above tolerance")
    return float(np.mean(vals.real))


def sub_beam_state(beam: BeamSpec, t: float) -> np.ndarray:
    """Reduced states of the particles #1 at time t, an (N, 2, 2) array.

    Pair i evolves from its own birth time; each factor accumulates only its
    switched-on duration, so the result is independent of every t2 (and a
    pair not yet born sits in its initial reduced state). Computed through
    the composite pair state so that independence is a property of the
    dynamics, not of the code path; t = inf thus needs both particles detected.
    """
    t0, t1, t2 = beam.times.T
    tau1 = np.maximum(0.0, np.minimum(t, t1) - t0)
    tau2 = np.maximum(0.0, np.minimum(t, t2) - t0)
    psi_t = switched_states(beam.psi0, (beam.h1, beam.h2), (tau1, tau2))
    return qstate.reduced_states(psi_t, (2, 2), keep=1)
