"""The four benchmark workloads: seeded inputs, timed ops, oracles and counts.

Every workload is a pool of ops generated from one seed before timing starts.
An op is a closure over its generated inputs with three parts:

* ``run(tracer)`` makes the calls into ``nlqcorr`` that are timed, each one
  wrapped in a span named after the public function it calls;
* ``check(out)`` is the oracle, run outside the timed interval; it returns
  None for a correct output and a one-line reason otherwise;
* ``counts(out)`` returns the work counters of the op. Keys ending in
  ``_computed`` are derived from the inputs and the call structure of the
  program, not counted inside it.

Op kinds follow a fixed pattern over the pool index, so every prefix of the
pool has the same mix of kinds whatever the seed; the seed only draws the
parameters. That keeps the percentiles of two runs with different seeds on
the same kind of op.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nlqcorr import beams, cli, dynamics, hamfun, protocols, qstate

POOL_SIZE = 2048

SIGMA_X = np.asarray(qstate.sigma_x)
SIGMA_Z = np.asarray(qstate.sigma_z)
PAIR_OBS = {
    "exp_xx": np.kron(SIGMA_X, SIGMA_X),
    "exp_x1": np.kron(SIGMA_X, np.eye(2)),
    "exp_1x": np.kron(np.eye(2), SIGMA_X),
}


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: timed calls, oracle and work counters."""

    kind: str
    run: Callable
    check: Callable[[object], str | None]
    counts: Callable[[object], dict]


# ---------------------------------------------------------------------------
# input helpers


def _state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def _full_rank_density(rng, n):
    w = rng.uniform(0.1, 1.0, size=n)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    rho = (u * (w / w.sum())) @ u.conj().T
    return (rho + rho.conj().T) / 2


def _direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _coef(rng):
    return float(rng.uniform(0.5, 8.0))


def _van_der_corput(i):
    """Base-2 radical inverse: every prefix of the sequence is evenly spread."""
    x, denom = 0.0, 1.0
    while i:
        i, bit = divmod(i, 2)
        denom *= 2.0
        x += bit / denom
    return x


def _cli(argv):
    """Run ``cli.main`` with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _exit_problem(out):
    if out["code"] != 0:
        return f"cli exit code {out['code']}: {out['stderr'].strip()[:200]}"
    return None


def _cli_counts(out):
    return {"cli.nonzero_exits": int(out["code"] != 0)}


_VERDICT = re.compile(r"verdict = (PASS|FAIL)")


def _verdict_problem(out, expected, what):
    """Exit code 0 and the printed PASS/FAIL verdict equal to ``expected``."""
    problem = _exit_problem(out)
    if problem:
        return problem
    m = _VERDICT.search(out["stdout"])
    if m is None or m.group(1) != expected:
        return f"{what}: verdict {m and m.group(1)}, expected {expected}"
    return None


# ---------------------------------------------------------------------------
# rk4-switched: structured RK4 kernel and generic finite-difference path,
# both against the closed-form pair propagator (acceptance criterion 3).

RK4_STEPS = 60
RK4_DEV_TOL = 1e-6


def _rk4_op(rng, fd: bool) -> Op:
    psi0 = _state(rng, 4)
    a, b = _coef(rng), _coef(rng)
    dt = float(rng.choice([1e-3, 5e-4]))
    t_end = RK4_STEPS * dt
    t1, t2 = (float(rng.uniform(0.1, 0.9) * t_end) if rng.random() < 0.5 else math.inf
              for _ in range(2))
    span = "dynamics.integrate_fd" if fd else "dynamics.integrate"
    # one extra partial RK4 step for every switch that falls between grid points
    steps = RK4_STEPS + sum(
        1 for tk in (t1, t2)
        if math.isfinite(tk) and abs(tk / dt - round(tk / dt)) > 1e-9
    )

    def run(tr):
        evals = [0]

        def quadratic(coef):
            if not fd:
                return hamfun.quadratic_average(SIGMA_Z, coef)

            def energy(rho):
                evals[0] += 1
                return coef * np.trace(rho @ SIGMA_Z).real ** 2 / 2

            return hamfun.from_callable(energy)

        sched = hamfun.SwitchingSchedule((t1, t2), (2, 2))
        comp = hamfun.polchinski_extend([quadratic(a), quadratic(b)], (2, 2), sched)
        with tr.span(span):
            traj = dynamics.integrate(comp, psi0, t_end, dt)
        exact = []
        for t in traj.times:
            with tr.span("dynamics.exact_pair_propagator"):
                exact.append(dynamics.exact_pair_propagator(psi0, a, b, sched, t))
        return {"states": traj.states, "exact": np.stack(exact), "fd_evals": evals[0]}

    def check(out):
        if out["states"].shape != (RK4_STEPS + 1, 4) or out["exact"].shape != out["states"].shape:
            return f"trajectory shape {out['states'].shape}, expected {(RK4_STEPS + 1, 4)}"
        dev = float(np.max(np.linalg.norm(out["states"] - out["exact"], axis=1)))
        if not dev <= RK4_DEV_TOL:
            return f"max |psi_num - psi_exact| = {dev:.3e} > {RK4_DEV_TOL:.0e}"
        return None

    def counts(out):
        return {f"{span}.rk4_steps": steps, "hamfun.fd_energy_evals": out["fd_evals"]}

    return Op("fd" if fd else "structured", run, check, counts)


def rk4_switched(seed: int, workdir: str) -> list[Op]:
    """One op in four runs the finite-difference energy through the generic path."""
    rng = np.random.default_rng(seed)
    return [_rk4_op(rng, fd=(i % 4 == 3)) for i in range(POOL_SIZE)]


# ---------------------------------------------------------------------------
# qvn-fractional: isospectral q-deformed flow, spectral matrix powers

QVN_DT = 1e-3
QVN_CLI_STEPS = 100
QVN_D4_STEPS = 12
QVN_TRACE_TOL = 1e-10
QVN_SPECTRUM_TOL = 1e-9
QVN_CLI_TR_RHO2 = 0.75 ** 2 + 0.25 ** 2  # the CLI starts from diag(0.75, 0.25)


def _fractional_q(rng):
    lo, hi = (0.3, 0.95) if rng.random() < 0.5 else (1.05, 1.95)
    return float(rng.uniform(lo, hi))


def _qvn_work(steps):
    # four fractional matrix powers per RK4 step; integrate_qvn adds two
    # decompositions per call (density-matrix validation, positivity check)
    return {"kernels.herm_matrix_power.calls_computed": 4 * steps,
            "qstate.eigh.calls_computed": 4 * steps + 2}


def _read_qvn_csv(path):
    rows = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            if header is None:
                header = line.strip().split(",")
                continue
            rows.append([float(tok) for tok in line.split(",")])
    data = np.array(rows)
    return {name: data[:, i] for i, name in enumerate(header)}


def _qvn_cli_op(rng, path) -> Op:
    q = _fractional_q(rng)
    coupling = float(rng.uniform(0.5, 2.0))
    argv = ["qvn", "--q", repr(q), "--t-end", repr(QVN_CLI_STEPS * QVN_DT),
            "--dt", repr(QVN_DT), "--coupling", repr(coupling), "--out", path]

    def run(tr):
        with tr.span("cli.qvn"):
            return _cli(argv)

    def check(out):
        problem = _exit_problem(out)
        if problem:
            return problem
        cols = _read_qvn_csv(path)
        if cols["t"].size != QVN_CLI_STEPS + 1:
            return f"{cols['t'].size} CSV rows, expected {QVN_CLI_STEPS + 1}"
        tr_dev = float(np.max(np.abs(cols["tr_rho"] - 1.0)))
        if not tr_dev <= QVN_TRACE_TOL:
            return f"trace drift {tr_dev:.3e} > {QVN_TRACE_TOL:.0e}"
        tr2 = cols["tr_rho2"]
        spec_dev = max(float(np.max(np.abs(tr2 - tr2[0]))), abs(tr2[0] - QVN_CLI_TR_RHO2))
        if not spec_dev <= QVN_SPECTRUM_TOL:
            return f"tr_rho2 drift {spec_dev:.3e} > {QVN_SPECTRUM_TOL:.0e}"
        return None

    def counts(out):
        written = os.path.getsize(path) if out["code"] == 0 else 0
        return {"cli.qvn.rk4_steps": QVN_CLI_STEPS, "cli.qvn.bytes_written": written,
                **_qvn_work(QVN_CLI_STEPS), **_cli_counts(out)}

    return Op("cli-d2", run, check, counts)


def _qvn_d4_op(rng) -> Op:
    q = _fractional_q(rng)
    hmat = _hermitian(rng, 4)
    rho0 = _full_rank_density(rng, 4)
    spectrum0 = np.linalg.eigvalsh(rho0)

    def run(tr):
        with tr.span("dynamics.integrate_qvn"):
            traj = dynamics.integrate_qvn(hmat, rho0, q, QVN_D4_STEPS * QVN_DT, QVN_DT)
        return {"rhos": traj.states}

    def check(out):
        rhos = out["rhos"]
        if rhos.shape != (QVN_D4_STEPS + 1, 4, 4):
            return f"trajectory shape {rhos.shape}"
        tr_dev = float(np.max(np.abs(np.einsum("tii->t", rhos) - 1.0)))
        if not tr_dev <= QVN_TRACE_TOL:
            return f"trace drift {tr_dev:.3e} > {QVN_TRACE_TOL:.0e}"
        spec_dev = float(np.max(np.abs(np.linalg.eigvalsh(rhos) - spectrum0)))
        if not spec_dev <= QVN_SPECTRUM_TOL:
            return f"spectrum drift {spec_dev:.3e} > {QVN_SPECTRUM_TOL:.0e}"
        return None

    def counts(out):
        return {"dynamics.integrate_qvn.rk4_steps": QVN_D4_STEPS, **_qvn_work(QVN_D4_STEPS)}

    return Op("api-d4", run, check, counts)


def qvn_fractional(seed: int, workdir: str) -> list[Op]:
    """Three ops in four run the CLI at d=2; the fourth calls integrate_qvn at d=4."""
    rng = np.random.default_rng(seed)
    path = os.path.join(workdir, "qvn.csv")
    return [_qvn_d4_op(rng) if i % 4 == 3 else _qvn_cli_op(rng, path)
            for i in range(POOL_SIZE)]


# ---------------------------------------------------------------------------
# protocol-sweep: closed-form propagation over many times of one pair

PROTO_DT = 0.05
PROTO_GRID = np.arange(41) * PROTO_DT
NONCONSERVED_DT = 0.02
NONCONSERVED_GRID = np.arange(21) * NONCONSERVED_DT
NONCONSERVED_ORACLE_SUBSTEPS = 10
NONCONSERVED_TOL = 1e-7
HISTORY_TRIALS = 4
TABLE_AGREE_TOL = 1e-12
# Two fast history-d2 ops per 16 put the median op at about the 75th
# percentile of the ensemble ops, where their latencies lie close together;
# with one, it sat at the 87th, where the steep tail made op_p50_ms jumpy.
PROTO_PATTERN = (
    "ensemble", "history-d2", "ensemble", "nonconserved",
    "ensemble", "locality-switching", "ensemble", "history-d4",
    "ensemble", "locality-zeno", "ensemble", "history-d2",
    "ensemble", "locality-switching", "ensemble", "locality-zeno",
)


def _frozen(grid, t1, t2):
    """Grid points at which both particles are already detected."""
    return int(np.count_nonzero(grid >= max(t1, t2)))


def _ensemble_op(rng, kinds) -> Op:
    psi0 = _state(rng, 4)
    linear = kinds == ("linear-z", "linear-z")
    a, b = _coef(rng), _coef(rng)
    t1 = float(rng.uniform(0.2, 1.2))
    t2 = float(rng.uniform(t1 + 0.1, 1.9))
    dir_a, dir_b = _direction(rng), _direction(rng)
    grid = PROTO_GRID
    pre = grid <= t1

    def run(tr):
        h1 = hamfun.catalogue_entry(kinds[0], a)
        h2 = hamfun.catalogue_entry(kinds[1], b)
        with tr.span("protocols.ensemble_average_trajectory.switching"):
            sw = protocols.ensemble_average_trajectory(
                "switching", psi0, h1, h2, t1, t2, PAIR_OBS, grid)
        with tr.span("protocols.ensemble_average_trajectory.zeno"):
            ze = protocols.ensemble_average_trajectory(
                "zeno", psi0, h1, h2, t1, t2, PAIR_OBS, grid, direction_a=dir_a)
        with tr.span("protocols.switching_correlator"):
            st = protocols.switching_correlator(
                psi0, h1, h2, t1, t2, qstate.pauli_vector(dir_a), qstate.pauli_vector(dir_b),
                (dir_a, dir_b))
        with tr.span("protocols.zeno_correlator"):
            zt = protocols.zeno_correlator(psi0, h1, h2, t1, t2, dir_a, dir_b)
        return {"switching": sw, "zeno": ze, "switching_table": st, "zeno_table": zt}

    def check(out):
        sw, ze = out["switching"], out["zeno"]
        norm_dev = float(np.max(np.abs(np.linalg.norm(sw.states, axis=1) - 1.0)))
        if not norm_dev <= TABLE_AGREE_TOL:
            return f"switching state norm drift {norm_dev:.3e}"
        for name in PAIR_OBS:
            vs, vz = sw.column(name), ze.column(name)
            if not (np.all(np.abs(vs) <= 1 + 1e-9) and np.all(np.abs(vz) <= 1 + 1e-9)):
                return f"{name} outside [-1, 1] or not finite"
            # before t1 both protocols run the same unswitched joint evolution
            dev = float(np.max(np.abs(vs[pre] - vz[pre]), initial=0.0))
            if not dev <= TABLE_AGREE_TOL:
                return f"{name} before t1: switching and zeno differ by {dev:.3e}"
        if linear:
            st, zt = out["switching_table"], out["zeno_table"]
            dev = max([abs(st.outcomes[k] - zt.outcomes[k]) for k in st.outcomes]
                      + [abs(st.correlator - zt.correlator)])
            if not dev <= TABLE_AGREE_TOL:
                return f"linear config: switching and zeno tables differ by {dev:.3e}"
        return None

    def counts(out):
        dead = len(out["zeno_table"].dead_branches)
        return {
            "protocols.ensemble_average_trajectory.switching.points": grid.size,
            "protocols.ensemble_average_trajectory.zeno.points": grid.size,
            "protocols.zeno.dead_branches": dead,
            "protocols.frozen_points": 2 * _frozen(grid, t1, t2),
            "protocols.trajectory_points": 2 * grid.size,
            # switching family 2, zeno: families 2 + branches 2 + one per live
            # branch; switching table 2; zeno table 2 + one per live branch
            "qstate.eigh.calls_computed": 10 + 2 * (2 - dead),
        }

    return Op("ensemble", run, check, counts)


def _locality_op(rng, protocol: str, linear: bool) -> Op:
    psi0 = _state(rng, 4)
    a, b = _coef(rng), _coef(rng)
    t1 = float(rng.uniform(0.2, 1.2))
    t2_values = sorted(float(rng.uniform(t1 + 0.1, 2.0)) for _ in range(2))
    b_values = [_coef(rng) for _ in range(2)]
    # the zeno sweep runs nonlinear generators with B > 0, where it must FAIL
    linear = linear and protocol == "switching"
    expected = "FAIL" if protocol == "zeno" else "PASS"
    argv = ["locality-check", "--protocol", protocol,
            "--state", ",".join(repr(complex(x)) for x in psi0),
            "--A", repr(a), "--B", repr(b), "--t1", repr(t1), "--t2", repr(t2_values[0]),
            "--t-end", repr(float(PROTO_GRID[-1])), "--dt", repr(PROTO_DT),
            "--b-values", ",".join(map(repr, b_values)),
            "--t2-values", ",".join(map(repr, t2_values)),
            "--linear-mode", "1" if linear else "0"]
    n_grid = PROTO_GRID.size
    sweep = len(b_values) * len(t2_values)
    if protocol == "switching":
        # two one-particle propagators per switched pair state, per grid point,
        # for the baseline series and every sweep entry
        eighs = 2 * n_grid * (1 + sweep)
    else:
        # per sweep entry: two per grid point for the switching series, two for
        # the zeno branches, and per grid point either the joint evolution
        # (before t1) or one propagator per live branch (after it)
        eighs = sweep * (4 * n_grid + 2)

    def run(tr):
        with tr.span("cli.locality-check"):
            return _cli(argv)

    def check(out):
        return _verdict_problem(out, expected, f"locality-check {protocol}")

    def counts(out):
        return {"qstate.eigh.calls_computed": eighs, **_cli_counts(out)}

    return Op(f"locality-{protocol}", run, check, counts)


def _history_op(rng, dim: int) -> Op:
    argv = ["history-check", "--dim", str(dim), "--trials", str(HISTORY_TRIALS),
            "--seed", str(int(rng.integers(0, 2**31)))]

    def run(tr):
        with tr.span("cli.history-check"):
            return _cli(argv)

    def check(out):
        return _verdict_problem(out, "PASS", f"history-check dim {dim}")

    def counts(out):
        # per trial and route: density-matrix validation plus one exponential
        # per projector (two projectors)
        return {"qstate.eigh.calls_computed": 6 * HISTORY_TRIALS, **_cli_counts(out)}

    return Op(f"history-d{dim}", run, check, counts)


def _nonconserved_op(rng, kind2: str) -> Op:
    psi0 = _state(rng, 4)
    cz, cx = float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0))
    b = _coef(rng)
    t1 = float(rng.uniform(0.15, 0.2))
    t2 = float(rng.uniform(t1, NONCONSERVED_GRID[-1])) if rng.random() < 0.5 else math.inf
    grid = NONCONSERVED_GRID

    def generators():
        # sigma_z quadratic plus sigma_x linear: the terms do not commute, so
        # propagator_family integrates the unitary with its RK4 fallback
        h1 = hamfun.HamiltonianFunction("nonconserved", terms=(
            hamfun.GeneratorTerm(SIGMA_Z, power=1, coef=cz),
            hamfun.GeneratorTerm(SIGMA_X, power=0, coef=cx)))
        return h1, hamfun.catalogue_entry(kind2, b)

    def run(tr):
        h1, h2 = generators()
        with tr.span("protocols.ensemble_average_trajectory.nonconserved"):
            return protocols.ensemble_average_trajectory(
                "switching", psi0, h1, h2, t1, t2, PAIR_OBS, grid)

    def check(traj):
        h1, h2 = generators()
        # oracle: the composite switched flow, integrated directly at a finer step
        sched = hamfun.SwitchingSchedule((t1, t2), (2, 2))
        comp = hamfun.polchinski_extend([h1, h2], (2, 2), sched)
        fine = dynamics.integrate(comp, psi0, float(grid[-1]),
                                  NONCONSERVED_DT / NONCONSERVED_ORACLE_SUBSTEPS)
        ref = fine.states[::NONCONSERVED_ORACLE_SUBSTEPS]
        if ref.shape != traj.states.shape:
            return f"trajectory shape {traj.states.shape}, expected {ref.shape}"
        dev = float(np.max(np.linalg.norm(traj.states - ref, axis=1)))
        if not dev <= NONCONSERVED_TOL:
            return f"nonconserved switching vs composite RK4: {dev:.3e} > {NONCONSERVED_TOL:.0e}"
        return None

    def counts(traj):
        return {
            "protocols.ensemble_average_trajectory.nonconserved.points": grid.size,
            "protocols.frozen_points": _frozen(grid, t1, t2),
            "protocols.trajectory_points": grid.size,
            # only the conserved second particle is diagonalised
            "qstate.eigh.calls_computed": 1,
        }

    return Op("nonconserved", run, check, counts)


def protocol_sweep(seed: int, workdir: str) -> list[Op]:
    """Protocol curves and tables, locality and history checks, RK4 fallback.

    Kind shares per 16 ops: ensemble 8, locality 4 (2 switching, 2 zeno),
    history 3 (two at dim 2, one at dim 4), nonconserved 1. The generators cycle too, like
    the kinds: every fourth ensemble config is bilinear, the others run
    through every pair of catalogue entries, one locality-switching op in two
    runs linear mode, and the nonconserved ops cycle their second generator.
    """
    rng = np.random.default_rng(seed)
    pairs = itertools.cycle(itertools.product(hamfun.CATALOGUE_NAMES, repeat=2))
    second = itertools.cycle(hamfun.CATALOGUE_NAMES)
    ops = []
    for i in range(POOL_SIZE):
        kind = PROTO_PATTERN[i % len(PROTO_PATTERN)]
        if kind == "ensemble":
            # bilinear configs are where the switching and zeno tables must agree
            kinds = ("linear-z", "linear-z") if i % 8 == 0 else next(pairs)
            ops.append(_ensemble_op(rng, kinds))
        elif kind.startswith("locality-"):
            ops.append(_locality_op(rng, kind.split("-", 1)[1], linear=(i % 16 == 5)))
        elif kind.startswith("history-d"):
            ops.append(_history_op(rng, int(kind[len("history-d"):])))
        else:
            ops.append(_nonconserved_op(rng, next(second)))
    return ops


# ---------------------------------------------------------------------------
# beam-staggered: the same propagators over many pairs at one time

BEAM_MIN_PAIRS = 32
BEAM_MAX_PAIRS = 512
BEAM_BIRTH_SPAN = 4.0
BEAM_MEAN_FLIGHT = 2.5
BEAM_T_RANGE = (2.0, 5.0)  # about 40% of pairs are unborn or fully detected at t
BEAM_SAMPLE = 3
BEAM_TOL = 1e-12


def _beam_op(rng, u: float) -> Op:
    n = int(round(BEAM_MIN_PAIRS * (BEAM_MAX_PAIRS / BEAM_MIN_PAIRS) ** u))
    psi0 = _state(rng, 4)
    a, b = _coef(rng), _coef(rng)
    births = rng.uniform(0.0, BEAM_BIRTH_SPAN, size=n)
    flight1 = rng.exponential(BEAM_MEAN_FLIGHT, size=n)
    flight2 = rng.exponential(BEAM_MEAN_FLIGHT, size=n)
    t = float(rng.uniform(*BEAM_T_RANGE))
    sample = rng.choice(n, size=BEAM_SAMPLE, replace=False)
    flight2_redrawn = rng.exponential(BEAM_MEAN_FLIGHT, size=BEAM_SAMPLE)
    t1, t2 = births + flight1, births + flight2
    idle = int(np.count_nonzero((t < births) | ((t >= t1) & (t >= t2))))

    def generators():
        return hamfun.quadratic_average(SIGMA_Z, a), hamfun.quadratic_average(SIGMA_Z, b)

    def run(tr):
        h1, h2 = generators()
        with tr.span("beams.BeamSpec.from_flight_times"):
            beam = beams.BeamSpec.from_flight_times(psi0, h1, h2, births, flight1, flight2)
        with tr.span("beams.sub_beam_state"):
            states = beams.sub_beam_state(beam, t)
        with tr.span("beams.frequency_average"):
            avg = beams.frequency_average(SIGMA_X, states)
        return {"states": states, "average": avg}

    def check(out):
        states = out["states"]
        if len(states) != n:
            return f"{len(states)} sub-beam states for {n} pairs"
        mean = float(np.mean([np.trace(s @ SIGMA_X).real for s in states]))
        if not abs(out["average"] - mean) <= BEAM_TOL:
            return f"frequency average off by {abs(out['average'] - mean):.3e}"
        for k in sample:
            sched = hamfun.SwitchingSchedule((t1[k] - births[k], t2[k] - births[k]), (2, 2))
            psi = dynamics.exact_pair_propagator(psi0, a, b, sched, max(t - births[k], 0.0))
            ref = qstate.partial_trace(np.outer(psi, psi.conj()), (2, 2), keep=1)
            dev = float(np.max(np.abs(states[k] - ref)))
            if not dev <= BEAM_TOL:
                return f"pair {k}: sub-beam state off the exact propagator by {dev:.3e}"
        h1, h2 = generators()
        redrawn = beams.sub_beam_state(beams.BeamSpec.from_flight_times(
            psi0, h1, h2, births[sample], flight1[sample], flight2_redrawn), t)
        for k, s in zip(sample, redrawn):
            dev = float(np.max(np.abs(states[k] - s)))
            if not dev <= BEAM_TOL:
                return f"pair {k}: sub-beam state moved by {dev:.3e} when flight2 was redrawn"
        return None

    def counts(out):
        return {"beams.sub_beam_state.pairs": n, "beams.idle_pairs": idle,
                # one Hermitian exponential per particle per pair
                "qstate.eigh.calls_computed": 2 * n}

    return Op("beam", run, check, counts)


def beam_staggered(seed: int, workdir: str) -> list[Op]:
    """N log-uniform in [32, 512], spread evenly over every prefix of the pool."""
    rng = np.random.default_rng(seed)
    # jitter within the finest stratum only, so the warm-up op and the size
    # quantiles of a run barely depend on the seed
    return [_beam_op(rng, _van_der_corput(i) + rng.random() / POOL_SIZE)
            for i in range(POOL_SIZE)]


WORKLOADS = {
    "rk4-switched": rk4_switched,
    "qvn-fractional": qvn_fractional,
    "protocol-sweep": protocol_sweep,
    "beam-staggered": beam_staggered,
}
