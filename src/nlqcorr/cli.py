"""Experiment command line for the correlation-protocol simulator.

Subcommands
-----------
figure2         switching-protocol observable trajectories (CSV)
figure3         Zeno-protocol branch-mixture trajectories (CSV)
entropy-sweep   Renyi/Tsallis/Shannon table over an order parameter (CSV)
locality-check  reduced-state invariance sweep, PASS/FAIL summary
teleport-demo   pre/post-selection mean-field comparison
history-check   unitary-filter vs projected history equivalence
qvn             q-deformed von Neumann integration (CSV)

Configuration is a flat ``key = value`` text file (``#`` comments) passed via
``--config``; flag ``--foo-bar`` sets key ``foo_bar`` and overrides its file
entry. CSV files begin with ``#``-prefixed metadata lines (config echo,
integrator, code version) and are byte-deterministic for a fixed
configuration and backend; a state preset echoes its name. Files are written
atomically (temp file, rename).

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
from typing import NamedTuple

import numpy as np

from . import entropy, protocols, qstate
from ._version import __version__
from .dynamics import NumericalError, integrate_qvn
from .hamfun import HamiltonianFunction, catalogue_entry

LOCALITY_PASS_TOL = 1e-10
HISTORY_PASS_TOL = 1e-12

STATE_PRESETS = ("singlet", "tilted-pair")


class ConfigError(Exception):
    """Invalid configuration (bad flag, malformed file, violated invariant)."""


class _Parser(argparse.ArgumentParser):
    # usage errors are configuration errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# value converters (all flags arrive as strings; config files too)


def _number(raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {raw!r}") from exc


def _float(raw: str) -> float:
    val = _number(raw)
    if not math.isfinite(val):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return val


def _positive_float(raw: str) -> float:
    val = _float(raw)
    if val <= 0:
        raise ConfigError(f"expected a positive finite number, got {raw!r}")
    return val


def _time(raw: str) -> float:
    val = _number(raw)
    if not val >= 0:
        raise ConfigError(f"expected a time >= 0 (or inf), got {raw!r}")
    return val


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {raw!r}") from exc


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _choice(options):
    def conv(raw: str) -> str:
        if raw not in options:
            raise ConfigError(f"expected one of {options}, got {raw!r}")
        return raw

    return conv


def _list(conv):
    def convert(raw: str) -> tuple:
        return tuple(conv(tok) for tok in raw.split(","))

    return convert


_floats = _list(_float)


class _State(NamedTuple):
    """A converted ``state`` value: the amplitudes and the preset they came from."""

    psi: np.ndarray
    preset: str | None


def _state(raw: str) -> _State:
    """Named preset or comma-separated complex amplitudes (normalized to 1e-9)."""
    name = raw.strip()
    if name == "singlet":
        return _State(qstate.singlet_state(), name)
    if name == "tilted-pair":
        return _State(qstate.tilted_pair_state(), name)
    try:
        amps = np.array([complex(tok) for tok in name.split(",")], dtype=complex)
    except ValueError as exc:
        raise ConfigError(
            f"state must be one of {STATE_PRESETS} or comma-separated amplitudes, got {raw!r}"
        ) from exc
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= 1e-9:
        raise ConfigError(f"state amplitudes have norm {norm!r}, expected 1 within 1e-9")
    return _State(amps / norm, None)


_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0),
         "-x": (-1.0, 0.0, 0.0), "-y": (0.0, -1.0, 0.0), "-z": (0.0, 0.0, -1.0)}


def _direction(raw: str) -> np.ndarray:
    name = raw.strip().lower()
    if name in _AXES:
        return np.array(_AXES[name])
    vec = np.array(_floats(name))
    norm = np.linalg.norm(vec)
    if vec.shape != (3,) or norm == 0:
        raise ConfigError(f"direction must be x/y/z or a nonzero 3-vector, got {raw!r}")
    return vec / norm


def _range(raw: str) -> tuple[float, ...]:
    """start:stop:step, inclusive of stop up to rounding."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected start:stop:step, got {raw!r}")
    start, stop, step = (_float(p) for p in parts)
    if step <= 0 or stop < start:
        raise ConfigError(f"expected start <= stop and step > 0, got {raw!r}")
    n = int(math.floor((stop - start) / step + 1e-9))
    return tuple(start + k * step for k in range(n + 1))


def _dist(raw: str) -> np.ndarray:
    vals = np.array(_floats(raw))
    if np.any(vals < 0) or abs(vals.sum() - 1.0) > 1e-9:
        raise ConfigError("distribution entries must be >= 0 and sum to 1 within 1e-9")
    return vals / vals.sum()


def _path(raw: str) -> str:
    if not raw:
        raise ConfigError("expected a non-empty output path")
    return raw


# ---------------------------------------------------------------------------
# config assembly


def _parse_config_file(path: str) -> dict[str, str]:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, val = text.split("=", 1)
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _build_config(args, spec: dict) -> dict:
    """Convert each key's flag, else its config-file entry, else its default, once."""
    file_vals = _parse_config_file(args.config) if args.config else {}
    unknown = set(file_vals) - set(spec)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = {}
    for key, (default, conv) in spec.items():
        raw = getattr(args, key)
        if raw is None:
            raw = file_vals.get(key, default)
        try:
            cfg[key] = conv(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    return cfg


# ---------------------------------------------------------------------------
# CSV output


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        if x == 0:
            x = 0.0
        return f"{float(x):.12g}"
    return str(x)


def _echo(value) -> str:
    if isinstance(value, _State):
        value = value.preset or value.psi
    if isinstance(value, (np.ndarray, tuple)):
        return ",".join(_fmt(v) for v in value)
    return _fmt(value)


def write_csv(path: str, header: list[str], rows, meta: dict) -> None:
    """Atomically write a CSV with '#'-prefixed metadata lines."""
    lines = [f"# {key} = {_echo(val)}" for key, val in sorted(meta.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nlqcorr-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# experiments


def _figure_grid(cfg: dict, detections) -> np.ndarray:
    """The sample times on [0, t_end], after checking that the ``detections`` keys fit."""
    for tk in detections:
        if math.isfinite(cfg[tk]) and cfg[tk] > cfg["t_end"]:
            raise ConfigError(f"t_end must be >= {tk} when {tk} is finite")
    n = int(round(cfg["t_end"] / cfg["dt"]))
    if n < 1 or abs(n * cfg["dt"] - cfg["t_end"]) > 1e-9:
        raise ConfigError("t_end must be a positive integer multiple of dt")
    return np.arange(n + 1) * cfg["dt"]


def _generator(cfg: dict, coef: float) -> HamiltonianFunction:
    """The pair commands' sigma_z generator with coefficient ``coef``, as ``linear_mode`` picks it."""
    return catalogue_entry("linear-z" if cfg["linear_mode"] else "quadratic-z", coef)


def _figure_observables() -> dict[str, np.ndarray]:
    sx, eye = qstate.sigma_x, qstate.identity(2)
    return {
        "exp_xx": np.kron(sx, sx),
        "exp_x1": np.kron(sx, eye),
        "exp_1x": np.kron(eye, sx),
    }


def _write_result(cfg: dict, experiment: str, integrator: str, header: list[str], rows) -> None:
    """Write the CSV to ``cfg["out"]``; its metadata echoes the converted config."""
    meta = {key: val for key, val in cfg.items() if key != "out"}
    meta.update(experiment=experiment, integrator=integrator, version=__version__)
    write_csv(cfg["out"], header, rows, meta)
    print(f"{experiment}: wrote {cfg['out']}")


def _print_outcome_table(table: protocols.MeasurementOutcomeTable) -> None:
    print("joint outcome probabilities (first sign = particle #1):")
    for key in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        sa, sb = key
        print(f"  p({'+' if sa > 0 else '-'},{'+' if sb > 0 else '-'}) = {table.outcomes[key]:.12g}")
    print(f"  correlator = {table.correlator:.12g}")
    if table.dead_branches:
        print(f"  dead branches: {table.dead_branches}")


def run_figure(cfg: dict, protocol: str) -> int:
    grid = _figure_grid(cfg, ("t1", "t2"))
    psi0, t1, t2 = cfg["state"].psi, cfg["t1"], cfg["t2"]
    h1, h2 = _generator(cfg, cfg["A"]), _generator(cfg, cfg["B"])
    traj = protocols.ensemble_average_trajectory(
        protocol, psi0, h1, h2, t1, t2,
        _figure_observables(), grid, cfg["direction_a"], cfg["direction_b"],
    )
    rows = zip(grid, traj.column("exp_xx"), traj.column("exp_x1"), traj.column("exp_1x"))
    _write_result(cfg, "figure2" if protocol == "switching" else "figure3",
                  traj.metadata["integrator"], ["t", "exp_xx", "exp_x1", "exp_1x"], rows)
    if not (math.isfinite(t1) and math.isfinite(t2)):
        print("no joint outcome table: at least one particle is never detected")
        return 0
    if protocol == "switching":
        table = protocols.switching_correlator(
            psi0, h1, h2, t1, t2,
            qstate.pauli_vector(cfg["direction_a"]), qstate.pauli_vector(cfg["direction_b"]),
            (cfg["direction_a"], cfg["direction_b"]),
        )
    else:
        table = protocols.zeno_correlator(
            psi0, h1, h2, t1, t2, cfg["direction_a"], cfg["direction_b"],
        )
    _print_outcome_table(table)
    return 0


def run_entropy_sweep(cfg: dict) -> int:
    dist = cfg["dist"]
    rows = []
    for order in cfg["alpha_range"]:
        snapped = 1.0 if abs(order - 1.0) < 1e-12 else order
        rows.append((
            order,
            entropy.renyi_entropy(dist, snapped, base=2.0),
            entropy.tsallis_entropy(dist, snapped),
            entropy.shannon_entropy(dist, base=2.0),
        ))
    _write_result(cfg, "entropy-sweep", "closed-form", ["order", "renyi", "tsallis", "shannon"], rows)
    return 0


def run_locality_check(cfg: dict) -> int:
    grid = _figure_grid(cfg, ("t1",))
    psi0 = cfg["state"].psi
    h1 = _generator(cfg, cfg["A"])
    protocol = cfg["protocol"]
    b_values, t2_values = cfg["b_values"], cfg["t2_values"]
    if protocol == "zeno" and min(t2_values) < cfg["t1"]:
        # the quantity is #2's response to the measurement of #1 at t1
        raise ConfigError("need t1 <= t2")

    def series(b_coef, t2, keep, protocol="switching"):
        h2 = _generator(cfg, b_coef)
        return protocols.reduced_state_series(
            protocol, psi0, h1, h2, cfg["t1"], t2, grid, keep, cfg["direction_a"])

    sweep = [(b_coef, t2) for b_coef in b_values for t2 in t2_values]
    if protocol == "switching":
        runs = [series(b_coef, t2, keep=1) for b_coef, t2 in sweep]
        devs = [run - runs[0] for run in runs]  # the first sweep entry is the baseline
        quantity = "max deviation of reduced state #1 across the (B, t2) sweep"
    else:
        devs = [series(b_coef, t2, keep=2, protocol="zeno") - series(b_coef, t2, keep=2)
                for b_coef, t2 in sweep]
        quantity = "max response of reduced state #2 to the distant t1 measurement"
    # np.max propagates NaN, and a NaN deviation fails the comparison below
    worst = float(np.max(np.abs(devs)))
    verdict = "PASS" if worst <= LOCALITY_PASS_TOL else "FAIL"
    print(f"locality-check protocol={protocol}")
    print(f"  {quantity}")
    print(f"  B values: {list(b_values)}  t2 values: {list(t2_values)}")
    print(f"  max deviation = {worst:.6e}  threshold = {LOCALITY_PASS_TOL:.1e}  verdict = {verdict}")
    return 0


def run_teleport_demo(cfg: dict) -> int:
    report = protocols.teleportation_demo(
        cfg["state"].psi, cfg["pairs"], cfg["selection"],
        cfg["direction_a"], keep_alice_outcome=cfg["keep"],
        coupling=cfg["coupling"], seed=cfg["seed"],
    )
    print(f"teleport-demo selection={report.selection} n_pairs={report.n_pairs} "
          f"n_retained={report.n_retained}")
    print(f"  b_pre     = ({_fmt(report.b_pre[0])}, {_fmt(report.b_pre[1])}, {_fmt(report.b_pre[2])})")
    print(f"  b_post    = ({_fmt(report.b_post[0])}, {_fmt(report.b_post[1])}, {_fmt(report.b_post[2])})")
    print(f"  b_sampled = ({_fmt(report.b_sampled[0])}, {_fmt(report.b_sampled[1])}, "
          f"{_fmt(report.b_sampled[2])})")
    return 0


def run_history_check(cfg: dict) -> int:
    if cfg["trials"] < 1:
        raise ConfigError(f"trials must be >= 1, got {cfg['trials']}")
    rng = np.random.default_rng(cfg["seed"])
    dim = cfg["dim"]
    devs = []
    for _ in range(cfg["trials"]):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        gen = (g + g.conj().T) / 2
        times = np.sort(rng.uniform(0.2, 5.0, size=2))
        projs = []
        for t in times:
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            projs.append((float(t), np.outer(v, v.conj())))
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        a /= np.linalg.norm(a)
        b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        b /= np.linalg.norm(b)
        w = rng.uniform(0.2, 0.8)
        rho0 = w * np.outer(a, a.conj()) + (1 - w) * np.outer(b, b.conj())
        spec = protocols.HistorySpec(tuple(projs), gen)
        pu = protocols.history_probability_unitary(spec, rho0)
        pp = protocols.history_probability_projected(spec, rho0)
        devs.append(abs(pu - pp))
    worst = float(np.max(devs, initial=0.0))
    verdict = "PASS" if worst <= HISTORY_PASS_TOL else "FAIL"
    print(f"history-check trials={cfg['trials']} max |p_unitary - p_projected| = {worst:.3e} "
          f"threshold = {HISTORY_PASS_TOL:.1e} verdict = {verdict}")
    return 0


def run_qvn(cfg: dict) -> int:
    rho0 = np.diag([0.75, 0.25]).astype(complex)
    traj = integrate_qvn(
        qstate.sigma_x, rho0, cfg["q"], cfg["t_end"], cfg["dt"], coupling=cfg["coupling"],
        observables={"exp_x": qstate.sigma_x, "exp_z": qstate.sigma_z},
    )
    tr1 = np.einsum("tii->t", traj.states).real
    tr2 = np.einsum("tij,tji->t", traj.states, traj.states).real
    rows = zip(traj.times, traj.column("exp_x"), traj.column("exp_z"), tr1, tr2)
    _write_result(cfg, "qvn", traj.metadata["integrator"],
                  ["t", "exp_x", "exp_z", "tr_rho", "tr_rho2"], rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


_HELP = {
    "out": "output CSV path",
    "state": f"state preset {STATE_PRESETS} or comma-separated amplitudes",
    "A": "first-particle coefficient",
    "B": "second-particle coefficient",
    "t1": "detection time of particle #1 (inf = never)",
    "t2": "detection time of particle #2 (inf = never)",
    "t_end": "final sampled time",
    "dt": "sample spacing / integration step",
    "direction_a": "measurement axis for particle #1 (x, y, z or ax,ay,az)",
    "direction_b": "measurement axis for particle #2",
    "linear_mode": "replace the quadratic energies by bilinear ones (0/1)",
    "q": "deformation exponent",
    "alpha_range": "order sweep start:stop:step",
    "dist": "comma-separated probabilities",
    "protocol": "switching or zeno",
    "b_values": "swept second-particle coefficients",
    "t2_values": "swept second detection times",
    "pairs": "ensemble size",
    "selection": "pre or post",
    "keep": "Alice outcome that keeps a pair (+1 or -1)",
    "coupling": "mean-field proportionality constant",
    "seed": "RNG seed",
    "trials": "number of random cases",
    "dim": "Hilbert-space dimension",
}

_FIGURE_SPEC = {
    "state": ("tilted-pair", _state),
    "A": ("8", _float),
    "B": ("0.5", _float),
    "t1": ("3.5", _time),
    "t2": ("8", _time),
    "t_end": ("10", _positive_float),
    "dt": ("0.01", _positive_float),
    "direction_a": ("x", _direction),
    "direction_b": ("x", _direction),
    "linear_mode": ("0", _bool),
}

# subcommand -> (help, spec, runner). A spec maps each config key, in flag
# order, to its raw default and its converter; key ``foo_bar`` is flag
# ``--foo-bar``, and the runner receives the converted config.
COMMANDS = {
    "figure2": ("switching-protocol trajectories",
                {"out": ("figure2.csv", _path), **_FIGURE_SPEC},
                functools.partial(run_figure, protocol="switching")),
    "figure3": ("Zeno-protocol branch-mixture trajectories",
                {"out": ("figure3.csv", _path), **_FIGURE_SPEC},
                functools.partial(run_figure, protocol="zeno")),
    "entropy-sweep": ("generalized-entropy table", {
        "out": ("entropy_sweep.csv", _path),
        "alpha_range": ("0.25:2.0:0.25", _range),
        "dist": ("0.25,0.25,0.25,0.25", _dist),
    }, run_entropy_sweep),
    # B and t2 go unread (the sweep reads b_values, t2_values); perfbench passes both flags
    "locality-check": ("reduced-state invariance sweep", {
        **{key: val for key, val in _FIGURE_SPEC.items() if key != "direction_b"},
        "dt": ("0.05", _positive_float),
        "protocol": ("switching", _choice(("switching", "zeno"))),
        "b_values": ("0,0.5,5", _floats),
        "t2_values": ("5,8,20", _list(_time)),
    }, run_locality_check),
    "teleport-demo": ("pre/post-selection mean-field comparison", {
        "state": ("singlet", _state),
        "pairs": ("10000", _int),
        "selection": ("pre", _choice(("pre", "post"))),
        "direction_a": ("z", _direction),
        "keep": ("-1", _int),
        "coupling": ("1", _float),
        "seed": ("1234", _int),
    }, run_teleport_demo),
    "history-check": ("two-route history equivalence", {
        "trials": ("100", _int),
        "seed": ("7", _int),
        "dim": ("2", _int),
    }, run_history_check),
    "qvn": ("q-deformed von Neumann integration", {
        "out": ("qvn.csv", _path),
        "q": ("1", _positive_float),
        "t_end": ("10", _positive_float),
        "dt": ("0.001", _positive_float),
        "coupling": ("1", _float),
    }, run_qvn),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nlqcorr", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"nlqcorr {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, spec, _) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="flat key = value config file")
        for key in spec:
            sub.add_argument("--" + key.replace("_", "-"), help=_HELP[key])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one build serves every call
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    _, spec, runner = COMMANDS[args.command]
    try:
        cfg = _build_config(args, spec)
        return runner(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"nlqcorr: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a runner's only file access is writing its output CSV
        print(f"nlqcorr: config error: cannot write {cfg['out']}: {exc.strerror}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a sample grid too large to allocate, e.g. a tiny dt; numpy names the size
        print(f"nlqcorr: config error: out of memory: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"nlqcorr: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
