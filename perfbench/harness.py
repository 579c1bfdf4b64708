"""Closed-loop measurement of one workload, run in a child process of ``run.py``.

One client runs one op at a time; the next op starts when the previous one
has returned and its output has been checked. Only the op itself is timed:
input generation, warm-up and the oracle run outside the timed interval.

``--phase setup`` stops once the process is ready for its first op and
prints the monotonic time at that point, so the launcher can time set-up
(interpreter start, ``import nlqcorr``, input generation, warm-up), together
with the median time of a few reference blocks run right after it.
``--phase measure`` then also runs the loop, with one reference block after
every op and one before the first, and prints its raw results as one JSON
line. With ``--trace 1`` every op runs twice in a row, once
untraced and once with spans recorded, and the per-layer metrics are derived
from those spans.

Usage: python3 perfbench/harness.py --workload NAME --seed N --seconds S
       --trace 0|1 --phase setup|measure --workdir DIR
"""

from __future__ import annotations

import argparse
import array
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MAX_REPORTED_FAILURES = 5
# The host's speed moves by up to 2x, within a second, and the process's CPU
# time moves with it, so it is not time stolen by other guests. A fixed
# reference block, timed between ops, tracks that speed; the launcher scales
# op and set-up times by it (see run.py).
REF_WARM = 5
REF_REPEATS = 20
SETUP_REF_BLOCKS = 50

# One span per call the benchmark makes into a public function of dynamics,
# protocols, beams and cli; "op" is the root span around each timed op.
SPAN_NAMES = (
    "op",
    "dynamics.integrate",
    "dynamics.integrate_fd",
    "dynamics.exact_pair_propagator",
    "dynamics.integrate_qvn",
    "protocols.ensemble_average_trajectory.switching",
    "protocols.ensemble_average_trajectory.zeno",
    "protocols.ensemble_average_trajectory.nonconserved",
    "protocols.switching_correlator",
    "protocols.zeno_correlator",
    "beams.BeamSpec.from_flight_times",
    "beams.sub_beam_state",
    "beams.frequency_average",
    "cli.qvn",
    "cli.locality-check",
    "cli.history-check",
)

# (metric, count key, span whose busy time divides it)
WORK_RATES = (
    ("dynamics.integrate.steps_per_s", "dynamics.integrate.rk4_steps", "dynamics.integrate"),
    ("dynamics.integrate_fd.steps_per_s", "dynamics.integrate_fd.rk4_steps",
     "dynamics.integrate_fd"),
    ("dynamics.integrate_qvn.steps_per_s", "dynamics.integrate_qvn.rk4_steps",
     "dynamics.integrate_qvn"),
    ("cli.qvn.steps_per_s", "cli.qvn.rk4_steps", "cli.qvn"),
    ("beams.sub_beam_state.pairs_per_s", "beams.sub_beam_state.pairs", "beams.sub_beam_state"),
) + tuple(
    (f"protocols.ensemble_average_trajectory.{p}.points_per_s",
     f"protocols.ensemble_average_trajectory.{p}.points",
     f"protocols.ensemble_average_trajectory.{p}")
    for p in ("switching", "zeno", "nonconserved")
)

# counters reported as totals over the traced ops
WORK_COUNTS = (
    "dynamics.integrate.rk4_steps",
    "dynamics.integrate_fd.rk4_steps",
    "dynamics.integrate_qvn.rk4_steps",
    "cli.qvn.rk4_steps",
    "cli.qvn.bytes_written",
    "beams.sub_beam_state.pairs",
    "protocols.ensemble_average_trajectory.switching.points",
    "protocols.ensemble_average_trajectory.zeno.points",
    "protocols.ensemble_average_trajectory.nonconserved.points",
    "kernels.herm_matrix_power.calls_computed",
    "qstate.eigh.calls_computed",
    "hamfun.fd_energy_evals",
    "protocols.zeno.dead_branches",
    "cli.nonzero_exits",
)


def _per_layer_spec():
    spec = []
    for name in SPAN_NAMES:
        spec += [(f"{name}.calls", "count", "higher"), (f"{name}.busy_s", "s", "lower"),
                 (f"{name}.self_s", "s", "lower"), (f"{name}.errors", "count", "lower")]
    lower = {"kernels.herm_matrix_power.calls_computed", "qstate.eigh.calls_computed",
             "hamfun.fd_energy_evals", "protocols.zeno.dead_branches", "cli.nonzero_exits"}
    for name in WORK_COUNTS:
        unit = "B" if name.endswith("bytes_written") else "count"
        spec.append((name, unit, "lower" if name in lower else "higher"))
    spec += [(name, "1/s", "higher") for name, _, _ in WORK_RATES]
    spec += [
        ("hamfun.fd_energy_evals_per_step", "count", "lower"),
        ("protocols.frozen_point_share", "ratio", "lower"),
        ("beams.idle_pair_share", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.span_coverage", "ratio", "higher"),
        ("failed_ratio", "ratio", "lower"),
    ]
    return tuple(spec)


PER_LAYER = _per_layer_spec()


# ---------------------------------------------------------------------------
# spans


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    _span = _NoSpan()

    def span(self, name):
        return self._span


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        stack = tracer.stack
        self.record = [name, 0, 0, stack[-1] if stack else -1, False]

    def __enter__(self):
        tracer = self.tracer
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.record[2] = time.perf_counter_ns()
        self.record[4] = exc_type is not None
        self.tracer.stack.pop()
        return False


class Tracer:
    """Keeps spans in memory as [name, start_ns, end_ns, parent index, error]."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def span(self, name):
        return _Span(self, name)


def span_stats(spans):
    """calls, busy_s, self_s and errors per span name; self excludes child spans."""
    child_ns = Counter()
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    def empty():
        return {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0}

    stats = {name: empty() for name in SPAN_NAMES}
    for idx, (name, start, end, _, error) in enumerate(spans):
        s = stats.setdefault(name, empty())
        s["calls"] += 1
        s["busy_s"] += (end - start) * 1e-9
        s["self_s"] += (end - start - child_ns[idx]) * 1e-9
        s["errors"] += int(error)
    return stats


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class LoopResult:
    # 8 bytes per op and bounded counters: peak memory hardly grows with the op count
    latencies: array.array = field(default_factory=lambda: array.array("d"))
    reference_s: array.array = field(default_factory=lambda: array.array("d"))
    failures: list = field(default_factory=list)
    failed: int = 0
    kinds: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    beam_sizes: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def _warning_problem(caught):
    for w in caught:
        if issubclass(w.category, RuntimeWarning):
            return f"RuntimeWarning: {w.message}"
    return None


def run_op(op, tracer, res: LoopResult, index: int) -> float:
    """Time one op, check its output and record the outcome; returns its latency.

    An op fails when it raises, emits a RuntimeWarning or fails its oracle
    (which covers a nonzero ``cli.main`` exit code).
    """
    out, problem = None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            with tracer.span("op"):
                out = op.run(tracer)
        except Exception as exc:  # a failed op is counted, the loop goes on
            problem = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    res.latencies.append(elapsed)
    res.kinds[op.kind] += 1
    problem = problem or _warning_problem(caught)
    if out is not None:
        try:
            problem = problem or op.check(out)
            counts = op.counts(out)
            res.counts.update(counts)
            if "beams.sub_beam_state.pairs" in counts:
                res.beam_sizes[counts["beams.sub_beam_state.pairs"]] += 1
        except Exception as exc:  # an output the oracle cannot read is wrong
            problem = problem or f"oracle raised {type(exc).__name__}: {exc}"
    if problem:
        res.failed += 1
        if len(res.failures) < MAX_REPORTED_FAILURES:
            res.failures.append(f"op {index} ({op.kind}): {problem}")
    return elapsed


def run_loop(ops, tracer, seconds=None, n_ops=None, reference=None) -> LoopResult:
    """Run ops in pool order until ``seconds`` of op time or ``n_ops`` ops.

    With a ``reference`` block, it runs and is timed before the first op and
    after every op, outside the ops' timed intervals, so that two blocks
    bracket each op.
    """
    res = LoopResult()
    if reference is not None:
        res.reference_s.append(reference())
    timed = 0.0
    i = 0
    while (timed < seconds) if n_ops is None else (i < n_ops):
        timed += run_op(ops[i % len(ops)], tracer, res, i)
        if reference is not None:
            res.reference_s.append(reference())
        i += 1
    return res


def run_paired(ops, seconds):
    """Run every op twice, untraced and traced, until ``seconds`` of op time.

    The order alternates from op to op. The two runs of an op follow each
    other, so they see the same machine speed, and the tracing overhead is
    not mixed up with the machine's drift.
    """
    untraced, traced, tracer = LoopResult(), LoopResult(), Tracer()
    timed = 0.0
    i = 0
    while timed < seconds:
        pair = ((NullTracer(), untraced), (tracer, traced))
        for tr, res in pair if i % 2 == 0 else pair[::-1]:
            timed += run_op(ops[i % len(ops)], tr, res, i)
        i += 1
    return untraced, traced, tracer


def make_reference_block():
    """A fixed block of work whose time tracks the machine's current speed.

    It mixes what the ops spend their time on: small complex
    eigendecompositions, matrix products and interpreted Python loops. It
    calls nothing in nlqcorr, so a change to the program cannot move it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = g + g.conj().T
    psi, psi4 = np.ones(2, complex), np.ones(4, complex)

    def block() -> float:
        # the first passes are not timed: after an op they run on cold caches,
        # and how cold depends on the op, which is the program's to change
        for i in range(REF_WARM + REF_REPEATS):
            if i == REF_WARM:
                start = time.perf_counter()
            w, v = np.linalg.eigh(h)
            (v * np.exp(-1j * w)) @ v.conj().T @ psi
            np.kron(g, g) @ psi4
            acc = 0.0
            for k in range(30):
                acc += k * 0.5
        return time.perf_counter() - start

    return block


def first_of_each_kind(ops) -> dict:
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    return first


def warm_up(ops) -> LoopResult:
    """Run the first op of every kind once, untimed, so lazy set-up is done."""
    first = list(first_of_each_kind(ops).values())
    return run_loop(first, NullTracer(), n_ops=len(first))


# ---------------------------------------------------------------------------
# derived metrics


def layer_metrics(tracer, res: LoopResult, untraced_s: float, failed: int, attempted: int):
    stats = span_stats(tracer.spans)
    m = {}
    for name in SPAN_NAMES:
        for key in ("calls", "busy_s", "self_s", "errors"):
            m[f"{name}.{key}"] = stats[name][key]
    for name in WORK_COUNTS:
        m[name] = res.counts.get(name, 0)
    for name, count, span in WORK_RATES:
        busy = stats[span]["busy_s"]
        m[name] = res.counts.get(count, 0) / busy if busy > 0 else 0.0
    fd_steps = res.counts.get("dynamics.integrate_fd.rk4_steps", 0)
    m["hamfun.fd_energy_evals_per_step"] = (
        res.counts.get("hamfun.fd_energy_evals", 0) / fd_steps if fd_steps else 0.0)
    points = res.counts.get("protocols.trajectory_points", 0)
    m["protocols.frozen_point_share"] = (
        res.counts.get("protocols.frozen_points", 0) / points if points else 0.0)
    pairs = res.counts.get("beams.sub_beam_state.pairs", 0)
    m["beams.idle_pair_share"] = res.counts.get("beams.idle_pairs", 0) / pairs if pairs else 0.0
    op_s = stats["op"]["busy_s"]
    m["trace.overhead_ratio"] = op_s / untraced_s - 1.0
    m["trace.span_coverage"] = (op_s - stats["op"]["self_s"]) / op_s if op_s > 0 else 0.0
    m["failed_ratio"] = failed / attempted
    return m


def workload_properties(res: LoopResult):
    """Input properties a later claim of "helps only X" can cite."""
    total = res.attempted
    props = {"kind_shares": {k: n / total for k, n in sorted(res.kinds.items())}}
    points = res.counts.get("protocols.trajectory_points", 0)
    if points:
        props["frozen_point_share"] = res.counts["protocols.frozen_points"] / points
    sizes = sorted(res.beam_sizes.elements())
    if sizes:
        props["n_pairs"] = {
            "min": sizes[0], "p10": sizes[len(sizes) // 10], "p50": sizes[len(sizes) // 2],
            "p90": sizes[(9 * len(sizes)) // 10], "max": sizes[-1],
            "mean": sum(sizes) / len(sizes),
        }
        props["idle_pair_share"] = res.counts["beams.idle_pairs"] / sum(sizes)
    return props


def _environment(nlqcorr, numpy):
    numba_state = "installed" if importlib.util.find_spec("numba") else "absent"
    measured = "numba kernels" if nlqcorr.USING_NUMBA else "the numpy fallback"
    return {
        "backend": nlqcorr.backend_name(),
        "backend_note": f"numba {numba_state}; {measured} was measured",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy

    import nlqcorr

    if not Path(nlqcorr.__file__).resolve().is_relative_to(src.resolve()):
        print(f"harness: imported nlqcorr from {nlqcorr.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    warm = warm_up(ops)
    ready = time.monotonic()
    reference = make_reference_block()
    setup_ref = statistics.median(reference() for _ in range(SETUP_REF_BLOCKS))
    out = {"ready": ready, "setup_reference_s": setup_ref}
    if args.phase == "setup":
        print(json.dumps(out))
        return 0

    out["environment"] = _environment(nlqcorr, numpy)
    if args.trace:
        res, traced, tracer = run_paired(ops, args.seconds)
        runs = [warm, res, traced]
    else:
        res = run_loop(ops, NullTracer(), seconds=args.seconds, reference=reference)
        runs = [warm, res]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    out.update({
        "latencies_s": res.latencies.tolist(),
        "reference_s": res.reference_s.tolist(),
        "attempted": attempted,
        "failed": failed,
        "failures": [f for r in runs for f in r.failures][:MAX_REPORTED_FAILURES],
        "properties": workload_properties(res),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if args.trace:
        out["per_layer"] = layer_metrics(tracer, traced, sum(res.latencies), failed, attempted)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
