"""Tests of the benchmark itself: oracles reject corrupted outputs, the loop
counts every kind of failure, spans add up, and BENCHMARK.json matches the
metrics the code prints."""

import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import harness
import run
import workloads
from workloads import Op

ROOT = Path(__file__).resolve().parents[1]


def _corrupt_csv_column(path, column, delta):
    lines = Path(path).read_text().splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = lines[data[0]].split(",")
    row = lines[data[-1]].split(",")
    col = header.index(column)
    row[col] = repr(float(row[col]) + delta)
    lines[data[-1]] = ",".join(row)
    Path(path).write_text("\n".join(lines) + "\n")


def _swap_verdict(out):
    text = out["stdout"]
    swapped = text.replace("PASS", "F_IL").replace("FAIL", "PASS").replace("F_IL", "FAIL")
    return dict(out, stdout=swapped)


def _corrupt(kind, out, workdir):
    """Return a wrong output of the given op kind, as a program defect would."""
    if kind in ("structured", "fd"):
        states = out["states"].copy()
        states[-1] = states[-1] * np.exp(1e-5j)
        return dict(out, states=states)
    if kind == "cli-d2":
        _corrupt_csv_column(os.path.join(workdir, "qvn.csv"), "tr_rho2", 1e-8)
        return out
    if kind == "api-d4":
        rhos = out["rhos"].copy()
        rhos[-1] = rhos[-1] + 1e-8 * np.diag([1.0, -1.0, 0.0, 0.0])
        return {"rhos": rhos}
    if kind == "ensemble":
        out["zeno"].observables["exp_xx"][0] += 1e-9
        return out
    if kind.startswith(("locality-", "history-")):
        return _swap_verdict(out)
    if kind == "nonconserved":
        out.states[-1] = out.states[-1] * np.exp(1e-5j)
        return out
    if kind == "beam":
        bump = 1e-10 * np.asarray([[1.0, 0.0], [0.0, -1.0]])
        return dict(out, states=[s + bump for s in out["states"]])
    raise AssertionError(f"no corruption for kind {kind}")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_oracles_accept_outputs_and_reject_corrupted_ones(name, tmp_path):
    ops = workloads.WORKLOADS[name](7, str(tmp_path))
    for kind, op in harness.first_of_each_kind(ops).items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = op.run(harness.NullTracer())
        assert op.check(out) is None, kind
        assert op.check(_corrupt(kind, out, str(tmp_path))) is not None, kind


def test_nonzero_cli_exit_fails_the_oracle(tmp_path):
    ops = workloads.protocol_sweep(3, str(tmp_path))
    op = harness.first_of_each_kind(ops)["history-d2"]
    out = op.run(harness.NullTracer())
    assert op.check(dict(out, code=2)) is not None
    assert op.counts(dict(out, code=2))["cli.nonzero_exits"] == 1


def test_same_seed_same_inputs(tmp_path):
    first = workloads.rk4_switched(5, str(tmp_path))[0].run(harness.NullTracer())
    again = workloads.rk4_switched(5, str(tmp_path))[0].run(harness.NullTracer())
    other = workloads.rk4_switched(6, str(tmp_path))[0].run(harness.NullTracer())
    assert np.array_equal(first["states"], again["states"])
    assert not np.array_equal(first["states"], other["states"])


def test_kind_pattern_is_fixed_by_index(tmp_path):
    for seed in (1, 2):
        kinds = [op.kind for op in workloads.protocol_sweep(seed, str(tmp_path))[:16]]
        assert kinds == list(workloads.PROTO_PATTERN)
        assert [op.kind for op in workloads.rk4_switched(seed, str(tmp_path))[:4]] == [
            "structured", "structured", "structured", "fd"]


def _op(kind, run_fn, check=lambda out: None):
    return Op(kind, run_fn, check, lambda out: {"work": 1})


def test_loop_counts_every_failure_mode(tmp_path):
    def raises(tr):
        raise ValueError("boom")

    def warns(tr):
        return np.log(np.array([-1.0]))

    ops = [
        _op("ok", lambda tr: 1),
        _op("raises", raises),
        _op("warns", warns),
        _op("wrong", lambda tr: 1, check=lambda out: "oracle says no"),
        _op("exit", lambda tr: workloads._cli(["history-check", "--dim", "x"]),
            check=workloads._exit_problem),
    ]
    res = harness.run_loop(ops, harness.NullTracer(), n_ops=len(ops), reference=lambda: 1e-3)
    assert res.attempted == 5
    assert list(res.reference_s) == [1e-3] * 6  # one block before each op and after the last
    assert res.failed == 4
    assert res.counts["work"] == 4  # every op that returned an output was counted
    assert "raised ValueError" in res.failures[0]
    assert "RuntimeWarning" in res.failures[1]
    assert "oracle says no" in res.failures[2]
    assert "cli exit code 1" in res.failures[3]


def test_times_are_scaled_by_the_reference_blocks_bracketing_each_op():
    # the machine runs at half speed in the second half of the run, and the
    # ops slow down with the reference block
    nominal = run.REF_NOMINAL_S
    refs = [nominal] * 101 + [2 * nominal] * 100
    latencies = [0.01] * 100 + [0.015] + [0.02] * 99  # op 100 slowed down halfway
    scaled = run.scale_to_reference(latencies, refs)
    assert scaled[0] == pytest.approx(0.01) and scaled[-1] == pytest.approx(0.01)
    metrics, _ = run.latency_metrics(scaled)
    assert metrics["ops_per_s"] == pytest.approx(100.0)
    assert metrics["op_p90_ms"] == pytest.approx(10.0)


def test_spans_give_busy_self_and_coverage():
    def run_fn(tr):
        with tr.span("cli.qvn"):
            sum(range(20000))
        with tr.span("cli.qvn"):
            raise RuntimeError("inside a span")

    tracer = harness.Tracer()
    res = harness.run_loop([_op("k", run_fn)], tracer, n_ops=2)
    assert res.failed == 2
    stats = harness.span_stats(tracer.spans)
    assert stats["op"]["calls"] == 2 and stats["cli.qvn"]["calls"] == 4
    assert stats["cli.qvn"]["errors"] == 2 and stats["op"]["errors"] == 2
    assert stats["cli.qvn"]["self_s"] == pytest.approx(stats["cli.qvn"]["busy_s"])
    children = stats["op"]["busy_s"] - stats["op"]["self_s"]
    assert children == pytest.approx(stats["cli.qvn"]["busy_s"])
    metrics = harness.layer_metrics(tracer, res, stats["op"]["busy_s"], res.failed, res.attempted)
    assert [name for name, _, _ in harness.PER_LAYER] == list(metrics)
    assert metrics["trace.overhead_ratio"] == pytest.approx(0.0)
    assert 0.0 < metrics["trace.span_coverage"] <= 1.0
    assert metrics["failed_ratio"] == 1.0


def test_paired_run_traces_one_run_of_each_op():
    ops = [_op("k", lambda tr: sum(range(1000)))]
    untraced, traced, tracer = harness.run_paired(ops, seconds=0.01)
    assert untraced.attempted == traced.attempted >= 1
    assert harness.span_stats(tracer.spans)["op"]["calls"] == traced.attempted


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in harness.PER_LAYER]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
