import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlqcorr import cli


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    data = np.array(rows)
    return meta, {name: data[:, i] for i, name in enumerate(header)}


def run(args):
    return cli.main([str(a) for a in args])


# --- figure2 ---

def test_figure2_default_run(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert run(["figure2", "--out", out]) == 0
    meta, cols = read_csv(out)
    assert meta["experiment"] == "figure2"
    assert meta["version"]
    assert set(cols) == {"t", "exp_xx", "exp_x1", "exp_1x"}
    assert cols["t"][0] == 0.0 and cols["t"][-1] == pytest.approx(10.0)
    # t = 0 row carries the initial-state expectations
    assert cols["exp_1x"][0] == pytest.approx(7 * np.sqrt(2) / 18, abs=1e-12)
    assert cols["exp_x1"][0] == pytest.approx(-7 * np.sqrt(2) / 18, abs=1e-12)
    # particle #2 column frozen from its detection time onward
    tail = cols["exp_1x"][cols["t"] >= 8.0]
    assert np.max(np.abs(tail - tail[0])) <= 1e-10
    assert "joint outcome probabilities" in capsys.readouterr().out


def test_figure2_second_particle_blind_to_t1(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run(["figure2", "--out", out_a]) == 0
    assert run(["figure2", "--out", out_b, "--t1", "inf", "--t-end", "10"]) == 0
    _, cols_a = read_csv(out_a)
    _, cols_b = read_csv(out_b)
    assert np.max(np.abs(cols_a["exp_1x"] - cols_b["exp_1x"])) <= 1e-10
    # while particle #1's own column does notice its detection
    assert np.max(np.abs(cols_a["exp_x1"] - cols_b["exp_x1"])) > 1e-3


def test_figure2_byte_deterministic(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run(["figure2", "--out", out_a])
    run(["figure2", "--out", out_b])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_figure2_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("A = 8\nB = 0.5\nt1 = 3.5\n# comment\ndt = 0.02\n")
    out = tmp_path / "f.csv"
    assert run(["figure2", "--config", cfg, "--out", out, "--dt", "0.05"]) == 0
    _, cols = read_csv(out)
    assert cols["t"][1] == pytest.approx(0.05)   # CLI flag wins over the file
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    assert run(["figure2", "--config", bad, "--out", out]) == 1


def test_figure2_table_matches_frozen_csv_in_either_detection_order(tmp_path, capsys):
    out = tmp_path / "f.csv"
    for t1, t2 in (("3.5", "8"), ("8", "3.5")):
        assert run(["figure2", "--t1", t1, "--t2", t2, "--out", out]) == 0
        corr = float(capsys.readouterr().out.split("correlator =")[1].split()[0])
        _, cols = read_csv(out)
        # with direction x on both particles the correlator is <xx> in the frozen final state
        assert abs(corr - cols["exp_xx"][-1]) <= 1e-10
    # the Zeno protocol runs in either order too: it projects whichever particle is detected first
    for t1, t2 in (("8", "3.5"), ("6", "4")):
        assert run(["figure3", "--t1", t1, "--t2", t2, "--out", out]) == 0
        corr = float(capsys.readouterr().out.split("correlator =")[1].split()[0])
        _, cols = read_csv(out)
        assert abs(corr - cols["exp_xx"][-1]) <= 1e-10
    assert run(["figure3", "--t1", "inf", "--t2", "5", "--out", out]) == 0
    assert "no joint outcome table" in capsys.readouterr().out
    assert run(["figure3", "--t1", "inf", "--t2", "inf", "--out", out]) == 1


# --- figure3 ---

def test_figure3_kink_at_measurement(tmp_path):
    out2 = tmp_path / "f2.csv"
    out3 = tmp_path / "f3.csv"
    assert run(["figure2", "--out", out2]) == 0
    assert run(["figure3", "--out", out3]) == 0
    _, c2 = read_csv(out2)
    _, c3 = read_csv(out3)
    pre = c2["t"] <= 3.5
    mid = (c2["t"] > 3.5) & (c2["t"] <= 8.0)
    assert np.max(np.abs(c2["exp_1x"][pre] - c3["exp_1x"][pre])) <= 1e-10
    assert np.max(np.abs(c2["exp_1x"][mid] - c3["exp_1x"][mid])) > 1e-3


def test_figure3_no_dynamics_matches_figure2(tmp_path):
    out2 = tmp_path / "f2.csv"
    out3 = tmp_path / "f3.csv"
    for cmd, out in (("figure2", out2), ("figure3", out3)):
        assert run([cmd, "--out", out, "--A", "0", "--B", "0"]) == 0
    _, c2 = read_csv(out2)
    _, c3 = read_csv(out3)
    for col in ("exp_xx", "exp_x1", "exp_1x"):
        assert np.max(np.abs(c2[col] - c3[col])) <= 1e-12


def test_figure3_linear_mode_matches_figure2(tmp_path):
    out2 = tmp_path / "f2.csv"
    out3 = tmp_path / "f3.csv"
    for cmd, out in (("figure2", out2), ("figure3", out3)):
        assert run([cmd, "--out", out, "--linear-mode", "1"]) == 0
    _, c2 = read_csv(out2)
    _, c3 = read_csv(out3)
    for col in ("exp_xx", "exp_x1", "exp_1x"):
        assert np.max(np.abs(c2[col] - c3[col])) <= 1e-12


# --- entropy sweep ---

def test_entropy_sweep_uniform(tmp_path):
    out = tmp_path / "ent.csv"
    assert run(["entropy-sweep", "--out", out]) == 0
    _, cols = read_csv(out)
    assert np.max(np.abs(cols["renyi"] - 2.0)) <= 1e-12
    assert np.max(np.abs(cols["shannon"] - 2.0)) <= 1e-12
    at_one = np.isclose(cols["order"], 1.0)
    assert at_one.any()
    # Tsallis column is in nats: at q = 1 it equals ln 2 times the bit value
    assert abs(cols["tsallis"][at_one][0] - np.log(2) * cols["shannon"][at_one][0]) <= 1e-6


def test_entropy_sweep_deterministic_distribution(tmp_path):
    out = tmp_path / "ent.csv"
    assert run(["entropy-sweep", "--out", out, "--dist", "1,0,0,0"]) == 0
    _, cols = read_csv(out)
    for col in ("renyi", "tsallis", "shannon"):
        assert np.max(np.abs(cols[col])) <= 1e-12


def test_entropy_sweep_bad_distribution(tmp_path):
    assert run(["entropy-sweep", "--out", tmp_path / "e.csv", "--dist", "0.7,0.7"]) == 1


# --- locality check ---

def test_locality_check_switching_passes(capsys):
    assert run(["locality-check"]) == 0
    out = capsys.readouterr().out
    assert "verdict = PASS" in out


def test_locality_check_zeno_fails_with_gap(capsys):
    assert run(["locality-check", "--protocol", "zeno"]) == 0
    out = capsys.readouterr().out
    assert "verdict = FAIL" in out
    gap = float(out.split("max deviation =")[1].split()[0])
    assert gap > 1e-3


def test_locality_check_singlet_passes_both(capsys):
    for protocol in ("switching", "zeno"):
        assert run(["locality-check", "--protocol", protocol, "--state", "singlet"]) == 0
        assert "verdict = PASS" in capsys.readouterr().out


def test_locality_check_zeno_needs_ordered_detections(capsys):
    # the Zeno quantity is #2's response to the measurement of #1 at t1
    for t1, t2_values in (("6", "5,8"), ("inf", "5")):
        assert run(["locality-check", "--protocol", "zeno", "--t1", t1, "--t2-values", t2_values]) == 1
        assert "need t1 <= t2" in capsys.readouterr().err
    assert run(["locality-check", "--protocol", "zeno", "--t1", "5", "--t2-values", "5,8"]) == 0


def test_locality_check_ignores_b_and_t2(capsys):
    # the sweep reads only --b-values and --t2-values; --t2 past --t-end is no error
    assert run(["locality-check"]) == 0
    default = capsys.readouterr()
    for flag, value in (("--t2", "12"), ("--B", "1e6")):
        assert run(["locality-check", flag, value]) == 0
        assert capsys.readouterr() == default


# --- teleport demo ---

def test_teleport_demo_pre(capsys):
    assert run(["teleport-demo", "--selection", "pre", "--pairs", "2000"]) == 0
    out = capsys.readouterr().out
    assert "selection=pre" in out and "b_pre" in out


def test_teleport_demo_post(capsys):
    assert run(["teleport-demo", "--selection", "post"]) == 0
    out = capsys.readouterr().out
    assert "b_post    = (0, 0, 0)" in out


# --- history check ---

def test_history_check_passes(capsys):
    assert run(["history-check", "--trials", "50"]) == 0
    assert "verdict = PASS" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_history_check_without_trials_is_a_config_error(capsys, trials):
    assert run(["history-check", "--trials", trials]) == 1
    out, err = capsys.readouterr()
    assert "verdict" not in out
    assert "config error: trials must be >= 1" in err


# --- qvn ---

def test_qvn_writes_conserved_traces(tmp_path):
    out = tmp_path / "qvn.csv"
    assert run(["qvn", "--q", "0.7", "--t-end", "2", "--dt", "0.001", "--out", out]) == 0
    _, cols = read_csv(out)
    assert np.max(np.abs(cols["tr_rho"] - 1.0)) <= 1e-8
    assert np.max(np.abs(cols["tr_rho2"] - cols["tr_rho2"][0])) <= 1e-8


# --- exit codes ---

def test_exit_code_config_error(tmp_path):
    assert run(["figure2", "--dt", "-0.1", "--out", tmp_path / "x.csv"]) == 1
    assert run(["figure2", "--state", "not-a-state", "--out", tmp_path / "x.csv"]) == 1
    assert run(["figure2", "--t-end", "5", "--out", tmp_path / "x.csv"]) == 1  # t2 = 8 > t_end
    assert run(["figure2", "--out", ""]) == 1


@pytest.mark.parametrize("argv", [
    ["figure2", "--state", "nan,0,0,0"],
    ["figure3", "--state", "0.6,inf,0,0.8"],
    ["locality-check", "--state", "nan,0,0,0"],
    ["locality-check", "--protocol", "zeno", "--state", "nan,0,0,1"],
    ["teleport-demo", "--state", "nan,0,0,0"],
    ["figure2", "--direction-a", "nan,0,1"],
    ["figure2", "--direction-b", "inf,0,0"],
    ["entropy-sweep", "--dist", "nan,1"],
    ["figure2", "--A", "nan"],
    ["locality-check", "--b-values", "0,inf"],
    ["locality-check", "--t2-values", "5,nan"],
    ["teleport-demo", "--coupling", "nan"],
    ["qvn", "--coupling", "inf"],
])
def test_non_finite_input_exits_1_without_output(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    code = run(argv + (["--out", out] if "out" in cli.COMMANDS[argv[0]][1] else []))
    assert code == 1
    assert not out.exists()
    assert "verdict = PASS" not in capsys.readouterr().out


def test_non_finite_deviation_fails_the_check(monkeypatch, capsys):
    real_series = cli.protocols.reduced_state_series
    monkeypatch.setattr(cli.protocols, "reduced_state_series",
                        lambda *args: np.full_like(real_series(*args), np.nan))
    for protocol in ("switching", "zeno"):
        assert run(["locality-check", "--protocol", protocol]) == 0
        assert "verdict = FAIL" in capsys.readouterr().out
    monkeypatch.setattr(cli.protocols, "history_probability_projected", lambda spec, rho0: np.nan)
    assert run(["history-check", "--trials", "3"]) == 0
    assert "verdict = FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["figure2", "entropy-sweep"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, command):
    # a missing parent directory, and an existing directory in place of the file
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert run([command, "--out", out]) == 1
        assert f"config error: cannot write {out}" in capsys.readouterr().err
    assert not list(tmp_path.rglob(".nlqcorr-*.tmp"))


@pytest.mark.parametrize("command", ["figure2", "figure3", "locality-check"])
def test_grid_too_large_to_allocate_is_a_config_error(tmp_path, capsys, command):
    # 1e16 samples exceed any address space, so the allocation fails at once
    out = tmp_path / "x.csv"
    argv = [command, "--dt", "1e-15"] + (["--out", out] if "out" in cli.COMMANDS[command][1] else [])
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("nlqcorr: config error: out of memory: ") and err.count("\n") == 1
    assert not out.exists()


def test_exit_code_numerical_failure(tmp_path):
    code = run(["qvn", "--q", "0.7", "--t-end", "5", "--dt", "2.5",
                "--coupling", "5", "--out", tmp_path / "x.csv"])
    assert code == 2


def test_exit_code_usage_error():
    assert run(["no-such-command"]) == 1
    assert run([]) == 1


def test_main_calls_in_one_process_match_fresh_runs(tmp_path, capsys):
    # main reuses one parser: each call must behave as a fresh process would
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    calls = [
        ["locality-check", "--protocol", "zeno", "--dt", "0.5"],
        ["locality-check", "--no-such-flag", "1"],
        ["history-check", "--trials", "3", "--dim", "3"],
        ["figure2", "--t-end", "9", "--dt", "0.5", "--B", "2", "--out", "fig.csv"],
        ["locality-check", "--dt", "0.5", "--state", "singlet"],
    ]
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "nlqcorr.cli", *argv], cwd=tmp_path,
                               env=env, capture_output=True, text=True, timeout=120)
        fresh_csv = (tmp_path / "fig.csv").read_bytes() if "figure2" in argv else None
        capsys.readouterr()
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(tmp_path)
            code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        if fresh_csv is not None:
            assert (tmp_path / "fig.csv").read_bytes() == fresh_csv
    assert cli._parser() is cli._parser()


# --- the subcommand table ---

HELP_FLAGS = {
    "figure2": ["--config", "--out", "--state", "--A", "--B", "--t1", "--t2", "--t-end", "--dt",
                "--direction-a", "--direction-b", "--linear-mode"],
    "figure3": ["--config", "--out", "--state", "--A", "--B", "--t1", "--t2", "--t-end", "--dt",
                "--direction-a", "--direction-b", "--linear-mode"],
    "entropy-sweep": ["--config", "--out", "--alpha-range", "--dist"],
    "locality-check": ["--config", "--state", "--A", "--B", "--t1", "--t2", "--t-end", "--dt",
                       "--direction-a", "--linear-mode", "--protocol",
                       "--b-values", "--t2-values"],
    "teleport-demo": ["--config", "--state", "--pairs", "--selection", "--direction-a", "--keep",
                      "--coupling", "--seed"],
    "history-check": ["--config", "--trials", "--seed", "--dim"],
    "qvn": ["--config", "--out", "--q", "--t-end", "--dt", "--coupling"],
}


def test_help_lists_the_flags_in_order(capsys):
    assert list(cli.COMMANDS) == list(HELP_FLAGS)
    for name, flags in HELP_FLAGS.items():
        assert run([name, "--help"]) == 0
        assert re.findall(r"^ +(--[\w-]+)", capsys.readouterr().out, re.M) == flags


def test_config_keys_are_exactly_the_flags(tmp_path):
    every_key = {key for _, spec, _ in cli.COMMANDS.values() for key in spec} | {"config"}
    assert set(cli._HELP) == every_key - {"config"}  # no help text for a key that no spec has
    cfg = tmp_path / "run.cfg"
    for name, flags in HELP_FLAGS.items():
        keys = [flag[2:].replace("-", "_") for flag in flags[1:]]
        assert list(cli.COMMANDS[name][1]) == keys
        for key in sorted(every_key - set(keys)):
            cfg.write_text(f"{key} = 1\n")
            assert run([name, "--config", cfg]) == 1, (name, key)


class ReadRecorder(dict):
    """A config that records the keys read by subscript; ``items()`` records nothing."""

    def __init__(self, data):
        super().__init__(data)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


CHEAP_ARGS = {
    "figure2": ["--t1", "0.5", "--t2", "1", "--t-end", "1", "--dt", "0.5"],
    "figure3": ["--t1", "0.5", "--t2", "1", "--t-end", "1", "--dt", "0.5"],
    "entropy-sweep": [],
    "locality-check": ["--t1", "0.5", "--t-end", "1", "--dt", "0.5",
                       "--b-values", "0", "--t2-values", "1"],
    "teleport-demo": ["--pairs", "10"],
    "history-check": ["--trials", "2"],
    "qvn": ["--t-end", "0.01", "--dt", "0.001"],
}

# perfbench/workloads.py passes --B and --t2 to locality-check, whose sweep reads
# b_values and t2_values instead; the two keys stay so that those calls parse
UNREAD_KEYS = {"locality-check": {"B", "t2"}}


def test_every_config_key_is_read_by_its_runner(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    build, configs = cli._build_config, []

    def recording_build(args, spec):
        configs.append(ReadRecorder(build(args, spec)))
        return configs[-1]

    monkeypatch.setattr(cli, "_build_config", recording_build)
    assert list(CHEAP_ARGS) == list(cli.COMMANDS)
    for name, argv in CHEAP_ARGS.items():
        assert run([name, *argv]) == 0, name
        cfg = configs[-1]
        assert set(cfg) - cfg.read == UNREAD_KEYS.get(name, set()), name


def run_captured(argv, out_file, capsys):
    assert run(argv) == 0
    return capsys.readouterr(), out_file.read_bytes() if out_file else None


@pytest.mark.parametrize("name", list(HELP_FLAGS))
def test_explicit_defaults_reproduce_the_default_run(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = cli.COMMANDS[name][1]
    out_file = tmp_path / spec["out"][0] if "out" in spec else None
    baseline = run_captured([name], out_file, capsys)
    flags = [tok for key, (default, _) in spec.items()
             for tok in ("--" + key.replace("_", "-"), default)]
    assert run_captured([name, *flags], out_file, capsys) == baseline
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("".join(f"{key} = {default}\n" for key, (default, _) in spec.items()))
    assert run_captured([name, "--config", cfg], out_file, capsys) == baseline


def test_docs_name_exactly_the_table_subcommands():
    listed = cli.__doc__.split("-----------\n")[1].split("\n\n")[0].splitlines()
    assert [line.split()[0] for line in listed] == list(cli.COMMANDS)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI")[1].split("```sh\n")[1].split("```")[0]
    assert {line.split()[1] for line in block.splitlines()} == set(cli.COMMANDS)
