import contextlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcsa import operators
from dcsa.cli import main
from dcsa.config import (ConfigError, ScenarioConfig, config_to_text,
                         parse_config, parse_topology)
from dcsa.core import MetricsRecord, MetricsTrajectory
from dcsa.experiments import greedy_policy_rollout
from dcsa.io import (CSV_COLUMNS, FormatError, blas_core, emit_metrics,
                     emit_summary, read_metrics)
from dcsa.sources import load_maze


def empty_traj(records=()):
    return MetricsTrajectory(records=list(records), R_hist=np.zeros(1),
                             S_hist=np.zeros(1), theta_final=np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_config():
    cfg = parse_config("scenario = system_id\nn_agents = 10\ndim = 5\nseed = 1\n")
    assert cfg == ScenarioConfig(scenario="system_id", n_agents=10, dim=5, seed=1)
    assert cfg.stride == 10  # documented default


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="fooo"):
        parse_config("fooo = 1\n")


def test_parse_rejects_bad_n():
    with pytest.raises(ConfigError, match="N must be >= 1"):
        parse_config("n_agents = 0\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n")


def test_parse_syntax_error_names_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("seed = 1\nnot a pair\n")


def test_parse_type_error_names_field():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("seed = banana\n")


def test_parse_comments_and_blanks():
    cfg = parse_config("# comment\n\nseed = 3   # trailing\n")
    assert cfg.seed == 3


def test_config_round_trip():
    cfg = ScenarioConfig(scenario="system_id", n_agents=7, dim=4, seed=11,
                         step_kind="constant", step_eps=0.005,
                         compute_constants=True)
    assert parse_config(config_to_text(cfg)) == cfg


def test_defaults_round_trip():
    assert parse_config(config_to_text(ScenarioConfig())) == ScenarioConfig()


def test_parse_topology_strings():
    assert len(parse_topology("line", 5).edges) == 4
    assert len(parse_topology("complete", 4).edges) == 6
    g = parse_topology("edges:[[0,1],[1,2]]", 3)
    assert g.edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(ConfigError):
        parse_topology("mesh", 4)
    with pytest.raises(ConfigError):
        parse_topology("edges:[[0,9]]", 3)


@pytest.mark.parametrize("name", ["step_eps", "noise_clip", "gamma", "beta"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_floats(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        parse_config(f"{name} = {value}\n")


def test_gridworld_config_requires_mazes():
    with pytest.raises(ConfigError, match="maze_files"):
        parse_config("scenario = gridworld\nn_agents = 1\n")


# ---------------------------------------------------------------------------
# CSV / JSON emission


def test_empty_trajectory_header_only(tmp_path):
    path = tmp_path / "m.csv"
    emit_metrics(empty_traj(), path)
    lines = path.read_text().splitlines()
    assert lines == [",".join(CSV_COLUMNS)]


def test_single_record_two_lines(tmp_path):
    rec = MetricsRecord(k=0, eps_k=0.03, tau_k=2, R=1.5, S=0.25,
                        S_delayed=0.25, V=2.0)
    path = tmp_path / "m.csv"
    emit_metrics(empty_traj([rec]), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,0.03,2,1.5,0.25,0.25,2")


def test_nan_encoded_as_empty_field(tmp_path):
    rec = MetricsRecord(k=0, eps_k=0.03, tau_k=0, R=math.nan, S=0.0,
                        S_delayed=0.0, V=math.nan)
    path = tmp_path / "m.csv"
    emit_metrics(empty_traj([rec]), path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("R")] == ""
    assert row[CSV_COLUMNS.index("V")] == ""
    cols = read_metrics(path)
    assert math.isnan(cols["R"][0])
    assert cols["S"][0] == 0.0


def test_csv_round_trip_12_digits(tmp_path):
    value = 0.123456789012345
    rec = MetricsRecord(k=3, eps_k=value, tau_k=1, R=1e-30, S=1e30,
                        S_delayed=0.0, V=1e30)
    path = tmp_path / "m.csv"
    emit_metrics(empty_traj([rec]), path)
    cols = read_metrics(path)
    assert cols["eps_k"][0] == pytest.approx(value, rel=1e-11)
    assert cols["R"][0] == pytest.approx(1e-30, rel=1e-11)
    assert cols["S"][0] == pytest.approx(1e30, rel=1e-11)


def test_emit_summary_nan_to_null(tmp_path):
    path = tmp_path / "s.json"
    emit_summary({"slope": math.nan, "r2": 0.5, "n": np.int64(3)}, path)
    data = json.loads(path.read_text())
    assert data["slope"] is None
    assert data["r2"] == 0.5
    assert data["n"] == 3


# ---------------------------------------------------------------------------
# CLI


SYSTEM_ID_CFG = """\
scenario = system_id
n_agents = 4
dim = 3
seed = 1
horizon = 300
stride = 10
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SYSTEM_ID_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "theta_final.npy").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "system_id"
    assert summary["seed"] == 1
    assert not summary["aborted"]


def test_cli_run_summary_reports_time_and_versions(tmp_path):
    """summary.json says where the run's time went, with what it ran and
    on which config; the four engine phases lie inside run()'s wall time."""
    cfg = write_cfg(tmp_path, SYSTEM_ID_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--seed", "7"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    phases = [summary[f"{p}_s"] for p in ("sample", "step", "measure", "log")]
    assert all(t >= 0 for t in phases)
    assert 0 < sum(phases) <= summary["wall_s"]
    horizon = parse_config((tmp_path / "run.cfg").read_text()).horizon
    assert summary["iters_per_s"] == pytest.approx(horizon
                                                   / summary["wall_s"])
    assert summary["python_version"] == platform.python_version()
    assert summary["numpy_version"] == np.__version__
    resolved = parse_config(summary["config"])
    assert resolved.seed == 7 and resolved.horizon == horizon


def test_cli_run_summary_names_the_blas_core(tmp_path):
    """summary.json names OpenBLAS's runtime core, which the mix's gemm
    rounds by, as a string, or null where numpy's OpenBLAS is not found;
    it is the core dcsa.io.blas_core reads."""
    cfg = write_cfg(tmp_path, SYSTEM_ID_CFG)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    core = json.loads((tmp_path / "o" / "summary.json").read_text())[
        "blas_core"]
    assert core is None or isinstance(core, str)
    assert core == blas_core()


def test_cli_run_summary_says_whether_the_step_is_compiled(tmp_path,
                                                          monkeypatch):
    """compiled_step is true where the run stepped with the compiled drift
    step and false where it stepped with numpy, where the step did not
    load; a d = 8 run steps compiled too. The run's outputs are the same
    bytes either way."""
    cfg = write_cfg(tmp_path, SYSTEM_ID_CFG)
    outputs = []
    for step in (operators.STEP, None):
        monkeypatch.setattr(operators, "STEP", step)
        out = tmp_path / f"out-{len(outputs)}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["compiled_step"] is (step is not None)
        outputs.append([(out / name).read_bytes()
                        for name in ("metrics.csv", "theta_final.npy")])
    assert outputs[0] == outputs[1]
    monkeypatch.undo()
    cfg = write_cfg(tmp_path, SYSTEM_ID_CFG.replace("dim = 3", "dim = 8"))
    out = tmp_path / "out-d8"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (json.loads((out / "summary.json").read_text())["compiled_step"]
            is (operators.STEP is not None))


def test_cli_run_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, SYSTEM_ID_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_cli_run_stride_override(tmp_path):
    """--stride replaces the config's stride: a record every K steps from
    k = 0, plus the last step, and the summary's config says K."""
    cfg = write_cfg(tmp_path, SYSTEM_ID_CFG.replace("horizon = 300",
                                                    "horizon = 2000"))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--stride", "7"]) == 0
    ks = read_metrics(out / "metrics.csv")["k"]
    assert ks.tolist() == list(range(0, 2000, 7)) + [2000]
    assert len(ks) == 287
    summary = json.loads((out / "summary.json").read_text())
    assert parse_config(summary["config"]).stride == 7


def test_cli_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, SYSTEM_ID_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(out1), "--seed", "5"])
    main(["run", "--config", cfg, "--out", str(out2), "--seed", "6"])
    assert (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes()
    assert json.loads((out1 / "summary.json").read_text())["seed"] == 5


def test_cli_validation_error_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario = warp_drive\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def bad_path_argv(case, tmp_path):
    """argv for one CLI call whose user-named path is missing or the wrong
    kind (a directory where a file is read, a file where --out must go), or
    a rollout that has no maze to roll out on or a negative step limit."""
    cfg = write_cfg(tmp_path, SYSTEM_ID_CFG)
    out = str(tmp_path / "o")
    theta = tmp_path / "theta.npy"
    np.save(theta, np.zeros(8))
    if case == "rollout-no-mazes":
        return ["rollout", "--config", cfg, "--theta", str(theta)]
    if case == "missing-config":
        return ["run", "--config", str(tmp_path / "nope.cfg"), "--out", out]
    if case == "config-dir":
        return ["run", "--config", str(tmp_path), "--out", out]
    if case == "out-file":
        return ["run", "--config", cfg, "--out", cfg]
    if case == "check-out-file":
        return ["check", "--config", cfg, "--out", cfg]
    if case == "csv-dir":
        return ["fit", "--csv", str(tmp_path)]
    cfg, _ = rollout_setup(tmp_path)
    if case == "rollout-negative-steps":
        return ["rollout", "--config", cfg, "--theta", str(theta),
                "--max-steps", "-1"]
    return ["rollout", "--config", cfg, "--theta", str(tmp_path)]


@pytest.mark.parametrize("case", ["missing-config", "config-dir", "out-file",
                                  "check-out-file", "csv-dir", "theta-dir",
                                  "rollout-no-mazes",
                                  "rollout-negative-steps"])
def test_cli_bad_path_exit_code(case, tmp_path, capsys):
    """Exit 1 with one `error:` line on stderr and nothing on stdout."""
    assert main(bad_path_argv(case, tmp_path)) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("line", [
    "beta = nan", "beta = inf", "beta = -5", "beta = 0", "step_eps = nan",
    "noise_clip = nan",
    "eval_batch_size = -5", "eval_batch_size = 0",
    "dim = 0", "stride = 0", "period_b = 0", "topology = edges:[[0,1"])
def test_cli_rejects_bad_config_values(line, command, tmp_path, capsys):
    """A non-finite float, a beta that is not positive, an eval batch
    below one transition, a zero dim, stride or period, or an edge list
    that is not JSON is a validation error that names the key, reported
    before --out is created. The line replaces the base config's line for
    its key, if it has one."""
    key = line.split(" = ")[0]
    if key == "eval_batch_size":
        cfg, _ = rollout_setup(tmp_path)
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    else:
        base = [row for row in SYSTEM_ID_CFG.splitlines()
                if not row.startswith(key + " ")]
        cfg = write_cfg(tmp_path, "\n".join(base + [line]) + "\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert key in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_cli_runtime_abort_exit_code(tmp_path, capsys):
    # a huge constant step makes the quadratic iteration explode to inf
    cfg = write_cfg(tmp_path, SYSTEM_ID_CFG.replace(
        "seed = 1", "seed = 1\nstep_kind = constant\nstep_eps = 1000.0"))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["aborted"]
    assert summary["iters_per_s"] is None   # the horizon was not run


# Small valid configs for the mutation test below; MAZE stands for the path
# of a 2 x 2 maze file.
FUZZ_BASES = {
    "system_id": ("scenario = system_id\nn_agents = 3\ndim = 2\nseed = 1\n"
                  "horizon = 200\nstride = 10\ncompute_constants = true\n"),
    "gridworld": ("scenario = gridworld\nn_agents = 2\ndim = 16\nseed = 1\n"
                  "horizon = 100\nstride = 10\neval_batch_size = 5\n"
                  "maze_files = MAZE,MAZE\n"),
}
FUZZ_JUNK = st.sampled_from(["", "x", "1.5", "1e3", "nan", "true", "-1"])
FUZZ_FLOATS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1e-320", "5e-324", "1e-300", "1e-160", "1e200",
                     "1e308", "-0.0", "0", "1e-3", "0.5", "0.99", "1000"]),
    FUZZ_JUNK)
FUZZ_TOPOLOGIES = st.sampled_from([
    "line", "ring", "complete", "star", "wheel", "", "edges:[[0,1],[1,2]]",
    "edges:[[0,1]]", "edges:[[0,9]]", "edges:[[0,0]]", "edges:[[0,1,2]]",
    "edges:[0]", "edges:{}", "edges:nope", 'edges:[["a","b"]]',
    "edges:[[0.5,1]]", "edges:[[-1,0]]"])


def fuzz_ints(lo, hi):
    return st.integers(lo, hi).map(str) | FUZZ_JUNK


# every config key, and adversarial values for it: N <= 12, d <= 6,
# H <= 200 and eval batches <= 50 keep each run small
FUZZ_VALUES = {
    "scenario": st.sampled_from(["system_id", "gridworld", "warp"]),
    "n_agents": fuzz_ints(-2, 12),
    "dim": fuzz_ints(-2, 6),
    "seed": st.integers(-2**70, 2**70).map(str) | FUZZ_JUNK,
    "horizon": fuzz_ints(-5, 200),
    "stride": st.integers(-5, 10**12).map(str) | FUZZ_JUNK,
    "topology": FUZZ_TOPOLOGIES,
    "frames": st.lists(FUZZ_TOPOLOGIES, max_size=3).map(";".join),
    "period_b": fuzz_ints(-2, 300),
    "step_kind": st.sampled_from(["constant", "diminishing", "", "linear"]),
    "step_eps": FUZZ_FLOATS,
    "noise_clip": FUZZ_FLOATS,
    "gamma": FUZZ_FLOATS,
    "beta": FUZZ_FLOATS,
    "maze_files": st.sampled_from(["", "missing.txt", "MAZE", "MAZE,MAZE",
                                   "MAZE,MAZE,MAZE", "MAZE,BIG", ".",
                                   "BAD,BAD"]),
    "eval_batch_size": fuzz_ints(-2, 50),
    "compute_constants": st.sampled_from(["true", "false", "yes", "2", ""]),
}


@given(base=st.sampled_from(sorted(FUZZ_BASES)),
       mutation=st.sampled_from(sorted(FUZZ_VALUES)).flatmap(
           lambda key: st.tuples(st.just(key), FUZZ_VALUES[key])),
       command=st.sampled_from(["run", "check"]))
@example(base="system_id", mutation=("step_eps", "1e-320"), command="run")
@example(base="system_id", mutation=("step_eps", "1e-320"), command="check")
@example(base="system_id", mutation=("beta", "1e308"), command="run")
@example(base="system_id", mutation=("beta", "1e308"), command="check")
@example(base="system_id", mutation=("noise_clip", "1e-300"), command="run")
@example(base="system_id", mutation=("noise_clip", "1e-300"),
         command="check")
@settings(max_examples=150, deadline=None)
def test_cli_exit_code_contract_on_mutated_configs(base, mutation, command):
    """One key of a small valid config set to an adversarial value: `dcsa
    run` and `dcsa check` exit 0, 1 or 2 and raise nothing. Exit 1 prints
    one `error:` line, and exit 2, a run's abort, one `run aborted:`
    line."""
    key, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"MAZE": ("S.\n.G\n", "maze.txt"),
                 "BIG": ("S..\n..G\n", "big.txt"),
                 "BAD": ("SS\n..\n", "bad.txt")}
        for name, (maze, file) in paths.items():
            with open(os.path.join(tmp, file), "w", encoding="utf-8") as fh:
                fh.write(maze)
            value = value.replace(name, os.path.join(tmp, file))
        text = re.sub(rf"(?m)^{key} = .*\n", "", FUZZ_BASES[base])
        text = text.replace("MAZE", os.path.join(tmp, "maze.txt"))
        cfg = os.path.join(tmp, "fuzz.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"{text}{key} = {value}\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", cfg, "--out",
                         os.path.join(tmp, "o")])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 0:
        assert lines == []
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert command == "run"
        assert len(lines) == 1 and lines[0].startswith("run aborted: ")


def test_cli_check_reports_constants(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SYSTEM_ID_CFG + "compute_constants = true\n")
    assert main(["check", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["constants"]["B"] > 0
    assert report["admissibility"]["checked"]
    assert "rho" not in report   # tau_k has no mixing floor


def test_cli_check_computes_constants_regardless_of_config(tmp_path, capsys):
    reports = []
    for extra in ("", "compute_constants = true\n"):
        cfg = write_cfg(tmp_path, SYSTEM_ID_CFG + extra)
        assert main(["check", "--config", cfg]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["admissibility"]["checked"]


def test_cli_check_names_a_horizon_too_short_for_c_tau(tmp_path, capsys):
    """With constant eps = 0.03, tau_k = 99 exceeds every k of a short
    horizon, so c_tau cannot be fitted: exit 1 with one error line that
    names the configured horizon and the range fitted, k <= 2 for a
    horizon below 2."""
    for horizon, fitted in ((3, 3), (1, 2)):
        cfg = write_cfg(tmp_path,
                        "scenario = system_id\nn_agents = 3\ndim = 2\n"
                        f"horizon = {horizon}\nstep_kind = constant\n"
                        "step_eps = 0.03\n", name=f"h{horizon}.cfg")
        assert main(["check", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: horizon {horizon} ")
        assert captured.err.count("\n") == 1
        assert f"no k <= {fitted} exceeds tau_k" in captured.err
        assert "Traceback" not in captured.err


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# Both configs use a diminishing step, which reports the 8/alpha margin; in
# the second, tau_k > k at every checked k, so the delayed-step margin is
# infinite and must print as null.
@pytest.mark.parametrize("horizon_line", [
    "horizon = 300", "horizon = 100000\nstep_eps = 0.5\nbeta = 2000"],
    ids=["diminishing", "tau-beyond-horizon"])
def test_cli_check_prints_strict_json(horizon_line, tmp_path, capsys):
    cfg = write_cfg(tmp_path, SYSTEM_ID_CFG.replace("horizon = 300",
                                                    horizon_line))
    out = tmp_path / "o"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    written = json.loads((out / "check.json").read_text(),
                         parse_constant=reject_constant)
    assert report == written
    margins = report["admissibility"]["margins"]
    assert math.isfinite(margins["diminishing_eps_vs_8_over_alpha"])


def test_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys, dcsa.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_cli_fit_on_emitted_csv(tmp_path, capsys):
    ks = np.arange(0, 1000)
    records = [MetricsRecord(k=int(k), eps_k=0.1, tau_k=0,
                             R=1.0 / (k + 1), S=0.0, S_delayed=0.0,
                             V=1.0 / (k + 1)) for k in ks]
    path = tmp_path / "m.csv"
    emit_metrics(empty_traj(records), path)
    assert main(["fit", "--csv", str(path), "--metric", "R",
                 "--kmin", "10", "--kmax", "999"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["slope"] == pytest.approx(-1.0, abs=1e-2)


def emitted_csv(tmp_path):
    path = tmp_path / "m.csv"
    emit_metrics(empty_traj([MetricsRecord(k=k, eps_k=0.1, tau_k=0, R=1.0,
                                           S=0.0, S_delayed=0.0, V=1.0)
                             for k in range(3)]), path)
    return path


def assert_fit_rejects(path, capsys):
    assert main(["fit", "--csv", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_fit_unknown_metric_exit_code(tmp_path, capsys):
    """An unknown --metric is a validation error: one `error:` line on
    stderr and nothing on stdout."""
    assert main(["fit", "--csv", str(emitted_csv(tmp_path)),
                 "--metric", "V"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unknown metric 'V' (use R, S, or td)\n"
    assert captured.out == ""


def test_cli_fit_wrong_header_exit_code(tmp_path, capsys):
    path = emitted_csv(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0] + ",lemma4_slack"] + lines[1:]) + "\n")
    assert_fit_rejects(path, capsys)


def test_cli_fit_empty_csv_exit_code(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("")
    assert_fit_rejects(path, capsys)


def test_cli_fit_non_numeric_cell_exit_code(tmp_path, capsys):
    path = emitted_csv(tmp_path)
    path.write_text(path.read_text().replace("\n1,", "\nabc,", 1))
    assert_fit_rejects(path, capsys)


def test_cli_fit_one_k_exit_code(tmp_path, capsys):
    """Rows that all share one k give no line to fit."""
    path = emitted_csv(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0]] + ["5" + row[row.index(","):]
                                            for row in lines[1:]]) + "\n")
    assert_fit_rejects(path, capsys)


def test_read_metrics_rejects_short_row(tmp_path):
    path = emitted_csv(tmp_path)
    path.write_text(path.read_text() + "3,0.1\n")
    with pytest.raises(FormatError, match="line 5"):
        read_metrics(path)


def rollout_setup(tmp_path):
    maze = tmp_path / "maze.txt"
    maze.write_text("SG\n")
    cfg = write_cfg(tmp_path, (
        "scenario = gridworld\nn_agents = 1\ndim = 8\nseed = 1\n"
        f"maze_files = {maze}\nhorizon = 10\n"))
    return cfg, tmp_path / "theta.npy"


@pytest.mark.parametrize("command", ["run", "check"])
def test_cli_rejects_a_gridworld_dim_off_the_mazes(command, tmp_path,
                                                   capsys):
    """A gridworld's dim is its mazes' cells x actions: the 1 x 2 maze of
    rollout_setup has 2 x 4 = 8, so dim = 7 is a validation error that
    names dim, reported before --out is created."""
    cfg, _ = rollout_setup(tmp_path)
    with open(cfg, encoding="utf-8") as fh:
        text = fh.read()
    cfg = write_cfg(tmp_path, text.replace("dim = 8", "dim = 7"))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config dim=7 ")
    assert "make dim=8" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_rollout_non_array_theta_exit_code(tmp_path, capsys):
    cfg, theta = rollout_setup(tmp_path)
    np.save(theta, np.array({"theta": [0.0] * 8}, dtype=object))
    assert main(["rollout", "--config", cfg, "--theta", str(theta)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_rollout_wrong_theta_length_exit_code(tmp_path, capsys):
    cfg, theta = rollout_setup(tmp_path)
    np.save(theta, np.zeros(7))
    assert main(["rollout", "--config", cfg, "--theta", str(theta)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_rollout_theta_without_rows_exit_code(tmp_path, capsys):
    """A (0, d) theta has no row to average: a validation error, not an
    all-NaN rollout."""
    cfg, theta = rollout_setup(tmp_path)
    np.save(theta, np.zeros((0, 8)))
    assert main(["rollout", "--config", cfg, "--theta", str(theta)]) == 1
    assert "no rows" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cli_rollout_rejects_a_non_finite_theta(bad, tmp_path, capsys):
    """A theta with a non-finite entry, such as the theta_final.npy an
    aborted run writes, is a format error, not a rollout of unreached
    walks: the command exits 1 and prints nothing."""
    cfg, theta = rollout_setup(tmp_path)
    values = np.zeros((3, 8))
    values[1, 5] = bad
    np.save(theta, values)
    assert main(["rollout", "--config", cfg, "--theta", str(theta)]) == 1
    captured = capsys.readouterr()
    assert "is not finite" in captured.err
    assert captured.out == ""


def test_cli_rollout_on_run_output(tmp_path, capsys):
    """rollout reads the (N, d) theta_final.npy that run writes and rolls
    out the agents' mean on each maze."""
    maze = tmp_path / "maze.txt"
    maze.write_text("S.\n.G\n")
    cfg = write_cfg(tmp_path, (
        "scenario = gridworld\nn_agents = 2\ndim = 16\nseed = 1\n"
        f"maze_files = {maze},{maze}\nhorizon = 500\n"))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    theta = np.load(out / "theta_final.npy")
    assert theta.shape == (2, 16)
    capsys.readouterr()
    assert main(["rollout", "--config", cfg, "--theta",
                 str(out / "theta_final.npy"), "--max-steps", "20"]) == 0
    results = json.loads(capsys.readouterr().out)
    expected = greedy_policy_rollout(theta.mean(axis=0),
                                     load_maze(str(maze)), 20)
    assert results == [{"maze": str(maze), "reached": expected.reached,
                        "steps": len(expected.path) - 1}] * 2


def test_cli_rollout(tmp_path, capsys):
    maze = tmp_path / "maze.txt"
    maze.write_text("SG\n")
    cfg = write_cfg(tmp_path, (
        "scenario = gridworld\nn_agents = 1\ndim = 8\nseed = 1\n"
        f"maze_files = {maze}\nhorizon = 10\n"))
    from dcsa.operators import value_iteration_q
    q = value_iteration_q(load_maze(str(maze)), gamma=0.5)
    theta = tmp_path / "theta.npy"
    np.save(theta, q)
    assert main(["rollout", "--config", cfg, "--theta", str(theta)]) == 0
    results = json.loads(capsys.readouterr().out)
    assert results[0]["reached"] and results[0]["steps"] == 1
