import configparser
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import fields

import numpy as np
import pytest

from legpress import cli, config, harness, orchestrator
from legpress.config import StackConfig, load_config
from legpress.geom import RigidTransform, compose
from legpress.harness import (
    AmbiguityBenchResult,
    TaskSpec,
    _asymmetric_shape,
    ambiguity_benchmark,
    multi_step_protocol,
    object_catalog,
    registration_benchmark,
    sample_task,
)
from legpress.orchestrator import EpisodeOptions, EpisodeTrace
from legpress.policy import (
    NoPlanError,
    Observation,
    flow_baseline,
    load_maps,
    planning_baseline,
    random_location_baseline,
    select_greedy,
)
from legpress.sensing import full_scan
from legpress.simworld import ConvexMesh, rest_pose_on_ground


def _vertex_digest(shapes) -> str:
    v = np.concatenate([s.vertices().ravel() for s in shapes])
    return hashlib.sha256(v.tobytes()).hexdigest()[:16]


@pytest.fixture(scope="module")
def teleport_run():
    """Seed-0 multi-step run with teleport, and the episode trace under it."""
    traces = []

    def recording(*args, **kwargs):
        traces.append(run_episode(*args, **kwargs))
        return traces[-1]

    run_episode = harness.run_episode
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_episode", recording)
        res = multi_step_protocol("planning", seed=0,
                                  options=EpisodeOptions(reposition="teleport"),
                                  target_distance=0.2)
    return res, traces


def test_multi_step_teleport_reaches_the_target(teleport_run):
    res, _ = teleport_run
    assert res.outcome == "success"
    assert res.steps == 2
    assert res.y_error_cm == pytest.approx(2.456474, abs=1e-4)


def test_multi_step_y_error_is_read_from_the_final_pose(teleport_run):
    res, traces = teleport_run
    assert len(traces) == 1
    y_start = sample_task(TaskSpec("multi_step_1m"), 0).obj.pose.translation[1]
    assert res.y_error_cm == abs(float(traces[0].final_pose.translation[1]) - y_start) * 100.0
    assert res.steps == traces[0].steps_used
    assert res.outcome == traces[0].outcome


def test_multi_step_walk_reaches_the_target(monkeypatch):
    """Seed-0 run in walk mode: it trots to the second standoff pose (trot
    MPC schedules, Raibert footholds, two swing legs)."""
    traces = []
    run_episode = harness.run_episode

    def recording(*args, **kwargs):
        traces.append(run_episode(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(harness, "run_episode", recording)
    res = multi_step_protocol("planning", seed=0, options=EpisodeOptions(reposition="walk"),
                              target_distance=0.2)
    assert res.outcome == "success"
    assert res.steps == 2
    assert res.y_error_cm == pytest.approx(2.526069637498182, abs=1e-4)
    assert any(r["type"] == "transition" and r["to"] == "WALKING" for r in traces[0].records)


def test_multi_step_oracle_teleports_through_the_sub_goals():
    res = multi_step_protocol("oracle", seed=0, options=EpisodeOptions(reposition="teleport"),
                              target_distance=0.2)
    assert res.outcome == "success"
    assert res.steps == 2
    assert res.y_error_cm == 0.0


def test_cli_eval_trace_replays_consistently(tmp_path, capsys):
    out = tmp_path / "eval"
    assert cli.main(["eval", "--task", "box_push_fixed", "--policy", "oracle",
                     "--episodes", "1", "--out", str(out)]) == 0
    assert "success_rate=1.0" in capsys.readouterr().out
    assert cli.main(["replay", "--trace", str(out / "trace_box_push_fixed_0.jsonl")]) == 0
    assert "success_consistency=ok" in capsys.readouterr().out


def test_eval_writes_the_summary_csv_byte_for_byte(tmp_path, capsys):
    """Schema line, header, one row per episode and the aggregate line, as
    `write_summary_csv` writes them: a change to the result record shows
    here as a diff."""
    out = tmp_path / "eval"
    assert cli.main(["eval", "--task", "box_push_fixed", "--policy", "oracle",
                     "--episodes", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "summary_box_push_fixed.csv").read_bytes() == (
        b"# legpress-summary-v1\n"
        b"task,policy,seed,outcome,success,steps,final_mean_flow,reward\n"
        b"box_push_fixed,oracle,0,success,1,1,0.0,-0.0\n"
        b"# aggregate,box_push_fixed,oracle,1.0,0.0,1.0\n")


def test_replay_checks_against_the_stored_success_threshold(tmp_path, capsys):
    """A trace whose header stores a non-default threshold replays as
    consistent: the check reads the threshold from the header."""
    path = tmp_path / "trace.jsonl"
    head = {"schema": "legpress-trace-v1", "task": "box_push_fixed", "seed": 0,
            "outcome": "success", "steps_used": 1, "final_mean_flow": 0.2,
            "success_threshold": 0.5}
    check = {"type": "check", "t": 9.0, "mean_flow": 0.2, "reward": -0.2}
    path.write_text(json.dumps(head) + "\n" + json.dumps(check) + "\n")
    assert cli.main(["replay", "--trace", str(path)]) == 0  # a success only under 0.5
    out = capsys.readouterr().out
    assert "success_threshold=0.5\n" in out
    assert "success_consistency=ok" in out


def test_replay_falls_back_to_the_default_threshold(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    head = {"schema": "legpress-trace-v1", "task": "box_push_fixed", "seed": 0,
            "outcome": "max_steps", "steps_used": 7, "final_mean_flow": 0.04}
    check = {"type": "check", "t": 9.0, "mean_flow": 0.04, "reward": -0.04}
    path.write_text(json.dumps(head) + "\n" + json.dumps(check) + "\n")
    assert cli.main(["replay", "--trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "success_threshold=0.03\n" in out
    assert "success_consistency=ok" in out


TRACE_HEAD = {"schema": "legpress-trace-v1", "task": "box_push_fixed", "seed": 0,
              "outcome": "max_steps", "steps_used": 7, "final_mean_flow": 0.04}


@pytest.mark.parametrize("head, message", [
    ({k: v for k, v in TRACE_HEAD.items() if k != "task"},
     "the first line is not a trace header with the keys schema, task, seed, outcome, "
     "steps_used, final_mean_flow"),
    (["legpress-trace-v1"], "the first line is not a trace header"),
    ({**TRACE_HEAD, "schema": "legpress-trace-v0"},
     "trace schema 'legpress-trace-v0', expected 'legpress-trace-v1'"),
], ids=["without_task", "not_an_object", "another_schema"])
def test_replay_of_a_file_without_a_trace_header_exits_2(head, message, tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(head) + "\n")
    assert cli.main(["replay", "--trace", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{path}: {message}")


@pytest.mark.parametrize("record", [{"t": 1.0}, {"type": "check", "t": 1.0}, ["check"]],
                         ids=["without_type", "check_without_reward", "not_an_object"])
def test_replay_of_a_record_without_its_keys_exits_2(record, tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    check = {"type": "check", "t": 9.0, "mean_flow": 0.04, "reward": -0.04}
    path.write_text("\n".join(json.dumps(r) for r in (TRACE_HEAD, check, record)) + "\n")
    assert cli.main(["replay", "--trace", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and err["message"].startswith(f"{path} line 3: ")


def test_simcheck_passes_every_invariant(capsys):
    assert cli.main(["simcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = len(cli.SIM_CHECKS)
    assert [line.split()[0] for line in lines] == ["PASS"] * rows + ["OK"]
    assert [line.split(" ", 1)[1].split(":")[0] for line in lines[:rows]] == [
        name for name, _, _ in cli.SIM_CHECKS]


def test_multistep_prints_a_half_integer_median(capsys, monkeypatch):
    """Successes in 9 and 12 steps have the median 10.5, printed as it is."""
    results = iter([harness.MultiStepResult(9, 1.5, "success"),
                    harness.MultiStepResult(12, 2.5, "success")])
    monkeypatch.setattr(cli, "multi_step_protocol", lambda *a, **k: next(results))
    assert cli.main(["multistep", "--runs", "2"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "success 2/2 median_steps=10.5 mean_y_error_cm=2.0"


def test_sweep_prints_each_episode_and_the_outcome_counts(capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert cli.main(["sweep", "--seeds", "0", "--max-steps", "1",
                     "--tasks", "box_push_fixed"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=2 MKL_NUM_THREADS=unset"
    assert lines[1] == "task=box_push_fixed"
    assert lines[2].startswith("  seed=0 outcome=success steps=1 final_mean_flow=0.01613")
    assert lines[3:] == ["  counts success=1"]


@pytest.mark.parametrize("argv", [
    ["eval", "--task", "box_push_fixed", "--policy", "planning", "--episodes", "1"],
    ["multistep", "--runs", "1"],
    ["regbench", "--cases", "1"],
    ["sweep", "--seeds", "0", "--tasks", "box_push_fixed"],
])
def test_every_table_starts_with_the_blas_threads(argv, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")

    def fake_episode(task, provider, options, config):
        trace = orchestrator.EpisodeTrace(task.name, task.seed)
        trace.outcome, trace.steps_used, trace.final_mean_flow = "success", 1, 0.01
        return trace

    monkeypatch.setattr(harness, "run_episode", fake_episode)
    monkeypatch.setattr(cli, "multi_step_protocol",
                        lambda *a, **k: harness.MultiStepResult(3, 0.5, "success"))
    monkeypatch.setattr(cli, "registration_benchmark",
                        lambda *a, **k: harness.RegBenchResult(0.1, 0.001, 1))
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset MKL_NUM_THREADS=3"
    assert not any(line.startswith("env ") for line in lines[1:])


def test_regbench_records_its_process_count_after_the_blas_threads(capsys, monkeypatch):
    monkeypatch.setattr(cli, "usable_cores", lambda: 3)
    monkeypatch.setattr(cli, "registration_benchmark",
                        lambda *a, **k: harness.RegBenchResult(0.1, 0.001, 1))
    assert cli.main(["regbench", "--cases", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("env OPENBLAS_NUM_THREADS=")
    assert lines[1:3] == ["shares=3", "cases=1"]


def test_regbench_prints_how_every_icp_start_stopped(capsys):
    """Three cases of seven starts each; the errors are the pinned ones of
    test_shape_sets_are_unchanged, and the iterations the starts' own."""
    assert cli.main(["regbench", "--cases", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"shares={harness.usable_cores()}"
    assert lines[2:] == ["cases=3",
                         "rotation_mae_deg=0.5690493233593162",
                         "translation_mae=0.0002989511626947668",
                         "icp_exits step_tol=11 patience=10 max_iter=0",
                         "icp_iterations starts=21 total=294 mean=14.0",
                         "degraded=0",
                         "augmented_winners=3"]


def test_sweep_counts_faults_by_class(capsys, monkeypatch):
    """The count key is the outcome before its parenthesised detail; the
    seeds are ranges and lists, inclusive."""
    outcomes = iter(["fault:simulation_divergence (velocity 106.7 m/s)", "success",
                     "fault:simulation_divergence (velocity 100.2 m/s)", "max_steps"])

    def fake_episode(task, provider, options, config):
        trace = orchestrator.EpisodeTrace(task.name, task.seed)
        trace.outcome, trace.steps_used, trace.final_mean_flow = next(outcomes), 1, 0.5
        assert options.max_steps == 3
        return trace

    monkeypatch.setattr(harness, "run_episode", fake_episode)
    assert cli.main(["sweep", "--seeds", "0-1,5,7", "--max-steps", "3",
                     "--tasks", "box_flip_push_random"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("env OPENBLAS_NUM_THREADS=")
    assert [line.split()[0] for line in lines[2:6]] == ["seed=0", "seed=1", "seed=5", "seed=7"]
    assert lines[6] == "  counts fault:simulation_divergence=2 max_steps=1 success=1"


def _fake_sweep(monkeypatch, capsys, argv) -> list[str]:
    """The lines `sweep` prints for argv when every flip episode diverges on
    its first action with a seed-dependent detail, and every multi-step run
    succeeds in 3 steps."""
    def fake_episode(task, provider, options, config):
        trace = orchestrator.EpisodeTrace(task.name, task.seed)
        trace.outcome = f"fault:simulation_divergence (velocity {100 + task.seed}.5 m/s)"
        trace.steps_used, trace.final_mean_flow = 1, 0.25
        return trace

    monkeypatch.setattr(harness, "run_episode", fake_episode)
    monkeypatch.setattr(cli, "multi_step_protocol",
                        lambda *a, **k: harness.MultiStepResult(3, 0.5, "success"))
    assert cli.main(["sweep", "--seeds", "0-2", "--tasks", "box_flip_push_random",
                     "multi_step_1m", *argv]) == 0
    return capsys.readouterr().out.splitlines()


def test_sweep_against_its_own_table_moves_nothing(tmp_path, capsys, monkeypatch):
    table = _fake_sweep(monkeypatch, capsys, [])
    path = tmp_path / "before.txt"
    path.write_text("\n".join(table) + "\n")
    lines = _fake_sweep(monkeypatch, capsys, ["--against", str(path)])
    assert lines[:len(table)] == table
    assert lines[len(table):] == [f"against {path}", "moved 0 of 9"]


def test_sweep_against_reports_each_moved_episode_and_count(tmp_path, capsys, monkeypatch):
    """Only the outcome class and the steps are compared: a fault's detail
    and the final flow may differ."""
    table = _fake_sweep(monkeypatch, capsys, [])
    before = [line.replace("velocity 101.5", "velocity 107.5").replace("0.25", "0.3")
              for line in table]
    walk_seed_1 = before.index("task=multi_step_1m reposition=walk") + 2
    assert before[walk_seed_1].startswith("  seed=1 outcome=success steps=3 ")
    before[walk_seed_1] = "  seed=1 outcome=fail_y steps=4 y_error_cm=21.0"
    path = tmp_path / "before.txt"
    path.write_text("\n".join(before) + "\n")
    lines = _fake_sweep(monkeypatch, capsys, ["--against", str(path)])
    assert lines[len(table):] == [
        f"against {path}",
        "  moved task=multi_step_1m reposition=walk seed=1: fail_y steps=4 -> success steps=3",
        "  counts task=multi_step_1m reposition=walk: fail_y=1 success=2 -> success=3",
        "moved 1 of 9"]


def test_sweep_with_two_jobs_prints_the_serial_table(capsys):
    """Two real episodes in two forked workers give the serial run's output
    byte for byte; no worker outlives the command and the BLAS variables of
    the calling process are as they were."""
    argv = ["sweep", "--seeds", "0-1", "--max-steps", "1", "--tasks", "box_push_fixed"]
    env = {var: os.environ.get(var) for var in cli._BLAS_VARS}
    assert cli.main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert cli.main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
    _assert_no_child_left()
    assert {var: os.environ.get(var) for var in cli._BLAS_VARS} == env
    assert serial.splitlines()[2].startswith("  seed=0 outcome=success steps=1 ")


def test_sweep_jobs_are_capped_by_the_usable_cores(capsys, monkeypatch):
    """On one usable core `--jobs 2` forks nothing and prints the serial table."""
    serial = _fake_sweep(monkeypatch, capsys, [])
    monkeypatch.setattr(cli, "usable_cores", lambda: 1)

    def no_fork():
        raise AssertionError("forked on one usable core")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _fake_sweep(monkeypatch, capsys, ["--jobs", "2"]) == serial


def test_sweep_against_a_file_without_rows_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("env OPENBLAS_NUM_THREADS=1\n")
    assert cli.main(["sweep", "--against", str(path)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": f"{path} holds no sweep rows"}


def write_config(cfg: StackConfig, path: str) -> None:
    """Dump every key of cfg in the format load_config reads."""
    parser = configparser.ConfigParser()
    for section_field in fields(cfg):
        sub = getattr(cfg, section_field.name)
        parser.add_section(section_field.name)
        for f in fields(sub):
            v = getattr(sub, f.name)
            if isinstance(v, tuple):
                parser.set(section_field.name, f.name, ", ".join(repr(float(x)) for x in v))
            else:
                parser.set(section_field.name, f.name, repr(v))
    with open(path, "w") as fh:
        parser.write(fh)


def test_the_config_docstring_lists_every_key_in_order():
    """The schema in the config module docstring is the only user
    documentation of the file format: its sections and each section's keys
    are the dataclass fields, in order."""
    listed, section = {}, None
    for line in config.__doc__.split("Schema (all values SI):", 1)[1].splitlines():
        if m := re.match(r"\s*\[(\w+)\](.*)", line):
            section, line = m[1], m[2]
            listed[section] = []
        if section is not None:
            listed[section] += [re.sub(r"\s*\(\d+\)$", "", key.strip())
                                for key in line.split(",") if key.strip()]
    cfg = StackConfig()
    assert list(listed) == [f.name for f in fields(cfg)]
    for f in fields(cfg):
        assert listed[f.name] == [g.name for g in fields(getattr(cfg, f.name))], f.name


def test_written_config_loads_back_to_the_defaults(tmp_path):
    path = tmp_path / "stack.ini"
    write_config(StackConfig(), str(path))
    assert load_config(str(path)) == StackConfig()


def test_config_rejects_a_vector_of_the_wrong_length(tmp_path):
    path = tmp_path / "stack.ini"
    path.write_text("[robot]\ntrunk_inertia = 0.07, 0.26\n")
    with pytest.raises(ValueError, match=r"\[robot\] trunk_inertia needs 3 values, got 2"):
        load_config(str(path))


def test_bad_input_exits_2_with_a_json_record(tmp_path, capsys):
    path = tmp_path / "stack.ini"
    path.write_text("[robot]\ntrunk_masss = 3.0\n")
    with pytest.raises(ValueError, match=r"unknown config key \[robot\] trunk_masss"):
        load_config(str(path))
    assert cli.main(["--config", str(path), "simcheck"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": "unknown config key [robot] trunk_masss"}
    assert cli.main(["replay", "--trace", str(tmp_path / "missing.jsonl")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


EVAL_ARGV = ["eval", "--task", "box_push_fixed", "--policy", "null", "--episodes", "1",
             "--max-steps", "1"]


def test_an_unknown_config_section_exits_2_with_a_json_record(tmp_path, capsys):
    path = tmp_path / "stack.ini"
    path.write_text("[simm]\ndt = 0.002\n")
    with pytest.raises(ValueError, match=r"unknown config section \[simm\]"):
        load_config(str(path))
    assert cli.main(["--config", str(path), *EVAL_ARGV]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": "unknown config section [simm]"}


@pytest.mark.parametrize("section, key, raw, message", [
    ("sim", "dt", "0.0", "must be positive, got 0.0"),
    ("robot", "trunk_mass", "0.0", "must be positive, got 0.0"),
    ("robot", "foot_mass", "-0.1", "must be positive, got -0.1"),
    ("robot", "trunk_inertia", "0, 0.26, 0.24", "must be positive, got (0.0, 0.26, 0.24)"),
    ("robot", "trunk_inertia", "0.07, -0.26, 0.24", "must be positive, got (0.07, -0.26, 0.24)"),
    ("robot", "thigh_length", "0", "must be positive, got 0.0"),
    ("robot", "calf_length", "-0.2", "must be positive, got -0.2"),
    ("robot", "knee_limits", "1, -1", "must have low < high, got (1.0, -1.0)"),
    ("contact", "k_normal", "0", "must be positive, got 0.0"),
    ("contact", "d_normal", "-5", "must be non-negative, got -5.0"),
    ("contact", "friction", "-0.1", "must be non-negative, got -0.1"),
    ("camera", "width", "0", "must be positive, got 0"),
    ("camera", "height", "-60", "must be positive, got -60"),
    ("camera", "object_points", "0", "must be positive, got 0"),
    ("camera", "horizontal_fov_deg", "180.0", "must be in (0, 180), got 180.0"),
    ("camera", "horizontal_fov_deg", "0.0", "must be in (0, 180), got 0.0"),
    ("mpc", "horizon", "0", "must be positive, got 0"),
    ("mpc", "force_update_period", "0", "must be positive, got 0"),
    ("gait", "trot_period", "0.0", "must be positive, got 0.0"),
    ("gait", "trot_duty", "0.0", "must be in (0, 1], got 0.0"),
    ("gait", "trot_duty", "1.5", "must be in (0, 1], got 1.5"),
])
def test_a_value_the_stack_divides_by_exits_2_when_out_of_range(section, key, raw, message,
                                                                 tmp_path, capsys):
    path = tmp_path / "stack.ini"
    path.write_text(f"[{section}]\n{key} = {raw}\n")
    assert cli.main(["--config", str(path), *EVAL_ARGV]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": f"config [{section}] {key} {message}"}


@pytest.mark.parametrize("name, error", [("", IsADirectoryError),
                                         ("missing.ini", FileNotFoundError)])
def test_a_config_path_that_cannot_be_read_exits_2(name, error, tmp_path, capsys,
                                                   monkeypatch):
    """A directory or a missing file, given by --config or by the
    environment variable, is the error of opening it, not the defaults."""
    path = str(tmp_path / name)
    with pytest.raises(error):
        load_config(path)
    assert cli.main(["--config", path, *EVAL_ARGV]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error.__name__
    monkeypatch.setenv(config.ENV_CONFIG_VAR, path)
    assert cli.main(EVAL_ARGV) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error.__name__


@pytest.mark.parametrize("text, reason", [
    ("dt = 0.002\n", r"File contains no section headers\. file: '{path}', line: 1 "),
    ("[sim]\ndt = 0.002\ndt = 0.001\n",
     r"While reading from '{path}' \[line 3\]: option 'dt' in section 'sim' already exists$"),
], ids=["key_before_any_section", "key_given_twice"])
def test_a_config_file_that_cannot_be_parsed_exits_2(text, reason, tmp_path, capsys):
    """A parse error is bad input: a ValueError naming the file and the line,
    which the CLI prints as a JSON record and exits 2 on."""
    path = tmp_path / "bad.ini"
    path.write_text(text)
    pattern = reason.format(path=re.escape(str(path)))
    with pytest.raises(ValueError, match=pattern):
        load_config(str(path))
    assert cli.main(["--config", str(path), "simcheck"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and re.match(pattern, err["message"])


def test_a_config_built_in_code_is_checked_before_the_first_tick():
    """A config made or edited in code meets the check a loaded file meets:
    an episode with a zero-width camera raises ValueError naming the key when
    its world is built, not a division by zero at the first render."""
    cfg = StackConfig()
    cfg.camera.width = 0
    task = sample_task(TaskSpec("box_push_fixed"), 0, cfg)
    with pytest.raises(ValueError, match=r"^config \[camera\] width must be positive, got 0$"):
        orchestrator.run_episode(task, harness.make_provider("planning"), config=cfg)
    with pytest.raises(ValueError, match=r"^config \[camera\] width"):
        config.check_config(cfg)


@pytest.mark.parametrize("argv, message", [
    (["regbench", "--cases", "0"], "need at least one registration case"),
    (["regbench", "--cases", "1", "--ambiguity", "-1"], "need at least one ambiguity trial"),
    (["multistep", "--runs", "0"], "need at least one run"),
    (["sweep", "--seeds", "5-3"], "seed range '5-3' runs from high to low"),
    (["eval", "--task", "box_push_fixed", "--policy", "planning", "--episodes", "1",
      "--max-steps", "0"], "max_steps must be at least 1, got 0"),
    (["eval", "--task", "box_push_fixed", "--policy", "planning", "--episodes", "1",
      "--max-steps", "-3"], "max_steps must be at least 1, got -3"),
    (["sweep", "--seeds", "0", "--max-steps", "0"], "max_steps must be at least 1, got 0"),
    (["sweep", "--seeds", "0", "--jobs", "0"], "--jobs must be at least 1, got 0"),
    (["sweep", "--seeds", "3-"], "seed range '3-' has no end"),
    (["sweep", "--seeds", "0-2,7-"], "seed range '7-' has no end"),
])
def test_empty_work_exits_2_with_a_json_record(argv, message, capsys):
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("parts", [2, 3])
def test_the_suites_in_shares_equal_the_one_process_suites(parts, monkeypatch):
    """Uneven shares (7 cases, 5 trials) give the one-process results bit for
    bit, ICP exits and iterations included."""
    monkeypatch.setattr(harness, "usable_cores", lambda: 1)
    want = registration_benchmark(7, seed=4), ambiguity_benchmark(5, seed=4)
    monkeypatch.setattr(harness, "usable_cores", lambda: parts)
    assert (registration_benchmark(7, seed=4), ambiguity_benchmark(5, seed=4)) == want
    assert sum(want[0].icp_exits.values()) == 49 and want[0].icp_iterations > 0
    _assert_no_child_left()


def test_map_shares_interleaves_the_shares_in_item_order():
    def share(part, parts):
        return [(part, item) for item in range(part, 8, parts)]

    assert harness.map_shares(share, 3) == [(i % 3, i) for i in range(8)]
    _assert_no_child_left()


def _raise_in(raising_part, exc):
    def share(part, parts):
        if part == raising_part:
            raise exc
        if part != 0:
            time.sleep(60)  # ended by the caller's failure, not waited for
        return [part]
    return share


def test_an_exception_in_a_share_is_raised_by_the_caller_and_no_child_is_left():
    with pytest.raises(KeyError, match="child's"):
        harness.map_shares(_raise_in(1, KeyError("child's")), 2)
    _assert_no_child_left()
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="caller's"):
        harness.map_shares(_raise_in(0, ValueError("caller's")), 3)
    assert time.perf_counter() - t0 < 30.0
    _assert_no_child_left()


def test_a_share_process_that_dies_raises_child_process_error():
    def share(part, parts):
        if part == 1:
            os._exit(3)
        return [part]

    with pytest.raises(ChildProcessError, match="status 3"):
        harness.map_shares(share, 2)
    _assert_no_child_left()


def test_text_buffered_before_the_fork_is_printed_once():
    """stdout on a pipe is block-buffered: without a flush before the fork
    each child would print the caller's buffered line again."""
    code = ("print('buffered'); from legpress.harness import map_shares; "
            "print(map_shares(lambda part, parts: [part], 3))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(harness.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert out.stdout == "buffered\n[0, 1, 2]\n"


def test_empty_benchmark_suites_are_rejected():
    with pytest.raises(ValueError, match="at least one registration case"):
        registration_benchmark(0)
    with pytest.raises(ValueError, match="at least one ambiguity trial"):
        ambiguity_benchmark(0)


def test_a_bug_in_a_command_propagates(monkeypatch, capsys):
    def broken(args):
        raise TypeError("a bug, not bad input")

    monkeypatch.setattr(cli, "cmd_simcheck", broken)
    with pytest.raises(TypeError, match="a bug, not bad input"):
        cli.main(["simcheck"])
    assert capsys.readouterr().err == ""


def test_shape_sets_are_unchanged():
    """The training/held-out catalog and the registration-suite shapes are
    part of every seeded result; any change to their draws shows here."""
    assert _vertex_digest(object_catalog("train")) == "6f920199adc973ce"
    assert _vertex_digest(object_catalog("eval")) == "50f26a008771055d"
    rng = np.random.default_rng(0)
    assert _vertex_digest([_asymmetric_shape(rng) for _ in range(30)]) == "a6bed0b707bd3dc5"
    res = registration_benchmark(3, seed=0)
    assert res.rotation_mae_deg == pytest.approx(0.5690493233593162, rel=1e-9)
    assert res.translation_mae == pytest.approx(0.0002989511626947668, rel=1e-9)


def test_surface_scans_and_registration_are_unchanged():
    """Recorded before the samplers and the point-to-plane step were rewritten
    for speed: any change to a sampling draw or to ICP shows here."""
    box, cylinder, l_prism = object_catalog("train")[:3]
    mesh = ConvexMesh(tuple(map(tuple, np.random.default_rng(5).uniform(-0.05, 0.05, (14, 3)))))
    digests = {}
    for shape in (box, cylinder, mesh, l_prism):
        scan = full_scan(shape, rest_pose_on_ground(shape, yaw=0.3), 400, seed=11)
        digest = hashlib.sha256(scan.points.tobytes() + scan.normals.tobytes()).hexdigest()
        digests[type(shape).__name__] = digest[:16]
    assert digests == {"Box": "3b76b4fa535b6006", "Cylinder": "a94309782270c9b6",
                       "ConvexMesh": "59ef271aa1794b02", "Compound": "64fb2dbaa955bc73"}
    assert ambiguity_benchmark(4, seed=0) == AmbiguityBenchResult(1.0, 0.5, 4)


def test_settle_sink_follows_the_configured_gravity():
    sinks = {}
    for g in (0.0, 9.81, 19.62):
        cfg = StackConfig()
        cfg.sim.gravity = g
        obj = sample_task(TaskSpec("box_push_fixed"), 0, cfg).obj
        geometric_z = -float((obj.shape.vertices() @ obj.pose.rotation.T)[:, 2].min())
        sinks[g] = geometric_z - float(obj.pose.translation[2])
    assert sinks[0.0] == 0.0
    assert sinks[9.81] > 0.0
    assert sinks[19.62] == pytest.approx(2.0 * sinks[9.81], rel=1e-9)


# -- named policies -------------------------------------------------------------


@pytest.fixture(scope="module")
def push_observation():
    """The seed-0 box_push_fixed object as a full 400-point scan, with the
    task goal relative to the object's pose."""
    task = sample_task(TaskSpec("box_push_fixed"), 0)
    cloud = full_scan(task.obj.shape, task.obj.pose, 400, seed=0)
    rel = compose(task.goal_pose, task.obj.pose.inverse())
    return Observation(cloud, rel, task.obj, 0)


@pytest.mark.parametrize("name, direct", [
    ("planning", lambda obs: planning_baseline(obs)),
    ("flow", lambda obs: flow_baseline(obs)),
    ("random", lambda obs: random_location_baseline(obs)),
])
def test_a_named_baseline_is_the_direct_call_with_the_front_left_leg(
        name, direct, push_observation):
    action = harness.make_provider(name)(push_observation)
    expected = direct(push_observation)
    assert action.leg == expected.leg == "front_left"
    assert action.contact_index == expected.contact_index
    assert np.array_equal(action.motion_params, expected.motion_params)


def test_null_and_oracle_policies(push_observation):
    action = harness.make_provider("null")(push_observation)
    assert (action.contact_index, action.leg) == (0, "front_left")
    assert np.array_equal(action.motion_params, np.zeros(3))
    assert harness.make_provider("oracle")(push_observation) == "oracle_teleport"


def test_planning_has_no_action_for_a_zero_displacement_goal(push_observation):
    obs = push_observation
    still = Observation(obs.cloud, RigidTransform.identity(), obs.obj, obs.seed)
    with pytest.raises(NoPlanError):
        harness.make_provider("planning")(still)


def test_an_unknown_policy_name_is_rejected():
    with pytest.raises(ValueError, match="unknown policy 'greedy'"):
        harness.make_provider("greedy")


def test_a_policy_calls_the_planner_bound_in_the_module_when_it_is_called(
        push_observation, monkeypatch):
    """A wrapper installed after the policy was made still sees every call."""
    policy = harness.make_provider("planning")
    calls = []

    def wrapped(*args):
        calls.append(args)
        return planning_baseline(*args)

    monkeypatch.setattr(harness, "planning_baseline", wrapped)
    assert policy(push_observation).contact_index == \
        planning_baseline(push_observation).contact_index
    assert len(calls) == 1


def write_maps(path, q: np.ndarray) -> str:
    """Actor/critic file with q (n, channels) and motion (0.1 * channel, 0, 0)."""
    lines = ["# point_index leg_channel mx my mz q"]
    lines += [f"{i} {c} {0.1 * c} 0.0 0.0 {q[i, c]}"
              for i in range(q.shape[0]) for c in range(q.shape[1])]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def right_leg_maps(tmp_path):
    """Maps over 400 points whose best entry is point 123 with the right leg."""
    q = np.full((400, 2), -10.0)
    q[123, 1] = -1.0
    return write_maps(tmp_path / "maps.txt", q)


def test_maps_replay_the_greedy_action(right_leg_maps, push_observation):
    action = harness.make_provider(f"maps:{right_leg_maps}")(push_observation)
    expected = select_greedy(*load_maps(right_leg_maps))
    assert (action.contact_index, action.leg) == (expected.contact_index, expected.leg) \
        == (123, "front_right")
    assert np.array_equal(action.motion_params, expected.motion_params)


def test_eval_executes_the_leg_the_maps_pick(right_leg_maps, tmp_path, capsys):
    out = tmp_path / "eval"
    assert cli.main(["eval", "--task", "box_push_fixed", "--policy", f"maps:{right_leg_maps}",
                     "--episodes", "1", "--max-steps", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    trace = EpisodeTrace.read_jsonl(str(out / "trace_box_push_fixed_0.jsonl"))
    assert [(a["contact_index"], a["leg"]) for a in trace.actions] == [(123, "front_right")]
    assert any(r["type"] == "transition" and r["to"] == "MANIPULATION" for r in trace.records)


def test_a_malformed_maps_file_exits_2_naming_the_line(tmp_path, capsys):
    path = tmp_path / "maps.txt"
    path.write_text("0 0 0.1 0.0 0.0 -1.0\n-1 0 0.1 0.0 0.0 -0.5\n")
    assert cli.main(["eval", "--task", "box_push_fixed", "--policy", f"maps:{path}",
                     "--episodes", "1", "--max-steps", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and err["message"].startswith(f"{path} line 2: ")


def test_maps_of_another_cloud_size_exit_2_with_a_json_record(tmp_path, capsys):
    q = np.full((500, 1), -10.0)
    q[450, 0] = -1.0
    path = write_maps(tmp_path / "maps.txt", q)
    assert cli.main(["eval", "--task", "box_push_fixed", "--policy", f"maps:{path}",
                     "--episodes", "1", "--max-steps", "1"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": "maps cover 500 points but the observed cloud has 400"}
