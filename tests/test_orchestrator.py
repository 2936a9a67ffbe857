import numpy as np
import pytest

from legpress.config import StackConfig
from legpress.geom import RigidTransform
from legpress.harness import TaskSpec, make_provider, sample_task
from legpress.orchestrator import EpisodeOptions, EpisodeTrace, GoalSchedule, run_episode


@pytest.fixture(scope="module")
def cfg():
    return StackConfig()


@pytest.fixture(scope="module")
def push_task(cfg):
    return sample_task(TaskSpec("box_push_fixed"), 0, cfg)


@pytest.fixture(scope="module")
def planning_trace(cfg, push_task):
    return run_episode(push_task, make_provider("planning"), EpisodeOptions(max_steps=1), cfg)


def test_planning_push_succeeds_in_one_action(planning_trace):
    assert planning_trace.outcome == "success"
    assert planning_trace.steps_used == 1
    assert planning_trace.final_mean_flow == pytest.approx(0.0161370, abs=1e-6)
    assert -planning_trace.rewards[-1] == pytest.approx(planning_trace.final_mean_flow,
                                                        abs=1e-9)
    assert len(planning_trace.actions) == 1


def test_trace_file_reads_back_equal(planning_trace, tmp_path):
    path = str(tmp_path / "trace.jsonl")
    planning_trace.write_jsonl(path)
    back = EpisodeTrace.read_jsonl(path)
    assert back.records == planning_trace.records
    assert back.actions == planning_trace.actions
    assert back.rewards == planning_trace.rewards
    for name in ("task", "seed", "schema", "outcome", "steps_used", "final_mean_flow",
                 "success_threshold"):
        assert getattr(back, name) == getattr(planning_trace, name), name


def test_provider_without_action_faults_and_spends_the_step(cfg, push_task):
    trace = run_episode(push_task, lambda obs: None, EpisodeOptions(), cfg)
    assert trace.outcome == "fault:no_action"
    assert trace.steps_used == 1
    assert trace.actions == []


def test_oracle_reaches_the_goal_in_one_step(cfg, push_task):
    trace = run_episode(push_task, make_provider("oracle"), EpisodeOptions(), cfg)
    assert trace.outcome == "success"
    assert trace.steps_used == 1
    assert trace.final_mean_flow < push_task.success_threshold


def test_schedule_moves_the_goal_and_decides_the_outcome(cfg, push_task):
    """The verdict runs after settling and after every action; each action
    aims at the sub-goal drawn from the object pose at that moment."""
    calls = []

    def sub_goal(obj):
        return RigidTransform(obj.pose.rotation, obj.pose.translation + np.array([0.05, 0, 0]))

    def verdict(obj, mean_flow, steps_used):
        calls.append((float(obj.pose.translation[0]), mean_flow, steps_used))
        return "done" if steps_used == 2 else None

    x0 = float(push_task.obj.pose.translation[0])
    trace = run_episode(push_task, make_provider("oracle"), EpisodeOptions(), cfg,
                        schedule=GoalSchedule(sub_goal, verdict))
    assert trace.outcome == "done"
    assert trace.steps_used == 2
    assert [c[2] for c in calls] == [0, 1, 2]
    assert calls[-1][0] - x0 == pytest.approx(0.10, abs=0.01)
    assert [-r for r in trace.rewards] == pytest.approx([c[1] for c in calls], abs=1e-9)
    assert trace.final_pose.translation[0] == calls[-1][0]
