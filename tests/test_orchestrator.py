import math
from dataclasses import fields

import numpy as np
import pytest

from legpress import mpc, orchestrator, simworld, swingctl
from legpress.config import StackConfig
from legpress.geom import RigidTransform
from legpress.harness import TaskSpec, make_provider, sample_task
from legpress.orchestrator import EpisodeOptions, EpisodeTrace, GoalSchedule, run_episode
from legpress.geom import euler_zyx_to_matrix
from legpress.policy import NoPlanError
from legpress.simworld import standing_world
from posing import posed


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


@pytest.mark.parametrize("task_name, pose_source, shape, flow", [
    ("multiobj_push_fixed", "ground_truth", "Compound", 0.0434738),
    # the goal registered from the camera cloud pushes the box away from the
    # true goal; pinned as it stands
    ("box_push_random", "register", "Box", 0.5275872),
])
def test_short_episodes_keep_their_pinned_outcome(cfg, task_name, pose_source, shape, flow):
    task = sample_task(TaskSpec(task_name), 0, cfg)
    trace = run_episode(task, make_provider("planning"),
                        EpisodeOptions(max_steps=1, pose_source=pose_source), cfg)
    assert type(task.obj.shape).__name__ == shape
    assert (trace.outcome, trace.steps_used) == ("max_steps", 1)
    assert trace.final_mean_flow == pytest.approx(flow, abs=1e-6)


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


def test_the_trace_schema_and_the_success_threshold_are_set_once():
    """The schema is a class constant, not a field a caller could set, and
    every success threshold defaults to the one module constant."""
    assert "schema" not in {f.name for f in fields(EpisodeTrace)}
    assert EpisodeTrace("box_push_fixed", 0).schema == orchestrator.TRACE_SCHEMA
    assert orchestrator.SUCCESS_THRESHOLD == 0.03
    for default in (EpisodeTrace("box_push_fixed", 0),
                    sample_task(TaskSpec("box_push_fixed"), 0)):
        assert default.success_threshold == orchestrator.SUCCESS_THRESHOLD


def test_reach_check_is_none_in_reach_and_a_standoff_pose_out_of_it():
    world = standing_world()
    leg = world.robot.legs[simworld.FRONT_LEFT]
    near = simworld.shoulder_point(leg, world.robot.srb) + np.array([0.14, 0.02, -0.23])
    assert orchestrator.reach_check(near, world) is None
    far = np.array([1.0, 0.3, 0.04])
    standoff = orchestrator.reach_check(far, world)
    assert isinstance(standoff, orchestrator.StandoffPose)
    assert standoff.position[2] == world.config.mpc.stand_height


def _decline(obs):
    raise NoPlanError("no plan for this observation")


def test_provider_without_action_faults_and_spends_the_step(cfg, push_task):
    trace = run_episode(push_task, _decline, EpisodeOptions(), cfg)
    assert trace.outcome == "fault:no_action"
    assert trace.steps_used == 1
    assert trace.actions == []


def test_an_illegal_fsm_transition_is_a_bug_not_an_episode_fault():
    """The FSM refuses a transition outside ALLOWED_TRANSITIONS with a plain
    RuntimeError, which run_episode does not turn into an outcome."""
    core = orchestrator._OrchestratorCore(standing_world(), EpisodeOptions(),
                                          np.random.default_rng(0), EpisodeTrace("core", 0))
    with pytest.raises(RuntimeError,
                       match=r"^illegal FSM transition \('QP_STAND', 'MANIPULATION'\)$") as info:
        core.transition(orchestrator.MANIPULATION)
    assert not isinstance(info.value, orchestrator.EpisodeFault)
    assert core.state == orchestrator.QP_STAND and core.trace.records == []


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


def test_the_benchmark_seams_are_the_layer_functions():
    """The benchmark times each layer at the orchestrator's module binding,
    so each must be the layer's own function."""
    assert orchestrator.sim_step is simworld.step
    assert orchestrator.stance_torques is mpc.stance_torques
    assert orchestrator.impedance_torque_tracking is swingctl.impedance_torque_tracking


def test_teleport_replaces_the_trunk_with_one_at_rest_in_the_standoff_pose():
    """After a teleport the trunk is a new state at rest in the jittered
    standoff pose: its rotation rows are `euler_zyx_to_matrix(0, 0, yaw)` bit
    for bit, not rows integrated by earlier steps, and one step from there
    matches the same step taken on a copy of the world."""
    world = standing_world()
    world.gravity_enabled = world.ground_enabled = False
    world.robot.srb.angular_velocity = (0.4, -0.3, 0.6)
    for _ in range(50):
        simworld.step(world, np.zeros(12))
    before = world.robot.srb
    core = orchestrator._OrchestratorCore(world, EpisodeOptions(), np.random.default_rng(3),
                                          EpisodeTrace("core", 0))
    standoff = orchestrator.StandoffPose((0.1, -0.05, world.config.mpc.stand_height), 0.4)
    core.teleport_to(standoff)
    srb = world.robot.srb
    assert srb is not before
    roll, pitch, yaw = srb.rpy
    assert roll == pitch == 0.0 and abs(yaw - 0.4) <= 0.05
    assert srb.rotation_rows == tuple(map(tuple, euler_zyx_to_matrix(0.0, 0.0, yaw).tolist()))
    assert np.max(np.abs(np.subtract(srb.position, standoff.position))) <= 0.02
    assert not any(srb.linear_velocity) and not any(srb.angular_velocity)

    twin = world.copy()
    forces = [(0.0, 0.0, 2.0)] * 4
    for w in (world, twin):
        simworld.step(w, mpc.stance_torques(w.robot, forces, (True,) * 4))
    a, b = world.robot, twin.robot
    assert np.array_equal(a.srb.as_vector(), b.srb.as_vector())
    assert a.srb.rotation_rows == b.srb.rotation_rows
    assert np.array_equal(a.feet_pos, b.feet_pos) and np.array_equal(a.feet_vel, b.feet_vel)
    assert [leg.jacobian_rows for leg in a.legs] == [leg.jacobian_rows for leg in b.legs]


def _numpy_drive(srb, target_xy, yaw_target, gain, v_max):
    """drive_towards on numpy arrays: the command velocity and yaw rate."""
    v = gain * (np.asarray(target_xy) - srb.position[:2])
    n = float(np.linalg.norm(v))
    if n > v_max:
        v *= v_max / n
    if yaw_target is None:
        return v, 0.0
    err = math.atan2(math.sin(yaw_target - srb.rpy[2]), math.cos(yaw_target - srb.rpy[2]))
    return v, float(np.clip(2.0 * err, -0.6, 0.6))


def test_drive_towards_equals_the_numpy_form():
    world = standing_world()
    core = orchestrator._OrchestratorCore(world, EpisodeOptions(), np.random.default_rng(0),
                                          EpisodeTrace("core", 0))
    srb = world.robot.srb
    rng = np.random.default_rng(9)
    saturated = clipped = 0
    for _ in range(2000):
        srb.position = tuple(rng.normal(scale=0.3, size=3).tolist())
        srb = world.robot.srb = posed(srb, rng.uniform(-math.pi, math.pi, size=3))
        target = srb.position[:2] + rng.normal(scale=0.15, size=2)
        yaw_target = None if rng.uniform() < 0.3 else float(rng.uniform(-4.0, 4.0))
        gain, v_max = (1.2, 0.22) if rng.uniform() < 0.5 else (2.0, 0.08)
        core.drive_towards(target, yaw_target, gain, v_max)
        v, yaw_rate = _numpy_drive(srb, target, yaw_target, gain, v_max)
        assert np.array_equal(core.command_velocity, v)
        assert core.command_yaw_rate == yaw_rate
        saturated += float(np.linalg.norm(gain * (target - srb.position[:2]))) > v_max
        clipped += abs(yaw_rate) == 0.6
    assert saturated > 100 and clipped > 100
    # commands within a relative 1e-12 of the cap, where numpy's norm decides
    capped = 0
    for _ in range(2000):
        srb.position = tuple(rng.normal(scale=0.3, size=3).tolist())
        gain, v_max = (1.2, 0.22) if rng.uniform() < 0.5 else (2.0, 0.08)
        u = rng.normal(size=2)
        u *= v_max * (1.0 + rng.uniform(-1e-12, 1e-12)) / (gain * float(np.linalg.norm(u)))
        target = srb.position[:2] + u
        core.drive_towards(target, None, gain, v_max)
        v, _ = _numpy_drive(srb, target, None, gain, v_max)
        assert np.array_equal(core.command_velocity, v)
        capped += float(np.linalg.norm(gain * (target - srb.position[:2]))) > v_max
    assert 500 < capped < 1500


def test_nominal_com_equals_the_numpy_mean():
    """The float mean of the feet rows, of all four or of the three that a
    lifted leg leaves, is numpy's `mean(axis=0)` of those rows of the feet
    array bit for bit, and the COM shift's target built from the two is too."""
    world = standing_world()
    core = orchestrator._OrchestratorCore(world, EpisodeOptions(), np.random.default_rng(0),
                                          EpisodeTrace("core", 0))
    rng = np.random.default_rng(10)
    for _ in range(10000):
        feet = rng.normal(scale=0.3, size=(4, 3)) * 10.0 ** rng.integers(-3, 3)
        world.robot.feet_pos = tuple(map(tuple, feet.tolist()))
        com = core.feet_centroid_xy()
        mean = feet[:, :2].mean(axis=0)
        assert all(type(x) is float for x in com) and com == tuple(mean.tolist())
        lifted = int(rng.integers(4))
        tri = core.feet_centroid_xy(lifted)
        support = np.array(world.robot.feet_pos)[[i for i in range(4) if i != lifted], :2]
        assert tri == tuple(support.mean(axis=0).tolist())
        target = [c + 0.7 * (t - c) for c, t in zip(com, tri)]
        assert np.array_equal(target, com + 0.7 * (support.mean(axis=0) - com))


@pytest.mark.parametrize("field, value", [("reposition", "teleprot"),
                                          ("pose_source", "ground-truth")])
def test_episode_options_reject_an_unknown_mode(field, value):
    with pytest.raises(ValueError, match=f"{field} must be .* got {value!r}"):
        EpisodeOptions(**{field: value})
