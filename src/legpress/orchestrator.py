"""Loco-manipulation state machine and episode runner.

The controller alternates between posture states around each object
interaction: stand and observe, shift the COM into the three-foot support
triangle, execute the swing plan with the manipulation leg under impedance
while the stance legs run force MPC, lower the leg and recover, and walk
(or, in simulation-protocol mode, teleport) whenever the object leaves the
manipulation workspace.

The policy is a function of the Observation; the action it returns names
the manipulation leg, and `NoPlanError` from it spends the step and ends the
episode on `fault:no_action`. The reach check uses the front-left leg.

A goal schedule decides where each action aims and when the episode ends.
The default schedule is one fixed goal: success once the mean goal flow is
under the threshold, otherwise the action budget. Distant goals use moving
sub-goals and their own verdict on the same loop. Controller faults end any
episode with a fault outcome; an illegal FSM transition is a bug and raises.

Teleporting re-seats the feet under the shoulders through
`simworld.seat_feet`, the same placement `standing_world` starts from. The
episode trace has one store, `records`: its actions are read from it, and
`rewards` lists the reward of each check. A tick's `srb` is the MPC's
13-value state: the trunk's 12 and the configured gravity.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar

import numpy as np

from .config import StackConfig
from .geom import PointCloud, RigidTransform, compose, mean_distance, rot_z, threshold_norm
from .mpc import ForceMpc, GaitSchedule, raibert_foothold, stance_torques
from .policy import NoPlanError, ObjectCentricAction, Observation
from .register import register_with_augmentation
from .sensing import EmptyObservationError, full_scan, render_object_cloud
from .simworld import (
    FRONT_LEFT,
    LEG_NAMES,
    SimObject,
    SimulationDivergence,
    WorldState,
    seat_feet,
    shoulder_point,
    standing_world,
    step as sim_step,
)
from .swingctl import (
    SwingExecutor,
    UnreachableActionError,
    impedance_torque_tracking,
    is_reachable,
    plan_swing,
)

TRACE_SCHEMA = "legpress-trace-v1"
SUCCESS_THRESHOLD = 0.03  # m of mean goal flow; every task's threshold
# the header keys a trace file must have; success_threshold may be absent
TRACE_HEADER_KEYS = ("schema", "task", "seed", "outcome", "steps_used", "final_mean_flow")
METRIC_POINTS = 400  # object surface samples behind the goal-flow metric
SETTLE_TIME = 0.3  # s simulated after each placement, before the next check
_ZERO_FORCES = ((0.0, 0.0, 0.0),) * 4  # force rows before the first MPC solve

QP_STAND = "QP_STAND"
COM_SHIFT = "COM_SHIFT"
MANIPULATION = "MANIPULATION"
POST_ACT_COM_SHIFT = "POST_ACT_COM_SHIFT"
WALKING = "WALKING"

ALLOWED_TRANSITIONS = {
    (QP_STAND, COM_SHIFT),
    (QP_STAND, WALKING),
    (COM_SHIFT, MANIPULATION),
    (MANIPULATION, POST_ACT_COM_SHIFT),
    (POST_ACT_COM_SHIFT, QP_STAND),
    (WALKING, QP_STAND),
}


@dataclass
class StandoffPose:
    position: tuple  # base target, world, as three floats
    yaw: float


def reach_check(object_centroid, world: WorldState) -> StandoffPose | None:
    """None when the centroid passes the front-left leg's swing workspace
    test from the current base pose; otherwise the standoff pose that puts
    the object the configured standoff distance ahead of that leg's
    shoulder."""
    leg = world.robot.legs[FRONT_LEFT]
    centroid = np.asarray(object_centroid, dtype=float)
    # contact heights live near the ground
    probe = (centroid[0], centroid[1], max(min(centroid[2], 0.12), 0.02))
    if is_reachable(probe, leg, world.robot.srb):
        return None
    yaw = world.robot.srb.rpy[2]
    d = world.config.orchestrator.standoff_distance
    base = centroid - rot_z(yaw) @ (np.array(leg.shoulder) + np.array([d, 0.0, 0.0]))
    return StandoffPose((float(base[0]), float(base[1]), world.config.mpc.stand_height), yaw)


@dataclass
class TaskInstance:
    name: str
    obj: SimObject
    goal_pose: RigidTransform  # absolute world pose of the object at the goal
    seed: int
    success_threshold: ClassVar[float] = SUCCESS_THRESHOLD  # the same for every task


@dataclass
class EpisodeOptions:
    max_steps: int = 7
    reposition: str = "teleport"  # teleport | walk (teleport mirrors the sim protocol)
    pose_source: str = "ground_truth"  # ground_truth | register

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")
        if self.reposition not in ("teleport", "walk"):
            raise ValueError(f"reposition must be 'teleport' or 'walk', got {self.reposition!r}")
        if self.pose_source not in ("ground_truth", "register"):
            raise ValueError("pose_source must be 'ground_truth' or 'register', "
                             f"got {self.pose_source!r}")


@dataclass
class GoalSchedule:
    """Where each action aims and when the episode ends.

    sub_goal(obj) is the world pose the next action should bring the object
    to. verdict(obj, mean_flow, steps_used) runs once after settling and once
    after every action; it returns the outcome, or None to keep going. The
    verdict owns the action budget."""
    sub_goal: Callable[[SimObject], RigidTransform]
    verdict: Callable[[SimObject, float, int], str | None]

    @staticmethod
    def single_goal(task: TaskInstance, max_steps: int) -> "GoalSchedule":
        def verdict(obj, mean_flow, steps_used):
            if mean_flow < task.success_threshold:
                return "success"
            return "max_steps" if steps_used >= max_steps else None
        return GoalSchedule(lambda obj: task.goal_pose, verdict)


@dataclass
class EpisodeTrace:
    """One episode's record. `records` is the trace: transitions, ticks,
    actions and checks in time order. `rewards` holds each check's reward."""
    schema: ClassVar[str] = TRACE_SCHEMA
    task: str
    seed: int
    records: list = field(default_factory=list)
    rewards: list = field(default_factory=list)
    outcome: str = "incomplete"
    steps_used: int = 0
    final_mean_flow: float = float("nan")
    # the task's threshold; files written before it was stored read as the default
    success_threshold: float = SUCCESS_THRESHOLD
    final_pose: RigidTransform | None = None  # object pose at the end; not in the file

    @property
    def success(self) -> bool:
        return self.outcome == "success"

    @property
    def actions(self) -> list:
        return [rec for rec in self.records if rec["type"] == "action"]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"schema": self.schema, "task": self.task,
                                 "seed": self.seed, "outcome": self.outcome,
                                 "steps_used": self.steps_used,
                                 "final_mean_flow": self.final_mean_flow,
                                 "success_threshold": self.success_threshold},
                                sort_keys=True) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    @staticmethod
    def read_jsonl(path: str) -> "EpisodeTrace":
        """The trace in a file that write_jsonl wrote. Raises ValueError when
        the first line is not a TRACE_SCHEMA header with TRACE_HEADER_KEYS,
        or a later line is not a record with a type (and a check without
        its reward)."""
        with open(path) as fh:
            head = json.loads(fh.readline())
            if not (isinstance(head, dict) and all(k in head for k in TRACE_HEADER_KEYS)):
                raise ValueError(f"{path}: the first line is not a trace header with the keys "
                                 f"{', '.join(TRACE_HEADER_KEYS)}")
            if head["schema"] != TRACE_SCHEMA:
                raise ValueError(f"{path}: trace schema {head['schema']!r}, "
                                 f"expected {TRACE_SCHEMA!r}")
            trace = EpisodeTrace(head["task"], head["seed"])
            trace.outcome = head["outcome"]
            trace.steps_used = head["steps_used"]
            trace.final_mean_flow = head["final_mean_flow"]
            trace.success_threshold = head.get("success_threshold", trace.success_threshold)
            for number, line in enumerate(fh, 2):
                rec = json.loads(line)
                if not (isinstance(rec, dict) and "type" in rec
                        and (rec["type"] != "check" or "reward" in rec)):
                    raise ValueError(f"{path} line {number}: not a trace record with a type "
                                     f"(and a reward on a check)")
                trace.records.append(rec)
                if rec["type"] == "check":
                    trace.rewards.append(rec["reward"])
        return trace


class EpisodeFault(RuntimeError):
    pass


class _OrchestratorCore:
    """Owns the controllers and the trace, and advances the world one sim
    step at a time."""

    def __init__(self, world: WorldState, options: EpisodeOptions, rng, trace: EpisodeTrace):
        self.world = world
        self.cfg = world.config
        self.options = options
        self.rng = rng
        self.mpc = ForceMpc(self.cfg)
        self.state = QP_STAND
        self.state_entry_time = world.time
        self.gait = GaitSchedule.stand()
        self.forces = _ZERO_FORCES  # the last MPC solve's force rows
        self.step_count = 0
        self.command_velocity = (0.0, 0.0)  # world frame
        self.command_yaw_rate = 0.0
        self.executor: SwingExecutor | None = None
        self.trace = trace
        self._swing_marks: dict = {}

    # -- state machine plumbing ------------------------------------------

    def transition(self, new_state: str) -> None:
        if new_state == self.state:
            return
        pair = (self.state, new_state)
        if pair not in ALLOWED_TRANSITIONS:  # a bug in the caller, not an outcome
            raise RuntimeError(f"illegal FSM transition {pair}")
        self.trace.records.append({"type": "transition", "t": round(self.world.time, 6),
                                   "from": self.state, "to": new_state})
        self.state = new_state
        self.state_entry_time = self.world.time

    def time_in_state(self) -> float:
        return self.world.time - self.state_entry_time

    # -- posture helpers ----------------------------------------------------

    def feet_centroid_xy(self, lifted: int | None = None) -> tuple:
        """Mean xy of the feet other than `lifted` as a float pair, added in
        row order as numpy's `mean(axis=0)` adds the rows."""
        rows = [p for i, p in enumerate(self.world.robot.feet_pos) if i != lifted]
        x, y, _ = rows[0]
        for px, py, _ in rows[1:]:
            x, y = x + px, y + py
        return x / len(rows), y / len(rows)

    def drive_towards(self, target_xy, yaw_target, gain, v_max):
        """Command gain times the position error, capped at v_max, and twice
        the yaw error, capped at 0.6 rad/s (on floats; the cap compares and
        scales as numpy's norm does, see `geom.threshold_norm`)."""
        srb = self.world.robot.srb
        tx, ty = map(float, target_xy)
        px, py, _ = srb.position
        vx, vy = gain * (tx - px), gain * (ty - py)
        if threshold_norm((vx, vy), v_max) > v_max:
            s = v_max / float(np.linalg.norm([vx, vy]))
            vx, vy = vx * s, vy * s
        self.command_velocity = (vx, vy)
        if yaw_target is not None:
            err = _yaw_error(yaw_target, srb.rpy[2])
            self.command_yaw_rate = min(0.6, max(-0.6, 2.0 * err))
        else:
            self.command_yaw_rate = 0.0

    def hold_station(self):
        self.command_velocity = (0.0, 0.0)
        self.command_yaw_rate = 0.0

    def nominal_foothold(self, leg_index: int) -> tuple:
        """The ground point under the leg's shoulder, as three floats."""
        leg = self.world.robot.legs[leg_index]
        p = shoulder_point(leg, self.world.robot.srb)
        return float(p[0]), float(p[1]), self.cfg.robot.foot_radius

    # -- low-level tick ----------------------------------------------------

    def control_step(self) -> None:
        world = self.world
        robot = world.robot
        srb = robot.srb
        if self.step_count % self.cfg.mpc.force_update_period == 0:
            yaw = srb.rpy[2]
            v_robot = rot_z(yaw).T @ np.array([*self.command_velocity, 0.0])
            command = (self.command_yaw_rate, v_robot[0], v_robot[1],
                       self.cfg.mpc.stand_height)
            res = self.mpc.step(srb, command, robot.feet_pos, self.gait, world.time)
            if res.fault:
                raise EpisodeFault("mpc_solver_fault")
            self.forces = res.forces.tolist()
            self.trace.records.append({
                "type": "tick", "t": round(world.time, 6), "fsm": self.state,
                "srb": [round(float(v), 6) for v in (*srb.as_vector(), self.cfg.sim.gravity)],
                "objects": [_pose_record(o) for o in world.objects],
            })
        stance = self.gait.stance(world.time)
        tau = stance_torques(robot, self.forces, stance)
        dt = self.cfg.sim.dt
        for i in range(4):
            if stance[i]:
                continue
            p_des, v_des = self._swing_target(i, dt)
            cmd = impedance_torque_tracking(
                robot.legs[i], srb, robot.feet_pos[i], robot.feet_vel[i], p_des, v_des,
                self.cfg.swing.kp, self.cfg.swing.kd)
            tau[3 * i], tau[3 * i + 1], tau[3 * i + 2] = cmd.torques

        try:
            sim_step(world, tau)
        except SimulationDivergence as e:
            raise EpisodeFault(f"simulation_divergence ({e})") from e
        self.step_count += 1

    def run_for(self, duration: float) -> None:
        t_end = self.world.time + duration
        while self.world.time < t_end:
            self.control_step()

    def _swing_target(self, leg_index: int, dt: float):
        """Desired foot point and velocity of a swing leg, as float lists."""
        # in MANIPULATION the action's leg is the only one in swing
        if self.state == MANIPULATION:
            return self.executor.tick(self.world.robot.feet_pos[leg_index], dt)
        if self.state == WALKING:
            return self._trot_swing_target(leg_index)
        # POST_ACT and any residual case: settle onto the nominal foothold
        return self.nominal_foothold(leg_index), [0.0, 0.0, 0.0]

    def _trot_swing_target(self, leg_index: int):
        gait = self.gait
        t = self.world.time
        phase = gait.swing_phase(t, leg_index)
        leg = self.world.robot.legs[leg_index]
        v_cmd = np.array([*self.command_velocity, 0.0])
        target = raibert_foothold(leg, v_cmd, gait, self.world.robot.srb, self.cfg.gait)
        mark = self._swing_marks.get(leg_index)
        if mark is None or t - mark[0] > gait.period * (1.0 - gait.duty):
            mark = (t, np.array(self.world.robot.feet_pos[leg_index]))
            self._swing_marks[leg_index] = mark
        start = mark[1]
        pos = start + phase * (target - start)
        pos[2] = self.cfg.robot.foot_radius + 0.04 * math.sin(math.pi * min(phase, 1.0))
        return pos.tolist(), [0.0, 0.0, 0.0]

    # -- repositioning -------------------------------------------------------

    def reposition(self, standoff: StandoffPose) -> bool:
        """Teleport or walk the base onto the standoff pose, as the options
        say; False when the walk times out."""
        if self.options.reposition == "teleport":
            self.teleport_to(standoff)
            self.run_for(SETTLE_TIME)
            return True
        self.transition(WALKING)
        return self.walk_to(standoff)

    def teleport_to(self, standoff: StandoffPose) -> None:
        """Simulation-protocol reset of the base onto the standoff pose with
        a small pose perturbation: a new trunk state at rest in that pose,
        feet re-seated under the shoulders."""
        world = self.world
        jx, jy = self.rng.uniform(-0.02, 0.02, size=2)
        jitter_yaw = self.rng.uniform(-0.05, 0.05)
        x, y, z = standoff.position
        world.robot.srb = replace(
            world.robot.srb, rpy=(0.0, 0.0, standoff.yaw + jitter_yaw),
            position=(x + jx, y + jy, z),
            angular_velocity=(0.0, 0.0, 0.0), linear_velocity=(0.0, 0.0, 0.0))
        seat_feet(world)
        self.forces = _ZERO_FORCES
        self.step_count = 0

    def walk_to(self, standoff: StandoffPose) -> bool:
        """Trot toward the standoff pose; assumes the FSM is in WALKING.
        Ends back in QP_STAND; returns arrival success."""
        cfg = self.cfg
        self.gait = GaitSchedule.trot(cfg.gait.trot_period, cfg.gait.trot_duty)
        self._swing_marks.clear()
        arrived = False
        sx, sy, _ = standoff.position
        while self.time_in_state() < cfg.orchestrator.timeout_walking:
            self.drive_towards(standoff.position[:2], standoff.yaw, gain=1.2, v_max=0.22)
            self.control_step()
            px, py, _ = self.world.robot.srb.position
            pos_err = threshold_norm((px - sx, py - sy), 0.03)
            yaw_err = abs(_yaw_error(standoff.yaw, self.world.robot.srb.rpy[2]))
            if pos_err < 0.03 and yaw_err < 0.1:
                arrived = True
                break
        self.gait = GaitSchedule.stand()
        self.hold_station()
        self.transition(QP_STAND)
        self.run_for(SETTLE_TIME)
        return arrived


def _yaw_error(target: float, yaw: float) -> float:
    """target - yaw, wrapped to [-pi, pi]."""
    d = target - yaw
    return math.atan2(math.sin(d), math.cos(d))


def _pose_record(obj: SimObject):
    return {"t": [round(float(v), 6) for v in obj.pose.translation],
            "R": [round(float(v), 9) for v in obj.pose.rotation.reshape(-1)]}


def estimate_relative_goal(core: _OrchestratorCore, goal_pose: RigidTransform,
                           observed: PointCloud, seed: int) -> RigidTransform:
    """Transform from the current object pose to the goal pose."""
    obj = core.world.objects[0]
    if core.options.pose_source == "register":
        target = full_scan(obj.shape, goal_pose, max(len(observed), 400), seed + 17)
        result = register_with_augmentation(observed, target, seed=seed + 31)
        return result.transform
    return compose(goal_pose, obj.pose.inverse())


def run_episode(task: TaskInstance, policy, options: EpisodeOptions | None = None,
                config: StackConfig | None = None,
                schedule: GoalSchedule | None = None) -> EpisodeTrace:
    """Closed-loop episode: observe, act through the FSM, repeat until the
    schedule's verdict ends it (by default: goal flow under the threshold, or
    the action budget spent). `policy(obs)` returns an ObjectCentricAction,
    whose leg executes it, or "oracle_teleport", or raises NoPlanError.
    `options.max_steps` bounds only the default schedule; a given schedule's
    verdict owns its budget.

    Faults (timeouts, divergence, empty observations, no plan) end the
    episode with a fault outcome; they never raise out of the harness.
    """
    options = options or EpisodeOptions()
    config = config or StackConfig()
    schedule = schedule or GoalSchedule.single_goal(task, options.max_steps)
    seed = task.seed
    rng = np.random.default_rng(seed)

    world = standing_world(config, objects=[task.obj.copy()])
    obj = world.objects[0]
    trace = EpisodeTrace(task.name, seed)
    core = _OrchestratorCore(world, options, rng, trace)

    metric_rng = np.random.default_rng(seed ^ 0x5EED)
    local_pts, _ = obj.shape.sample_surface(metric_rng, METRIC_POINTS)

    def goal_flow() -> float:  # the metric: mean distance of the samples to their goal points
        return mean_distance(task.goal_pose.apply(local_pts), obj.pose.apply(local_pts))

    def check_success() -> float:
        mean = goal_flow()
        trace.records.append({"type": "check", "t": round(world.time, 6),
                              "mean_flow": round(mean, 9), "reward": round(-mean, 9)})
        trace.rewards.append(round(-mean, 9))
        return mean

    def finish(outcome: str, mean: float | None = None) -> EpisodeTrace:
        trace.outcome = outcome
        trace.final_mean_flow = mean if mean is not None else goal_flow()
        trace.final_pose = obj.pose
        return trace

    standoff = reach_check(obj.pose.translation, world)
    if standoff is not None:
        core.teleport_to(standoff)  # initial placement mirrors the eval protocol

    try:
        core.run_for(SETTLE_TIME)
        mean = check_success()
        outcome = schedule.verdict(obj, mean, trace.steps_used)
        while outcome is None:
            reach = reach_check(obj.pose.translation, world)
            if reach is not None:
                if not core.reposition(reach):
                    return finish("fault:walking_timeout", check_success())
                continue  # re-run the reach check from the new base

            obs_seed = int(rng.integers(2 ** 31))
            try:
                observed = render_object_cloud(world, obs_seed)
            except EmptyObservationError:
                return finish("fault:empty_observation", check_success())

            goal_pose = schedule.sub_goal(obj)
            rel = estimate_relative_goal(core, goal_pose, observed, obs_seed)
            obs = Observation(observed, rel, obj, int(rng.integers(2 ** 31)))
            trace.steps_used += 1
            try:
                action = policy(obs)
            except NoPlanError:
                return finish("fault:no_action", check_success())
            if isinstance(action, str) and action == "oracle_teleport":
                obj.pose = goal_pose  # debug upper bound
                obj.linear_velocity = obj.angular_velocity = (0.0, 0.0, 0.0)
            else:
                rec = {"type": "action", "t": round(world.time, 6), "step": trace.steps_used,
                       "contact_index": int(action.contact_index),
                       "motion": [round(float(v), 6) for v in action.motion_params],
                       "leg": action.leg}
                trace.records.append(rec)
                _execute_action(core, observed, action)

            mean = check_success()
            outcome = schedule.verdict(obj, mean, trace.steps_used)
        return finish(outcome, mean)
    except EpisodeFault as e:
        return finish(f"fault:{e}")


def _execute_action(core: _OrchestratorCore, observed: PointCloud,
                    action: ObjectCentricAction) -> None:
    """COM shift, swing execution and recovery for one action.

    An unreachable contact skips the physical attempt (the main loop's reach
    check then repositions the base); hard failures raise EpisodeFault."""
    world, config = core.world, core.cfg
    ocfg = config.orchestrator
    leg_index = LEG_NAMES.index(action.leg)
    contact = observed.points[action.contact_index]
    motion = action.motion_params.copy()
    max_norm = config.swing.max_motion_norm
    n = float(np.linalg.norm(motion))
    if n > max_norm:
        motion *= max_norm / n

    leg = world.robot.legs[leg_index]
    try:
        plan = plan_swing(contact, motion, leg, world.robot.srb, config.swing,
                          world.robot.feet_pos[leg_index])
    except UnreachableActionError:
        return

    # COM shift into the remaining support triangle
    core.transition(COM_SHIFT)
    com0 = core.feet_centroid_xy()
    tri = core.feet_centroid_xy(leg_index)
    com_target = [c + ocfg.com_shift_factor * (t - c) for c, t in zip(com0, tri)]
    while core.time_in_state() < ocfg.com_shift_duration:
        core.drive_towards(com_target, None, gain=2.0, v_max=0.08)
        core.control_step()

    # lift the leg and run the swing plan
    core.gait = GaitSchedule.stand(lifted=(leg_index,))
    core.executor = SwingExecutor(plan, config.swing)
    core.transition(MANIPULATION)
    while not core.executor.done:
        core.drive_towards(com_target, None, gain=2.0, v_max=0.08)
        core.control_step()
        if core.time_in_state() > ocfg.timeout_manipulation:
            raise EpisodeFault("manipulation_timeout")
    core.executor = None

    # lower the leg and restore the stance
    core.transition(POST_ACT_COM_SHIFT)
    nominal = core.nominal_foothold(leg_index)
    while core.time_in_state() < 2.0 * ocfg.com_shift_duration:
        core.drive_towards(core.feet_centroid_xy(), None, gain=2.0, v_max=0.08)
        core.control_step()
        if core.time_in_state() > 0.3 and threshold_norm(
                [a - b for a, b in zip(world.robot.feet_pos[leg_index], nominal)],
                0.02) < 0.02:
            break
    core.gait = GaitSchedule.stand()
    core.hold_station()
    core.transition(QP_STAND)
    core.run_for(SETTLE_TIME)
