"""Benchmark tasks, policy providers, evaluation protocols and aggregation.

Tasks mirror the evaluation suite: single-box pushes to fixed and random
goals, 90-degree flip plus push, multi-object pushes over a procedural
27-train/10-eval shape split, and the long-horizon one-meter multi-step
protocol. Success everywhere is mean goal flow under 3 cm.
"""
from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .config import StackConfig
from .geom import (PointCloud, RigidTransform, apply_transform, compose, rot_x, rot_z,
                   rotation_exp)
from .orchestrator import (
    EpisodeOptions,
    GoalSchedule,
    Observation,
    TaskInstance,
    run_episode,
)
from .policy import (
    NoPlanError,
    ObjectCentricAction,
    PlanningBaselineParams,
    flow_baseline,
    load_maps,
    planning_baseline,
    random_location_baseline,
    select_greedy,
)
from .register import EXITS, icp_register, register_with_augmentation
from .sensing import full_scan, hidden_point_removal
from .simworld import Box, Compound, ConvexMesh, Cylinder, SimObject, rest_pose_on_ground

SUMMARY_SCHEMA = "legpress-summary-v1"
TASK_NAMES = ("box_push_fixed", "box_push_random", "box_flip_push_random",
              "multiobj_push_fixed", "multiobj_push_random", "multi_step_1m")
OBJECT_START_XY = (0.34, 0.0)
YAW_JITTER = 0.1  # initial object yaw range, +-rad


# ---------------------------------------------------------------------------
# procedural object set (stand-in for the unavailable reference set)


def _l_prism(a, b, h) -> Compound:
    """a x b bar with a b x b foot on one end."""
    return Compound(((Box((a, b, h)), (0.0, 0.0, 0.0)),
                     (Box((b, b, h)), (-(a - b) / 2.0, b, 0.0))))


def _t_prism(a, b, h) -> Compound:
    """a x b bar with a centred b x 0.7a stem."""
    return Compound(((Box((a, b, h)), (0.0, 0.0, 0.0)),
                     (Box((b, a * 0.7, h)), (0.0, (b + a * 0.7) / 2.0, 0.0))))


def _box_extents(rng) -> tuple:
    """Extents of a random box: two sides in [5, 10] cm, height in [4, 8] cm."""
    return (rng.uniform(0.05, 0.10), rng.uniform(0.05, 0.10), rng.uniform(0.04, 0.08))


def _procedural_shape(index: int):
    rng = np.random.default_rng(1_000_003 + index)
    kind = index % 4
    if kind == 0:
        return Box(tuple(round(d, 4) for d in _box_extents(rng)))
    if kind == 1:
        return Cylinder(round(rng.uniform(0.025, 0.05), 4), round(rng.uniform(0.04, 0.08), 4))
    if kind == 2:
        return _l_prism(rng.uniform(0.07, 0.10), rng.uniform(0.04, 0.06), rng.uniform(0.04, 0.06))
    return _t_prism(rng.uniform(0.08, 0.10), rng.uniform(0.035, 0.05), rng.uniform(0.04, 0.06))


def object_catalog(split: str = "train") -> list:
    """27 training shapes / 10 held-out shapes, deterministic."""
    if split == "train":
        return [_procedural_shape(i) for i in range(27)]
    if split == "eval":
        return [_procedural_shape(i) for i in range(27, 37)]
    raise ValueError("split must be train or eval")


# ---------------------------------------------------------------------------
# task sampling


@dataclass
class TaskSpec:
    name: str
    success_threshold: float = 0.03
    object_split: str = "train"


def _rest_object(shape, rng, cfg: StackConfig) -> SimObject:
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    yaw = float(rng.uniform(-YAW_JITTER, YAW_JITTER))
    obj.pose = rest_pose_on_ground(shape, xy=OBJECT_START_XY, yaw=yaw,
                                   contact=cfg.contact, mass=obj.mass,
                                   gravity=cfg.sim.gravity)
    return obj


def _push_goal_pose(obj: SimObject, dxy) -> RigidTransform:
    return RigidTransform(obj.pose.rotation,
                          obj.pose.translation + np.array([dxy[0], dxy[1], 0.0]))


def _flip_goal_pose(obj: SimObject, direction: float, dxy,
                    cfg: StackConfig) -> RigidTransform:
    """90-degree flip about the forward axis (top travels toward +-y), then a
    translation; the goal pose rests on the ground."""
    R_flip = rot_x(-math.copysign(math.pi / 2.0, direction))
    R_goal = R_flip @ obj.pose.rotation
    verts = obj.shape.vertices() @ R_goal.T
    z = -float(verts[:, 2].min())
    t = obj.pose.translation + np.array([dxy[0], dxy[1], 0.0])
    return RigidTransform(R_goal, np.array([t[0], t[1], z]))


def sample_task(spec: TaskSpec, seed: int, config: StackConfig | None = None) -> TaskInstance:
    """Draw one reproducible task instance."""
    cfg = config or StackConfig()
    rng = np.random.default_rng(seed)
    name = spec.name
    if name in ("box_push_fixed", "box_push_random", "box_flip_push_random", "multi_step_1m"):
        shape = Box(_box_extents(rng))
    elif name in ("multiobj_push_fixed", "multiobj_push_random"):
        catalog = object_catalog(spec.object_split)
        shape = catalog[int(rng.integers(len(catalog)))]
    else:
        raise ValueError(f"unknown task {name!r}")
    obj = _rest_object(shape, rng, cfg)

    if name in ("box_push_fixed", "multiobj_push_fixed"):
        goal = _push_goal_pose(obj, (0.15, 0.0))
    elif name in ("box_push_random", "multiobj_push_random"):
        goal = _push_goal_pose(obj, (rng.uniform(0.10, 0.20), rng.uniform(-0.05, 0.05)))
    elif name == "box_flip_push_random":
        direction = 1.0 if rng.uniform() < 0.5 else -1.0
        goal = _flip_goal_pose(obj, direction,
                               (rng.uniform(0.10, 0.20), rng.uniform(-0.05, 0.05)), cfg)
    else:  # multi_step_1m: the protocol drives sub-goals itself
        goal = _push_goal_pose(obj, (1.0, 0.0))
    return TaskInstance(name, obj, goal, seed, spec.success_threshold)


# ---------------------------------------------------------------------------
# policy providers


class PlanningProvider:
    def __init__(self, params: PlanningBaselineParams | None = None, leg="front_left"):
        self.params = params or PlanningBaselineParams()
        self.leg = leg

    def __call__(self, obs: Observation):
        try:
            return planning_baseline(obs.cloud, obs.goal, obs.obj, self.params, self.leg)
        except NoPlanError:
            return None


class FlowProvider:
    def __init__(self, params: PlanningBaselineParams | None = None, leg="front_left"):
        self.params = params or PlanningBaselineParams()
        self.leg = leg

    def __call__(self, obs: Observation):
        try:
            return flow_baseline(obs.cloud, obs.goal, obs.obj, self.params, self.leg)
        except NoPlanError:
            return None


class RandomLocationProvider:
    def __init__(self, leg="front_left"):
        self.leg = leg

    def __call__(self, obs: Observation):
        return random_location_baseline(obs.cloud, obs.goal, obs.seed, self.leg)


class NullProvider:
    """Zero motion at index 0; the lower-bound sanity policy."""

    def __call__(self, obs: Observation):
        return ObjectCentricAction(0, np.zeros(3), "front_left")


class OracleTeleportProvider:
    """Debug upper bound: the episode moves the object straight to the goal."""

    def __call__(self, obs: Observation):
        return "oracle_teleport"


class MapReplayProvider:
    """Replays an externally produced actor/critic map file through the
    greedy selector (cloud sizes must match the recorded maps)."""

    def __init__(self, path: str):
        self.actor, self.critic = load_maps(path)

    def __call__(self, obs: Observation):
        return select_greedy(self.actor, self.critic)


def make_provider(name: str):
    if name == "planning":
        return PlanningProvider()
    if name == "flow":
        return FlowProvider()
    if name == "random":
        return RandomLocationProvider()
    if name == "null":
        return NullProvider()
    if name == "oracle":
        return OracleTeleportProvider()
    if name.startswith("maps:"):
        return MapReplayProvider(name.split(":", 1)[1])
    raise ValueError(f"unknown policy {name!r}")


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalReport:
    task: str
    policy: str
    episodes: list  # per-episode dicts
    success_rate: float
    mean_reward: float
    mean_steps: float

    def summary_rows(self):
        rows = []
        for e in self.episodes:
            rows.append([self.task, self.policy, e["seed"], e["outcome"],
                         int(e["success"]), e["steps"], repr(e["final_mean_flow"]),
                         repr(e["reward"])])
        return rows


def evaluate(policy_name: str, spec: TaskSpec, n_episodes: int, seed: int = 0,
             options: EpisodeOptions | None = None, config: StackConfig | None = None,
             out_dir: str | None = None) -> EvalReport:
    """Run seeded episodes and aggregate. Faults count as failures."""
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    options = options or EpisodeOptions()
    config = config or StackConfig()
    provider = make_provider(policy_name)
    episodes = []
    for i in range(n_episodes):
        ep_seed = seed + i
        task = sample_task(spec, ep_seed, config)
        trace = run_episode(task, provider, options, config)
        episodes.append({"seed": ep_seed, "outcome": trace.outcome,
                         "success": trace.success, "steps": trace.steps_used,
                         "final_mean_flow": trace.final_mean_flow,
                         "reward": -trace.final_mean_flow})
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            trace.write_jsonl(os.path.join(out_dir, f"trace_{spec.name}_{ep_seed}.jsonl"))
    report = EvalReport(
        spec.name, policy_name, episodes,
        success_rate=float(np.mean([e["success"] for e in episodes])),
        mean_reward=float(np.mean([e["reward"] for e in episodes])),
        mean_steps=float(np.mean([e["steps"] for e in episodes])))
    if out_dir is not None:
        write_summary_csv(report, os.path.join(out_dir, f"summary_{spec.name}.csv"))
    return report


def write_summary_csv(report: EvalReport, path: str) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"# {SUMMARY_SCHEMA}"])
    writer.writerow(["task", "policy", "seed", "outcome", "success", "steps",
                     "final_mean_flow", "reward"])
    for row in report.summary_rows():
        writer.writerow(row)
    writer.writerow(["# aggregate", report.task, report.policy,
                     repr(report.success_rate), repr(report.mean_reward),
                     repr(report.mean_steps)])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


# ---------------------------------------------------------------------------
# multi-step distant-goal protocol


@dataclass
class MultiStepResult:
    steps: int
    y_error_cm: float
    outcome: str  # success | fail_steps | fail_y | fault:*


def multi_step_protocol(policy_name: str, seed: int = 0,
                        options: EpisodeOptions | None = None,
                        config: StackConfig | None = None,
                        target_distance: float = 1.0,
                        sub_goal_distance: float = 0.10,
                        max_steps: int = 20,
                        y_limit: float = 0.20,
                        y_correction: bool = False) -> MultiStepResult:
    """Push the box one meter forward in sub-goal increments, re-observing
    and repositioning the base after every action.

    Runs on run_episode with a goal schedule: each action aims
    sub_goal_distance ahead of the object's current pose, and the verdict
    fails on exceeding the step budget or drifting laterally past the limit.
    """
    config = config or StackConfig()
    options = options or EpisodeOptions(reposition="walk")
    task = sample_task(TaskSpec("multi_step_1m"), seed, config)
    x_start = float(task.obj.pose.translation[0])
    y_start = float(task.obj.pose.translation[1])

    def y_err_cm(pose: RigidTransform) -> float:
        return abs(float(pose.translation[1]) - y_start) * 100.0

    def sub_goal(obj: SimObject) -> RigidTransform:
        dy = -float(obj.pose.translation[1] - y_start) if y_correction else 0.0
        return RigidTransform(obj.pose.rotation,
                              obj.pose.translation + np.array([sub_goal_distance, dy, 0.0]))

    def verdict(obj: SimObject, mean_flow: float, steps_used: int) -> str | None:
        if float(obj.pose.translation[0]) - x_start >= target_distance:
            return "success"
        if steps_used >= max_steps:
            return "fail_steps"
        if y_err_cm(obj.pose) > y_limit * 100.0:
            return "fail_y"
        return None

    trace = run_episode(task, make_provider(policy_name), options, config,
                        schedule=GoalSchedule(sub_goal, verdict))
    return MultiStepResult(trace.steps_used, y_err_cm(trace.final_pose), trace.outcome)


# ---------------------------------------------------------------------------
# registration benchmark suites


def _asymmetric_shape(rng):
    kind = int(rng.integers(3))
    if kind == 0:
        return _l_prism(rng.uniform(0.07, 0.11), rng.uniform(0.04, 0.06), rng.uniform(0.04, 0.06))
    if kind == 1:
        return _t_prism(rng.uniform(0.08, 0.11), rng.uniform(0.035, 0.05), rng.uniform(0.04, 0.06))
    pts = rng.uniform(-0.05, 0.05, size=(14, 3))
    return ConvexMesh(tuple(map(tuple, pts)))


def _crop_visibility(cloud: PointCloud, rng, max_keep: float = 0.7) -> PointCloud:
    """Occlude from a random viewpoint (hidden point removal), then trim down
    to at most the requested fraction of the original points."""
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    vp = cloud.centroid + d * 1.5
    vis = hidden_point_removal(cloud, vp)
    keep = vis
    limit = int(max_keep * len(cloud))
    if len(keep) > limit:
        keep = rng.choice(keep, size=limit, replace=False)
    keep = np.sort(keep)
    normals = None if cloud.normals is None else cloud.normals[keep]
    return PointCloud(cloud.points[keep], normals, cloud.frame)


@dataclass
class RegBenchResult:
    rotation_mae_deg: float
    translation_mae: float
    cases: int
    icp_exits: dict = field(default_factory=dict)  # ICP starts per exit rule, all cases


def registration_benchmark(n_cases: int = 200, seed: int = 0,
                           max_rotation_deg: float = 30.0) -> RegBenchResult:
    """Synthetic suite: partial (<=70% visibility) scans registered to full
    scans under bounded random perturbations; reports rotation/translation
    mean absolute error of the recovered transforms and how often each ICP
    start stopped on each exit rule."""
    rng = np.random.default_rng(seed)
    rot_errs, trans_errs = [], []
    exits = dict.fromkeys(EXITS, 0)
    for case in range(n_cases):
        shape = _asymmetric_shape(rng)
        obj = SimObject.from_shape(shape, RigidTransform.identity())
        obj.pose = rest_pose_on_ground(shape, yaw=float(rng.uniform(-math.pi, math.pi)))
        scan = full_scan(obj, 400, seed=int(rng.integers(2 ** 31)))
        source = _crop_visibility(scan, rng)

        angle = math.radians(rng.uniform(0.0, max_rotation_deg))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        true = RigidTransform.rotation_about(rotation_exp(axis * angle), scan.centroid)
        true = compose(RigidTransform(np.eye(3), rng.uniform(-0.05, 0.05, size=3)), true)
        target = apply_transform(true, full_scan(obj, 400, seed=int(rng.integers(2 ** 31))))

        result = register_with_augmentation(source, target, seed=int(rng.integers(2 ** 31)))
        for cand in result.candidates:
            exits[cand.exit] += 1
        est = result.transform
        err = compose(est, true.inverse())
        rot_errs.append(math.degrees(err.rotation_angle()))
        # translation error measured at the object centroid
        c = scan.centroid
        trans_errs.append(float(np.linalg.norm(est.apply(c) - true.apply(c))))
    return RegBenchResult(float(np.mean(rot_errs)), float(np.mean(trans_errs)), n_cases, exits)


@dataclass
class AmbiguityBenchResult:
    augmented_success: float
    single_shot_success: float
    trials: int


def ambiguity_benchmark(n_trials: int = 40, seed: int = 0,
                        success_rot_deg: float = 15.0) -> AmbiguityBenchResult:
    """Near-square prism with a corner stud: single-shot registration snaps to
    the wrong 90-degree minimum for large yaw offsets; the rank-sum augmented
    pipeline should recover the true pose far more often."""
    rng = np.random.default_rng(seed)
    aug_ok = single_ok = 0
    shape = Compound(((Box((0.08, 0.08, 0.05)), (0.0, 0.0, 0.0)),
                      (Box((0.02, 0.02, 0.03)), (0.03, 0.03, 0.04))))
    for _ in range(n_trials):
        obj = SimObject.from_shape(shape, RigidTransform.identity())
        obj.pose = rest_pose_on_ground(shape)
        scan = full_scan(obj, 400, seed=int(rng.integers(2 ** 31)))
        source = _crop_visibility(scan, rng)
        yaw = math.radians(rng.uniform(45.0, 135.0)) * (1 if rng.uniform() < 0.5 else -1)
        true = RigidTransform.rotation_about(rot_z(yaw), scan.centroid)
        true = compose(RigidTransform(np.eye(3), rng.uniform(-0.03, 0.03, size=3)), true)
        target = apply_transform(true, full_scan(obj, 400, seed=int(rng.integers(2 ** 31))))

        single = icp_register(source, target).transform
        aug = register_with_augmentation(source, target,
                                         seed=int(rng.integers(2 ** 31))).transform
        for est, bucket in ((single, "single"), (aug, "aug")):
            err = compose(est, true.inverse())
            ok = math.degrees(err.rotation_angle()) < success_rot_deg
            if bucket == "single":
                single_ok += ok
            else:
                aug_ok += ok
    return AmbiguityBenchResult(aug_ok / n_trials, single_ok / n_trials, n_trials)
