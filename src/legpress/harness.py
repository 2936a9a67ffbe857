"""Benchmark tasks, named policies, evaluation protocols and aggregation.

Tasks mirror the evaluation suite: single-box pushes to fixed and random
goals, 90-degree flip plus push, multi-object pushes over a procedural
27-train/10-eval shape split, and the long-horizon one-meter multi-step
protocol. Success everywhere is mean goal flow under 3 cm. A policy is a
plain function of the observation (see `make_provider`); the action it
returns carries the manipulation leg, which is front-left for every
baseline.
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
SUB_GOAL_DISTANCE = 0.10  # m, how far ahead of the object each multi-step action aims
MULTI_STEP_MAX_STEPS = 20
Y_LIMIT = 0.20  # m, lateral drift that fails a multi-step run
REG_MAX_ROTATION_DEG = 30.0  # registration suite: largest perturbation angle
AMBIGUITY_SUCCESS_ROT_DEG = 15.0  # ambiguity suite: largest rotation error of a success
MAX_VISIBLE = 0.7  # registration suites: largest share of a scan left in a partial view


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
# policies


def _or_none(baseline, obs: Observation):
    """The baseline's action, or None when the planner finds no face."""
    try:
        return baseline(obs.cloud, obs.goal, obs.obj)
    except NoPlanError:
        return None


def make_provider(name: str):
    """The policy called `name`, as a function of an Observation. It returns
    an ObjectCentricAction, which carries its leg; "oracle_teleport"; or
    None when it has no plan. The baselines use the front-left leg.

      planning     planning_baseline; None when it finds no face to push
      flow         flow_baseline: the planner's contact, the goal flow there
      random       random_location_baseline, seeded by the observation
      null         zero motion at point 0; the lower-bound sanity policy
      oracle       "oracle_teleport": the episode moves the object straight
                   to the goal (a debug upper bound)
      maps:<path>  greedy selection over the actor/critic maps in the file;
                   a ValueError when the observed cloud's size differs from
                   the maps' point count
    """
    # the baselines are looked up when called, so a wrapped module global is used
    if name == "planning":
        return lambda obs: _or_none(planning_baseline, obs)
    if name == "flow":
        return lambda obs: _or_none(flow_baseline, obs)
    if name == "random":
        return lambda obs: random_location_baseline(obs.cloud, obs.goal, obs.seed)
    if name == "null":
        return lambda obs: ObjectCentricAction(0, np.zeros(3), "front_left")
    if name == "oracle":
        return lambda obs: "oracle_teleport"
    if name.startswith("maps:"):
        actor, critic = load_maps(name.split(":", 1)[1])
        n_points = len(critic.q_values)

        def replay(obs: Observation) -> ObjectCentricAction:
            if len(obs.cloud) != n_points:
                raise ValueError(f"maps cover {n_points} points but the observed cloud "
                                 f"has {len(obs.cloud)}")
            return select_greedy(actor, critic)
        return replay
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
    policy = make_provider(policy_name)
    episodes = []
    for i in range(n_episodes):
        ep_seed = seed + i
        task = sample_task(spec, ep_seed, config)
        trace = run_episode(task, policy, options, config)
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
                        y_correction: bool = False) -> MultiStepResult:
    """Push the box one meter forward in sub-goal increments, re-observing
    and repositioning the base after every action.

    Runs on run_episode with a goal schedule: each action aims
    SUB_GOAL_DISTANCE ahead of the object's current pose, and the verdict
    fails on exceeding MULTI_STEP_MAX_STEPS actions or drifting laterally
    past Y_LIMIT.
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
                              obj.pose.translation + np.array([SUB_GOAL_DISTANCE, dy, 0.0]))

    def verdict(obj: SimObject, mean_flow: float, steps_used: int) -> str | None:
        if float(obj.pose.translation[0]) - x_start >= target_distance:
            return "success"
        if steps_used >= MULTI_STEP_MAX_STEPS:
            return "fail_steps"
        if y_err_cm(obj.pose) > Y_LIMIT * 100.0:
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


def _scan(shape, pose: RigidTransform, rng) -> PointCloud:
    """A 400-point full scan of the shape at the pose, seeded from rng."""
    return full_scan(shape, pose, 400, seed=int(rng.integers(2 ** 31)))


def _crop_visibility(cloud: PointCloud, rng) -> PointCloud:
    """Occlude a full scan from a random viewpoint (hidden point removal),
    then trim it down to at most MAX_VISIBLE of its points, normals kept."""
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    vp = cloud.centroid + d * 1.5
    keep = hidden_point_removal(cloud, vp)
    limit = int(MAX_VISIBLE * len(cloud))
    if len(keep) > limit:
        keep = rng.choice(keep, size=limit, replace=False)
    keep = np.sort(keep)
    return PointCloud(cloud.points[keep], cloud.normals[keep])


@dataclass
class RegBenchResult:
    rotation_mae_deg: float
    translation_mae: float
    cases: int
    icp_exits: dict = field(default_factory=dict)  # ICP starts per exit rule, all cases
    icp_iterations: int = 0  # ICP iterations of all starts, all cases


def registration_benchmark(n_cases: int = 200, seed: int = 0) -> RegBenchResult:
    """Synthetic suite: partial (<=70% visibility) scans registered to full
    scans under bounded random perturbations; reports rotation/translation
    mean absolute error of the recovered transforms, how often each ICP
    start stopped on each exit rule and how many iterations the starts ran."""
    if n_cases < 1:
        raise ValueError("need at least one registration case")
    rng = np.random.default_rng(seed)
    rot_errs, trans_errs = [], []
    exits = dict.fromkeys(EXITS, 0)
    iterations = 0
    for case in range(n_cases):
        shape = _asymmetric_shape(rng)
        pose = rest_pose_on_ground(shape, yaw=float(rng.uniform(-math.pi, math.pi)))
        scan = _scan(shape, pose, rng)
        source = _crop_visibility(scan, rng)

        angle = math.radians(rng.uniform(0.0, REG_MAX_ROTATION_DEG))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        true = RigidTransform.rotation_about(rotation_exp(axis * angle), scan.centroid)
        true = compose(RigidTransform(np.eye(3), rng.uniform(-0.05, 0.05, size=3)), true)
        target = apply_transform(true, _scan(shape, pose, rng))

        result = register_with_augmentation(source, target, seed=int(rng.integers(2 ** 31)))
        for cand in result.candidates:
            exits[cand.exit] += 1
            iterations += cand.iterations
        est = result.transform
        err = compose(est, true.inverse())
        rot_errs.append(math.degrees(err.rotation_angle()))
        # translation error measured at the object centroid
        c = scan.centroid
        trans_errs.append(float(np.linalg.norm(est.apply(c) - true.apply(c))))
    return RegBenchResult(float(np.mean(rot_errs)), float(np.mean(trans_errs)), n_cases, exits,
                          iterations)


@dataclass
class AmbiguityBenchResult:
    augmented_success: float
    single_shot_success: float
    trials: int


def ambiguity_benchmark(n_trials: int = 40, seed: int = 0) -> AmbiguityBenchResult:
    """Near-square prism with a corner stud: single-shot registration snaps to
    the wrong 90-degree minimum for large yaw offsets; the rank-sum augmented
    pipeline should recover the true pose far more often."""
    if n_trials < 1:
        raise ValueError("need at least one ambiguity trial")
    rng = np.random.default_rng(seed)
    aug_ok = single_ok = 0

    def ok(est: RigidTransform, true: RigidTransform) -> bool:
        err = compose(est, true.inverse())
        return math.degrees(err.rotation_angle()) < AMBIGUITY_SUCCESS_ROT_DEG

    shape = Compound(((Box((0.08, 0.08, 0.05)), (0.0, 0.0, 0.0)),
                      (Box((0.02, 0.02, 0.03)), (0.03, 0.03, 0.04))))
    pose = rest_pose_on_ground(shape)
    for _ in range(n_trials):
        scan = _scan(shape, pose, rng)
        source = _crop_visibility(scan, rng)
        yaw = math.radians(rng.uniform(45.0, 135.0)) * (1 if rng.uniform() < 0.5 else -1)
        true = RigidTransform.rotation_about(rot_z(yaw), scan.centroid)
        true = compose(RigidTransform(np.eye(3), rng.uniform(-0.03, 0.03, size=3)), true)
        target = apply_transform(true, _scan(shape, pose, rng))

        single_ok += ok(icp_register(source, target).transform, true)
        aug_ok += ok(register_with_augmentation(source, target,
                                                seed=int(rng.integers(2 ** 31))).transform, true)
    return AmbiguityBenchResult(aug_ok / n_trials, single_ok / n_trials, n_trials)
