"""Benchmark tasks, named policies, evaluation protocols and aggregation.

Tasks mirror the evaluation suite: single-box pushes to fixed and random
goals, 90-degree flip plus push, multi-object pushes over a procedural
27-train/10-eval shape split, and the long-horizon one-meter multi-step
protocol. Success everywhere is mean goal flow under 3 cm, the threshold
of every task instance. A policy is a function of the Observation
(see `make_provider`); the action it returns carries the manipulation leg,
which is front-left for every baseline.

Independent, seeded work runs on every usable core through `map_shares`:
share 0 in the calling process, the other shares in forked children, and
the results interleaved back into item order. The registration suites split
their cases by residue (case % shares): every process replays the suite's
one seeded stream and registers only its own cases, and the caller reduces
the per-case rows in case order, so each result equals the one-process
result bit for bit. `legpress sweep --jobs N` splits its episodes the same
way; a forked child keeps the caller's BLAS threads, so its table is the
serial one under any thread setting.
"""
from __future__ import annotations

import csv
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import StackConfig
from .geom import (PointCloud, RigidTransform, apply_transform, compose, rot_x, rot_z,
                   rotation_exp)
from .orchestrator import EpisodeOptions, GoalSchedule, TaskInstance, run_episode
from .policy import (
    ObjectCentricAction,
    Observation,
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
    object_split: str = "train"


def _rest_object(shape, rng, cfg: StackConfig) -> SimObject:
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    yaw = float(rng.uniform(-YAW_JITTER, YAW_JITTER))
    obj.pose = rest_pose_on_ground(shape, xy=OBJECT_START_XY, yaw=yaw, config=cfg,
                                   mass=obj.mass)
    return obj


def _push_goal_pose(obj: SimObject, dxy) -> RigidTransform:
    return RigidTransform(obj.pose.rotation,
                          obj.pose.translation + np.array([dxy[0], dxy[1], 0.0]))


def _flip_goal_pose(obj: SimObject, direction: float, dxy) -> RigidTransform:
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
                               (rng.uniform(0.10, 0.20), rng.uniform(-0.05, 0.05)))
    else:  # multi_step_1m: the protocol drives sub-goals itself
        goal = _push_goal_pose(obj, (1.0, 0.0))
    return TaskInstance(name, obj, goal, seed)


# ---------------------------------------------------------------------------
# policies


def make_provider(name: str):
    """The policy called `name`, as a function of an Observation. It returns
    an ObjectCentricAction, which carries its leg, or "oracle_teleport", and
    raises NoPlanError when it has no plan. The baselines use the front-left
    leg.

      planning     planning_baseline; NoPlanError when it finds no face to push
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
        return lambda obs: planning_baseline(obs)
    if name == "flow":
        return lambda obs: flow_baseline(obs)
    if name == "random":
        return lambda obs: random_location_baseline(obs)
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
    episodes: list  # dicts of seed, outcome, steps and final_mean_flow

    @property
    def success_rate(self) -> float:
        return float(np.mean([e["outcome"] == "success" for e in self.episodes]))

    @property
    def mean_reward(self) -> float:
        return float(np.mean([-e["final_mean_flow"] for e in self.episodes]))

    @property
    def mean_steps(self) -> float:
        return float(np.mean([e["steps"] for e in self.episodes]))


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
                         "steps": trace.steps_used, "final_mean_flow": trace.final_mean_flow})
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            trace.write_jsonl(os.path.join(out_dir, f"trace_{spec.name}_{ep_seed}.jsonl"))
    report = EvalReport(spec.name, policy_name, episodes)
    if out_dir is not None:
        write_summary_csv(report, os.path.join(out_dir, f"summary_{spec.name}.csv"))
    return report


def write_summary_csv(report: EvalReport, path: str) -> None:
    """A schema line, the header, one row per episode and the aggregate."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"# {SUMMARY_SCHEMA}"])
        writer.writerow(["task", "policy", "seed", "outcome", "success", "steps",
                         "final_mean_flow", "reward"])
        writer.writerows([report.task, report.policy, e["seed"], e["outcome"],
                          int(e["outcome"] == "success"), e["steps"],
                          repr(e["final_mean_flow"]), repr(-e["final_mean_flow"])]
                         for e in report.episodes)
        writer.writerow(["# aggregate", report.task, report.policy,
                         repr(report.success_rate), repr(report.mean_reward),
                         repr(report.mean_steps)])


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
                        target_distance: float = 1.0) -> MultiStepResult:
    """Push the box one meter forward in sub-goal increments, re-observing
    and repositioning the base after every action.

    Runs on run_episode with a goal schedule: each action aims
    SUB_GOAL_DISTANCE ahead of the object's current pose along world x, with
    no lateral correction, and the verdict fails on exceeding
    MULTI_STEP_MAX_STEPS actions or drifting laterally past Y_LIMIT.
    """
    config = config or StackConfig()
    options = options or EpisodeOptions(reposition="walk")
    task = sample_task(TaskSpec("multi_step_1m"), seed, config)
    x_start = float(task.obj.pose.translation[0])
    y_start = float(task.obj.pose.translation[1])

    def y_err_cm(pose: RigidTransform) -> float:
        return abs(float(pose.translation[1]) - y_start) * 100.0

    def verdict(obj: SimObject, mean_flow: float, steps_used: int) -> str | None:
        if float(obj.pose.translation[0]) - x_start >= target_distance:
            return "success"
        if steps_used >= MULTI_STEP_MAX_STEPS:
            return "fail_steps"
        if y_err_cm(obj.pose) > Y_LIMIT * 100.0:
            return "fail_y"
        return None

    schedule = GoalSchedule(lambda obj: _push_goal_pose(obj, (SUB_GOAL_DISTANCE, 0.0)), verdict)
    trace = run_episode(task, make_provider(policy_name), options, config, schedule=schedule)
    return MultiStepResult(trace.steps_used, y_err_cm(trace.final_pose), trace.outcome)


# ---------------------------------------------------------------------------
# shares: one map over the usable cores


def usable_cores() -> int:
    """How many CPUs this process may run on (its affinity mask); 1 where the
    platform has no affinity call or no fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _run_share(share, part: int, parts: int, fd: int) -> None:
    """Body of a forked child: pickle (True, the results of share `part`) or
    (False, the exception it raised) to fd, then end the process. Never
    returns, so the child never runs the caller's code after the fork."""
    status = 1
    try:
        try:
            payload = (True, list(share(part, parts)))
        except BaseException as exc:  # handed to the caller, which raises it
            payload = (False, exc)
        sys.stdout.flush()
        sys.stderr.flush()
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(payload, fh)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, fd: int) -> tuple:
    """(True, results) or (False, exception) of the child pid, once it ended.
    The pipe is read before the wait, since a child with more results than
    the pipe holds ends only once they are read."""
    with os.fdopen(fd, "rb") as fh:
        data = fh.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        return False, ChildProcessError(f"share process {pid} ended with status {code}")
    return pickle.loads(data)  # written by this program's own child


def map_shares(share, parts: int):
    """The results of items 0, 1, 2, ... in item order, computed in `parts`
    shares: share(part, parts) returns the results of items part,
    part + parts, part + 2 * parts, ...

    Share 0 runs in the calling process, shares 1 to parts - 1 in forked
    children that send their results back pickled through a pipe. An
    exception a share raises is raised here: the caller's own first (its
    children are then killed), else the first child's in part order. No
    child outlives the call. With one part, share(0, 1) is returned as it
    is, so a lazy share streams its results.

    Stdio is flushed before the fork, so text the caller buffered is printed
    once. Forking is safe here: the program starts no threads of its own, and
    OpenBLAS restarts its thread pool in a child, with the caller's thread
    count.
    """
    if parts == 1:
        return share(0, 1)
    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # (pid, read end of its pipe)
    try:
        for part in range(1, parts):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _run_share(share, part, parts, write)
            os.close(write)
            children.append((pid, read))
        results = [list(share(0, parts))]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        outcomes = [_reap(pid, read) for pid, read in children]
    for ok, value in outcomes:
        if not ok:
            raise value
        results.append(value)
    return [results[i % parts][i // parts] for i in range(sum(map(len, results)))]


# ---------------------------------------------------------------------------
# registration benchmark suites
#
# Each share replays the suite's whole seeded stream (shapes, source scans,
# crops and every draw), so that each case gets the inputs it gets in one
# process. A crop's draws depend on its scan, so every source scan is made; a
# target scan draws only its seed, so only a share's own cases make theirs.
# Replaying holds one case's inputs at a time, where building every case
# before the fork would hold them all. `_suite_cases` draws the cases of both
# suites; a suite gives it its object and perturbation draws.


def _asymmetric_shape(rng):
    kind = int(rng.integers(3))
    if kind == 0:
        return _l_prism(rng.uniform(0.07, 0.11), rng.uniform(0.04, 0.06), rng.uniform(0.04, 0.06))
    if kind == 1:
        return _t_prism(rng.uniform(0.08, 0.11), rng.uniform(0.035, 0.05), rng.uniform(0.04, 0.06))
    pts = rng.uniform(-0.05, 0.05, size=(14, 3))
    return ConvexMesh(tuple(map(tuple, pts)))


def _scan(shape, pose: RigidTransform, seed: int) -> PointCloud:
    """A 400-point full scan of the shape at the pose."""
    return full_scan(shape, pose, 400, seed=seed)


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
    degraded: int = 0  # cases in which no ICP start converged
    augmented_winners: int = 0  # cases won by a rotated start


def _suite_cases(seed: int, n_cases: int, part: int, parts: int, draw_object,
                 draw_perturbation):
    """Cases part, part + parts, ... of a registration suite's seeded stream,
    as (source scan, cropped source, target, true transform, register seed).
    Each case draws its shape and pose (`draw_object(rng)`), the source
    scan's seed, the crop, the true transform's rotation about the scan
    centroid and then its shift (`draw_perturbation(rng)`), and the target
    and register seeds; only a share's own cases make their target scan."""
    rng = np.random.default_rng(seed)
    for case in range(n_cases):
        shape, pose = draw_object(rng)
        scan = _scan(shape, pose, int(rng.integers(2 ** 31)))
        source = _crop_visibility(scan, rng)
        rotation, shift = draw_perturbation(rng)
        true = compose(RigidTransform(np.eye(3), shift),
                       RigidTransform.rotation_about(rotation, scan.centroid))
        target_seed, register_seed = int(rng.integers(2 ** 31)), int(rng.integers(2 ** 31))
        if case % parts == part:
            target = apply_transform(true, _scan(shape, pose, target_seed))
            yield scan, source, target, true, register_seed


def _rotation_error_deg(est: RigidTransform, true: RigidTransform) -> float:
    """The rotation angle between the estimate and the truth, in degrees."""
    return math.degrees(compose(est, true.inverse()).rotation_angle())


def _asymmetric_object(rng) -> tuple:
    """An asymmetric shape resting at a random yaw, and its pose."""
    shape = _asymmetric_shape(rng)
    return shape, rest_pose_on_ground(shape, yaw=float(rng.uniform(-math.pi, math.pi)))


def _bounded_perturbation(rng) -> tuple:
    """A rotation of up to REG_MAX_ROTATION_DEG about a random axis, and a
    shift of up to 5 cm per axis."""
    angle = math.radians(rng.uniform(0.0, REG_MAX_ROTATION_DEG))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rotation_exp(axis * angle), rng.uniform(-0.05, 0.05, size=3)


def registration_benchmark(n_cases: int = 200, seed: int = 0) -> RegBenchResult:
    """Synthetic suite: partial (<=70% visibility) scans registered to full
    scans under bounded random perturbations; reports rotation/translation
    mean absolute error of the recovered transforms, how often each ICP
    start stopped on each exit rule, how many iterations the starts ran, and
    how many cases degraded or went to a rotated start.

    Runs one share of the cases per usable core, each process replaying the
    seeded stream and registering cases part, part + parts, ...; the rows
    are reduced in case order, so the result is the one-process result bit
    for bit."""
    if n_cases < 1:
        raise ValueError("need at least one registration case")

    def share(part: int, parts: int) -> list:
        """Per case: rotation error (deg), translation error at the scan
        centroid (m), the exit rule of each ICP start, the starts'
        iterations, degraded, won by a rotated start."""
        rows = []
        for scan, source, target, true, register_seed in _suite_cases(
                seed, n_cases, part, parts, _asymmetric_object, _bounded_perturbation):
            result = register_with_augmentation(source, target, seed=register_seed)
            est = result.transform
            c = scan.centroid
            rows.append((_rotation_error_deg(est, true),
                         float(np.linalg.norm(est.apply(c) - true.apply(c))),
                         [cand.exit for cand in result.candidates],
                         sum(cand.iterations for cand in result.candidates),
                         result.degraded, result.winner_index != 0))
        return rows

    rows = map_shares(share, usable_cores())
    rot_errs, trans_errs, exits, iterations, degraded, augmented = zip(*rows)
    return RegBenchResult(float(np.mean(rot_errs)), float(np.mean(trans_errs)), n_cases,
                          {rule: sum(case.count(rule) for case in exits) for rule in EXITS},
                          sum(iterations), sum(degraded), sum(augmented))


@dataclass
class AmbiguityBenchResult:
    augmented_success: float
    single_shot_success: float
    trials: int




def _large_yaw_perturbation(rng) -> tuple:
    """A yaw of 45 to 135 degrees either way, and a shift of up to 3 cm per
    axis."""
    yaw = math.radians(rng.uniform(45.0, 135.0)) * (1 if rng.uniform() < 0.5 else -1)
    return rot_z(yaw), rng.uniform(-0.03, 0.03, size=3)


def ambiguity_benchmark(n_trials: int = 40, seed: int = 0) -> AmbiguityBenchResult:
    """Near-square prism with a corner stud: single-shot registration snaps to
    the wrong 90-degree minimum for large yaw offsets; the rank-sum augmented
    pipeline should recover the true pose far more often.

    Runs one share of the trials per usable core, as registration_benchmark
    does, and counts the successes over all shares, so the rates are the
    one-process rates exactly."""
    if n_trials < 1:
        raise ValueError("need at least one ambiguity trial")
    shape = Compound(((Box((0.08, 0.08, 0.05)), (0.0, 0.0, 0.0)),
                      (Box((0.02, 0.02, 0.03)), (0.03, 0.03, 0.04))))
    pose = rest_pose_on_ground(shape)

    def share(part: int, parts: int) -> list:
        """Per trial: augmented success, single-shot success (within
        AMBIGUITY_SUCCESS_ROT_DEG of the truth)."""
        rows = []
        for _, source, target, true, register_seed in _suite_cases(
                seed, n_trials, part, parts, lambda rng: (shape, pose), _large_yaw_perturbation):
            single = icp_register(source, target)
            augmented = register_with_augmentation(source, target, seed=register_seed)
            rows.append(tuple(_rotation_error_deg(est.transform, true) < AMBIGUITY_SUCCESS_ROT_DEG
                              for est in (augmented, single)))
        return rows

    rows = map_shares(share, usable_cores())
    aug_ok, single_ok = (sum(column) for column in zip(*rows))
    return AmbiguityBenchResult(aug_ok / n_trials, single_ok / n_trials, n_trials)
