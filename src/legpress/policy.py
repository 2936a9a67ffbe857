"""The policy seam and the deterministic baseline policies.

A policy is a function of an `Observation`. It returns an object-centric
action, or raises `NoPlanError` when it has none. The observation's goal is
the goal pose relative to the object's, a transform; the goal cloud is read
from it and the observed cloud, and the goal flow (each observed point's
vector to its goal point) from the two clouds. An action is a contact index
into the observed object cloud, a 3D motion vector executed after contact,
and the leg that executes it. The action is the one place the manipulation leg is
decided; the baselines use the front-left leg. Learned policies are out of
scope here, but their artifacts plug in: per-point critic maps (Q-values)
and actor maps (motion parameters) with one or two leg channels can be
loaded from the columnar interchange format and pushed through the same
greedy selection, which picks the leg too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import PointCloud, RigidTransform, apply_transform
from .simworld import LEG_NAMES, SimObject

LEG_CHANNELS = LEG_NAMES[:2]  # the legs an action can use, in critic-channel order
Q_CLAMP = (-20.0, 0.0)

# planning baseline, tuned once on the cube and then frozen for every object
PUSH_PITCH_DOWN_RAD = math.radians(16.0)
PUSH_GAIN = 1.35
FLIP_MAGNITUDE = 0.18  # m
MAX_MOTION = 0.35  # m, exceeds the leg reach by design
MIN_PUSH = 0.04  # m


class NoPlanError(RuntimeError):
    """A policy has no action for the observation (the episode records
    `fault:no_action`)."""


@dataclass(frozen=True)
class ObjectCentricAction:
    contact_index: int
    motion_params: np.ndarray
    leg: str  # front_left | front_right

    def __post_init__(self):
        object.__setattr__(self, "motion_params",
                           np.asarray(self.motion_params, dtype=float).reshape(3))
        if self.leg not in LEG_CHANNELS:
            raise ValueError(f"unknown leg {self.leg!r}")
        if not np.all(np.isfinite(self.motion_params)):
            raise ValueError("motion params must be finite")


@dataclass
class CriticMap:
    q_values: np.ndarray  # (n_points, channels)

    def __post_init__(self):
        self.q_values = q = np.asarray(self.q_values, dtype=float)
        if q.ndim != 2 or q.shape[1] not in (1, 2):
            raise ValueError("critic map must be (n, 1|2)")
        # written so that a NaN fails it too
        if not np.all((q >= Q_CLAMP[0] - 1e-9) & (q <= Q_CLAMP[1] + 1e-9)):
            raise ValueError(f"q values must be finite and lie in {Q_CLAMP}")


@dataclass
class ActorMap:
    motion_params: np.ndarray  # (n_points, channels, 3)

    def __post_init__(self):
        self.motion_params = m = np.asarray(self.motion_params, dtype=float)
        if m.ndim != 3 or m.shape[1] not in (1, 2) or m.shape[2] != 3:
            raise ValueError("actor map must be (n, 1|2, 3)")


@dataclass
class Observation:
    cloud: PointCloud  # camera-visible object points, world frame
    goal: RigidTransform  # the goal pose relative to the current object pose
    obj: SimObject  # shape/pose access for the geometric baselines
    seed: int  # per-call policy seed

    @property
    def goal_cloud(self) -> PointCloud:
        """The observed cloud mapped by the goal transform (index-correspondent)."""
        return apply_transform(self.goal, self.cloud)

    @property
    def flow(self) -> np.ndarray:
        """The goal flow: each observed point's vector to its goal point."""
        return self.goal_cloud.points - self.cloud.points


def select_greedy(actor: ActorMap, critic: CriticMap) -> ObjectCentricAction:
    """Argmax over (point, leg) pairs; ties break to the lowest point index,
    then the left leg."""
    q = critic.q_values
    if q.size == 0:
        raise ValueError("empty critic map")
    if actor.motion_params.shape[:2] != q.shape:
        raise ValueError("actor/critic shape mismatch")
    flat = int(np.argmax(q))  # row-major: index-major then channel, ties resolve correctly
    idx, ch = divmod(flat, q.shape[1])
    return ObjectCentricAction(idx, actor.motion_params[idx, ch], LEG_CHANNELS[ch])


# ---------------------------------------------------------------------------
# geometric helpers shared by the baselines


def _box_face_centers(obj) -> tuple[np.ndarray, np.ndarray]:
    """World-frame centers and outward normals of the object's bounding-box
    side faces (the planner's contact vocabulary, applied to every shape)."""
    verts = obj.shape.vertices()
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    centers, normals = [], []
    for axis in range(3):
        for sign in (1.0, -1.0):
            n = np.zeros(3)
            n[axis] = sign
            p = c.copy()
            p[axis] += sign * half[axis]
            centers.append(p)
            normals.append(n)
    R, t = obj.pose.rotation, obj.pose.translation
    return np.asarray(centers) @ R.T + t, np.asarray(normals) @ R.T


def _top_edge_midpoint(obj, push_dir: np.ndarray) -> np.ndarray:
    """Midpoint of the top edge of the face whose outward normal opposes the
    horizontal direction the top of the object should travel."""
    verts = obj.shape.vertices()
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    R, t = obj.pose.rotation, obj.pose.translation
    d_local = R.T @ push_dir
    d_local[2] = 0.0
    axis = int(np.argmax(np.abs(d_local[:2])))
    sign = -math.copysign(1.0, d_local[axis])  # face opposing the motion
    p = c.copy()
    p[axis] += sign * half[axis]
    p[2] = c[2] + half[2]  # top
    return R @ p + t


def _goal_decomposition(goal: RigidTransform, obj):
    """Split a relative goal into an optional flip part and a translation.

    A rotation that carries the object's up axis far from vertical is a
    flip; its direction is where the top face normal travels (projected to
    the ground plane)."""
    R = goal.rotation
    up_moves_to = R @ np.array([0.0, 0.0, 1.0])
    flip_needed = up_moves_to[2] < math.cos(math.radians(45.0))
    flip_dir = None
    if flip_needed:
        horiz = up_moves_to.copy()
        horiz[2] = 0.0
        n = np.linalg.norm(horiz)
        if n < 1e-9:
            raise NoPlanError("flip goal with degenerate direction")
        flip_dir = horiz / n
    centroid = obj.pose.translation
    displacement = goal.apply(centroid) - centroid
    return flip_needed, flip_dir, displacement


def planning_baseline(obs: Observation) -> ObjectCentricAction:
    """Geometric contact policy with the front-left leg: push at the center
    of the face opposing the goal displacement with a downward-pitched motion
    vector; flip by pushing the midpoint of the top edge opposite the flip
    direction horizontally. Flip-and-push goals execute the flip first.
    Raises NoPlanError when no face admits the goal.
    """
    flip_needed, flip_dir, displacement = _goal_decomposition(obs.goal, obs.obj)

    if flip_needed:
        contact = _top_edge_midpoint(obs.obj, flip_dir)
        motion = flip_dir * FLIP_MAGNITUDE
    else:
        d = displacement.copy()
        d[2] = 0.0
        dist = float(np.linalg.norm(d))
        if dist < 1e-9:
            raise NoPlanError("goal displacement is zero; nothing to push")
        d_hat = d / dist
        centers, normals = _box_face_centers(obs.obj)
        align = normals @ (-d_hat)
        best = int(np.argmax(align))
        if align[best] < math.cos(math.radians(60.0)):
            raise NoPlanError("no face within 60 degrees of the push direction")
        contact = centers[best]
        mag = min(max(PUSH_GAIN * dist, MIN_PUSH), MAX_MOTION)
        motion = mag * (math.cos(PUSH_PITCH_DOWN_RAD) * d_hat
                        + math.sin(PUSH_PITCH_DOWN_RAD) * np.array([0.0, 0.0, -1.0]))

    idx = int(np.argmin(np.linalg.norm(obs.cloud.points - contact, axis=1)))
    return ObjectCentricAction(idx, motion, "front_left")


def flow_baseline(obs: Observation) -> ObjectCentricAction:
    """Same contact and leg as the planner; motion replaced by the flow
    between the observed and goal clouds at the contact point."""
    base = planning_baseline(obs)
    return ObjectCentricAction(base.contact_index, obs.flow[base.contact_index], base.leg)


def random_location_baseline(obs: Observation) -> ObjectCentricAction:
    """Uniform contact index, drawn from the observation's seed, with the
    front-left leg; motion from the flow rule at that point."""
    if len(obs.cloud) == 0:
        raise ValueError("empty cloud")
    idx = int(np.random.default_rng(obs.seed).integers(len(obs.cloud)))
    return ObjectCentricAction(idx, obs.flow[idx], "front_left")


# ---------------------------------------------------------------------------
# actor/critic interchange format: columnar text, one entry per line, and
# lines starting with "#" are comments
#   point_index leg_channel mx my mz q


def load_maps(path: str) -> tuple[ActorMap, CriticMap]:
    """The actor and critic maps of a file in the interchange format. A line
    without six fields, with a negative point index, a channel other than 0
    or 1, a value that is not a finite number, or the point and channel of
    an earlier line raises ValueError naming the line."""
    entries = {}
    n = ch = 0
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            try:
                if len(toks) != 6:
                    raise ValueError
                i, c, vals = int(toks[0]), int(toks[1]), [float(v) for v in toks[2:]]
                if not (i >= 0 and 0 <= c < len(LEG_CHANNELS) and all(map(math.isfinite, vals))):
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path} line {number}: expected 'point_index leg_channel "
                                 f"mx my mz q' with point_index >= 0, leg_channel 0 or 1 "
                                 f"and finite values, got {line!r}") from None
            if (i, c) in entries:
                raise ValueError(f"{path} line {number}: point {i} channel {c} given again")
            entries[(i, c)] = vals
            n = max(n, i + 1)
            ch = max(ch, c + 1)
    motion = np.zeros((n, ch, 3))
    q = np.full((n, ch), Q_CLAMP[0])
    for (i, c), vals in entries.items():
        motion[i, c] = vals[:3]
        q[i, c] = vals[3]
    return ActorMap(motion), CriticMap(q)
