"""Impedance control and swing planning for the manipulation leg.

The torque law is the Cartesian foot-space PD mapped through the transposed
leg Jacobian, with one scalar gain per term (the config's `swing.kp` and
`swing.kd`: the same stiffness and damping along every axis):

    tau = J^T (kp (p_des - p_foot) + kd (v_des - v_foot))

Force modulation during pushing is emergent: the commanded post-contact
displacement may exceed what the object allows, and the tracking error times
kp is what the foot presses with.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import SwingConfig
from .geom import det3, matvec3_t, threshold_norm
from .simworld import (
    LegModel,
    SrbState,
    leg_inverse_kinematics,
    shoulder_point,
)

WORKSPACE_RADIUS_FACTOR = 0.95
HOLD_TIMEOUT = 0.8  # s the plan may hold at the contact point for the foot to arrive


class UnreachableActionError(RuntimeError):
    """Contact point outside the leg workspace even for planning purposes."""


@dataclass
class ImpedanceCommand:
    torques: list  # the leg's three joint torques, as floats
    singular: bool = False


def impedance_torque_tracking(leg: LegModel, trunk: SrbState, p_foot, v_foot,
                              p_des, v_des, kp: float, kd: float) -> ImpedanceCommand:
    """Exactly the foot-space PD law, with the measured foot state supplied
    by the caller (the simulator knows the foot point and velocity exactly).
    The four vectors are 3-sequences, at their fastest as Python floats.
    Near-singular Jacobians still produce torques but are flagged."""
    Jl = leg.jacobian_rows
    f = [kp * (a - b) + kd * (c - d) for a, b, c, d in zip(p_des, p_foot, v_des, v_foot)]
    # J = R Jl, so J^T f = Jl^T (R^T f) and det J = det Jl (det R = 1)
    tau = matvec3_t(Jl, matvec3_t(trunk.rotation_rows, f))
    return ImpedanceCommand(tau, abs(det3(Jl)) < 1e-6)


# ---------------------------------------------------------------------------
# workspace


def workspace_radius(leg: LegModel) -> float:
    return WORKSPACE_RADIUS_FACTOR * (leg.link_lengths[1] + leg.link_lengths[2])


def is_reachable(target, leg: LegModel, trunk: SrbState) -> bool:
    """Conservative reach test: inside the shoulder sphere and IK-solvable
    within joint limits."""
    target = np.asarray(target, dtype=float)
    if np.linalg.norm(target - shoulder_point(leg, trunk)) > workspace_radius(leg):
        return False
    return leg_inverse_kinematics(target, leg, trunk) is not None


def clip_to_workspace(start, target, leg: LegModel, trunk: SrbState) -> np.ndarray:
    """Farthest point on the segment start->target that stays reachable;
    direction from start is preserved exactly."""
    start = np.asarray(start, dtype=float)
    target = np.asarray(target, dtype=float)
    if is_reachable(target, leg, trunk):
        return target.copy()
    lo, hi = 0.0, 1.0
    if not is_reachable(start, leg, trunk):
        return start.copy()
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if is_reachable(start + mid * (target - start), leg, trunk):
            lo = mid
        else:
            hi = mid
    return start + lo * (target - start)


# ---------------------------------------------------------------------------
# swing planning


@dataclass
class Waypoint:
    time: float
    position: np.ndarray
    phase: str  # lift | approach | push | retract


@dataclass
class SwingPlan:
    waypoints: list
    pre_contact_point: np.ndarray
    contact_point: np.ndarray
    push_endpoint: np.ndarray  # after workspace clipping
    # per pair of consecutive waypoints, made once: (end time, start time,
    # span, start row, end row minus start row, velocity row)
    _segments: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        wps = self.waypoints
        segments = []
        for a, b in zip(wps[:-1], wps[1:]):
            span = max(b.time - a.time, 1e-9)
            pa, pb = a.position.tolist(), b.position.tolist()
            d = tuple(y - x for x, y in zip(pa, pb))
            segments.append((b.time, a.time, span, tuple(pa), d,
                             tuple(dk / span for dk in d)))
        self._segments = tuple(segments)

    @property
    def duration(self) -> float:
        return self.waypoints[-1].time

    def target_at(self, t: float) -> tuple[list, list]:
        """Linear interpolation along the time-stamped waypoints: position
        and velocity as lists of three floats."""
        wps = self.waypoints
        if t <= wps[0].time:
            return wps[0].position.tolist(), [0.0, 0.0, 0.0]
        for t_b, t_a, span, pa, d, vel in self._segments:
            if t <= t_b:
                s = (t - t_a) / span
                return [x + s * dk for x, dk in zip(pa, d)], list(vel)
        return wps[-1].position.tolist(), [0.0, 0.0, 0.0]


class SwingExecutor:
    """Plays a SwingPlan through time and gates the approach-to-push
    transition on actual foot proximity to the contact point."""

    def __init__(self, plan: SwingPlan, cfg: SwingConfig):
        self.plan = plan
        self.cfg = cfg
        self.t = 0.0
        self._held = 0.0
        # the contact waypoint ends the approach
        self._contact_time = next(w.time for w in plan.waypoints if w.phase == "push")

    @property
    def done(self) -> bool:
        return self.t >= self.plan.duration

    def tick(self, foot_pos, dt: float):
        """Advance and return (p_des, v_des) as lists of three floats."""
        gate = (self.t < self._contact_time <= self.t + dt)
        if gate:
            gap = [a - b for a, b in zip(foot_pos, self.plan.contact_point.tolist())]
            limit = self.cfg.approach_threshold
            close = threshold_norm(gap, limit) < limit
            if not close and self._held < HOLD_TIMEOUT:
                self._held += dt
                return self.plan.contact_point.tolist(), [0.0, 0.0, 0.0]
        self.t += dt
        return self.plan.target_at(self.t)


def _segment_time(a, b, speed) -> float:
    return max(float(np.linalg.norm(b - a)) / max(speed, 1e-6), 0.05)


def plan_swing(contact_point, motion_vector, leg: LegModel, trunk: SrbState,
               cfg: SwingConfig, foot_start) -> SwingPlan:
    """Timed waypoints from the foot at foot_start: lift over, descend to the
    pre-contact point, close in on the contact, push along the motion vector
    (clipped to the workspace with its direction preserved), then retract.

    Raises UnreachableActionError when the contact point itself is outside
    the workspace; the caller is expected to reposition the base first.
    """
    contact = np.asarray(contact_point, dtype=float)
    motion = np.asarray(motion_vector, dtype=float)
    if not is_reachable(contact, leg, trunk):
        raise UnreachableActionError(
            f"contact point {np.round(contact, 3)} outside the leg workspace")

    n = float(np.linalg.norm(motion))
    if n < 1e-9:
        direction = np.array([1.0, 0.0, 0.0])
    else:
        direction = motion / n
    pre = contact - cfg.pre_contact_distance * direction
    pre[2] += cfg.lift_clearance
    pre = clip_to_workspace(contact, pre, leg, trunk)

    push_end = clip_to_workspace(contact, contact + motion, leg, trunk)

    start = np.asarray(foot_start, dtype=float)
    apex = 0.5 * (start + pre)
    base_z = apex[2]
    apex[2] = max(start[2], pre[2]) + cfg.lift_clearance
    # the fold limit bounds how high the foot can come; keep the via point valid
    base = apex.copy()
    base[2] = base_z
    apex = clip_to_workspace(base, apex, leg, trunk)

    lift_speed = 2.0 * cfg.push_speed
    wps = [Waypoint(0.0, start.copy(), "lift")]
    t = _segment_time(start, apex, lift_speed)
    wps.append(Waypoint(t, apex, "lift"))
    t += _segment_time(apex, pre, lift_speed)
    wps.append(Waypoint(t, pre.copy(), "approach"))
    t += _segment_time(pre, contact, cfg.push_speed)
    wps.append(Waypoint(t, contact.copy(), "approach"))
    t += _segment_time(contact, push_end, cfg.push_speed)
    wps.append(Waypoint(t, push_end.copy(), "push"))
    retract = pre.copy()
    t += _segment_time(push_end, retract, lift_speed)
    wps.append(Waypoint(t, retract, "retract"))
    return SwingPlan(wps, pre, contact, push_end)
