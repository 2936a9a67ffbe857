"""Impedance control and swing planning for the manipulation leg.

The torque law is the Cartesian foot-space PD mapped through the transposed
leg Jacobian, with one scalar gain per term (the config's `swing.kp` and
`swing.kd`: the same stiffness and damping along every axis):

    tau = J^T (kp (p_des - p_foot) + kd (v_des - v_foot))

Force modulation during pushing is emergent: the commanded post-contact
displacement may exceed what the object allows, and the tracking error times
kp is what the foot presses with.

A swing plan is its waypoints. Each waypoint is a time and a position of
three floats; the contact point and the gate time are read from them.
`plan_swing` computes them with numpy (norms, workspace clips, reach tests)
and stores floats, so `target_at` and the executor's tick interpolate and
compare floats without a conversion.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    position: tuple  # three floats, world frame


@dataclass
class SwingPlan:
    """Six timed waypoints: the foot's start, the apex, the pre-contact
    point, the contact, the push end and the retract point. The executor's
    tick that would pass the gate time waits for the foot at the contact
    point (see `SwingExecutor`). The gate time is the push end's, so the gate
    holds after the push, not at contact."""
    waypoints: list

    @property
    def contact_point(self) -> tuple:
        return self.waypoints[3].position

    @property
    def gate_time(self) -> float:
        return self.waypoints[4].time

    @property
    def duration(self) -> float:
        return self.waypoints[-1].time

    def target_at(self, t: float) -> tuple[list, list]:
        """Linear interpolation along the time-stamped waypoints: position
        and velocity as lists of three floats."""
        wps = self.waypoints
        if t <= wps[0].time:
            return list(wps[0].position), [0.0, 0.0, 0.0]
        for a, b in zip(wps[:-1], wps[1:]):
            if t <= b.time:
                span = max(b.time - a.time, 1e-9)
                s = (t - a.time) / span
                d = [y - x for x, y in zip(a.position, b.position)]
                return [x + s * dk for x, dk in zip(a.position, d)], [dk / span for dk in d]
        return list(wps[-1].position), [0.0, 0.0, 0.0]


class SwingExecutor:
    """Plays a SwingPlan through time. On the tick that would pass the
    plan's gate time it holds the contact point, without advancing, until
    the foot is within the approach threshold of it or HOLD_TIMEOUT has
    passed."""

    def __init__(self, plan: SwingPlan, cfg: SwingConfig):
        self.plan = plan
        self.cfg = cfg
        self.t = 0.0
        self._held = 0.0

    @property
    def done(self) -> bool:
        return self.t >= self.plan.duration

    def tick(self, foot_pos, dt: float):
        """Advance and return (p_des, v_des), each three floats."""
        plan = self.plan
        if self.t < plan.gate_time <= self.t + dt:
            gap = [a - b for a, b in zip(foot_pos, plan.contact_point)]
            limit = self.cfg.approach_threshold
            close = threshold_norm(gap, limit) < limit
            if not close and self._held < HOLD_TIMEOUT:
                self._held += dt
                return plan.contact_point, [0.0, 0.0, 0.0]
        self.t += dt
        return plan.target_at(self.t)


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
    direction = np.array([1.0, 0.0, 0.0]) if n < 1e-9 else motion / n
    pre = contact - cfg.pre_contact_distance * direction
    pre[2] += cfg.lift_clearance
    pre = clip_to_workspace(contact, pre, leg, trunk)

    push_end = clip_to_workspace(contact, contact + motion, leg, trunk)

    start = np.asarray(foot_start, dtype=float)
    base = 0.5 * (start + pre)
    # the fold limit bounds how high the foot can come; keep the via point valid
    apex = clip_to_workspace(
        base, (base[0], base[1], max(start[2], pre[2]) + cfg.lift_clearance), leg, trunk)

    # lift to the apex, descend to the pre-contact point, close in on the
    # contact, push, and retract to the pre-contact point
    lift_speed = 2.0 * cfg.push_speed
    points = (start, apex, pre, contact, push_end, pre)
    speeds = (lift_speed, lift_speed, cfg.push_speed, cfg.push_speed, lift_speed)
    t = 0.0
    wps = [Waypoint(t, tuple(map(float, start)))]
    for a, b, speed in zip(points[:-1], points[1:], speeds):
        t += _segment_time(a, b, speed)
        wps.append(Waypoint(t, tuple(map(float, b))))
    return SwingPlan(wps)
