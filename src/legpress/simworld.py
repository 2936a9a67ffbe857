"""Rigid-body world for desk-scale loco-manipulation.

Model: the robot is a single rigid trunk; each of the four 3-DOF legs is
massless and terminates in a small point-mass foot. Commanded joint torques
map to a foot-tip force through the transposed leg Jacobian; the reaction
acts on the trunk at the foot point, which is what makes the trunk dynamics
exactly the single-rigid-body model the force controller assumes. Ground and
object interaction is penalty contact (spring-damper normal, Coulomb-capped
friction impulses) integrated with semi-implicit Euler at a fixed dt.
Objects are `Box`, `Cylinder` and `Compound` bodies, whose signed distances
are Euclidean outside the shape and come with the outward normal as three
floats; `ConvexMesh` is a scan-only shape of the registration suites, and
`SimObject` rejects it.

Angular state is advanced in momentum form (L = I w updated, w recovered
from the new orientation), so free tumbling conserves angular momentum to
machine precision instead of drifting with the naive w-update.

Leg numbering: 0 = front-left, 1 = front-right, 2 = rear-left,
3 = rear-right. World frame: x forward, y left, z up.

Resting objects sleep. There are no object-object contacts, so each object
and the ground form an island of their own that only a foot can disturb. An
object falls asleep when, for SLEEP_TIME, every tick found it in ground
contact, with no foot centre within its bound (the shape's `_radius` plus the
foot radius, see `_feet_near`) and every component of its velocity and
angular velocity after the tick under SLEEP_LINEAR_TOL and SLEEP_ANGULAR_TOL.
Asleep, its velocities are exactly zero, its pose arrays are read-only, the
ground contact records of the tick it fell asleep stay in `contact_set`, and
a tick only tests the four feet against its bound. It wakes, and is stepped
in full from that tick, when a foot comes within the bound (the test that
makes skipping a far foot exact, so no contact is missed), when its pose is
replaced or a velocity is set non-zero, or when ground or gravity is
off. `SimObject.copy` carries the sleep state, so a copy steps like the
original bit for bit.

The state is tuples of Python floats: the trunk's rpy, position and
velocities, the feet's points and velocities (four rows each), the joint
angles and the objects' velocities; an object's pose is a `RigidTransform`.
A state value changes by an assignment of the whole field or as a new state
(`dataclasses.replace`), never in place. `step` reads the tuples, runs the
tick and then the leg sync on float lists, computing on float rows what is
fixed within a tick once per tick, and writes each trunk, feet and
object-velocity field back once; an object gets a new `RigidTransform`. A
leg at its joint stops (`_sync_legs`) edits only the tick's lists: its foot
rides with the trunk, whose velocity and spin take the foot's changes of
linear and angular momentum, so the stop conserves both. Derived rows are
written with their source, and each source is a tuple of floats: no reader
can change it apart from its rows, and a deep copy or a pickle keeps the
two together. `SrbState.rotation_rows` is the trunk rotation: the
constructor builds it from `rpy`, and `step` writes the rotation it
integrated together with the rpy chart of it.
`LegModel.jacobian_rows` is the trunk-frame Jacobian of `joint_angles`,
written with them by the leg sync. `SimObject.inertia` is float rows, and
its inverse rows are made once with it. Numpy callers convert with
`np.array`, which is exact; array accessors hand out new arrays or copies.
Where a helper call per vector would cost more than its arithmetic, the tick
writes the products out in the helper's order: the tip-force solve on the
Jacobian rows (`_tip_forces`, `_solve3`'s expressions), the friction pass,
the IK's clamps (`_clamp`, `min(max())`'s values). The velocity check is one
pass over the components (`_check_speeds`). The float 3-vector helpers are
public in `geom`.

Outcome gate. Float rows and sleep round differently from a plain numpy
formulation of the same model, so a trajectory is not bit-identical to one,
and a change to the tick is judged by what the simulation does:
  - `legpress sweep --seeds 0-9 --against FILE`: every task and seed keeps its
    outcome, action count and fault class, and the final flow or lateral
    error moves only by rounding (episodes whose outcome rounding alone
    decides are named in the change log);
  - `cli.SIM_CHECKS` (`legpress simcheck`): determinism, momentum, momentum
    at the joint stop, friction cone and stand force within their bounds;
    the momentum rows read `momentum`, the one sum of the world's linear and
    angular momentum;
  - the pinned end states in `tests/test_simworld.py` at rtol 1e-9 and atol
    1e-12. A scene that moves past them is re-recorded, with every moved
    value listed in the change log.
Numpy stays where it is the better tool or a reference depends on it:
  - `geom.rotation_exp`, on which `register`'s bit-exact rule rests; the
    tick's float Rodrigues map is tested against it;
  - `geom.euler_zyx_to_matrix`, which gives the rotation rows of a
    constructed trunk state (a test pins that bit for bit) and through which
    `regbench` inputs go;
  - the SVD that re-orthonormalises each orientation every 64 steps;
  - `leg_inverse_kinematics`, which maps the target into the hip frame with
    the rotation array and returns the joint angles as an array: it runs in
    the reach test, never in the tick;
  - the numpy forms of the stance torques and of the impedance law
    (`kp (p_des - p) + kd (v_des - v)` on arrays, mapped by the world
    Jacobian's transpose), kept only as test references.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .config import ContactConfig, RobotConfig, StackConfig, check_config
from .geom import (
    GimbalLockError,
    RigidTransform,
    cross3,
    det3,
    dot3,
    euler_zyx_to_matrix,
    matmul3,
    matrix_to_euler_zyx,
    matvec3,
    matvec3_t,
    orthonormalize,
)

LEG_NAMES = ("front_left", "front_right", "rear_left", "rear_right")
FRONT_LEFT, FRONT_RIGHT, REAR_LEFT, REAR_RIGHT = 0, 1, 2, 3

_VEL_LIMIT = 100.0  # m/s; anything past this is a blown-up simulation
_RENORM_EVERY = 64  # steps between orientation re-orthonormalizations
# an object falls asleep after SLEEP_TIME of ticks in ground contact, with no
# foot within its bound and every velocity component under these tolerances
SLEEP_LINEAR_TOL = 1e-9  # m/s
SLEEP_ANGULAR_TOL = 1e-9  # rad/s
SLEEP_TIME = 0.1  # s
OBJECT_DENSITY = 300.0  # kg/m^3 of every object made from a shape
CYLINDER_SIDES = 16  # sides of the prism a Cylinder's vertices span


def _sandwich(R, M) -> list:
    """R M R' for 3x3 matrices given as float rows."""
    return matmul3(matmul3(R, M), zip(*R))


def _rotation_exp(x: float, y: float, z: float) -> list:
    """`geom.rotation_exp` on floats: the rows of the Rodrigues rotation for
    the axis-angle vector (x, y, z)."""
    th = math.sqrt(x * x + y * y + z * z)
    if th < 1e-12:
        return [[1.0, -z, y], [z, 1.0, -x], [-y, x, 1.0]]
    kx, ky, kz = x / th, y / th, z / th
    s, c = math.sin(th), 1.0 - math.cos(th)
    # I + s K + c K K with K = skew(k), K K written out entry by entry
    return [[1.0 + c * (-kz * kz - ky * ky), -s * kz + c * (ky * kx), s * ky + c * (kz * kx)],
            [s * kz + c * (kx * ky), 1.0 + c * (-kz * kz - kx * kx), -s * kx + c * (kz * ky)],
            [-s * ky + c * (kx * kz), s * kx + c * (ky * kz), 1.0 + c * (-ky * ky - kx * kx)]]


class SimulationDivergence(RuntimeError):
    """State left the numerically meaningful envelope."""


# ---------------------------------------------------------------------------
# robot state


@dataclass
class SrbState:
    """12-component trunk state: rpy, position, world angular velocity and
    linear velocity (the force MPC appends the configured gravity as its
    13th), each a tuple of three floats. `rotation_rows` is the trunk
    rotation as three float rows, written with its source: the constructor
    builds it from rpy through `euler_zyx_to_matrix`, and `step` writes the
    rotation it integrated together with the rpy chart of it. A trunk in
    another state is a new state (`dataclasses.replace`) or an assignment of
    a whole field."""

    rpy: tuple
    position: tuple
    angular_velocity: tuple
    linear_velocity: tuple
    rotation_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rpy, self.position, self.angular_velocity, self.linear_velocity = (
            tuple(map(float, np.reshape(x, 3)))
            for x in (self.rpy, self.position, self.angular_velocity, self.linear_velocity))
        self.rotation_rows = tuple(map(tuple, euler_zyx_to_matrix(*self.rpy).tolist()))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.rpy, self.position, self.angular_velocity,
                               self.linear_velocity])

    def rotation(self) -> np.ndarray:
        return np.array(self.rotation_rows)

    def copy(self) -> "SrbState":
        # every field is a tuple; an integrated rotation is not the rebuild
        # from its rpy to the bit, so it is carried, not rebuilt
        return copy.copy(self)


@dataclass
class LegModel:
    """One 3-DOF leg on the trunk. The joint angles, the hip offset and the
    shoulder point are tuples of three floats. `jacobian_rows` is the
    trunk-frame Jacobian d(foot offset)/d(joint angles) as three float rows,
    written with the angles: built by the constructor, and by the leg sync in
    the same write as the angles it solves. A leg at other angles is a new leg
    (`dataclasses.replace`)."""

    hip_offset: tuple  # trunk frame, from trunk COM
    side: float  # +1 left, -1 right
    link_lengths: tuple  # (abduction offset, thigh, calf)
    joint_limits: tuple  # (lo, hi) per joint: hip roll, hip pitch, knee
    joint_angles: tuple = (0.0, 0.0, 0.0)
    jacobian_rows: tuple = field(init=False, repr=False, compare=False)
    # trunk-frame shoulder point: the hip moved out by the abduction offset
    shoulder: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.hip_offset = tuple(map(float, self.hip_offset))
        abduction = (0.0, self.side * self.link_lengths[0], 0.0)
        self.shoulder = tuple(h + a for h, a in zip(self.hip_offset, abduction))
        self.joint_angles = tuple(map(float, self.joint_angles))
        self.jacobian_rows = _jac_local(*self.joint_angles, self.side, *self.link_lengths)

    def copy(self) -> "LegModel":
        return LegModel(self.hip_offset, self.side, self.link_lengths,
                        self.joint_limits, self.joint_angles)


def make_legs(rc: RobotConfig) -> list[LegModel]:
    legs = []
    ll = (rc.abduction_offset, rc.thigh_length, rc.calf_length)
    lim = (tuple(rc.hip_roll_limits), tuple(rc.hip_pitch_limits), tuple(rc.knee_limits))
    for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        legs.append(LegModel((sx * rc.hip_offset_x, sy * rc.hip_offset_y, 0.0),
                             float(sy), ll, lim))
    return legs


# ---------------------------------------------------------------------------
# leg kinematics: float math on the joint angles


def _fk_local(q1, q2, q3, side, l_abd, lt, lc):
    s2, c2 = math.sin(q2), math.cos(q2)
    s23, c23 = math.sin(q2 + q3), math.cos(q2 + q3)
    wx = -lt * s2 - lc * s23
    wy = side * l_abd
    wz = -lt * c2 - lc * c23
    s1, c1 = math.sin(q1), math.cos(q1)
    return wx, c1 * wy - s1 * wz, s1 * wy + c1 * wz


def _jac_local(q1, q2, q3, side, l_abd, lt, lc):
    s2, c2 = math.sin(q2), math.cos(q2)
    s23, c23 = math.sin(q2 + q3), math.cos(q2 + q3)
    s1, c1 = math.sin(q1), math.cos(q1)
    dwx2 = -lt * c2 - lc * c23  # also the foot's z in the leg plane
    wy = side * l_abd
    py, pz = c1 * wy - s1 * dwx2, s1 * wy + c1 * dwx2  # as _fk_local computes them
    dwz2 = lt * s2 + lc * s23
    dwx3 = -lc * c23
    dwz3 = lc * s23
    return ((0.0, dwx2, dwx3),
            (-pz, -s1 * dwz2, -s1 * dwz3),
            (py, c1 * dwz2, c1 * dwz3))


def leg_forward_kinematics(leg: LegModel, trunk: SrbState) -> np.ndarray:
    """World-frame foot position from trunk pose and joint angles."""
    local = np.array(_fk_local(*leg.joint_angles, leg.side, *leg.link_lengths))
    return np.array(trunk.position) + trunk.rotation() @ (np.array(leg.hip_offset) + local)


def shoulder_point(leg: LegModel, trunk: SrbState) -> np.ndarray:
    """World-frame shoulder point of the leg."""
    return np.array(trunk.position) + trunk.rotation() @ np.array(leg.shoulder)


def _clamp(x: float, lo: float, hi: float) -> float:
    """`min(hi, max(lo, x))` for lo < hi by comparisons: the same value, a
    NaN giving lo."""
    return x if lo < x < hi else (hi if x >= hi else lo)


def _ik_local(d, side, l_abd, lt, lc, limits):
    """Closed-form 3-DOF solve in the hip frame, knee-backward branch.

    Returns a joint-angle triple or None when the point is outside the
    workspace or joint limits.
    """
    dx, dy, dz = d
    r = math.hypot(dy, dz)
    if r < l_abd + 1e-12:
        return None
    phi = math.atan2(dz, dy)
    alpha = math.acos(_clamp(side * l_abd / r, -1.0, 1.0))
    # the hip roll q1 = phi -+ alpha puts the foot at z = -+ r sin(alpha) in
    # the rolled leg plane; the foot-below branch is tried first
    h = r * math.sin(alpha)
    (lo1, hi1), (lo2, hi2), (lo3, hi3) = limits
    for q1, z_leg in ((phi + alpha, -h), (phi - alpha, h)):
        if q1 > math.pi:
            q1 -= 2.0 * math.pi
        elif q1 < -math.pi:
            q1 += 2.0 * math.pi
        L2 = dx * dx + z_leg * z_leg
        L = math.sqrt(L2)
        if L < 1e-9:
            continue
        D = (L2 - lt * lt - lc * lc) / (2.0 * lt * lc)
        if D > 1.0 + 1e-9 or D < -1.0 - 1e-9:
            continue
        q3 = -math.acos(_clamp(D, -1.0, 1.0 - 1e-12))
        gamma = math.acos(_clamp((lt * lt + L2 - lc * lc) / (2.0 * lt * L), -1.0, 1.0))
        q2 = math.atan2(-dx, -z_leg) + gamma
        if lo1 <= q1 <= hi1 and lo2 <= q2 <= hi2 and lo3 <= q3 <= hi3:
            return (q1, q2, q3)
    return None


def leg_inverse_kinematics(target: np.ndarray, leg: LegModel,
                           trunk: SrbState) -> np.ndarray | None:
    """Joint angles reaching the world target within the joint limits, or
    None when no such angles exist."""
    R = trunk.rotation()
    d = R.T @ (np.asarray(target, dtype=float)
               - (np.array(trunk.position) + R @ np.array(leg.hip_offset)))
    q = _ik_local(d.tolist(), leg.side, *leg.link_lengths, leg.joint_limits)
    return None if q is None else np.array(q)


def _cofactor_solve(A, b, det: float) -> list:
    """x with A x = b by cofactors, for float rows A of determinant det."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = A
    b0, b1, b2 = b
    inv_det = 1.0 / det
    x0 = (b0 * (a11 * a22 - a12 * a21)
          - a01 * (b1 * a22 - a12 * b2)
          + a02 * (b1 * a21 - a11 * b2)) * inv_det
    x1 = (a00 * (b1 * a22 - a12 * b2)
          - b0 * (a10 * a22 - a12 * a20)
          + a02 * (a10 * b2 - b1 * a20)) * inv_det
    x2 = (a00 * (a11 * b2 - b1 * a21)
          - a01 * (a10 * b2 - b1 * a20)
          + b0 * (a10 * a21 - a11 * a20)) * inv_det
    return [x0, x1, x2]


def _tip_forces(R, legs, tau: list) -> list:
    """World-frame tip force (f0, f1, f2) of each leg under its three of the
    12 joint torques: tau = (R J)' f, solved as J' (R' f) = tau on the
    trunk rotation rows R and each leg's Jacobian rows J. The solve is
    `_solve3` of the rows of J', written out on the rows of J with the same
    expressions in the same order, each shared cofactor computed once; near a
    singular J (|det| < 1e-6) it is `_solve3` itself."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R
    forces = []
    for i, leg in enumerate(legs):
        J = (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = leg.jacobian_rows
        b0, b1, b2 = tau[3 * i:3 * i + 3]
        m0 = j11 * j22 - j21 * j12
        m1 = j01 * j22 - j21 * j02
        m2 = j01 * j12 - j11 * j02
        det = j00 * m0 - j10 * m1 + j20 * m2
        if abs(det) >= 1e-6:
            inv_det = 1.0 / det
            n0, n2 = b1 * j22 - j21 * b2, j01 * b2 - b1 * j02
            x0 = (b0 * m0 - j10 * n0 + j20 * (b1 * j12 - j11 * b2)) * inv_det
            x1 = (j00 * n0 - b0 * m1 + j20 * n2) * inv_det
            x2 = (j00 * (j11 * b2 - b1 * j12) - j10 * n2 + b0 * m2) * inv_det
        else:
            x0, x1, x2 = _solve3(tuple(zip(*J)), (b0, b1, b2))
        forces.append((r00 * x0 + r01 * x1 + r02 * x2, r10 * x0 + r11 * x1 + r12 * x2,
                       r20 * x0 + r21 * x1 + r22 * x2))
    return forces


def _solve3(A, b) -> list:
    """3x3 solve on float rows by cofactors; near a singular A (|det| < 1e-6)
    the damped least-squares solution (A'A + lam^2 I) x = A'b, lam = 1e-3."""
    det = det3(A)
    if abs(det) >= 1e-6:
        return _cofactor_solve(A, b, det)
    lam2 = 1e-3 * 1e-3
    M = matmul3(zip(*A), A)
    for k in range(3):
        M[k][k] += lam2
    return _cofactor_solve(M, matvec3_t(A, b), det3(M))


# ---------------------------------------------------------------------------
# shapes and objects


class _Shape:
    """A shape's vertices, computed once as float triples (`_vert_rows`, which
    the step reads); `vertices()` hands them out as a new array."""

    def vertices(self) -> np.ndarray:
        return np.array(self._vert_rows)


def _set_vertices(shape, verts: np.ndarray) -> None:
    """Store the shape's vertices as float rows and `_radius`, the radius of a
    ball about the body origin that holds the shape: the largest vertex norm,
    padded against rounding (a cylinder's rim vertices sit on its circle). The
    signed distance is Euclidean, so a foot centre farther than `_radius` plus
    the foot radius is out of contact and `step` skips it."""
    object.__setattr__(shape, "_vert_rows", tuple(map(tuple, verts.tolist())))
    radius = float(np.sqrt(np.max(np.sum(verts * verts, axis=1)))) * (1.0 + 1e-9)
    object.__setattr__(shape, "_radius", radius)


@dataclass(frozen=True)
class Box(_Shape):
    extents: tuple  # full side lengths (x, y, z)

    def __post_init__(self):
        hx, hy, hz = (e / 2.0 for e in self.extents)
        object.__setattr__(self, "_half", (hx, hy, hz))
        _set_vertices(self, np.array([(sx * hx, sy * hy, sz * hz)
                                      for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]))

    def signed_distance(self, p) -> tuple[float, tuple]:
        """The distance of the body-frame point p to the surface, negative
        inside, and the outward unit normal there as three floats."""
        hx, hy, hz = self._half
        x, y, z = p
        qx, qy, qz = abs(x) - hx, abs(y) - hy, abs(z) - hz
        if qx <= 0.0 and qy <= 0.0 and qz <= 0.0:
            # inside: nearest face
            m = max(qx, qy, qz)
            if m == qx:
                return m, (math.copysign(1.0, x), 0.0, 0.0)
            if m == qy:
                return m, (0.0, math.copysign(1.0, y), 0.0)
            return m, (0.0, 0.0, math.copysign(1.0, z))
        ox, oy, oz = max(qx, 0.0), max(qy, 0.0), max(qz, 0.0)
        dist = math.sqrt(ox * ox + oy * oy + oz * oz)
        return dist, (math.copysign(ox, x) / dist, math.copysign(oy, y) / dist,
                      math.copysign(oz, z) / dist)

    def sample_surface(self, rng, n: int) -> tuple[np.ndarray, np.ndarray]:
        ex, ey, ez = self.extents
        areas = np.array([ey * ez, ey * ez, ex * ez, ex * ez, ex * ey, ex * ey])
        face = rng.choice(6, size=n, p=areas / areas.sum())
        u = rng.uniform(-0.5, 0.5, size=n)
        v = rng.uniform(-0.5, 0.5, size=n)
        pts = np.empty((n, 3))
        nrm = np.zeros((n, 3))
        axis = face // 2
        sign = np.where(face % 2 == 0, 1.0, -1.0)
        # one column write per face axis: the same products as a per-point loop
        for a in range(3):
            rows = axis == a
            b, c = (a + 1) % 3, (a + 2) % 3
            pts[rows, a] = sign[rows] * self._half[a]
            pts[rows, b] = u[rows] * self.extents[b]
            pts[rows, c] = v[rows] * self.extents[c]
            nrm[rows, a] = sign[rows]
        return pts, nrm

    def mass_properties(self, density: float) -> tuple[float, np.ndarray]:
        ex, ey, ez = self.extents
        m = density * ex * ey * ez
        I = m / 12.0 * np.diag([ey * ey + ez * ez, ex * ex + ez * ez, ex * ex + ey * ey])
        return m, I


@dataclass(frozen=True)
class Cylinder(_Shape):
    radius: float
    height: float

    def __post_init__(self):
        ang = np.linspace(0.0, 2.0 * math.pi, CYLINDER_SIDES, endpoint=False)
        ring = np.stack([self.radius * np.cos(ang), self.radius * np.sin(ang)], axis=1)
        top = np.column_stack([ring, np.full(CYLINDER_SIDES, self.height / 2.0)])
        bot = np.column_stack([ring, np.full(CYLINDER_SIDES, -self.height / 2.0)])
        _set_vertices(self, np.vstack([top, bot]))

    def signed_distance(self, p) -> tuple[float, tuple]:
        """As `Box.signed_distance`."""
        x, y, z = p
        rr = math.hypot(x, y)
        dr = rr - self.radius
        dz = abs(z) - self.height / 2.0
        if dr <= 0.0 and dz <= 0.0:
            if dr > dz:
                return dr, ((x / rr, y / rr, 0.0) if rr > 1e-12 else (1.0, 0.0, 0.0))
            return dz, (0.0, 0.0, math.copysign(1.0, z))
        odr, odz = max(dr, 0.0), max(dz, 0.0)
        dist = math.hypot(odr, odz)
        nx, ny = (x / rr, y / rr) if rr > 1e-12 else (1.0, 0.0)
        return dist, ((nx * odr + 0.0) / dist, (ny * odr + 0.0) / dist,
                      (0.0 * odr + math.copysign(odz, z)) / dist)

    def sample_surface(self, rng, n: int) -> tuple[np.ndarray, np.ndarray]:
        side_area = 2.0 * math.pi * self.radius * self.height
        cap_area = math.pi * self.radius ** 2
        total = side_area + 2.0 * cap_area
        region = rng.choice(3, size=n, p=[side_area / total, cap_area / total, cap_area / total])
        pts = np.empty((n, 3))
        nrm = np.empty((n, 3))
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        # stays per point: the side height and cap radius draws interleave in
        # point order, so drawing them as arrays would reorder the random stream
        for i in range(n):
            c, s = math.cos(theta[i]), math.sin(theta[i])
            if region[i] == 0:
                pts[i] = (self.radius * c, self.radius * s,
                          rng.uniform(-self.height / 2.0, self.height / 2.0))
                nrm[i] = (c, s, 0.0)
            else:
                r = self.radius * math.sqrt(rng.uniform())
                zsign = 1.0 if region[i] == 1 else -1.0
                pts[i] = (r * c, r * s, zsign * self.height / 2.0)
                nrm[i] = (0.0, 0.0, zsign)
        return pts, nrm

    def mass_properties(self, density: float) -> tuple[float, np.ndarray]:
        m = density * math.pi * self.radius ** 2 * self.height
        ir = m * (3.0 * self.radius ** 2 + self.height ** 2) / 12.0
        return m, np.diag([ir, ir, m * self.radius ** 2 / 2.0])


@dataclass(frozen=True)
class ConvexMesh(_Shape):
    """Convex hull of a vertex set; non-vertex points are ignored. A scan-only
    shape: it is sampled and rested, never simulated (see `SimObject`)."""

    points: tuple

    def __post_init__(self):
        from scipy.spatial import ConvexHull
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        hull = ConvexHull(pts)
        object.__setattr__(self, "points", tuple(map(tuple, pts)))
        object.__setattr__(self, "_simplices", pts[hull.simplices])
        _set_vertices(self, pts[hull.vertices])

    def sample_surface(self, rng, n: int) -> tuple[np.ndarray, np.ndarray]:
        tri = self._simplices
        ab = tri[:, 1] - tri[:, 0]
        ac = tri[:, 2] - tri[:, 0]
        cross = np.cross(ab, ac)
        areas = 0.5 * np.linalg.norm(cross, axis=1)
        nrms = cross / (2.0 * areas[:, None] + 1e-300)
        # orient outward (centroid is interior for a convex body)
        centroid = self.vertices().mean(axis=0)
        flip = np.einsum("ij,ij->i", nrms, tri[:, 0] - centroid) < 0.0
        nrms[flip] *= -1.0
        idx = rng.choice(len(tri), size=n, p=areas / areas.sum())
        u = rng.uniform(size=n)
        v = rng.uniform(size=n)
        swap = u + v > 1.0
        u[swap], v[swap] = 1.0 - u[swap], 1.0 - v[swap]
        pts = tri[idx, 0] + u[:, None] * ab[idx] + v[:, None] * ac[idx]
        return pts, nrms[idx]


@dataclass(frozen=True)
class Compound(_Shape):
    """Union of boxes at fixed translation offsets (L/T prisms)."""

    parts: tuple  # of (Box, offset 3-tuple)

    def __post_init__(self):
        for shape, _ in self.parts:
            if not isinstance(shape, Box):
                raise TypeError(f"Compound parts must be Box, got {type(shape).__name__}")
        vs = [shape.vertices() + np.asarray(off) for shape, off in self.parts]
        _set_vertices(self, np.vstack(vs))

    def signed_distance(self, p) -> tuple[float, tuple]:
        """The signed distance and normal of the nearest part."""
        p0, p1, p2 = p
        best = None
        for shape, off in self.parts:
            d, n = shape.signed_distance((p0 - off[0], p1 - off[1], p2 - off[2]))
            if best is None or d < best[0]:
                best = (d, n)
        return best

    def sample_surface(self, rng, n: int) -> tuple[np.ndarray, np.ndarray]:
        # oversample each part, drop points that fall inside a sibling part.
        # The largest of |p - off| - half is a box's signed distance inside it
        # and positive outside, so it gives the signed-distance decision.
        pts_all, nrm_all = [], []
        for i, (shape, off) in enumerate(self.parts):
            p, nm = shape.sample_surface(rng, n)
            p = p + np.asarray(off)
            keep = np.ones(len(p), dtype=bool)
            for j, (other, ooff) in enumerate(self.parts):
                if i == j:
                    continue
                q = np.abs(p - np.asarray(ooff)) - np.array(other._half)
                keep &= q.max(axis=1) > -1e-9
            pts_all.append(p[keep])
            nrm_all.append(nm[keep])
        pts = np.vstack(pts_all)
        nrm = np.vstack(nrm_all)
        idx = rng.choice(len(pts), size=n, replace=len(pts) < n)
        return pts[idx], nrm[idx]

    def mass_properties(self, density: float) -> tuple[float, np.ndarray]:
        m_total = 0.0
        com = np.zeros(3)
        props = []
        for shape, off in self.parts:
            m, I = shape.mass_properties(density)
            c = np.asarray(off, dtype=float)
            m_total += m
            com += m * c
            props.append((m, I, c))
        com /= m_total
        I_total = np.zeros((3, 3))
        for m, I, c in props:
            d = c - com
            I_total += I + m * ((d @ d) * np.eye(3) - np.outer(d, d))
        return m_total, I_total


@dataclass
class SimObject:
    """A rigid body of one shape at a `RigidTransform` pose; its world
    velocities are tuples of three floats and its body inertia float rows."""

    shape: object
    pose: RigidTransform
    linear_velocity: tuple = (0.0, 0.0, 0.0)
    angular_velocity: tuple = (0.0, 0.0, 0.0)
    mass: float = 1.0
    inertia: tuple = ((1e-3, 0.0, 0.0), (0.0, 1e-3, 0.0), (0.0, 0.0, 1e-3))  # body frame rows
    friction: float = 0.5
    name: str = "object"
    # the inverse of the inertia as float rows, made once with the inertia
    inverse_inertia_rows: tuple = field(init=False, repr=False, compare=False)
    # (the pose the last step wrote, the quiet ticks that ended with it)
    _rest: tuple = field(default=(None, 0), init=False, repr=False, compare=False)
    # while asleep: (the ground contact records of the tick it fell asleep,
    # its translation as floats); None while awake
    _sleep: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.shape, (Box, Cylinder, Compound)):
            raise TypeError("the simulator steps Box, Cylinder and Compound bodies, "
                            f"not {type(self.shape).__name__}")
        self.linear_velocity = tuple(map(float, np.reshape(self.linear_velocity, 3)))
        self.angular_velocity = tuple(map(float, np.reshape(self.angular_velocity, 3)))
        I = np.array(self.inertia, dtype=float).reshape(3, 3)
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        # the step inverts the inertia; an indefinite one is no rigid body
        if not (np.all(np.isfinite(I)) and np.max(np.abs(I - I.T)) <= 1e-12 * np.max(np.abs(I))
                and np.linalg.eigvalsh(I)[0] > 0.0):
            raise ValueError("inertia must be symmetric positive definite")
        self.inertia = tuple(map(tuple, I.tolist()))
        self.inverse_inertia_rows = tuple(map(tuple, np.linalg.inv(I).tolist()))

    @staticmethod
    def from_shape(shape, pose: RigidTransform) -> "SimObject":
        """The shape as a body of OBJECT_DENSITY."""
        m, I = shape.mass_properties(OBJECT_DENSITY)
        return SimObject(shape, pose, mass=m, inertia=I)

    @property
    def asleep(self) -> bool:
        """Whether `step` holds the object at rest (see the module docstring)."""
        return self._sleep is not None

    def copy(self) -> "SimObject":
        # the fields are shared: a step replaces the pose, the velocities and
        # the sleep state whole and writes none of them in place
        return copy.copy(self)


def rest_pose_on_ground(shape, xy=(0.0, 0.0), yaw: float = 0.0,
                        config: StackConfig | None = None,
                        mass: float | None = None) -> RigidTransform:
    """Pose with the shape resting on z=0. Given the config and the mass, it
    is settled to penalty equilibrium under the config's gravity, each
    support vertex a spring of the stiffness that `step` gives an
    object-ground contact (`_contact_law`)."""
    R = euler_zyx_to_matrix(0.0, 0.0, yaw)
    verts = shape.vertices() @ R.T
    zmin = float(verts[:, 2].min())
    z = -zmin
    if config is not None and mass is not None:
        n = max(int(np.sum(verts[:, 2] < zmin + 1e-9)), 1)  # support vertices
        k, _ = _contact_law(config.contact, mass / n, config.sim.dt)
        z -= mass * config.sim.gravity / (k * n)
    return RigidTransform(R, np.array([xy[0], xy[1], z]))


# ---------------------------------------------------------------------------
# world


@dataclass(slots=True)
class ContactRecord:
    penetration: float
    normal_force: float
    tangential_force: float
    bodies: tuple


@dataclass
class RobotState:
    """The trunk, the legs and the feet, whose world points and velocities
    are four rows each, a row a tuple of three floats."""

    srb: SrbState
    legs: list
    feet_pos: tuple
    feet_vel: tuple

    def __post_init__(self):
        self.feet_pos, self.feet_vel = (
            tuple(tuple(map(float, r)) for r in np.reshape(rows, (4, 3)))
            for rows in (self.feet_pos, self.feet_vel))

    def copy(self) -> "RobotState":
        return RobotState(self.srb.copy(), [l.copy() for l in self.legs],
                          self.feet_pos, self.feet_vel)


@dataclass
class WorldState:
    robot: RobotState
    objects: list
    time: float = 0.0
    contact_set: list = field(default_factory=list)
    config: StackConfig = field(default_factory=StackConfig)
    gravity_enabled: bool = True
    ground_enabled: bool = True
    fixed_base: bool = False  # fixture mode: trunk held rigidly in place
    _steps: int = 0

    def copy(self) -> "WorldState":
        w = WorldState(self.robot.copy(), [o.copy() for o in self.objects],
                       self.time, list(self.contact_set), self.config,
                       self.gravity_enabled, self.ground_enabled, self.fixed_base,
                       self._steps)
        return w


def standing_world(config: StackConfig | None = None, objects=()) -> WorldState:
    """Robot standing level at the stand height with feet under the
    shoulders, touching z=0. The config must pass `check_config`."""
    config = config or StackConfig()
    check_config(config)
    zero = (0.0, 0.0, 0.0)
    srb = SrbState(zero, (0.0, 0.0, config.mpc.stand_height), zero, zero)
    world = WorldState(RobotState(srb, make_legs(config.robot), (zero,) * 4, (zero,) * 4),
                       list(objects), config=config)
    seat_feet(world)
    return world


def seat_feet(world: WorldState) -> None:
    """Put every foot at rest on the ground under its shoulder, for the
    current trunk pose, and solve the joint angles to match. The leg sync
    runs on float lists, and the trunk velocities and the feet are written
    back once after it, as in `step`."""
    robot = world.robot
    srb = robot.srb
    feet_p = []
    for leg in robot.legs:
        x, y, _ = shoulder_point(leg, srb).tolist()
        feet_p.append([x, y, world.config.robot.foot_radius])
    feet_v = [[0.0, 0.0, 0.0] for _ in feet_p]
    v, w = list(srb.linear_velocity), list(srb.angular_velocity)
    _sync_legs(world, srb.rotation_rows, srb.position, v, w, feet_p, feet_v)
    srb.linear_velocity, srb.angular_velocity = tuple(v), tuple(w)
    robot.feet_pos, robot.feet_vel = tuple(map(tuple, feet_p)), tuple(map(tuple, feet_v))


def _sync_legs(world: WorldState, R, pos, v, w, feet_p, feet_v) -> None:
    """Recompute joint angles from foot points and write each leg's Jacobian
    rows with the angles just solved; feet that drifted out of the workspace
    ride with the trunk at their joint stops.

    The trunk and feet come in as the caller's floats: the rows of the trunk
    rotation, the trunk position, the velocity lists v and w, and the lists
    of the feet's point and velocity rows. A leg at its joint stops moves its
    foot in feet_p and feet_v and, on a free trunk, corrects v and w so that
    the robot's linear and angular momentum are kept; the caller writes them
    back. Of the robot, only each leg's joint angles and their Jacobian rows
    are written here."""
    rc = world.config.robot
    mf = rc.foot_mass
    I0, I1, I2 = rc.trunk_inertia
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R
    p0, p1, p2 = pos
    for i, leg in enumerate(world.robot.legs):
        o0, o1, o2 = off = leg.hip_offset
        fp = feet_p[i]
        # the foot from the hip point pos + R off, in the trunk frame
        e0 = fp[0] - (p0 + (r00 * o0 + r01 * o1 + r02 * o2))
        e1 = fp[1] - (p1 + (r10 * o0 + r11 * o1 + r12 * o2))
        e2 = fp[2] - (p2 + (r20 * o0 + r21 * o1 + r22 * o2))
        q = _ik_local((r00 * e0 + r10 * e1 + r20 * e2, r01 * e0 + r11 * e1 + r21 * e2,
                       r02 * e0 + r12 * e1 + r22 * e2),
                      leg.side, *leg.link_lengths, leg.joint_limits)
        if q is None:
            # joint stops engaged: freeze the joints and let the foot ride
            # with the trunk this step, with a paired momentum correction on
            # a free trunk (a fixed base absorbs it)
            local = _fk_local(*leg.joint_angles, leg.side, *leg.link_lengths)
            b = matvec3(R, [off[k] + local[k] for k in range(3)])
            p_new = [pos[k] + b[k] for k in range(3)]
            c = cross3(w, [p_new[k] - pos[k] for k in range(3)])
            v_new = [v[k] + c[k] for k in range(3)]
            if not world.fixed_base:
                dv = [v_new[k] - feet_v[i][k] for k in range(3)]
                v[:] = [v[k] - dv[k] * mf / rc.trunk_mass for k in range(3)]
                # the spin takes the rest of the foot's change of angular
                # momentum, -mf (p_new x v_new - p_old x v_old) + mf pos x dv,
                # through the world inverse inertia R diag(I)^-1 R'
                a, o, t = cross3(p_new, v_new), cross3(fp, feet_v[i]), cross3(pos, dv)
                Lb = matvec3_t(R, [mf * (t[k] - (a[k] - o[k])) for k in range(3)])
                dw = matvec3(R, (Lb[0] / I0, Lb[1] / I1, Lb[2] / I2))
                w[:] = [w[k] + dw[k] for k in range(3)]
            feet_p[i] = p_new
            feet_v[i] = v_new
            continue
        leg.joint_angles = q
        # the controllers' tick and the next step read this Jacobian
        leg.jacobian_rows = _jac_local(*q, leg.side, *leg.link_lengths)


def _contact_law(cc: ContactConfig, m_eff: float, dt: float) -> tuple:
    """Stiffness k and damping d of a penalty contact on the effective mass
    m_eff: the normal force is k pen + d pen_rate, and a contact without a
    positive force is dropped. The damper is clamped by the effective mass so
    light bodies stay stable under explicit integration at the configured dt.
    `step` takes the pair once per contact kind and tick."""
    return cc.k_normal, min(cc.d_normal, 0.25 * m_eff / dt)


# friction contact kinds; a contact between the normal pass and the impulse
# pass is (kind, foot, object index, r, normal, Coulomb budget, record): r is
# the contact point's offset from the object's origin (None for a foot on the
# ground) and the budget mu * fn * dt is the tick's cap on the summed impulse
_FOOT_GROUND, _OBJ_GROUND, _FOOT_OBJ = "foot_ground", "obj_ground", "foot_obj"
# the record's body names, made once
_FOOT_NAMES = tuple(f"foot_{i}" for i in range(4))
_FOOT_GROUND_BODIES = tuple((name, "ground") for name in _FOOT_NAMES)


def _abs_max(values: list) -> float:
    """np.max(np.abs(values)) on floats: NaN when any value is NaN."""
    if any(map(math.isnan, values)):
        return math.nan
    return max(map(abs, values))


def _check_speeds(speeds: list) -> None:
    """Raise SimulationDivergence when a velocity component is NaN, infinite
    or past _VEL_LIMIT in magnitude, in one pass: a NaN fails both
    comparisons, as an infinity fails one. The message reports `_abs_max`."""
    for x in speeds:
        if not -_VEL_LIMIT <= x <= _VEL_LIMIT:
            raise SimulationDivergence(
                f"velocity {_abs_max(speeds):.1f} m/s exceeds the plausibility limit")


def _feet_near(feet_p, t, far: float) -> list:
    """(foot, its centre's offset from t) for each foot whose centre is within
    `far` of the point t. With t an object's origin and `far` its bound, the
    shape's `_radius` plus the foot radius, every other foot is provably out
    of contact with the object (see `_set_vertices`): `step` skips its signed
    distance, and an object with no foot near may sleep."""
    t0, t1, t2 = t
    far2 = far * far
    near = []
    for i, fp in enumerate(feet_p):
        d = (fp[0] - t0, fp[1] - t1, fp[2] - t2)
        if not dot3(d, d) > far2:
            near.append((i, d))
    return near


def _friction_pass(fric, objects, feet_v, obj_v, obj_w, obj_L, obj_I_inv,
                   mf: float, dt: float) -> None:
    """Friction impulses: project the tangential relative velocity, capped by
    Coulomb. Two Gauss-Seidel sweeps in contact order, so corner contacts of
    one body stop cleanly instead of trading residual momentum; the Coulomb
    budget is shared across sweeps.

    Works on floats: object i has velocity obj_v[i], angular velocity
    obj_w[i], momentum obj_L[i] and world inverse inertia rows obj_I_inv[i].
    Updates the velocities, the momenta and each contact record's tangential
    force in place. The 3-vector components are written out: a comprehension
    or a helper call per vector cost more than its arithmetic."""
    inv_mf = 1.0 / mf
    inv_m = [1.0 / obj.mass for obj in objects]
    applied = [0.0] * len(fric)
    for _sweep in range(2):
        for ci, (kind, foot, oi, r, n, budget, rec) in enumerate(fric):
            if kind is _FOOT_GROUND:
                v0, v1, v2 = feet_v[foot]
            else:
                # the object's point velocity v + w x r
                r0, r1, r2 = r
                w0, w1, w2 = obj_w[oi]
                u = obj_v[oi]
                v0 = u[0] + (w1 * r2 - w2 * r1)
                v1 = u[1] + (w2 * r0 - w0 * r2)
                v2 = u[2] + (w0 * r1 - w1 * r0)
                if kind is _FOOT_OBJ:
                    fv = feet_v[foot]
                    v0, v1, v2 = fv[0] - v0, fv[1] - v1, fv[2] - v2
            n0, n1, n2 = n
            vn = v0 * n0 + v1 * n1 + v2 * n2
            t0, t1, t2 = v0 - vn * n0, v1 - vn * n1, v2 - vn * n2
            speed = math.sqrt(t0 * t0 + t1 * t1 + t2 * t2)
            if speed < 1e-12:
                continue
            h0, h1, h2 = t0 / speed, t1 / speed, t2 / speed
            if kind is _FOOT_GROUND:
                k_inv = inv_mf
            else:
                (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = obj_I_inv[oi]
                x0, x1, x2 = r1 * h2 - r2 * h1, r2 * h0 - r0 * h2, r0 * h1 - r1 * h0
                k_inv = inv_m[oi] + (x0 * (a00 * x0 + a01 * x1 + a02 * x2)
                                     + x1 * (a10 * x0 + a11 * x1 + a12 * x2)
                                     + x2 * (a20 * x0 + a21 * x1 + a22 * x2))
                if kind is _FOOT_OBJ:
                    k_inv = inv_mf + k_inv
            j = min(speed / k_inv, max(budget - applied[ci], 0.0))
            if j <= 0.0:
                continue
            applied[ci] += j
            rec.tangential_force = applied[ci] / dt
            i0, i1, i2 = -j * h0, -j * h1, -j * h2
            if kind is not _OBJ_GROUND:
                fv = feet_v[foot]
                fv[0], fv[1], fv[2] = fv[0] + i0 / mf, fv[1] + i1 / mf, fv[2] + i2 / mf
            if kind is not _FOOT_GROUND:
                v, L = obj_v[oi], obj_L[oi]
                # r x imp
                c0, c1, c2 = r1 * i2 - r2 * i1, r2 * i0 - r0 * i2, r0 * i1 - r1 * i0
                m = objects[oi].mass
                if kind is _OBJ_GROUND:
                    v[0], v[1], v[2] = v[0] + i0 / m, v[1] + i1 / m, v[2] + i2 / m
                    L[0], L[1], L[2] = L[0] + c0, L[1] + c1, L[2] + c2
                else:
                    v[0], v[1], v[2] = v[0] - i0 / m, v[1] - i1 / m, v[2] - i2 / m
                    L[0], L[1], L[2] = L[0] - c0, L[1] - c1, L[2] - c2
                L0, L1, L2 = L
                obj_w[oi] = [a00 * L0 + a01 * L1 + a02 * L2, a10 * L0 + a11 * L1 + a12 * L2,
                             a20 * L0 + a21 * L1 + a22 * L2]


def step(world: WorldState, joint_torques) -> WorldState:
    """Advance the world one step of the config's `sim.dt` under 12 commanded
    joint torques (4 legs x 3), given as 12 numbers.

    Normal contact is penalty spring-damper; friction is a per-contact
    tangential impulse capped at mu*fn*dt (Coulomb), applied to the updated
    velocities, which gives true static grip without the stability limits of
    an explicit friction slope. Mutates and returns the same WorldState.
    Raises SimulationDivergence when any velocity exceeds the plausibility
    limit.
    """
    cfg = world.config
    dt = cfg.sim.dt
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    tau = list(map(float, joint_torques))
    if len(tau) != 12:
        raise ValueError(f"expected 12 joint torques, got {len(tau)}")
    if not all(map(math.isfinite, tau)):
        raise ValueError("joint torques must be finite")
    robot = world.robot
    srb = robot.srb
    cc = cfg.contact
    rc = cfg.robot
    mf = rc.foot_mass
    rf = rc.foot_radius
    g = cfg.sim.gravity if world.gravity_enabled else 0.0
    gz = -g  # gravity vector (0, 0, gz)
    mu_ground = cc.friction

    # the state as floats, read once; the lists the tick updates in place
    R = srb.rotation_rows
    pos = srb.position
    v = list(srb.linear_velocity)
    w = list(srb.angular_velocity)
    feet_p = robot.feet_pos
    feet_v = [list(fv) for fv in robot.feet_vel]
    m_trunk = rc.trunk_mass
    trunk_force = [0.0, 0.0, m_trunk * gz]
    trunk_torque = [0.0, 0.0, 0.0]
    feet_force = []
    contacts: list[ContactRecord] = []
    fric: list[tuple] = []

    # actuator tip forces (massless legs transmit the reaction to the trunk)
    p0, p1, p2 = pos
    for fp, (f0, f1, f2) in zip(feet_p, _tip_forces(R, robot.legs, tau)):
        feet_force.append([f0, f1, f2 + mf * gz])
        d0, d1, d2 = fp[0] - p0, fp[1] - p1, fp[2] - p2
        c0, c1, c2 = d1 * f2 - d2 * f1, d2 * f0 - d0 * f2, d0 * f1 - d1 * f0
        trunk_force[0] -= f0
        trunk_force[1] -= f1
        trunk_force[2] -= f2
        trunk_torque[0] -= c0
        trunk_torque[1] -= c1
        trunk_torque[2] -= c2

    up_f = (0.0, 0.0, 1.0)
    if world.ground_enabled:
        k_foot, d_foot = _contact_law(cc, mf, dt)
        for i in range(4):
            pen = rf - feet_p[i][2]
            if pen <= 0.0:
                continue
            fn = k_foot * pen + d_foot * -feet_v[i][2]
            if fn <= 0.0:
                continue
            feet_force[i][2] += fn
            rec = ContactRecord(pen, fn, 0.0, _FOOT_GROUND_BODIES[i])
            contacts.append(rec)
            fric.append((_FOOT_GROUND, i, -1, None, up_f, mu_ground * fn * dt, rec))

    # an object sleeps through a tick when it was asleep and nothing wakes it:
    # its pose is the one it fell asleep in, its velocities are still zero,
    # ground and gravity are on and no foot is near. It keeps its ground
    # contact records and is not stepped. A woken object is stepped in full
    # and counts its quiet ticks from zero
    sleep_ticks = max(1, round(SLEEP_TIME / dt))
    may_sleep = world.ground_enabled and world.gravity_enabled
    awake = []
    # per awake object, float state: rotation rows, translation, velocity,
    # angular velocity and momentum, world inverse inertia rows and, when the
    # tick may count toward its sleep, (first and end index of its ground
    # contacts, quiet ticks so far), else None
    obj_R, obj_t, obj_v, obj_w, obj_L, obj_I_inv, obj_calm = [], [], [], [], [], [], []
    for obj in world.objects:
        far = obj.shape._radius + rf
        asleep = obj._sleep
        if asleep is not None:
            if (may_sleep and obj.pose is obj._rest[0] and not any(obj.linear_velocity)
                    and not any(obj.angular_velocity)
                    and not _feet_near(feet_p, asleep[1], far)):
                contacts.extend(asleep[0])
                continue
            obj._sleep = None
            obj._rest = (obj._rest[0], 0)
        oi = len(awake)
        awake.append(obj)
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = Ro = obj.pose.rotation.tolist()
        t0, t1, t2 = t = obj.pose.translation.tolist()
        v_o = list(obj.linear_velocity)
        w_o = obj.angular_velocity
        m = obj.mass
        mu = min(obj.friction, mu_ground)
        force = [0.0, 0.0, m * gz] if world.gravity_enabled else [0.0, 0.0, 0.0]
        torque = [0.0, 0.0, 0.0]
        first = len(contacts)
        if world.ground_enabled:
            # the world points of the vertices under the ground plane
            below = []
            for x, y, z in obj.shape._vert_rows:
                pz = r20 * x + r21 * y + r22 * z + t2
                if pz < 0.0:
                    below.append((r00 * x + r01 * y + r02 * z + t0,
                                  r10 * x + r11 * y + r12 * z + t1, pz))
            if below:
                k_sup, d_sup = _contact_law(cc, m / len(below), dt)
                bodies = (obj.name, "ground")
            for p in below:
                x0, x1, x2 = p[0] - t0, p[1] - t1, p[2] - t2
                vz = v_o[2] + (w_o[0] * x1 - w_o[1] * x0)
                fn = k_sup * -p[2] + d_sup * -vz
                if fn <= 0.0:
                    continue
                # r x (fn * up)
                force[2] += fn
                torque[0] += x1 * fn
                torque[1] -= x0 * fn
                rec = ContactRecord(-p[2], fn, 0.0, bodies)
                contacts.append(rec)
                fric.append((_OBJ_GROUND, -1, oi, (x0, x1, x2), up_f, mu * fn * dt, rec))
        end = len(contacts)
        near = _feet_near(feet_p, t, far)
        rest_pose, quiet = obj._rest
        obj_calm.append((first, end, quiet if obj.pose is rest_pose else 0)
                        if may_sleep and end > first and not near else None)
        k_red, d_red = _contact_law(cc, mf * m / (mf + m), dt)  # a foot on the object
        for i, d in near:
            fp, fv = feet_p[i], feet_v[i]
            sd, nl = obj.shape.signed_distance(matvec3_t(Ro, d))
            pen = rf - sd
            if pen <= 0.0:
                continue
            n0, n1, n2 = n = matvec3(Ro, nl)
            # the contact point, its offset r from the object origin and the
            # object's velocity v + w x r there
            r0 = (fp[0] - n0 * sd) - t0
            r1 = (fp[1] - n1 * sd) - t1
            r2 = (fp[2] - n2 * sd) - t2
            w0, w1, w2 = w_o
            pen_rate = -(n0 * (fv[0] - (v_o[0] + (w1 * r2 - w2 * r1)))
                         + n1 * (fv[1] - (v_o[1] + (w2 * r0 - w0 * r2)))
                         + n2 * (fv[2] - (v_o[2] + (w0 * r1 - w1 * r0))))
            fn = k_red * pen + d_red * pen_rate
            if fn <= 0.0:
                continue
            f = (fn * n0, fn * n1, fn * n2)
            c = cross3((r0, r1, r2), f)
            ff = feet_force[i]
            for k in range(3):
                ff[k] += f[k]
                force[k] -= f[k]
                torque[k] -= c[k]
            rec = ContactRecord(pen, fn, 0.0, (_FOOT_NAMES[i], obj.name))
            contacts.append(rec)
            fric.append((_FOOT_OBJ, i, oi, (r0, r1, r2), n, mu * fn * dt, rec))
        # velocity integration (the pose updates after the friction pass); the
        # world inertia and its inverse are Ro I^(+-1) Ro' of the body rows
        Lw = matvec3(Ro, matvec3(obj.inertia, matvec3_t(Ro, w_o)))
        L = [Lw[0] + torque[0] * dt, Lw[1] + torque[1] * dt, Lw[2] + torque[2] * dt]
        I_inv = _sandwich(Ro, obj.inverse_inertia_rows)
        v_o[0] += force[0] / m * dt
        v_o[1] += force[1] / m * dt
        v_o[2] += force[2] / m * dt
        obj_R.append(Ro)
        obj_t.append(t)
        obj_v.append(v_o)
        obj_w.append(matvec3(I_inv, L))
        obj_L.append(L)
        obj_I_inv.append(I_inv)

    # the trunk's and the feet's velocity integration
    I0, I1, I2 = rc.trunk_inertia
    if not world.fixed_base:
        wb = matvec3_t(R, w)
        Lw = matvec3(R, (I0 * wb[0], I1 * wb[1], I2 * wb[2]))
        L_trunk = [Lw[0] + trunk_torque[0] * dt, Lw[1] + trunk_torque[1] * dt,
                   Lw[2] + trunk_torque[2] * dt]
        v = [v[0] + trunk_force[0] / m_trunk * dt, v[1] + trunk_force[1] / m_trunk * dt,
             v[2] + trunk_force[2] / m_trunk * dt]
    for fv, ff in zip(feet_v, feet_force):
        fv[0] += ff[0] / mf * dt
        fv[1] += ff[1] / mf * dt
        fv[2] += ff[2] / mf * dt

    _friction_pass(fric, awake, feet_v, obj_v, obj_w, obj_L, obj_I_inv, mf, dt)

    # position/orientation integration with post-impulse velocities
    renorm = world._steps % _RENORM_EVERY == 0
    if not world.fixed_base:
        pos = [pos[0] + v[0] * dt, pos[1] + v[1] * dt, pos[2] + v[2] * dt]
        Lb = matvec3_t(R, L_trunk)
        w_mid = matvec3(R, (Lb[0] / I0, Lb[1] / I1, Lb[2] / I2))
        R_new = matmul3(_rotation_exp(w_mid[0] * dt, w_mid[1] * dt, w_mid[2] * dt), R)
        if renorm:
            R_new = orthonormalize(np.array(R_new)).tolist()
        try:
            rpy = matrix_to_euler_zyx(R_new)
        except GimbalLockError as e:
            raise SimulationDivergence(
                f"trunk orientation left the valid envelope: {e}") from e
        Lb = matvec3_t(R_new, L_trunk)
        w = matvec3(R_new, (Lb[0] / I0, Lb[1] / I1, Lb[2] / I2))
        R = tuple(map(tuple, R_new))

    for oi, obj in enumerate(awake):
        Ro, t, v_o, L = obj_R[oi], obj_t[oi], obj_v[oi], obj_L[oi]
        w_mid = obj_w[oi]
        Ro_new = matmul3(_rotation_exp(w_mid[0] * dt, w_mid[1] * dt, w_mid[2] * dt), Ro)
        if renorm:
            Ro_new = orthonormalize(np.array(Ro_new)).tolist()
        w_o = matvec3(Ro_new, matvec3(obj.inverse_inertia_rows, matvec3_t(Ro_new, L)))
        t = [t[0] + v_o[0] * dt, t[1] + v_o[1] * dt, t[2] + v_o[2] * dt]
        pose = obj.pose = RigidTransform.from_arrays(np.array(Ro_new), np.array(t))
        calm = obj_calm[oi]
        quiet = 0
        if (calm is not None
                and all(-SLEEP_LINEAR_TOL < x < SLEEP_LINEAR_TOL for x in v_o)
                and all(-SLEEP_ANGULAR_TOL < x < SLEEP_ANGULAR_TOL for x in w_o)):
            quiet = calm[2] + 1
        if quiet >= sleep_ticks:
            # asleep: exactly zero velocities, read-only pose arrays (the pose
            # just made) and the tick's ground contact records
            v_o = w_o = (0.0, 0.0, 0.0)
            pose.rotation.flags.writeable = pose.translation.flags.writeable = False
            obj._sleep = (tuple(contacts[calm[0]:calm[1]]), t)
        obj.linear_velocity, obj.angular_velocity = tuple(v_o), tuple(w_o)
        obj._rest = (pose, quiet)

    feet_p = [[fp[0] + fv[0] * dt, fp[1] + fv[1] * dt, fp[2] + fv[2] * dt]
              for fp, fv in zip(feet_p, feet_v)]
    world._steps += 1
    _sync_legs(world, R, pos, v, w, feet_p, feet_v)
    # the one write-back of the trunk and the feet, after the leg sync
    if not world.fixed_base:
        srb.rpy, srb.rotation_rows = rpy, R
    srb.position, srb.linear_velocity, srb.angular_velocity = tuple(pos), tuple(v), tuple(w)
    robot.feet_pos = tuple(map(tuple, feet_p))
    robot.feet_vel = tuple(map(tuple, feet_v))
    world.contact_set = contacts
    world.time += dt

    speeds = [*v, *feet_v[0], *feet_v[1], *feet_v[2], *feet_v[3]]
    for v_o in obj_v:
        speeds += v_o
    _check_speeds(speeds)
    return world


def momentum(world: WorldState) -> np.ndarray:
    """The linear and angular momentum about the origin of the trunk, the
    feet and each object, as six values. Each object's terms are added after
    the robot's, one at a time: m_o v_o to the linear, then its spin
    Ro I Ro' w_o and then m_o t x v_o to the angular momentum."""
    rc, rb = world.config.robot, world.robot
    m, mf, srb = rc.trunk_mass, rc.foot_mass, rb.srb
    R = srb.rotation()
    v, feet_v = np.array(srb.linear_velocity), np.array(rb.feet_vel)
    lin = m * v + mf * feet_v.sum(axis=0)
    ang = (R @ np.diag(rc.trunk_inertia) @ R.T @ np.array(srb.angular_velocity)
           + m * np.cross(srb.position, v)
           + mf * np.cross(rb.feet_pos, feet_v).sum(axis=0))
    for obj in world.objects:
        Ro, v_o = obj.pose.rotation, np.array(obj.linear_velocity)
        lin = lin + obj.mass * v_o
        ang = ang + Ro @ np.array(obj.inertia) @ Ro.T @ np.array(obj.angular_velocity)
        ang = ang + obj.mass * np.cross(obj.pose.translation, v_o)
    return np.concatenate([lin, ang])


# ---------------------------------------------------------------------------
# quasi-static push classification (diagnostic)


def quasi_static_push_check(obj: SimObject, contact_point, push_dir,
                            ground_friction: float = 0.5) -> str:
    """Classify the expected planar motion mode of a resting object under a
    point push: 'translate', 'rotate' (about z) or 'tip'.

    Raises ValueError when the contact point is not on the object surface
    (1e-3 m tolerance).
    """
    cp = np.asarray(contact_point, dtype=float)
    d = np.asarray(push_dir, dtype=float)
    Ro, to = obj.pose.rotation, obj.pose.translation
    sd, _ = obj.shape.signed_distance(Ro.T @ (cp - to))
    if abs(sd) > 1e-3:
        raise ValueError(f"contact point is {sd:.4f} m from the object surface")
    d_h = d.copy()
    d_h[2] = 0.0
    if np.linalg.norm(d_h) < 1e-9:
        return "translate"
    d_h /= np.linalg.norm(d_h)

    verts = obj.shape.vertices() @ Ro.T + to
    zmin = verts[:, 2].min()
    support = verts[np.abs(verts[:, 2] - zmin) < 1e-6]
    com_xy = to[:2]

    # tipping about the leading support edge: at the sliding force limit the
    # push moment beats the gravity restoring moment when mu*h > lever
    lever = float(np.max((support[:, :2] - com_xy) @ d_h[:2]))
    h_c = cp[2] - zmin
    mu = min(obj.friction, ground_friction)
    if mu * h_c > lever:
        return "tip"

    # yaw moment: offset of the push line of action from the COM
    r = cp[:2] - com_xy
    e = abs(r[0] * d_h[1] - r[1] * d_h[0])
    extent = float(np.max(np.linalg.norm(support[:, :2] - com_xy, axis=1)))
    return "rotate" if e > 0.25 * extent else "translate"
