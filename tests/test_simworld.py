import copy
import itertools
import math
import operator
import pickle

import numpy as np
import pytest

from legpress import harness, orchestrator, simworld
from legpress.cli import SIM_CHECKS, _stop_scene
from legpress.config import StackConfig
from legpress.geom import (
    GIMBAL_MARGIN,
    GimbalLockError,
    RigidTransform,
    cross3,
    euler_zyx_to_matrix,
    matrix_to_euler_zyx,
    rotation_exp,
)
from legpress.simworld import (
    Box,
    Compound,
    ConvexMesh,
    Cylinder,
    RobotState,
    SimObject,
    SimulationDivergence,
    SrbState,
    leg_forward_kinematics,
    leg_inverse_kinematics,
    make_legs,
    quasi_static_push_check,
    rest_pose_on_ground,
    standing_world,
    step,
)
from legpress.mpc import stance_torques
from legpress.swingctl import impedance_torque_tracking
from posing import posed


ALL_STANCE = (True, True, True, True)


def default_leg(i=0):
    return make_legs(StackConfig().robot)[i]


def level_trunk(pos=(0.0, 0.0, 0.3)):
    return SrbState(np.zeros(3), np.array(pos, dtype=float), np.zeros(3), np.zeros(3))


def _with_row(rows, i, row) -> tuple:
    """The feet rows with row i replaced: a new tuple of float rows, the
    form `step` writes."""
    return tuple(tuple(map(float, row)) if k == i else r for k, r in enumerate(rows))


def _send_robot_away(world) -> None:
    """The trunk set to x = -2 m and the feet moved 2 m back with it, far
    from an object in front of the standing robot."""
    srb = world.robot.srb
    srb.position = (-2.0, *srb.position[1:])
    world.robot.feet_pos = tuple((x - 2.0, y, z) for x, y, z in world.robot.feet_pos)


def leg_jacobian_local(leg):
    """Trunk-frame Jacobian of one leg (no trunk rotation applied)."""
    return np.array(leg.jacobian_rows)


def leg_jacobian(leg, trunk):
    """World-frame 3x3 Jacobian d(foot position)/d(joint angles)."""
    return trunk.rotation() @ leg_jacobian_local(leg)


def random_valid_q(rng, leg):
    # stay inside limits with margin; avoid the straight-knee singularity
    q = np.empty(3)
    for j, (lo, hi) in enumerate(leg.joint_limits):
        q[j] = rng.uniform(lo + 0.05, hi - 0.05)
    q[2] = min(q[2], -0.15)
    return q


# -- forward kinematics -----------------------------------------------------


def test_fk_zero_configuration_straight_leg():
    leg = posed(default_leg(0), np.zeros(3))
    trunk = level_trunk((0, 0, 0))
    p = leg_forward_kinematics(leg, trunk)
    l_abd, lt, lc = leg.link_lengths
    expected = np.array(leg.hip_offset) + np.array([0.0, leg.side * l_abd, -(lt + lc)])
    assert np.max(np.abs(p - expected)) < 1e-12


def test_fk_right_knee_bend_matches_hand_geometry():
    # knee at -pi/2, hip pitch 0: planar two-link, calf folded backward
    leg = posed(default_leg(0), (0.0, 0.0, -math.pi / 2))
    trunk = level_trunk((0, 0, 0))
    l_abd, lt, lc = leg.link_lengths
    p = leg_forward_kinematics(leg, trunk)
    expected = np.array(leg.hip_offset) + np.array([lc, leg.side * l_abd, -lt])
    assert np.max(np.abs(p - expected)) < 1e-12


def test_fk_respects_trunk_pose():
    leg = posed(default_leg(1), (0.2, 0.6, -1.1))
    trunk = SrbState(np.array([0.1, -0.05, 0.7]), np.array([0.4, -0.2, 0.33]),
                     np.zeros(3), np.zeros(3))
    p = leg_forward_kinematics(leg, trunk)
    # independent recomputation from scratch
    R = euler_zyx_to_matrix(*trunk.rpy)
    l_abd, lt, lc = leg.link_lengths
    q1, q2, q3 = leg.joint_angles
    local = np.array([
        -lt * math.sin(q2) - lc * math.sin(q2 + q3),
        0, 0,
    ])
    w = np.array([-lt * math.sin(q2) - lc * math.sin(q2 + q3),
                  leg.side * l_abd,
                  -lt * math.cos(q2) - lc * math.cos(q2 + q3)])
    Rx = euler_zyx_to_matrix(q1, 0, 0)
    expected = trunk.position + R @ (np.array(leg.hip_offset) + Rx @ w)
    assert np.max(np.abs(p - expected)) < 1e-12


# -- jacobian ----------------------------------------------------------------


def test_jacobian_finite_difference_1000_configs():
    rng = np.random.default_rng(21)
    trunk = SrbState(np.array([0.05, -0.03, 0.4]), np.array([0.1, 0.0, 0.3]),
                     np.zeros(3), np.zeros(3))
    worst = 0.0
    for _ in range(1000):
        leg = default_leg(int(rng.integers(4)))
        leg = posed(leg, random_valid_q(rng, leg))
        J = leg_jacobian(leg, trunk)
        scale = max(1.0, np.max(np.abs(J)))
        eps = 1e-6
        for j in range(3):
            dq = eps * np.eye(3)[j]
            p_plus = leg_forward_kinematics(posed(leg, np.array(leg.joint_angles) + dq), trunk)
            p_minus = leg_forward_kinematics(posed(leg, np.array(leg.joint_angles) - dq), trunk)
            fd = (p_plus - p_minus) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(fd - J[:, j])) / scale))
    assert worst < 1e-4


def test_jacobian_singular_when_fully_extended():
    leg = posed(default_leg(0), (0.1, 0.4, 0.0))  # straight knee
    J = leg_jacobian(leg, level_trunk())
    assert abs(np.linalg.det(J)) < 1e-9


def test_jacobian_hip_roll_column_perpendicular_to_leg_plane():
    # with zero hip roll the leg plane is the trunk x-z plane; the roll column
    # must be orthogonal to it (pure y motion has zero x component)
    leg = posed(default_leg(0), (0.0, 0.7, -1.2))
    J = leg_jacobian(leg, level_trunk())
    col = J[:, 0]
    assert abs(col[0]) < 1e-12
    plane_normal = np.array([0.0, 1.0, 0.0])
    assert abs(np.dot(col, plane_normal)) > 0.9 * np.linalg.norm(col)


def test_fk_linearization_error_second_order():
    rng = np.random.default_rng(22)
    trunk = level_trunk()
    for _ in range(100):
        leg = default_leg(int(rng.integers(4)))
        leg = posed(leg, random_valid_q(rng, leg))
        q0 = np.array(leg.joint_angles)
        p0 = leg_forward_kinematics(leg, trunk)
        J = leg_jacobian(leg, trunk)
        delta = rng.normal(size=3) * 1e-6
        p1 = leg_forward_kinematics(posed(leg, q0 + delta), trunk)
        err = np.linalg.norm(p1 - p0 - J @ delta)
        assert err < 10.0 * np.dot(delta, delta) ** 1.0 * 1e6 * 1e-6  # O(|delta|^2)
        assert err < 1e-11


# -- inverse kinematics -------------------------------------------------------


def test_ik_round_trip_current_configuration():
    rng = np.random.default_rng(23)
    trunk = level_trunk()
    for _ in range(50):
        leg = default_leg(int(rng.integers(4)))
        leg = posed(leg, random_valid_q(rng, leg))
        target = leg_forward_kinematics(leg, trunk)
        q = leg_inverse_kinematics(target, leg, trunk)
        assert q is not None
        assert np.linalg.norm(leg_forward_kinematics(posed(leg, q), trunk) - target) < 1e-6


def test_ik_gross_out_of_reach_is_unreachable():
    leg = default_leg(0)
    trunk = level_trunk((0, 0, 0.3))
    hip = trunk.position + np.array(leg.hip_offset)
    assert leg_inverse_kinematics(hip + np.array([10.0, 0.0, -0.1]), leg, trunk) is None


def test_ik_1000_random_reachable_targets():
    rng = np.random.default_rng(24)
    trunk = level_trunk()
    count = 0
    while count < 1000:
        leg = default_leg(int(rng.integers(4)))
        target = leg_forward_kinematics(posed(leg, random_valid_q(rng, leg)), trunk)
        q = leg_inverse_kinematics(target, leg, trunk)
        assert q is not None, f"target from valid q reported unreachable: {target}"
        assert np.linalg.norm(leg_forward_kinematics(posed(leg, q), trunk) - target) < 1e-6
        count += 1


# -- dynamics -----------------------------------------------------------------


@pytest.mark.parametrize("count", [11, 13])
def test_step_takes_exactly_12_torques(count):
    world = standing_world()
    before = _end_state(world)
    with pytest.raises(ValueError, match=f"expected 12 joint torques, got {count}"):
        step(world, [0.0] * count)
    assert world.time == 0.0 and np.array_equal(_end_state(world), before)


def test_free_fall_matches_ballistic():
    world = standing_world()
    world.ground_enabled = False
    g = world.config.sim.gravity
    dt = world.config.sim.dt
    v0 = world.robot.srb.linear_velocity[2]
    step(world, np.zeros(12))
    assert abs(world.robot.srb.linear_velocity[2] - (v0 - g * dt)) < 1e-9


@pytest.mark.parametrize("dt", [0.0, -0.001])
def test_a_non_positive_dt_is_rejected(dt):
    world = standing_world()
    world.config.sim.dt = dt
    with pytest.raises(ValueError, match="dt must be positive"):
        step(world, np.zeros(12))
    assert world.time == 0.0


def test_box_at_rest_stays_put(monkeypatch):
    """Penalty contact alone holds the box still for 1 s: sleep is off."""
    monkeypatch.setattr(simworld, "SLEEP_LINEAR_TOL", 0.0)
    monkeypatch.setattr(simworld, "SLEEP_ANGULAR_TOL", 0.0)
    cfg = StackConfig()
    shape = Box((0.07, 0.07, 0.05))
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    obj.pose = rest_pose_on_ground(shape, config=cfg, mass=obj.mass)
    world = standing_world(cfg, objects=[obj])
    _send_robot_away(world)  # feet off the object
    p0 = obj.pose.translation.copy()
    R0 = obj.pose.rotation.copy()
    for _ in range(1000):
        step(world, np.zeros(12))
        assert not obj.asleep
    assert np.max(np.abs(world.objects[0].pose.translation - p0)) < 1e-4
    assert np.max(np.abs(world.objects[0].pose.rotation - R0)) < 1e-4


def test_sliding_box_loses_energy_monotonically():
    # friction + damping only remove energy: kinetic plus contact-spring
    # potential is non-increasing every step while the box slides to rest
    cfg = StackConfig()
    shape = Box((0.08, 0.06, 0.05))
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    obj.pose = rest_pose_on_ground(shape, config=cfg, mass=obj.mass)
    obj.linear_velocity = (0.5, 0.0, 0.0)
    world = standing_world(cfg, objects=[obj])
    _send_robot_away(world)

    def energy(w):
        o = w.objects[0]
        Rw = o.pose.rotation
        I_w = Rw @ np.array(o.inertia) @ Rw.T
        v_o, w_o = np.array(o.linear_velocity), np.array(o.angular_velocity)
        ke = 0.5 * o.mass * v_o @ v_o + 0.5 * w_o @ I_w @ w_o
        pe_spring = sum(0.5 * cfg.contact.k_normal * rec.penetration ** 2
                        for rec in w.contact_set if rec.bodies[0] == o.name)
        pe_grav = o.mass * cfg.sim.gravity * o.pose.translation[2]
        return float(ke + pe_spring + pe_grav)

    step(world, np.zeros(12))
    prev = energy(world)
    e0 = prev
    for _ in range(400):
        step(world, np.zeros(12))
        now = energy(world)
        # 1e-6 J allowance: semi-implicit spring contacts carry a shadow
        # energy that oscillates at the contact frequency scale
        assert now <= prev + 1e-6
        assert now <= e0 + 1e-6
        prev = now
    # most of the kinetic energy is gone and the box has effectively stopped
    assert np.linalg.norm(world.objects[0].linear_velocity) < 1e-3


@pytest.mark.parametrize("name,check,bound", SIM_CHECKS,
                         ids=[name.replace(" ", "_") for name, _, _ in SIM_CHECKS])
def test_simulator_invariant(name, check, bound):
    """The rows `legpress simcheck` prints: determinism, momentum without
    gravity or ground, momentum at the joint stop, the friction cone at every
    contact and the stand force split."""
    assert check(StackConfig()) <= bound


def test_contact_complementarity_zero_force_without_penetration():
    world = standing_world()
    step(world, np.zeros(12))
    for rec in world.contact_set:
        assert rec.penetration > 0.0
        assert rec.normal_force >= 0.0


def test_joint_stop_leaves_a_fixed_base_at_rest():
    """A foot pulled out of reach engages the joint stops and rides the
    trunk; a fixed base absorbs the paired momentum correction."""
    world = standing_world()
    world.fixed_base = True
    x, y, z = world.robot.feet_pos[3]
    world.robot.feet_pos = _with_row(world.robot.feet_pos, 3, (x, y - 0.5, z))
    step(world, np.zeros(12))
    srb = world.robot.srb
    assert np.array_equal(world.robot.feet_pos[3],
                          leg_forward_kinematics(world.robot.legs[3], srb))
    assert np.array_equal(srb.linear_velocity, np.zeros(3))


def test_the_stop_scene_conserves_momentum_until_the_stop():
    """Before the foot reaches its joint stops, the tip force and its
    reaction on the trunk cancel: the drift stays at rounding."""
    worlds = _stop_scene(StackConfig())
    p0 = simworld.momentum(next(worlds))
    drift = [np.max(np.abs(simworld.momentum(w) - p0)) for w in itertools.islice(worlds, 68)]
    assert max(drift) < 1e-12


def test_the_stop_corrections_of_the_leg_sync_are_what_step_writes_back(monkeypatch):
    """In the stop scene the leg sync moves the stopped foot and corrects the
    free trunk's velocity and angular velocity in the tick's float lists;
    `step` then writes exactly those values back."""
    synced = []
    real_sync = simworld._sync_legs

    def recording(world, R, pos, v, w, feet_p, feet_v):
        assert type(v) is list and type(w) is list
        before = list(v), list(w), [list(p) for p in feet_p]
        real_sync(world, R, pos, v, w, feet_p, feet_v)
        synced.append(((list(v), list(w), [list(p) for p in feet_p]) != before,
                       list(w) != before[1], tuple(v), tuple(w), tuple(map(tuple, feet_p)),
                       tuple(map(tuple, feet_v))))

    monkeypatch.setattr(simworld, "_sync_legs", recording)
    worlds = _stop_scene(StackConfig())
    next(worlds)
    stopped = spun = 0
    for world in worlds:
        corrected, turned, v, w, feet_p, feet_v = synced[-1]
        rb = world.robot
        assert (rb.srb.linear_velocity, rb.srb.angular_velocity, rb.feet_pos,
                rb.feet_vel) == (v, w, feet_p, feet_v)
        stopped += corrected
        spun += turned
    assert len(synced) == 1 + 300  # `standing_world` seats the feet through the sync
    assert stopped > 200  # measured: 212 of the 300 ticks
    assert spun == stopped  # each stop tick corrects the spin too


def _foot_box_scene_drift(velocity, friction: float = 0.5):
    """The foot–object scene: the standing robot with gravity and ground
    off, zero torques, and a floating 0.08 m cube centred 0.062 m ahead (+x)
    of the front-left foot centre, moving at `velocity`, with the contact
    friction coefficient `friction`. Over 400 ticks it touches the foot on 6
    ticks. Returns the largest drift of the linear and of the angular
    momentum of trunk, feet and box over those ticks, and the number of ticks
    whose foot–box contact had a friction force."""
    world = standing_world()
    world.gravity_enabled = world.ground_enabled = False
    world.config.contact.friction = friction
    x, y, z = world.robot.feet_pos[0]
    obj = SimObject.from_shape(Box((0.08, 0.08, 0.08)),
                               RigidTransform(np.eye(3), [x + 0.062, y, z]))
    obj.linear_velocity = velocity
    world.objects.append(obj)
    p0, drift, rubbed = simworld.momentum(world), np.zeros(2), 0
    for _ in range(400):
        step(world, np.zeros(12))
        d = np.abs(simworld.momentum(world) - p0)
        drift = np.maximum(drift, [d[:3].max(), d[3:].max()])
        rubbed += any(c.tangential_force != 0.0 for c in world.contact_set
                      if c.bodies == ("foot_0", obj.name))
    return drift, rubbed


SLIDING = (-0.3, 0.2, 0.2)  # the box slides along the foot as it strikes it


def test_the_foot_box_scene_conserves_momentum_without_friction():
    """A head-on strike has no slip, and a sliding strike with friction off
    no friction force: the normal force pair acts along the normal, so both
    momenta are kept to rounding. With friction, linear momentum still is."""
    for velocity, friction in (((-0.3, 0.0, 0.0), 0.5), (SLIDING, 0.0)):
        (linear, angular), rubbed = _foot_box_scene_drift(velocity, friction)
        assert rubbed == 0
        assert linear < 1e-12 and angular < 1e-12
    (linear, _), rubbed = _foot_box_scene_drift(SLIDING)
    assert rubbed == 6  # each contact tick of the scene
    assert linear < 1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 21: the foot–object friction impulse "
                   "acts at the foot centre on the foot but at the surface point on the box, "
                   "so each impulse j adds sd (n x j) of angular momentum")
def test_the_sliding_foot_box_scene_conserves_angular_momentum():
    """Measured: the angular drift reaches 1.44e-4 over the 6 contact
    ticks; with the box-side arm at the foot centre it stays at 2.3e-16."""
    (_, angular), _ = _foot_box_scene_drift(SLIDING)
    assert angular < 1e-6


def test_divergence_reported():
    world = standing_world()
    world.robot.srb.linear_velocity = (200.0, 0.0, 0.0)
    with pytest.raises(SimulationDivergence):
        step(world, np.zeros(12))


# -- push-mode classifier ------------------------------------------------------


def make_resting_box(ex=0.08, ey=0.08, ez=0.06):
    cfg = StackConfig()
    shape = Box((ex, ey, ez))
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    obj.pose = rest_pose_on_ground(shape, config=cfg, mass=obj.mass)
    return obj


def test_push_through_com_low_translates():
    obj = make_resting_box()
    cp = obj.pose.translation + np.array([-0.04, 0.0, -0.01])
    assert quasi_static_push_check(obj, cp, np.array([1.0, 0.0, 0.0])) == "translate"


def test_push_at_corner_rotates():
    obj = make_resting_box()
    z = obj.pose.translation[2]
    cp = obj.pose.translation + np.array([-0.04, 0.039, 0.0])
    cp[2] = z
    assert quasi_static_push_check(obj, cp, np.array([1.0, 0.0, 0.0])) == "rotate"


def test_push_high_on_narrow_box_tips_and_rollout_agrees():
    # tall narrow box pushed near the top: classifier says tip, and a
    # dynamic rollout with a forced horizontal contact force confirms it
    cfg = StackConfig()
    shape = Box((0.03, 0.03, 0.12))
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    obj.pose = rest_pose_on_ground(shape, config=cfg, mass=obj.mass)
    cp = obj.pose.translation + np.array([-0.015, 0.0, 0.05])
    verdict = quasi_static_push_check(obj, cp, np.array([1.0, 0.0, 0.0]),
                                      ground_friction=cfg.contact.friction)
    assert verdict == "tip"

    # rollout: apply a slowly increasing horizontal force at the same height
    world = standing_world(cfg, objects=[obj])
    _send_robot_away(world)
    tipped = False
    for k in range(4000):
        o = world.objects[0]
        f = np.array([min(0.005 * k * 9.81 * o.mass, 2.0 * o.mass * 9.81), 0.0, 0.0])
        arm = (o.pose.rotation @ np.array([-0.015, 0.0, 0.05]))
        v = np.array(o.linear_velocity) + f / o.mass * cfg.sim.dt
        I_w = o.pose.rotation @ np.array(o.inertia) @ o.pose.rotation.T
        w = np.array(o.angular_velocity) + np.linalg.solve(I_w, np.cross(arm, f)) * cfg.sim.dt
        o.linear_velocity, o.angular_velocity = tuple(v.tolist()), tuple(w.tolist())
        step(world, np.zeros(12))
        zaxis = world.objects[0].pose.rotation[:, 2]
        if zaxis[2] < 0.7:  # leaned over 45 degrees
            tipped = True
            break
    assert tipped


def test_push_check_rejects_contact_off_surface():
    obj = make_resting_box()
    with pytest.raises(ValueError):
        quasi_static_push_check(obj, obj.pose.translation + np.array([0.3, 0, 0]),
                                np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("inertia", [
    np.diag([1e-3, 1e-3, 0.0]),  # singular: the step's inverse fails
    np.diag([1e-3, 1e-3, -1e-3]),  # indefinite: wrong dynamics, silently
    np.array([[1e-3, 2e-4, 0.0], [0.0, 1e-3, 0.0], [0.0, 0.0, 1e-3]]),  # not symmetric
    np.diag([1e-3, np.nan, 1e-3]),
])
def test_an_inertia_that_is_not_symmetric_positive_definite_is_rejected(inertia):
    with pytest.raises(ValueError, match="inertia must be symmetric positive definite"):
        SimObject(Box((0.1, 0.1, 0.1)), RigidTransform.identity(), inertia=inertia)


def test_every_catalog_shape_has_an_accepted_inertia():
    for split in ("train", "eval"):
        for shape in harness.object_catalog(split):
            obj = SimObject.from_shape(shape, RigidTransform.identity())
            assert np.linalg.eigvalsh(obj.inertia)[0] > 0.0


# -- shapes --------------------------------------------------------------------


def test_compound_and_mesh_mass_properties_positive():
    L = Compound(((Box((0.08, 0.04, 0.04)), (0.0, 0.0, 0.0)),
                  (Box((0.04, 0.04, 0.04)), (-0.02, 0.0, 0.04))))
    m, I = L.mass_properties(300.0)
    assert m > 0
    assert np.all(np.linalg.eigvalsh(I) > 0)


def test_the_simulator_rejects_a_convex_mesh():
    """`ConvexMesh` is a scan-only shape: it has no exact signed distance and
    no mass properties, so it never becomes a body."""
    mesh = ConvexMesh(tuple(map(tuple, np.random.default_rng(7).uniform(-0.05, 0.05, (12, 3)))))
    with pytest.raises(TypeError, match="steps Box, Cylinder and Compound bodies, not ConvexMesh"):
        SimObject(mesh, rest_pose_on_ground(mesh))


def test_cylinder_signed_distance_and_sampling():
    cyl = Cylinder(0.03, 0.1)
    d, n = cyl.signed_distance(np.array([0.05, 0.0, 0.0]))
    assert abs(d - 0.02) < 1e-12
    assert np.allclose(n, [1, 0, 0])
    rng = np.random.default_rng(8)
    pts, nrm = cyl.sample_surface(rng, 200)
    assert pts.shape == (200, 3)
    assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0)
    for p in pts:
        d, _ = cyl.signed_distance(p)
        assert abs(d) < 1e-9


# -- surface sampling: the per-point code each sampler replaced is the exact reference


def _box_sample_per_point(box, rng, n):
    ex, ey, ez = box.extents
    areas = np.array([ey * ez, ey * ez, ex * ez, ex * ez, ex * ey, ex * ey])
    face = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(-0.5, 0.5, size=n)
    pts = np.empty((n, 3))
    nrm = np.zeros((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    half = np.array(box.extents) / 2.0
    for i in range(n):
        a = axis[i]
        b, c = (a + 1) % 3, (a + 2) % 3
        pts[i, a] = sign[i] * half[a]
        pts[i, b] = u[i] * box.extents[b]
        pts[i, c] = v[i] * box.extents[c]
        nrm[i, a] = sign[i]
    return pts, nrm


def _compound_sample_per_point(compound, rng, n):
    pts_all, nrm_all = [], []
    for i, (shape, off) in enumerate(compound.parts):
        p, nm = _box_sample_per_point(shape, rng, n)
        p = p + np.asarray(off)
        keep = np.ones(len(p), dtype=bool)
        for j, (other, ooff) in enumerate(compound.parts):
            if i == j:
                continue
            d = np.array([other.signed_distance(q - np.asarray(ooff))[0] for q in p])
            keep &= d > -1e-9
        pts_all.append(p[keep])
        nrm_all.append(nm[keep])
    pts = np.vstack(pts_all)
    nrm = np.vstack(nrm_all)
    idx = rng.choice(len(pts), size=n, replace=len(pts) < n)
    return pts[idx], nrm[idx]


@pytest.mark.parametrize("extents", [(0.08, 0.06, 0.05), (0.1, 0.02, 0.3), (1, 2, 3),
                                     (0.05, 0.05, 0.05)])
def test_box_sampling_equals_the_per_point_loop(extents):
    box = Box(extents)
    for seed in range(5):
        for n in (1, 7, 400):
            got = box.sample_surface(np.random.default_rng(seed), n)
            want = _box_sample_per_point(box, np.random.default_rng(seed), n)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("shape", [
    harness._l_prism(0.09, 0.05, 0.05),
    harness._t_prism(0.1, 0.04, 0.05),
    Compound(((Box((0.08, 0.08, 0.05)), (0.0, 0.0, 0.0)),  # the ambiguity-suite stud
              (Box((0.02, 0.02, 0.03)), (0.03, 0.03, 0.04)))),
], ids=["l_prism", "t_prism", "stud"])
def test_compound_sampling_equals_the_per_point_rejection(shape):
    """Sibling-interior rejection by the vectorised box test keeps exactly the
    points the per-point signed distance kept, shared faces included."""
    for seed in range(8):
        got = shape.sample_surface(np.random.default_rng(seed), 400)
        want = _compound_sample_per_point(shape, np.random.default_rng(seed), 400)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_compound_rejects_a_part_that_is_not_a_box():
    with pytest.raises(TypeError):
        Compound(((Box((0.1, 0.1, 0.1)), (0.0, 0.0, 0.0)),
                  (Cylinder(0.03, 0.1), (0.0, 0.0, 0.1))))


# -- pinned trajectories -------------------------------------------------------
# Each scene runs a few hundred steps under fixed non-zero torques and compares
# the end state with values recorded before the step was rewritten for speed;
# `joint_stop` and `fixed_base` were recorded again once a fixed base stopped
# taking the joint-stop momentum correction, and the last three values of
# `resting_cylinder` (its residual spin, about 1e-7 rad/s) once the friction
# pass, then the rest of the tick, then the vertex placement and the leg
# kinematics moved to float math; each time they moved by about 1e-11.
# Together they take every branch of `step`: ground, object-vertex, foot-object
# and friction contacts, the joint-stop branch of `_sync_legs`, the damped
# `_solve3` fallback, fixed base, gravity and ground off, and the orientation
# re-orthonormalisation every 64 steps. The tolerance admits another BLAS
# build, not a change in the step.


def _pin_torques(world, foot_forces):
    """Fixed joint torques J^T f for the given foot forces at the start pose,
    plus a small fixed offset so that no joint torque is zero."""
    tau = np.array([leg_jacobian(leg, world.robot.srb).T @ np.asarray(f, dtype=float)
                    for leg, f in zip(world.robot.legs, foot_forces)])
    return tau.ravel() + 0.01 * np.array([1.0, -0.5, 0.25] * 4)


def _stand_forces(world):
    w = world.config.robot.trunk_mass * world.config.sim.gravity / 4.0
    return [(0.0, 0.0, -w)] * 4


def _run_pin(world, tau, n_steps):
    for _ in range(n_steps):
        step(world, tau)
    return world


def _end_state(world) -> np.ndarray:
    rb = world.robot
    # the trunk state as the force MPC reads it, with gravity as its 13th value
    parts = [rb.srb.as_vector(), [world.config.sim.gravity], np.ravel(rb.feet_pos),
             np.ravel(rb.feet_vel)]
    parts += [leg.joint_angles for leg in rb.legs]
    for o in world.objects:
        parts += [o.pose.rotation.ravel(), o.pose.translation, o.linear_velocity,
                  o.angular_velocity]
    return np.concatenate(parts)


def _l_prism():
    return Compound(((Box((0.09, 0.05, 0.05)), (0.0, 0.0, 0.0)),
                     (Box((0.05, 0.05, 0.05)), (-0.02, 0.05, 0.0))))


PIN_SHAPES = {
    "box": lambda: Box((0.08, 0.06, 0.05)),
    "cylinder": lambda: Cylinder(0.035, 0.06),
    "l_prism": _l_prism,
}


def scene_resting(name, n_steps=300):
    """A sliding, spinning object on the ground in front of a standing robot."""
    cfg = StackConfig()
    shape = PIN_SHAPES[name]()
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    obj.pose = rest_pose_on_ground(shape, xy=(0.4, 0.05), yaw=0.3, config=cfg,
                                   mass=obj.mass)
    obj.linear_velocity = (0.15, -0.05, 0.0)
    obj.angular_velocity = (0.0, 0.0, 1.5)
    world = standing_world(cfg, objects=[obj])
    return _run_pin(world, _pin_torques(world, _stand_forces(world)), n_steps)


def scene_foot_press(n_steps=300):
    """Trunk held fixed; front-left foot pressed into the side of a heavy
    box and dragged along it."""
    cfg = StackConfig()
    shape = Box((0.08, 0.08, 0.05))
    mass, inertia = shape.mass_properties(3000.0)
    obj = SimObject(shape, RigidTransform.identity(), mass=mass, inertia=inertia)
    world = standing_world(cfg)
    world.fixed_base = True
    foot = world.robot.feet_pos[0]
    obj.pose = rest_pose_on_ground(shape, xy=(foot[0] + 0.04 + 0.019, foot[1] + 0.01),
                                   config=cfg, mass=obj.mass)
    world.objects.append(obj)
    forces = _stand_forces(world)
    forces[0] = (6.0, 1.5, forces[0][2])
    return _run_pin(world, _pin_torques(world, forces), n_steps)


def scene_joint_stop():
    """Trunk held fixed; rear-right foot hauled up and out until the joint
    stops engage."""
    world = standing_world()
    world.fixed_base = True
    forces = _stand_forces(world)
    forces[3] = (0.0, -6.0, 6.0)
    return _run_pin(world, _pin_torques(world, forces), 300)


def scene_straight_leg():
    """Front-left leg straight: singular actuator Jacobian, frozen joints."""
    world = standing_world()
    world.gravity_enabled = False
    world.ground_enabled = False
    leg = world.robot.legs[0] = posed(world.robot.legs[0], (0.0, 0.0, 0.0))
    world.robot.feet_pos = _with_row(world.robot.feet_pos, 0,
                                     leg_forward_kinematics(leg, world.robot.srb))
    tau = _pin_torques(world, [(0.0, 0.0, -1.0)] * 4)
    return _run_pin(world, tau, 200)


def scene_fixed_base():
    """Trunk held fixed, gravity and ground off, a box drifting past."""
    cfg = StackConfig()
    obj = SimObject.from_shape(Box((0.1, 0.07, 0.05)),
                               RigidTransform(np.eye(3), [0.3, 0.1, 0.2]))
    obj.linear_velocity = (0.1, -0.2, 0.05)
    obj.angular_velocity = (0.4, -0.3, 0.6)
    world = standing_world(cfg, objects=[obj])
    world.fixed_base = True
    world.gravity_enabled = False
    world.ground_enabled = False
    return _run_pin(world, _pin_torques(world, [(0.5, -0.3, 1.0)] * 4), 200)


def scene_tumbling():
    """Free trunk and free cylinder tumbling past two re-orthonormalisations."""
    cfg = StackConfig()
    obj = SimObject.from_shape(Cylinder(0.03, 0.08),
                               RigidTransform(euler_zyx_to_matrix(0.3, -0.2, 0.5),
                                              (0.5, -0.2, 0.4)))
    obj.angular_velocity = (3.0, -2.0, 4.0)
    world = standing_world(cfg, objects=[obj])
    world.gravity_enabled = False
    world.ground_enabled = False
    srb = world.robot.srb
    srb.angular_velocity = (0.4, -0.3, 0.8)
    world.robot.feet_vel = (srb.linear_velocity,) * 4
    return _run_pin(world, _pin_torques(world, [(0.0, 0.0, 0.3)] * 4), 130)


PIN_SCENES = {f"resting_{k}": (lambda k=k: scene_resting(k)) for k in PIN_SHAPES}
PIN_SCENES.update(foot_press=scene_foot_press, joint_stop=scene_joint_stop,
              straight_leg=scene_straight_leg, fixed_base=scene_fixed_base,
              tumbling=scene_tumbling)


PINNED_END_STATES = {
    "resting_box": [
        -0.027378566517823614, 0.004637335024377131, -1.47390034528146e-05,
        -0.0003762484149871394, -0.0006900279576304921, 0.28421175121335707,
        -0.19284607618637534, 0.039575690165991814, 0.0006704973827641204,
        -0.0031575804997461135, -0.005432873361561745, 0.03297234334716019,
        9.81, 0.1900001923076923, 0.1270004757955839,
        0.016919347979457534, 0.1900001923076923, -0.12699970656481469,
        0.01690389179884898, -0.1899998076923077, 0.1270004757955839,
        0.016906892625384803, -0.1899998076923077, -0.12699970656481469,
        0.016891076317019995, 0.0, 0.0,
        -0.00012747616115689538, 1.0842021724855044e-19, 0.0,
        -0.00023953013799975494, 0.0, 0.0,
        -0.0002375276625722674, 0.0, -1.0842021724855044e-19,
        -0.00035534605648648745, 0.030058992699769416, 0.8923218341613391,
        -1.7967944140260521, 0.029902826863690057, 0.8858220358014613,
        -1.7837246767961936, 0.030020216037628614, 0.887019804958477,
        -1.7861407966695242, 0.029865389267476505, 0.8804719579289827,
        -1.7729755471211812, 0.9486442172812545, -0.31634498418473117,
        1.4234761904243738e-17, 0.31634498418473117, 0.9486442172812544,
        1.5642857056408423e-17, -1.845226393294989e-17, -1.0336410358847547e-17,
        1.0000000000000002, 0.402382137362493, 0.04905549258580857,
        0.024982342000000008, 3.990054278606195e-14, 2.5439263473713678e-14,
        -1.7964021514966566e-16, -2.8383646868804408e-14, 1.5671070315125014e-14,
        0.0,
    ],
    "resting_cylinder": [
        -0.027378566517823614, 0.004637335024377131, -1.47390034528146e-05,
        -0.0003762484149871394, -0.0006900279576304921, 0.28421175121335707,
        -0.19284607618637534, 0.039575690165991814, 0.0006704973827641204,
        -0.0031575804997461135, -0.005432873361561745, 0.03297234334716019,
        9.81, 0.1900001923076923, 0.1270004757955839,
        0.016919347979457534, 0.1900001923076923, -0.12699970656481469,
        0.01690389179884898, -0.1899998076923077, 0.1270004757955839,
        0.016906892625384803, -0.1899998076923077, -0.12699970656481469,
        0.016891076317019995, 0.0, 0.0,
        -0.00012747616115689538, 1.0842021724855044e-19, 0.0,
        -0.00023953013799975494, 0.0, 0.0,
        -0.0002375276625722674, 0.0, -1.0842021724855044e-19,
        -0.00035534605648648745, 0.030058992699769416, 0.8923218341613391,
        -1.7967944140260521, 0.029902826863690057, 0.8858220358014613,
        -1.7837246767961936, 0.030020216037628614, 0.887019804958477,
        -1.7861407966695242, 0.029865389267476505, 0.8804719579289827,
        -1.7729755471211812, 0.9470084405887672, -0.32120867586917995,
        1.1368060882343618e-10, 0.32120867586917984, 0.9470084405887674,
        3.850384703728189e-11, -1.2002426539004457e-10, 5.1724736284058297e-14,
        0.9999999999999999, 0.4023877521183773, 0.04900564590504154,
        0.029995752753264403, 4.188117983215671e-09, 1.420705509302355e-09,
        -1.7856706328401923e-15, -4.736605385708167e-08, 1.396291337963609e-07,
        9.263116366336087e-12,
    ],
    "resting_l_prism": [
        -0.027378566517823614, 0.004637335024377131, -1.47390034528146e-05,
        -0.0003762484149871394, -0.0006900279576304921, 0.28421175121335707,
        -0.19284607618637534, 0.039575690165991814, 0.0006704973827641204,
        -0.0031575804997461135, -0.005432873361561745, 0.03297234334716019,
        9.81, 0.1900001923076923, 0.1270004757955839,
        0.016919347979457534, 0.1900001923076923, -0.12699970656481469,
        0.01690389179884898, -0.1899998076923077, 0.1270004757955839,
        0.016906892625384803, -0.1899998076923077, -0.12699970656481469,
        0.016891076317019995, 0.0, 0.0,
        -0.00012747616115689538, 1.0842021724855044e-19, 0.0,
        -0.00023953013799975494, 0.0, 0.0,
        -0.0002375276625722674, 0.0, -1.0842021724855044e-19,
        -0.00035534605648648745, 0.030058992699769416, 0.8923218341613391,
        -1.7967944140260521, 0.029902826863690057, 0.8858220358014613,
        -1.7837246767961936, 0.030020216037628614, 0.887019804958477,
        -1.7861407966695242, 0.029865389267476505, 0.8804719579289827,
        -1.7729755471211812, 0.9473687818650229, -0.3201443017052972,
        0.00013127532516853712, 0.3201443244752421, 0.9473687559367266,
        -0.00022755480867747016, -5.1515766166375e-05, 0.00025760537220065213,
        0.9999999654927987, 0.40243526984155814, 0.04898104343089288,
        0.024980426462542445, 1.0751673162185029e-10, -1.7607379649228652e-10,
        -2.7634479453227026e-10, 7.0297017750150485e-09, 4.310317148943769e-09,
        4.356420399806379e-12,
    ],
    "foot_press": [
        0.0, 0.0, 0.0,
        0.0, 0.0, 0.28,
        0.0, 0.0, 0.0,
        0.0, 0.0, 0.0,
        9.81, 0.1899366561021564, 0.12696791902631543,
        0.016891097424543512, 0.1900001923076923, -0.12699970656481469,
        0.016934978293112676, -0.1899998076923077, 0.1270004757955839,
        0.01693497667958872, -0.1899998076923077, -0.12699970656481469,
        0.016934978293112676, -1.6115276540445644e-07, -1.597557701462798e-05,
        4.114331919063193e-06, 2.710505431213761e-20, -5.421010862427522e-20,
        8.907049916920368e-16, 0.0, 0.0,
        1.9563908884261676e-16, 2.710505431213761e-20, -5.421010862427522e-20,
        8.907049916920368e-16, -0.00012193265949744791, 0.9053449286036086,
        -1.8102083361028027, 1.1154475543229125e-06, 0.9052055837464477,
        -1.8104126295478375, 1.8086610185097383e-06, 0.905204880784858,
        -1.8104112236233494, 1.1154475543229125e-06, 0.9052055837464477,
        -1.8104126295478375, 0.9999941226301748, -0.0033403761487222293,
        0.0007723938718271636, 0.003340317183434835, 0.9999944181126713,
        7.761838319456523e-05, -0.0007726488350075244, -7.503788647994508e-05,
        0.9999996986915015, 0.2497225953342562, 0.13704852818503294,
        0.024775426084570604, -5.599864600023149e-05, -3.274817434973371e-05,
        -1.0210842546171542e-06, 6.793371034652347e-07, 0.00013585074621529745,
        -0.0003093164228235773,
    ],
    "joint_stop": [
        0.0, 0.0, 0.0,
        0.0, 0.0, 0.28,
        0.0, 0.0, 0.0,
        0.0, 0.0, 0.0,
        9.81, 0.1900001923076923, 0.1270004757955839,
        0.01693497667958872, 0.1900001923076923, -0.12699970656481469,
        0.016934978293112676, -0.1899998076923077, 0.1270004757955839,
        0.01693497667958872, -0.18948375278984445, -0.28186842316366445,
        0.18334144587234327, 0.0, 0.0,
        1.9563908884261676e-16, 2.710505431213761e-20, -5.421010862427522e-20,
        8.907049916920368e-16, 0.0, 0.0,
        1.9563908884261676e-16, 0.0, 0.0,
        0.0, 1.8086610185097383e-06, 0.905204880784858,
        -1.8104112236233494, 1.1154475543229125e-06, 0.9052055837464477,
        -1.8104126295478375, 1.8086610185097383e-06, 0.905204880784858,
        -1.8104112236233494, -0.8599377442538898, 0.9671896763661756,
        -1.9386626317338116,
    ],
    "straight_leg": [
        -0.025343309677519053, 0.011722690404262194, 0.0011863935318319086,
        -2.2911205534542583e-05, 3.223825852668876e-05, 0.28424874197621236,
        0.005769235577813886, -0.005004725455091657, 4.1319383147534264e-05,
        0.00022988732945550508, 8.543397136035461e-05, -0.0002236164911518226,
        9.81, 0.18479621353433237, 0.11641571126715092,
        -0.1470304927903604, 0.1932381315172981, -0.1272849251557207,
        -0.1425246002921865, -0.18799476825545075, 0.13669255899001614,
        -0.13854321286693222, -0.1874341081982961, -0.128395287811891,
        -0.13785485942543757, -0.004815403085927476, -0.00441496995278077,
        0.0032236906537344433, -0.003377096038785293, -0.004775888602843354,
        0.006630329328696941, -0.013816382464631497, 0.002905709225920896,
        0.011263006008778893, -0.005577597945316335, -0.0039669272335393635,
        0.00571695294701389, 0.0, 0.0,
        0.0, 0.024024497839222336, 0.007142066790739698,
        -0.05232483004211713, 0.048645413951440286, 0.012796321963332805,
        -0.05922144926966806, 0.022476199582576628, 0.016214508850412014,
        -0.06718057217793688,
    ],
    "fixed_base": [
        0.0, 0.0, 0.0,
        0.0, 0.0, 0.28,
        0.0, 0.0, 0.0,
        0.0, 0.0, 0.0,
        9.81, 0.2836423803557834, 0.07900396016581522,
        0.20114952080116716, 0.29081109977133884, -0.17788917204205285,
        0.21914005788410068, -0.09601769526113821, 0.07905971763169396,
        0.20199266122478812, -0.08918890022866131, -0.17788917204205285,
        0.21914005788410068, -0.010186137415004919, -0.0421883539610754,
        0.11519111720363143, 0.9153458740261062, -0.3948008539028481,
        2.077883438645207, -0.0038010449339887413, -0.015535507138172899,
        0.041543833407175344, 0.9153458740261069, -0.394800853902848,
        2.077883438645207, -0.8373388272901545, 0.06822471877897662,
        -2.677179687626838, -0.5481327738744235, 0.4956565587105266,
        -2.3875147745200023, -0.8587151064881579, 0.045411000941782964,
        -2.6787792090312497, -0.5481327738744235, 0.4956565587105273,
        -2.3875147745200027, 0.8611952490611375, 0.04867945998715082,
        0.5059377957514989, 0.22383353254539537, 0.8573620747867865,
        -0.46349630249393187, -0.4563346279900043, 0.5124066577364664,
        0.7274600500402534, 0.32743405762064715, 0.055739146495295336,
        0.22554474224864743, 0.535428517570179, -0.4584470309668448,
        0.7119373195754352, 16.208891266597835, 24.290243193454586,
        0.4201801118191208,
    ],
    "tumbling": [
        0.04454203761292787, -0.03914586904235116, 0.10358654696202259,
        -5.079074322222915e-05, -0.00010981957093544179, 0.27923900115008377,
        0.31527085488833434, -0.2698876977013006, 0.8034241524578691,
        -0.0007461565939209722, -0.0016784732099726079, -0.011526538160800025,
        9.81, 0.19108434434771637, 0.13167987842016052,
        0.042818353108763085, 0.19189451443081904, -0.12392025088198877,
        0.04291318590990254, -0.18888937470953057, 0.13054530496209787,
        0.04298983927072561, -0.18799459488233736, -0.1251265839880168,
        0.04259848370053362, 0.012141442598952154, 0.07652788869643838,
        0.3454397898489471, 0.030752730050644824, 0.05100601293970404,
        0.3474931289387379, 0.012896381544701576, 0.050423422135888296,
        0.3495941094006572, 0.0337482370762181, 0.023459461424682238,
        0.34065755110766055, -0.10859468438195297, 0.9495202661508383,
        -1.9348626687595882, -0.11028173336756697, 1.0361756267053388,
        -1.9004093605696866, 0.0509624620435698, 0.9445275562560678,
        -1.9437881721443186, 0.05415255965317223, 1.1127378732937176,
        -2.053225560194893, 0.43918486966975656, -0.8982818080972317,
        -0.014368141658804259, 0.6437978915035146, 0.32583776098311357,
        -0.6923539762384124, 0.6266106647263421, 0.29482121151484275,
        0.7214149486198164, 0.5, -0.2,
        0.4, 0.0, 0.0,
        0.0, 3.0186746537997973, -2.6084103614314658,
        3.618661129122828,
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_END_STATES))
def test_pinned_trajectory(name):
    world = PIN_SCENES[name]()
    np.testing.assert_allclose(_end_state(world), PINNED_END_STATES[name],
                               rtol=1e-9, atol=1e-12)


# -- float tick helpers against their numpy forms --------------------------------


def test_float_rodrigues_matches_rotation_exp():
    rng = np.random.default_rng(41)
    for scale in (3.0, 1e-3, 1e-9, 1e-13, 0.0):  # the last two take the first-order branch
        for _ in range(50):
            w = rng.normal(size=3) * scale
            np.testing.assert_allclose(simworld._rotation_exp(*w.tolist()), rotation_exp(w),
                                       rtol=1e-12, atol=1e-15)


def test_euler_extraction_reads_float_rows_with_the_same_gimbal_check():
    rng = np.random.default_rng(42)
    for _ in range(200):
        R = euler_zyx_to_matrix(*rng.uniform(-1.5, 1.5, size=3))
        assert matrix_to_euler_zyx(R.tolist()) == matrix_to_euler_zyx(R)
    edge = math.pi / 2.0 - GIMBAL_MARGIN
    rows = euler_zyx_to_matrix(0.1, edge - 1e-9, -0.2).tolist()
    assert matrix_to_euler_zyx(rows)[1] == pytest.approx(edge - 1e-9, abs=1e-12)
    for pitch in (edge + 1e-9, -edge - 1e-9):
        with pytest.raises(GimbalLockError):
            matrix_to_euler_zyx(euler_zyx_to_matrix(0.1, pitch, -0.2).tolist())
    # the tick reports a trunk that crosses the margin as a divergence
    world = standing_world()
    world.gravity_enabled = world.ground_enabled = False
    world.robot.srb = posed(world.robot.srb, (0.0, edge - 1e-4, 0.0))
    world.robot.srb.angular_velocity = (0.0, 1.0, 0.0)
    with pytest.raises(SimulationDivergence, match="trunk orientation"):
        step(world, np.zeros(12))


@pytest.mark.parametrize("name", ["box", "cylinder", "l_prism"])
def test_world_inverse_inertia_is_the_rotated_body_inverse(name):
    obj = SimObject.from_shape(PIN_SHAPES[name](), RigidTransform.identity())
    I_b_inv = obj.inverse_inertia_rows
    rng = np.random.default_rng(43)
    for _ in range(20):
        Ro = rotation_exp(rng.normal(size=3))
        want = np.linalg.inv(Ro @ np.array(obj.inertia) @ Ro.T)
        np.testing.assert_allclose(simworld._sandwich(Ro.tolist(), I_b_inv), want,
                                   rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_float_solve_matches_numpy_and_damps_near_a_singularity():
    rng = np.random.default_rng(44)
    for _ in range(200):
        A, b = rng.normal(size=(3, 3)), rng.normal(size=3)
        assert abs(np.linalg.det(A)) > 1e-6
        x = simworld._solve3(A.tolist(), b.tolist())
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-12)
    # a straight leg's Jacobian is singular; nudged, it stays under the
    # determinant threshold and takes the damped least-squares branch. Its
    # normal matrix has a condition number near 2e5, so two correct solves
    # agree only to about twice eps times that (cofactors against LU: 8e-11)
    leg = posed(default_leg(0), np.zeros(3))
    J = leg_jacobian_local(leg)
    for _ in range(20):
        A, b = J + 1e-7 * rng.normal(size=(3, 3)), rng.normal(size=3)
        assert abs(np.linalg.det(A)) < 1e-6
        x = simworld._solve3(A.tolist(), b.tolist())
        M = A.T @ A + 1e-6 * np.eye(3)
        np.testing.assert_allclose(x, np.linalg.solve(M, A.T @ b),
                                   rtol=2.0 * np.finfo(float).eps * np.linalg.cond(M))


def test_tip_forces_equal_the_transposed_solve_on_near_singular_legs():
    """Bit for bit: each leg's tip force is `matvec3(R, _solve3(J', tau))`,
    on ordinary joint angles and on nearly straight knees, whose Jacobians
    take the damped branch."""
    rng = np.random.default_rng(63)
    legs = make_legs(StackConfig().robot)
    damped = 0
    for k in range(2000):
        R = rotation_exp(rng.normal(size=3)).tolist()
        for i, leg in enumerate(legs):
            q = rng.uniform(-2.0, 2.0, 3)
            if k % 2:
                q[2] = rng.normal(scale=10.0 ** -rng.uniform(3, 9))
            legs[i] = posed(leg, q)
        tau = (rng.normal(scale=5.0, size=12) * 10.0 ** rng.uniform(-3, 2)).tolist()
        want = [tuple(simworld.matvec3(R, simworld._solve3(tuple(zip(*leg.jacobian_rows)),
                                                            tau[3 * i:3 * i + 3])))
                for i, leg in enumerate(legs)]
        assert simworld._tip_forces(R, legs, tau) == want
        damped += sum(abs(simworld.det3(leg.jacobian_rows)) < 1e-6 for leg in legs)
    assert 500 < damped < 4 * 2000 - 500  # both branches, often


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 100.00000000000001, -150.0])
def test_the_speed_check_raises_exactly_as_the_abs_max_form(bad):
    """With a NaN, an infinity or a value past the limit at any position of
    the trunk, feet and two objects' velocities, the one-pass check raises,
    with the message of the `_abs_max` form; at the limit it does not."""
    rng = np.random.default_rng(64)
    for n in (15, 21):
        for pos in range(n):
            for _ in range(3):
                speeds = rng.uniform(-100.0, 100.0, n).tolist()
                speeds[int(rng.integers(n))] = float(rng.choice([100.0, -100.0]))
                vmax = simworld._abs_max(speeds)
                assert not (vmax > 100.0 or not math.isfinite(vmax))
                simworld._check_speeds(speeds)
                speeds[pos] = bad
                vmax = simworld._abs_max(speeds)
                assert vmax > 100.0 or not math.isfinite(vmax)
                with pytest.raises(SimulationDivergence) as e:
                    simworld._check_speeds(speeds)
                assert str(e.value) == f"velocity {vmax:.1f} m/s exceeds the plausibility limit"


def test_the_ik_clamp_equals_min_max_at_the_edges():
    """`_clamp` gives `min(hi, max(lo, x))` bit for bit for the IK's bounds,
    at and one ulp either side of each bound, for NaN, infinities, signed
    zeros and seeded draws."""
    rng = np.random.default_rng(65)
    for lo, hi in ((-1.0, 1.0), (-1.0, 1.0 - 1e-12)):
        edges = [lo, hi] + [math.nextafter(b, s) for b in (lo, hi) for s in (-math.inf, math.inf)]
        values = edges + [math.nan, math.inf, -math.inf, 0.0, -0.0, *rng.uniform(-1.1, 1.1, 1000)]
        for x in values:
            got, want = simworld._clamp(x, lo, hi), min(hi, max(lo, x))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert simworld._clamp(math.nan, -1.0, 1.0) == -1.0


def test_the_shoulder_is_made_once_and_read_only():
    for leg in make_legs(StackConfig().robot):
        want = np.array(leg.hip_offset) + np.array([0.0, leg.side * leg.link_lengths[0], 0.0])
        assert np.array(leg.shoulder).tobytes() == want.tobytes() and leg.shoulder is leg.shoulder
        assert np.array(leg.copy().shoulder).tobytes() == want.tobytes()
        assert all(type(x) is float for x in leg.shoulder)
        with pytest.raises(TypeError):
            leg.shoulder[1] = 0.0


@pytest.mark.parametrize("name", ["box", "cylinder", "l_prism"])
def test_far_foot_skip_never_drops_a_contact(name):
    """`step` skips a foot farther than the shape's `_radius` plus the foot
    radius; the full signed distance must then find no contact."""
    shape = PIN_SHAPES[name]()
    rf = StackConfig().robot.foot_radius
    far = shape._radius + rf
    rng = np.random.default_rng(45)
    dirs = rng.normal(size=(20000, 3))
    pts = dirs / np.linalg.norm(dirs, axis=1)[:, None] * rng.uniform(0.0, 1.5 * far, (20000, 1))
    skipped = touching = 0
    for p in pts:
        contact = shape.signed_distance(p.tolist())[0] < rf
        touching += contact
        if p @ p > far * far:
            skipped += 1
            assert not contact, p
    assert skipped > 5000 and touching > 1000


# -- friction pass against its numpy formulation --------------------------------


def _numpy_friction_pass(fric, objects, feet_v, obj_v, obj_w, obj_L, obj_I_inv, mf, dt):
    """The friction pass as it was written before its float rewrite: every
    3-vector dot and every inverse-inertia product is a numpy call. Each
    contact brings its offset r from the object origin and its Coulomb
    budget mu * fn * dt."""
    I_inv = [np.array(M) for M in obj_I_inv]
    applied = [0.0] * len(fric)
    for _sweep in range(2):
        for ci, (kind, foot, oi, r, n, budget, rec) in enumerate(fric):
            if kind == "foot_ground":
                v_rel = feet_v[foot]
            else:
                obj = objects[oi]
                v_rel = (np.array(obj_v[oi]) + np.cross(obj_w[oi], r)).tolist()
                if kind == "foot_obj":
                    v_rel = [feet_v[foot][k] - v_rel[k] for k in range(3)]
            vn = float(np.array(v_rel) @ np.array(n))
            v_t = np.array([v_rel[k] - vn * n[k] for k in range(3)])
            speed = math.sqrt(float(v_t @ v_t))
            if speed < 1e-12:
                continue
            t_hat = v_t / speed
            if kind == "foot_ground":
                k_inv = 1.0 / mf
            else:
                rx = np.cross(r, t_hat)
                k_inv = 1.0 / obj.mass + float(rx @ I_inv[oi] @ rx)
                if kind == "foot_obj":
                    k_inv = 1.0 / mf + k_inv
            j = min(speed / k_inv, max(budget - applied[ci], 0.0))
            if j <= 0.0:
                continue
            applied[ci] += j
            rec.tangential_force = applied[ci] / dt
            imp = -j * t_hat
            if kind != "obj_ground":
                feet_v[foot][:] = (np.array(feet_v[foot]) + imp / mf).tolist()
            if kind != "foot_ground":
                sign = 1.0 if kind == "obj_ground" else -1.0
                obj_v[oi][:] = (np.array(obj_v[oi]) + sign * imp / obj.mass).tolist()
                obj_L[oi][:] = (np.array(obj_L[oi]) + sign * np.cross(r, imp)).tolist()
                obj_w[oi] = (I_inv[oi] @ np.array(obj_L[oi])).tolist()


def _standing_feet(n_steps):
    world = standing_world()
    return _run_pin(world, _pin_torques(world, _stand_forces(world)), n_steps)


# name: (world after some steps, contact kinds that must take an impulse).
# The box is caught mid-slide, where the Coulomb cap binds; the L-prism and
# the cylinder after they stop, where the effective mass and the second
# sweep decide the impulse.
FRICTION_SCENES = {
    "feet_on_ground": (lambda: _standing_feet(20), {"foot_ground"}),
    "sliding_box": (lambda: scene_resting("box", 5), {"foot_ground", "obj_ground"}),
    "foot_drags_box": (lambda: scene_foot_press(150), {"foot_obj"}),
    "l_prism": (lambda: scene_resting("l_prism", 60), {"obj_ground"}),
    "cylinder": (lambda: scene_resting("cylinder", 60), {"obj_ground"}),
}


@pytest.mark.parametrize("name", sorted(FRICTION_SCENES))
def test_friction_pass_matches_its_numpy_formulation(name, monkeypatch):
    scene, slipping = FRICTION_SCENES[name]
    calls = []
    real_pass = simworld._friction_pass

    def recording(*args):
        calls.append(copy.deepcopy(args))
        real_pass(*args)

    monkeypatch.setattr(simworld, "_friction_pass", recording)
    scene()
    args = calls[-1]  # the inputs of the scene's last tick
    new, ref = copy.deepcopy(args), copy.deepcopy(args)
    real_pass(*new)
    _numpy_friction_pass(*ref)

    def outputs(a):
        fric, _, feet_v, obj_v, obj_w = a[:5]
        return [np.ravel(feet_v), np.ravel(obj_v), np.ravel(obj_w),
                np.array([c[-1].tangential_force for c in fric])]

    # each quantity to 1e-12 of itself, or of its largest component where a
    # small one is the difference of large terms (a dragged box's spin)
    for got, want in zip(outputs(new), outputs(ref)):
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want), initial=0.0))
    # the tick applies friction at every contact kind the scene is built for
    f_ref = outputs(ref)[-1]
    slipped = {c[0] for c, f in zip(ref[0], f_ref) if f > 0.0}
    assert slipping <= slipped


def _parent_friction_pass(fric, objects, feet_v, obj_t, obj_v, obj_w, obj_L, obj_I_inv,
                          mf, mu_ground, dt):
    """The float friction pass before the per-tick values left its loop: it
    takes each contact's point and normal force, forms r = point - t, the
    point velocity, 1/m, 1/mf and the Coulomb budget per contact and sweep."""
    applied = [0.0] * len(fric)
    for _sweep in range(2):
        for ci, (kind, foot, oi, point, n, fn, rec) in enumerate(fric):
            if kind is simworld._FOOT_GROUND:
                v0, v1, v2 = feet_v[foot]
                mu = mu_ground
            else:
                obj = objects[oi]
                t = obj_t[oi]
                r = (point[0] - t[0], point[1] - t[1], point[2] - t[2])
                c0, c1, c2 = cross3(obj_w[oi], r)
                u = obj_v[oi]
                v0, v1, v2 = u[0] + c0, u[1] + c1, u[2] + c2
                if kind is simworld._FOOT_OBJ:
                    fv = feet_v[foot]
                    v0, v1, v2 = fv[0] - v0, fv[1] - v1, fv[2] - v2
                mu = min(obj.friction, mu_ground)
            n0, n1, n2 = n
            vn = v0 * n0 + v1 * n1 + v2 * n2
            t0, t1, t2 = v0 - vn * n0, v1 - vn * n1, v2 - vn * n2
            speed = math.sqrt(t0 * t0 + t1 * t1 + t2 * t2)
            if speed < 1e-12:
                continue
            t_hat = (t0 / speed, t1 / speed, t2 / speed)
            if kind is simworld._FOOT_GROUND:
                k_inv = 1.0 / mf
            else:
                (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = obj_I_inv[oi]
                x0, x1, x2 = cross3(r, t_hat)
                k_inv = 1.0 / obj.mass + (x0 * (a00 * x0 + a01 * x1 + a02 * x2)
                                          + x1 * (a10 * x0 + a11 * x1 + a12 * x2)
                                          + x2 * (a20 * x0 + a21 * x1 + a22 * x2))
                if kind is simworld._FOOT_OBJ:
                    k_inv = 1.0 / mf + k_inv
            j = min(speed / k_inv, max(mu * fn * dt - applied[ci], 0.0))
            if j <= 0.0:
                continue
            applied[ci] += j
            rec.tangential_force = applied[ci] / dt
            i0, i1, i2 = imp = (-j * t_hat[0], -j * t_hat[1], -j * t_hat[2])
            if kind is not simworld._OBJ_GROUND:
                fv = feet_v[foot]
                fv[0], fv[1], fv[2] = fv[0] + i0 / mf, fv[1] + i1 / mf, fv[2] + i2 / mf
            if kind is not simworld._FOOT_GROUND:
                v, L = obj_v[oi], obj_L[oi]
                c0, c1, c2 = cross3(r, imp)
                m = obj.mass
                if kind is simworld._OBJ_GROUND:
                    v[0], v[1], v[2] = v[0] + i0 / m, v[1] + i1 / m, v[2] + i2 / m
                    L[0], L[1], L[2] = L[0] + c0, L[1] + c1, L[2] + c2
                else:
                    v[0], v[1], v[2] = v[0] - i0 / m, v[1] - i1 / m, v[2] - i2 / m
                    L[0], L[1], L[2] = L[0] - c0, L[1] - c1, L[2] - c2
                L0, L1, L2 = L
                obj_w[oi] = [a00 * L0 + a01 * L1 + a02 * L2, a10 * L0 + a11 * L1 + a12 * L2,
                             a20 * L0 + a21 * L1 + a22 * L2]


def _random_contact_set(rng, n_objects, n_contacts, mf, mu_ground, dt):
    """Inputs of a random friction pass in both forms: the parent's (point,
    normal force, mu_ground) and the step's (r = point - t, Coulomb budget
    mu * fn * dt, as `step` forms them). Every kind appears, on several
    objects; the normal forces span budgets that bind and budgets that do not."""
    objects, obj_t, obj_v, obj_w, obj_L, obj_I_inv = [], [], [], [], [], []
    for oi in range(n_objects):
        A = rng.normal(size=(3, 3))
        objects.append(SimObject(Box((0.1, 0.1, 0.1)), RigidTransform.identity(),
                                 mass=float(rng.uniform(0.05, 2.0)),
                                 friction=float(rng.uniform(0.2, 0.9)), name=f"o{oi}"))
        obj_t.append(rng.normal(scale=0.3, size=3).tolist())
        obj_v.append(rng.normal(scale=0.2, size=3).tolist())
        obj_w.append(rng.normal(scale=2.0, size=3).tolist())
        obj_L.append(rng.normal(scale=0.01, size=3).tolist())
        obj_I_inv.append((50.0 * (A @ A.T + 0.5 * np.eye(3))).tolist())
    feet_v = rng.normal(scale=0.2, size=(4, 3)).tolist()
    kinds = [simworld._FOOT_GROUND, simworld._OBJ_GROUND, simworld._FOOT_OBJ]
    old, new = [], []
    for ci in range(n_contacts):
        kind = kinds[ci % 3] if ci < 3 else kinds[rng.integers(3)]
        foot = -1 if kind is simworld._OBJ_GROUND else int(rng.integers(4))
        oi = -1 if kind is simworld._FOOT_GROUND else int(rng.integers(n_objects))
        point = rng.normal(scale=0.3, size=3).tolist()
        if kind is simworld._FOOT_OBJ:
            n = rng.normal(size=3)
            n = (n / np.linalg.norm(n)).tolist()
        else:
            n = (0.0, 0.0, 1.0)
        fn = float(10.0 ** rng.uniform(-2.0, 3.0))
        rec_old = simworld.ContactRecord(0.001, fn, 0.0, ("a", "b"))
        rec_new = simworld.ContactRecord(0.001, fn, 0.0, ("a", "b"))
        old.append((kind, foot, oi, point, n, fn, rec_old))
        if kind is simworld._FOOT_GROUND:
            new.append((kind, foot, oi, None, n, mu_ground * fn * dt, rec_new))
        else:
            t = obj_t[oi]
            mu = min(objects[oi].friction, mu_ground)
            r = (point[0] - t[0], point[1] - t[1], point[2] - t[2])
            new.append((kind, foot, oi, r, n, mu * fn * dt, rec_new))
    state = (feet_v, obj_v, obj_w, obj_L)
    return objects, obj_t, obj_I_inv, old, new, state


def test_friction_pass_equals_the_parent_float_pass():
    """Bit for bit, on 300 random contact sets of every kind over one to four
    objects: the velocities, momenta and each record's tangential force."""
    rng = np.random.default_rng(46)
    mf, mu_ground, dt = 0.1, 0.5, 0.001
    capped = free = 0
    for _ in range(300):
        objects, obj_t, obj_I_inv, old, new, state = _random_contact_set(
            rng, int(rng.integers(1, 5)), int(rng.integers(3, 25)), mf, mu_ground, dt)
        s_old, s_new = copy.deepcopy(state), copy.deepcopy(state)
        feet_v, obj_v, obj_w, obj_L = s_old
        _parent_friction_pass(old, objects, feet_v, obj_t, obj_v, obj_w, obj_L, obj_I_inv,
                              mf, mu_ground, dt)
        feet_v, obj_v, obj_w, obj_L = s_new
        simworld._friction_pass(new, objects, feet_v, obj_v, obj_w, obj_L, obj_I_inv, mf, dt)
        assert s_new == s_old
        f_old = [c[-1].tangential_force for c in old]
        assert [c[-1].tangential_force for c in new] == f_old
        for c, f in zip(old, f_old):
            capped += f > 0.0 and f == pytest.approx(c[-1].normal_force * min(
                mu_ground, 1.0 if c[2] < 0 else objects[c[2]].friction), rel=1e-12)
            free += f > 0.0
    # both branches of the Coulomb cap ran
    assert capped > 100 and free - capped > 100


# -- derived rows are written with their source ----------------------------------


def _rows(R) -> tuple:
    return tuple(map(tuple, R.tolist()))


def test_rotation_follows_in_place_rpy_writes():
    """rpy is a tuple: a write in place raises and leaves the trunk as it
    was. A trunk in another pose is a new state, whose rotation rows are
    `euler_zyx_to_matrix` of its rpy bit for bit, and the next step starts
    from those rows."""
    srb = SrbState(np.array([0.1, -0.2, 0.3]), np.zeros(3), np.zeros(3), np.zeros(3))
    R0 = srb.rotation()
    assert np.array_equal(R0, euler_zyx_to_matrix(0.1, -0.2, 0.3))
    with pytest.raises(TypeError):
        srb.rpy[:] = (0.0, 0.05, -1.0)
    with pytest.raises(TypeError):
        srb.rpy[2] = 0.7
    assert srb.rpy == (0.1, -0.2, 0.3) and srb.rotation_rows == _rows(R0)
    moved = posed(srb, (0.0, 0.05, -1.0))
    assert moved.rotation_rows == _rows(euler_zyx_to_matrix(0.0, 0.05, -1.0))
    assert np.array_equal(posed(moved, (0.1, -0.2, 0.3)).rotation(), R0)

    # in a stepped free-base world the rows are the rotation the steps
    # integrated; a replaced trunk's rows are rebuilt from its rpy, and the
    # next step starts from that rebuild, not from the rotation the last step
    # left
    world = _torque_free_tumbling_world()
    for _ in range(70):
        step(world, np.zeros(12))
    stale = world.robot.srb.rotation_rows
    with pytest.raises(TypeError):
        world.robot.srb.rpy[:] = (0.02, -0.01, 0.4)
    srb = world.robot.srb = posed(world.robot.srb, (0.02, -0.01, 0.4))
    R = euler_zyx_to_matrix(0.02, -0.01, 0.4)
    assert np.array_equal(srb.rotation(), R)
    assert srb.rotation_rows == _rows(R)
    fresh, kept = world.copy(), world.copy()
    kept.robot.srb.rotation_rows = stale
    for w in (world, fresh, kept):
        step(w, np.zeros(12))
    assert np.array_equal(_end_state(world), _end_state(fresh))
    assert np.max(np.abs(_end_state(world) - _end_state(kept))) > 1e-3


def _torque_free_tumbling_world():
    """A standing world with ground and gravity off and the trunk spinning:
    under zero joint torques nothing acts on the trunk."""
    world = standing_world()
    world.gravity_enabled = world.ground_enabled = False
    world.robot.srb.angular_velocity = (0.4, -0.3, 0.6)
    return world


def test_a_tumbling_trunk_keeps_its_rpy_chart_and_stays_a_rotation():
    """5,000 ticks of torque-free tumbling: the rpy each step writes is the
    chart of the rotation it keeps, and the every-64-step re-orthonormalisation
    holds that rotation on SO(3)."""
    world = _torque_free_tumbling_world()
    srb = world.robot.srb
    for _ in range(5000):
        step(world, np.zeros(12))
        assert matrix_to_euler_zyx(srb.rotation_rows) == srb.rpy
    R = np.array(srb.rotation_rows)
    assert np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-13


def test_leg_jacobian_follows_in_place_joint_writes():
    """joint_angles is a tuple: a write in place raises. A leg at other
    angles is a new leg whose Jacobian rows are those of its angles; a
    teleport replaces the trunk and the legs, and the rows, the stance
    torques, the impedance law and the next step then see the new values."""
    leg = posed(default_leg(2), (0.1, 0.6, -1.2))
    trunk = level_trunk()
    J1 = leg_jacobian_local(leg)
    with pytest.raises(TypeError):
        leg.joint_angles[1] = 0.9
    assert leg.joint_angles == (0.1, 0.6, -1.2)
    leg = posed(leg, (0.1, 0.9, -1.2))
    J2 = leg_jacobian_local(leg)
    fd = np.empty((3, 3))
    eps = 1e-6
    for j in range(3):
        dq = eps * np.eye(3)[j]
        p_plus = leg_forward_kinematics(posed(leg, np.array(leg.joint_angles) + dq), trunk)
        p_minus = leg_forward_kinematics(posed(leg, np.array(leg.joint_angles) - dq), trunk)
        fd[:, j] = (p_plus - p_minus) / (2 * eps)
    assert np.max(np.abs(J2 - fd)) < 1e-6
    assert np.max(np.abs(J2 - J1)) > 1e-2
    trunk = posed(trunk, (0.2, -0.1, 0.5))
    assert np.array_equal(leg_jacobian(leg, trunk),
                          euler_zyx_to_matrix(0.2, -0.1, 0.5) @ leg_jacobian_local(leg))

    world = standing_world()
    robot = world.robot
    tau = _pin_torques(world, _stand_forces(world))
    for _ in range(3):
        step(world, tau)
    forces = (np.array(_stand_forces(world)) + 1.0).tolist()
    swing = world.config.swing
    p, v = np.array(robot.feet_pos[0]), np.array(robot.feet_vel[0])
    p_des = p + np.array([0.02, -0.01, 0.03])

    def controllers(robot):
        imp = impedance_torque_tracking(robot.legs[0], robot.srb, p, v, p_des, np.zeros(3),
                                        swing.kp, swing.kd)
        return (robot.srb.rotation_rows, robot.legs[0].jacobian_rows,
                np.array(stance_torques(robot, forces, ALL_STANCE)), np.asarray(imp.torques))

    before = controllers(robot)
    robot.srb = posed(robot.srb, (0.02, -0.01, 0.4))
    robot.legs[0] = posed(robot.legs[0], (0.05, 0.7, -1.3))
    after = controllers(robot)
    fresh = controllers(world.copy().robot)
    assert after[:2] == fresh[:2]
    assert after[0] == _rows(euler_zyx_to_matrix(0.02, -0.01, 0.4))
    assert after[1] == simworld._jac_local(0.05, 0.7, -1.3, robot.legs[0].side,
                                           *robot.legs[0].link_lengths)
    for a, f, b in zip(after[2:], fresh[2:], before[2:]):
        assert np.array_equal(a, f)
        assert np.max(np.abs(a - b)) > 1e-2
    # the next step, against a copy
    twin = world.copy()
    step(world, tau)
    step(twin, tau)
    assert np.array_equal(_end_state(world), _end_state(twin))


def test_a_step_fills_the_kinematics_slots_with_its_new_values():
    """After a step each leg's Jacobian rows are those of the angles the leg
    sync solved: the rows of a leg built at those angles. The trunk's rows are
    the rotation the step integrated, of which rpy is the chart; a rebuild
    from that rpy agrees to rounding, and a copy keeps the integrated rows,
    not the rebuild."""
    world = standing_world()
    world.robot.srb.angular_velocity = (0.1, -0.2, 0.3)
    step(world, _pin_torques(world, _stand_forces(world)))
    for leg in world.robot.legs:
        assert leg.jacobian_rows == posed(leg, leg.joint_angles).jacobian_rows
        assert leg.copy().jacobian_rows == leg.jacobian_rows

    # torque free, the integrated rotation follows from the pre-step state:
    # the first step re-orthonormalises it, the second does not
    world = _torque_free_tumbling_world()
    srb = world.robot.srb
    I0, I1, I2 = world.config.robot.trunk_inertia
    dt = world.config.sim.dt
    for renorm in (True, False):
        assert (world._steps % simworld._RENORM_EVERY == 0) is renorm
        R = srb.rotation_rows
        wb = simworld.matvec3_t(R, srb.angular_velocity)
        L = simworld.matvec3(R, (I0 * wb[0], I1 * wb[1], I2 * wb[2]))
        Lb = simworld.matvec3_t(R, L)
        w_mid = simworld.matvec3(R, (Lb[0] / I0, Lb[1] / I1, Lb[2] / I2))
        R_new = simworld.matmul3(
            simworld._rotation_exp(w_mid[0] * dt, w_mid[1] * dt, w_mid[2] * dt), R)
        if renorm:
            R_new = simworld.orthonormalize(np.array(R_new)).tolist()
        step(world, np.zeros(12))
        assert srb.rotation_rows == tuple(map(tuple, R_new))
        rebuilt = posed(srb, srb.rpy).rotation_rows
        assert np.max(np.abs(np.array(rebuilt) - np.array(srb.rotation_rows))) <= 1e-15
    # a copy keeps the integrated rows, which at some ticks differ from the
    # rebuild in the last bits
    differs = 0
    for _ in range(100):
        step(world, np.zeros(12))
        assert world.copy().robot.srb.rotation_rows == srb.rotation_rows
        differs += posed(srb, srb.rpy).rotation_rows != srb.rotation_rows
    assert differs > 0


def test_mutating_returned_kinematics_does_not_leak():
    leg = posed(default_leg(1), (-0.1, 0.8, -1.5))
    trunk = SrbState(np.array([0.05, 0.02, -0.4]), np.array([0.0, 0.0, 0.3]),
                     np.zeros(3), np.zeros(3))
    R, Jl, J = trunk.rotation(), leg_jacobian_local(leg), leg_jacobian(leg, trunk)
    kept = R.copy(), Jl.copy(), J.copy()
    rows = trunk.rotation_rows, leg.jacobian_rows
    for M in (R, Jl, J):
        M[:] = 0.0
    assert np.array_equal(trunk.rotation(), kept[0])
    assert np.array_equal(leg_jacobian_local(leg), kept[1])
    assert np.array_equal(leg_jacobian(leg, trunk), kept[2])
    # the shared rows are immutable and unchanged by writes to the arrays
    assert (trunk.rotation_rows, leg.jacobian_rows) == rows
    assert np.array_equal(np.array(rows[0]), kept[0])
    assert np.array_equal(np.array(rows[1]), kept[1])
    assert all(type(r) is tuple for M in rows for r in (M, *M))
    # neither do writes into the returned torques
    world = standing_world()
    robot = world.robot
    forces = _stand_forces(world)
    tau = stance_torques(robot, forces, ALL_STANCE)
    kept_tau = list(tau)
    tau[:] = [0.0] * 12
    assert stance_torques(robot, forces, ALL_STANCE) == kept_tau


def test_step_after_in_place_pose_write_matches_a_fresh_copy():
    """A pose is not written in place (the write raises); a world whose
    trunk and leg were replaced steps like a copy of it."""
    w1 = standing_world()
    tau = _pin_torques(w1, _stand_forces(w1))
    for _ in range(3):
        step(w1, tau)
    for pose, value in ((w1.robot.srb.rpy, 0.02), (w1.robot.legs[0].joint_angles, 0.05)):
        with pytest.raises(TypeError):
            operator.setitem(pose, 0, value)
    w1.robot.srb = posed(w1.robot.srb, (0.02, -0.01, 0.4))
    w1.robot.legs[0] = posed(w1.robot.legs[0], (0.05, 0.7, -1.3))
    w2 = w1.copy()
    for _ in range(2):
        step(w1, tau)
        step(w2, tau)
    assert np.array_equal(_end_state(w1), _end_state(w2))


def test_hip_offset_is_read_only_and_kept_as_floats():
    given = np.array([0.19, 0.05, 0.0])
    leg = make_legs(StackConfig().robot)[0]
    leg = simworld.LegModel(given, leg.side, leg.link_lengths, leg.joint_limits)
    given[0] = 1.0  # the leg keeps its own floats
    for each in (leg, leg.copy(), *standing_world().robot.legs):
        assert type(each.hip_offset) is tuple
        assert all(type(x) is float for x in each.hip_offset)
        with pytest.raises(TypeError):
            each.hip_offset[0] = 1.0
    assert leg.copy().hip_offset == (0.19, 0.05, 0.0)


def test_object_inertia_is_a_read_only_copy_with_its_rows():
    """The object keeps the inertia it is given, and its inverse, as float
    rows; the caller's array stays writable and is not read again."""
    given = np.diag([2e-3, 3e-3, 4e-3])
    obj = SimObject(Box((0.1, 0.1, 0.1)), RigidTransform.identity(), inertia=given)
    assert given.flags.writeable  # the object keeps its own rows
    given[0, 0] = 1.0
    for each in (obj, obj.copy()):
        with pytest.raises(TypeError):
            each.inertia[0][0] = 1.0
        assert each.inertia == ((2e-3, 0.0, 0.0), (0.0, 3e-3, 0.0), (0.0, 0.0, 4e-3))
        assert all(type(x) is float for row in each.inertia for x in row)
        assert each.inverse_inertia_rows == _rows(np.linalg.inv(np.diag([2e-3, 3e-3, 4e-3])))


def test_step_gives_each_object_a_new_pose_and_the_feet_new_rows():
    world = scene_resting("box", n_steps=0)
    obj = world.objects[0]
    feet_p, feet_v, before = world.robot.feet_pos, world.robot.feet_vel, obj.pose
    step(world, _pin_torques(world, _stand_forces(world)))
    assert world.robot.feet_pos is not feet_p and world.robot.feet_vel is not feet_v
    assert world.robot.feet_pos != feet_p and world.robot.feet_vel != feet_v
    pose = obj.pose
    assert pose is not before
    assert pose.rotation.shape == (3, 3) and pose.translation.shape == (3,)
    assert pose.rotation.dtype == pose.translation.dtype == np.float64
    with pytest.raises(AttributeError):
        pose.rotation = np.eye(3)


def test_feet_given_as_arrays_of_any_layout_step_like_float_rows():
    """A robot keeps its feet as rows of floats, whatever array layout they
    were given in, and steps like the robot it was made from."""
    w1 = standing_world()
    w2 = w1.copy()
    r2 = w2.robot
    w2.robot = RobotState(r2.srb, r2.legs, np.asfortranarray(r2.feet_pos),
                          np.asfortranarray(r2.feet_vel))
    assert (w2.robot.feet_pos, w2.robot.feet_vel) == (w1.robot.feet_pos, w1.robot.feet_vel)
    assert all(type(x) is float for rows in (w2.robot.feet_pos, w2.robot.feet_vel)
               for row in rows for x in row)
    tau = _pin_torques(w1, _stand_forces(w1))
    for _ in range(5):
        step(w1, tau)
        step(w2, tau)
    assert np.array_equal(_end_state(w1), _end_state(w2))
    assert not np.array_equal(w1.robot.feet_vel, np.zeros((4, 3)))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the vertical contact mode of this "
                   "cylinder has omega*dt = 2.17, past the 1.87 stability limit of the damped "
                   "symplectic step, so it never comes to rest; the contact-model fix "
                   "removes this mark")
def test_the_stiffest_catalog_cylinder_stays_at_rest():
    """Training shape 1, a 0.034 kg cylinder on 16 support vertices, set down
    at its penalty rest pose beside a fixed-base robot and left alone."""
    cfg = StackConfig()
    shape = harness.object_catalog("train")[1]
    assert isinstance(shape, Cylinder)
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    obj.pose = rest_pose_on_ground(shape, xy=(0.45, 0.0), config=cfg, mass=obj.mass)
    z_rest = float(obj.pose.translation[2])
    world = standing_world(cfg, objects=[obj])
    world.fixed_base = True
    worst = 0.0
    for _ in range(300):
        step(world, np.zeros(12))
        worst = max(worst, abs(float(world.objects[0].pose.translation[2]) - z_rest))
    assert worst < 1e-6


# -- resting objects sleep --------------------------------------------------------


def _sleep_ticks(world) -> int:
    return round(simworld.SLEEP_TIME / world.config.sim.dt)


def _box_beside_a_fixed_robot(x=0.33, slide=True):
    """A box on the ground in line with the front-left foot of a fixed-base
    robot, more than its bound from every foot; sliding and spinning until
    friction stops it, or set down at its penalty rest pose."""
    cfg = StackConfig()
    shape = Box((0.08, 0.08, 0.06))
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    world = standing_world(cfg)
    world.fixed_base = True
    foot = world.robot.feet_pos[0]
    obj.pose = rest_pose_on_ground(shape, xy=(x, foot[1]), config=cfg, mass=obj.mass)
    if slide:
        obj.linear_velocity = (-0.05, 0.02, 0.0)
        obj.angular_velocity = (0.0, 0.0, 0.5)
    world.objects.append(obj)
    x, y, z = foot
    world.robot.feet_pos = _with_row(world.robot.feet_pos, 0, (x, y, z + 0.005))
    return world


def _drive_front_left_foot(world):
    """One tick with the front-left foot driven forward at 0.1 m/s."""
    world.robot.feet_vel = _with_row(world.robot.feet_vel, 0, (0.1, 0.0, 0.0))
    step(world, np.zeros(12))


def _ground_records(world, obj):
    return [rec for rec in world.contact_set if rec.bodies == (obj.name, "ground")]


def test_a_resting_box_falls_asleep_after_the_stated_time_and_holds_still():
    world = _box_beside_a_fixed_robot(slide=False)
    obj = world.objects[0]
    n = _sleep_ticks(world)
    assert n == 100
    for _ in range(n - 1):  # set down at rest, it is quiet from the first tick
        step(world, np.zeros(12))
        assert not obj.asleep
    step(world, np.zeros(12))
    assert obj.asleep
    pose, contacts = obj.pose, world.contact_set[:]
    kept = (pose.rotation.tobytes(), pose.translation.tobytes())
    ground = _ground_records(world, obj)
    assert len(ground) == 4
    for _ in range(1000):
        step(world, np.zeros(12))
        assert obj.asleep and obj.pose is pose
        assert _ground_records(world, obj) == ground
    assert (pose.rotation.tobytes(), pose.translation.tobytes()) == kept
    assert len(world.contact_set) == len(contacts)
    assert not any(obj.linear_velocity) and not any(obj.angular_velocity)


def _asleep_box():
    world = _box_beside_a_fixed_robot(slide=False)
    for _ in range(_sleep_ticks(world)):
        step(world, np.zeros(12))
    assert world.objects[0].asleep
    return world, world.objects[0]


def test_a_foot_within_the_bound_wakes_the_box_on_that_tick():
    world, obj = _asleep_box()
    hx = obj.shape.extents[0] / 2.0
    rf = world.config.robot.foot_radius
    _, y, z = world.robot.feet_pos[0]
    x = float(obj.pose.translation[0]) - hx - rf + 0.002  # 2 mm deep
    world.robot.feet_pos = _with_row(world.robot.feet_pos, 0, (x, y, z))
    pose = obj.pose
    step(world, np.zeros(12))
    assert not obj.asleep and obj.pose is not pose
    assert [rec for rec in world.contact_set if rec.bodies == ("foot_0", obj.name)]
    assert obj.linear_velocity[0] > 0.0


def test_a_new_pose_or_a_velocity_wakes_the_box_and_its_pose_is_read_only():
    world, obj = _asleep_box()
    with pytest.raises(ValueError):
        obj.pose.translation[0] = 1.0
    with pytest.raises(ValueError):
        obj.pose.rotation[0, 0] = 1.0
    obj.pose = RigidTransform(obj.pose.rotation.copy(), obj.pose.translation + (0.01, 0.0, 0.0))
    pose = obj.pose
    step(world, np.zeros(12))
    assert not obj.asleep and obj.pose is not pose

    world, obj = _asleep_box()
    x = float(obj.pose.translation[0])
    obj.linear_velocity = (1e-3, *obj.linear_velocity[1:])
    step(world, np.zeros(12))
    assert not obj.asleep and obj.pose.translation[0] > x

    for switch in ("ground_enabled", "gravity_enabled"):
        world, obj = _asleep_box()
        setattr(world, switch, False)
        step(world, np.zeros(12))
        assert not obj.asleep


def test_stepping_a_copy_equals_stepping_the_world_through_sleep_and_wake():
    w1 = _box_beside_a_fixed_robot()
    w2 = w1.copy()
    worlds, seen = [w1, w2], []
    for k in range(1100):
        if k == 400:
            assert w1.objects[0].asleep
            worlds.append(w1.copy())
        for w in worlds:
            _drive_front_left_foot(w)
        seen.append(w1.objects[0].asleep)
        assert len({w.objects[0].asleep for w in worlds}) == 1
    assert seen[399] and not seen[-1]  # fell asleep, then the foot woke it
    for w in worlds[1:]:
        assert np.array_equal(_end_state(w), _end_state(w1))
        assert [(r.penetration, r.normal_force, r.tangential_force, r.bodies)
                for r in w.contact_set] == [
            (r.penetration, r.normal_force, r.tangential_force, r.bodies)
            for r in w1.contact_set]


def test_a_copy_of_a_free_base_world_steps_like_the_world():
    """The copy carries the trunk's rotation rows: a copy taken after 100
    ticks of a spinning trunk on its stance torques, a copy of that copy, a
    deep copy and a pickle round trip (how `harness.map_shares` ships results
    between processes) end 1,000 ticks later where the world does, bit for
    bit."""
    world = standing_world()
    world.robot.srb.angular_velocity = (0.1, -0.2, 0.3)
    forces = _stand_forces(world)
    for _ in range(100):
        step(world, stance_torques(world.robot, forces, ALL_STANCE))
    copy_ = world.copy()
    worlds = [world, copy_, copy_.copy(), copy.deepcopy(world), pickle.loads(pickle.dumps(world))]
    for _ in range(1000):
        for w in worlds:
            step(w, stance_torques(w.robot, forces, ALL_STANCE))
    for w in worlds[1:]:
        assert np.array_equal(_end_state(w), _end_state(world))


def test_a_box_pushed_after_it_slept_ends_where_an_awake_box_does(monkeypatch):
    """The box slides to a stop, sleeps for about 0.3 s and is pushed about
    2.5 cm by the front-left foot. The awake reference never sleeps: its
    tolerances are 0. Measured: the end poses differ by 2.7e-13 m and
    3.5e-13 in the rotation entries."""
    def run():
        world = _box_beside_a_fixed_robot()
        obj = world.objects[0]
        asleep = 0
        for _ in range(1100):
            _drive_front_left_foot(world)
            asleep += obj.asleep
        return obj, asleep

    obj, asleep = run()
    assert asleep > 250 and not obj.asleep
    monkeypatch.setattr(simworld, "SLEEP_LINEAR_TOL", 0.0)
    monkeypatch.setattr(simworld, "SLEEP_ANGULAR_TOL", 0.0)
    ref, never = run()
    assert never == 0
    assert ref.pose.translation[0] > 0.35  # pushed 2 cm past where it was set down
    assert np.max(np.abs(obj.pose.translation - ref.pose.translation)) < 1e-11
    assert np.max(np.abs(obj.pose.rotation - ref.pose.rotation)) < 1e-11


def test_the_stiffest_catalog_cylinder_never_falls_asleep():
    """The unstable vertical contact mode of the shape of the strict xfail
    test above never stays under the sleep tolerances for the stated time."""
    cfg = StackConfig()
    shape = harness.object_catalog("train")[1]
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    obj.pose = rest_pose_on_ground(shape, xy=(0.45, 0.0), config=cfg, mass=obj.mass)
    world = standing_world(cfg, objects=[obj])
    world.fixed_base = True
    for _ in range(1000):
        step(world, np.zeros(12))
        assert not obj.asleep


# -- the state is float tuples ------------------------------------------------------


def _state_fields(world) -> dict:
    """The trunk position and velocities, the feet rows and the first
    object's velocities."""
    srb, rb, obj = world.robot.srb, world.robot, world.objects[0]
    return {"position": (srb.position,), "linear_velocity": (srb.linear_velocity,),
            "angular_velocity": (srb.angular_velocity,), "feet_pos": rb.feet_pos,
            "feet_vel": rb.feet_vel, "object linear_velocity": (obj.linear_velocity,),
            "object angular_velocity": (obj.angular_velocity,)}


def test_the_state_is_float_tuples_that_cannot_be_written_in_place():
    """After construction from arrays, a step, a copy, a pickle round trip,
    `seat_feet` and a teleport, each of the seven state fields is a tuple of
    three floats (a feet field four of them), and a write in place raises."""
    obj = SimObject(Box((0.08, 0.06, 0.05)), RigidTransform(np.eye(3), [0.4, 0.0, 0.1]),
                    np.array([0.1, 0.0, -0.2]), np.array([0.0, 0.3, 0.5]))
    def check(stage, w):
        for name, rows in _state_fields(w).items():
            assert type(rows) is tuple and len(rows) == (4 if name.startswith("feet") else 1)
            for row in rows:
                assert type(row) is tuple and len(row) == 3, (stage, name)
                assert all(type(x) is float for x in row), (stage, name)
                with pytest.raises(TypeError):
                    row[0] = 1.0

    world = standing_world(objects=[obj])
    check("constructed", world)
    step(world, _pin_torques(world, _stand_forces(world)))
    check("stepped", world)
    check("copied", world.copy())
    check("unpickled", pickle.loads(pickle.dumps(world)))
    seated = world.copy()
    simworld.seat_feet(seated)
    check("seated", seated)
    teleported = world.copy()
    core = orchestrator._OrchestratorCore(teleported, orchestrator.EpisodeOptions(),
                                          np.random.default_rng(5),
                                          orchestrator.EpisodeTrace("core", 0))
    core.teleport_to(orchestrator.StandoffPose((0.1, -0.05, 0.28), 0.4))
    check("teleported", teleported)
    with pytest.raises(TypeError):
        world.robot.srb.linear_velocity[0] = 1.0
    with pytest.raises(TypeError):
        world.robot.feet_pos[0] = (0.0, 0.0, 0.0)
    # a value of another shape is rejected where it is given
    srb = world.robot.srb
    with pytest.raises(ValueError):
        SrbState(srb.rpy, srb.position[:2], srb.angular_velocity, srb.linear_velocity)
    with pytest.raises(ValueError):
        RobotState(srb, world.robot.legs, world.robot.feet_pos[:3], world.robot.feet_vel)
    with pytest.raises(ValueError):
        SimObject(obj.shape, obj.pose, (0.0, 0.0, 0.0, 0.0))
