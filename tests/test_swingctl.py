import math

import numpy as np
import pytest

from legpress import cli
from legpress.config import StackConfig
from legpress.geom import RigidTransform
from legpress.harness import TaskSpec, make_provider, sample_task
from legpress.orchestrator import run_episode
from legpress.simworld import (
    Box,
    SimObject,
    leg_forward_kinematics,
    rest_pose_on_ground,
    shoulder_point,
    standing_world,
    step,
)
from legpress.swingctl import (
    SwingExecutor,
    UnreachableActionError,
    impedance_torque_tracking,
    is_reachable,
    plan_swing,
    workspace_radius,
)
from posing import posed


def setup_leg(q=(0.1, 0.8, -1.5)):
    world = standing_world()
    leg = world.robot.legs[0] = posed(world.robot.legs[0], q)
    return world, leg


def leg_jacobian(leg, trunk):
    """World-frame 3x3 Jacobian d(foot position)/d(joint angles)."""
    return trunk.rotation() @ np.array(leg.jacobian_rows)


def fd_jacobian(leg, trunk, eps=1e-7):
    J = np.zeros((3, 3))
    for j in range(3):
        dq = eps * np.eye(3)[j]
        p_plus = leg_forward_kinematics(posed(leg, np.array(leg.joint_angles) + dq), trunk)
        p_minus = leg_forward_kinematics(posed(leg, np.array(leg.joint_angles) - dq), trunk)
        J[:, j] = (p_plus - p_minus) / (2 * eps)
    return J


def foot_state(leg, trunk, joint_velocities=np.zeros(3)):
    """Foot position from forward kinematics and foot velocity rebuilt from
    the trunk twist and the leg-frame Jacobian times the joint velocities."""
    p_foot = leg_forward_kinematics(leg, trunk)
    v_foot = trunk.linear_velocity + np.cross(trunk.angular_velocity, p_foot - trunk.position) \
        + trunk.rotation() @ (np.array(leg.jacobian_rows) @ joint_velocities)
    return p_foot, v_foot


def test_zero_error_zero_torque():
    world, leg = setup_leg()
    trunk = world.robot.srb
    p, v = foot_state(leg, trunk)
    swing = world.config.swing
    cmd = impedance_torque_tracking(leg, trunk, p, v, p, np.zeros(3), swing.kp, swing.kd)
    assert np.max(np.abs(cmd.torques)) < 1e-10


def test_unit_error_matches_fd_jacobian_transpose():
    world, leg = setup_leg()
    trunk = world.robot.srb
    p, v = foot_state(leg, trunk)
    e = np.array([0.3, -0.2, 0.5])
    cmd = impedance_torque_tracking(leg, trunk, p, v, p + e, np.zeros(3), 450.0, 0.0)
    expected = fd_jacobian(leg, trunk).T @ (450.0 * e)
    assert np.max(np.abs(cmd.torques - expected)) < 1e-4  # fd-limited
    # algebraic exactness against the analytic jacobian
    exact = leg_jacobian(leg, trunk).T @ (450.0 * e)
    assert np.max(np.abs(cmd.torques - exact)) < 1e-10


def test_zero_gains_zero_torque_any_state():
    rng = np.random.default_rng(50)
    world, leg = setup_leg()
    trunk = world.robot.srb
    p, v = foot_state(leg, trunk)
    for _ in range(20):
        cmd = impedance_torque_tracking(leg, trunk, p, v, rng.normal(size=3),
                                        rng.normal(size=3), 0.0, 0.0)
        assert np.max(np.abs(cmd.torques)) == 0.0


def test_torque_law_exactness_with_velocity_term():
    rng = np.random.default_rng(51)
    world, leg = setup_leg()
    trunk = world.robot.srb
    trunk.linear_velocity = (0.1, -0.05, 0.02)
    trunk.angular_velocity = (0.02, 0.1, -0.07)
    qd = rng.normal(scale=0.5, size=3)
    p_des = rng.normal(size=3)
    v_des = rng.normal(size=3)
    p_foot, v_foot = foot_state(leg, trunk, qd)
    cmd = impedance_torque_tracking(leg, trunk, p_foot, v_foot, p_des, v_des, 450.0, 10.0)
    # reconstruct from independently evaluated pieces
    f = 450.0 * (p_des - p_foot) + 10.0 * (v_des - v_foot)
    expected = leg_jacobian(leg, trunk).T @ f
    assert np.max(np.abs(cmd.torques - expected)) < 1e-10


def test_singularity_flag_on_straight_leg():
    world, leg = setup_leg((0.0, 0.3, -1e-9))
    swing = world.config.swing
    p, v = foot_state(leg, world.robot.srb)
    cmd = impedance_torque_tracking(leg, world.robot.srb, p, v, np.zeros(3), np.zeros(3),
                                    swing.kp, swing.kd)
    assert cmd.singular
    assert np.all(np.isfinite(cmd.torques))


def impedance_reference(leg, trunk, p_foot, v_foot, p_des, v_des, kp, kd):
    """The impedance law on numpy arrays: J^T (kp (p_des - p) + kd (v_des - v))
    with the world Jacobian J, and its singular flag |det J| < 1e-6."""
    J = leg_jacobian(leg, trunk)
    f = kp * (p_des - p_foot) + kd * (v_des - v_foot)
    return J.T @ f, abs(float(np.linalg.det(J))) < 1e-6


def test_impedance_law_matches_the_numpy_form():
    rng = np.random.default_rng(52)
    world = standing_world()
    trunk = world.robot.srb
    for _ in range(300):
        trunk = posed(trunk, rng.uniform(-0.5, 0.5, 3))
        leg = posed(world.robot.legs[rng.integers(4)], rng.uniform(-2.0, 2.0, 3))
        kp, kd = rng.uniform(0.0, 900.0), rng.uniform(0.0, 30.0)
        p_foot, v_foot, p_des, v_des = rng.normal(scale=0.2, size=(4, 3))
        cmd = impedance_torque_tracking(leg, trunk, p_foot, v_foot, p_des, v_des, kp, kd)
        tau, singular = impedance_reference(leg, trunk, p_foot, v_foot, p_des, v_des, kp, kd)
        assert isinstance(cmd.torques, list) and len(cmd.torques) == 3
        np.testing.assert_allclose(cmd.torques, tau, rtol=1e-12, atol=0.0)
        assert cmd.singular == singular
        # float inputs, as the control tick passes them: a list of floats
        # with the same values
        rows = impedance_torque_tracking(leg, trunk, p_foot.tolist(), v_foot.tolist(),
                                         p_des.tolist(), v_des.tolist(), kp, kd).torques
        assert all(type(x) is float for x in rows) and rows == cmd.torques


def test_singular_flag_agrees_with_numpy_at_the_determinant_edge():
    """Bisect the knee angle to where |det J| crosses 1e-6 near the straight
    knee; 1e-10 rad to either side (|det J| moves about 2e-12) both forms
    give the same flag, set on the inner side only."""
    world, _ = setup_leg()
    trunk = posed(world.robot.srb, (0.1, -0.2, 0.3))
    gains = world.config.swing.kp, world.config.swing.kd

    def flags(q3):
        leg = posed(world.robot.legs[0], (0.1, 0.3, q3))
        p, v = foot_state(leg, trunk)
        p_des = p + 0.01
        cmd = impedance_torque_tracking(leg, trunk, p, v, p_des, np.zeros(3), *gains)
        return cmd.singular, impedance_reference(leg, trunk, p, v, p_des, np.zeros(3), *gains)[1]

    straight, bent = -1e-6, -1e-3  # |det J| about 2e-9 and 2e-5
    for _ in range(100):
        mid = 0.5 * (straight + bent)
        if flags(mid)[0]:
            straight = mid
        else:
            bent = mid
    assert flags(straight + 1e-10) == (True, True)
    assert flags(bent - 1e-10) == (False, False)


def test_gains_must_be_psd(tmp_path, capsys):
    """A scalar gain is positive semi-definite when it is not negative: a
    negative kp or kd stops the episode before its first tick, and the CLI
    exits 2 with a JSON record."""
    for key in ("kp", "kd"):
        cfg = StackConfig()
        setattr(cfg.swing, key, -1.0)
        task = sample_task(TaskSpec("box_push_fixed"), 0, cfg)
        with pytest.raises(ValueError, match=rf"config \[swing\] {key} must be non-negative, "
                                             r"got -1\.0"):
            run_episode(task, make_provider("null"), config=cfg)
        path = tmp_path / f"{key}.ini"
        path.write_text(f"[swing]\n{key} = -1e-9\n")
        assert cli.main(["--config", str(path), "eval", "--task", "box_push_fixed",
                         "--policy", "null", "--episodes", "1"]) == 2
        assert f"config [swing] {key} must be non-negative, got -1e-09" in capsys.readouterr().err


# -- planning -------------------------------------------------------------------


def test_pre_contact_point_formula():
    world = standing_world()
    leg = world.robot.legs[0]
    cfg = world.config.swing
    shoulder = shoulder_point(leg, world.robot.srb)
    contact = shoulder + np.array([0.15, 0.0, -0.22])
    motion = np.array([0.1, 0.0, 0.0])
    plan = plan_swing(contact, motion, leg, world.robot.srb, cfg,
                      world.robot.feet_pos[0])
    expected = contact - cfg.pre_contact_distance * np.array([1.0, 0, 0])
    expected[2] += cfg.lift_clearance
    assert np.max(np.abs(np.array(plan.waypoints[2].position) - expected)) < 1e-9


def test_long_motion_clipped_direction_preserved():
    world = standing_world()
    leg = world.robot.legs[0]
    cfg = world.config.swing
    shoulder = shoulder_point(leg, world.robot.srb)
    contact = shoulder + np.array([0.12, 0.0, -0.24])
    motion = np.array([1.0, 0.0, 0.0])  # far beyond reach
    plan = plan_swing(contact, motion, leg, world.robot.srb, cfg,
                      world.robot.feet_pos[0])
    push_end = np.array(plan.waypoints[4].position)
    delta = push_end - np.array(plan.contact_point)
    assert np.linalg.norm(delta) < 1.0
    assert np.linalg.norm(delta) > 0.01
    d_hat = delta / np.linalg.norm(delta)
    assert np.max(np.abs(d_hat - np.array([1.0, 0, 0]))) < 1e-6
    # endpoint sits essentially on the workspace boundary
    r = np.linalg.norm(push_end - shoulder)
    assert r <= workspace_radius(leg) + 1e-9
    assert not is_reachable(push_end + 2e-3 * d_hat, leg, world.robot.srb)


def test_unreachable_contact_raises():
    world = standing_world()
    leg = world.robot.legs[0]
    with pytest.raises(UnreachableActionError):
        plan_swing(np.array([2.0, 0.0, 0.02]), np.array([0.1, 0, 0]),
                   leg, world.robot.srb, world.config.swing, world.robot.feet_pos[0])


def _numpy_target_at(plan, t):
    """SwingPlan.target_at on the waypoint positions as arrays."""
    wps = plan.waypoints
    if t <= wps[0].time:
        return np.array(wps[0].position), np.zeros(3)
    for a, b in zip(wps[:-1], wps[1:]):
        if t <= b.time:
            span = max(b.time - a.time, 1e-9)
            s = (t - a.time) / span
            pa, pb = np.array(a.position), np.array(b.position)
            return pa + s * (pb - pa), (pb - pa) / span
    return np.array(wps[-1].position), np.zeros(3)


def test_target_at_equals_the_numpy_form():
    world = standing_world()
    leg = world.robot.legs[0]
    shoulder = shoulder_point(leg, world.robot.srb)
    rng = np.random.default_rng(53)
    for _ in range(20):
        contact = shoulder + np.array([0.14, 0.02, -0.23]) + rng.uniform(-0.02, 0.02, 3)
        plan = plan_swing(contact, rng.uniform(-0.1, 0.1, 3), leg, world.robot.srb,
                          world.config.swing, world.robot.feet_pos[0])
        assert all(type(w.position) is tuple and list(map(type, w.position)) == [float] * 3
                   for w in plan.waypoints)
        assert plan.contact_point is plan.waypoints[3].position
        times = [w.time for w in plan.waypoints]
        for t in [-0.1, *times, *rng.uniform(-0.1, plan.duration + 0.1, 50)]:
            pos, vel = plan.target_at(t)
            want_pos, want_vel = _numpy_target_at(plan, t)
            assert type(pos) is list and type(vel) is list
            assert np.array_equal(pos, want_pos) and np.array_equal(vel, want_vel)
            vel[0] = math.nan  # a caller's write reaches no later call


def test_waypoint_times_strictly_increasing_and_lift_clears():
    world = standing_world()
    leg = world.robot.legs[0]
    cfg = world.config.swing
    shoulder = shoulder_point(leg, world.robot.srb)
    contact = shoulder + np.array([0.14, 0.02, -0.23])
    plan = plan_swing(contact, np.array([0.08, 0.0, -0.02]), leg, world.robot.srb, cfg,
                      world.robot.feet_pos[0])
    times = [w.time for w in plan.waypoints]
    assert all(b > a for a, b in zip(times[:-1], times[1:]))
    apex = max(w.position[2] for w in plan.waypoints)
    assert apex >= cfg.lift_clearance * 0.9


# -- closed-loop tracking ---------------------------------------------------------


def pinned_trunk_world():
    """Base held fixed so the swing controller is isolated from trunk
    reaction dynamics."""
    world = standing_world()
    world.fixed_base = True
    return world


def test_reachable_target_converges_within_one_second():
    world = pinned_trunk_world()
    world.gravity_enabled = False
    swing = world.config.swing
    leg_i = 0
    target = shoulder_point(world.robot.legs[leg_i], world.robot.srb) + \
        np.array([0.13, 0.03, -0.20])
    dt = world.config.sim.dt
    for i in range(int(1.0 / dt)):
        tau = np.zeros((4, 3))
        cmd = impedance_torque_tracking(
            world.robot.legs[leg_i], world.robot.srb,
            world.robot.feet_pos[leg_i], world.robot.feet_vel[leg_i],
            target, np.zeros(3), swing.kp, swing.kd)
        tau[leg_i] = cmd.torques
        step(world, tau.reshape(-1))
    assert np.linalg.norm(world.robot.feet_pos[leg_i] - target) < 0.01


def test_full_plan_passes_near_contact_point_on_box():
    world = pinned_trunk_world()
    cfg = world.config
    shape = Box((0.07, 0.07, 0.05))
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    obj.pose = rest_pose_on_ground(shape, xy=(0.32, 0.13), config=cfg, mass=obj.mass)
    world.objects.append(obj)
    leg_i = 0
    leg = world.robot.legs[leg_i]
    # contact point: center of the -x face
    contact = obj.pose.translation + np.array([-0.035, 0.0, 0.0])
    plan = plan_swing(contact, np.array([0.12, 0.0, -0.03]), leg, world.robot.srb,
                      cfg.swing, world.robot.feet_pos[leg_i])
    ex = SwingExecutor(plan, cfg.swing)
    dt = cfg.sim.dt
    min_dist = np.inf
    while not ex.done and ex.t < plan.duration + 2.0:
        p_des, v_des = ex.tick(world.robot.feet_pos[leg_i], dt)
        tau = np.zeros((4, 3))
        cmd = impedance_torque_tracking(leg, world.robot.srb,
                                        world.robot.feet_pos[leg_i],
                                        world.robot.feet_vel[leg_i],
                                        p_des, v_des, cfg.swing.kp, cfg.swing.kd)
        tau[leg_i] = cmd.torques
        step(world, tau.reshape(-1))
        min_dist = min(min_dist, float(np.linalg.norm(world.robot.feet_pos[leg_i] - contact)))
    assert min_dist < 0.015
    # and the box actually moved forward
    assert world.objects[0].pose.translation[0] > 0.32 + 0.01


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: the plan's gate_time is the push end's "
                   "time (waypoints[4].time), so the gate holds after the push instead of at "
                   "contact")
def test_the_contact_gate_holds_at_the_contact_waypoint():
    """A foot that never reaches the contact point is held there, from the
    contact waypoint's time on (waypoints[3], the end of the approach)."""
    world = standing_world()
    leg = world.robot.legs[0]
    cfg = world.config
    contact = shoulder_point(leg, world.robot.srb) + np.array([0.14, 0.02, -0.23])
    plan = plan_swing(contact, np.array([0.08, 0.0, -0.02]), leg, world.robot.srb,
                      cfg.swing, world.robot.feet_pos[0])
    assert plan.waypoints[3].position == plan.contact_point
    away = np.array(plan.contact_point) + np.array([0.0, 0.0, 0.2])  # far past the threshold
    ex = SwingExecutor(plan, cfg.swing)
    dt = cfg.sim.dt
    first_hold = None
    while not ex.done and first_hold is None:
        t = ex.t
        ex.tick(away, dt)
        if ex.t == t:
            first_hold = t
    assert first_hold is not None
    assert abs(first_hold - plan.waypoints[3].time) <= dt
