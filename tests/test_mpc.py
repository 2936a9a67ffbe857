import math

import numpy as np

from legpress.config import StackConfig
from legpress.geom import euler_zyx_to_matrix, rot_y, rot_z
from legpress.mpc import (
    ForceMpc,
    GaitSchedule,
    build_constraints,
    condense,
    linearize_srb,
    raibert_foothold,
    rollout,
    stance_torques,
)
from legpress.simworld import SrbState, leg_jacobians_local, standing_world, step


MASS = 12.0
INERTIA = np.diag([0.07, 0.26, 0.24])


def stand_state(h=0.28):
    return SrbState(np.zeros(3), np.array([0.0, 0.0, h]), np.zeros(3), np.zeros(3))


def stand_feet(h=0.28):
    cfg = StackConfig().robot
    feet = []
    for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        feet.append([sx * cfg.hip_offset_x, sy * (cfg.hip_offset_y + cfg.abduction_offset), 0.0])
    return np.array(feet)


# -- linearization ------------------------------------------------------------


def test_linearize_gravity_only_ballistic():
    dt = 0.03
    lin = linearize_srb(stand_state(), stand_feet(), MASS, INERTIA, dt)
    x = stand_state().as_vector()
    x_next = lin.A @ x  # zero forces
    assert abs(x_next[11] - (-9.81 * dt)) < 1e-9
    assert abs(x_next[5] - x[5]) < 1e-12  # position updates with old velocity


def test_linearize_static_balance_single_foot():
    dt = 0.03
    state = stand_state()
    feet = stand_feet()
    feet[0] = [0.0, 0.0, 0.0]  # directly under the COM
    lin = linearize_srb(state, feet, MASS, INERTIA, dt)
    u = np.zeros(12)
    u[2] = MASS * 9.81
    x_next = lin.A @ state.as_vector() + lin.B @ u
    assert np.max(np.abs(x_next[9:12])) < 1e-9  # no linear acceleration
    assert np.max(np.abs(x_next[6:9])) < 1e-9  # no angular acceleration


def _nonlinear_rk4(x, forces, feet, mass, inertia, dt):
    """Independent continuous-time SRB integrator (full Euler-angle
    kinematics, exact orientation-dependent inertia, no gyroscopic term,
    matching the model family the controller linearizes)."""

    def deriv(x):
        roll, pitch, yaw = x[0:3]
        R = rot_z(yaw) @ rot_y(pitch) @ rot_z(0) if False else None
        from legpress.geom import euler_zyx_to_matrix
        R = euler_zyx_to_matrix(roll, pitch, yaw)
        # E maps euler rates to world angular velocity
        E = np.column_stack([
            rot_z(yaw) @ rot_y(pitch) @ np.array([1.0, 0, 0]),
            rot_z(yaw) @ np.array([0, 1.0, 0]),
            np.array([0, 0, 1.0]),
        ])
        w = x[6:9]
        I_w = R @ inertia @ R.T
        torque = np.zeros(3)
        force = np.zeros(3)
        for j in range(4):
            f = forces[3 * j:3 * j + 3]
            torque += np.cross(feet[j] - x[3:6], f)
            force += f
        dx = np.zeros(13)
        dx[0:3] = np.linalg.solve(E, w)
        dx[3:6] = x[9:12]
        dx[6:9] = np.linalg.solve(I_w, torque)
        dx[9:12] = force / mass + np.array([0.0, 0.0, -x[12]])
        return dx

    k1 = deriv(x)
    k2 = deriv(x + 0.5 * dt * k1)
    k3 = deriv(x + 0.5 * dt * k2)
    k4 = deriv(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def test_linearization_error_second_order_in_dt():
    rng = np.random.default_rng(41)
    errs = {1e-4: [], 1e-3: []}
    for _ in range(30):
        state = SrbState(np.array([0.0, 0.0, rng.uniform(-math.pi, math.pi)]),
                         rng.normal(scale=0.1, size=3) + [0, 0, 0.3],
                         rng.normal(scale=0.2, size=3),
                         rng.normal(scale=0.2, size=3))
        feet = stand_feet() + rng.normal(scale=0.02, size=(4, 3))
        forces = rng.normal(scale=5.0, size=12)
        x = state.as_vector()
        for dt in errs:
            lin = linearize_srb(state, feet, MASS, INERTIA, dt)
            pred = lin.A @ x + lin.B @ forces
            exact = _nonlinear_rk4(x, forces, feet, MASS, INERTIA, dt)
            errs[dt].append(np.max(np.abs(pred - exact)))
    # absolute scale: 0.5 * dt^2 * curvature, curvature here is tens of rad/s^2
    assert max(errs[1e-4]) < 2e-6
    # shrinking dt by 10 should shrink the error by ~100 (second order)
    ratio = np.median(np.array(errs[1e-3]) / np.maximum(np.array(errs[1e-4]), 1e-300))
    assert 30.0 < ratio < 300.0


def test_linearization_warning_flag():
    state = stand_state()
    state.rpy[1] = 0.5
    lin = linearize_srb(state, stand_feet(), MASS, INERTIA, 0.03)
    assert lin.validity_warning


# -- condensation --------------------------------------------------------------


def test_condense_k1_passthrough():
    lin = linearize_srb(stand_state(), stand_feet(), MASS, INERTIA, 0.03)
    c = condense([lin.A], [lin.B], stand_state().as_vector(),
                 np.zeros((1, 13)), np.ones(13), 1e-6)
    assert np.array_equal(c.A_qp, lin.A)
    assert np.array_equal(c.B_qp, lin.B)


def test_condense_zero_forces_free_dynamics():
    rng = np.random.default_rng(42)
    k = 6
    A_list = [np.eye(13) + 0.01 * rng.normal(size=(13, 13)) for _ in range(k)]
    B_list = [rng.normal(size=(13, 12)) for _ in range(k)]
    x0 = rng.normal(size=13)
    c = condense(A_list, B_list, x0, np.zeros((k, 13)), np.ones(13), 1e-6)
    X = c.A_qp @ x0  # U = 0
    x = x0.copy()
    for i in range(k):
        x = A_list[i] @ x
        assert np.max(np.abs(X[13 * i:13 * (i + 1)] - x)) < 1e-9


def test_condensation_identity_random_systems():
    rng = np.random.default_rng(43)
    for _ in range(100):
        k = int(rng.integers(1, 11))
        A_list = [np.eye(13) + 0.05 * rng.normal(size=(13, 13)) for _ in range(k)]
        B_list = [rng.normal(size=(13, 12)) for _ in range(k)]
        x0 = rng.normal(size=13)
        U = rng.normal(size=12 * k)
        c = condense(A_list, B_list, x0, np.zeros((k, 13)), np.ones(13), 1e-6)
        X = c.A_qp @ x0 + c.B_qp @ U
        X_roll = rollout(A_list, B_list, x0, U).reshape(-1)
        assert np.max(np.abs(X - X_roll)) < 1e-9


# -- constraints ----------------------------------------------------------------


def test_stand_constraints_k1_counts():
    flags = np.ones((1, 4), dtype=bool)
    C, lo, hi, D = build_constraints(flags, 0.5, 1.0, 120.0)
    assert C.shape[0] == 4 * 5  # 4 pyramid rows + 1 bound row per foot
    assert D.shape[0] == 0


def test_trot_phase_equalities_zero_swing_pair():
    gait = GaitSchedule.trot()
    t = 0.0
    flags = np.array([[gait.query(t, l) for l in range(4)]])
    # diagonal pair FL+RR in stance at phase 0
    assert flags[0, 0] and flags[0, 3]
    assert not flags[0, 1] and not flags[0, 2]
    C, lo, hi, D = build_constraints(flags, 0.5, 1.0, 120.0)
    assert D.shape[0] == 6  # 3 rows per swing foot
    # rows hit exactly the FR and RL force blocks
    cols = np.flatnonzero(np.abs(D).sum(axis=0))
    assert set(cols) == {3, 4, 5, 6, 7, 8}


def test_returned_forces_satisfy_constraints_random_instances():
    rng = np.random.default_rng(44)
    cfg = StackConfig().mpc
    mpc = ForceMpc(cfg, MASS, INERTIA)
    for trial in range(100):
        state = SrbState(rng.normal(scale=0.05, size=3),
                         np.array([0, 0, 0.28]) + rng.normal(scale=0.02, size=3),
                         rng.normal(scale=0.1, size=3), rng.normal(scale=0.1, size=3))
        feet = stand_feet() + rng.normal(scale=0.02, size=(4, 3))
        gait = GaitSchedule.stand(lifted=(int(rng.integers(4)),)) if trial % 2 else GaitSchedule.trot()
        t = rng.uniform(0, 1)
        command = (rng.normal(scale=0.3), rng.normal(scale=0.2), rng.normal(scale=0.1), 0.28)
        res = mpc.step(state, command, feet, gait, t)
        assert not res.fault
        for l in range(4):
            f = res.forces[l]
            if gait.query(t, l):
                assert abs(f[0]) <= cfg.friction * f[2] + 1e-8
                assert abs(f[1]) <= cfg.friction * f[2] + 1e-8
                assert cfg.f_min - 1e-8 <= f[2] <= cfg.f_max + 1e-8
            else:
                assert np.max(np.abs(f)) <= 1e-8


# -- mpc_step behaviors -----------------------------------------------------------


def test_forward_command_produces_forward_push():
    cfg = StackConfig().mpc
    mpc = ForceMpc(cfg, MASS, INERTIA)
    res = mpc.step(stand_state(), (0.0, 0.3, 0.0, 0.28), stand_feet(),
                   GaitSchedule.stand(), 0.0)
    assert res.forces[:, 0].sum() > 0.1


def test_weight_scaling_leaves_argmin_unchanged():
    cfg = StackConfig().mpc
    state = stand_state()
    state.linear_velocity[:] = (0.1, -0.05, 0.0)
    mpc1 = ForceMpc(cfg, MASS, INERTIA)
    res1 = mpc1.step(state, (0.1, 0.2, 0.0, 0.28), stand_feet(), GaitSchedule.stand(), 0.0)
    import dataclasses
    cfg2 = dataclasses.replace(cfg, state_weights=tuple(7.0 * w for w in cfg.state_weights),
                               force_weight=7.0 * cfg.force_weight)
    mpc2 = ForceMpc(cfg2, MASS, INERTIA)
    res2 = mpc2.step(state, (0.1, 0.2, 0.0, 0.28), stand_feet(), GaitSchedule.stand(), 0.0)
    assert np.max(np.abs(res1.forces - res2.forces)) < 1e-4


def test_closed_loop_stand_five_seconds():
    world = standing_world()
    cfg = world.config
    mpc = ForceMpc(cfg.mpc, cfg.robot.trunk_mass, np.diag(cfg.robot.trunk_inertia))
    gait = GaitSchedule.stand()
    forces = np.zeros((4, 3))
    n_steps = int(5.0 / cfg.sim.dt)
    max_height_err = 0.0
    max_tilt = 0.0
    for i in range(n_steps):
        if i % cfg.mpc.force_update_period == 0:
            res = mpc.step(world.robot.srb, (0.0, 0.0, 0.0, cfg.mpc.stand_height),
                           world.robot.feet_pos, gait, world.time)
            assert not res.fault
            forces = res.forces
        tau = stance_torques(world.robot, forces)
        step(world, tau.reshape(-1))
        if world.time > 1.0:  # after the initial settle
            max_height_err = max(max_height_err,
                                 abs(world.robot.srb.position[2] - cfg.mpc.stand_height))
            max_tilt = max(max_tilt, abs(world.robot.srb.rpy[0]), abs(world.robot.srb.rpy[1]))
    assert max_height_err < 0.02
    assert max_tilt < 0.05


def test_stance_torques_equal_the_per_leg_products():
    """The stacked product gives the same bits as -J_i^T (R^T f_i) leg by leg,
    so stacking the legs changes no torque the controllers hand the simulator."""
    rng = np.random.default_rng(41)
    world = standing_world()
    robot = world.robot
    for _ in range(300):
        robot.srb.rpy[:] = rng.uniform(-0.5, 0.5, 3)
        for leg in robot.legs:
            leg.joint_angles[:] = rng.uniform(-2.0, 2.0, 3)
        forces = rng.normal(scale=30.0, size=(4, 3))
        R = euler_zyx_to_matrix(*robot.srb.rpy)
        expected = np.array([-leg_jacobians_local([leg])[0].T @ (R.T @ forces[i])
                             for i, leg in enumerate(robot.legs)])
        assert np.array_equal(stance_torques(robot, forces), expected)


# -- raibert -------------------------------------------------------------------


def test_raibert_zero_velocity_under_hip():
    world = standing_world()
    leg = world.robot.legs[0]
    gait = GaitSchedule.trot()
    target = raibert_foothold(leg, np.zeros(3), gait, world.robot.srb)
    shoulder = world.robot.hip_world(0) + np.array([0, leg.side * leg.link_lengths[0], 0])
    assert np.max(np.abs(target[:2] - shoulder[:2])) < 1e-9
    assert target[2] == 0.0


def test_raibert_velocity_feedforward_offset():
    world = standing_world()
    leg = world.robot.legs[0]
    gait = GaitSchedule.trot(period=0.5, duty=0.5)  # stance time 0.25 s
    from legpress.config import GaitConfig
    gc = GaitConfig(raibert_velocity_gain=0.0)
    v = np.array([0.4, 0.0, 0.0])
    target = raibert_foothold(leg, v, gait, world.robot.srb, gc)
    base = raibert_foothold(leg, np.zeros(3), gait, world.robot.srb, gc)
    # k_v = 0 and v_actual = 0 gives a pure (stance/2) * v feedforward split
    assert abs((target - base)[0] - 0.05 + 0.0) < 1e-9 or abs((target - base)[0] - 0.05) < 1e-9
