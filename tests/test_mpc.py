import dataclasses
import math

import numpy as np

from legpress.config import GaitConfig, StackConfig
from legpress.geom import euler_zyx_to_matrix, matvec3_t, rot_y, rot_z
from legpress.mpc import (
    TROT_OFFSETS,
    ForceMpc,
    GaitSchedule,
    build_constraints,
    condense,
    linearize_srb,
    raibert_foothold,
    stance_torques,
)
from legpress.qpsolve import QpProblem, QpSolver
from legpress.simworld import SrbState, standing_world, step
from posing import posed


MASS = 12.0
GAIT = GaitConfig()
INERTIA = np.diag([0.07, 0.26, 0.24])
GRAVITY = StackConfig().sim.gravity  # the MPC's constant 13th state


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
    A, B = linearize_srb(stand_state(), stand_feet(), MASS, INERTIA, dt)
    x = np.append(stand_state().as_vector(), GRAVITY)
    x_next = A @ x  # zero forces
    assert abs(x_next[11] - (-9.81 * dt)) < 1e-9
    assert abs(x_next[5] - x[5]) < 1e-12  # position updates with old velocity


def test_linearize_static_balance_single_foot():
    dt = 0.03
    state = stand_state()
    feet = stand_feet()
    feet[0] = [0.0, 0.0, 0.0]  # directly under the COM
    A, B = linearize_srb(state, feet, MASS, INERTIA, dt)
    u = np.zeros(12)
    u[2] = MASS * 9.81
    x_next = A @ np.append(state.as_vector(), GRAVITY) + B @ u
    assert np.max(np.abs(x_next[9:12])) < 1e-9  # no linear acceleration
    assert np.max(np.abs(x_next[6:9])) < 1e-9  # no angular acceleration


def _nonlinear_rk4(x, forces, feet, mass, inertia, dt):
    """Independent continuous-time SRB integrator (full Euler-angle
    kinematics, exact orientation-dependent inertia, no gyroscopic term,
    matching the model family the controller linearizes)."""

    def deriv(x):
        roll, pitch, yaw = x[0:3]
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
        x = np.append(state.as_vector(), GRAVITY)
        for dt in errs:
            A, B = linearize_srb(state, feet, MASS, INERTIA, dt)
            pred = A @ x + B @ forces
            exact = _nonlinear_rk4(x, forces, feet, MASS, INERTIA, dt)
            errs[dt].append(np.max(np.abs(pred - exact)))
    # absolute scale: 0.5 * dt^2 * curvature, curvature here is tens of rad/s^2
    assert max(errs[1e-4]) < 2e-6
    # shrinking dt by 10 should shrink the error by ~100 (second order)
    ratio = np.median(np.array(errs[1e-3]) / np.maximum(np.array(errs[1e-4]), 1e-300))
    assert 30.0 < ratio < 300.0


def test_linearization_warning_flag():
    """A solve from a state pitched past ANGLE_WARN carries the warning; one
    from the level stance does not."""
    mpc = ForceMpc(StackConfig())
    command = (0.0, 0.0, 0.0, 0.28)
    for rpy, warned in (((0.0, 0.5, 0.0), True), ((0.0, 0.0, 0.0), False)):
        res = mpc.step(posed(stand_state(), rpy), command, stand_feet(), GaitSchedule.stand(), 0.0)
        assert res.linearization_warning is warned


# -- condensation --------------------------------------------------------------


def rollout(A_list, B_list, x0, U) -> np.ndarray:
    """Step-by-step reference for the condensed identity X = A_qp x0 + B_qp U."""
    k = len(A_list)
    nu = B_list[0].shape[1]
    U = np.asarray(U, dtype=float).reshape(k, nu)
    x = np.asarray(x0, dtype=float).copy()
    out = np.zeros((k, 13))
    for i in range(k):
        x = A_list[i] @ x + B_list[i] @ U[i]
        out[i] = x
    return out


def test_condense_k1_passthrough():
    A, B = linearize_srb(stand_state(), stand_feet(), MASS, INERTIA, 0.03)
    A_qp, B_qp = condense(A, B, 1)
    assert np.array_equal(A_qp, A)
    assert np.array_equal(B_qp, B)


def test_condense_zero_forces_free_dynamics():
    rng = np.random.default_rng(42)
    k = 6
    A = np.eye(13) + 0.01 * rng.normal(size=(13, 13))
    B = rng.normal(size=(13, 12))
    x0 = rng.normal(size=13)
    A_qp, _ = condense(A, B, k)
    X = A_qp @ x0  # U = 0
    X_roll = rollout([A] * k, [B] * k, x0, np.zeros(12 * k)).reshape(-1)
    assert np.max(np.abs(X - X_roll)) < 1e-9


def test_condensation_identity_random_systems():
    rng = np.random.default_rng(43)
    for _ in range(100):
        k = int(rng.integers(1, 11))
        A = np.eye(13) + 0.05 * rng.normal(size=(13, 13))
        B = rng.normal(size=(13, 12))
        x0 = rng.normal(size=13)
        U = rng.normal(size=12 * k)
        A_qp, B_qp = condense(A, B, k)
        X = A_qp @ x0 + B_qp @ U
        X_roll = rollout([A] * k, [B] * k, x0, U).reshape(-1)
        assert np.max(np.abs(X - X_roll)) < 1e-9


# -- constraints ----------------------------------------------------------------


def test_stand_constraints_k1_counts():
    C, lo, hi = build_constraints(4, 0.5, 1.0, 120.0)
    assert C.shape == (4 * 5, 4 * 3)  # 4 pyramid rows + 1 bound row per foot
    for j in range(4):  # each foot's 5 rows touch its own triple only
        cols = np.flatnonzero(np.abs(C[5 * j:5 * j + 5]).sum(axis=0))
        assert set(cols) == {3 * j, 3 * j + 1, 3 * j + 2}
    assert np.array_equal(lo, np.tile([-np.inf] * 4 + [1.0], 4))
    assert np.array_equal(hi, np.tile([0.0] * 4 + [120.0], 4))


def test_pyramid_rows_bound_the_tangential_force():
    C, lo, hi = build_constraints(1, 0.5, 1.0, 120.0)
    inside = np.array([4.9, -4.9, 10.0])
    assert np.all(C @ inside <= hi) and np.all(C @ inside >= lo)
    for f in ([5.1, 0.0, 10.0], [-5.1, 0.0, 10.0], [0.0, 5.1, 10.0], [0.0, -5.1, 10.0],
              [0.0, 0.0, 0.5], [0.0, 0.0, 121.0]):
        Cf = C @ np.array(f)
        assert np.any(Cf > hi) or np.any(Cf < lo)


def test_trot_phase_equalities_zero_swing_pair():
    """At trot phase 0 the swing pair's forces are zero because step 0 has
    columns for the front-left and rear-right triples only."""
    gait = GaitSchedule.trot(GAIT.trot_period, GAIT.trot_duty)
    flags = np.array([gait.stance(i * 0.05) for i in range(10)])
    # diagonal pair FL+RR in stance at phase 0
    assert flags[0, 0] and flags[0, 3]
    assert not flags[0, 1] and not flags[0, 2]
    columns = np.repeat(flags.ravel(), 3)
    assert list(np.flatnonzero(columns[:12])) == [0, 1, 2, 9, 10, 11]
    C, lo, hi = build_constraints(int(flags.sum()), 0.5, 1.0, 120.0)
    assert C.shape == (5 * int(flags.sum()), 3 * int(flags.sum()))


def _query(gait, t, leg):
    """Whether the leg is in stance at time t, leg by leg: a stand gait's
    unlifted legs, a trot leg while its phase is under the duty factor."""
    if gait.mode == "stand":
        return leg not in gait.lifted
    phase = (t / gait.period + TROT_OFFSETS[leg]) % 1.0
    return phase < gait.duty


def test_stance_flags_equal_the_per_leg_queries():
    """`stance(t)` is the tuple of the four per-leg `_query` flags, for stand
    gaits (one tuple, made once) and trots, at seeded times and on the
    phase boundaries."""
    rng = np.random.default_rng(66)
    trot = GaitSchedule.trot(GAIT.trot_period, GAIT.trot_duty)
    gaits = [GaitSchedule.stand(), *(GaitSchedule.stand(lifted=(l,)) for l in range(4)),
             trot, GaitSchedule.trot(0.3, 0.7)]
    times = [*rng.uniform(0.0, 30.0, 2000), *(k * 0.001 for k in range(3000)),
             *(k * trot.period * 0.5 for k in range(100))]
    changes = 0
    for gait in gaits:
        last = None
        for t in times:
            flags = gait.stance(t)
            assert type(flags) is tuple
            assert flags == tuple(_query(gait, t, l) for l in range(4))
            changes += last is not None and flags != last
            last = flags
        if gait.mode == "stand":
            assert gait.stance(0.0) is gait.stance(7.5)
    assert changes > 1000


def test_cached_constraints_equal_a_fresh_build_and_are_read_only():
    mpc = ForceMpc(StackConfig())
    cfg = mpc.config
    for n in (40, 30, 20, 31, 40):
        cached = mpc.constraints(n)
        assert mpc.constraints(n) is cached
        for a, b in zip(cached, build_constraints(n, cfg.friction, cfg.f_min, cfg.f_max)):
            assert np.array_equal(a, b)
            assert not a.flags.writeable


def _loop_reference(mpc, state, command):
    """reference_trajectory as a loop over the horizon rows."""
    yaw_rate, vx, vy, height = command
    yaw0 = state.rpy[2]
    v_world = rot_z(yaw0) @ np.array([vx, vy, 0.0])
    ref = np.zeros((mpc.config.horizon, 13))
    for i in range(mpc.config.horizon):
        t = (i + 1) * mpc.dt
        ref[i, 2] = yaw0 + yaw_rate * t
        ref[i, 3:5] = state.position[:2] + v_world[:2] * t
        ref[i, 5] = height
        ref[i, 8] = yaw_rate
        ref[i, 9:11] = v_world[:2]
        ref[i, 12] = mpc.gravity
    return ref


def test_reference_trajectory_equals_the_loop_form():
    rng = np.random.default_rng(46)
    mpc = ForceMpc(StackConfig())
    for trial in range(200):
        state, _, _, _, command = _random_instance(rng, trial)
        state = posed(state, (*state.rpy[:2], rng.uniform(-math.pi, math.pi)))
        assert np.array_equal(mpc.reference_trajectory(state, command),
                              _loop_reference(mpc, state, command))


def _random_instance(rng, trial):
    """A perturbed standing state with a stand, one-leg-lifted or trot gait."""
    state = SrbState(rng.normal(scale=0.05, size=3),
                     np.array([0, 0, 0.28]) + rng.normal(scale=0.02, size=3),
                     rng.normal(scale=0.1, size=3), rng.normal(scale=0.1, size=3))
    feet = stand_feet() + rng.normal(scale=0.02, size=(4, 3))
    gait = (GaitSchedule.stand(), GaitSchedule.stand(lifted=(int(rng.integers(4)),)),
            GaitSchedule.trot(GAIT.trot_period, GAIT.trot_duty))[trial % 3]
    t = rng.uniform(0, 1)
    command = (rng.normal(scale=0.3), rng.normal(scale=0.2), rng.normal(scale=0.1), 0.28)
    return state, feet, gait, t, command


def _all_feet_forces(mpc, state, command, feet, gait, t):
    """First-step forces of the former formulation: all 12 force components
    at every horizon step, each swing foot's triple pinned to zero by rows
    with lo == hi == 0."""
    cfg = mpc.config
    k = cfg.horizon
    A, B = linearize_srb(state, feet, mpc.mass, mpc.inertia, mpc.dt)
    A_qp, B_qp = condense(A, B, k)
    L = np.tile(np.asarray(cfg.state_weights), k)
    H = 2.0 * ((B_qp.T * L) @ B_qp + cfg.force_weight * np.eye(12 * k))
    H = 0.5 * (H + H.T)
    ref = mpc.reference_trajectory(state, command).reshape(-1)
    g = 2.0 * ((B_qp.T * L) @ (A_qp @ np.append(state.as_vector(), mpc.gravity) - ref))
    scale = float(np.max(np.diag(H)))
    rows, lo, hi = [], [], []
    for i in range(k):
        for l in range(4):
            base = 12 * i + 3 * l
            if not gait.stance(t + i * mpc.dt)[l]:
                rows.extend(np.eye(12 * k)[base:base + 3])
                lo.extend([0.0] * 3)
                hi.extend([0.0] * 3)
                continue
            for axis in (0, 1):
                for sign in (1.0, -1.0):
                    row = np.zeros(12 * k)
                    row[base + axis], row[base + 2] = sign, -cfg.friction
                    rows.append(row)
                    lo.append(-np.inf)
                    hi.append(0.0)
            row = np.zeros(12 * k)
            row[base + 2] = 1.0
            rows.append(row)
            lo.append(cfg.f_min)
            hi.append(cfg.f_max)
    qp = QpProblem(H / scale, g / scale, C=np.array(rows), c_lo=lo, c_hi=hi)
    sol = QpSolver().solve(qp)
    assert sol.status == "optimal"
    return sol.primal[:12].reshape(4, 3)


def test_stance_only_qp_matches_the_all_feet_formulation():
    """Dropping the variables that the equality rows pin to zero leaves the
    argmin unchanged."""
    rng = np.random.default_rng(45)
    mpc = ForceMpc(StackConfig())
    for trial in range(120):
        state, feet, gait, t, command = _random_instance(rng, trial)
        res = mpc.step(state, command, feet, gait, t)
        assert not res.fault
        expected = _all_feet_forces(mpc, state, command, feet, gait, t)
        assert np.max(np.abs(res.forces - expected)) < 1e-6


def test_returned_forces_satisfy_constraints_random_instances():
    rng = np.random.default_rng(44)
    mpc = ForceMpc(StackConfig())
    cfg = mpc.config
    for trial in range(100):
        state, feet, gait, t, command = _random_instance(rng, trial)
        res = mpc.step(state, command, feet, gait, t)
        assert not res.fault
        for l in range(4):
            f = res.forces[l]
            if gait.stance(t)[l]:
                assert abs(f[0]) <= cfg.friction * f[2] + 1e-8
                assert abs(f[1]) <= cfg.friction * f[2] + 1e-8
                assert cfg.f_min - 1e-8 <= f[2] <= cfg.f_max + 1e-8
            else:
                assert np.all(f == 0.0)


# -- mpc_step behaviors -----------------------------------------------------------


def test_forward_command_produces_forward_push():
    mpc = ForceMpc(StackConfig())
    res = mpc.step(stand_state(), (0.0, 0.3, 0.0, 0.28), stand_feet(),
                   GaitSchedule.stand(), 0.0)
    assert res.forces[:, 0].sum() > 0.1


def test_weight_scaling_leaves_argmin_unchanged():
    cfg = StackConfig()
    state = stand_state()
    state.linear_velocity = (0.1, -0.05, 0.0)
    mpc1 = ForceMpc(cfg)
    res1 = mpc1.step(state, (0.1, 0.2, 0.0, 0.28), stand_feet(), GaitSchedule.stand(), 0.0)
    mpc_cfg = dataclasses.replace(cfg.mpc,
                                  state_weights=tuple(7.0 * w for w in cfg.mpc.state_weights),
                                  force_weight=7.0 * cfg.mpc.force_weight)
    mpc2 = ForceMpc(dataclasses.replace(cfg, mpc=mpc_cfg))
    res2 = mpc2.step(state, (0.1, 0.2, 0.0, 0.28), stand_feet(), GaitSchedule.stand(), 0.0)
    assert np.max(np.abs(res1.forces - res2.forces)) < 1e-4


def test_closed_loop_stand_five_seconds():
    world = standing_world()
    cfg = world.config
    mpc = ForceMpc(cfg)
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
        step(world, stance_torques(world.robot, forces.tolist(), (True,) * 4))
        if world.time > 1.0:  # after the initial settle
            max_height_err = max(max_height_err,
                                 abs(world.robot.srb.position[2] - cfg.mpc.stand_height))
            max_tilt = max(max_tilt, abs(world.robot.srb.rpy[0]), abs(world.robot.srb.rpy[1]))
    assert max_height_err < 0.02
    assert max_tilt < 0.05


def test_stance_torques_match_the_numpy_products():
    """The float rows give -J_i^T (R^T f_i) leg by leg as the numpy products
    of the rotation and Jacobian arrays do, to rounding, as a flat list of 12
    floats."""
    rng = np.random.default_rng(41)
    world = standing_world()
    robot = world.robot
    for _ in range(300):
        robot.srb = posed(robot.srb, rng.uniform(-0.5, 0.5, 3))
        robot.legs = [posed(leg, rng.uniform(-2.0, 2.0, 3)) for leg in robot.legs]
        forces = rng.normal(scale=30.0, size=(4, 3))
        R = euler_zyx_to_matrix(*robot.srb.rpy)
        expected = np.array([-np.array(leg.jacobian_rows).T @ (R.T @ forces[i])
                             for i, leg in enumerate(robot.legs)])
        tau = stance_torques(robot, forces.tolist(), (True,) * 4)
        assert len(tau) == 12 and all(type(x) is float for x in tau)
        np.testing.assert_allclose(np.reshape(tau, (4, 3)), expected, rtol=1e-12, atol=0.0)


def _every_leg_torques(robot, forces):
    """The (4, 3) torques -Jl^T (R^T f) of all four legs on float rows, the
    form that computed the swing legs' rows too."""
    R = robot.srb.rotation_rows
    tau = []
    for leg, f in zip(robot.legs, np.asarray(forces).tolist()):
        t0, t1, t2 = matvec3_t(leg.jacobian_rows, matvec3_t(R, f))
        tau.append((-t0, -t1, -t2))
    return np.array(tau)


def test_stance_only_torques_equal_the_stance_rows_of_every_leg():
    """Bit for bit: each stance leg's torques equal its row of the all-legs
    form, and a leg out of stance gets zeros. Force rows as tuples give the
    list that rows as lists give."""
    rng = np.random.default_rng(42)
    world = standing_world()
    robot = world.robot
    for _ in range(200):
        robot.srb = posed(robot.srb, rng.uniform(-0.5, 0.5, 3))
        robot.legs = [posed(leg, rng.uniform(-2.0, 2.0, 3)) for leg in robot.legs]
        forces = rng.normal(scale=30.0, size=(4, 3))
        stance = rng.uniform(size=4) < 0.7
        rows = forces.tolist()
        from_lists = stance_torques(robot, rows, stance.tolist())
        tau = np.reshape(from_lists, (4, 3))
        assert np.array_equal(tau[stance], _every_leg_torques(robot, forces)[stance])
        assert np.array_equal(tau[~stance], np.zeros((int((~stance).sum()), 3)))
        assert stance_torques(robot, tuple(map(tuple, rows)), stance.tolist()) == from_lists


# -- raibert -------------------------------------------------------------------


def test_raibert_zero_velocity_under_hip():
    world = standing_world()
    leg = world.robot.legs[0]
    gait = GaitSchedule.trot(GAIT.trot_period, GAIT.trot_duty)
    target = raibert_foothold(leg, np.zeros(3), gait, world.robot.srb, GAIT)
    srb = world.robot.srb
    hip = srb.position + euler_zyx_to_matrix(*srb.rpy) @ np.array(leg.hip_offset)
    shoulder = hip + np.array([0, leg.side * leg.link_lengths[0], 0])
    assert np.max(np.abs(target[:2] - shoulder[:2])) < 1e-9
    assert target[2] == 0.0


def test_raibert_velocity_feedforward_offset():
    world = standing_world()
    leg = world.robot.legs[0]
    gait = GaitSchedule.trot(period=0.5, duty=0.5)  # stance time 0.25 s
    gc = GaitConfig(raibert_velocity_gain=0.0)
    v = np.array([0.4, 0.0, 0.0])
    target = raibert_foothold(leg, v, gait, world.robot.srb, gc)
    base = raibert_foothold(leg, np.zeros(3), gait, world.robot.srb, gc)
    # k_v = 0 and v_actual = 0 gives a pure (stance/2) * v feedforward split
    assert abs((target - base)[0] - 0.05) < 1e-9
