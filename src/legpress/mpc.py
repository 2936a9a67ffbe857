"""Convex force MPC for the stance legs.

The trunk is linearized about yaw only (roll/pitch assumed small), gravity
enters through the constant placeholder state, and ground reaction forces
are the only decision variables. States over the horizon are eliminated by
condensation, so the QP is over U alone:

    X = A_qp x0 + B_qp U
    J(U) = |X - x_ref|_L^2 + |U|_K^2

subject to a friction pyramid and vertical bounds per stance foot and exact
zero-force equalities for swing feet. One instance owns a QP solver and is
re-solved every `force_update_period` sim steps while the last force set is
replayed through the (re-evaluated) Jacobian-transpose map in between.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import GaitConfig, MpcConfig
from .geom import rot_z, skew
from .qpsolve import QpProblem, QpSolver
from .simworld import LegModel, RobotState, SrbState, leg_jacobians_local, shoulder_point

N_LEGS = 4
NX = 13
ANGLE_WARN = 0.4  # rad; linearization validity envelope
RAIBERT_MAX_OFFSET = 0.15  # m; cap on the foothold's velocity offset


# ---------------------------------------------------------------------------
# gait scheduling


@dataclass(frozen=True)
class GaitSchedule:
    mode: str  # stand | trot
    period: float = 0.5
    duty: float = 0.5
    offsets: tuple = (0.0, 0.5, 0.5, 0.0)  # diagonal pairs in phase
    lifted: tuple = ()

    @staticmethod
    def stand(lifted: tuple = ()) -> "GaitSchedule":
        return GaitSchedule("stand", lifted=tuple(lifted))

    @staticmethod
    def trot(period: float = 0.5, duty: float = 0.5) -> "GaitSchedule":
        if not 0.0 < duty <= 1.0:
            raise ValueError("duty factor must be in (0, 1]")
        return GaitSchedule("trot", period=period, duty=duty)

    def query(self, t: float, leg: int) -> bool:
        """True when the leg is in stance at time t."""
        if self.mode == "stand":
            return leg not in self.lifted
        phase = (t / self.period + self.offsets[leg]) % 1.0
        return phase < self.duty

    def swing_phase(self, t: float, leg: int) -> float:
        """Progress through the current swing in [0, 1); 0 if in stance."""
        if self.query(t, leg):
            return 0.0
        phase = (t / self.period + self.offsets[leg]) % 1.0
        return (phase - self.duty) / (1.0 - self.duty)

    @property
    def stance_time(self) -> float:
        return self.period * self.duty if self.mode == "trot" else math.inf


# ---------------------------------------------------------------------------
# linearized dynamics and condensation


@dataclass
class LinearizedDynamics:
    A: np.ndarray  # 13x13
    B: np.ndarray  # 13x12
    validity_warning: bool = False


def linearize_srb(state: SrbState, foot_positions: np.ndarray, mass: float,
                  inertia: np.ndarray, mpc_dt: float) -> LinearizedDynamics:
    """Discrete one-step SRB model about the current yaw.

    Foot positions are world frame; B columns map each foot's force to
    angular and linear velocity changes through the r x f torque arm.
    """
    roll, pitch, yaw = state.rpy
    Rz = rot_z(yaw)
    I_w = Rz @ np.asarray(inertia, dtype=float) @ Rz.T
    I_w_inv = np.linalg.inv(I_w)

    A = np.eye(NX)
    A[0:3, 6:9] = Rz.T * mpc_dt
    A[3:6, 9:12] = np.eye(3) * mpc_dt
    A[11, 12] = -mpc_dt

    B = np.zeros((NX, 3 * N_LEGS))
    com = state.position
    for j in range(N_LEGS):
        r = np.asarray(foot_positions[j], dtype=float) - com
        B[6:9, 3 * j:3 * j + 3] = mpc_dt * (I_w_inv @ skew(r))
        B[9:12, 3 * j:3 * j + 3] = (mpc_dt / mass) * np.eye(3)

    return LinearizedDynamics(A, B, abs(roll) > ANGLE_WARN or abs(pitch) > ANGLE_WARN)


@dataclass
class CondensedQp:
    A_qp: np.ndarray  # 13k x 13
    B_qp: np.ndarray  # 13k x 12k
    x_ref: np.ndarray  # 13k
    L_diag: np.ndarray  # 13k
    K_diag: np.ndarray  # 12k
    x0: np.ndarray = field(default_factory=lambda: np.zeros(NX))


def condense(A_list, B_list, x0, x_ref_traj, state_weights, force_weight) -> CondensedQp:
    """Stack the step recursions into X = A_qp x0 + B_qp U."""
    k = len(A_list)
    if k < 1:
        raise ValueError("horizon must be at least 1")
    x_ref = np.asarray(x_ref_traj, dtype=float).reshape(k, NX)
    nu = B_list[0].shape[1]
    A_qp = np.zeros((NX * k, NX))
    B_qp = np.zeros((NX * k, nu * k))
    prod = np.eye(NX)
    for i in range(k):
        prod = A_list[i] @ prod
        A_qp[NX * i:NX * (i + 1)] = prod
        B_qp[NX * i:NX * (i + 1), nu * i:nu * (i + 1)] = B_list[i]
        for j in range(i):
            blk = B_qp[NX * (i - 1):NX * i, nu * j:nu * (j + 1)]
            B_qp[NX * i:NX * (i + 1), nu * j:nu * (j + 1)] = A_list[i] @ blk
    L = np.tile(np.asarray(state_weights, dtype=float), k)
    K = np.full(nu * k, float(force_weight))
    return CondensedQp(A_qp, B_qp, x_ref.reshape(-1), L, K, np.asarray(x0, dtype=float).copy())


def rollout(A_list, B_list, x0, U) -> np.ndarray:
    """Step-by-step reference implementation of the condensed identity."""
    k = len(A_list)
    nu = B_list[0].shape[1]
    U = np.asarray(U, dtype=float).reshape(k, nu)
    x = np.asarray(x0, dtype=float).copy()
    out = np.zeros((k, NX))
    for i in range(k):
        x = A_list[i] @ x + B_list[i] @ U[i]
        out[i] = x
    return out


# ---------------------------------------------------------------------------
# constraints


def build_constraints(contact_flags: np.ndarray, mu: float, f_min: float,
                      f_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Friction pyramid + vertical bounds per stance foot, zero equalities per
    swing foot, over the stacked force vector. Returns (C, lo, hi, D)."""
    flags = np.asarray(contact_flags, dtype=bool)
    k = flags.shape[0]
    nu = 3 * N_LEGS
    rows_C, lo, hi, rows_D = [], [], [], []
    for i in range(k):
        for l in range(N_LEGS):
            base = nu * i + 3 * l
            if flags[i, l]:
                for axis in (0, 1):  # |f_xy| <= mu f_z
                    row = np.zeros(nu * k)
                    row[base + axis] = 1.0
                    row[base + 2] = -mu
                    rows_C.append(row)
                    lo.append(-np.inf)
                    hi.append(0.0)
                    row = np.zeros(nu * k)
                    row[base + axis] = -1.0
                    row[base + 2] = -mu
                    rows_C.append(row)
                    lo.append(-np.inf)
                    hi.append(0.0)
                row = np.zeros(nu * k)
                row[base + 2] = 1.0
                rows_C.append(row)
                lo.append(f_min)
                hi.append(f_max)
            else:
                for axis in range(3):
                    row = np.zeros(nu * k)
                    row[base + axis] = 1.0
                    rows_D.append(row)
    C = np.array(rows_C) if rows_C else np.zeros((0, nu * k))
    D = np.array(rows_D) if rows_D else np.zeros((0, nu * k))
    return C, np.array(lo), np.array(hi), D


def condensed_to_qp(c: CondensedQp, C, lo, hi, D) -> QpProblem:
    BL = c.B_qp.T * c.L_diag
    H = 2.0 * (BL @ c.B_qp + np.diag(c.K_diag))
    H = 0.5 * (H + H.T)
    g = 2.0 * (BL @ (c.A_qp @ c.x0 - c.x_ref))
    # normalize the objective scale: the argmin is unchanged and solver
    # tolerances become meaningful for any weight magnitude
    scale = float(np.max(np.diag(H)))
    if scale > 0.0:
        H = H / scale
        g = g / scale
    return QpProblem(H, g, C=C, c_lo=lo, c_hi=hi, D=D)


# ---------------------------------------------------------------------------
# the controller


@dataclass
class MpcResult:
    forces: np.ndarray  # (4, 3) first-step ground reaction forces
    fault: bool = False
    linearization_warning: bool = False


class ForceMpc:
    """Holds the solver workspace and the previous solution for fallback."""

    def __init__(self, config: MpcConfig, mass: float, inertia):
        self.config = config
        self.mass = float(mass)
        self.inertia = np.asarray(inertia, dtype=float)
        if self.inertia.ndim == 1:
            self.inertia = np.diag(self.inertia)
        self.solver = QpSolver()
        self.prev_forces = np.zeros((N_LEGS, 3))

    def reference_trajectory(self, state: SrbState, command) -> np.ndarray:
        """Integrate (yaw rate, vx, vy, height) from the current state."""
        yaw_rate, vx, vy, height = command
        k = self.config.horizon
        dt = self.config.dt
        yaw0 = state.rpy[2]
        v_world = rot_z(yaw0) @ np.array([vx, vy, 0.0])
        ref = np.zeros((k, NX))
        for i in range(k):
            t = (i + 1) * dt
            ref[i, 2] = yaw0 + yaw_rate * t
            ref[i, 3:5] = state.position[:2] + v_world[:2] * t
            ref[i, 5] = height
            ref[i, 8] = yaw_rate
            ref[i, 9:11] = v_world[:2]
            ref[i, 12] = state.gravity_placeholder
        return ref

    def step(self, state: SrbState, command, foot_positions, gait: GaitSchedule,
             t: float) -> MpcResult:
        cfg = self.config
        k = cfg.horizon
        lin = linearize_srb(state, foot_positions, self.mass, self.inertia, cfg.dt)
        A_list = [lin.A] * k
        B_list = [lin.B] * k
        flags = np.array([[gait.query(t + i * cfg.dt, l) for l in range(N_LEGS)]
                          for i in range(k)])
        ref = self.reference_trajectory(state, command)
        cond = condense(A_list, B_list, state.as_vector(), ref,
                        cfg.state_weights, cfg.force_weight)
        C, lo, hi, D = build_constraints(flags, cfg.friction, cfg.f_min, cfg.f_max)
        qp = condensed_to_qp(cond, C, lo, hi, D)
        sol = self.solver.solve(qp, tol=1e-8, max_iter=20000)
        if sol.status != "optimal":
            return MpcResult(self.prev_forces.copy(), fault=True,
                             linearization_warning=lin.validity_warning)
        forces = sol.primal[:3 * N_LEGS].reshape(N_LEGS, 3).copy()
        forces[~flags[0]] = 0.0  # swing rows are exact zeros up to solver tol
        self.prev_forces = forces.copy()
        return MpcResult(forces, False, lin.validity_warning)


def stance_torques(robot: RobotState, forces: np.ndarray) -> np.ndarray:
    """Joint torques realizing ground reaction forces: tau = -J^T f per leg,
    as one stacked product over the legs (bit-equal to the per-leg one)."""
    R = robot.rotation()
    Jl = leg_jacobians_local(robot.legs)
    f = np.array(forces, dtype=float).reshape(N_LEGS, 3)
    return ((-Jl.transpose(0, 2, 1)) @ (R.T @ f[:, :, None]))[:, :, 0]


def raibert_foothold(leg: LegModel, command_velocity, gait: GaitSchedule,
                     state: SrbState, gait_cfg: GaitConfig | None = None) -> np.ndarray:
    """Touchdown target: shoulder projection + half-stance velocity feedforward
    + velocity-error feedback, clipped to the leg workspace footprint."""
    k_v = gait_cfg.raibert_velocity_gain if gait_cfg is not None else 0.03
    v_cmd = np.asarray(command_velocity, dtype=float).reshape(3)
    shoulder = shoulder_point(leg, state)
    proj = np.array([shoulder[0], shoulder[1], 0.0])
    stance_t = gait.stance_time if math.isfinite(gait.stance_time) else 0.25
    offset = (stance_t / 2.0) * v_cmd + k_v * (state.linear_velocity - v_cmd)
    offset[2] = 0.0
    norm = float(np.linalg.norm(offset))
    if norm > RAIBERT_MAX_OFFSET:
        offset *= RAIBERT_MAX_OFFSET / norm
    return proj + offset
