"""Convex force MPC for the stance legs.

The trunk is linearized about yaw only (roll/pitch assumed small), gravity
enters as a constant 13th state (the configured `sim.gravity` appended to
the trunk's 12), and ground reaction forces are the only decision
variables. States over the horizon are eliminated by condensation, so the
QP is over U alone:

    X = A_qp x0 + B_qp U
    J(U) = |X - x_ref|_L^2 + |U|_K^2

U holds the force triples of the feet in stance at each horizon step and
nothing else, so a swing foot's force is zero by construction: the QP has
no swing-foot columns and no equality rows, only a friction pyramid and
vertical bounds per stance triple. These constraints depend only on the
stance count, so an instance builds them once per count and keeps them as
read-only arrays. One instance owns a QP solver and is re-solved every
`force_update_period` sim steps while the last force set is replayed through
the (re-evaluated) Jacobian-transpose map in between.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import GaitConfig, StackConfig
from .geom import rot_z, skew, threshold_norm
from .qpsolve import QpProblem, QpSolver
from .simworld import LegModel, RobotState, SrbState, shoulder_point

N_LEGS = 4
NX = 13
ANGLE_WARN = 0.4  # rad; linearization validity envelope
RAIBERT_MAX_OFFSET = 0.15  # m; cap on the foothold's velocity offset


# ---------------------------------------------------------------------------
# gait scheduling

TROT_OFFSETS = (0.0, 0.5, 0.5, 0.0)  # phase offset per leg: diagonal pairs in phase


@dataclass(frozen=True)
class GaitSchedule:
    mode: str  # stand | trot
    period: float | None  # trot timing; None on a stand gait
    duty: float | None
    lifted: tuple = ()
    # a stand gait's four stance flags, made once; None on a trot
    _flags: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode == "stand":
            object.__setattr__(self, "_flags", tuple(l not in self.lifted for l in range(N_LEGS)))

    @staticmethod
    def stand(lifted: tuple = ()) -> "GaitSchedule":
        return GaitSchedule("stand", None, None, lifted=tuple(lifted))

    @staticmethod
    def trot(period: float, duty: float) -> "GaitSchedule":
        if not 0.0 < duty <= 1.0:
            raise ValueError("duty factor must be in (0, 1]")
        return GaitSchedule("trot", period=period, duty=duty)

    def stance(self, t: float) -> tuple:
        """The four legs' stance flags at time t, as a tuple: a stand gait's
        legs are in stance unless lifted, a trot leg while its phase
        (t / period + its offset) mod 1 is under the duty factor."""
        if self._flags is not None:
            return self._flags
        x, duty = t / self.period, self.duty
        return tuple((x + offset) % 1.0 < duty for offset in TROT_OFFSETS)

    def swing_phase(self, t: float, leg: int) -> float:
        """Progress of a trot leg through its current swing in [0, 1); 0 if
        in stance."""
        phase = (t / self.period + TROT_OFFSETS[leg]) % 1.0
        if phase < self.duty:
            return 0.0
        return (phase - self.duty) / (1.0 - self.duty)


# ---------------------------------------------------------------------------
# linearized dynamics and condensation


def linearize_srb(state: SrbState, foot_positions, mass: float,
                  inertia: np.ndarray, mpc_dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Discrete one-step SRB model about the current yaw: (A, B), 13x13 and
    13x12.

    Foot positions are world frame; B columns map each foot's force to
    angular and linear velocity changes through the r x f torque arm.
    """
    yaw = state.rpy[2]
    Rz = rot_z(yaw)
    I_w = Rz @ np.asarray(inertia, dtype=float) @ Rz.T
    I_w_inv = np.linalg.inv(I_w)

    A = np.eye(NX)
    A[0:3, 6:9] = Rz.T * mpc_dt
    A[3:6, 9:12] = np.eye(3) * mpc_dt
    A[11, 12] = -mpc_dt

    B = np.zeros((NX, 3 * N_LEGS))
    com = np.array(state.position)
    for j in range(N_LEGS):
        r = np.asarray(foot_positions[j], dtype=float) - com
        B[6:9, 3 * j:3 * j + 3] = mpc_dt * (I_w_inv @ skew(r))
        B[9:12, 3 * j:3 * j + 3] = (mpc_dt / mass) * np.eye(3)

    return A, B


def condense(A: np.ndarray, B: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack k steps of x+ = A x + B u into X = A_qp x0 + B_qp U.

    A_qp stacks A^1 .. A^k and block (i, j) of B_qp is A^(i-j) B, so every
    block column is the first one shifted down by j blocks."""
    if k < 1:
        raise ValueError("horizon must be at least 1")
    nx, nu = B.shape
    powers, first = [A], [B]
    for _ in range(k - 1):
        powers.append(A @ powers[-1])
        first.append(A @ first[-1])
    first = np.vstack(first)
    B_qp = np.zeros((nx * k, nu * k))
    for j in range(k):
        B_qp[nx * j:, nu * j:nu * (j + 1)] = first[:nx * (k - j)]
    return np.vstack(powers), B_qp


# ---------------------------------------------------------------------------
# constraints


def build_constraints(n_stance: int, mu: float, f_min: float,
                      f_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Friction pyramid |f_x|, |f_y| <= mu f_z and f_min <= f_z <= f_max per
    stance force triple, over the stacked stance forces. Returns (C, lo, hi)."""
    block = np.array([[1.0, 0.0, -mu], [-1.0, 0.0, -mu],
                      [0.0, 1.0, -mu], [0.0, -1.0, -mu],
                      [0.0, 0.0, 1.0]])
    lo = np.tile([-np.inf] * 4 + [f_min], n_stance)
    hi = np.tile([0.0] * 4 + [f_max], n_stance)
    return np.kron(np.eye(n_stance), block), lo, hi


def condensed_to_qp(A_qp, B_qp, x0, x_ref, state_weights, force_weight,
                    C, lo, hi) -> QpProblem:
    """|A_qp x0 + B_qp U - x_ref|_L^2 + force_weight |U|^2 as a QP over U."""
    L = np.tile(np.asarray(state_weights, dtype=float), len(A_qp) // NX)
    BL = B_qp.T * L
    H = 2.0 * (BL @ B_qp + float(force_weight) * np.eye(B_qp.shape[1]))
    H = 0.5 * (H + H.T)
    g = 2.0 * (BL @ (A_qp @ np.asarray(x0, dtype=float) - np.asarray(x_ref).reshape(-1)))
    # normalize the objective scale: the argmin is unchanged and solver
    # tolerances become meaningful for any weight magnitude
    scale = float(np.max(np.diag(H)))
    if scale > 0.0:
        H = H / scale
        g = g / scale
    return QpProblem(H, g, C=C, c_lo=lo, c_hi=hi)


# ---------------------------------------------------------------------------
# the controller


@dataclass
class MpcResult:
    forces: np.ndarray  # (4, 3) first-step ground reaction forces
    fault: bool = False
    linearization_warning: bool = False  # roll or pitch past ANGLE_WARN


class ForceMpc:
    """Holds the solver workspace and the constraints per stance count. A
    solve that is not optimal returns zero forces with `fault` set, and a
    fault is final: the episode ends on it.

    The model step is the hold interval, sim dt * force_update_period: a
    shorter one destabilizes the sampled-data loop."""

    def __init__(self, config: StackConfig):
        self.config = config.mpc
        self.dt = config.sim.dt * config.mpc.force_update_period
        self.mass = float(config.robot.trunk_mass)
        self.inertia = np.diag(config.robot.trunk_inertia)
        self.gravity = config.sim.gravity  # the constant 13th state
        self.solver = QpSolver()
        self._constraints = {}  # stance count -> read-only (C, lo, hi)

    def constraints(self, n_stance: int) -> tuple:
        """build_constraints of this config, built once per stance count as
        read-only arrays."""
        if n_stance not in self._constraints:
            cfg = self.config
            arrays = build_constraints(n_stance, cfg.friction, cfg.f_min, cfg.f_max)
            for a in arrays:
                a.flags.writeable = False
            self._constraints[n_stance] = arrays
        return self._constraints[n_stance]

    def reference_trajectory(self, state: SrbState, command) -> np.ndarray:
        """Integrate (yaw rate, vx, vy, height) from the current state."""
        yaw_rate, vx, vy, height = command
        k = self.config.horizon
        yaw0 = state.rpy[2]
        v_world = rot_z(yaw0) @ np.array([vx, vy, 0.0])
        t = np.arange(1, k + 1) * self.dt  # the end of each horizon step
        ref = np.zeros((k, NX))
        ref[:, 2] = yaw0 + yaw_rate * t
        ref[:, 3:5] = np.array(state.position[:2]) + v_world[:2] * t[:, None]
        ref[:, 5] = height
        ref[:, 8] = yaw_rate
        ref[:, 9:11] = v_world[:2]
        ref[:, 12] = self.gravity
        return ref

    def step(self, state: SrbState, command, foot_positions, gait: GaitSchedule,
             t: float) -> MpcResult:
        cfg = self.config
        k = cfg.horizon
        A, B = linearize_srb(state, foot_positions, self.mass, self.inertia, self.dt)
        warning = abs(state.rpy[0]) > ANGLE_WARN or abs(state.rpy[1]) > ANGLE_WARN
        flags = np.array([gait.stance(t + i * self.dt) for i in range(k)])
        A_qp, B_qp = condense(A, B, k)
        B_qp = B_qp[:, np.repeat(flags.ravel(), 3)]  # stance force columns only
        C, lo, hi = self.constraints(int(flags.sum()))
        qp = condensed_to_qp(A_qp, B_qp, np.append(state.as_vector(), self.gravity),
                             self.reference_trajectory(state, command),
                             cfg.state_weights, cfg.force_weight, C, lo, hi)
        sol = self.solver.solve(qp)
        if sol.status != "optimal":
            return MpcResult(np.zeros((N_LEGS, 3)), True, warning)
        forces = np.zeros((N_LEGS, 3))
        forces[flags[0]] = sol.primal[:3 * int(flags[0].sum())].reshape(-1, 3)
        return MpcResult(forces, False, warning)


def stance_torques(robot: RobotState, forces, stance) -> list:
    """Joint torques realizing ground reaction forces on the legs whose
    stance flag is set: tau = -J^T f per leg, computed as -Jl^T (R^T f) on the
    float rows of the trunk rotation R and each leg's trunk-frame Jacobian Jl.
    `forces` holds the four legs' force triples as float rows
    (`MpcResult.forces.tolist()`). Returns the 12 torques as a flat list of
    floats, zeros for a swing leg. Both products are written out in
    `geom.matvec3_t`'s order."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = robot.srb.rotation_rows
    tau = [0.0] * (3 * N_LEGS)
    for i, leg in enumerate(robot.legs):
        if stance[i]:
            f0, f1, f2 = forces[i]
            y0 = r00 * f0 + r10 * f1 + r20 * f2
            y1 = r01 * f0 + r11 * f1 + r21 * f2
            y2 = r02 * f0 + r12 * f1 + r22 * f2
            (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = leg.jacobian_rows
            tau[3 * i] = -(j00 * y0 + j10 * y1 + j20 * y2)
            tau[3 * i + 1] = -(j01 * y0 + j11 * y1 + j21 * y2)
            tau[3 * i + 2] = -(j02 * y0 + j12 * y1 + j22 * y2)
    return tau


def raibert_foothold(leg: LegModel, command_velocity, gait: GaitSchedule,
                     state: SrbState, gait_cfg: GaitConfig) -> np.ndarray:
    """Touchdown target on a trot gait: shoulder projection + half-stance
    velocity feedforward + velocity-error feedback, clipped to the leg
    workspace footprint."""
    k_v = gait_cfg.raibert_velocity_gain
    v_cmd = np.asarray(command_velocity, dtype=float).reshape(3)
    shoulder = shoulder_point(leg, state)
    proj = np.array([shoulder[0], shoulder[1], 0.0])
    stance_t = gait.period * gait.duty
    offset = (stance_t / 2.0) * v_cmd + k_v * (np.array(state.linear_velocity) - v_cmd)
    offset[2] = 0.0
    if threshold_norm(offset.tolist(), RAIBERT_MAX_OFFSET) > RAIBERT_MAX_OFFSET:
        offset *= RAIBERT_MAX_OFFSET / float(np.linalg.norm(offset))
    return proj + offset
