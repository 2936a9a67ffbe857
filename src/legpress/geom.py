"""Rotations, rigid transforms and point-cloud containers shared by every module.

Conventions used throughout the stack:
  - all quantities SI (m, s, N, rad); unit conversions happen at config parsing
  - Euler angles are ZYX: R = Rz(yaw) @ Ry(pitch) @ Rx(roll), yaw applied last
  - world frame is x forward, y left, z up
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GIMBAL_MARGIN = 0.05  # rad, extraction rejected when |pitch| > pi/2 - margin


class GimbalLockError(ValueError):
    """Euler extraction requested too close to pitch = +-pi/2."""


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def skew(v) -> np.ndarray:
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def euler_zyx_to_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rotation matrix from ZYX Euler angles (roll about x first, yaw about z last).

    The three factors are the entries of `rot_z(yaw)`, `rot_y(pitch)` and
    `rot_x(roll)`, built as one array: the same two products on the same
    values as `rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)`, so the same bits."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    M = np.array([cy, -sy, 0.0, sy, cy, 0.0, 0.0, 0.0, 1.0,
                  cp, 0.0, sp, 0.0, 1.0, 0.0, -sp, 0.0, cp,
                  1.0, 0.0, 0.0, 0.0, cr, -sr, 0.0, sr, cr]).reshape(3, 3, 3)
    return M[0] @ M[1] @ M[2]


def matrix_to_euler_zyx(R: np.ndarray) -> tuple[float, float, float]:
    """Extract (roll, pitch, yaw) from a rotation matrix, given as an array
    or as three float rows.

    Raises GimbalLockError when |pitch| > pi/2 - 0.05 rad; the controller's
    linearization is invalid there so no caller should ever need it.
    """
    sp = -float(R[2][0])
    sp = min(1.0, max(-1.0, sp))
    pitch = math.asin(sp)
    if abs(pitch) > math.pi / 2.0 - GIMBAL_MARGIN:
        raise GimbalLockError(f"pitch {pitch:.4f} rad is inside the gimbal-lock margin")
    roll = math.atan2(float(R[2][1]), float(R[2][2]))
    yaw = math.atan2(float(R[1][0]), float(R[0][0]))
    return roll, pitch, yaw


def rotation_exp(omega_dt) -> np.ndarray:
    """Rodrigues map: rotation matrix for the axis-angle vector omega*dt."""
    w = np.asarray(omega_dt, dtype=float)
    th = float(np.linalg.norm(w))
    if th < 1e-12:
        return np.eye(3) + skew(w)
    k = w / th
    K = skew(k)
    return np.eye(3) + math.sin(th) * K + (1.0 - math.cos(th)) * (K @ K)


def orthonormalize(R: np.ndarray) -> np.ndarray:
    """Project a near-rotation back onto SO(3) (polar decomposition via SVD)."""
    u, _, vt = np.linalg.svd(np.asarray(R, dtype=float))
    D = np.diag([1.0, 1.0, float(np.linalg.det(u @ vt))])
    return u @ D @ vt


# ---------------------------------------------------------------------------
# float 3-vector helpers: the per-tick simulator and controllers work on
# Python floats, a vector as three floats and a 3x3 matrix as three rows


def cross3(a, b) -> tuple:
    """a x b."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def dot3(a, b) -> float:
    """a . b."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def matvec3(M, x) -> list:
    """M x: each entry the `dot3` of a row and x."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M
    x0, x1, x2 = x
    return [m00 * x0 + m01 * x1 + m02 * x2, m10 * x0 + m11 * x1 + m12 * x2,
            m20 * x0 + m21 * x1 + m22 * x2]


def matvec3_t(M, x) -> list:
    """M' x."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M
    x0, x1, x2 = x
    return [m00 * x0 + m10 * x1 + m20 * x2, m01 * x0 + m11 * x1 + m21 * x2,
            m02 * x0 + m12 * x1 + m22 * x2]


def matmul3(A, B) -> list:
    """A B."""
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = B
    return [[a0 * b00 + a1 * b10 + a2 * b20, a0 * b01 + a1 * b11 + a2 * b21,
             a0 * b02 + a1 * b12 + a2 * b22] for a0, a1, a2 in A]


def threshold_norm(v, limit: float) -> float:
    """`np.linalg.norm(v)` as far as a comparison with `limit` can tell, for a
    short float sequence v: numpy's norm when the float sum of squares lies
    within a relative 1e-9 of limit squared (or when limit is not above
    1e-150, so that its square may not be a normal float), otherwise the
    square root of that sum, which is then on the same side of limit as
    numpy's norm. Both sums are within a few ulps of the exact squared norm,
    far inside the band, so every comparison with limit decides as numpy's
    norm would. A caller that scales by the norm takes numpy's once the
    comparison says so."""
    s = 0.0
    for x in v:
        s += x * x
    if limit > 1e-150:
        l2 = limit * limit
        if s < l2 * (1.0 - 1e-9) or s > l2 * (1.0 + 1e-9):
            return math.sqrt(s)
    return float(np.linalg.norm(v))


def det3(A) -> float:
    """det A by cofactors along the first row."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = A
    return (a00 * (a11 * a22 - a12 * a21)
            - a01 * (a10 * a22 - a12 * a20)
            + a02 * (a10 * a21 - a11 * a20))


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid transform x -> R @ x + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float).reshape(3, 3))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float).reshape(3))

    @staticmethod
    def from_arrays(rotation: np.ndarray, translation: np.ndarray) -> "RigidTransform":
        """The transform of a float (3, 3) rotation array and a float (3,)
        translation array, kept as they are: for a caller that has just built
        both, without the conversion and reshape of the constructor."""
        t = object.__new__(RigidTransform)
        object.__setattr__(t, "rotation", rotation)
        object.__setattr__(t, "translation", translation)
        return t

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    @staticmethod
    def rotation_about(R: np.ndarray, center) -> "RigidTransform":
        """Rotation by R about an arbitrary center point."""
        c = np.asarray(center, dtype=float).reshape(3)
        R = np.asarray(R, dtype=float)
        return RigidTransform(R, c - R @ c)

    def apply(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        Rt = self.rotation.T
        return RigidTransform(Rt, -(Rt @ self.translation))

    def rotation_angle(self) -> float:
        """Geodesic rotation magnitude in radians."""
        c = (float(np.trace(self.rotation)) - 1.0) / 2.0
        return math.acos(min(1.0, max(-1.0, c)))


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """a after b: (a o b)(x) = a(b(x))."""
    return RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


@dataclass
class PointCloud:
    """Ordered 3D points with optional unit normals.

    Point order is meaningful: index i in one cloud corresponds to index i in
    a correspondent cloud (goal flow relies on this). Points and normals are
    in the world frame.
    """

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
            if len(self.normals) != len(self.points):
                raise ValueError("normals count must equal points count")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)


def mean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean distance of corresponding points: the mean row norm of a - b."""
    return float(np.mean(np.linalg.norm(a - b, axis=1)))


def apply_transform(t: RigidTransform, cloud: PointCloud) -> PointCloud:
    """Map every point by R x + t and every normal by R; order preserved."""
    if len(cloud) == 0:
        raise ValueError("cannot transform an empty cloud")
    normals = None if cloud.normals is None else cloud.normals @ t.rotation.T
    return PointCloud(t.apply(cloud.points), normals)
