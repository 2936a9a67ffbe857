"""Synthetic egocentric depth sensing.

The camera is the config's `[camera]` section: `camera_pose` mounts it on
the trunk and `render_object_cloud` reads it from the world's config.
Object clouds are produced by sampling the analytic shape surfaces (no
rasterizer), culling to the camera frustum and backfaces, then applying
spherical-flipping hidden point removal so only camera-visible surface
remains, and finally resampling to the exact requested point count.
Scans take a shape and a pose, not a simulated body, and every point keeps
the analytic outward normal of the face it was drawn on; registration reads
those normals and never estimates any. Everything is deterministic per seed.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .config import CameraConfig
from .geom import PointCloud, RigidTransform, rot_y
from .simworld import WorldState

HPR_RADIUS_FACTOR = 100.0  # Katz heuristic: R = factor * max range
RENDER_OVERSAMPLE = 6  # surface samples drawn per requested point before culling
NEAR_CLIP = 0.01  # m in front of the camera


class EmptyObservationError(RuntimeError):
    """Object entirely outside the camera frustum."""


def camera_pose(cam: CameraConfig, trunk_position, trunk_rotation) -> RigidTransform:
    """World pose of the camera `cam` on a trunk at this position and
    rotation: mounted at `cam.offset` (trunk frame) and pitched down by
    `cam.pitch_deg` about the trunk y axis. The optical axis z points out of
    the lens, x right in the image, y down."""
    pitch = math.radians(cam.pitch_deg)
    z_cam = rot_y(pitch) @ np.array([1.0, 0.0, 0.0])  # forward, pitched down
    x_cam = np.array([0.0, -1.0, 0.0])  # robot's right
    y_cam = np.cross(z_cam, x_cam)
    R_mount = np.column_stack([x_cam, y_cam, z_cam])
    R = np.asarray(trunk_rotation) @ R_mount
    offset = np.asarray(cam.offset, dtype=float)  # trunk frame
    t = np.asarray(trunk_position) + np.asarray(trunk_rotation) @ offset
    return RigidTransform(R, t)


def hidden_point_removal(cloud: PointCloud, viewpoint) -> np.ndarray:
    """Katz-style visibility: spherical flipping about the viewpoint followed
    by a convex hull; returns indices of visible points.

    Degenerate inputs (too few or collinear points) report everything
    visible, which is the conservative answer for a sensor model."""
    pts = cloud.points
    if len(pts) == 0:
        raise ValueError("empty cloud")
    vp = np.asarray(viewpoint, dtype=float).reshape(3)
    rel = pts - vp
    norms = np.linalg.norm(rel, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("viewpoint coincides with a cloud point")
    R = HPR_RADIUS_FACTOR * float(norms.max())
    flipped = rel + 2.0 * (R - norms)[:, None] * rel / norms[:, None]
    try:
        hull = ConvexHull(np.vstack([flipped, np.zeros(3)]))
    except QhullError:
        return _hpr_degenerate(rel, norms, flipped)
    visible = hull.vertices[hull.vertices < len(pts)]
    return np.sort(visible)


def _hpr_degenerate(rel, norms, flipped):
    """Low-dimensional clouds the hull cannot handle.

    A cloud collinear with the view ray still has a crisp answer (nearest
    point per direction occludes the rest); anything else degenerate is
    reported fully visible, the conservative sensor-model answer."""
    dirs = rel / norms[:, None]
    # rank of the direction set seen from the viewpoint
    _, s, vt = np.linalg.svd(dirs, full_matrices=False)
    rank = int(np.sum(s > 1e-9 * s[0])) if s[0] > 0 else 0
    if rank == 1:
        axis = vt[0]
        proj = dirs @ axis
        visible = []
        for sign in (1.0, -1.0):
            side = np.flatnonzero(proj * sign > 0.5)
            if len(side):
                visible.append(side[np.argmin(norms[side])])
        return np.sort(np.array(visible, dtype=int))
    if rank == 2:
        basis = vt[:2]
        pts2 = flipped @ basis.T
        try:
            hull = ConvexHull(np.vstack([pts2, np.zeros(2)]))
        except QhullError:
            return np.arange(len(rel))
        visible = hull.vertices[hull.vertices < len(rel)]
        return np.sort(visible)
    return np.arange(len(rel))


def _resample(pts, nrm, n_points, rng):
    m = len(pts)
    if m >= n_points:
        idx = rng.choice(m, size=n_points, replace=False)
    else:
        idx = np.concatenate([np.arange(m), rng.choice(m, size=n_points - m, replace=True)])
    return pts[idx], nrm[idx]


def sample_object_surface(shape, pose: RigidTransform, n: int,
                          rng) -> tuple[np.ndarray, np.ndarray]:
    """World-frame surface points + outward normals of the shape at the pose."""
    pts, nrm = shape.sample_surface(rng, n)
    R, t = pose.rotation, pose.translation
    return pts @ R.T + t, nrm @ R.T


def full_scan(shape, pose: RigidTransform, n_points: int, seed: int) -> PointCloud:
    """Occlusion-free surface scan with outward normals (the registration
    target side)."""
    rng = np.random.default_rng(seed)
    pts, nrm = sample_object_surface(shape, pose, n_points, rng)
    return PointCloud(pts, nrm)


def render_object_cloud(world: WorldState, seed: int) -> PointCloud:
    """The first object's camera-visible surface, seen by the world config's
    trunk camera, as exactly `object_points` (of that camera) world-frame
    points with outward normals. Deterministic per seed.

    Raises EmptyObservationError when nothing falls inside the frustum."""
    rng = np.random.default_rng(seed)
    cam = world.config.camera
    n_points = cam.object_points
    obj = world.objects[0]
    n_sample = max(n_points * RENDER_OVERSAMPLE, 1200)
    pts, nrm = sample_object_surface(obj.shape, obj.pose, n_sample, rng)

    pose = camera_pose(cam, world.robot.srb.position, world.robot.srb.rotation())
    vp = pose.translation
    inv = pose.inverse()
    pts_cam = inv.apply(pts)
    th = math.tan(math.radians(cam.horizontal_fov_deg) / 2.0)  # frustum half-angle tangents
    tv = th * cam.height / cam.width
    z = pts_cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.abs(pts_cam[:, 0] / z)
        v = np.abs(pts_cam[:, 1] / z)
    keep = (z > NEAR_CLIP) & (u <= th) & (v <= tv)
    keep &= np.einsum("ij,ij->i", nrm, vp - pts) > 0.0  # backface cull
    if not np.any(keep):
        raise EmptyObservationError("the object is outside the camera frustum")
    pts, nrm = pts[keep], nrm[keep]

    vis = hidden_point_removal(PointCloud(pts), vp)
    pts, nrm = pts[vis], nrm[vis]
    pts, nrm = _resample(pts, nrm, n_points, rng)
    return PointCloud(pts, nrm)
