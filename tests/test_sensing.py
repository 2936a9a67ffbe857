import math

import numpy as np
import pytest

from legpress.config import StackConfig
from legpress.geom import PointCloud, RigidTransform
from legpress.sensing import (
    EmptyObservationError,
    camera_pose,
    full_scan,
    hidden_point_removal,
    render_object_cloud,
)
from legpress.simworld import Box, SimObject, rest_pose_on_ground, standing_world


def world_with_box(xy=(0.45, 0.0), dims=(0.08, 0.08, 0.06)):
    cfg = StackConfig()
    shape = Box(dims)
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    obj.pose = rest_pose_on_ground(shape, xy=xy)
    world = standing_world(cfg, objects=[obj])
    return world


def ray_hits_box_before(point, box_obj, origin):
    """Brute-force visibility oracle: march the ray origin->point and check
    whether the box surface is crossed strictly before reaching the point."""
    d = point - origin
    dist = np.linalg.norm(d)
    d = d / dist
    R, t = box_obj.pose.rotation, box_obj.pose.translation
    n_steps = 4000
    s = np.linspace(1e-4, dist - 1e-4, n_steps)
    local = (origin + s[:, None] * d - t) @ R  # rows are R^T (p - t)
    # a box's signed distance is the largest of |q| - half inside it and
    # positive outside, so this is the per-sample signed-distance test
    sd = (np.abs(local) - np.asarray(box_obj.shape.extents) / 2.0).max(axis=1)
    return bool(np.any(sd < -1e-5))  # strictly inside the box before arriving


# -- hidden point removal ------------------------------------------------------


def test_hpr_collinear_occlusion():
    cloud = PointCloud([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    vis = hidden_point_removal(cloud, np.zeros(3))
    assert 0 in vis
    assert 1 not in vis


def test_hpr_convex_front_all_visible():
    # facing spherical cap (silhouette-tangent points excluded: their
    # visibility is ill-posed for any sensor model)
    rng = np.random.default_rng(60)
    n = 300
    phi = rng.uniform(0, 2 * math.pi, n)
    theta = np.arccos(rng.uniform(math.cos(math.radians(75)), 1.0, n))
    dirs = np.column_stack([np.sin(theta) * np.cos(phi),
                            np.sin(theta) * np.sin(phi), -np.cos(theta)])
    pts = dirs * 0.5 + np.array([0, 0, 2.0])
    vis = hidden_point_removal(PointCloud(pts), np.zeros(3))
    assert len(vis) == n


def test_hpr_cube_agrees_with_raycast_oracle():
    world = world_with_box()
    obj = world.objects[0]
    rng = np.random.default_rng(61)
    pts, _ = obj.shape.sample_surface(rng, 600)
    pts = pts @ obj.pose.rotation.T + obj.pose.translation
    vp = np.array([0.0, 0.0, 0.5])
    vis = set(hidden_point_removal(PointCloud(pts), vp).tolist())
    agree = 0
    for i, p in enumerate(pts):
        occluded = ray_hits_box_before(p, obj, vp)
        if (i in vis) == (not occluded):
            agree += 1
    assert agree / len(pts) >= 0.95


def test_hpr_degenerate_collinear_cloud_all_visible():
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.1], [0.0, 0.0, 1.2]]) + [[0.3, 0, 0]]
    vis = hidden_point_removal(PointCloud(pts), np.zeros(3))
    assert len(vis) == 3


def test_hpr_monotone_removing_occluder():
    # two points behind each other plus a side point; removing the front
    # point never hides the side point
    cloud = PointCloud([[1.0, 0, 0], [2.0, 0, 0], [1.0, 0.8, 0]])
    vis_full = set(hidden_point_removal(cloud, np.zeros(3)).tolist())
    cloud2 = PointCloud([[2.0, 0, 0], [1.0, 0.8, 0]])
    vis_wo = set(hidden_point_removal(cloud2, np.zeros(3)).tolist())
    assert 2 in vis_full
    assert 1 in vis_wo  # the side point stays visible
    assert 0 in vis_wo  # and the previously hidden point appears


# -- rendering -------------------------------------------------------------------


def test_single_point_in_front_visible():
    cloud = PointCloud([[0.5, 0.0, 0.1]])
    vis = hidden_point_removal(cloud, np.zeros(3))
    assert list(vis) == [0]


def test_render_exact_point_count():
    world = world_with_box()
    cloud = render_object_cloud(world, seed=7)
    assert len(cloud) == 400
    assert cloud.normals is not None
    assert np.all(np.isfinite(cloud.points))
    assert np.max(np.abs(np.linalg.norm(cloud.normals, axis=1) - 1.0)) <= 1e-6


def test_render_no_back_face_points():
    world = world_with_box(xy=(0.5, 0.0))
    cloud = render_object_cloud(world, seed=8)
    obj = world.objects[0]
    # back face of the box (+x side, away from the robot at the origin)
    back_x = obj.pose.translation[0] + 0.04
    on_back = np.sum(np.abs(cloud.points[:, 0] - back_x) < 1e-6)
    assert on_back == 0


def test_render_agrees_with_raycast_oracle():
    world = world_with_box()
    world.config.camera.object_points = 300
    cloud = render_object_cloud(world, seed=9)
    obj = world.objects[0]
    vp = camera_pose(world.config.camera, world.robot.srb.position,
                     world.robot.srb.rotation()).translation
    visible_ok = sum(not ray_hits_box_before(p, obj, vp) for p in cloud.points)
    assert visible_ok / len(cloud) >= 0.99


def test_render_determinism_per_seed():
    world = world_with_box()
    a = render_object_cloud(world, seed=11)
    b = render_object_cloud(world, seed=11)
    c = render_object_cloud(world, seed=12)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_camera_pose_of_the_default_config_on_a_standing_trunk():
    """Pinned to the bit: the mount offset and 65-degree pitch on a level
    trunk at the stand height."""
    srb = standing_world().robot.srb
    pose = camera_pose(StackConfig().camera, srb.position, srb.rotation())
    c, s = 0.42261826174069944, 0.9063077870366499  # cos and sin of 65 degrees
    assert pose.rotation.tobytes() == np.array(
        [[0.0, -s, c], [-1.0, 0.0, 0.0], [0.0, -c, -s]]).tobytes()
    assert pose.translation.tobytes() == np.array([0.24, 0.0, 0.42000000000000004]).tobytes()


def test_rendering_reads_the_camera_of_the_world_config():
    """A camera pitched up to 33 degrees loses the near part of the box that
    the default 65 degrees sees whole."""
    pitched = world_with_box()
    pitched.config.camera.pitch_deg = 33.0
    a = render_object_cloud(world_with_box(), seed=11)
    b = render_object_cloud(pitched, seed=11)
    assert np.ptp(b.points[:, 0]) < np.ptp(a.points[:, 0]) - 0.02


def test_render_object_behind_camera_raises():
    world = world_with_box(xy=(-1.5, 0.0))
    with pytest.raises(EmptyObservationError):
        render_object_cloud(world, seed=13)


def test_full_scan_covers_surface():
    """Every scan point lies on the posed surface and carries that face's
    outward normal: the normals registration reads."""
    obj = world_with_box().objects[0]
    scan = full_scan(obj.shape, obj.pose, 500, seed=15)
    assert len(scan) == 500
    R, t = obj.pose.rotation, obj.pose.translation
    for p, n in zip(scan.points[:50], scan.normals[:50]):
        sd, n_local = obj.shape.signed_distance(R.T @ (p - t))
        assert abs(sd) < 1e-9
        assert np.allclose(n, R @ n_local, atol=1e-9)
