import math

import numpy as np
import pytest

from legpress import register
from legpress.geom import (
    PointCloud,
    RigidTransform,
    apply_transform,
    compose,
    rot_z,
    rotation_exp,
)
from legpress.register import (
    _solve_point_to_plane,
    chamfer_distance,
    flow_distance,
    icp_register,
    register_with_augmentation,
    select_by_rank_sum,
)
from legpress.sensing import full_scan
from legpress.simworld import Box, Compound, SimObject


def lshape_cloud(n=400, seed=0):
    """Asymmetric object scan (an L-prism) for unambiguous registration."""
    shape = Compound(((Box((0.10, 0.05, 0.04)), (0.0, 0.0, 0.0)),
                      (Box((0.05, 0.05, 0.04)), (-0.025, 0.0, 0.04))))
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    return full_scan(obj, n, seed)


# -- metrics -------------------------------------------------------------------


def test_flow_identity_zero():
    cloud = lshape_cloud(100)
    assert flow_distance(cloud, RigidTransform.identity()) == 0.0


def test_flow_pure_translation():
    cloud = lshape_cloud(100)
    d = np.array([0.03, -0.04, 0.12])
    t = RigidTransform(np.eye(3), d)
    assert abs(flow_distance(cloud, t) - np.linalg.norm(d)) < 1e-12


def test_flow_prefers_small_rotation():
    cloud = lshape_cloud(200)
    c = cloud.centroid
    big = RigidTransform.rotation_about(rot_z(math.pi), c)
    small = RigidTransform.rotation_about(rot_z(math.radians(1.0)), c)
    assert flow_distance(cloud, big) > flow_distance(cloud, small)


def test_chamfer_identical_zero():
    cloud = lshape_cloud(150)
    assert chamfer_distance(cloud, cloud) == 0.0


def test_chamfer_two_single_points_is_distance():
    a = PointCloud([[0.0, 0.0, 0.0]])
    b = PointCloud([[0.3, 0.4, 0.0]])
    assert abs(chamfer_distance(a, b) - 0.5) < 1e-12


def test_chamfer_matches_double_loop_oracle():
    rng = np.random.default_rng(70)
    a = PointCloud(rng.normal(size=(50, 3)))
    b = PointCloud(rng.normal(size=(50, 3)))
    d_ab = np.array([min(np.linalg.norm(p - q) for q in b.points) for p in a.points])
    d_ba = np.array([min(np.linalg.norm(q - p) for p in a.points) for q in b.points])
    oracle = 0.5 * (d_ab.mean() + d_ba.mean())
    assert abs(chamfer_distance(a, b) - oracle) < 1e-12


def test_chamfer_symmetry():
    rng = np.random.default_rng(71)
    a = PointCloud(rng.normal(size=(40, 3)))
    b = PointCloud(rng.normal(size=(60, 3)))
    assert chamfer_distance(a, b) == chamfer_distance(b, a)


# -- icp ------------------------------------------------------------------------


def test_icp_identity_on_same_cloud():
    cloud = lshape_cloud(300)
    res = icp_register(cloud, cloud)
    assert res.converged
    assert np.max(np.abs(res.transform.rotation - np.eye(3))) < 1e-9
    assert np.max(np.abs(res.transform.translation)) < 1e-9
    assert res.residual < 1e-9


def test_icp_recovers_known_small_transform():
    source = lshape_cloud(400, seed=1)
    true = RigidTransform.rotation_about(rot_z(math.radians(5.0)), source.centroid)
    true = compose(RigidTransform(np.eye(3), [0.02, -0.01, 0.0]), true)
    target = apply_transform(true, source)
    res = icp_register(source, target)
    assert res.converged
    err = compose(res.transform, true.inverse())
    assert math.degrees(err.rotation_angle()) < 0.5
    # translation error measured at the cloud: residual displacement
    moved = res.transform.apply(source.points)
    want = target.points
    assert float(np.mean(np.linalg.norm(moved - want, axis=1))) < 0.002


def test_point_to_plane_system_equals_the_stacked_cross_product(monkeypatch):
    """The column-built system matrix has the bits of [src x nrm | nrm], so the
    Gauss-Newton step is the one np.hstack and np.cross gave."""
    systems = []
    lstsq = np.linalg.lstsq

    def recording(A, b, rcond=None):
        systems.append(A.copy())
        return lstsq(A, b, rcond=rcond)

    monkeypatch.setattr(register.np.linalg, "lstsq", recording)
    rng = np.random.default_rng(3)
    for n in (6, 37, 400):
        for _ in range(20):
            src = rng.normal(scale=0.05, size=(n, 3))
            dst = src + rng.normal(scale=0.005, size=(n, 3))
            nrm = rng.normal(size=(n, 3))
            nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
            got = _solve_point_to_plane(src, dst, nrm)
            A = np.hstack([np.cross(src, nrm), nrm])
            assert np.array_equal(systems[-1], A)
            x, *_ = lstsq(A, -np.einsum("ij,ij->i", src - dst, nrm), rcond=None)
            assert np.array_equal(got.translation, x[3:])
            assert np.array_equal(got.rotation, rotation_exp(x[:3]))


def test_icp_rejects_tiny_clouds():
    small = PointCloud(np.random.default_rng(0).normal(size=(5, 3)))
    with pytest.raises(ValueError):
        icp_register(small, small)


# -- rank-sum selection ------------------------------------------------------------


def test_rank_sum_arithmetic_rule():
    # candidate 0 ranks (flow 2, chamfer 1): 2 + 1.5*1 = 3.5
    # candidate 1 ranks (flow 1, chamfer 3): 1 + 1.5*3 = 5.5
    # candidate 2 ranks (flow 3, chamfer 2): 3 + 1.5*2 = 6.0
    flows = [0.2, 0.1, 0.3]
    chams = [0.01, 0.03, 0.02]
    win, rf, rc, sums = select_by_rank_sum(flows, chams, 1.5)
    assert list(rf) == [2, 1, 3]
    assert list(rc) == [1, 3, 2]
    assert sums[0] == 3.5 and sums[1] == 5.5
    assert win == 0


def test_rank_sum_tie_breaks_on_chamfer_then_index():
    # equal sums; candidate 1 has the lower chamfer
    flows = [0.1, 0.2]
    chams = [0.02, 0.01]
    win, rf, rc, sums = select_by_rank_sum(flows, chams, 1.0)
    assert sums[0] == sums[1]
    assert win == 1


def test_rank_sum_invariant_to_monotone_rescaling():
    rng = np.random.default_rng(72)
    flows = rng.uniform(0.01, 1.0, 7)
    chams = rng.uniform(0.001, 0.1, 7)
    w1 = select_by_rank_sum(flows, chams)
    w2 = select_by_rank_sum(np.sqrt(flows) * 3.0, chams ** 2 * 100.0)
    assert w1[0] == w2[0]
    assert np.array_equal(w1[1], w2[1])
    assert np.array_equal(w1[2], w2[2])


# -- augmented registration ----------------------------------------------------------


def test_identity_wins_when_source_equals_target():
    cloud = lshape_cloud(300, seed=2)
    res = register_with_augmentation(cloud, cloud, seed=3)
    assert res.winner_index == 0
    assert res.candidates[0].rank_flow == 1
    assert res.candidates[0].flow_distance < 1e-9
    assert res.candidates[0].chamfer_distance < 1e-9
    assert not res.degraded


def test_final_transform_in_original_source_frame():
    source = lshape_cloud(350, seed=4)
    true = RigidTransform.rotation_about(rot_z(0.4), source.centroid)
    true = compose(RigidTransform(np.eye(3), [0.05, 0.02, 0.0]), true)
    target = apply_transform(true, source)
    res = register_with_augmentation(source, target, seed=5)
    # applying the returned transform to the ORIGINAL source must reproduce
    # the winning candidate's chamfer exactly
    cham = chamfer_distance(apply_transform(res.transform, source), target)
    assert abs(cham - res.candidates[res.winner_index].chamfer_distance) < 1e-9


def test_augmentation_recovers_large_yaw():
    source = lshape_cloud(350, seed=6)
    true = RigidTransform.rotation_about(rot_z(math.radians(120.0)), source.centroid)
    target = apply_transform(true, source)
    single = icp_register(source, target)
    res = register_with_augmentation(source, target, seed=7)
    cham_aug = chamfer_distance(apply_transform(res.transform, source), target)
    cham_single = chamfer_distance(apply_transform(single.transform, source), target)
    assert cham_aug < 0.005
    assert cham_aug <= cham_single + 1e-12

