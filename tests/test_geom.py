import math

import numpy as np
import pytest

from legpress.geom import (
    GIMBAL_MARGIN,
    GimbalLockError,
    PointCloud,
    RigidTransform,
    apply_transform,
    compose,
    dot3,
    euler_zyx_to_matrix,
    matrix_to_euler_zyx,
    matvec3,
    rot_x,
    rot_y,
    rot_z,
    rotation_exp,
    threshold_norm,
)


def is_rotation(R: np.ndarray, tol: float = 1e-9) -> bool:
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3) or not np.all(np.isfinite(R)):
        return False
    if np.max(np.abs(R.T @ R - np.eye(3))) > tol:
        return False
    return abs(np.linalg.det(R) - 1.0) <= tol


def random_transform(rng):
    w = rng.normal(size=3)
    return RigidTransform(rotation_exp(w), rng.normal(size=3))


def test_compose_identity():
    rng = np.random.default_rng(0)
    t = random_transform(rng)
    out = compose(RigidTransform.identity(), t)
    assert np.allclose(out.rotation, t.rotation)
    assert np.allclose(out.translation, t.translation)


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(1)
    t = random_transform(rng)
    out = compose(t, t.inverse())
    assert np.max(np.abs(out.rotation - np.eye(3))) < 1e-9
    assert np.max(np.abs(out.translation)) < 1e-9


def test_compose_matches_pointwise_sequential_application():
    # brute-force oracle: (a o b)(x) computed point by point
    rng = np.random.default_rng(2)
    a = random_transform(rng)
    b = random_transform(rng)
    pts = rng.normal(size=(100, 3))
    ab = compose(a, b)
    expected = np.array([a.apply(b.apply(x)) for x in pts])
    assert np.max(np.abs(ab.apply(pts) - expected)) < 1e-9


def test_transform_group_laws():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = (random_transform(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.max(np.abs(left.rotation - right.rotation)) < 1e-9
        assert np.max(np.abs(left.translation - right.translation)) < 1e-9


def test_rotation_closure():
    rng = np.random.default_rng(4)
    for _ in range(50):
        r1 = rotation_exp(rng.normal(size=3))
        r2 = rotation_exp(rng.normal(size=3))
        assert is_rotation(r1 @ r2)


def test_transform_from_arrays_keeps_them_and_equals_the_constructor():
    R, t = rotation_exp([0.1, -0.2, 0.3]), np.array([0.4, 0.5, -0.6])
    got = RigidTransform.from_arrays(R, t)
    assert got.rotation is R and got.translation is t
    assert np.array_equal(got.apply(np.eye(3)), RigidTransform(R, t).apply(np.eye(3)))
    with pytest.raises(AttributeError):
        got.translation = t


def test_apply_transform_identity_and_translation():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1, 2, 3], [-1, 0, 0.5]]))
    same = apply_transform(RigidTransform.identity(), cloud)
    assert np.allclose(same.points, cloud.points)

    t = RigidTransform(np.eye(3), [0.1, 0.0, 0.0])
    shifted = apply_transform(t, cloud)
    assert np.allclose(shifted.points - cloud.points, [[0.1, 0, 0]] * 3)


def test_apply_transform_yaw_90():
    t = RigidTransform(euler_zyx_to_matrix(0.0, 0.0, math.pi / 2), np.zeros(3))
    cloud = PointCloud([[1.0, 0.0, 0.0]])
    out = apply_transform(t, cloud)
    assert np.max(np.abs(out.points[0] - np.array([0.0, 1.0, 0.0]))) < 1e-9


def test_apply_transform_rotates_normals_and_preserves_order():
    rng = np.random.default_rng(5)
    n = rng.normal(size=(10, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    cloud = PointCloud(rng.normal(size=(10, 3)), n)
    t = random_transform(rng)
    out = apply_transform(t, cloud)
    assert np.allclose(out.normals, n @ t.rotation.T)
    assert np.allclose(np.linalg.norm(out.normals, axis=1), 1.0)


def test_apply_transform_empty_cloud_rejected():
    with pytest.raises(ValueError):
        apply_transform(RigidTransform.identity(), PointCloud(np.zeros((0, 3))))


def test_apply_transform_is_isometry():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(30, 3))
    cloud = PointCloud(pts)
    out = apply_transform(random_transform(rng), cloud)
    d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    d1 = np.linalg.norm(out.points[:, None] - out.points[None, :], axis=2)
    assert np.max(np.abs(d0 - d1)) < 1e-9


def test_euler_zero_is_identity():
    assert np.allclose(euler_zyx_to_matrix(0, 0, 0), np.eye(3))


def test_euler_yaw_quarter_turn():
    R = euler_zyx_to_matrix(0.0, 0.0, math.pi / 2)
    assert np.max(np.abs(R @ np.array([1.0, 0, 0]) - np.array([0.0, 1, 0]))) < 1e-12


def test_euler_round_trip_away_from_gimbal():
    rng = np.random.default_rng(7)
    for _ in range(200):
        roll = rng.uniform(-math.pi, math.pi)
        pitch = rng.uniform(-1.4, 1.4)
        yaw = rng.uniform(-math.pi, math.pi)
        R = euler_zyx_to_matrix(roll, pitch, yaw)
        r2, p2, y2 = matrix_to_euler_zyx(R)
        R2 = euler_zyx_to_matrix(r2, p2, y2)
        assert np.max(np.abs(R - R2)) < 1e-9


def test_euler_extraction_rejects_gimbal_region():
    R = euler_zyx_to_matrix(0.3, math.pi / 2 - 0.01, 0.2)
    with pytest.raises(GimbalLockError):
        matrix_to_euler_zyx(R)


def test_rotation_about_center_keeps_center_fixed():
    rng = np.random.default_rng(8)
    c = rng.normal(size=3)
    t = RigidTransform.rotation_about(rotation_exp(rng.normal(size=3)), c)
    assert np.max(np.abs(t.apply(c) - c)) < 1e-12


def test_matvec3_equals_the_dot3_form():
    """Each entry of M x is the dot3 of a row and x, bit for bit."""
    rng = np.random.default_rng(8)
    for _ in range(2000):
        M = (rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-6, 6, size=(3, 3))).tolist()
        x = (rng.normal(size=3) * 10.0 ** rng.integers(-6, 6, size=3)).tolist()
        assert matvec3(M, x) == [dot3(M[0], x), dot3(M[1], x), dot3(M[2], x)]


def test_euler_matrix_equals_the_product_of_its_factors():
    """The one-array construction gives rot_z @ rot_y @ rot_x bit for bit:
    10,000 angle triples over the full range and 2,000 with the pitch within
    1e-3 rad of the gimbal margin, on either side of it."""
    rng = np.random.default_rng(9)
    angles = rng.uniform(-math.pi, math.pi, size=(12000, 3))
    angles[:10000, 1] *= 0.5
    edge = math.pi / 2.0 - GIMBAL_MARGIN
    angles[10000:, 1] = rng.choice([-1.0, 1.0], 2000) * (edge + rng.uniform(-1e-3, 1e-3, 2000))
    for roll, pitch, yaw in angles.tolist():
        assert np.array_equal(euler_zyx_to_matrix(roll, pitch, yaw),
                              rot_z(yaw) @ rot_y(pitch) @ rot_x(roll))


@pytest.mark.parametrize("limit", [0.01, 0.02, 0.03, 0.08, 0.15, 0.22, 3e-7])
def test_threshold_norm_decides_as_numpy_next_to_the_limit(limit):
    """On 100,000 2- and 3-vectors whose norm lies within a relative 1e-12 of
    the limit (the stack's limits, and a tiny one), every comparison with the
    limit decides as numpy's norm does, and the helper hands out numpy's norm
    itself there."""
    rng = np.random.default_rng(int(limit * 1e6))
    for dim in (2, 3):
        d = rng.normal(size=(50_000, dim))
        d /= np.linalg.norm(d, axis=1)[:, None]
        vectors = d * (limit * (1.0 + rng.uniform(-1e-12, 1e-12, size=(50_000, 1))))
        below = above = 0
        for v in vectors.tolist():
            got, want = threshold_norm(v, limit), float(np.linalg.norm(v))
            assert got == want
            assert (got < limit, got > limit) == (want < limit, want > limit)
            below += want < limit
            above += want > limit
        assert below > 1000 and above > 1000


def test_threshold_norm_off_the_band_and_off_the_floats():
    """Off the band the square root of the float sum of squares lies on
    numpy's side of the limit; NaN, infinities and limits that are not
    positive normal squares go to numpy."""
    rng = np.random.default_rng(62)
    for _ in range(20_000):
        v = (rng.normal(size=int(rng.integers(2, 4))) * 10.0 ** rng.uniform(-3, 1)).tolist()
        limit = float(10.0 ** rng.uniform(-3, 1))
        got, want = threshold_norm(v, limit), float(np.linalg.norm(v))
        assert (got < limit, got > limit, got == limit) == \
            (want < limit, want > limit, want == limit)
    for v in ([math.nan, 0.0], [math.inf, 1.0], [-math.inf, 0.0, 0.0], [1e200, 1e200],
              [1e-170, 0.0], [0.0, 0.0, 0.0]):
        for limit in (0.02, 0.0, -1.0, math.inf, math.nan, 1e-160):
            with np.errstate(over="ignore"):
                got, want = threshold_norm(v, limit), float(np.linalg.norm(v))
            assert (got < limit, got > limit, got == limit) == \
                (want < limit, want > limit, want == limit)
