import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from legpress import harness, register
from legpress.geom import (
    PointCloud,
    RigidTransform,
    apply_transform,
    compose,
    rot_z,
    rotation_exp,
)
from legpress.register import (
    IcpResult,
    RegistrationCandidate,
    RegistrationResult,
    _point_to_plane_system,
    _rotation_exp_rows,
    chamfer_distance,
    flow_distance,
    icp_register,
    register_with_augmentation,
    select_by_rank_sum,
)
from legpress.sensing import full_scan
from legpress.simworld import Box, Compound


def lshape_cloud(n=400, seed=0):
    """Asymmetric object scan (an L-prism) for unambiguous registration."""
    shape = Compound(((Box((0.10, 0.05, 0.04)), (0.0, 0.0, 0.0)),
                      (Box((0.05, 0.05, 0.04)), (-0.025, 0.0, 0.04))))
    return full_scan(shape, RigidTransform.identity(), n, seed)


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


def test_point_to_plane_system_equals_the_stacked_cross_product():
    """The column-built system has the bits of [src x nrm | nrm] and
    -((src - dst) . nrm), also when the matches and their normals are the
    column halves of one gathered (n, 6) array, as the ICP loop passes them."""
    rng = np.random.default_rng(3)
    for n in (6, 37, 400):
        for _ in range(20):
            src = rng.normal(scale=0.05, size=(n, 3))
            dst = src + rng.normal(scale=0.005, size=(n, 3))
            nrm = rng.normal(size=(n, 3))
            nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
            A_ref = np.hstack([np.cross(src, nrm), nrm])
            b_ref = -np.einsum("ij,ij->i", src - dst, nrm)
            hit = np.hstack([dst, nrm])
            for A, b in (_point_to_plane_system(src, dst, nrm),
                         _point_to_plane_system(src, hit[:, :3], hit[:, 3:])):
                assert np.array_equal(A, A_ref)
                assert np.array_equal(b, b_ref)


def test_batched_rotation_map_equals_rotation_exp_per_row():
    """Every slice of the batched Rodrigues map has the bits of rotation_exp,
    on both sides of its 1e-12 small-angle threshold and at exactly zero."""
    rng = np.random.default_rng(4)
    rows = [rng.normal(size=3) * 10.0 ** e for e in rng.uniform(-16.0, 0.5, 3000)]
    rows += [np.zeros(3), np.array([0.0, -0.0, 1e-300]), np.array([1e-12, 0.0, 0.0]),
             np.array([0.0, 9.999999e-13, 0.0]), np.array([1e-12, 1e-12, 0.0])]
    small = 0
    for lo in range(0, len(rows), 7):
        W = np.array(rows[lo:lo + 7])
        got = _rotation_exp_rows(W)
        for w, R in zip(W, got):
            assert np.array_equal(R, rotation_exp(w))
            small += float(np.linalg.norm(w)) < 1e-12
    assert 300 < small < len(rows) - 300


def test_icp_rejects_tiny_clouds():
    small = PointCloud(np.random.default_rng(0).normal(size=(5, 3)))
    with pytest.raises(ValueError):
        icp_register(small, small)


@pytest.mark.parametrize("register_fn", [icp_register, register_with_augmentation])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_source_point_is_rejected_before_any_work(register_fn, bad, monkeypatch):
    monkeypatch.setattr(register, "cKDTree", None)  # no KD-tree may be built or queried
    cloud = lshape_cloud(50)
    points = cloud.points.copy()
    points[17, 1] = bad
    with pytest.raises(ValueError, match="^source cloud has non-finite points$"):
        register_fn(PointCloud(points), cloud)


@pytest.mark.parametrize("register_fn", [icp_register, register_with_augmentation])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_target_point_is_rejected_before_any_work(register_fn, bad, monkeypatch):
    monkeypatch.setattr(register, "cKDTree", None)
    cloud = lshape_cloud(50)
    points = cloud.points.copy()
    points[3, 2] = bad
    with pytest.raises(ValueError, match="^target cloud has non-finite points$"):
        register_fn(cloud, PointCloud(points))


@pytest.mark.parametrize("register_fn", [icp_register, register_with_augmentation])
def test_a_target_without_normals_is_rejected(register_fn, monkeypatch):
    """Point-to-plane ICP reads the target's normals, which a full scan
    carries; none is estimated. The finiteness and size checks come first."""
    monkeypatch.setattr(register, "cKDTree", None)
    cloud = lshape_cloud(50)
    with pytest.raises(ValueError, match="^target cloud has no normals"):
        register_fn(cloud, PointCloud(cloud.points))
    with pytest.raises(ValueError, match="^need at least 10 points per cloud$"):
        register_fn(cloud, PointCloud(cloud.points[:9]))
    points = cloud.points.copy()
    points[3, 2] = math.nan
    with pytest.raises(ValueError, match="^target cloud has non-finite points$"):
        register_fn(cloud, PointCloud(points))


# -- rank-sum selection ------------------------------------------------------------


def ranked(flows, chams):
    """Candidates of the given flow and Chamfer distances, and the winner
    that select_by_rank_sum picks after writing their ranks."""
    candidates = [RegistrationCandidate(RigidTransform.identity(), float(f), float(c), "step_tol")
                  for f, c in zip(flows, chams)]
    return candidates, select_by_rank_sum(candidates)


def test_rank_sum_arithmetic_rule():
    # candidate 0 ranks (flow 2, chamfer 1): 2 + 1.5*1 = 3.5
    # candidate 1 ranks (flow 1, chamfer 3): 1 + 1.5*3 = 5.5
    # candidate 2 ranks (flow 3, chamfer 2): 3 + 1.5*2 = 6.0
    candidates, win = ranked([0.2, 0.1, 0.3], [0.01, 0.03, 0.02])
    assert [c.rank_flow for c in candidates] == [2, 1, 3]
    assert [c.rank_chamfer for c in candidates] == [1, 3, 2]
    assert [c.weighted_rank_sum for c in candidates] == [3.5, 5.5, 6.0]
    assert win == 0


def test_rank_sum_tie_breaks_on_chamfer_then_index():
    # candidates 0 (flow 1, chamfer 3) and 1 (flow 4, chamfer 1) tie at
    # 1 + 1.5*3 = 4 + 1.5*1 = 5.5; candidate 1 has the lower chamfer
    candidates, win = ranked([0.1, 0.4, 0.2, 0.3], [0.03, 0.01, 0.04, 0.02])
    sums = [c.weighted_rank_sum for c in candidates]
    assert sums[0] == sums[1] == 5.5 and min(sums[2:]) > 5.5
    assert win == 1
    # equal distances rank in index order, and the lower index wins the tie
    candidates, win = ranked([0.1, 0.1], [0.02, 0.02])
    assert [(c.rank_flow, c.rank_chamfer) for c in candidates] == [(1, 1), (2, 2)]
    assert win == 0


def test_rank_sum_invariant_to_monotone_rescaling():
    rng = np.random.default_rng(72)
    flows = rng.uniform(0.01, 1.0, 7)
    chams = rng.uniform(0.001, 0.1, 7)
    c1, w1 = ranked(flows, chams)
    c2, w2 = ranked(np.sqrt(flows) * 3.0, chams ** 2 * 100.0)
    assert w1 == w2
    ranks = [[(c.rank_flow, c.rank_chamfer) for c in cands] for cands in (c1, c2)]
    assert ranks[0] == ranks[1]


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


# -- lockstep core against the sequential reference ------------------------------------
# The registration as it ran before its starts were put in lockstep: each start
# alone through plain numpy, with its own target KD-tree, and each candidate's
# Chamfer distance through the public function. The module constants are read at
# call time, so a test that patches them patches the reference too.


def reference_icp(source, target):
    if len(source) < 10 or len(target) < 10:
        raise ValueError("need at least 10 points per cloud")
    T = RigidTransform.identity()
    tree = cKDTree(target.points)
    best_T, best_res = T, math.inf
    worse_streak = 0
    it = 0
    for it in range(1, register.ICP_MAX_ITER + 1):
        moved = T.apply(source.points)
        dist, idx = tree.query(moved)
        med = float(np.median(dist))
        keep = dist <= max(register.REJECT_MEDIAN_FACTOR * med, 1e-9)
        assert np.sum(keep) > len(dist) // 2  # see test_the_median_reject_keeps_over_half
        dst = target.points[idx[keep]]
        nrm = target.normals[idx[keep]]
        res = float(np.sqrt(np.mean(np.einsum("ij,ij->i", moved[keep] - dst, nrm) ** 2)))
        if res < best_res - 1e-12:
            best_res, best_T = res, T
            worse_streak = 0
        else:
            worse_streak += 1
            if worse_streak >= register.DIVERGE_PATIENCE:
                return IcpResult(best_T, best_res, "patience", it)
        src = moved[keep]
        A = np.hstack([np.cross(src, nrm), nrm])
        x, *_ = np.linalg.lstsq(A, -np.einsum("ij,ij->i", src - dst, nrm), rcond=None)
        delta = RigidTransform(rotation_exp(x[:3]), x[3:])
        T = compose(delta, T)
        step = float(np.linalg.norm(delta.translation)) + delta.rotation_angle()
        if step < register.ICP_TOL:
            return IcpResult(T, res, "step_tol", it)
    return IcpResult(best_T, best_res, "max_iter", it)


def reference_registration(source, target, seed=0):
    """(RegistrationResult, the IcpResult of every start)."""
    rng = np.random.default_rng(seed)
    centroid = source.centroid
    rotations = [RigidTransform.identity()]
    for _ in range(register.N_AUGMENT):
        yaw = rng.uniform(0.0, 2.0 * math.pi)
        rotations.append(RigidTransform.rotation_about(rot_z(yaw), centroid))
    starts, candidates = [], []
    for R_aug in rotations:
        est = reference_icp(apply_transform(R_aug, source), target)
        combined = compose(est.transform, R_aug)
        flow = flow_distance(source, combined)
        cham = chamfer_distance(apply_transform(combined, source), target)
        starts.append(est)
        candidates.append(RegistrationCandidate(combined, flow, cham, est.exit))
    win = select_by_rank_sum(candidates)
    result = RegistrationResult(candidates, win)
    # what the result reads from its candidates and winner
    assert result.transform is candidates[win].combined_transform
    assert result.degraded == (not any(c.converged for c in candidates))
    return result, starts


def assert_same_transform(got, want):
    assert np.array_equal(got.rotation, want.rotation)
    assert np.array_equal(got.translation, want.translation)


def assert_same_icp(got, want):
    assert_same_transform(got.transform, want.transform)
    assert (got.residual, got.exit, got.iterations, got.converged) == \
        (want.residual, want.exit, want.iterations, want.converged)


def assert_same_registration(got, want):
    assert (got.winner_index, got.degraded) == (want.winner_index, want.degraded)
    assert_same_transform(got.transform, want.transform)
    assert len(got.candidates) == len(want.candidates)
    for c, w in zip(got.candidates, want.candidates):
        assert_same_transform(c.combined_transform, w.combined_transform)
        assert (c.flow_distance, c.chamfer_distance, c.exit, c.converged) == \
            (w.flow_distance, w.chamfer_distance, w.exit, w.converged)
        assert (c.rank_flow, c.rank_chamfer, c.weighted_rank_sum) == \
            (w.rank_flow, w.rank_chamfer, w.weighted_rank_sum)


class Checked:
    """Runs the lockstep registration and the reference on the same inputs,
    asserts they agree bit for bit, and keeps every batch of start results."""

    def __init__(self, monkeypatch):
        self.batches = []
        self.registrations = self.single_shots = 0
        lockstep = register._icp_lockstep

        def recording(sources, target, tree):
            results = lockstep(sources, target, tree)
            self.batches.append(results)
            return results

        monkeypatch.setattr(register, "_icp_lockstep", recording)

    def register(self, source, target, seed=0):
        got = register_with_augmentation(source, target, seed=seed)
        want, starts = reference_registration(source, target, seed=seed)
        assert_same_registration(got, want)
        for g, w in zip(self.batches[-1], starts, strict=True):
            assert_same_icp(g, w)
        self.registrations += 1
        return got

    def icp(self, source, target):
        got = icp_register(source, target)
        assert_same_icp(got, reference_icp(source, target))
        self.single_shots += 1
        return got


def test_lockstep_matches_the_sequential_reference_on_the_benchmark_suites(monkeypatch):
    checked = Checked(monkeypatch)
    monkeypatch.setattr(harness, "usable_cores", lambda: 1)  # count every call in this process
    monkeypatch.setattr(harness, "register_with_augmentation", checked.register)
    monkeypatch.setattr(harness, "icp_register", checked.icp)
    harness.registration_benchmark(40, seed=0)
    harness.ambiguity_benchmark(20, seed=0)
    assert (checked.registrations, checked.single_shots) == (60, 20)
    exits = {r.exit for batch in checked.batches for r in batch}
    assert {"step_tol", "patience"} <= exits
    # starts of one batch that leave on different rules at different iterations
    assert any(len({r.exit for r in batch}) > 1 and len({r.iterations for r in batch}) > 1
               for batch in checked.batches if len(batch) > 1)


def test_lockstep_matches_the_reference_on_every_exit_rule(monkeypatch):
    """The suite cases above never reach max_iter, so this batch is built to:
    an iteration cap of 10."""
    checked = Checked(monkeypatch)
    monkeypatch.setattr(register, "ICP_MAX_ITER", 10)
    source = lshape_cloud(150, seed=9)
    true = RigidTransform.rotation_about(rot_z(math.radians(40.0)), source.centroid)
    checked.register(source, apply_transform(true, lshape_cloud(400, seed=10)), seed=1)
    capped = checked.batches[-1]
    assert {r.exit for r in capped} == set(register.EXITS)
    assert len({r.iterations for r in capped}) > 2


def test_the_median_reject_keeps_over_half_of_the_points(monkeypatch):
    """With n >= 10 finite distances, every distance up to the median is at
    most REJECT_MEDIAN_FACTOR times it (an even count's median is at least
    half its upper middle value, and the factor is at least 2), so at least
    floor(n/2) + 1 >= 6 correspondences are kept and every start can step.
    Checked on rows built to keep the fewest: the upper half far away, ties,
    zeros and a zero median; then on a 12-point source, half on the target
    and half 0.3 m above it, through the registration, whose reference
    asserts the bound for every start and iteration."""
    assert register.REJECT_MEDIAN_FACTOR >= 2.0
    rng = np.random.default_rng(61)
    rows = []
    for n in range(10, 41):
        low = n // 2 + 1
        rows += [np.concatenate([rng.uniform(0.0, 1e-3, low), rng.uniform(1e3, 1e6, n - low)]),
                 np.concatenate([np.full(low, 0.02), np.full(n - low, 5.0)]),
                 np.concatenate([np.zeros(n // 2), rng.uniform(1.0, 2.0, n - n // 2)]),
                 np.zeros(n), rng.exponential(size=n) ** 8]
    for dist in rows:
        keep = dist <= max(register.REJECT_MEDIAN_FACTOR * float(np.median(dist)), 1e-9)
        assert np.count_nonzero(keep) >= len(dist) // 2 + 1 >= 6

    checked = Checked(monkeypatch)
    target = lshape_cloud(40, seed=10)
    far = target.points[6:12] + np.array([0.0, 0.0, 0.3])
    checked.register(PointCloud(np.vstack([target.points[:6], far])), target, seed=2)
    assert len(checked.batches[-1]) == 1 + register.N_AUGMENT


@pytest.mark.parametrize("n", [10, 11, 180, 181, 400])
def test_row_medians_equal_np_median(n):
    """The partition at numpy's kth and the mean of the middle column or
    columns give np.median's bits, for odd and even widths, ties included."""
    rng = np.random.default_rng(n)
    for dist in (rng.exponential(size=(7, n)), rng.integers(0, 4, size=(5, n)) * 0.1,
                 rng.normal(size=(1, n)) ** 2 * 1e-9):
        assert np.array_equal(register._row_medians(dist), np.median(dist, axis=1))


def test_lockstep_takes_the_small_angle_branch_beside_ordinary_starts(monkeypatch):
    """A cloud registered onto itself: the unrotated start finds every point
    on its own match, so its Gauss-Newton step is exactly zero and the
    batched Rodrigues map takes its th < 1e-12 branch for that row, in the
    same batch as the six yaw starts, which take ordinary steps."""
    checked = Checked(monkeypatch)
    rows = []
    rotation_map = register._rotation_exp_rows

    def recording(W):
        rows.append([float(np.linalg.norm(w)) for w in W])
        return rotation_map(W)

    monkeypatch.setattr(register, "_rotation_exp_rows", recording)
    cloud = lshape_cloud(200, seed=11)
    res = checked.register(cloud, cloud, seed=4)
    batch = checked.batches[-1]
    assert len(batch) == 1 + register.N_AUGMENT
    assert len(rows[0]) == len(batch) and rows[0][0] == 0.0
    assert all(th > 1e-3 for th in rows[0][1:])
    assert (batch[0].exit, batch[0].iterations, batch[0].residual) == ("step_tol", 1, 0.0)
    assert_same_transform(batch[0].transform, RigidTransform.identity())
    assert max(r.iterations for r in batch) > 1
    assert res.winner_index == 0
    assert res.candidates[0].iterations == 1
    assert [c.iterations for c in res.candidates] == [r.iterations for r in batch]
