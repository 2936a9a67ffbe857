"""Pose estimation by classical point-cloud registration.

Point-to-plane ICP with correspondence rejection supplies the single-shot
estimate. Robustness to ambiguous geometry comes from the augmentation
trick: the source cloud is additionally registered from several yaw-rotated
starts, every candidate is scored with two metrics (flow distance, which
prefers candidates that impute the smallest motion to the object, and
Chamfer distance, which measures alignment quality), candidates are ranked
per metric, and the lowest weighted rank sum wins. The known augmentation
rotation is composed back so the returned transform always maps the
original source onto the target. A result is its candidates and the
winner's index: its transform and degraded flag are read from them. The
selection writes each candidate's two ranks, and a candidate's weighted rank
sum is read from them; the flow distance is `geom.mean_distance`, the mean
distance of corresponding points that the goal-flow metric reads too.

The target must carry normals, since point-to-plane ICP reads only the
target's; a full scan (`sensing.full_scan`) carries its analytic ones. All
starts of one registration run in lockstep against one target KD-tree, built
once and reused by the Chamfer scoring; `icp_register` is the same core with
one start. The starts' current and best transforms are stacked (k, 3, 3)
rotation and (k, 3) translation arrays; `RigidTransform`s are made only for
the results, from rows that no later iteration writes. Per start and
iteration only the residual and the `np.linalg.lstsq` solve remain;
everything else runs once per iteration for all starts. Both entry points
reject a cloud with a NaN or infinite point before any work, and then a
target of fewer than 10 points or without normals.

Exactness. Every result is bit-identical to running each start alone with
plain numpy, one call per start: a batched operation gives each start the
values of the call it replaces only where numpy computes each row, slice or
point on its own, with the same operands in the same order (stacked
matmuls run one gemm or gemv per slice, one KD-tree query finds each point's
neighbour on its own, masks over rows concatenate the per-start selections
in start order). The median of each start's distances is `np.partition` at
`np.median`'s own kth and then the mean of the middle column or columns:
order statistics are unique values, and the mean of one or two values is
their sum over the count, as `np.median` takes it; its NaN pass has nothing
to find, since both clouds are checked finite. Per start stay the
`np.linalg.lstsq` solve (LAPACK on that start's rows), the residual's
pairwise sum (a segmented sum adds in another order) and the `math.sin` and
`math.cos` of the Rodrigues map, as `geom.rotation_exp` takes them (numpy's
SIMD ufuncs may round otherwise). A hand-written dot or matrix product would
round differently from the BLAS call it replaced. A start leaves the batch
on exactly the exit rule and iteration at which it would have stopped alone.

`cKDTree.query` is the floor. On a 2-core x86 host, on
`registration_benchmark(140, seed=0)` (182 source and 400 target points, 4.3
live starts per iteration on average), an ICP start-iteration costs
about 210-260 us: the query 100-125 us, `lstsq` 35-40 us and everything else
75-90 us. Threading the query (`workers=2`) made it 2-3x slower there.
So parallelism runs across cases, not inside one registration: the
benchmark suites register their cases in one process per usable core
(`harness.map_shares`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geom import PointCloud, RigidTransform, compose, mean_distance, rot_z

CHAMFER_RANK_WEIGHT = 1.5  # preference weighting on the Chamfer ranking
REJECT_MEDIAN_FACTOR = 3.0
DIVERGE_PATIENCE = 5
ICP_MAX_ITER = 50
ICP_TOL = 1e-6  # translation + rotation step (m + rad) that counts as converged
N_AUGMENT = 6  # random yaw starts beside the unrotated source
# why an ICP start stopped: step under ICP_TOL, DIVERGE_PATIENCE iterations
# without a better residual, or ICP_MAX_ITER iterations run
EXITS = ("step_tol", "patience", "max_iter")


@dataclass
class IcpResult:
    transform: RigidTransform
    residual: float
    exit: str  # one of EXITS
    iterations: int

    @property
    def converged(self) -> bool:
        """False only when the residual stopped improving (the patience rule)."""
        return self.exit != "patience"


def flow_distance(source: PointCloud, t: RigidTransform) -> float:
    """Mean displacement the transform imputes to the source points."""
    if len(source) == 0:
        raise ValueError("empty cloud")
    return mean_distance(t.apply(source.points), source.points)


def chamfer_distance(a: PointCloud, b: PointCloud) -> float:
    """Symmetric mean nearest-neighbor distance (non-squared)."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty cloud")
    d_ab, _ = cKDTree(b.points).query(a.points)
    return _chamfer(d_ab, a.points, b.points)


def _chamfer(d_ab: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """The Chamfer distance of a and b, given each point of a's distance to b."""
    d_ba, _ = cKDTree(a).query(b)
    return 0.5 * (float(np.mean(d_ab)) + float(np.mean(d_ba)))


def _point_to_plane_system(src, dst, nrm):
    """Rows of the linearized point-to-plane problem: A x = b with
    A = [src x nrm | nrm] and b = -((src - dst) . nrm), one row per pair."""
    # the cross columns written as np.cross computes them
    (a0, a1, a2), (b0, b1, b2) = src.T, nrm.T
    A = np.empty((len(src), 6))
    A[:, 0] = a1 * b2 - a2 * b1
    A[:, 1] = a2 * b0 - a0 * b2
    A[:, 2] = a0 * b1 - a1 * b0
    A[:, 3:] = nrm
    return A, -np.einsum("ij,ij->i", src - dst, nrm)


def _row_norms(V: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of V: the square root of the row's dot
    with itself, the BLAS dot that norm takes."""
    return np.sqrt(np.matmul(V[:, None, :], V[:, :, None])).reshape(len(V))


def _rotation_exp_rows(W: np.ndarray) -> np.ndarray:
    """`geom.rotation_exp` of each row of W, bit for bit, as a (m, 3, 3) stack.

    A row with angle th >= 1e-12 gives I + sin(th) K + (1 - cos(th)) K K with
    K = skew(w / th). A smaller row keeps K = skew(w) and takes sin 1 and
    1 - cos 0, which leaves exactly I + skew(w), the small-angle branch."""
    th = _row_norms(W)
    small = th < 1e-12
    th[small] = 1.0
    k0, k1, k2 = (W / th[:, None]).T
    zero = np.zeros(len(W))
    K = np.array([zero, -k2, k1, k2, zero, -k0, -k1, k0, zero]).T.reshape(-1, 3, 3)
    # math.sin and math.cos, as rotation_exp takes them; numpy's rounds otherwise
    angles = th.tolist()
    sin = np.array([math.sin(a) for a in angles])
    one_minus_cos = np.array([1.0 - math.cos(a) for a in angles])
    sin[small], one_minus_cos[small] = 1.0, 0.0
    return np.eye(3) + sin[:, None, None] * K + one_minus_cos[:, None, None] * np.matmul(K, K)


def _row_medians(dist: np.ndarray) -> np.ndarray:
    """`np.median(dist, axis=1)` of a finite 2-D array, bit for bit: the
    partition at numpy's kth, then the mean of the middle column or columns,
    without numpy's NaN pass."""
    n = dist.shape[1]
    mid = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    return np.mean(np.partition(dist, mid, axis=1)[:, mid[0]:mid[-1] + 1], axis=1)


def _indexed_target(target: PointCloud) -> cKDTree:
    """The KD-tree of a target of at least 10 points that carries normals."""
    if len(target) < 10:
        raise ValueError("need at least 10 points per cloud")
    if target.normals is None:
        raise ValueError("target cloud has no normals (a full scan carries them)")
    return cKDTree(target.points)


def _check_finite(source: PointCloud, target: PointCloud) -> None:
    for name, cloud in (("source", source), ("target", target)):
        if not np.isfinite(cloud.points).all():
            raise ValueError(f"{name} cloud has non-finite points")


def _icp_lockstep(sources: list, target: PointCloud, tree: cKDTree) -> list:
    """Point-to-plane ICP of each source (equal-length point arrays) onto the
    indexed target, from the identity, all starts stepping together.

    Each iteration rejects correspondences beyond REJECT_MEDIAN_FACTOR times
    the median distance. With n >= 10 points, the floor(n/2) + 1 >= 6 points
    nearest their matches are always kept, enough for a step. A start whose
    residual has not improved for DIVERGE_PATIENCE straight iterations
    returns its best transform with converged=False. One IcpResult per
    source, in order.
    """
    stacked = np.stack(sources)
    k, n = stacked.shape[:2]
    if n < 10:
        raise ValueError("need at least 10 points per cloud")
    matches = np.hstack([target.points, target.normals])  # a match's point and normal
    # every start's current and best transform as stacked rotations and
    # translations; a start's rows are not written after it leaves the batch,
    # so its result's transform is a view of them
    rot, trans = np.tile(np.eye(3), (k, 1, 1)), np.zeros((k, 3))
    best_rot, best_trans = rot.copy(), trans.copy()
    best_res, streak = [math.inf] * k, [0] * k
    results = [None] * k

    def exit_with(s, rotations, translations, res, rule, it):
        results[s] = IcpResult(RigidTransform(rotations[s], translations[s]), res, rule, it)

    live = list(range(k))
    for it in range(1, ICP_MAX_ITER + 1):
        moved = np.matmul(stacked[live], rot[live].transpose(0, 2, 1)) + trans[live][:, None, :]
        dist, idx = tree.query(moved.reshape(-1, 3))
        dist, idx = dist.reshape(len(live), n), idx.reshape(len(live), n)
        med = _row_medians(dist)
        keep = dist <= np.maximum(REJECT_MEDIAN_FACTOR * med, 1e-9)[:, None]
        counts = np.count_nonzero(keep, axis=1)
        hit = np.take(matches, idx[keep], axis=0)
        A, b = _point_to_plane_system(moved[keep], hit[:, :3], hit[:, 3:])
        sq = b ** 2

        stepping, improved, residuals, steps, end = [], [], [], [], 0
        for s, count in zip(live, counts.tolist()):
            rows = slice(end, end + count)
            end += count
            res = math.sqrt(float(sq[rows].sum()) / count)
            if res < best_res[s] - 1e-12:
                best_res[s], streak[s] = res, 0
                improved.append(s)
            else:
                streak[s] += 1
                if streak[s] >= DIVERGE_PATIENCE:
                    exit_with(s, best_rot, best_trans, best_res[s], "patience", it)
                    continue
            x, *_ = np.linalg.lstsq(A[rows], b[rows], rcond=None)
            stepping.append(s)
            residuals.append(res)
            steps.append(x)
        best_rot[improved], best_trans[improved] = rot[improved], trans[improved]
        live = []
        if not stepping:
            break
        # the Gauss-Newton steps of all stepping starts: x = (rotation vector,
        # translation), applied after the current transform
        steps = np.array(steps)
        delta = _rotation_exp_rows(steps[:, :3])
        rot[stepping] = np.matmul(delta, rot[stepping])
        trans[stepping] = np.matmul(delta, trans[stepping][:, :, None])[:, :, 0] + steps[:, 3:]
        # step size: translation norm plus the rotation angle, as
        # RigidTransform.rotation_angle takes it
        cos = ((np.trace(delta, axis1=1, axis2=2) - 1.0) / 2.0).tolist()
        for s, res, t_norm, c in zip(stepping, residuals, _row_norms(steps[:, 3:]).tolist(), cos):
            if t_norm + math.acos(min(1.0, max(-1.0, c))) < ICP_TOL:
                exit_with(s, rot, trans, res, "step_tol", it)
            else:
                live.append(s)
        if not live:
            break
    for s in live:
        exit_with(s, best_rot, best_trans, best_res[s], "max_iter", ICP_MAX_ITER)
    return results


def icp_register(source: PointCloud, target: PointCloud) -> IcpResult:
    """Point-to-plane ICP from source to target, from the identity: the
    lockstep core with one start."""
    _check_finite(source, target)
    tree = _indexed_target(target)
    return _icp_lockstep([source.points], target, tree)[0]


@dataclass
class RegistrationCandidate:
    combined_transform: RigidTransform  # original source -> target
    flow_distance: float
    chamfer_distance: float
    exit: str  # why this start's ICP stopped, one of EXITS
    iterations: int = 0  # the ICP iterations this start ran
    rank_flow: int = 0
    rank_chamfer: int = 0

    @property
    def converged(self) -> bool:
        return self.exit != "patience"

    @property
    def weighted_rank_sum(self) -> float:
        return self.rank_flow + CHAMFER_RANK_WEIGHT * self.rank_chamfer


@dataclass
class RegistrationResult:
    candidates: list
    winner_index: int

    @property
    def transform(self) -> RigidTransform:  # the winner's: original source -> target
        return self.candidates[self.winner_index].combined_transform

    @property
    def degraded(self) -> bool:  # no candidate converged
        return not any(c.converged for c in self.candidates)


def _ranks(values) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=int)
    ranks[order] = np.arange(1, len(values) + 1)
    return ranks


def select_by_rank_sum(candidates: list) -> int:
    """Rank the candidates by flow and by Chamfer distance (rank 1 the
    lowest, ties in index order), write each candidate's two ranks, and
    return the index of the lowest weighted rank sum.

    Ties break toward lower Chamfer distance, then lower index."""
    rf = _ranks([c.flow_distance for c in candidates])
    rc = _ranks([c.chamfer_distance for c in candidates])
    for c, rank_flow, rank_chamfer in zip(candidates, rf.tolist(), rc.tolist()):
        c.rank_flow, c.rank_chamfer = rank_flow, rank_chamfer
    return min(range(len(candidates)), key=lambda i: (
        candidates[i].weighted_rank_sum, candidates[i].chamfer_distance, i))


def register_with_augmentation(source: PointCloud, target: PointCloud,
                               seed: int = 0) -> RegistrationResult:
    """Multi-start registration with flow/Chamfer rank-sum selection.

    Candidate 0 is the unrotated source; candidates 1..N_AUGMENT start from
    random yaw rotations of the source about its centroid. Ties break
    toward lower Chamfer distance, then lower candidate index.
    """
    _check_finite(source, target)
    rng = np.random.default_rng(seed)
    centroid = source.centroid
    rotations = [RigidTransform.identity()]
    for _ in range(N_AUGMENT):
        yaw = rng.uniform(0.0, 2.0 * math.pi)
        rotations.append(RigidTransform.rotation_about(rot_z(yaw), centroid))

    tree = _indexed_target(target)
    points = source.points
    starts = _icp_lockstep([R_aug.apply(points) for R_aug in rotations], target, tree)
    combined = [compose(est.transform, R_aug) for R_aug, est in zip(rotations, starts)]
    moved = np.stack([c.apply(points) for c in combined])
    # the source->target side of every candidate's Chamfer distance in one query
    d_ab, _ = tree.query(moved.reshape(-1, 3))
    d_ab = d_ab.reshape(len(combined), len(points))
    candidates = [
        RegistrationCandidate(c, mean_distance(m, points), _chamfer(d, m, target.points),
                              est.exit, est.iterations)
        for c, m, d, est in zip(combined, moved, d_ab, starts)]
    return RegistrationResult(candidates, select_by_rank_sum(candidates))
