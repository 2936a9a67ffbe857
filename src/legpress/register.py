"""Pose estimation by classical point-cloud registration.

Point-to-plane ICP with correspondence rejection supplies the single-shot
estimate. Robustness to ambiguous geometry comes from the augmentation
trick: the source cloud is additionally registered from several yaw-rotated
starts, every candidate is scored with two metrics (flow distance, which
prefers candidates that impute the smallest motion to the object, and
Chamfer distance, which measures alignment quality), candidates are ranked
per metric, and the lowest weighted rank sum wins. The known augmentation
rotation is composed back so the returned transform always maps the
original source onto the target.

All starts of one registration run in lockstep against one target KD-tree,
built once together with the target's normals and reused by the Chamfer
scoring; `icp_register` is the same core with one start.

Exactness. Every result is bit-identical to running each start alone with
plain numpy, one call per start. The calls made once per iteration for all
live starts, and why each gives every start the bits of its own call:
- the stacked `np.matmul` of the sources with the transposed rotations
  replaces one `p @ R.T` per start: numpy runs one gemm per slice, with the
  same operands and transpose flags;
- one `cKDTree.query` over the stacked moved points replaces one query per
  start: each point's nearest neighbour is found on its own;
- `np.median(axis=1)` replaces one `np.median` per start: the same partition
  picks the same middle values, which are averaged in the same order;
- the reject threshold and mask, and the boolean gathers of the kept points,
  their matches and the matches' normals, replace the per-start forms: a mask
  over rows concatenates the per-start selections in start order;
- the residual `einsum` and the point-to-plane columns (the operations
  `np.cross` performs) are computed per kept row, so stacking rows does not
  change them;
- each candidate's Chamfer distance queries the shared target tree, built
  from the same points as the tree it replaces.
What stays per start is what reduces over a start's rows or its transform:
the residual mean (a segmented sum such as `np.add.reduceat` adds in another
order than the pairwise sum of `np.mean`), the `np.linalg.lstsq` solve,
`rotation_exp`, `compose` and the step norm. A
hand-written dot or matrix product would round differently from the BLAS
call it replaced. A start leaves the batch on exactly the exit rule and
iteration at which it would have stopped alone.
`cKDTree.query` is the floor. On a 2-core x86 host, with 186 source and 400
target points on average, an ICP start-iteration costs about 350 us in
lockstep against 390-440 us alone, and the query is about 150 us of it; the
per-start Gauss-Newton step (`lstsq`, `rotation_exp`) is next at about 80 us. Threading the query (`workers=2`)
made it 2-3x slower there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geom import PointCloud, RigidTransform, compose, rotation_exp, rot_z
from .sensing import estimate_normals

CHAMFER_RANK_WEIGHT = 1.5  # preference weighting on the Chamfer ranking
REJECT_MEDIAN_FACTOR = 3.0
DIVERGE_PATIENCE = 5
ICP_MAX_ITER = 50
ICP_TOL = 1e-6  # translation + rotation step (m + rad) that counts as converged
N_AUGMENT = 6  # random yaw starts beside the unrotated source
MIN_KEPT = 6  # fewest kept correspondences that still give a step
# why an ICP start stopped: step under ICP_TOL, DIVERGE_PATIENCE iterations
# without a better residual, fewer than MIN_KEPT correspondences kept, or
# ICP_MAX_ITER iterations run
EXITS = ("step_tol", "patience", "few_points", "max_iter")


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
    moved = t.apply(source.points)
    return float(np.mean(np.linalg.norm(moved - source.points, axis=1)))


def chamfer_distance(a: PointCloud, b: PointCloud) -> float:
    """Symmetric mean nearest-neighbor distance (non-squared)."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty cloud")
    return _chamfer(a.points, b.points, cKDTree(b.points))


def _chamfer(a: np.ndarray, b: np.ndarray, tree_b: cKDTree) -> float:
    d_ab, _ = tree_b.query(a)
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


def _gauss_newton_step(A, b) -> RigidTransform:
    """The step minimizing sum(((R p + t - q) . n)^2) to first order."""
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    return RigidTransform(rotation_exp(x[:3]), x[3:])


def _indexed_target(target: PointCloud):
    """The target with normals (estimated if it has none) and its KD-tree."""
    if len(target) < 10:
        raise ValueError("need at least 10 points per cloud")
    if target.normals is None:
        target = estimate_normals(target)
    return target, cKDTree(target.points)


def _icp_lockstep(sources: list, target: PointCloud, tree: cKDTree) -> list:
    """Point-to-plane ICP of each source (equal-length point arrays) onto the
    indexed target, from the identity, all starts stepping together.

    Each iteration rejects correspondences beyond REJECT_MEDIAN_FACTOR times
    the median distance. A start whose residual has not improved for
    DIVERGE_PATIENCE straight iterations returns its best transform with
    converged=False. One IcpResult per source, in order.
    """
    stacked = np.stack(sources)
    k, n = stacked.shape[:2]
    if n < 10:
        raise ValueError("need at least 10 points per cloud")
    T = [RigidTransform.identity()] * k
    best_T, best_res, streak = list(T), [math.inf] * k, [0] * k
    results = [None] * k
    live = list(range(k))
    for it in range(1, ICP_MAX_ITER + 1):
        rot_t = np.stack([T[s].rotation for s in live]).transpose(0, 2, 1)
        trans = np.stack([T[s].translation for s in live])
        moved = np.matmul(stacked[live], rot_t) + trans[:, None, :]
        dist, idx = tree.query(moved.reshape(-1, 3))
        dist, idx = dist.reshape(len(live), n), idx.reshape(len(live), n)
        med = np.median(dist, axis=1)
        keep = dist <= np.maximum(REJECT_MEDIAN_FACTOR * med, 1e-9)[:, None]
        counts = np.count_nonzero(keep, axis=1)
        keep[counts < MIN_KEPT] = False
        hit = idx[keep]
        A, b = _point_to_plane_system(moved[keep], target.points[hit], target.normals[hit])
        sq = b ** 2

        stepping, end = [], 0
        for s, count in zip(live, counts.tolist()):
            if count < MIN_KEPT:
                results[s] = IcpResult(best_T[s], best_res[s], "few_points", it)
                continue
            rows = slice(end, end + count)
            end += count
            res = float(np.sqrt(np.mean(sq[rows])))
            if res < best_res[s] - 1e-12:
                best_res[s], best_T[s], streak[s] = res, T[s], 0
            else:
                streak[s] += 1
                if streak[s] >= DIVERGE_PATIENCE:
                    results[s] = IcpResult(best_T[s], best_res[s], "patience", it)
                    continue
            delta = _gauss_newton_step(A[rows], b[rows])
            T[s] = compose(delta, T[s])
            if float(np.linalg.norm(delta.translation)) + delta.rotation_angle() < ICP_TOL:
                results[s] = IcpResult(T[s], res, "step_tol", it)
                continue
            stepping.append(s)
        live = stepping
        if not live:
            break
    for s in live:
        results[s] = IcpResult(best_T[s], best_res[s], "max_iter", ICP_MAX_ITER)
    return results


def icp_register(source: PointCloud, target: PointCloud) -> IcpResult:
    """Point-to-plane ICP from source to target, from the identity: the
    lockstep core with one start."""
    target, tree = _indexed_target(target)
    return _icp_lockstep([source.points], target, tree)[0]


@dataclass
class RegistrationCandidate:
    combined_transform: RigidTransform  # original source -> target
    flow_distance: float
    chamfer_distance: float
    exit: str  # why this start's ICP stopped, one of EXITS
    rank_flow: int = 0
    rank_chamfer: int = 0
    weighted_rank_sum: float = 0.0

    @property
    def converged(self) -> bool:
        return self.exit != "patience"


@dataclass
class RegistrationResult:
    transform: RigidTransform
    candidates: list
    winner_index: int
    degraded: bool  # no candidate converged


def _ranks(values) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=int)
    ranks[order] = np.arange(1, len(values) + 1)
    return ranks


def select_by_rank_sum(flows, chamfers, chamfer_weight: float = CHAMFER_RANK_WEIGHT):
    """Winner index + per-candidate (rank_flow, rank_chamfer, weighted sum).

    Ties break toward lower Chamfer distance, then lower index."""
    flows = np.asarray(flows, dtype=float)
    chamfers = np.asarray(chamfers, dtype=float)
    rf = _ranks(flows)
    rc = _ranks(chamfers)
    sums = rf + chamfer_weight * rc
    order = sorted(range(len(flows)), key=lambda i: (sums[i], chamfers[i], i))
    return order[0], rf, rc, sums


def register_with_augmentation(source: PointCloud, target: PointCloud,
                               seed: int = 0) -> RegistrationResult:
    """Multi-start registration with flow/Chamfer rank-sum selection.

    Candidate 0 is the unrotated source; candidates 1..N_AUGMENT start from
    random yaw rotations of the source about its centroid. Ties break
    toward lower Chamfer distance, then lower candidate index.
    """
    rng = np.random.default_rng(seed)
    centroid = source.centroid
    rotations = [RigidTransform.identity()]
    for _ in range(N_AUGMENT):
        yaw = rng.uniform(0.0, 2.0 * math.pi)
        rotations.append(RigidTransform.rotation_about(rot_z(yaw), centroid))

    target, tree = _indexed_target(target)
    starts = _icp_lockstep([R_aug.apply(source.points) for R_aug in rotations], target, tree)
    candidates = []
    for R_aug, est in zip(rotations, starts):
        combined = compose(est.transform, R_aug)
        flow = flow_distance(source, combined)
        cham = _chamfer(combined.apply(source.points), target.points, tree)
        candidates.append(RegistrationCandidate(combined, flow, cham, est.exit))

    flows = [c.flow_distance for c in candidates]
    chams = [c.chamfer_distance for c in candidates]
    win, rf, rc, sums = select_by_rank_sum(flows, chams)
    for i, c in enumerate(candidates):
        c.rank_flow = int(rf[i])
        c.rank_chamfer = int(rc[i])
        c.weighted_rank_sum = float(sums[i])
    degraded = not any(c.converged for c in candidates)
    return RegistrationResult(candidates[win].combined_transform, candidates, win, degraded)
