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

Exactness. Faster code here keeps every result bit-identical to the plain
numpy formulation. Every reduction keeps its numpy call on the same operands:
`np.median`, `np.linalg.lstsq`, the KD-tree query, and each `@`, dot and
norm; a hand-written dot or matrix product rounds differently from the BLAS
call it would replace. Elementwise work may be rewritten, but only as the same
IEEE operations in the same order: the cross-product columns of the
point-to-plane system are the operations `np.cross` performs, and a box face
is sampled by column writes of the same products a per-point loop forms.
`cKDTree.query` is the floor: the largest call left in an ICP iteration
(about 120 of 400 us for 155 source and 400 target points on a 2-core x86
host), and threading it (`workers=2`) made it 2-3x slower there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geom import PointCloud, RigidTransform, apply_transform, compose, rotation_exp, rot_z
from .sensing import estimate_normals

CHAMFER_RANK_WEIGHT = 1.5  # preference weighting on the Chamfer ranking
REJECT_MEDIAN_FACTOR = 3.0
DIVERGE_PATIENCE = 5
ICP_MAX_ITER = 50
ICP_TOL = 1e-6  # translation + rotation step (m + rad) that counts as converged
N_AUGMENT = 6  # random yaw starts beside the unrotated source


@dataclass
class IcpResult:
    transform: RigidTransform
    residual: float
    converged: bool
    iterations: int


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
    tree_a = cKDTree(a.points)
    tree_b = cKDTree(b.points)
    d_ab, _ = tree_b.query(a.points)
    d_ba, _ = tree_a.query(b.points)
    return 0.5 * (float(np.mean(d_ab)) + float(np.mean(d_ba)))


def _solve_point_to_plane(src, dst, nrm):
    """One linearized Gauss-Newton step: minimize sum(((R p + t - q) . n)^2)."""
    # A = [src x nrm | nrm], the cross columns written as np.cross computes them
    (a0, a1, a2), (b0, b1, b2) = src.T, nrm.T
    A = np.empty((len(src), 6))
    A[:, 0] = a1 * b2 - a2 * b1
    A[:, 1] = a2 * b0 - a0 * b2
    A[:, 2] = a0 * b1 - a1 * b0
    A[:, 3:] = nrm
    b = -np.einsum("ij,ij->i", src - dst, nrm)
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    return RigidTransform(rotation_exp(x[:3]), x[3:])


def icp_register(source: PointCloud, target: PointCloud) -> IcpResult:
    """Point-to-plane ICP from source to target, from the identity.

    Correspondences beyond 3x the median distance are rejected each
    iteration. Divergence (residual increasing for 5 straight iterations)
    returns the best transform seen with converged=False.
    """
    if len(source) < 10 or len(target) < 10:
        raise ValueError("need at least 10 points per cloud")
    if target.normals is None:
        target = estimate_normals(target, k_neighbors=min(12, len(target)))
    T = RigidTransform.identity()
    tree = cKDTree(target.points)

    best_T, best_res = T, math.inf
    worse_streak = 0
    it = 0
    for it in range(1, ICP_MAX_ITER + 1):
        moved = T.apply(source.points)
        dist, idx = tree.query(moved)
        med = float(np.median(dist))
        keep = dist <= max(REJECT_MEDIAN_FACTOR * med, 1e-9)
        if np.sum(keep) < 6:
            break
        dst = target.points[idx[keep]]
        nrm = target.normals[idx[keep]]
        res = float(np.sqrt(np.mean(np.einsum("ij,ij->i", moved[keep] - dst, nrm) ** 2)))
        if res < best_res - 1e-12:
            best_res, best_T = res, T
            worse_streak = 0
        else:
            worse_streak += 1
            if worse_streak >= DIVERGE_PATIENCE:
                return IcpResult(best_T, best_res, False, it)
        delta = _solve_point_to_plane(moved[keep], dst, nrm)
        T = compose(delta, T)
        step = float(np.linalg.norm(delta.translation)) + delta.rotation_angle()
        if step < ICP_TOL:
            best_res, best_T = res, T
            return IcpResult(T, res, True, it)
    return IcpResult(best_T, best_res, True, it)


@dataclass
class RegistrationCandidate:
    combined_transform: RigidTransform  # original source -> target
    flow_distance: float
    chamfer_distance: float
    converged: bool
    rank_flow: int = 0
    rank_chamfer: int = 0
    weighted_rank_sum: float = 0.0


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

    candidates = []
    for R_aug in rotations:
        rotated = apply_transform(R_aug, source)
        est = icp_register(rotated, target)
        combined = compose(est.transform, R_aug)
        flow = flow_distance(source, combined)
        cham = chamfer_distance(apply_transform(combined, source), target)
        candidates.append(RegistrationCandidate(combined, flow, cham, est.converged))

    flows = [c.flow_distance for c in candidates]
    chams = [c.chamfer_distance for c in candidates]
    win, rf, rc, sums = select_by_rank_sum(flows, chams)
    for i, c in enumerate(candidates):
        c.rank_flow = int(rf[i])
        c.rank_chamfer = int(rc[i])
        c.weighted_rank_sum = float(sums[i])
    degraded = not any(c.converged for c in candidates)
    return RegistrationResult(candidates[win].combined_transform, candidates, win, degraded)

