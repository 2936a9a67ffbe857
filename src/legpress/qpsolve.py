"""Dense strictly-convex QP solver for the force controller.

Solves
    min  0.5 x'Hx + g'x
    s.t. lo <= C x <= hi
where H must be positive definite and C may have no rows. A row with
lo == hi is an equality and takes the path of every other row: it is added
on the side it violates.

The method is the dual active-set method of Goldfarb and Idnani (Math.
Programming 27, 1983). It starts at the unconstrained minimum -H⁻¹g, which
satisfies every dual condition, then repeatedly adds the most violated side
of an inactive row. A full step makes that row active; a partial step stops
where an active row's multiplier reaches zero and drops that row, then the
same row is tried again. The multipliers stay of the right sign throughout,
so the first primal-feasible point is the optimum. A new row that depends on
the active rows while no active row can be dropped proves the problem
infeasible; a row that already holds is never added, so a repeated or
dependent row that agrees with the active ones costs nothing. H⁻¹a of an
active row never changes, so it is stored with the row. The force MPC's rows
almost never bind, so most solves make no active-set change, and no warm
start or tuning is needed.

A non-empty active set found is solved once more as an exact KKT system
with iterative refinement; with an empty one the result is the unconstrained
minimum -H⁻¹g from the Cholesky factor, with zero multipliers. Either way
the result is "optimal" only when its KKT residual is at most KKT_TOL. Each
term of the residual is relative to its own size (see kkt_residual): the
rounding of a correct solve grows with the gradient and the multipliers,
but a row off its bound must not pass because some other multiplier is
large.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

KKT_TOL = 1e-8
MAX_CHANGES = 1000  # active-set changes before giving up with "max_iter"
RIDGE = 1e-8


@dataclass
class QpProblem:
    hessian: np.ndarray
    gradient: np.ndarray
    C: np.ndarray
    c_lo: np.ndarray
    c_hi: np.ndarray

    def __post_init__(self):
        self.hessian = np.asarray(self.hessian, dtype=float)
        self.gradient = np.asarray(self.gradient, dtype=float).reshape(-1)
        n = self.n
        if self.hessian.shape != (n, n):
            raise ValueError("hessian/gradient dimension mismatch")
        if np.max(np.abs(self.hessian - self.hessian.T)) > 1e-9:
            raise ValueError("hessian must be symmetric")
        self.C = np.asarray(self.C, dtype=float).reshape(-1, n)
        self.c_lo = np.asarray(self.c_lo, dtype=float).reshape(-1)
        self.c_hi = np.asarray(self.c_hi, dtype=float).reshape(-1)
        if len(self.c_lo) != len(self.C) or len(self.c_hi) != len(self.C):
            raise ValueError("inequality bound dimension mismatch")
        if np.any(self.c_lo > self.c_hi):
            raise ValueError("c_lo must be <= c_hi elementwise")

    @property
    def n(self) -> int:
        return len(self.gradient)


@dataclass
class QpSolution:
    primal: np.ndarray
    dual: np.ndarray  # one signed multiplier per row of C: > 0 at hi, < 0 at lo
    status: str  # optimal | inaccurate | infeasible | max_iter
    kkt_residual: float
    iterations: int = 0  # active-set changes


def _amax(v: np.ndarray) -> float:
    return float(np.max(np.abs(v), initial=0.0))


def kkt_residual(p: QpProblem, s: QpSolution) -> float:
    """Max of three KKT norms, each relative to its own size: stationarity
    |Hx + g + C'y| over max(1, |g|, |C'y|); primal feasibility, absolute;
    and per row, complementarity |y_i| gap_i over max(1, |y_i|) max(1,
    |(Cx)_i|), where gap_i is the distance of (Cx)_i from the bound that y_i
    pushes against."""
    C, lo, hi = p.C, p.c_lo, p.c_hi
    x, y = np.asarray(s.primal, dtype=float), np.asarray(s.dual, dtype=float)
    Cx, Cy = C @ x, C.T @ y
    stat = _amax(p.hessian @ x + p.gradient + Cy) / max(1.0, _amax(p.gradient), _amax(Cy))
    # a multiplier on a side with no bound counts in full
    gap_hi = np.where(np.isfinite(hi), np.abs(hi - Cx), 1.0)
    gap_lo = np.where(np.isfinite(lo), np.abs(Cx - lo), 1.0)
    comp = np.maximum(y, 0.0) * gap_hi + np.maximum(-y, 0.0) * gap_lo
    comp = comp / (np.maximum(1.0, np.abs(y)) * np.maximum(1.0, np.abs(Cx)))
    return float(max(stat, np.max(np.maximum(lo - Cx, Cx - hi), initial=0.0),
                     np.max(comp, initial=0.0)))


def _solve_active_kkt(p: QpProblem, rows, b):
    n, k = p.n, len(rows)
    Aa = p.C[rows]
    kkt0 = np.zeros((n + k, n + k))
    kkt0[:n, :n] = p.hessian
    kkt0[:n, n:] = Aa.T
    kkt0[n:, :n] = Aa
    kkt = kkt0.copy()
    kkt[:n, :n] += RIDGE * np.eye(n)
    kkt[n:, n:] = -1e-12 * np.eye(k)
    rhs = np.concatenate([-p.gradient, b])
    lu, piv = scipy.linalg.lu_factor(kkt)
    sol = scipy.linalg.lu_solve((lu, piv), rhs)
    # refine against the unregularized system so the ridge does not floor
    # the stationarity residual
    for _ in range(2):
        resid = rhs - kkt0 @ sol
        sol = sol + scipy.linalg.lu_solve((lu, piv), resid)
    return sol[:n], sol[n:]


class QpSolver:
    """The force controller's QP solver."""

    def solve(self, p: QpProblem) -> QpSolution:
        try:
            factor = scipy.linalg.cho_factor(p.hessian)
        except np.linalg.LinAlgError as exc:
            raise ValueError("hessian must be positive definite") from exc
        C, lo, hi, n = p.C, p.c_lo, p.c_hi, p.n
        x = x0 = scipy.linalg.cho_solve(factor, -p.gradient)
        # active rows as N x <= beta (each row of C signed toward its bound),
        # with multipliers u >= 0, W = H⁻¹N' and M = N H⁻¹N'
        rows, bounds = [], []
        N, W, M, u = np.zeros((0, n)), np.zeros((n, 0)), np.zeros((0, 0)), np.zeros(0)
        status, changes = "optimal", 0
        while status == "optimal":
            Cx = C @ x
            viol = np.maximum(Cx - hi, lo - Cx)
            viol[rows] = -np.inf
            if not len(viol) or viol.max() <= 1e-2 * KKT_TOL:
                break
            r = int(np.argmax(viol))
            side = 1.0 if Cx[r] >= hi[r] else -1.0
            bound = hi[r] if side > 0 else lo[r]
            a = side * C[r]
            w = scipy.linalg.cho_solve(factor, a)
            u_r = 0.0
            while True:  # steps until row r is active
                if changes == MAX_CHANGES:
                    status = "max_iter"
                    break
                Nw = N @ w
                dual_dir = np.linalg.solve(M, Nw)
                z = w - W @ dual_dir
                curvature = float(a @ z)
                v = float(a @ x) - side * bound
                dependent = len(rows) == n or curvature <= 1e-12 * float(a @ w)
                t_full = np.inf if dependent else v / curvature
                ratio = np.full(len(rows), np.inf)
                free = dual_dir > 0.0
                ratio[free] = u[free] / dual_dir[free]
                t_part = ratio.min(initial=np.inf)
                if min(t_full, t_part) == np.inf:  # dependent, and nothing to drop
                    status = "infeasible"
                    break
                t = min(t_full, t_part)
                x = x - t * z
                u = u - t * dual_dir
                u_r += t
                changes += 1
                if t_full <= t_part:
                    k = len(rows)
                    rows.append(r)
                    bounds.append(bound)
                    N, W, u = np.vstack([N, a]), np.column_stack([W, w]), np.append(u, u_r)
                    M = np.pad(M, (0, 1))
                    M[k, :k] = M[:k, k] = Nw
                    M[k, k] = a @ w
                    break
                drop = int(np.argmin(ratio))
                del rows[drop], bounds[drop]
                keep = np.arange(len(u)) != drop
                N, W, M, u = N[keep], W[:, keep], M[np.ix_(keep, keep)], u[keep]
        y = np.zeros(len(C))
        if rows:
            x, y[rows] = _solve_active_kkt(p, rows, np.array(bounds))
        else:  # the unconstrained minimum, from the factor already held
            x = x0
        sol = QpSolution(x, y, status, 0.0, changes)
        sol.kkt_residual = kkt_residual(p, sol)
        if status == "optimal" and sol.kkt_residual > KKT_TOL:
            sol.status = "inaccurate"
        return sol
