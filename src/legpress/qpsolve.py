"""Dense strictly-convex QP solver (operator splitting) for the force controller.

Solves
    min  0.5 x'Hx + g'x
    s.t. c_lo <= C x <= c_hi
         D x = 0

Equalities are folded into two-sided rows with lo = hi. The iteration is the
standard over-relaxed splitting with a per-row penalty (large on equality
rows) and one dense factorization per problem. Once the iterates are close,
the active set is polished with an exact KKT solve, which is what makes
tight tolerances reachable in few iterations. Warm starts reuse the previous
primal/dual vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

RIDGE = 1e-8
_SIGMA = 1e-6
_ALPHA = 1.6  # over-relaxation
_RHO_INEQ = 0.1
_RHO_EQ_SCALE = 1e3
_CHECK_EVERY = 25
_POLISH_GATE = 5e-2  # try polishing once the raw iterate is this close
_ACTIVE_DUAL = 1e-7
_ACTIVE_PRIMAL = 1e-6
_CERT_EPS = 1e-9


@dataclass
class QpProblem:
    hessian: np.ndarray
    gradient: np.ndarray
    C: np.ndarray | None = None
    c_lo: np.ndarray | None = None
    c_hi: np.ndarray | None = None
    D: np.ndarray | None = None

    def __post_init__(self):
        self.hessian = np.asarray(self.hessian, dtype=float)
        self.gradient = np.asarray(self.gradient, dtype=float).reshape(-1)
        n = self.n
        if self.hessian.shape != (n, n):
            raise ValueError("hessian/gradient dimension mismatch")
        if np.max(np.abs(self.hessian - self.hessian.T)) > 1e-9:
            raise ValueError("hessian must be symmetric")
        if self.C is None:
            self.C = np.zeros((0, n))
            self.c_lo = np.zeros(0)
            self.c_hi = np.zeros(0)
        else:
            self.C = np.asarray(self.C, dtype=float).reshape(-1, n)
            self.c_lo = np.asarray(self.c_lo, dtype=float).reshape(-1)
            self.c_hi = np.asarray(self.c_hi, dtype=float).reshape(-1)
            if len(self.c_lo) != len(self.C) or len(self.c_hi) != len(self.C):
                raise ValueError("inequality bound dimension mismatch")
            if np.any(self.c_lo > self.c_hi):
                raise ValueError("c_lo must be <= c_hi elementwise")
        if self.D is None:
            self.D = np.zeros((0, n))
        else:
            self.D = np.asarray(self.D, dtype=float).reshape(-1, n)

    @property
    def n(self) -> int:
        return len(self.gradient)

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All constraints as (A, lo, hi) with equality rows pinned at zero."""
        p = len(self.D)
        A = np.vstack([self.C, self.D])
        lo = np.concatenate([self.c_lo, np.zeros(p)])
        hi = np.concatenate([self.c_hi, np.zeros(p)])
        return A, lo, hi

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.hessian @ x + self.gradient @ x)


@dataclass
class QpSolution:
    primal: np.ndarray
    dual: np.ndarray  # one signed multiplier per stacked row (C rows then D rows)
    status: str  # optimal | max_iter | infeasible
    kkt_residual: float
    iterations: int = 0


def kkt_residual(p: QpProblem, s: QpSolution) -> float:
    """Max of stationarity, primal-feasibility and complementarity norms."""
    A, lo, hi = p.stacked()
    x = np.asarray(s.primal, dtype=float)
    y = np.asarray(s.dual, dtype=float)
    stat = p.hessian @ x + p.gradient
    if len(A):
        stat = stat + A.T @ y
    r_stat = float(np.max(np.abs(stat))) if len(stat) else 0.0
    if len(A) == 0:
        return r_stat
    Ax = A @ x
    r_prim = float(np.max(np.maximum(np.maximum(lo - Ax, Ax - hi), 0.0)))
    comp = np.zeros(len(A))
    pos, neg = y > 0.0, y < 0.0
    fin_hi, fin_lo = np.isfinite(hi), np.isfinite(lo)
    m = pos & fin_hi
    comp[m] = y[m] * np.abs(hi[m] - Ax[m])
    m = pos & ~fin_hi  # positive multiplier on a row with no upper bound
    comp[m] = y[m]
    m = neg & fin_lo
    comp[m] = -y[m] * np.abs(Ax[m] - lo[m])
    m = neg & ~fin_lo
    comp[m] = -y[m]
    return max(r_stat, r_prim, float(np.max(comp)))


def _primal_infeasibility_certificate(A, lo, hi, dy) -> bool:
    nrm = float(np.max(np.abs(dy)))
    if nrm < 1e-12:
        return False
    d = dy / nrm
    if float(np.max(np.abs(A.T @ d))) > _CERT_EPS * 10:
        return False
    pos = np.maximum(d, 0.0)
    neg = np.minimum(d, 0.0)
    if np.any(pos[~np.isfinite(hi)] > _CERT_EPS):
        return False
    if np.any(-neg[~np.isfinite(lo)] > _CERT_EPS):
        return False
    val = float(np.sum(hi[np.isfinite(hi)] * pos[np.isfinite(hi)])
                + np.sum(lo[np.isfinite(lo)] * neg[np.isfinite(lo)]))
    return val < -_CERT_EPS


def _solve_active_kkt(p: QpProblem, A, rows, b):
    n, k = p.n, len(rows)
    Aa = A[rows]
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


def _polish(p: QpProblem, A, lo, hi, x, y) -> QpSolution | None:
    """Active-set refinement seeded by the splitting iterate.

    Solves the equality-constrained KKT system for the guessed active set,
    then drops wrong-sign rows and adds violated ones for a few rounds.
    Returns None when it fails to verify, in which case the caller keeps
    iterating."""
    Ax = A @ x
    eq = (hi - lo) < 1e-12
    act_up = ~eq & ((y > _ACTIVE_DUAL) | (np.isfinite(hi) & (hi - Ax < _ACTIVE_PRIMAL)))
    act_lo = ~eq & ~act_up & ((y < -_ACTIVE_DUAL) | (np.isfinite(lo) & (Ax - lo < _ACTIVE_PRIMAL)))
    for _ in range(15):
        rows = np.flatnonzero(eq | act_up | act_lo)
        b = np.where(act_up[rows], hi[rows], lo[rows])
        b[eq[rows]] = hi[rows][eq[rows]]
        try:
            xp, lam = _solve_active_kkt(p, A, rows, b)
        except (scipy.linalg.LinAlgError, ValueError):
            return None
        yp = np.zeros(len(A))
        yp[rows] = lam
        drop_up = act_up & (yp < -1e-9)
        drop_lo = act_lo & (yp > 1e-9)
        Axp = A @ xp
        viol_up = ~eq & ~act_up & np.isfinite(hi) & (Axp - hi > 1e-9)
        viol_lo = ~eq & ~act_lo & np.isfinite(lo) & (lo - Axp > 1e-9)
        if not (np.any(drop_up) or np.any(drop_lo) or np.any(viol_up) or np.any(viol_lo)):
            if float(np.max(np.maximum(np.maximum(lo - Axp, Axp - hi), 0.0))) > 1e-8:
                return None
            return QpSolution(xp, yp, "optimal", 0.0)
        act_up = (act_up & ~drop_up) | viol_up
        act_lo = ((act_lo & ~drop_lo) | viol_lo) & ~act_up
    return None


class QpSolver:
    """Reusable solver; owns its workspace, one instance per control loop."""

    def __init__(self):
        self._warm_x: np.ndarray | None = None
        self._warm_y: np.ndarray | None = None

    def reset(self) -> None:
        self._warm_x = None
        self._warm_y = None

    def solve(self, p: QpProblem, tol: float = 1e-6, max_iter: int = 4000,
              warm_start: bool = True) -> QpSolution:
        A, lo, hi = p.stacked()
        n, m = p.n, len(A)
        H = p.hessian + RIDGE * np.eye(n)

        if m == 0:
            x = np.linalg.solve(H, -p.gradient)
            x = x + np.linalg.solve(H, -p.gradient - p.hessian @ x)
            sol = QpSolution(x, np.zeros(0), "optimal", 0.0)
            sol.kkt_residual = kkt_residual(p, sol)
            self._warm_x, self._warm_y = x.copy(), np.zeros(0)
            return sol

        rho_base = _RHO_INEQ
        eq_rows = hi - lo < 1e-12

        def factorize(base):
            rho = np.full(m, base)
            rho[eq_rows] *= _RHO_EQ_SCALE
            kkt = np.zeros((n + m, n + m))
            kkt[:n, :n] = H + _SIGMA * np.eye(n)
            kkt[:n, n:] = A.T
            kkt[n:, :n] = A
            kkt[n:, n:] = -np.diag(1.0 / rho)
            return rho, 1.0 / rho, scipy.linalg.lu_factor(kkt)

        if warm_start and self._warm_x is not None and len(self._warm_x) == n and len(self._warm_y) == m:
            x = self._warm_x.copy()
            y = self._warm_y.copy()
            # consecutive control-rate problems barely move the active set:
            # a direct polish from the previous solution usually lands, and
            # skips the dense splitting factorization entirely
            polished = _polish(p, A, lo, hi, x, y)
            if polished is not None:
                res = kkt_residual(p, polished)
                if res < tol:
                    polished.kkt_residual = res
                    self._warm_x = np.array(polished.primal)
                    self._warm_y = np.array(polished.dual)
                    return polished
        else:
            x = np.zeros(n)
            y = np.zeros(m)

        rho, rho_inv, (lu, piv) = factorize(rho_base)
        z = np.clip(A @ x, lo, hi)
        y_mark = y.copy()

        rhs = np.empty(n + m)
        best: QpSolution | None = None
        status = "max_iter"
        it = 0
        next_polish = _CHECK_EVERY  # polish is a dense solve; back off geometrically
        for it in range(1, max_iter + 1):
            rhs[:n] = _SIGMA * x - p.gradient
            rhs[n:] = z - rho_inv * y
            xz = scipy.linalg.lu_solve((lu, piv), rhs)
            x_t = xz[:n]
            z_t = z + rho_inv * (xz[n:] - y)
            x = _ALPHA * x_t + (1.0 - _ALPHA) * x
            z_relax = _ALPHA * z_t + (1.0 - _ALPHA) * z
            z = np.clip(z_relax + rho_inv * y, lo, hi)
            y = y + rho * (z_relax - z)

            if it % _CHECK_EVERY == 0 or it == max_iter:
                raw = QpSolution(x, y, "optimal", 0.0, it)
                res = kkt_residual(p, raw)
                if res < tol:
                    best, status = raw, "optimal"
                    break
                if res < _POLISH_GATE and it >= next_polish:
                    next_polish = it * 2
                    polished = _polish(p, A, lo, hi, x, y)
                    if polished is not None:
                        pres = kkt_residual(p, polished)
                        if pres < tol:
                            polished.iterations = it
                            polished.kkt_residual = pres
                            best, status = polished, "optimal"
                            break
                if _primal_infeasibility_certificate(A, lo, hi, y - y_mark):
                    status = "infeasible"
                    break
                y_mark = y.copy()
                # rebalance the penalty when primal/dual progress is lopsided
                r_p = float(np.max(np.abs(A @ x - z))) + 1e-16
                r_d = float(np.max(np.abs(p.hessian @ x + p.gradient + A.T @ y))) + 1e-16
                factor = float(np.sqrt(r_p / r_d))
                if factor > 5.0 or factor < 0.2:
                    rho_base = min(max(rho_base * factor, 1e-6), 1e6)
                    rho, rho_inv, (lu, piv) = factorize(rho_base)

        if best is None:
            best = QpSolution(x, y, status, 0.0, it)
            best.kkt_residual = kkt_residual(p, best)
        else:
            best.status = status
            best.iterations = it
            if best.kkt_residual == 0.0:
                best.kkt_residual = kkt_residual(p, best)
        if status != "infeasible":
            self._warm_x, self._warm_y = np.array(best.primal), np.array(best.dual)
        return best


def solve(p: QpProblem, tol: float = 1e-6, max_iter: int = 4000) -> QpSolution:
    """One-shot solve with a fresh workspace."""
    return QpSolver().solve(p, tol=tol, max_iter=max_iter, warm_start=False)
