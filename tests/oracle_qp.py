"""Independent QP oracle: exhaustive active-set enumeration.

Solves min 0.5 x'Hx + g'x  s.t.  C x <= hi,  D x = 0  by enumerating every
candidate active set of inequality rows, solving the equality-constrained
KKT system for each, and keeping the best feasible point with nonnegative
inequality multipliers. Exponential in the row count, so only usable for
the small random suites, which is the point: it shares no code path with
the solver under test.
"""
import itertools

import numpy as np


def enumerate_qp(H, g, C=None, hi=None, D=None, feas_tol=1e-9):
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    n = len(g)
    C = np.zeros((0, n)) if C is None else np.asarray(C, dtype=float)
    hi = np.zeros(0) if hi is None else np.asarray(hi, dtype=float)
    D = np.zeros((0, n)) if D is None else np.asarray(D, dtype=float)
    m, p = len(C), len(D)

    best_x = None
    best_obj = np.inf
    max_active = max(0, n - p)
    for size in range(0, min(m, max_active) + 1):
        for subset in itertools.combinations(range(m), size):
            S = list(subset)
            A = np.vstack([D, C[S]])
            k = len(A)
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = H
            kkt[:n, n:] = A.T
            kkt[n:, :n] = A
            rhs = np.concatenate([-g, np.zeros(p), hi[S]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            lam = sol[n + p:]
            if np.any(lam < -feas_tol):
                continue
            if m and np.any(C @ x > hi + feas_tol):
                continue
            obj = 0.5 * x @ H @ x + g @ x
            if obj < best_obj - 1e-12:
                best_obj = obj
                best_x = x
    return best_x, best_obj


def random_strictly_convex_qp(rng, n_max=8, m_max=12, with_equalities=False):
    """Feasible-by-construction random instance (one-sided inequalities)."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    A = rng.normal(size=(n, n))
    H = A @ A.T + n * np.eye(n) * 0.5
    g = rng.normal(size=n)
    C = rng.normal(size=(m, n))
    x_feas = rng.normal(size=n)
    hi = C @ x_feas + rng.uniform(0.0, 1.0, size=m)
    D = None
    if with_equalities and n >= 3:
        p = int(rng.integers(1, min(2, n - 1) + 1))
        D = rng.normal(size=(p, n))
        # shift the feasible point onto the equality manifold
        x0 = np.linalg.lstsq(D, np.zeros(p), rcond=None)[0]
        hi = hi + np.abs(C @ (x0 - x_feas)) + 0.5
    return H, g, C, hi, D
