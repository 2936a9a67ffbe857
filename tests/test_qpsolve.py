import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linprog

from legpress import qpsolve
from legpress.config import StackConfig
from legpress.mpc import ForceMpc, GaitSchedule
from legpress.qpsolve import QpProblem, QpSolution, QpSolver, kkt_residual
from legpress.simworld import SrbState

from oracle_qp import enumerate_qp, random_strictly_convex_qp


def solve(p: QpProblem) -> QpSolution:
    return QpSolver().solve(p)


def objective(p: QpProblem, x: np.ndarray) -> float:
    return float(0.5 * x @ p.hessian @ x + p.gradient @ x)


def _unconstrained(H, g) -> QpProblem:
    """The problem with no rows: C has none."""
    return QpProblem(H, g, C=np.zeros((0, len(g))), c_lo=np.zeros(0), c_hi=np.zeros(0))


def _problem(H, g, C, hi, D=None) -> QpProblem:
    """One-sided rows C x <= hi, plus D x = 0 as rows with lo == hi."""
    lo = np.full(len(hi), -np.inf)
    if D is not None:
        C = np.vstack([C, D])
        lo = np.concatenate([lo, np.zeros(len(D))])
        hi = np.concatenate([hi, np.zeros(len(D))])
    return QpProblem(H, g, C=C, c_lo=lo, c_hi=hi)


def test_unconstrained_min_norm_is_zero():
    p = _unconstrained(np.eye(3), np.zeros(3))
    s = solve(p)
    assert s.status == "optimal"
    assert np.max(np.abs(s.primal)) < 1e-8


def test_active_bound_scalar():
    # min (u-1)^2 s.t. u <= 0.5  ->  u = 0.5
    p = QpProblem([[2.0]], [-2.0], C=[[1.0]], c_lo=[-np.inf], c_hi=[0.5])
    s = solve(p)
    assert s.status == "optimal"
    assert abs(s.primal[0] - 0.5) < 1e-6
    assert s.iterations == 1  # one row added


def test_inactive_rows_make_no_change():
    p = QpProblem([[2.0]], [-2.0], C=[[1.0]], c_lo=[-5.0], c_hi=[5.0])
    s = solve(p)
    assert s.status == "optimal" and s.iterations == 0
    assert s.primal[0] == pytest.approx(1.0, abs=1e-12)


def test_no_binding_row_keeps_the_cholesky_minimum():
    """An empty active set is solved by the factor the solver holds: x is
    cho_solve(H, -g) bit for bit, with zero multipliers, and no KKT re-solve."""
    rng = np.random.default_rng(12)
    A = rng.normal(size=(12, 12))
    H = A @ A.T + 12.0 * np.eye(12)
    g = rng.normal(size=12)
    C = rng.normal(size=(20, 12))
    p = QpProblem(H, g, C=C, c_lo=np.full(20, -1e3), c_hi=np.full(20, 1e3))
    s = solve(p)
    assert s.status == "optimal" and s.iterations == 0
    assert np.array_equal(s.primal, scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), -g))
    assert np.array_equal(s.dual, np.zeros(20))
    assert s.kkt_residual <= qpsolve.KKT_TOL


def test_equality_rows_exact():
    rng = np.random.default_rng(11)
    H = np.eye(4)
    g = rng.normal(size=4)
    D = rng.normal(size=(2, 4))
    b = rng.normal(size=2)
    s = solve(QpProblem(H, g, C=D, c_lo=b, c_hi=b))
    assert s.status == "optimal"
    assert np.max(np.abs(D @ s.primal - b)) < 1e-8


def test_matches_enumeration_oracle_small_suite():
    rng = np.random.default_rng(12)
    for trial in range(60):
        H, g, C, hi, D = random_strictly_convex_qp(rng, n_max=6, m_max=8,
                                                   with_equalities=trial % 2 == 1)
        x_star, _ = enumerate_qp(H, g, C, hi, D)
        assert x_star is not None
        s = solve(_problem(H, g, C, hi, D))
        assert s.status == "optimal"
        assert np.max(np.abs(s.primal - x_star)) < 1e-6


def test_kkt_residual_exact_solution_tiny():
    # min (u-1)^2 s.t. u <= 0.5: analytic optimum u=0.5, dual y=1
    p = QpProblem([[2.0]], [-2.0], C=[[1.0]], c_lo=[-np.inf], c_hi=[0.5])
    s = QpSolution(np.array([0.5]), np.array([1.0]), "optimal", 0.0)
    assert kkt_residual(p, s) < 1e-12


def test_kkt_residual_detects_perturbation():
    p = QpProblem([[2.0]], [-2.0], C=[[1.0]], c_lo=[-np.inf], c_hi=[0.5])
    s = QpSolution(np.array([0.6]), np.array([1.0]), "optimal", 0.0)
    assert kkt_residual(p, s) >= 0.01


def test_kkt_residual_small_on_oracle_solutions():
    rng = np.random.default_rng(13)
    for _ in range(20):
        H, g, C, hi, D = random_strictly_convex_qp(rng, n_max=5, m_max=6)
        p = _problem(H, g, C, hi, D)
        s = solve(p)
        assert s.status == "optimal"
        assert kkt_residual(p, s) < 1e-8


def test_no_false_optimality_against_feasible_sampler():
    rng = np.random.default_rng(14)
    H, g, C, hi, D = random_strictly_convex_qp(rng, n_max=6, m_max=8)
    p = _problem(H, g, C, hi, D)
    s = solve(p)
    obj = objective(p, s.primal)
    count = 0
    while count < 1000:
        x = rng.normal(size=p.n, scale=2.0)
        if D is not None and len(D) and np.max(np.abs(D @ x)) > 1e-9:
            x = x - np.linalg.lstsq(D, D @ x, rcond=None)[0]
        if len(C) and np.any(C @ x > hi):
            continue
        count += 1
        assert objective(p, x) >= obj - 1e-6


def test_deterministic_given_identical_inputs():
    rng = np.random.default_rng(16)
    H, g, C, hi, D = random_strictly_convex_qp(rng, n_max=6, m_max=8)
    p = _problem(H, g, C, hi, D)
    a = solve(p)
    b = solve(p)
    assert np.array_equal(a.primal, b.primal)
    assert a.iterations == b.iterations


def test_infeasible_detected():
    # x <= -1 and x >= +1 simultaneously
    p = QpProblem([[2.0]], [0.0], C=[[1.0], [-1.0]], c_lo=[-np.inf, -np.inf], c_hi=[-1.0, -1.0])
    s = solve(p)
    assert s.status == "infeasible"


def test_change_cap_gives_max_iter(monkeypatch):
    # min |x - (2, 2)|^2 s.t. x0 <= 0 and x1 <= 0 needs two row additions
    p = QpProblem(2 * np.eye(2), [-4.0, -4.0], C=np.eye(2), c_lo=[-np.inf] * 2, c_hi=[0.0, 0.0])
    assert solve(p).iterations == 2
    monkeypatch.setattr(qpsolve, "MAX_CHANGES", 1)
    s = solve(p)
    assert s.status == "max_iter" and s.iterations == 1


def test_status_matches_lp_feasibility_on_tight_boxes():
    """Random two-sided rows with narrow [lo, hi] are infeasible about two
    times in three; the status must agree with an LP feasibility check."""
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(300):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 10))
        A = rng.normal(size=(n, n))
        H = A @ A.T + 0.5 * n * np.eye(n)
        C = rng.normal(size=(m, n))
        mid, half = rng.normal(size=m), rng.uniform(0.0, 0.5, size=m)
        s = solve(QpProblem(H, rng.normal(size=n), C=C, c_lo=mid - half, c_hi=mid + half))
        lp = linprog(np.zeros(n), A_ub=np.vstack([C, -C]),
                     b_ub=np.concatenate([mid + half, half - mid]),
                     bounds=[(None, None)] * n, method="highs")
        assert lp.status in (0, 2)  # feasible or infeasible, nothing else
        assert s.status == ("optimal" if lp.status == 0 else "infeasible")
        seen.add(s.status)
    assert seen == {"optimal", "infeasible"}


def test_badly_scaled_feasible_box_is_optimal():
    """A tight two-sided box far from the origin, drawn as in the test above
    with up to 8 variables and 16 rows. The solve is correct (the enumeration
    oracle agrees to 2e-8 at x of about 370), but its complementarity,
    7.6e-8, is the rounding of Cx times multipliers of about 9e5, so it
    reads "optimal" only under a bound relative to the multipliers."""
    rng = np.random.default_rng(12125)
    n, m = int(rng.integers(1, 9)), int(rng.integers(1, 17))
    A = rng.normal(size=(n, n))
    H = A @ A.T + 0.5 * n * np.eye(n)
    C = rng.normal(size=(m, n))
    mid, half = rng.normal(size=m), rng.uniform(0.0, 0.5, size=m)
    g = rng.normal(size=n)
    s = solve(QpProblem(H, g, C=C, c_lo=mid - half, c_hi=mid + half))
    Cx = C @ s.primal
    gap = np.where(s.dual > 0.0, np.abs(mid + half - Cx), np.abs(Cx - mid + half))
    assert np.max(np.abs(s.dual) * gap) > qpsolve.KKT_TOL and np.max(np.abs(s.dual)) > 1e5
    assert s.status == "optimal"
    x_ref, _ = enumerate_qp(H, g, np.vstack([C, -C]), np.concatenate([mid + half, half - mid]),
                            feas_tol=1e-6)
    assert np.max(np.abs(s.primal)) > 300.0
    np.testing.assert_allclose(s.primal, x_ref, rtol=1e-9)


def _mpc_problem() -> QpProblem:
    """The force MPC's QP for a tumbling trunk on three feet under a hard
    turn: 90 variables, 150 rows, 75 of them binding, multipliers up to 16
    and |g| up to 58."""
    mpc = ForceMpc(StackConfig())
    seen = []
    solve_qp = mpc.solver.solve
    mpc.solver.solve = lambda p: seen.append(p) or solve_qp(p)
    state = SrbState(np.array([0.4, -0.3, 0.2]), np.array([0.0, 0.0, 0.28]),
                     np.array([2.0, -1.0, 1.5]), np.array([-1.0, 2.0, 1.0]))
    feet = np.array([[0.19, 0.11, 0.0], [0.19, -0.11, 0.0],
                     [-0.19, 0.11, 0.0], [-0.19, -0.11, 0.0]])
    mpc.step(state, (3.0, 1.5, -1.5, 0.28), feet, GaitSchedule.stand(lifted=(1,)), 0.0)
    return seen[0]


@pytest.mark.parametrize("offset", [2e-8, -2e-8], ids=["outside", "inside"])
def test_a_binding_row_off_its_bound_reads_inaccurate(monkeypatch, offset):
    """Without the final KKT solve, the active-set iterate leaves binding rows
    up to 1.7e-8 off their bounds (measured on the MPC solves of the flip
    task). A result with one friction-pyramid row 2e-8 outside or inside its
    bound must read "inaccurate", although that is far below KKT_TOL times
    the gradient and multiplier sizes."""
    p = _mpc_problem()
    s = solve(p)
    assert s.status == "optimal" and len(p.C) == 150
    binding = [i for i in np.flatnonzero(s.dual) if p.c_lo[i] == -np.inf and s.dual[i] >= 1.0]
    r = min(binding, key=lambda i: s.dual[i])  # the pyramid rows' bound is hi = 0
    a = p.C[r]
    exact = qpsolve._solve_active_kkt

    def off(p, rows, b):
        x, lam = exact(p, rows, b)
        return x + offset * a / (a @ a), lam

    monkeypatch.setattr(qpsolve, "_solve_active_kkt", off)
    s_off = solve(p)
    assert abs(p.C[r] @ s_off.primal - offset) < 1e-12
    assert s_off.status == "inaccurate"


def test_binding_row_given_twice():
    # min |x - (2, 2)|^2 s.t. x0 + x1 <= 1 twice: x = (0.5, 0.5)
    row = [1.0, 1.0]
    s = solve(QpProblem(2 * np.eye(2), [-4.0, -4.0], C=[row, row],
                        c_lo=[-np.inf, -np.inf], c_hi=[1.0, 1.0]))
    assert s.status == "optimal"
    assert np.max(np.abs(s.primal - 0.5)) < 1e-12
    assert s.dual.sum() == pytest.approx(3.0, abs=1e-9)


def test_equality_row_given_twice():
    row = [1.0, -2.0, 0.5]
    p = QpProblem(np.eye(3), [1.0, 0.0, -1.0], C=[row, row], c_lo=[0.3, 0.3], c_hi=[0.3, 0.3])
    s = solve(p)
    assert s.status == "optimal"
    assert np.dot(row, s.primal) == pytest.approx(0.3, abs=1e-12)
    p.c_lo[1] = p.c_hi[1] = 0.4  # the same row pinned to another value
    assert solve(p).status == "infeasible"


def test_row_dependent_on_an_equality_row():
    # min |x|^2/2 + 3 x0 s.t. x0 + x1 = 1 and x0 + x1 <= hi
    def problem(hi):
        return QpProblem(np.eye(2), [3.0, 0.0], C=[[1.0, 1.0], [1.0, 1.0]],
                         c_lo=[1.0, -np.inf], c_hi=[1.0, hi])
    s = solve(problem(2.0))  # redundant
    assert s.status == "optimal"
    assert np.max(np.abs(s.primal - [-1.0, 2.0])) < 1e-12
    assert solve(problem(0.5)).status == "infeasible"


def test_rejects_asymmetric_hessian():
    with pytest.raises(ValueError):
        _unconstrained([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])


def test_rejects_indefinite_hessian():
    with pytest.raises(ValueError):
        solve(_unconstrained([[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0]))


def test_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        QpProblem(np.eye(1), [0.0], C=[[1.0]], c_lo=[1.0], c_hi=[0.0])
