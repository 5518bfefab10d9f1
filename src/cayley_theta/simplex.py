"""Two-phase primal simplex: a float solver finds an optimal basis, and
exact mode rebuilds that basis on integers and checks it.

Standard form only: maximize c.x subject to A x = b, x >= 0.

Float mode keeps one tableau of doubles, a 2-D numpy array whose last
row holds the reduced costs.  Every row is equilibrated: its sign makes
b_i >= 0 and it is divided by its largest |a_ij|, so the fixed
tolerances below are relative to each row's scale.  Pricing is
Dantzig's (the largest reduced cost), and the ratio test is Harris's:
among the rows whose ratio is within the feasibility tolerance of the
smallest it takes the largest pivot, and the small negative right-hand
sides this leaves are set to 0.  After DEGENERATE_RUN pivots in a row
that do not move the vertex, Bland's rule takes over until one does,
so the rule cannot cycle; an iteration cap turns a stall in doubles
into NumericalFailure.  At a claimed optimum the tableau is recomputed
from the original data for the current basis and priced again, so the
rounding error of the pivots does not decide optimality.

Exact mode takes rational data and never builds a Fraction inside the
pivot loop.  It runs the float solver on the float copy of the LP and
rebuilds the basis it returns in integers: m fraction-free pivots turn
the scaled data into the tableau M / D of that basis, D being the basis
determinant (Bareiss 1968, Edmonds 1967), and a pivot on p = M[r][c]
makes every other row (M[i] * p - M[i][c] * M[r]) / D, an exact
division, then D = p.  The reduced costs times D ride along as the last
row, and Bland's rule runs from there: an optimal basis stops at once,
which is the exact optimality check, and a nearly optimal one is
repaired by a few exact pivots.  A float failure, or a basis that is
singular or not primal feasible, falls back to the cold start: phase I
from the artificial basis, with the whole system scaled to integers by
one positive lcm (scaling row by row would rescale the artificial
columns and could change which pivots phase I takes), then phase II,
both by Bland's rule, whose pivots are those of the same rule run over
Fraction.  Exact answers never depend on the float solver; it only
decides where the exact pivots start.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

import numpy as np

from . import linalg
from .errors import InvalidArgument, NumericalFailure

FLOAT_EPS = 1e-9


@dataclass(frozen=True)
class LpInstance:
    objective: tuple      # c (maximize)
    A: tuple              # m rows of length n
    b: tuple
    exact: bool = True

    def __post_init__(self):
        n = len(self.objective)
        if n == 0 or len(self.A) == 0:
            raise InvalidArgument("need at least one row and one column")
        if any(len(row) != n for row in self.A):
            raise InvalidArgument("constraint row length mismatch")
        if len(self.b) != len(self.A):
            raise InvalidArgument("right-hand side length mismatch")
        if self.exact:
            data = list(self.objective) + list(self.b) + \
                [v for row in self.A for v in row]
            if not all(isinstance(v, (int, Fraction)) for v in data):
                raise InvalidArgument("exact instances need rational data")

    @property
    def m(self):
        return len(self.A)

    @property
    def n(self):
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    status: str                      # optimal | infeasible | unbounded
    x: Optional[tuple] = None
    objective_value: Optional[object] = None
    dual: Optional[tuple] = None
    basis: Optional[tuple] = None


# ---------------------------------------------------------------------------
# exact mode: fraction-free tableau over the integers

def _pivot_exact(M, basis, row, col, D):
    """Fraction-free pivot of the tableau M / D on (row, col), with the
    basis updated; returns the new denominator, kept positive."""
    p = linalg.eliminate(M, row, col, D)
    basis[row] = col
    if p < 0:
        for i, r in enumerate(M):
            M[i] = [-a for a in r]
        p = -p
    return p


def _run_exact(M, basis, ncols, D):
    """Bland-rule simplex on the tableau M / D: constraint rows with the
    rhs in the last column, and the reduced costs times D as the last
    row.  Basic columns carry a reduced cost of exactly 0, so the first
    positive entry of that row is Bland's entering column.  Returns
    (status, D) with status 'optimal' or 'unbounded'."""
    rows = len(M) - 1
    while True:
        cost = M[-1]
        entering = next((j for j in range(ncols) if cost[j] > 0), None)
        if entering is None:
            return "optimal", D
        leaving = None
        for i in range(rows):
            a = M[i][entering]
            if a > 0:
                # ratio M[i][-1] / a against the best, cross-multiplied
                rhs = M[i][-1]
                if leaving is None:
                    leaving, best_rhs, best_a = i, rhs, a
                    continue
                lhs, cur = rhs * best_a, best_rhs * a
                if lhs < cur or (lhs == cur and basis[i] < basis[leaving]):
                    leaving, best_rhs, best_a = i, rhs, a
        if leaving is None:
            return "unbounded", D
        D = _pivot_exact(M, basis, leaving, entering, D)


def _phase_two_exact(instance, M, basis, keep_rows, D):
    """Phase II from a primal feasible basis: M / D holds its constraint
    rows over the original columns and the rhs."""
    n = instance.n
    cost2 = [Fraction(v) for v in instance.objective]
    Lc = lcm(*(v.denominator for v in cost2))
    c = [linalg.scaled(v, Lc) for v in cost2]
    reduced = [D * cj for cj in c] + [0]
    for r, bi in zip(M, basis):
        if c[bi]:
            reduced = [a - c[bi] * v for a, v in zip(reduced, r)]
    M.append(reduced)
    status, D = _run_exact(M, basis, n, D)
    if status == "unbounded":
        return LpSolution(status="unbounded")
    x = [Fraction(0)] * n
    for r, bi in zip(M, basis):
        x[bi] = Fraction(r[-1], D)
    value = sum(cv * v for cv, v in zip(cost2, x))
    dual = _dual_from_basis(instance, basis, keep_rows, True)
    return LpSolution(status="optimal", x=tuple(x), objective_value=value,
                      dual=dual, basis=tuple(basis))


def _solve_exact_cold(instance: LpInstance) -> LpSolution:
    """Two-phase Bland simplex from the artificial basis."""
    m, n = instance.m, instance.n
    # one positive lcm for the whole system; scaling rows one by one
    # would rescale the artificial columns and change phase I's pivots
    L = lcm(*(v.denominator for row in instance.A for v in row),
            *(v.denominator for v in instance.b))
    M = []
    for i, (row, rhs) in enumerate(zip(instance.A, instance.b)):
        sign = -1 if rhs < 0 else 1
        art = [0] * m
        art[i] = 1
        M.append([sign * linalg.scaled(v, L) for v in row] + art +
                 [sign * linalg.scaled(rhs, L)])

    # Phase I: artificial columns n..n+m-1, cost -1 each, all basic
    basis = [n + i for i in range(m)]
    cost1 = [sum(col) for col in zip(*M)]
    cost1[n:n + m] = [0] * m
    M.append(cost1)
    _, D = _run_exact(M, basis, n + m, 1)
    M.pop()
    if sum(M[i][-1] for i in range(m) if basis[i] >= n) > 0:
        return LpSolution(status="infeasible")

    # drive leftover artificials out of the basis; drop redundant rows
    basic = set(basis)
    keep_rows = list(range(m))
    i = 0
    while i < len(M):
        if basis[i] >= n:
            row = M[i]
            col = next((j for j in range(n)
                        if row[j] and j not in basic), None)
            if col is None:
                del M[i], basis[i], keep_rows[i]
                continue
            basic.add(col)
            D = _pivot_exact(M, basis, i, col, D)
        i += 1
    M = [row[:n] + [row[-1]] for row in M]
    return _phase_two_exact(instance, M, basis, keep_rows, D)


def _solve_exact_from(instance: LpInstance, M, columns):
    """Pivot the integer rows M = [A | b] onto the basis ``columns`` and
    finish with exact Bland pivots; None if those columns are not a
    primal feasible basis of the row space."""
    m = instance.m
    basis = [None] * m
    free = list(range(m))
    D = 1
    for col in columns:
        row = next((i for i in free if M[i][col]), None)
        if row is None:
            return None
        free.remove(row)
        D = _pivot_exact(M, basis, row, col, D)
    if any(any(M[i]) for i in free):
        return None
    keep_rows = [i for i in range(m) if basis[i] is not None]
    M = [M[i] for i in keep_rows]
    if any(r[-1] < 0 for r in M):
        return None
    return _phase_two_exact(instance, M, [basis[i] for i in keep_rows],
                            keep_rows, D)


def _solve_exact(instance: LpInstance) -> LpSolution:
    # each equation scaled to integers by its own lcm: the same solutions
    M = []
    for row, rhs in zip(instance.A, instance.b):
        vals = list(row) + [rhs]
        L = lcm(*(v.denominator for v in vals))
        M.append([linalg.scaled(v, L) for v in vals])
    try:
        data = np.array(M, dtype=float)
        status, columns, _, _ = _float_basis(
            data[:, :-1], data[:, -1],
            np.array(instance.objective, dtype=float))
    except (NumericalFailure, OverflowError):
        status = None
    if status == "optimal":
        solution = _solve_exact_from(instance, M, columns)
        if solution is not None:
            return solution
    return _solve_exact_cold(instance)


# ---------------------------------------------------------------------------
# float mode

PIVOT_TOL = 1e-9      # smallest pivot in an equilibrated row
FEAS_TOL = 1e-9       # primal feasibility, per unit of row scale
OPT_TOL = 1e-9        # dual feasibility, per unit of the largest cost
DEGENERATE_RUN = 200  # pivots that do not move before Bland's rule
ITERATIONS_PER_COLUMN = 50   # cap, per row and column of the LP


def _pivot(T, basis, row, col):
    pr = T[row] / T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.outer(f, pr)
    T[row] = pr
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _reprice(data, cost, basis):
    """The tableau of ``basis`` recomputed from the data [A | b], with
    the reduced-cost row c - c_B B^-1 A (rhs entry -c_B x_B) last and
    the rhs rounded up to 0 where it is negative."""
    try:
        body = np.linalg.solve(data[:, basis], data)
    except np.linalg.LinAlgError:
        raise NumericalFailure("singular basis in the float simplex")
    np.maximum(body[:, -1], 0.0, out=body[:, -1])
    red = np.append(cost, 0.0) - cost[basis] @ body
    return np.vstack([body, red])


def _iterate(data, cost, basis, ncols, budget):
    """Primal simplex from the feasible ``basis`` of the equilibrated
    data [A | b] for the costs ``cost``; columns >= ncols never enter.
    ``budget`` is [iterations left, cap], shared by both phases.  Returns
    (status, tableau), the status 'optimal' or 'unbounded'."""
    m = len(basis)
    opt_tol = OPT_TOL * max(1.0, float(np.abs(cost).max()))
    T = _reprice(data, cost, basis)
    stalled = 0
    fresh = True
    while True:
        budget[0] -= 1
        if budget[0] < 0:
            raise NumericalFailure(
                f"no convergence within {budget[1]} simplex iterations")
        d = T[-1, :ncols]
        eligible = np.flatnonzero(d > opt_tol)
        if not eligible.size:
            if fresh:
                return "optimal", T
            T = _reprice(data, cost, basis)
            fresh = True
            continue
        bland = stalled >= DEGENERATE_RUN
        col = int(eligible[0 if bland else np.argmax(d[eligible])])
        a = T[:m, col]
        rhs = T[:m, -1]
        rows = np.flatnonzero(a > PIVOT_TOL)
        if not rows.size:
            return "unbounded", T
        ratios = rhs[rows] / a[rows]
        if bland:
            tied = rows[ratios == ratios.min()]
            row = int(tied[np.argmin(np.asarray(basis)[tied])])
        else:
            # Harris: the largest pivot among the rows within tolerance
            bound = ((rhs[rows] + FEAS_TOL) / a[rows]).min()
            near = rows[ratios <= bound]
            row = int(near[np.argmax(a[near])])
        stalled = stalled + 1 if rhs[row] <= FEAS_TOL else 0
        _pivot(T, basis, row, col)
        np.maximum(T[:m, -1], 0.0, out=T[:m, -1])
        fresh = False


def _float_basis(A, b, c):
    """Solve max c.x, A x = b, x >= 0 in doubles.  Returns (status,
    basis, keep_rows, values): on 'optimal', the basic columns, the rows
    that are not redundant, and values[i] = x[basis[i]].  Raises
    NumericalFailure on non-finite data or at the iteration cap."""
    m, n = A.shape
    if not (np.isfinite(A).all() and np.isfinite(b).all() and
            np.isfinite(c).all()):
        raise NumericalFailure("LP data is not finite")
    data = np.hstack([A, b[:, None]])
    data[b < 0] *= -1.0
    scale = np.abs(data[:, :n]).max(axis=1)
    scale[scale == 0] = 1.0
    data /= scale[:, None]
    cap = ITERATIONS_PER_COLUMN * (m + n)
    budget = [cap, cap]

    # Phase I on [A | I | b]: minimize the artificials
    data1 = np.hstack([data[:, :n], np.eye(m), data[:, n:]])
    cost1 = np.append(np.zeros(n), -np.ones(m))
    basis = list(range(n, n + m))
    _, T = _iterate(data1, cost1, basis, n + m, budget)
    rhs_tol = FEAS_TOL * max(1.0, float(data[:, -1].max()))
    if any(T[i, -1] > rhs_tol for i in range(m) if basis[i] >= n):
        return "infeasible", None, None, None

    # drive artificials out of the basis; an artificial that cannot go
    # marks its own row as redundant
    for i in range(m):
        if basis[i] >= n:
            row = np.abs(T[i, :n])
            row[[j for j in basis if j < n]] = 0.0
            col = int(np.argmax(row))
            if row[col] > PIVOT_TOL:
                T[i, -1] = 0.0
                _pivot(T, basis, i, col)
    keep_rows = [i for i in range(m) if n + i not in basis]
    basis = [j for j in basis if j < n]

    # Phase II on the original columns of the kept rows
    status, T = _iterate(data[keep_rows], c, basis, n, budget)
    return status, basis, keep_rows, T[:-1, -1]


def solve(instance: LpInstance) -> LpSolution:
    if instance.exact:
        return _solve_exact(instance)
    A = np.array(instance.A, dtype=float)
    b = np.array(instance.b, dtype=float)
    c = np.array(instance.objective, dtype=float)
    status, basis, keep_rows, values = _float_basis(A, b, c)
    if status != "optimal":
        return LpSolution(status=status)
    x = [0.0] * instance.n
    for bi, v in zip(basis, values.tolist()):
        x[bi] = v
    value = sum(cv * v for cv, v in zip(c.tolist(), x))
    dual = _dual_from_basis(instance, basis, keep_rows, False)
    return LpSolution(status="optimal", x=tuple(x), objective_value=value,
                      dual=dual, basis=tuple(basis))


def _scale(instance):
    return max([1.0] + [abs(float(v)) for v in instance.b])


def _dual_from_basis(instance, basis, keep_rows, exact):
    """Multipliers y with y.A_B = c_B, solved from the original data;
    dropped redundant rows get y = 0."""
    num = Fraction if exact else float
    k = len(basis)
    AT = [[num(instance.A[keep_rows[i]][basis[j]]) for i in range(k)]
          for j in range(k)]
    cB = [num(instance.objective[bi]) for bi in basis]
    if exact:
        y = linalg.solve_square(AT, cB)
    else:
        try:
            y = list(np.linalg.solve(np.array(AT, dtype=float).reshape(k, k),
                                     np.array(cB, dtype=float)))
        except np.linalg.LinAlgError:
            y = None
    if y is None:
        return None
    full = [num(0)] * instance.m
    for i, row in enumerate(keep_rows):
        full[row] = y[i]
    return tuple(full)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self):
        return self.ok


def verify_certificate(instance: LpInstance, solution: LpSolution,
                       tol: float = FLOAT_EPS) -> VerifyResult:
    """Re-check an optimality certificate by pure re-evaluation: primal
    feasibility, dual feasibility (reduced costs <= 0), and zero duality
    gap.  Shares no state with the solver."""
    if solution.status != "optimal":
        return VerifyResult(False, "not an optimality claim")
    if solution.x is None or solution.dual is None:
        return VerifyResult(False, "missing primal or dual vector")
    exact = instance.exact
    eps = 0 if exact else tol * _scale(instance)
    x, y = solution.x, solution.dual
    for xi in x:
        if xi < -eps:
            return VerifyResult(False, "primal infeasible")
    for row, rhs in zip(instance.A, instance.b):
        resid = sum(a * v for a, v in zip(row, x)) - rhs
        if abs(resid) > eps:
            return VerifyResult(False, "primal infeasible")
    for j in range(instance.n):
        reduced = instance.objective[j] - sum(
            instance.A[i][j] * y[i] for i in range(instance.m))
        if reduced > eps:
            return VerifyResult(False, "dual infeasible")
    gap = sum(c * v for c, v in zip(instance.objective, x)) - \
        sum(bi * yi for bi, yi in zip(instance.b, y))
    if abs(gap) > eps:
        return VerifyResult(False, "duality gap")
    if solution.objective_value is not None:
        diff = sum(c * v for c, v in zip(instance.objective, x)) - \
            solution.objective_value
        if abs(diff) > eps:
            return VerifyResult(False, "duality gap")
    return VerifyResult(True)
