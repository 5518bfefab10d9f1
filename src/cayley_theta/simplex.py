"""Two-phase primal simplex, exact on integers or approximate in doubles.

Standard form only: maximize c.x subject to A x = b, x >= 0, with
Bland's pivot rule in both phases.

Exact mode takes rational data and never builds a Fraction inside the
pivot loop.  The whole system is scaled to integers by one positive lcm
(scaling row by row would rescale the phase-I artificial columns and
could change which pivots phase I takes).  The tableau is an integer
matrix M over one common denominator D, the true tableau being M / D,
and the reduced costs ride along as its last row.  A pivot on p =
M[r][c] is fraction-free: every other row becomes
(M[i] * p - M[i][c] * M[r]) / D, then D = p.  The division is exact
because D is the determinant of the current basis (Bareiss 1968,
Edmonds 1967).  Ratios are compared by cross-multiplying.  The pivots,
and so the result, are those of the same rule run over Fraction.  Bland's
rule guarantees termination.

Float mode runs the same rule over a tableau of doubles kept as a list
of numpy rows.  Each iteration recomputes all reduced costs as one
accumulation over the basis rows, in row order from 0, and a pivot is
two row operations per row; so every double, and every pivot, is the
one the same rule computes over plain lists of floats (the reference in
the tests).  Comparisons are within FLOAT_EPS, and an iteration cap
turns a stall into NumericalFailure rather than a wrong "optimal".
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


def _solve_exact(instance: LpInstance) -> LpSolution:
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

    # Phase II on the original columns, costs scaled to integers
    cost2 = [Fraction(v) for v in instance.objective]
    Lc = lcm(*(v.denominator for v in cost2))
    c = [linalg.scaled(v, Lc) for v in cost2]
    M = [row[:n] + [row[-1]] for row in M]
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


# ---------------------------------------------------------------------------
# float mode

def _pivot(T, basis, row, col):
    pr = T[row] = T[row] / T[row][col]
    for i, r in enumerate(T):
        if i != row and r[col] != 0:
            T[i] = r - r[col] * pr
    basis[row] = col


def _run(T, basis, cost, eps, cap):
    """Bland-rule simplex on a tableau of numpy rows (rhs in the last
    column) for the costs ``cost``.  Returns 'optimal' or 'unbounded'."""
    ncols = len(cost)
    cost = np.array(cost, dtype=float)
    iters = 0
    while True:
        iters += 1
        if iters > cap:
            raise NumericalFailure(
                f"no convergence within {cap} simplex iterations")
        # reduced costs c_j - sum_i c_B[i] T[i][j], summed in row order
        z = np.zeros(ncols + 1)
        for r, bi in zip(T, basis):
            z += cost[bi] * r
        eligible = cost - z[:ncols] > eps
        eligible[basis] = False
        candidates = np.flatnonzero(eligible)
        if not candidates.size:
            return "optimal"
        entering = int(candidates[0])
        leaving = None
        best_ratio = None
        for i in range(len(T)):
            a = T[i][entering]
            if a > eps:
                ratio = T[i][-1] / a
                if (best_ratio is None or ratio < best_ratio or
                        (ratio == best_ratio and basis[i] < basis[leaving])):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            return "unbounded"
        _pivot(T, basis, leaving, entering)


def solve(instance: LpInstance) -> LpSolution:
    if instance.exact:
        return _solve_exact(instance)
    eps = FLOAT_EPS
    m, n = instance.m, instance.n
    cap = 10 * (m + n) ** 2

    # Phase I: artificial columns n..n+m-1
    T = []
    for i, (row, rhs) in enumerate(zip(instance.A, instance.b)):
        r = np.zeros(n + m + 1)
        r[:n] = [float(v) for v in row]
        r[n + i] = 1.0
        r[-1] = float(rhs)
        if r[-1] < 0:
            r[:n] = -r[:n]
            r[-1] = -r[-1]
        T.append(r)
    basis = [n + i for i in range(m)]
    _run(T, basis, [0.0] * n + [-1.0] * m, eps, cap)
    infeas = sum(T[i][-1] for i in range(len(T)) if basis[i] >= n)
    if infeas > FLOAT_EPS * _scale(instance):
        return LpSolution(status="infeasible")

    # drive leftover artificials out of the basis; drop redundant rows
    keep_rows = list(range(m))
    i = 0
    while i < len(T):
        if basis[i] >= n:
            col = next((j for j in range(n)
                        if abs(T[i][j]) > eps and j not in basis), None)
            if col is None:
                del T[i], basis[i], keep_rows[i]
                continue
            _pivot(T, basis, i, col)
        i += 1

    # Phase II on the original columns
    T2 = [np.append(row[:n], row[-1]) for row in T]
    cost2 = [float(v) for v in instance.objective]
    status = _run(T2, basis, cost2, eps, cap)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    x = [0.0] * n
    for i, bi in enumerate(basis):
        x[bi] = float(T2[i][-1])
    value = sum(c * v for c, v in zip(cost2, x))
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
            y = list(np.linalg.solve(np.array(AT, dtype=float),
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
