"""Two-phase primal simplex: a float solver finds a basis, and exact
mode proves that basis optimal by LP duality.

Standard form only: maximize c.x subject to A x = b, x >= 0.

An ``LpInstance`` holds c (``objective``), A and b as read-only numpy
arrays of one dtype, which picks the mode: ``object`` and exact when
every entry is a Python int or Fraction (a whole one stored as an int)
or an integer array's, else float64.

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
rounding error of the pivots does not decide optimality.  A float
answer thus depends only on the sequence of pivots and on that final
reprice.  Each pivot's elementwise operations are unfused, a divide of
the pivot row, then a multiply and a subtract per entry, so a kernel
that makes the same choices with other numpy calls gives the same bits.

Exact mode takes rational data, and one function, ``_certify``, proves
every answer it returns (float basis, then exact proof, as in QSopt_ex:
Applegate, Cook, Dash and Espinoza 2007).  For basic columns B on rows
R it solves A_RB x_B = b_R and A_RB^T y = c_B exactly, modulo primes
with an exact check (``linalg.solve_square``), so c.x = y.b, and
accepts only if x_B >= 0, the rows outside R hold at x, and
c_j <= y.A_j on every column (one integer product over a common
denominator).  The float solver, on the data rounded to doubles,
proposes the basis; exact answers never depend on it beyond that.  An
optimum is the LP's own basis, proved.  Infeasible and unbounded are
proved as optima of two auxiliary LPs, each feasible and bounded by
construction: phase I, max -sum(s) over [A sign | I] (x, s) = b sign,
whose optimum is below 0 exactly when the LP is infeasible; and the
ray LP, max c.d over A d = 0, sum(d) + t = 1, whose optimum is above 0
exactly when a feasible LP is unbounded.  When no route yields a
proof, exact mode raises NumericalFailure; it never returns an
unproved status.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Optional

import numpy as np

from . import linalg
from .errors import InvalidArgument, NumericalFailure

FLOAT_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class LpInstance:
    """max c.x subject to A x = b, x >= 0 (see the module docstring)."""
    objective: np.ndarray   # c, n entries
    A: np.ndarray           # m x n
    b: np.ndarray           # m entries

    def __post_init__(self):
        names = ("objective", "A", "b")
        try:
            c, A, b = data = [
                X if isinstance(X, np.ndarray) else np.array(X, dtype=object)
                for X in (self.objective, self.A, self.b)]
        except ValueError:
            raise InvalidArgument("ragged LP data") from None
        if not (c.size and A.size and c.ndim == b.ndim == 1 and
                A.shape == (len(b), len(c))):
            raise InvalidArgument("A is not a nonempty len(b) x len(c) matrix")
        kinds = {X.dtype.kind for X in data}
        vs = [v for X in data if X.dtype == object for v in X.flat]
        if kinds <= set("Oiu") and all(type(v) in (int, Fraction) for v in vs):
            # whole values as ints: the proof then multiplies ints only
            data = [np.array([v.numerator if v.denominator == 1 else v
                              for v in X.astype(object).flat],
                             dtype=object).reshape(X.shape) for X in data]
        elif kinds <= set("Oiuf") and all(isinstance(v, Real) for v in vs):
            data = [X.astype(float) for X in data]
        else:
            raise InvalidArgument("LP data must be real numbers")
        for name, X in zip(names, data):
            X.setflags(write=False)
            object.__setattr__(self, name, X)

    @property
    def exact(self) -> bool:
        return self.A.dtype == object

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


# ---------------------------------------------------------------------------
# exact mode: every answer is an optimum that the duality proof accepts

def _certify(instance: LpInstance, basis, keep_rows):
    """The optimum at the basic columns ``basis`` on the rows
    ``keep_rows``, proved by LP duality (see the module docstring), with
    y = 0 on the other rows; None if A_B is singular or a check
    fails."""
    A, b, c = instance.A, instance.b.tolist(), instance.objective.tolist()
    AB = A[np.ix_(keep_rows, basis)]
    xB = linalg.solve_square(AB.tolist(), [b[i] for i in keep_rows])
    if xB is None or any(v < 0 for v in xB):
        return None
    dropped = [i for i in range(instance.m) if i not in keep_rows]
    held = linalg.exact_sums(xB, A[np.ix_(dropped, basis)].T)
    if any(s != b[i] for i, s in zip(dropped, held)):
        return None
    y = linalg.solve_square(AB.T.tolist(), [c[j] for j in basis])
    priced = linalg.exact_sums(y, A[keep_rows])
    if any(cj > s for cj, s in zip(c, priced)):
        return None
    x = dict(zip(basis, xB))
    x = tuple(x.get(j, Fraction(0)) for j in range(instance.n))
    dual = dict(zip(keep_rows, y))
    dual = tuple(dual.get(i, Fraction(0)) for i in range(instance.m))
    value = sum(cj * v for cj, v in zip(c, x))
    return LpSolution(status="optimal", x=x, objective_value=value,
                      dual=dual)


def _proved(instance: LpInstance) -> Optional[LpSolution]:
    """The optimum at the float stage's basis, as ``_certify`` proves
    it; None if the float stage fails or its basis is refused."""
    try:
        status, basis, keep_rows, _ = _float_basis(
            instance.A, instance.b, instance.objective)
    except (NumericalFailure, OverflowError):
        return None
    if status != "optimal":
        return None
    return _certify(instance, basis, keep_rows)


def _phase_one(instance: LpInstance) -> LpInstance:
    """Phase I as an LP of its own (see the module docstring), with
    sign_i = -1 where b_i < 0: feasible at x = 0 and bounded by 0."""
    m, n = instance.m, instance.n
    sign = np.where(instance.b < 0, -1, 1)
    return LpInstance(objective=np.repeat([0, -1], [n, m]),
                      A=np.hstack([instance.A * sign[:, None],
                                   np.eye(m, dtype=int)]),
                      b=instance.b * sign)


def _ray(instance: LpInstance) -> LpInstance:
    """The ray LP (see the module docstring): feasible at t = 1 and
    bounded by the largest c_j."""
    m, n = instance.m, instance.n
    A = np.zeros((m + 1, n + 1), dtype=object)
    A[:m, :n] = instance.A
    A[m] = 1
    return LpInstance(objective=np.append(instance.objective, 0), A=A,
                      b=np.append(np.zeros(m, dtype=int), 1))


def _solve_exact(instance: LpInstance) -> LpSolution:
    solution = _proved(instance)
    if solution is not None:
        return solution
    phase_one = _proved(_phase_one(instance))
    if phase_one is not None:
        if phase_one.objective_value < 0:
            return LpSolution(status="infeasible")
        ray = _proved(_ray(instance))
        if ray is not None and ray.objective_value > 0:
            return LpSolution(status="unbounded")
    raise NumericalFailure("no exact route proves an answer: the float "
                           "stage gave no basis that LP duality accepts")


# ---------------------------------------------------------------------------
# float mode

PIVOT_TOL = 1e-9      # smallest pivot in an equilibrated row
FEAS_TOL = 1e-9       # primal feasibility, per unit of row scale
OPT_TOL = 1e-9        # dual feasibility, per unit of the largest cost
DEGENERATE_RUN = 200  # pivots that do not move before Bland's rule
ITERATIONS_PER_COLUMN = 50   # cap, per row and column of the LP


def _pivot(T, basis, row, col):
    """Pivot T on (row, col).  The pivot column comes out as the unit
    vector without being set: the pivot row divided by its pivot holds
    1 there, exactly, and every other row loses t * 1, so holds +0."""
    pr = T[row] / T[row, col]
    T -= T[:, col, None] * pr
    T[row] = pr
    basis[row] = col


def _reprice(data, cost, basis, body=None):
    """The tableau of ``basis`` recomputed from the data [A | b], with
    the reduced-cost row c - c_B B^-1 A (rhs entry -c_B x_B) last and
    the rhs rounded up to 0 where it is negative.  A caller who knows
    B^-1 [A | b] passes it as ``body``, which is overwritten."""
    if body is None:
        try:
            body = np.linalg.solve(data[:, basis], data)
        except np.linalg.LinAlgError:
            raise NumericalFailure("singular basis in the float simplex")
    np.maximum(body[:, -1], 0.0, out=body[:, -1])
    red = np.append(cost, 0.0) - cost[basis] @ body
    return np.vstack([body, red])


def _iterate(data, cost, basis, ncols, budget, body=None):
    """Primal simplex from the feasible ``basis`` of the equilibrated
    data [A | b] for the costs ``cost``; columns >= ncols never enter.
    ``body`` is as in ``_reprice``, for the first tableau.  ``budget``
    is [iterations left, cap], shared by both phases.  Returns (status,
    tableau), the status 'optimal' or 'unbounded'.

    The entering column is the first largest eligible reduced cost
    (Dantzig) or the first eligible one (Bland): d.argmax() is the first
    largest, unless d holds a NaN, where it stops; only then, or at an
    optimum, is the mask d > opt_tol, false at a NaN, applied to d.
    Harris's row is the first largest pivot among the rows whose ratio
    is within the bound; the row of the smallest ratio always is."""
    m = len(basis)
    opt_tol = OPT_TOL * max(1.0, float(np.abs(cost).max()))
    T = _reprice(data, cost, basis, body)
    stalled = 0
    fresh = True
    while True:
        budget[0] -= 1
        if budget[0] < 0:
            raise NumericalFailure(
                f"no convergence within {budget[1]} simplex iterations")
        d = T[-1, :ncols]
        bland = stalled >= DEGENERATE_RUN
        col = int((d > opt_tol).argmax() if bland else d.argmax())
        if not d[col] > opt_tol:    # none is eligible, or d holds a NaN
            col = int(np.where(d > opt_tol, d, -np.inf).argmax())
        if not d[col] > opt_tol:
            if fresh:
                return "optimal", T
            T = _reprice(data, cost, basis)
            fresh = True
            continue
        a = T[:m, col]
        rhs = T[:m, -1]
        rows = (a > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return "unbounded", T
        a_rows, rhs_rows = a[rows], rhs[rows]
        ratios = rhs_rows / a_rows
        if bland:
            tied = rows[ratios == ratios.min()]
            row = int(tied[np.argmin(np.asarray(basis)[tied])])
        else:
            # Harris: the largest pivot among the rows within tolerance
            bound = ((rhs_rows + FEAS_TOL) / a_rows).min()
            row = int(rows[np.where(ratios <= bound, a_rows,
                                    -np.inf).argmax()])
        stalled = stalled + 1 if rhs[row] <= FEAS_TOL else 0
        _pivot(T, basis, row, col)
        np.maximum(rhs, 0.0, out=rhs)
        fresh = False


def _float_basis(A, b, c):
    """Solve max c.x, A x = b, x >= 0 in doubles, the arrays' entries
    rounded to them.  Returns (status, basis, keep_rows, values): on
    'optimal', the basic columns, the rows that are not redundant, and
    values[i] = x[basis[i]].  Raises NumericalFailure on non-finite data,
    at the iteration cap, or when phase I reports unbounded."""
    m, n = A.shape
    data = np.hstack([A, b[:, None]]).astype(float)
    c = c.astype(float)
    if not (np.isfinite(data).all() and np.isfinite(c).all()):
        raise NumericalFailure("LP data is not finite")
    data[data[:, -1] < 0] *= -1.0
    scale = np.abs(data[:, :n]).max(axis=1)
    scale[scale == 0] = 1.0
    data /= scale[:, None]
    cap = ITERATIONS_PER_COLUMN * (m + n)
    budget = [cap, cap]

    # Phase I on [A | I | b]: minimize the artificials, from the basis I,
    # whose tableau is the data (a solve could only flip a zero's sign)
    data1 = np.hstack([data[:, :n], np.eye(m), data[:, n:]])
    cost1 = np.append(np.zeros(n), -np.ones(m))
    basis = list(range(n, n + m))
    status, T = _iterate(data1, cost1, basis, n + m, budget, data1.copy())
    if status == "unbounded":     # phase I is bounded by 0
        raise NumericalFailure("phase I of the float simplex is unbounded")
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
    A, c = instance.A, instance.objective
    status, basis, keep_rows, values = _float_basis(A, instance.b, c)
    if status != "optimal":
        return LpSolution(status=status)
    x = [0.0] * instance.n
    for bi, v in zip(basis, values.tolist()):
        x[bi] = v
    value = sum(cv * v for cv, v in zip(c.tolist(), x))
    dual = _dual_from_basis(A, c, basis, keep_rows)
    return LpSolution(status="optimal", x=tuple(x), objective_value=value,
                      dual=dual)


def _dual_from_basis(A, c, basis, keep_rows):
    """Multipliers y with y.A_B = c_B in doubles, 0 on dropped rows;
    None when A_B is singular."""
    try:
        y = np.linalg.solve(A[np.ix_(keep_rows, basis)].T, c[basis])
    except np.linalg.LinAlgError:
        return None
    full = [0.0] * len(A)
    for i, v in zip(keep_rows, y):
        full[i] = v
    return tuple(full)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self):
        return self.ok


def verify_certificate(instance: LpInstance,
                       solution: LpSolution) -> VerifyResult:
    """Re-check an optimality certificate by pure re-evaluation: primal
    feasibility, dual feasibility (reduced costs <= 0), and zero duality
    gap.  Shares no state with the solver; it sums Python scalars.  Each
    test asks that a value lie within tolerance, so NaN and +-inf fail."""
    if solution.status != "optimal":
        return VerifyResult(False, "not an optimality claim")
    if solution.x is None or solution.dual is None:
        return VerifyResult(False, "missing primal or dual vector")
    A, b, c = instance.A.tolist(), instance.b.tolist(), \
        instance.objective.tolist()
    eps = 0 if instance.exact else FLOAT_EPS * max(1.0, *map(abs, b))
    x, y = solution.x, solution.dual
    for xi in x:
        if not xi >= -eps:
            return VerifyResult(False, "primal infeasible")
    for row, rhs in zip(A, b):
        resid = sum(a * v for a, v in zip(row, x)) - rhs
        if not abs(resid) <= eps:
            return VerifyResult(False, "primal infeasible")
    for j in range(instance.n):
        reduced = c[j] - sum(A[i][j] * y[i] for i in range(instance.m))
        if not reduced <= eps:
            return VerifyResult(False, "dual infeasible")
    value = sum(cj * v for cj, v in zip(c, x))
    if not abs(value - sum(bi * yi for bi, yi in zip(b, y))) <= eps:
        return VerifyResult(False, "duality gap")
    if solution.objective_value is not None:
        if not abs(value - solution.objective_value) <= eps:
            return VerifyResult(False, "duality gap")
    return VerifyResult(True)
