import hashlib
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cayley_theta import simplex
from cayley_theta.apps import efp_connection
from cayley_theta.characters import as_float_table, symmetric_character_table
from cayley_theta.cli import cli_dispatch
from cayley_theta.errors import InvalidArgument, NumericalFailure
from cayley_theta.simplex import (LpInstance, LpSolution, solve,
                                 verify_certificate)
from cayley_theta.theta import CayleyGraphSpec, build_lp_D

from oracles import brute_force_lp, reference_simplex


def F(*args):
    return Fraction(*args)


def test_simple_optimal():
    # max x1 + x2 s.t. x1 + x2 + s = 1
    inst = LpInstance(objective=(F(1), F(1), F(0)),
                      A=((F(1), F(1), F(1)),),
                      b=(F(1),))
    sol = solve(inst)
    assert sol.status == "optimal"
    assert sol.objective_value == 1
    assert verify_certificate(inst, sol)


def test_infeasible():
    inst = LpInstance(objective=(F(1),),
                      A=((F(1),), (F(1),)),
                      b=(F(1), F(2)))
    assert solve(inst).status == "infeasible"

    # x >= 0 with x = -1
    inst2 = LpInstance(objective=(F(0),), A=((F(1),),), b=(F(-1),))
    assert solve(inst2).status == "infeasible"


def test_unbounded():
    # max x1 s.t. x1 - x2 = 0
    inst = LpInstance(objective=(F(1), F(0)),
                      A=((F(1), F(-1)),),
                      b=(F(0),))
    assert solve(inst).status == "unbounded"


# a classical degenerate instance on which Dantzig's rule cycles
CYCLING = LpInstance(
    objective=(F(3, 4), F(-150), F(1, 50), F(-6), F(0), F(0), F(0)),
    A=((F(1, 4), F(-60), F(-1, 25), F(9), F(1), F(0), F(0)),
       (F(1, 2), F(-90), F(-1, 50), F(3), F(0), F(1), F(0)),
       (F(0), F(0), F(1), F(0), F(0), F(0), F(1))),
    b=(F(0), F(0), F(1)))


def test_degenerate_cycling_guard():
    # classical degenerate instance; Bland's rule must terminate
    sol = solve(CYCLING)
    assert sol.status == "optimal"
    assert sol.objective_value == Fraction(1, 20)
    assert verify_certificate(CYCLING, sol)


def test_redundant_rows():
    inst = LpInstance(objective=(F(2), F(1)),
                      A=((F(1), F(1)), (F(2), F(2)), (F(3), F(3))),
                      b=(F(5), F(10), F(15)))
    sol = solve(inst)
    assert sol.status == "optimal"
    assert sol.objective_value == 10
    assert verify_certificate(inst, sol)
    assert len(sol.dual) == 3   # dual padded back to original rows


def test_duality_exact():
    rng = random.Random(42)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(m, 5)
        A = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(n))
                  for _ in range(m))
        b = tuple(F(rng.randint(-3, 3)) for _ in range(m))
        c = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        inst = LpInstance(objective=c, A=A, b=b)
        sol = solve(inst)
        if sol.status != "optimal":
            continue
        assert verify_certificate(inst, sol)
        # weak duality: b.y equals the optimum exactly
        assert sum(bi * yi for bi, yi in zip(b, sol.dual)) == \
            sol.objective_value


def test_against_oracle_random_exact():
    rng = random.Random(2024)
    checked = 0
    for _ in range(120):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        A = tuple(tuple(F(rng.randint(-4, 4)) for _ in range(n))
                  for _ in range(m))
        b = tuple(F(rng.randint(-4, 4)) for _ in range(m))
        c = tuple(F(rng.randint(-4, 4)) for _ in range(n))
        inst = LpInstance(objective=c, A=A, b=b)
        sol = solve(inst)
        status, value = brute_force_lp(c, A, b)
        assert sol.status == status
        if status == "optimal":
            assert sol.objective_value == value
            assert verify_certificate(inst, sol)
            checked += 1
    assert checked >= 20


def _fraction_reference_instances():
    """CYCLING and 400 seeded LPs with redundant rows and rational data
    whose denominators differ from row to row."""
    rng = random.Random(77)

    def value():
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(-9, 9), rng.randint(1, 7))

    instances = [CYCLING]
    for _ in range(400):
        m = rng.randint(1, 5)
        n = rng.randint(1, 8)
        A = [tuple(value() for _ in range(n)) for _ in range(m)]
        b = [value() for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            A[-1], b[-1] = tuple(2 * v for v in A[0]), 2 * b[0]
        c = tuple(value() for _ in range(n))
        instances.append(LpInstance(objective=c, A=tuple(A), b=tuple(b)))
    return instances


def _reference(inst):
    return reference_simplex(inst.objective, inst.A, inst.b)


def _matches_reference_value(inst):
    """Exact ``solve`` has the reference's status and value, and its
    optimal answers pass the independent check."""
    sol = solve(inst)
    status, _, value, _, _ = _reference(inst)
    assert (sol.status, sol.objective_value) == (status, value)
    if status == "optimal":
        assert verify_certificate(inst, sol)
    return sol


def test_exact_solve_matches_fraction_reference():
    """Exact solve, guided by the float basis, reaches the reference's
    status and optimal value on the same LPs."""
    for inst in _fraction_reference_instances():
        _matches_reference_value(inst)


def test_exact_solve_when_the_float_stage_raises(monkeypatch, capsys):
    """With no float basis there is nothing to prove: exact solve raises
    NumericalFailure on every LP, and ``theta --exact`` exits 1 with a
    message, not a traceback."""
    def fail(A, b, c):
        raise NumericalFailure("forced")
    monkeypatch.setattr(simplex, "_float_basis", fail)
    for inst in _fraction_reference_instances():
        with pytest.raises(NumericalFailure):
            solve(inst)
    code = cli_dispatch(["theta", "--group", "sym:4", "--connection",
                         "efp:2", "--exact"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ("numerical failure: no exact route proves an answer: "
                   "the float stage gave no basis that LP duality "
                   "accepts\n")
    assert "Traceback" not in out + err


def test_float_phase_one_unbounded_is_a_numerical_failure(monkeypatch):
    """Phase I is bounded by 0, so 'unbounded' from it is a breakdown in
    doubles.  Forced at phase I's first pivot, where the artificials are
    still basic, float solve raises NumericalFailure instead of reading
    them as 'infeasible' on a feasible LP; exact solve, with no float
    basis left to prove, raises it too."""
    real = simplex._iterate

    def phase_one_stops(data, cost, basis, ncols, budget, *body):
        m = len(basis)
        if (cost[-m:] == -1).all() and not cost[:-m].any():
            return "unbounded", simplex._reprice(data, cost, basis)
        return real(data, cost, basis, ncols, budget, *body)

    monkeypatch.setattr(simplex, "_iterate", phase_one_stops)
    for number in (float, F):
        inst = LpInstance(objective=(number(1), number(1), number(0)),
                          A=((number(1), number(1), number(1)),),
                          b=(number(1),))
        with pytest.raises(NumericalFailure):
            solve(inst)


def _solve_with_float_stage(monkeypatch, stub):
    """Exact solve of every reference instance, with the float stage
    replaced by ``stub`` for the LP under test only; the auxiliary LPs
    keep the real one.  Every answer is the reference's status and
    value; only an optimal LP, whose stubbed basis ``_certify`` refused,
    may raise NumericalFailure.  Returns the count of each outcome."""
    real = simplex._float_basis
    under_test = []
    monkeypatch.setattr(simplex, "_float_basis", lambda A, b, c: (
        stub if A is under_test[0].A else real)(A, b, c))
    outcomes = Counter()
    for inst in _fraction_reference_instances():
        under_test[:] = [inst]
        try:
            outcomes[_matches_reference_value(inst).status] += 1
        except NumericalFailure:
            assert _reference(inst)[0] == "optimal"
            outcomes["failure"] += 1
    return outcomes


def test_exact_solve_refuses_a_wrong_float_basis(monkeypatch):
    """The float stage returns the optimal basis of the opposite
    objective: feasible, mostly not optimal.  A refused basis of an
    infeasible or unbounded LP still ends in the reference's status;
    one of an optimal LP ends in NumericalFailure, never in a wrong
    answer."""
    real = simplex._float_basis
    outcomes = _solve_with_float_stage(
        monkeypatch, lambda A, b, c: real(A, b, -c))
    # 206 infeasible, 121 unbounded, 18 optimal, 56 failures
    assert outcomes["failure"] >= 50 and outcomes["optimal"] >= 10
    assert outcomes["infeasible"] >= 100 and outcomes["unbounded"] >= 50


def test_exact_solve_from_a_random_basis(monkeypatch):
    """Random columns on random rows as the float basis: singular,
    infeasible or merely feasible; each ends at the reference's
    answer or, on an optimal LP, in NumericalFailure."""
    rng = random.Random(3)

    def random_basis(A, b, c):
        k = min(A.shape)
        return ("optimal", rng.sample(range(A.shape[1]), k),
                sorted(rng.sample(range(A.shape[0]), k)), None)
    outcomes = _solve_with_float_stage(monkeypatch, random_basis)
    # 206 infeasible, 121 unbounded, 16 optimal, 58 failures
    assert outcomes["failure"] >= 50
    assert outcomes["infeasible"] >= 100 and outcomes["unbounded"] >= 50


@pytest.mark.parametrize("unproved", ["_phase_one", "_ray"])
def test_exact_solve_with_an_unproved_auxiliary_lp(monkeypatch, unproved):
    """With the float stage failing on the LP itself and on one
    auxiliary LP, no answer rests on that LP.  Without phase I every LP
    raises NumericalFailure: a ray proves nothing about an LP not known
    to be feasible.  Without the ray LP an infeasible LP is still
    answered, and every feasible one raises."""
    real, build = simplex._float_basis, getattr(simplex, unproved)
    failing = []

    def float_stage(A, b, c):
        if any(A is lp.A for lp in failing):
            raise NumericalFailure("forced")
        return real(A, b, c)
    monkeypatch.setattr(simplex, "_float_basis", float_stage)
    monkeypatch.setattr(simplex, unproved, lambda inst: failing.append(
        build(inst)) or failing[-1])
    for inst in _fraction_reference_instances():
        failing[:] = [inst]
        if unproved == "_ray" and _reference(inst)[0] == "infeasible":
            assert solve(inst).status == "infeasible"
        else:
            with pytest.raises(NumericalFailure):
                solve(inst)


def test_every_exact_optimum_is_certified(monkeypatch):
    """Every answer of exact solve is an optimum that ``_certify``
    built: an optimum of the LP itself; for 'infeasible', an optimum
    below 0 of phase I, max -sum(s) over [A sign | I] (x, s) = b sign;
    for 'unbounded', an optimum 0 of phase I, then one above 0 of the
    ray LP, max c.d over A d = 0, sum(d) + t = 1.  Each auxiliary LP is
    rebuilt here and its optimum re-checked."""
    real = simplex._certify
    built = []
    monkeypatch.setattr(simplex, "_certify", lambda inst, *args: built.append(
        (inst, real(inst, *args))) or built[-1][1])

    def proved(entry, c, A, b):
        aux, proof = entry
        assert (aux.objective.tolist(), aux.A.tolist(), aux.b.tolist()) == \
            (c, A, b)
        assert verify_certificate(aux, proof)
        return proof.objective_value

    seen = set()
    for inst in _fraction_reference_instances():
        built.clear()
        sol = solve(inst)
        seen.add(sol.status)
        if sol.status == "optimal":
            assert built[-1][0] is inst and built[-1][1] is sol
            continue
        m, n = inst.m, inst.n
        A, b, c = inst.A.tolist(), inst.b.tolist(), inst.objective.tolist()
        sign = [-1 if v < 0 else 1 for v in b]
        phase_one = ([0] * n + [-1] * m,
                     [[s * v for v in row] + [int(i == j) for j in range(m)]
                      for i, (s, row) in enumerate(zip(sign, A))],
                     [s * v for s, v in zip(sign, b)])
        if sol.status == "infeasible":
            assert proved(built[-1], *phase_one) < 0
        else:
            assert proved(built[-2], *phase_one) == 0
            assert proved(built[-1], c + [0], [row + [0] for row in A] +
                          [[1] * (n + 1)], [0] * m + [1]) > 0
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_near_dependent_rows_fail_cleanly_or_agree():
    """Rational LPs whose last row is the float sum of two others, so
    the rows are independent only beyond double precision: exact solve
    either raises NumericalFailure, where the float stage's basis is
    refused, or gives the reference's status and value; never another
    status."""
    rng = random.Random(31)
    outcomes = Counter()
    for _ in range(150):
        m = rng.randint(3, 5)
        n = rng.randint(m, 7)
        A = [[rng.uniform(-5, 5) for _ in range(n)] for _ in range(m - 1)]
        b = [rng.uniform(-5, 5) for _ in range(m - 1)]
        A.append([u + v for u, v in zip(A[0], A[1])])
        b.append(b[0] + b[1])
        c = [rng.uniform(-5, 5) for _ in range(n)]
        inst = LpInstance(objective=tuple(map(F, c)),
                          A=tuple(tuple(map(F, row)) for row in A),
                          b=tuple(map(F, b)))
        try:
            outcomes[_matches_reference_value(inst).status] += 1
        except NumericalFailure:
            outcomes["failure"] += 1
    # 75 infeasible, 26 unbounded, 35 optimal, 14 failures
    assert all(outcomes[k] for k in (
        "optimal", "infeasible", "unbounded", "failure")), outcomes


def _lp(c, A, b):
    return LpInstance(objective=tuple(map(F, c)),
                      A=tuple(tuple(map(F, row)) for row in A),
                      b=tuple(map(F, b)))


def test_certify_proves_an_optimal_basis():
    # max x0 + x1, x0 + x1 + s = 1, and the redundant 2 x0 + 2 x1 + 2 s = 2
    inst = _lp((1, 1, 0), ((1, 1, 1), (2, 2, 2)), (1, 2))
    sol = simplex._certify(inst, [0], [0])
    assert (sol.x, sol.objective_value, sol.dual) == ((1, 0, 0), 1, (1, 0))
    assert all(type(v) is Fraction for v in sol.x + sol.dual)
    assert verify_certificate(inst, sol)


@pytest.mark.parametrize("c, A, b, basis, keep_rows", [
    # primal feasible (x = slack = 1), not optimal: c_0 = 1 > y.A_0 = 0
    ((1, 1, 0), ((1, 1, 1),), (1,), [2], [0]),
    # singular: column 1 is twice column 0
    ((1, 1, 0, 0), ((1, 2, 1, 0), (2, 4, 0, 1)), (1, 2), [0, 1], [0, 1]),
    # x_B = (2, -1) < 0, though y = (1, 0) prices every column
    ((1, 1, 0, 0), ((1, 1, 1, 0), (1, -1, 0, 1)), (1, 3), [0, 1], [0, 1]),
    # row 1 is dropped but not redundant: x_0 + x_3 = 2 != 1 at x
    ((1, 0, 0, 0), ((1, 1, 1, 0), (1, 0, 0, 1)), (2, 1), [0], [0]),
], ids=["not-optimal", "singular", "negative-x", "row-not-redundant"])
def test_certify_refuses(c, A, b, basis, keep_rows):
    assert simplex._certify(_lp(c, A, b), basis, keep_rows) is None


def test_exact_solve_proves_an_lp_with_a_dependent_row():
    """Row 2 is twice row 1 minus row 0.  The reference's phase I leaves
    the artificial of row 1 in tableau row 3, where no column can drive
    it out; exact solve proves the same optimum, -2, with a dual on the
    original rows."""
    inst = _lp((1, 2, 2, -3, 2),
               ((0, 0, 2, 0, -1), (2, 1, 3, -3, 0), (4, 2, 4, -6, 1),
                (0, -1, 0, -3, -1)),
               (4, 0, -4, -6))
    sol = solve(inst)
    assert sol.status == "optimal" and sol.objective_value == -2
    assert _reference(inst)[2] == -2
    assert len(sol.dual) == 4
    assert verify_certificate(inst, sol)


def _float_kernel_instances():
    """The cycling instance and 600 seeded rational LPs whose entries
    are doubles: redundant rows, integer data and data with no short
    binary expansion."""
    rng = random.Random(1905)
    instances = [CYCLING]
    for _ in range(600):
        m = rng.randint(1, 6)
        n = rng.randint(1, 9)
        integral = rng.random() < 0.5

        def value():
            if rng.random() < 0.25:
                return 0.0
            if integral:
                return float(rng.randint(-6, 6))
            return rng.uniform(-5, 5)
        A = [tuple(value() for _ in range(n)) for _ in range(m)]
        b = [value() for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            A[-1], b[-1] = tuple(2 * v for v in A[0]), 2 * b[0]
        c = tuple(value() for _ in range(n))
        instances.append(LpInstance(
            objective=tuple(F(v) for v in c),
            A=tuple(tuple(F(v) for v in row) for row in A),
            b=tuple(F(v) for v in b)))
    return instances


@pytest.mark.parametrize("bland_after", [simplex.DEGENERATE_RUN, 0],
                         ids=["dantzig", "bland"])
def test_float_kernel_matches_exact(monkeypatch, bland_after):
    """The float solver against exact solve on the same data (every
    double is a rational): the same status, the optimum within 1e-9
    relative, and every optimal float answer passes verify_certificate.
    Run once as configured and once with Bland's rule from the first
    pivot."""
    monkeypatch.setattr(simplex, "DEGENERATE_RUN", bland_after)
    statuses = set()
    for exact in _float_kernel_instances():
        inst = LpInstance(
            objective=tuple(float(v) for v in exact.objective),
            A=tuple(tuple(float(v) for v in row) for row in exact.A),
            b=tuple(float(v) for v in exact.b))
        want = solve(exact)
        got = solve(inst)
        assert got.status == want.status
        statuses.add(got.status)
        if got.status == "optimal":
            assert abs(got.objective_value - want.objective_value) <= \
                1e-9 * abs(want.objective_value)
            assert verify_certificate(inst, got)
            assert all(type(v) is float for v in got.x)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_float_pricing_passes_over_a_nan(monkeypatch):
    """A NaN reduced cost is never eligible: with d = (NaN, 1, 0) at the
    start, Dantzig's rule enters column 1, and the reprice at the claimed
    optimum, from NaN-free data, then enters column 0."""
    entered = []
    real = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda T, basis, row, col: (
        entered.append(col), real(T, basis, row, col)))
    data = np.array([[1.0, 1.0, 1.0, 1.0]])
    body = data.copy()
    body[0, 0] = np.nan
    basis = [2]
    status, T = simplex._iterate(data, np.array([5.0, 1.0, 0.0]), basis,
                                 3, [10, 10], body)
    assert (status, basis, entered, T[0, -1]) == ("optimal", [0], [1, 0], 1)


def _efp_instances():
    """Every efp:k LP on S_3-S_10 as solve_theta builds it, from the
    exact table and from its float copy."""
    instances = []
    for n in range(3, 11):
        table = symmetric_character_table(n)
        for k in range(1, n + 1):
            spec = CayleyGraphSpec(table.group,
                                   efp_connection(n, k, table.group))
            instances += [build_lp_D(spec, t).instance
                          for t in (table, as_float_table(table))]
    return instances


@pytest.mark.parametrize("lps, bland_after, pivots, digest", [
    (_efp_instances, simplex.DEGENERATE_RUN, 2626,
     "20dac00bb4b3110401241c4a1bab6af1fdc6d977ef816463d6000b37d50fefc0"),
    (_float_kernel_instances, simplex.DEGENERATE_RUN, 1349,
     "17a77171a95daaee02f35d8209707689cff6a7e6bb8ab26f02fe2bfd037e2f3d"),
    (_float_kernel_instances, 0, 1478,
     "32b33b53f1a288f3249bbbdb13f7ee6cbc4877f222e2c525ccbe95807459ecda"),
], ids=["efp", "sweep-dantzig", "sweep-bland"])
def test_float_stage_pinned(monkeypatch, lps, bland_after, pivots, digest):
    """The float stage itself, bit for bit: a sha256 over the status,
    basis, kept rows and the bytes of the basic values that
    ``_float_basis`` returns on each LP, and the number of pivots it
    makes.  Any change to the order or the rounding of the pivots'
    arithmetic shows here, also where no certificate pin sees it."""
    monkeypatch.setattr(simplex, "DEGENERATE_RUN", bland_after)
    count = [0]
    real = simplex._pivot

    def counted(*args):
        count[0] += 1
        return real(*args)
    monkeypatch.setattr(simplex, "_pivot", counted)
    sha = hashlib.sha256()
    for inst in lps():
        status, basis, keep_rows, values = simplex._float_basis(
            inst.A, inst.b, inst.objective)
        sha.update(repr((status, basis, keep_rows)).encode())
        sha.update(b"" if values is None else values.tobytes())
    assert (count[0], sha.hexdigest()) == (pivots, digest)


def test_float_mode_matches_exact():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        A = tuple(tuple(F(rng.randint(-4, 4)) for _ in range(n))
                  for _ in range(m))
        b = tuple(F(rng.randint(-4, 4)) for _ in range(m))
        c = tuple(F(rng.randint(-4, 4)) for _ in range(n))
        exact = solve(LpInstance(objective=c, A=A, b=b))
        approx = solve(LpInstance(
            objective=tuple(float(v) for v in c),
            A=tuple(tuple(float(v) for v in row) for row in A),
            b=tuple(float(v) for v in b)))
        assert approx.status == exact.status
        if exact.status == "optimal":
            assert abs(approx.objective_value -
                       float(exact.objective_value)) < 1e-7


def test_input_validation():
    """Empty, ragged, nested, mis-sized, string and complex data."""
    for c, A, b in [
            ((), (), ()),
            ((F(1),), ((F(1), F(2)),), (F(1),)),
            ((1, 2), ((1, 2), (3,)), (1, 2)),
            ((1, 2), ((1, 2), (3, (4, 5))), (1, 2)),
            ((1,), [np.zeros((2, 2)), np.zeros((2, 3))], (1,)),
            ((1,), ((1,),), (1, 2)),
            (("1",), ((1,),), (1,)),
            ((1,), ((1,),), ("1",)),
            ((1,), ((1j,),), (1,)),
            ((1.0,), np.array([[1 + 0j]]), (1.0,))]:
        with pytest.raises(InvalidArgument):
            LpInstance(objective=c, A=A, b=b)


def test_instance_dtype_is_read_from_the_data():
    """All-rational data (Python ints, Fractions, integer arrays) is
    held as dtype object with whole values as ints, and the instance is
    exact; one float anywhere makes all three arrays float64."""
    inst = LpInstance(objective=(F(1), 0), A=((F(3, 2), F(4, 2)),),
                      b=np.array([5]))
    assert inst.exact is True
    assert [X.dtype for X in (inst.objective, inst.A, inst.b)] == \
        [object] * 3
    values = inst.objective.tolist() + inst.A[0].tolist() + inst.b.tolist()
    assert values == [1, 0, F(3, 2), 2, 5]
    assert [type(v) for v in values] == [int, int, Fraction, int, int]

    inst = LpInstance(objective=(F(1), 0), A=((F(3, 2), 2),), b=(5.0,))
    assert inst.exact is False
    assert [X.dtype for X in (inst.objective, inst.A, inst.b)] == \
        [np.float64] * 3
    assert inst.A.tolist() == [[1.5, 2.0]]


def test_instance_arrays_are_read_only_copies():
    A = np.array([[1.0, 2.0]])
    inst = LpInstance(objective=(1.0, 0.0), A=A, b=(1.0,))
    assert A.flags.writeable
    for X in (inst.objective, inst.A, inst.b):
        with pytest.raises(ValueError):
            X[0] = 0


def test_verify_rejects_tampered_solution():
    inst = LpInstance(objective=(F(1), F(1), F(0)),
                      A=((F(1), F(1), F(1)),),
                      b=(F(1),))
    sol = solve(inst)
    from dataclasses import replace
    bad = replace(sol, objective_value=F(2), x=(F(2), F(0), F(-1)))
    res = verify_certificate(inst, bad)
    assert not res


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("x, dual, value", [
    ((NAN, NAN), (NAN,), NAN),
    ((0.5, 0.5), (NAN,), 1.0),
    ((0.5, 0.5), (1.0,), NAN),
    ((NAN, 0.5), (1.0,), 1.0),
    ((INF, 0.0), (1.0,), 1.0),
    ((0.5, 0.5), (INF,), 1.0),
    ((0.5, 0.5), (1.0,), -INF),
], ids=["all-nan", "nan-dual", "nan-value", "nan-x", "inf-x", "inf-dual",
        "inf-value"])
def test_verify_rejects_non_finite_certificates(x, dual, value):
    """Each check asks for a value within tolerance, so NaN and +-inf
    fail; the four NaN cases passed every check when the checks asked for a
    miss by more than the tolerance.  On max x1 + x2, x1 + x2 = 1."""
    inst = LpInstance(objective=(1.0, 1.0), A=((1.0, 1.0),), b=(1.0,))
    good = LpSolution(status="optimal", x=(0.5, 0.5), objective_value=1.0,
                      dual=(1.0,))
    assert verify_certificate(inst, good)
    claim = LpSolution(status="optimal", x=x, objective_value=value,
                       dual=dual)
    assert not verify_certificate(inst, claim)
