import random
from fractions import Fraction

import numpy as np
import pytest

from cayley_theta import simplex
from cayley_theta.errors import InvalidArgument, NumericalFailure
from cayley_theta.simplex import LpInstance, solve, verify_certificate

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


def test_exact_kernel_matches_fraction_reference():
    """The cold-start integer kernel takes the reference's pivots: same
    status, vertex, value, dual and basis."""
    seen = set()
    for inst in _fraction_reference_instances():
        sol = simplex._solve_exact_cold(inst)
        assert (sol.status, sol.x, sol.objective_value, sol.dual,
                sol.basis) == _reference(inst)
        seen.add(sol.status)
    assert seen == {"optimal", "infeasible", "unbounded"}


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


def test_exact_solve_when_the_float_stage_raises(monkeypatch):
    """A float failure falls back to the cold start, which is the
    reference pivot for pivot."""
    def fail(A, b, c):
        raise NumericalFailure("forced")
    monkeypatch.setattr(simplex, "_float_basis", fail)
    for inst in _fraction_reference_instances():
        sol = solve(inst)
        assert (sol.status, sol.x, sol.objective_value, sol.dual,
                sol.basis) == _reference(inst)


def test_exact_solve_refuses_a_wrong_float_basis(monkeypatch):
    """The float stage returns the optimal basis of the opposite
    objective: feasible, mostly not optimal.  Every basis that
    ``_certify`` refuses ends in the cold start, whose answer is the
    reference's: status, vertex, value, dual and basis."""
    real, real_cold = simplex._float_basis, simplex._solve_exact_cold
    guide, cold = [], []

    def opposite(A, b, c):
        result = real(A, b, -c)
        guide[:] = [result[0]]
        return result
    monkeypatch.setattr(simplex, "_float_basis", opposite)
    monkeypatch.setattr(simplex, "_solve_exact_cold",
                        lambda inst: cold.append(inst) or real_cold(inst))
    refused = dict.fromkeys(("optimal", "infeasible", "unbounded"), 0)
    for inst in _fraction_reference_instances():
        cold.clear()
        sol = _matches_reference_value(inst)
        if cold:
            assert (sol.status, sol.x, sol.objective_value, sol.dual,
                    sol.basis) == _reference(inst)
            refused[guide[0]] += 1
    # 383 cold starts, 67 of them from a refused optimal float basis
    assert refused["optimal"] >= 50 and sum(refused.values()) >= 300


def test_exact_solve_from_a_random_basis(monkeypatch):
    """Random columns on random rows as the float basis: singular,
    infeasible or merely feasible; each ends at the reference's
    answer."""
    rng = random.Random(3)

    def random_basis(A, b, c):
        k = min(A.shape)
        return ("optimal", rng.sample(range(A.shape[1]), k),
                sorted(rng.sample(range(A.shape[0]), k)), None)
    monkeypatch.setattr(simplex, "_float_basis", random_basis)
    for inst in _fraction_reference_instances():
        _matches_reference_value(inst)


def test_every_exact_optimum_is_certified(monkeypatch):
    """Whichever route it takes, an optimum that exact solve returns is
    one that ``_certify`` built."""
    real = simplex._certify
    built = []
    monkeypatch.setattr(simplex, "_certify", lambda *args: built.append(
        real(*args)) or built[-1])
    for inst in _fraction_reference_instances():
        built.clear()
        sol = solve(inst)
        if sol.status == "optimal":
            assert sol is built[-1]


def _lp(c, A, b):
    return LpInstance(objective=tuple(map(F, c)),
                      A=tuple(tuple(map(F, row)) for row in A),
                      b=tuple(map(F, b)))


def test_certify_proves_an_optimal_basis():
    # max x0 + x1, x0 + x1 + s = 1, and the redundant 2 x0 + 2 x1 + 2 s = 2
    inst = _lp((1, 1, 0), ((1, 1, 1), (2, 2, 2)), (1, 2))
    sol = simplex._certify(inst, [0], [0])
    assert (sol.x, sol.objective_value, sol.dual, sol.basis) == \
        ((1, 0, 0), 1, (1, 0), (0,))
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


def test_cold_start_drops_the_redundant_row_of_its_artificial():
    """Phase I leaves the artificial of row 1 in tableau row 3, and no
    column can drive it out.  Dropping row 3 left a singular basis on
    the kept rows, and the cold start returned no dual; dropping row 1,
    the artificial's own, gives a certified optimum."""
    inst = _lp((1, 2, 2, -3, 2),
               ((0, 0, 2, 0, -1), (2, 1, 3, -3, 0), (4, 2, 4, -6, 1),
                (0, -1, 0, -3, -1)),
               (4, 0, -4, -6))
    sol = simplex._solve_exact_cold(inst)
    assert sol.objective_value == -2
    assert verify_certificate(inst, sol)
    assert (sol.status, sol.x, sol.objective_value, sol.dual,
            sol.basis) == _reference(inst)


@pytest.mark.parametrize("bland_after", [simplex.DEGENERATE_RUN, 0],
                         ids=["dantzig", "bland"])
def test_float_kernel_matches_exact(monkeypatch, bland_after):
    """The float solver against exact solve on the same data (every
    double is a rational): the same status, the optimum within 1e-9
    relative, and every optimal float answer passes verify_certificate;
    on the cycling instance, redundant rows, integer data and data with
    no short binary expansion.  Run once as configured and once with
    Bland's rule from the first pivot."""
    monkeypatch.setattr(simplex, "DEGENERATE_RUN", bland_after)
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
    statuses = set()
    for exact in instances:
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
