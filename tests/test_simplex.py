import random
from fractions import Fraction

import pytest

from cayley_theta.errors import InvalidArgument, NumericalFailure
from cayley_theta.simplex import LpInstance, solve, verify_certificate

from oracles import brute_force_lp, reference_float_simplex, reference_simplex


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


def _same_as_reference(inst):
    sol = solve(inst)
    ref = reference_simplex(inst.objective, inst.A, inst.b)
    assert (sol.status, sol.x, sol.objective_value, sol.dual,
            sol.basis) == ref
    return sol.status


def test_exact_kernel_matches_fraction_reference():
    """The integer kernel takes the reference's pivots: same status,
    vertex, value, dual and basis, on redundant rows and on rational
    data whose denominators differ from row to row."""
    rng = random.Random(77)

    def value():
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(-9, 9), rng.randint(1, 7))

    seen = {_same_as_reference(CYCLING)}
    for _ in range(400):
        m = rng.randint(1, 5)
        n = rng.randint(1, 8)
        A = [tuple(value() for _ in range(n)) for _ in range(m)]
        b = [value() for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            A[-1], b[-1] = tuple(2 * v for v in A[0]), 2 * b[0]
        c = tuple(value() for _ in range(n))
        seen.add(_same_as_reference(
            LpInstance(objective=c, A=tuple(A), b=tuple(b))))
    assert seen == {"optimal", "infeasible", "unbounded"}


def _float_outcome(solver, inst):
    try:
        return repr(solver(inst))
    except NumericalFailure as exc:
        return f"NumericalFailure: {exc}"


def test_float_kernel_matches_list_reference():
    """The float kernel on numpy rows returns the list-of-floats
    kernel's solution bit for bit (repr round-trips every double, and
    shows a numpy scalar as such), or raises the same NumericalFailure:
    on the cycling instance, redundant rows, integer data and data
    with no short binary expansion."""
    rng = random.Random(1905)
    instances = [LpInstance(
        objective=tuple(float(v) for v in CYCLING.objective),
        A=tuple(tuple(float(v) for v in row) for row in CYCLING.A),
        b=tuple(float(v) for v in CYCLING.b), exact=False)]
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
        instances.append(LpInstance(objective=c, A=tuple(A), b=tuple(b),
                                    exact=False))
    statuses = set()
    for inst in instances:
        got = _float_outcome(solve, inst)
        assert got == _float_outcome(reference_float_simplex, inst)
        statuses.add(got.split("'")[1] if got.startswith("Lp") else got)
        if "optimal" in got:
            assert all(type(v) is float for v in solve(inst).x)
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
            b=tuple(float(v) for v in b), exact=False))
        assert approx.status == exact.status
        if exact.status == "optimal":
            assert abs(approx.objective_value -
                       float(exact.objective_value)) < 1e-7


def test_input_validation():
    with pytest.raises(InvalidArgument):
        LpInstance(objective=(), A=(), b=())
    with pytest.raises(InvalidArgument):
        LpInstance(objective=(F(1),), A=((F(1), F(2)),), b=(F(1),))
    with pytest.raises(InvalidArgument):
        LpInstance(objective=(0.5,), A=((F(1),),), b=(F(1),), exact=True)


def test_verify_rejects_tampered_solution():
    inst = LpInstance(objective=(F(1), F(1), F(0)),
                      A=((F(1), F(1), F(1)),),
                      b=(F(1),))
    sol = solve(inst)
    from dataclasses import replace
    bad = replace(sol, objective_value=F(2), x=(F(2), F(0), F(-1)))
    res = verify_certificate(inst, bad)
    assert not res
