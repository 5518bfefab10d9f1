import itertools
import math
from fractions import Fraction

import pytest

from cayley_theta import theta
from cayley_theta.apps import (EfpCell, count_fixing_at_least,
                               efp_cell, efp_conjectured_max, efp_connection,
                               efp_table, efp_table_csv, efp_table_grid,
                               gl_connection, gl_lower_bound)
from cayley_theta.characters import symmetric_character_table
from cayley_theta.errors import InvalidArgument, SizeLimit
from cayley_theta.graphs import ConnectionSet, alpha, build_cayley
from cayley_theta.groups import (SymmetricGroup, make_general_linear,
                                 make_symmetric)

from oracles import gl_pointwise_stabilizer


def test_s10_table_and_lp_build_no_element_array(monkeypatch):
    def refuse(self):
        raise AssertionError("element array built")

    monkeypatch.setattr(SymmetricGroup, "_perm_array", refuse)
    table = symmetric_character_table(10)
    for k in range(1, 11):
        assert efp_connection(10, k, table.group).size > 0
    spec = theta.CayleyGraphSpec(table.group,
                                 efp_connection(10, 1, table.group))
    assert theta.solve_theta(spec, table).objective == math.factorial(9)


def test_s8_element_sets_find_their_classes():
    """S_8, above the orbit sweep's bound, reads class membership from
    its permutation array: a transposition and its inverse are no union
    of classes, and the elements of X_{8,2} are the union of the classes
    of efp:2."""
    s8 = make_symmetric(8)
    assert not ConnectionSet.from_elements(
        s8, [1, s8.invert(1)]).conjugation_closed
    efp = efp_connection(8, 2, s8)
    assert ConnectionSet.from_elements(s8, efp.elements).as_classes == \
        efp.as_classes
    assert s8.class_of()[1] == 1    # a transposition has cycle type (2,1^6)


def brute_count_fixing_at_least(n, s, m):
    return sum(1 for p in itertools.permutations(range(n))
               if sum(1 for i in range(s) if p[i] == i) >= m)


def test_count_fixing_at_least_against_brute_force():
    for n in range(1, 7):
        for s in range(0, n + 1):
            for m in range(0, s + 1):
                assert count_fixing_at_least(n, s, m) == \
                    brute_count_fixing_at_least(n, s, m)


def test_efp_connection_sizes():
    # |X_{n,k}| = n! - #{>= k fixed points}
    for n in range(1, 7):
        for k in range(1, n + 1):
            X = efp_connection(n, k, make_symmetric(n))
            assert X.size == math.factorial(n) - \
                count_fixing_at_least(n, n, k)
            assert X.conjugation_closed
    s3, s4 = make_symmetric(3), make_symmetric(4)
    assert efp_connection(3, 1, s3).size == 2     # the two 3-cycles
    assert efp_connection(4, 1, s4).size == 9     # derangements of 4
    with pytest.raises(InvalidArgument):
        efp_connection(3, 0, s3)
    with pytest.raises(InvalidArgument):
        efp_connection(3, 4, s3)


def test_efp_membership_matches_fixed_point_count():
    s4 = make_symmetric(4)
    for k in (1, 2, 3):
        X = efp_connection(4, k, s4)
        for g in range(24):
            fixed = sum(1 for i, v in enumerate(s4.perm(g)) if v == i)
            assert (g in X.elements) == (fixed < k)


def test_efp_conjectured_max_values():
    # equals (n-k)! whenever n >= 2k+1
    for n in range(1, 9):
        for k in range(1, n + 1):
            if n >= 2 * k + 1:
                assert efp_conjectured_max(n, k) == math.factorial(n - k)
    # brute-force maximum over the candidate families
    for n in range(1, 7):
        for k in range(1, n + 1):
            want = max(brute_count_fixing_at_least(n, k + 2 * i, k + i)
                       for i in range((n - k) // 2 + 1))
            assert efp_conjectured_max(n, k) == want
    assert efp_conjectured_max(4, 2) == count_fixing_at_least(4, 2, 2)


def test_efp_cell_small():
    cell = efp_cell(symmetric_character_table(3), 1)
    assert cell.exact and cell.checkmark
    assert cell.theta == 2 == cell.conjectured_max
    cell42 = efp_cell(symmetric_character_table(4), 2)
    assert cell42.checkmark
    assert Fraction(cell42.theta) == cell42.conjectured_max


def test_efp_cell_builds_its_lp_once(monkeypatch):
    shapes = []

    def counting_build(spec, table):
        lp = build(spec, table)
        shapes.append((lp.instance.m, lp.instance.n))
        return lp

    build = theta.build_lp_D
    monkeypatch.setattr(theta, "build_lp_D", counting_build)
    cell = efp_cell(symmetric_character_table(5), 2)
    assert shapes == [(cell.lp_rows, cell.lp_cols)]


def test_efp_table_grid_and_csv(tmp_path):
    cells = efp_table(4)
    assert len(cells) == 1 + 2 + 3 + 4
    assert all(c.checkmark for c in cells)
    grid = efp_table_grid(cells)
    assert "x" in grid and "." not in grid
    path = tmp_path / "table.csv"
    efp_table_csv(cells, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("n,k,theta")
    assert len(lines) == 11


def test_efp_table_runs_to_the_symmetric_group_bound():
    """The grid reaches n = 10, the largest S_n the memory budget admits,
    with every cell exact; two of its gaps above n = 8 are pinned.  n = 11
    is refused as S_11 is, by the bytes of its permutation array."""
    cells = {(c.n, c.k): c for c in efp_table(10)}
    assert len(cells) == 55 and all(c.exact for c in cells.values())
    for n, k, value, conjectured in ((9, 6, 11, 9), (10, 5, 210, 132)):
        cell = cells[n, k]
        assert cell.theta == value and not cell.checkmark
        assert cell.conjectured_max == conjectured
    with pytest.raises(SizeLimit, match="S_11 needs 439084800 bytes"):
        efp_table(11)


def test_gl_connection_sizes():
    gl = make_general_linear(2, 2)
    assert gl_connection(2, 2, 1, gl).size == 2
    # q and n must name the group: q = 3 was once ignored for GL(2, 2)
    with pytest.raises(InvalidArgument, match="not GL"):
        gl_connection(3, 2, 1, gl)
    assert gl_connection(3, 2, 1, make_general_linear(3, 2)).size == 27
    # k = n: everything except the identity has rank(A - I) > 0
    assert gl_connection(2, 2, 2, gl).size == 5
    X = gl_connection(2, 2, 1, gl)
    assert X.conjugation_closed


def test_gl_lower_bound_and_stabilizer():
    assert gl_lower_bound(2, 2, 1) == 2
    assert gl_lower_bound(3, 2, 1) == 6
    assert gl_lower_bound(2, 2, 2) == 1
    for (q, n, k) in ((2, 2, 1), (3, 2, 1), (2, 2, 2)):
        group = make_general_linear(q, n)
        stab = gl_pointwise_stabilizer(group, k)
        assert len(stab) == gl_lower_bound(q, n, k)
        # the stabilizer is an independent set: differences fix k
        # independent vectors, so rank(AB^-1 - I) <= n - k
        X = gl_connection(q, n, k, group).elements
        for a in stab:
            for b in stab:
                if a != b:
                    assert group.products(a, group.invert(b)) not in X


def test_gl_alpha_meets_lower_bound():
    for (q, n, k) in ((2, 2, 1), (3, 2, 1)):
        group = make_general_linear(q, n)
        g = build_cayley(group, gl_connection(q, n, k, group))
        assert alpha(g).value == gl_lower_bound(q, n, k)
