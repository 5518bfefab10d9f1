import itertools

import numpy as np
import pytest

from cayley_theta.errors import InvalidArgument, NotAGroup
from cayley_theta.groups import (action_from_generators, action_from_table,
                                 conjugacy_classes, cycle_type,
                                 export_cayley_table,
                                 import_cayley_table, make_abelian_product,
                                 make_from_table, make_general_linear,
                                 make_symmetric, partitions, perm_rank,
                                 perm_unrank, same_group)

from oracles import check_axioms, reference_classes


def test_perm_rank_roundtrip():
    for n in (1, 2, 3, 4, 5):
        for r in range(0, 120 if n == 5 else None or 24):
            if r >= 1 and r >= __import__("math").factorial(n):
                break
            assert perm_rank(perm_unrank(r, n)) == r
    assert perm_unrank(0, 4) == (0, 1, 2, 3)


def test_abelian_examples():
    z5 = make_abelian_product([5])
    assert z5.order == 5
    assert len(conjugacy_classes(z5)) == 5
    assert all(c.size == 1 for c in conjugacy_classes(z5))

    klein = make_abelian_product([2, 2])
    assert klein.order == 4
    assert all(klein.invert(g) == g for g in range(4))

    with pytest.raises(InvalidArgument):
        make_abelian_product([1, 3])
    with pytest.raises(InvalidArgument):
        make_abelian_product([])


def test_z2xz3_isomorphic_to_z6():
    # brute-force isomorphism search between Z2 x Z3 and Z6
    a = make_abelian_product([2, 3])
    b = make_abelian_product([6])
    found = False
    for phi in itertools.permutations(range(6)):
        if phi[0] != 0:
            continue
        if all(phi[a.multiply(x, y)] == b.multiply(phi[x], phi[y])
               for x in range(6) for y in range(6)):
            found = True
            break
    assert found


def test_symmetric_examples():
    s3 = make_symmetric(3)
    assert s3.order == 6
    labels = [c.label for c in conjugacy_classes(s3)]
    assert labels == ["(1,1,1)", "(2,1)", "(3)"]
    assert [c.size for c in conjugacy_classes(s3)] == [1, 3, 2]

    s4 = make_symmetric(4)
    assert s4.order == 24
    assert [c.size for c in conjugacy_classes(s4)] == [1, 6, 3, 8, 6]

    s1 = make_symmetric(1)
    assert s1.order == 1

    with pytest.raises(InvalidArgument):
        make_symmetric(0)
    with pytest.raises(InvalidArgument):
        make_symmetric(11)


def test_symmetric_composition_convention():
    # right factor acts first: (p*q)(i) = p(q(i))
    s3 = make_symmetric(3)
    p = perm_rank((1, 0, 2))   # swap 0,1
    q = perm_rank((0, 2, 1))   # swap 1,2
    pq = s3.multiply(p, q)
    assert s3.perm(pq) == tuple(s3.perm(p)[s3.perm(q)[i]] for i in range(3))


def test_general_linear_examples():
    gl22 = make_general_linear(2, 2)
    assert gl22.order == 6
    assert gl22.matrices[0] == ((1, 0), (0, 1))

    gl23 = make_general_linear(3, 2)
    assert gl23.order == 48

    gl12 = make_general_linear(2, 1)
    assert gl12.order == 1

    with pytest.raises(InvalidArgument):
        make_general_linear(6, 2)       # not a prime power
    with pytest.raises(InvalidArgument):
        make_general_linear(3, 3)       # order 11232 > bound


def test_gl22_classes_match_s3():
    sizes = sorted(c.size for c in conjugacy_classes(make_general_linear(2, 2)))
    assert sizes == [1, 2, 3]


def test_prime_power_field_arithmetic():
    from cayley_theta.groups import FiniteField
    for q in (4, 8, 9):
        f = FiniteField(q)
        # field axioms on the tables
        for a in range(q):
            assert f.add[a][0] == a and f.mul[a][1] == a
            assert f.mul[a][0] == 0
            if a:
                assert f.mul[a][f.inv[a]] == 1
        for a in range(q):
            for b in range(q):
                assert f.add[a][b] == f.add[b][a]
                assert f.mul[a][b] == f.mul[b][a]
        # multiplicative group is cyclic of order q-1: some generator exists
        def order(a):
            x, k = a, 1
            while x != 1:
                x = f.mul[x][a]
                k += 1
            return k
        assert any(order(a) == q - 1 for a in range(2, q))


def test_from_table_roundtrip_and_errors():
    assert make_from_table([[0]]).order == 1

    s3 = make_symmetric(3)
    table = [[s3.multiply(a, b) for b in range(6)] for a in range(6)]
    g = make_from_table(table)
    assert g.order == 6
    assert all(g.multiply(a, b) == s3.multiply(a, b)
               for a in range(6) for b in range(6))

    # a Latin square of order 5 with identity that is not associative:
    # (1*1)*2 = 2 but 1*(1*2) = 4
    latin = [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 3, 4, 0, 1],
             [3, 4, 1, 2, 0],
             [4, 2, 0, 1, 3]]
    rows_ok = all(sorted(r) == list(range(5)) for r in latin)
    cols_ok = all(sorted(latin[i][j] for i in range(5)) == list(range(5))
                  for j in range(5))
    assert rows_ok and cols_ok
    with pytest.raises(NotAGroup):
        make_from_table(latin)


def test_axioms_exhaustive_small_groups():
    for group in (make_symmetric(4), make_abelian_product([12]),
                  make_general_linear(2, 2), make_general_linear(3, 2)):
        assert group.order <= 200
        check_axioms(group)


def _small_table_group():
    # the dihedral group of order 8, relabelled so its identity is not 0
    d4 = action_from_generators([(1, 2, 3, 0), (0, 3, 2, 1)]).group
    sigma = [3, 1, 2, 0, 4, 5, 6, 7]
    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            table[sigma[a]][sigma[b]] = sigma[d4.multiply(a, b)]
    return make_from_table(table)


def test_array_products_match_single_products():
    for group in (make_symmetric(4), make_abelian_product([3, 4]),
                  make_abelian_product([2, 2, 2]), make_general_linear(3, 2),
                  make_general_linear(4, 2), _small_table_group()):
        n = group.order
        table = group.products(np.arange(n)[:, None], np.arange(n)[None, :])
        assert table.tolist() == [[group.multiply(a, b) for b in range(n)]
                                  for a in range(n)]
        assert group.inverses().tolist() == [group.invert(a)
                                             for a in range(n)]
        # a single index on either side broadcasts
        assert group.products(n - 1, np.arange(n)).tolist() == \
            table[n - 1].tolist()
        assert group.products(np.arange(n), 1).tolist() == \
            table[:, 1].tolist()


def test_generic_classes_match_reference():
    closure = action_from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    for group in (make_general_linear(3, 2), make_general_linear(4, 2),
                  make_general_linear(5, 2), closure.group):
        classes = conjugacy_classes(group)
        assert classes == reference_classes(group)
        assert all(type(v) is int for c in classes
                   for v in (c.representative, c.size, c.inverse_class,
                             *c.members))
        assert all(type(group.class_index_of(g)) is int
                   for g in range(group.order))


def test_action_table_reports_first_failing_triple():
    """The first (g, h, p), in that loop order, with g.(h.p) != (gh).p;
    pinned from the check that made one multiply call per pair."""
    z5 = make_abelian_product([5])
    regular = [[z5.multiply(g, p) for p in range(5)] for g in range(5)]
    regular[3][1], regular[3][2] = regular[3][2], regular[3][1]
    with pytest.raises(InvalidArgument, match=r"not an action: \(1,2,1\)$"):
        action_from_table(z5, regular)
    s5 = make_symmetric(5)
    natural = [list(s5.perm(g)) for g in range(s5.order)]
    assert action_from_table(s5, natural).point_count == 5
    natural[77][3], natural[77][4] = natural[77][4], natural[77][3]
    with pytest.raises(InvalidArgument, match=r"not an action: \(1,77,3\)$"):
        action_from_table(s5, natural)


@pytest.mark.parametrize("bad", [7, -1])
def test_action_table_rejects_entries_outside_the_points(bad):
    z5 = make_abelian_product([5])
    regular = [[z5.multiply(g, p) for p in range(5)] for g in range(5)]
    regular[2][3] = bad
    with pytest.raises(InvalidArgument, match=r"points 0\.\.4$"):
        action_from_table(z5, regular)
    # also above the order that gates the exhaustive axiom check
    z211 = make_abelian_product([211])
    elements = np.arange(211)
    regular = z211.products(elements[:, None], elements).tolist()
    regular[100][5] = 211 if bad > 0 else bad
    with pytest.raises(InvalidArgument, match=r"points 0\.\.210$"):
        action_from_table(z211, regular)


def test_same_group_needs_same_kind_and_numbering():
    s3 = make_symmetric(3)
    order_six = [s3, make_general_linear(2, 2), make_abelian_product([6]),
                 make_abelian_product([2, 3]),
                 make_from_table([[s3.multiply(a, b) for b in range(6)]
                                  for a in range(6)])]
    for i, a in enumerate(order_six):
        for j, b in enumerate(order_six):
            assert same_group(a, b) == (i == j)
    assert same_group(make_symmetric(3), s3)
    assert same_group(make_general_linear(2, 2), order_six[1])
    assert same_group(make_abelian_product([2, 3]), order_six[3])
    assert not same_group(make_abelian_product([3, 2]), order_six[3])


def test_class_equation_and_partition_counts():
    expected_counts = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
    for n, count in expected_counts.items():
        assert len(partitions(n)) == count
    for group in (make_symmetric(4), make_symmetric(5),
                  make_general_linear(3, 2), make_abelian_product([2, 3])):
        classes = conjugacy_classes(group)
        assert sum(c.size for c in classes) == group.order


def test_inverse_class_involution():
    for group in (make_symmetric(5), make_general_linear(3, 2),
                  make_abelian_product([5])):
        classes = conjugacy_classes(group)
        for i, c in enumerate(classes):
            assert classes[c.inverse_class].inverse_class == i
    # S_n classes are all self-paired
    for n in range(1, 9):
        for c in conjugacy_classes(make_symmetric(n)):
            pass
    for n in (3, 4, 5, 6, 7, 8):
        classes = conjugacy_classes(make_symmetric(n))
        assert all(c.inverse_class == i for i, c in enumerate(classes))


def test_class_members_mutually_conjugate():
    group = make_general_linear(3, 2)
    classes = conjugacy_classes(group)
    for idx, c in enumerate(classes):
        for m in c.members:
            assert group.class_index_of(m) == idx
    # spot check: conjugating stays in class
    for idx, c in enumerate(classes):
        g = c.representative
        for h in range(0, group.order, 7):
            conj = group.multiply(group.multiply(h, g), group.invert(h))
            assert group.class_index_of(conj) == idx


def test_sn_class_sizes_formula():
    import math
    for n in (4, 5, 6):
        group = make_symmetric(n)
        classes = conjugacy_classes(group)
        assert sum(c.size for c in classes) == math.factorial(n)
        # sizes agree with exhaustive cycle-type counting
        if n <= 5:
            counts = {}
            for r in range(group.order):
                t = cycle_type(perm_unrank(r, n))
                counts[t] = counts.get(t, 0) + 1
            for mu, c in zip(partitions(n), classes):
                assert counts[mu] == c.size


def test_cayley_table_file_roundtrip(tmp_path):
    s3 = make_symmetric(3)
    path = tmp_path / "s3.txt"
    export_cayley_table(s3, path)
    g = import_cayley_table(path)
    assert g.order == 6
    assert all(g.multiply(a, b) == s3.multiply(a, b)
               for a in range(6) for b in range(6))
