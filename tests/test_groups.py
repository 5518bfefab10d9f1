import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import make_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cayley_theta import groups
from cayley_theta.apps import gl_connection
from cayley_theta.characters import abelian_character_table
from cayley_theta.errors import InvalidArgument, NotAGroup, SchemaError
from cayley_theta.groups import (GroupAction, cycle_type,
                                 export_cayley_table, import_cayley_table,
                                 make_abelian_product, make_from_table,
                                 make_general_linear, make_symmetric,
                                 partitions, perm_rank, perm_unrank,
                                 same_group)

from oracles import (action_axiom_failures, action_from_generators,
                     check_axioms, gl_pointwise_stabilizer, matrix_product,
                     reference_classes, shift_rank)


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
    assert len(z5.conjugacy_classes()) == 5
    assert all(c.size == 1 for c in z5.conjugacy_classes())

    klein = make_abelian_product([2, 2])
    assert klein.order == 4
    assert all(klein.invert(g) == g for g in range(4))

    with pytest.raises(InvalidArgument):
        make_abelian_product([1, 3])
    with pytest.raises(InvalidArgument):
        make_abelian_product([])


@pytest.mark.parametrize("moduli", [[701], [2] * 7, [3, 4, 5]])
def test_abelian_labels_from_the_digits_match_element_label(moduli):
    """The labels made in one pass over the digits, as the classes and
    the character table carry them, are ``element_label``'s byte for
    byte."""
    group = make_abelian_product(moduli)
    want = [group.element_label(g) for g in range(group.order)]
    assert group.element_labels() == want
    assert [c.label for c in group.conjugacy_classes()] == want
    table = abelian_character_table(group)
    assert table.irrep_labels == tuple("chi" + label for label in want)


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
    labels = [c.label for c in s3.conjugacy_classes()]
    assert labels == ["(1,1,1)", "(2,1)", "(3)"]
    assert [c.size for c in s3.conjugacy_classes()] == [1, 3, 2]

    s4 = make_symmetric(4)
    assert s4.order == 24
    assert [c.size for c in s4.conjugacy_classes()] == [1, 6, 3, 8, 6]

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
    assert gl22.matrices[0].tolist() == [[1, 0], [0, 1]]
    assert not gl22.matrices.flags.writeable

    gl23 = make_general_linear(3, 2)
    assert gl23.order == 48

    gl12 = make_general_linear(2, 1)
    assert gl12.order == 1

    with pytest.raises(InvalidArgument):
        make_general_linear(6, 2)       # not a prime power
    with pytest.raises(InvalidArgument):
        make_general_linear(3, 3)       # order 11232 > bound


def matrix_tuples(group) -> tuple:
    """The matrices of GL(n, q) as tuples of row tuples, the layout of
    ``matrix_product``."""
    return tuple(tuple(map(tuple, m)) for m in group.matrices.tolist())


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (2, 3), (5, 2)])
def test_gl_arithmetic_against_field_table_oracles(q, n):
    group = make_general_linear(q, n)
    f, mats = group.field, matrix_tuples(group)
    everything = np.arange(group.order)
    table = group.products(everything[:, None], everything).tolist()
    for a, row in enumerate(table):
        assert [mats[c] for c in row] == [matrix_product(f, mats[a], B)
                                          for B in mats]
    assert not group.products(everything, group.inverses()).any()
    shifted = f.add[group.matrices, f.neg[np.eye(n, dtype=np.int64)]]
    ranks = [shift_rank(f, A) for A in mats]
    assert group.ranks(shifted).tolist() == ranks
    for k in range(1, n + 1):
        assert gl_connection(q, n, k, group).elements == tuple(
            a for a, r in enumerate(ranks) if r > n - k)


GL_CASES = [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (5, 2), (7, 2), (8, 2),
            (9, 2), (2, 3)]
# the class record as the pin hashed it, with the tuple of its members
_PinnedClass = make_dataclass(
    "ConjugacyClass",
    ["representative", "size", "label", "inverse_class", "members"])


def _gl_digest(q, n):
    """sha256 over the matrices, products, inverses, classes, rank
    connection sets and stabilizers of GL(n, q).  Products cover every
    pair up to order 500 and 64 seeded rows above it."""
    group = make_general_linear(q, n)
    h = hashlib.sha256(repr(matrix_tuples(group)).encode())
    everything = np.arange(group.order)
    rng = np.random.default_rng(0)
    rows = everything if group.order <= 500 else np.sort(
        rng.choice(group.order, size=64, replace=False))
    h.update(group.products(rows[:, None], everything)
             .astype("<i8").tobytes())
    h.update(group.inverses().astype("<i8").tobytes())
    h.update(repr([group.invert(a) for a in range(group.order)]).encode())
    pairs = rng.integers(0, group.order, size=(500, 2)).tolist()
    h.update(repr([group.multiply(a, b) for a, b in pairs]).encode())
    class_of = group.class_of()
    h.update(repr(tuple(
        _PinnedClass(c.representative, c.size, c.label, c.inverse_class,
                     tuple(np.flatnonzero(class_of == idx).tolist()))
        for idx, c in enumerate(group.conjugacy_classes()))).encode())
    for k in range(1, n + 1):
        conn = gl_connection(q, n, k, group)
        h.update(repr((conn.elements, conn.as_classes)).encode())
        h.update(repr(gl_pointwise_stabilizer(group, k)).encode())
    return h.hexdigest()


def test_gl_outputs_pinned():
    # taken from the scalar Gauss-Jordan and matrix product that built
    # GL(n, q) before the batched elimination
    digest = hashlib.sha256("".join(
        _gl_digest(q, n) for q, n in GL_CASES).encode()).hexdigest()
    assert digest == \
        "ba1c6fc323dc9fd3daed5cb541417498f9fc039e6b8a2a73afc92989d3ff0a68"


def test_gl22_classes_match_s3():
    sizes = sorted(c.size for c in make_general_linear(2, 2).conjugacy_classes())
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


def test_sn_element_array_is_lexicographic_int8():
    """The S_n permutation array is built from that of S_(n-1); row r is
    the r-th of ``itertools.permutations``, as int8."""
    for n in range(1, 9):
        perms = make_symmetric(n)._perm_array()
        assert perms.dtype == np.int8
        assert perms.tolist() == [
            list(p) for p in itertools.permutations(range(n))]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_symmetric_products_in_every_shape(n):
    """S_n products against composing the permutation tuples, the right
    factor first, for scalars and index arrays of every shape."""
    group = make_symmetric(n)
    perms = [group.perm(r) for r in range(group.order)]

    def compose(a, b):
        return perm_rank(tuple(perms[a][i] for i in perms[b]))

    last = np.int64(group.order - 1)
    single = group.products(last, np.int64(group.order // 2))
    assert single.shape == () and int(single) == compose(
        group.order - 1, group.order // 2)
    everything = np.arange(group.order)
    table = [[compose(a, b) for b in everything] for a in everything]
    assert group.products(last, everything).tolist() == table[-1]
    assert group.products(everything, 0).tolist() == \
        [row[0] for row in table]
    assert group.products(everything[:, None], everything[None, :]).tolist() \
        == table
    rng = np.random.default_rng(n)
    a = rng.integers(0, group.order, size=(3, 4, 5))
    b = rng.integers(0, group.order, size=(4, 1))
    want = [[[compose(x, y) for x in row] for row, (y,) in zip(block, b)]
            for block in a.tolist()]
    assert group.products(a, b).tolist() == want


@pytest.mark.parametrize("n", range(1, 11))
def test_symmetric_products_match_multiply(n):
    """S_n products, ranked by their Lehmer code, against the scalar
    ``multiply``: every pair up to S_5, 2,000 seeded pairs from S_6 on."""
    group = make_symmetric(n)
    if n <= 5:
        a, b = np.divmod(np.arange(group.order ** 2), group.order)
    else:
        a, b = np.random.default_rng(n).integers(0, group.order, (2, 2000))
    got = group.products(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == [group.multiply(x, y)
                            for x, y in zip(a.tolist(), b.tolist())]


def test_symmetric_products_broadcast_and_group_laws():
    """S_6 products of scalars and 0-, 1- and 2-D index arrays under
    broadcasting, against ``multiply``; the identity and inverse laws
    through ``inverses()``."""
    group = make_symmetric(6)
    rng = np.random.default_rng(6)
    x, y = (int(v) for v in rng.integers(0, group.order, 2))
    for a, b in [(x, y), (np.int64(x), y), (np.array(x), np.array(y))]:
        single = group.products(a, b)
        assert np.shape(single) == () and int(single) == group.multiply(x, y)
    a = rng.integers(0, group.order, size=(7, 1))
    b = rng.integers(0, group.order, size=(1, 9))
    for left, right in [(a[:, 0], y), (x, b[0]), (a, b), (a, b[0]),
                        (a[:, 0], b[0, :7])]:
        got = group.products(left, right)
        want = np.vectorize(group.multiply)(left, right)
        assert got.shape == want.shape and got.tolist() == want.tolist()
    everything = np.arange(group.order)
    inverse = group.inverses()
    assert (group.products(everything, 0) == everything).all()
    assert (group.products(0, everything) == everything).all()
    assert not group.products(everything, inverse).any()
    assert not group.products(inverse, everything).any()
    # (ab)^-1 = b^-1 a^-1
    assert (inverse[group.products(a, b)] ==
            group.products(inverse[b], inverse[a])).all()
    assert inverse.tolist() == [group.invert(g) for g in everything.tolist()]


def test_symmetric_counts_fit_int8():
    """Permutation entries and each Lehmer digit are at most n - 1, kept
    in int8, so no S_n up to MAX_N can overflow them."""
    assert groups.SymmetricGroup.MAX_N - 1 <= np.iinfo(np.int8).max


def test_symmetric_kernels_run_in_bounded_memory():
    """The S_9 permutation array is the only n!-sized array the group
    builds: no int64 array of n! sort keys comes back beside it (that
    array alone was 2.9 MB).  One ``build_cayley`` block of S_6 products
    stays within a few times the block's int64 result."""
    group = make_symmetric(9)
    tracemalloc.start()
    try:
        perms = group._perm_array()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < perms.nbytes + 2 ** 16
    assert peak < 1.5 * perms.nbytes
    s6 = make_symmetric(6)
    s6._perm_array()
    xs = np.arange(s6.order)[:, None]
    side = np.arange(1, s6.order)
    cols = groups.blocks(len(side), xs.nbytes)[0]
    tracemalloc.start()
    try:
        block = s6.products(xs, side[None, cols])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.shape == (s6.order, cols.stop)
    assert peak < 4 * block.nbytes


def test_symmetric_class_of_reads_the_array(monkeypatch):
    """S_7's ``class_of`` (where one ``cycle_type`` call per element once
    took 17 ms) is read from the permutation array: it equals the
    per-element cycle-type oracle while ``groups.cycle_type`` raises."""
    index_of_type = {mu: i for i, mu in enumerate(partitions(7))}
    want = [index_of_type[cycle_type(p)]
            for p in itertools.permutations(range(7))]

    def refuse(perm):
        raise AssertionError("cycle_type called")

    monkeypatch.setattr(groups, "cycle_type", refuse)
    assert make_symmetric(7).class_of().tolist() == want


@pytest.mark.parametrize("q", [8, 9])
def test_gl_extension_field_products_against_oracle(q):
    group = make_general_linear(q, 2)
    f, mats = group.field, matrix_tuples(group)
    a, b = np.random.default_rng(q).integers(0, group.order, size=(2, 2000))
    assert [mats[c] for c in group.products(a, b).tolist()] == [
        matrix_product(f, mats[x], mats[y])
        for x, y in zip(a.tolist(), b.tolist())]


def test_generic_classes_match_reference():
    closure = action_from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    for group in (make_general_linear(3, 2), make_general_linear(4, 2),
                  make_general_linear(5, 2), closure.group):
        classes = group.conjugacy_classes()
        assert (classes, group.class_of().tolist()) == \
            reference_classes(group)
        assert all(type(v) is int for c in classes
                   for v in (c.representative, c.size, c.inverse_class))
        assert all(type(group.class_index_of(g)) is int
                   for g in range(group.order))


def _class_of_cases():
    s3 = make_symmetric(3)
    everything = np.arange(s3.order)
    return ([make_abelian_product([12]), make_abelian_product([2, 2, 2]),
             make_general_linear(3, 2), make_general_linear(2, 3),
             make_from_table(s3.products(everything[:, None], everything))]
            + [make_symmetric(n) for n in range(1, 8)])


@pytest.mark.parametrize("group", _class_of_cases(),
                         ids=lambda g: f"{type(g).__name__}-{g.order}")
def test_class_of_matches_reference_membership(group):
    classes, membership = reference_classes(group)
    class_of = group.class_of()
    assert class_of.shape == (group.order,)
    assert not class_of.flags.writeable
    # the reference numbers the classes by their smallest members, as
    # every group does but S_n, which numbers them in partition order
    seen = {}
    assert [seen.setdefault(idx, len(seen))
            for idx in class_of.tolist()] == membership
    if not isinstance(group, groups.SymmetricGroup):
        assert class_of.tolist() == membership
    assert np.bincount(class_of).tolist() == [
        c.size for c in group.conjugacy_classes()]
    for g in range(group.order):
        idx = group.class_index_of(g)
        assert type(idx) is int and idx == class_of[g]


def _fails(group, table, g, h, p):
    return table[g][table[h][p]] != table[group.multiply(g, h)][p]


def test_action_table_reports_first_failing_triple():
    """The first (g, h, p), in the order (generator h, then g, then p),
    with g.(h.p) != (gh).p; each one a real failure of the axiom."""
    z5 = make_abelian_product([5])
    assert list(z5.generators()) == [1]
    regular = [[z5.multiply(g, p) for p in range(5)] for g in range(5)]
    regular[3][1], regular[3][2] = regular[3][2], regular[3][1]
    with pytest.raises(InvalidArgument, match=r"not an action: \(2,1,1\)$"):
        GroupAction(z5, regular)
    assert _fails(z5, regular, 2, 1, 1)
    assert (2, 1, 1) in action_axiom_failures(z5, regular)
    s5 = make_symmetric(5)
    natural = [list(s5.perm(g)) for g in range(s5.order)]
    assert GroupAction(s5, natural).point_count == 5
    natural[77][3], natural[77][4] = natural[77][4], natural[77][3]
    with pytest.raises(InvalidArgument, match=r"not an action: \(76,1,3\)$"):
        GroupAction(s5, natural)
    assert _fails(s5, natural, 76, 1, 3)


@pytest.mark.parametrize("bad", [7, -1])
def test_action_table_rejects_entries_outside_the_points(bad):
    z5 = make_abelian_product([5])
    regular = [[z5.multiply(g, p) for p in range(5)] for g in range(5)]
    regular[2][3] = bad
    with pytest.raises(InvalidArgument, match=r"points 0\.\.4$"):
        GroupAction(z5, regular)
    # the same on Z_211: the range is checked before the action axiom
    z211 = make_abelian_product([211])
    elements = np.arange(211)
    regular = z211.products(elements[:, None], elements).tolist()
    regular[100][5] = 211 if bad > 0 else bad
    with pytest.raises(InvalidArgument, match=r"points 0\.\.210$"):
        GroupAction(z211, regular)


def test_action_axiom_is_checked_at_every_order():
    """Z_211 acting on itself with two entries of row 3 swapped is not
    an action; nor is Z_2003 on C_2003 with row 1 turned into a
    reflection.  Both are refused, as the same defect on Z_5 is."""
    z211 = make_abelian_product([211])
    elements = np.arange(211)
    regular = z211.products(elements[:, None], elements)
    assert GroupAction(z211, regular).point_count == 211
    regular[3, [1, 2]] = regular[3, [2, 1]]
    with pytest.raises(InvalidArgument, match=r"not an action: \(2,1,1\)$"):
        GroupAction(z211, regular)
    z2003 = make_abelian_product([2003])
    rows = (np.arange(2003)[:, None] + np.arange(2003)) % 2003
    rows[1] = -np.arange(2003) % 2003
    with pytest.raises(InvalidArgument, match=r"not an action: \(1,1,0\)$"):
        GroupAction(z2003, rows)


def test_action_built_directly_is_checked():
    z5 = make_abelian_product([5])
    rows = [[(g + p) % 5 for p in range(5)] for g in range(5)]
    assert GroupAction(z5, rows).table[3, 4] == 2
    rows[4] = rows[3]
    with pytest.raises(InvalidArgument, match=r"not an action"):
        GroupAction(z5, rows)
    rows[4] = rows[4][:4]
    with pytest.raises(InvalidArgument, match=r"ragged"):
        GroupAction(z5, rows)


def test_generators_are_greedy_and_generate():
    """Each generator is the smallest element outside the closure of the
    ones before it; together they generate the group, and there are at
    most log2 of the order."""
    for group in (make_symmetric(1), make_symmetric(5),
                  make_abelian_product([2] * 6), make_abelian_product([4, 6]),
                  make_general_linear(3, 2), _small_table_group()):
        closure = {group.identity}
        gens = list(group.generators())
        for g in gens:
            assert g == min(set(range(group.order)) - closure)
            while True:
                grown = closure | {group.multiply(x, h) for x in closure
                                   for h in gens[:gens.index(g) + 1]}
                if grown == closure:
                    break
                closure = grown
        assert closure == set(range(group.order))
        assert 2 ** len(gens) <= group.order


def _reference_relabel(rows):
    """The table relabelled by the swap of its identity with 0."""
    n = len(rows)
    e = next(e for e in range(n) if rows[e] == list(range(n))
             and all(rows[h][e] == h for h in range(n)))
    sigma = list(range(n))
    sigma[0], sigma[e] = e, 0
    return [[sigma[rows[sigma[a]][sigma[b]]] for b in range(n)]
            for a in range(n)]


class _Square:
    """A Latin square with a two-sided identity, read as ``check_axioms``
    reads a group; ``invert`` is the right inverse."""

    def __init__(self, rows):
        self.rows = _reference_relabel(rows)
        self.order = len(rows)
        self.identity = 0

    def multiply(self, a, b):
        return self.rows[a][b]

    def invert(self, g):
        return self.rows[g].index(0)


def _random_loop(n, rng):
    """A Latin square of order n whose row and column 0 are the
    identity, filled cell by cell in random order of the candidates."""
    rows = [[j if i == 0 else i if j == 0 else None for j in range(n)]
            for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            rows[i][j] = v
            if fill(k + 1):
                return True
        rows[i][j] = None
        return False

    fill(0)
    return rows


def _table(group):
    everything = np.arange(group.order)
    return group.products(everything[:, None], everything).tolist()


SMALL_GROUPS = [make_abelian_product([4]), make_abelian_product([2, 2]),
                make_abelian_product([6]), make_abelian_product([2, 2, 2]),
                make_abelian_product([2, 4]), make_symmetric(3),
                make_symmetric(4), make_general_linear(2, 2),
                make_general_linear(3, 2), _small_table_group()]


@st.composite
def latin_squares_with_identity(draw):
    """Random loops of order 1-7, and group tables, some with one
    intercalate (a 2 x 2 Latin subsquare away from the identity)
    swapped; each relabelled by a random permutation."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        rows = _random_loop(n, random.Random(draw(st.integers(0, 2 ** 32))))
    else:
        rows = _table(draw(st.sampled_from(SMALL_GROUPS)))
        n = len(rows)
        intercalates = [(a, b, c, d)
                        for a, b in itertools.combinations(range(1, n), 2)
                        for c, d in itertools.combinations(range(1, n), 2)
                        if rows[a][c] == rows[b][d]
                        and rows[a][d] == rows[b][c]]
        if intercalates and draw(st.booleans()):
            a, b, c, d = draw(st.sampled_from(intercalates))
            for r in (a, b):
                rows[r][c], rows[r][d] = rows[r][d], rows[r][c]
    sigma = draw(st.permutations(range(n)))
    relabelled = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            relabelled[sigma[a]][sigma[b]] = sigma[rows[a][b]]
    return relabelled


@settings(derandomize=True, max_examples=300, deadline=None)
@given(latin_squares_with_identity())
def test_table_group_accepts_exactly_the_groups(rows):
    """TableGroup accepts a Latin square with an identity exactly when
    the exhaustive ``check_axioms`` does; an associativity witness
    (x, g, y) is a real failure in the relabelled table."""
    square = _Square(rows)
    try:
        check_axioms(square)
        is_group = True
    except NotAGroup:
        is_group = False
    try:
        group = make_from_table(rows)
    except NotAGroup as exc:
        assert not is_group
        T = square.rows
        if exc.axiom == "associativity":
            x, g, y = exc.witness
            assert T[T[x][g]][y] != T[x][T[g][y]]
        else:
            assert exc.axiom == "inverse"
            g, = exc.witness
            assert T[T[g].index(0)][g] != 0
    else:
        assert is_group
        assert _table(group) == square.rows


def _check_outcome(make, *args):
    """What a constructor that checks a table makes of it: the table it
    keeps (and a group's inverses), or its error."""
    try:
        made = make(*args)
    except InvalidArgument as exc:
        return type(exc).__name__, str(exc)
    if isinstance(made, GroupAction):
        return made.table.dtype, made.table.tolist()
    return made._table.dtype, _table(made), made.inverses().tolist()


@pytest.mark.parametrize("count, item_bytes", [
    (0, 8), (1, 8), (5, 0), (100, 1), (groups.BLOCK_BYTES // 24 * 3, 24),
    (10 ** 6, 16), (3, 10 ** 9), (70001, 2 ** 17 + 1)])
def test_blocks_cover_every_item_once_in_order(count, item_bytes):
    """The slices of ``blocks`` cover 0..count-1 once, in order, each
    holding max(1, BLOCK_BYTES // item_bytes) items but the last; no
    items give no slices."""
    step = max(1, groups.BLOCK_BYTES // max(item_bytes, 1))
    parts = [range(count)[part] for part in groups.blocks(count, item_bytes)]
    assert [i for part in parts for i in part] == list(range(count))
    assert [len(part) for part in parts[:-1]] == [step] * (len(parts) - 1)
    assert all(0 < len(part) <= step for part in parts)
    assert bool(parts) == (count > 0)


def test_table_and_action_checks_do_not_depend_on_the_blocks(monkeypatch):
    """Seeded tables and action tables, good and faulty, give the same
    group, action or error (and witness) with one row per block of the
    checks as with the default blocks.  The faults: a repeated entry in
    a row or a column, no identity, no inverse, associativity, an
    identity that moves a point, and the action axiom."""
    rng = random.Random(21)
    # S_3 with the intercalate of rows 1, 3 and columns 2, 3 swapped
    non_associative = _table(make_symmetric(3))
    for r in (1, 3):
        non_associative[r][2:4] = non_associative[r][3:1:-1]
    n = 5
    cases = [(make_from_table, [list(range(n))] * n),
             (make_from_table, [[(2 * i + j) % n for j in range(n)]
                                for i in range(n)]),
             (make_from_table, non_associative)]
    for _ in range(60):
        rows = _table(rng.choice(SMALL_GROUPS)) if rng.random() < 0.5 \
            else _random_loop(rng.randint(1, 7), rng)
        n = len(rows)
        if n > 2 and rng.random() < 0.4:
            # a swap in a row leaves its columns with a repeat; a copy,
            # the row itself
            a, c, d = rng.randrange(n), *rng.sample(range(n), 2)
            if rng.random() < 0.5:
                rows[a][c], rows[a][d] = rows[a][d], rows[a][c]
            else:
                rows[a][c] = rows[a][d]
        sigma = rng.sample(range(n), n)
        relabelled = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                relabelled[sigma[a]][sigma[b]] = sigma[rows[a][b]]
        cases.append((make_from_table, relabelled))
    for _ in range(60):
        group = rng.choice(ACTION_GROUPS)
        rows = _coset_action(group, rng.randrange(group.order))
        r, count = rng.randrange(group.order), len(rows[0])
        if rng.random() < 0.6:
            rows[r] = [rng.randrange(count) for _ in range(count)]
        cases.append((GroupAction, group, rows))
    default = [_check_outcome(*case) for case in cases]
    monkeypatch.setattr(groups, "BLOCK_BYTES", 1)
    assert [_check_outcome(*case) for case in cases] == default
    kinds = {o[1].split(" fails")[0] if o[0] == "NotAGroup" else
             o[1].split(":")[0] if isinstance(o[0], str) else "ok"
             for o in default}
    assert kinds == {"ok", "not a group: latin-square-row",
                     "not a group: latin-square-column",
                     "not a group: identity", "not a group: inverse",
                     "not a group: associativity", "not an action",
                     "identity must act trivially"}


MEMORY_PROBE = """
import resource
import numpy as np
from cayley_theta.groups import (GroupAction, make_abelian_product,
                                 make_from_table)
n = {n}
table = np.add.outer(np.arange(n), np.arange(n))
np.remainder(table, n, out=table)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
{build}
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


@pytest.mark.parametrize("n, build, bound_mb", [
    (5000, "make_from_table(table)", 160),
    (2003, "GroupAction(make_abelian_product([n]), table)", 40),
], ids=["table-Z5000", "action-Z2003"])
def test_table_checks_run_in_bounded_memory(n, build, bound_mb):
    """Z_5000 as an int64 Cayley table (200 MB), and Z_2003 acting on
    C_2003 (32 MB): their checks once held about 790 and 96 MB above
    the table (a copy of it, whole-table sorts, gathers and masks).
    Now they hold its int32 copy (100 and 16 MB) and blocks of rows.
    Peak RSS is read in a fresh interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(
        Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE.format(n=n, build=build)],
        env=env, capture_output=True, text=True, check=True).stdout
    assert float(out) < bound_mb


def _coset_action(group, k):
    """G acting on the left cosets of the cyclic subgroup <k>, numbered
    by first appearance; k = 0 gives the regular action."""
    sub, x = {0}, k
    while x not in sub:
        sub.add(x)
        x = group.multiply(x, k)
    coset_of, reps = {}, []
    for g in range(group.order):
        coset = frozenset(group.multiply(g, h) for h in sub)
        if coset not in coset_of:
            coset_of[coset] = len(reps)
            reps.append(g)
    return [[coset_of[frozenset(group.multiply(group.multiply(g, r), h)
                                for h in sub)] for r in reps]
            for g in range(group.order)]


ACTION_GROUPS = [make_abelian_product([6]), make_abelian_product([2, 2, 2]),
                 make_symmetric(3), make_symmetric(4),
                 make_general_linear(2, 2), _small_table_group()]


@st.composite
def action_tables(draw):
    """Coset actions of small groups (and S_n on its letters), left as
    they are, with the points renamed, or with one row changed: two
    entries swapped, another row copied in, or a random map."""
    group = draw(st.sampled_from(ACTION_GROUPS))
    if hasattr(group, "perm") and draw(st.booleans()):
        rows = [list(group.perm(g)) for g in range(group.order)]
    else:
        rows = _coset_action(group, draw(st.integers(0, group.order - 1)))
    count = len(rows[0])
    change = draw(st.sampled_from(["none", "rename", "swap", "copy", "map"]))
    r = draw(st.integers(0, group.order - 1))
    if change == "rename":
        sigma = draw(st.permutations(range(count)))
        renamed = [[0] * count for _ in rows]
        for g, row in enumerate(rows):
            for p, q in enumerate(row):
                renamed[g][sigma[p]] = sigma[q]
        rows = renamed
    elif change == "swap":
        p, q = draw(st.lists(st.integers(0, count - 1), min_size=2,
                             max_size=2))
        rows[r][p], rows[r][q] = rows[r][q], rows[r][p]
    elif change == "copy":
        rows[r] = list(rows[draw(st.integers(0, group.order - 1))])
    elif change == "map":
        rows[r] = draw(st.lists(st.integers(0, count - 1), min_size=count,
                                max_size=count))
    return group, rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(action_tables())
def test_action_check_accepts_exactly_the_actions(case):
    """An action table is accepted exactly when the exhaustive (g, h, p)
    oracle finds no failure and the identity fixes every point; a
    reported triple is one of the oracle's failures."""
    group, rows = case
    failures = action_axiom_failures(group, rows)
    is_action = rows[0] == list(range(len(rows[0]))) and not failures
    try:
        action = GroupAction(group, rows)
    except InvalidArgument as exc:
        assert not is_action
        found = re.fullmatch(r"not an action: \((\d+),(\d+),(\d+)\)",
                             str(exc))
        if found:
            assert tuple(map(int, found.groups())) in failures
        else:
            assert str(exc) == "identity must act trivially"
    else:
        assert is_action
        assert action.table.tolist() == rows


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
    # table groups: the same table is the same group, a renumbered one
    # (elements 1 and 2 swapped) is not
    table = [[s3.multiply(a, b) for b in range(6)] for a in range(6)]
    assert same_group(make_from_table(table), order_six[4])
    swap = [0, 2, 1, 3, 4, 5]
    renumbered = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            renumbered[swap[a]][swap[b]] = swap[table[a][b]]
    assert make_from_table(renumbered).order == 6
    assert not same_group(make_from_table(renumbered), order_six[4])


def test_same_group_copies_no_table():
    """Two Z_3000 table groups from one table are one group; the key is a
    digest of each table, so the comparison copies neither (the bytes of
    both tables once peaked at 69 MB)."""
    n = 3000
    elements = np.arange(n, dtype=np.int32)
    table = (elements[:, None] + elements) % n
    a, b = make_from_table(table), make_from_table(table)
    tracemalloc.start()
    try:
        assert same_group(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_class_equation_and_partition_counts():
    expected_counts = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
    for n, count in expected_counts.items():
        assert len(partitions(n)) == count
    for group in (make_symmetric(4), make_symmetric(5),
                  make_general_linear(3, 2), make_abelian_product([2, 3])):
        classes = group.conjugacy_classes()
        assert sum(c.size for c in classes) == group.order


def test_inverse_class_involution():
    for group in (make_symmetric(5), make_general_linear(3, 2),
                  make_abelian_product([5])):
        classes = group.conjugacy_classes()
        for i, c in enumerate(classes):
            assert classes[c.inverse_class].inverse_class == i
    # S_n classes are all self-paired
    for n in range(1, 9):
        for c in make_symmetric(n).conjugacy_classes():
            pass
    for n in (3, 4, 5, 6, 7, 8):
        classes = make_symmetric(n).conjugacy_classes()
        assert all(c.inverse_class == i for i, c in enumerate(classes))


def test_class_members_mutually_conjugate():
    group = make_general_linear(3, 2)
    class_of = group.class_of()
    for idx, c in enumerate(group.conjugacy_classes()):
        members = np.flatnonzero(class_of == idx).tolist()
        assert len(members) == c.size and c.representative in members
        # spot check: conjugating a member stays in its class
        for g in members:
            for h in range(0, group.order, 7):
                conj = group.multiply(group.multiply(h, g), group.invert(h))
                assert group.class_index_of(conj) == idx


def test_sn_class_sizes_formula():
    import math
    for n in (4, 5, 6):
        group = make_symmetric(n)
        classes = group.conjugacy_classes()
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


@pytest.mark.parametrize("text, outcome", [
    ("2\n0 1\n1 0\n", None),
    # other layouts of the same tokens
    ("2\n0 1 1 0\n", None),
    ("2 0 1\n1 0\n", None),
    ("\n2\n\n0 1\n 1 0 \n", None),
    ("", (SchemaError, "empty Cayley table file$")),
    ("2\n0 1\n1 a\n", (SchemaError, "malformed Cayley table ")),
    ("2\n0 1\n1 1.0\n", (SchemaError, "malformed Cayley table ")),
    ("x\n0 1\n1 0\n", (SchemaError, "malformed Cayley table ")),
    ("2\n0 1\n1\n", (SchemaError, "expected 4 table entries, got 3$")),
    ("2\n0 1\n1 0 1\n", (SchemaError, "expected 4 table entries, got 5$")),
    (f"2\n0 1\n1 {2 ** 70}\n", (NotAGroup, r"latin-square-row fails at \(1,\)")),
    ("0\n", (InvalidArgument, "square and nonempty")),
])
def test_cayley_table_file_layouts_and_faults(tmp_path, text, outcome):
    """A table of one row per line is read as one array; any other layout
    is read token by token, as is a file with a fault, which the message
    names."""
    path = tmp_path / "table.txt"
    path.write_text(text)
    if outcome is None:
        assert import_cayley_table(path).products(
            np.arange(2)[:, None], np.arange(2)).tolist() == [[0, 1], [1, 0]]
    else:
        with pytest.raises(outcome[0], match=outcome[1]):
            import_cayley_table(path)
