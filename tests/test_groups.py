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
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cayley_theta import characters, graphs, groups, theta
from cayley_theta.apps import gl_connection
from cayley_theta.characters import abelian_character_table
from cayley_theta.errors import (InvalidArgument, NotAGroup, SchemaError,
                                 SizeLimit)
from cayley_theta.graphs import ConnectionSet, Graph, build_cayley
from cayley_theta.groups import (GroupAction, export_cayley_table,
                                 import_cayley_table, make_abelian_product,
                                 make_from_table,
                                 make_general_linear, make_symmetric,
                                 partitions, perm_unrank, same_group)
from cayley_theta.theta import (CayleyGraphSpec, build_sdp_A,
                                extract_matrix_solution, solve_theta,
                                symmetrize_matrix)

from oracles import (action_axiom_failures, action_from_generators,
                     check_axioms, cycle_type, gl_pointwise_stabilizer,
                     invert, matrix_product, multiply, perm_rank,
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
    assert z5.conjugacy_classes().sizes.tolist() == [1] * 5

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
    assert group.class_labels() == want
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
        if all(phi[a.products(x, y)] == b.products(phi[x], phi[y])
               for x in range(6) for y in range(6)):
            found = True
            break
    assert found


def test_symmetric_examples():
    s3 = make_symmetric(3)
    assert s3.order == 6
    assert s3.class_labels() == ["(1,1,1)", "(2,1)", "(3)"]
    assert s3.conjugacy_classes().sizes.tolist() == [1, 3, 2]

    s4 = make_symmetric(4)
    assert s4.order == 24
    assert s4.conjugacy_classes().sizes.tolist() == [1, 6, 3, 8, 6]

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
    pq = s3.products(p, q)
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
# the per-class record as the pin hashed it, with the tuple of its
# members; its representative is the smallest member
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
    h.update(repr(group.invert(everything).tolist()).encode())
    a, b = rng.integers(0, group.order, size=(500, 2)).T
    h.update(repr(group.products(a, b).tolist()).encode())
    class_of, classes = group.class_of(), group.conjugacy_classes()
    members = [tuple(np.flatnonzero(class_of == idx).tolist())
               for idx in range(len(classes))]
    h.update(repr(tuple(
        _PinnedClass(m[0], size, label, inverse, m)
        for m, size, label, inverse in zip(
            members, classes.sizes.tolist(), group.class_labels(),
            classes.inverse.tolist()))).encode())
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


def test_gl_order_bound():
    """GL(n, q) is admitted up to the orbit sweep's GENERIC_CLASS_BOUND:
    GL(2, 9), of order 5760, is built; GL(3, 3), of order 11232, and
    GL(300, 2) are refused with the same message."""
    assert make_general_linear(9, 2).order == 5760
    for q, n in ((3, 3), (2, 300)):
        with pytest.raises(InvalidArgument, match=re.escape(
                f"|GL({n},F_{q})| exceeds the order bound 10000")):
            make_general_linear(q, n)


def test_gl22_classes_match_s3():
    sizes = sorted(make_general_linear(2, 2).conjugacy_classes().sizes)
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
    elements = np.arange(6)
    table = s3.products(elements[:, None], elements).tolist()
    g = make_from_table(table)
    assert g.order == 6
    assert g.products(elements[:, None], elements).tolist() == table

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
            table[sigma[a]][sigma[b]] = sigma[d4.products(a, b)]
    return make_from_table(table)


def test_array_products_match_single_products():
    for group in (make_symmetric(4), make_abelian_product([3, 4]),
                  make_abelian_product([2, 2, 2]), make_general_linear(3, 2),
                  make_general_linear(4, 2), _small_table_group()):
        n = group.order
        table = group.products(np.arange(n)[:, None], np.arange(n)[None, :])
        assert table.tolist() == [[multiply(group, a, b) for b in range(n)]
                                  for a in range(n)]
        assert group.inverses().tolist() == [invert(group, a)
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
    """S_n products against the scalar ``multiply`` oracle, which
    composes the permutation tuples, the right factor first, for scalars
    and index arrays of every shape."""
    group = make_symmetric(n)
    last = np.int64(group.order - 1)
    single = group.products(last, np.int64(group.order // 2))
    assert single.shape == () and int(single) == multiply(
        group, group.order - 1, group.order // 2)
    everything = np.arange(group.order)
    table = [[multiply(group, a, b) for b in everything] for a in everything]
    assert group.products(last, everything).tolist() == table[-1]
    assert group.products(everything, 0).tolist() == \
        [row[0] for row in table]
    assert group.products(everything[:, None], everything[None, :]).tolist() \
        == table
    rng = np.random.default_rng(n)
    a = rng.integers(0, group.order, size=(3, 4, 5))
    b = rng.integers(0, group.order, size=(4, 1))
    want = [[[multiply(group, x, y) for x in row]
             for row, (y,) in zip(block, b)] for block in a.tolist()]
    assert group.products(a, b).tolist() == want


@pytest.mark.parametrize("n", range(1, 11))
def test_symmetric_products_match_multiply(n):
    """S_n products, ranked by their Lehmer code, against the scalar
    ``multiply`` oracle: every pair up to S_5, 2,000 seeded pairs from
    S_6 on."""
    group = make_symmetric(n)
    if n <= 5:
        a, b = np.divmod(np.arange(group.order ** 2), group.order)
    else:
        a, b = np.random.default_rng(n).integers(0, group.order, (2, 2000))
    got = group.products(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == [multiply(group, x, y)
                            for x, y in zip(a.tolist(), b.tolist())]


def test_symmetric_products_broadcast_and_group_laws():
    """S_6 products of scalars and 0-, 1- and 2-D index arrays under
    broadcasting, against the scalar ``multiply`` oracle; the identity
    and inverse laws through ``inverses()``."""
    group = make_symmetric(6)
    rng = np.random.default_rng(6)
    x, y = (int(v) for v in rng.integers(0, group.order, 2))
    for a, b in [(x, y), (np.int64(x), y), (np.array(x), np.array(y))]:
        single = group.products(a, b)
        assert np.shape(single) == () and int(single) == multiply(group, x, y)
    a = rng.integers(0, group.order, size=(7, 1))
    b = rng.integers(0, group.order, size=(1, 9))
    for left, right in [(a[:, 0], y), (x, b[0]), (a, b), (a, b[0]),
                        (a[:, 0], b[0, :7])]:
        got = group.products(left, right)
        want = np.vectorize(lambda u, v: multiply(group, u, v))(left, right)
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
    assert inverse.tolist() == [invert(group, g) for g in everything.tolist()]


def _invert_groups():
    return [make_symmetric(1), make_symmetric(4), make_symmetric(5),
            make_abelian_product([3, 4]), make_abelian_product([2, 2, 2]),
            make_abelian_product([701]), make_general_linear(3, 2),
            make_general_linear(4, 2), _small_table_group()]


@pytest.mark.parametrize("group", _invert_groups(),
                         ids=lambda g: type(g).__name__)
def test_invert_matches_the_scalar_oracle(group):
    """``invert`` of scalars and of index arrays of several shapes, in
    every group kind, against the scalar ``invert`` oracle; a scalar
    gives a hashable 0-d numpy integer."""
    want = [invert(group, g) for g in range(group.order)]
    last = group.order - 1
    for x in (last, np.int64(last), np.array(last)):
        single = group.invert(x)
        assert np.shape(single) == () and single == want[last]
        assert {single, last} == {want[last], last}
    rng = np.random.default_rng(group.order)
    for shape in [(0,), (group.order,), (3, 4), (2, 3, 5)]:
        a = rng.integers(0, group.order, size=shape)
        got = group.invert(a)
        assert got.shape == a.shape
        assert got.tolist() == np.array(want, dtype=np.int64)[a].tolist()
    assert group.inverses().tolist() == want
    assert not group.inverses().flags.writeable


@pytest.mark.parametrize("n", range(1, 11))
def test_symmetric_invert_matches_the_oracle(n):
    """S_n ``invert`` against inverting the permutation tuples: every
    element up to S_8, 2,000 seeded elements of S_9 and S_10."""
    group = make_symmetric(n)
    if n <= 8:
        a = np.arange(group.order)
    else:
        a = np.random.default_rng(n).integers(0, group.order, 2000)
    got = group.invert(a)
    assert got.dtype == np.int64
    assert got.tolist() == [invert(group, x) for x in a.tolist()]
    assert not group.products(a, got).any()


def test_symmetric_inverses_in_bounded_memory(monkeypatch):
    """S_9's ``inverses()`` inverts the permutation array in blocks of
    BLOCK_BYTES of int64 temporaries: with blocks of 64 KB, tracemalloc
    sees at most the inverse array, the index array it inverts and a few
    blocks above the permutation array, built beforehand."""
    monkeypatch.setattr(groups, "BLOCK_BYTES", 1 << 16)
    s9 = make_symmetric(9)
    s9._perm_array()
    assert len(list(groups.blocks(s9.order, 8 * s9.n))) > 100
    tracemalloc.start()
    try:
        inverse = s9.inverses()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * inverse.nbytes + 8 * groups.BLOCK_BYTES
    assert not s9.products(np.arange(s9.order), inverse).any()


def largest_symmetric_n() -> int:
    """The largest n whose S_n the memory budget admits; the groups
    are made, not their permutation arrays."""
    n = 1
    while True:
        try:
            make_symmetric(n + 1)
        except SizeLimit:
            return n
        n += 1


def test_symmetric_counts_fit_int8():
    """Permutation entries and each Lehmer digit are at most n - 1, kept
    in int8, so no S_n the memory budget admits (up to S_10) can overflow
    them."""
    largest = largest_symmetric_n()
    assert largest == 10 and largest - 1 <= np.iinfo(np.int8).max


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
    cols = next(groups.blocks(len(side), xs.nbytes))
    tracemalloc.start()
    try:
        block = s6.products(xs, side[None, cols])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.shape == (s6.order, cols.stop)
    assert peak < 4 * block.nbytes


def test_symmetric_class_of_reads_the_array(monkeypatch):
    """S_7's ``class_of`` (where one cycle-type call per element once
    took 17 ms) is read from the permutation array: it equals the
    per-element cycle-type oracle while no single permutation can be
    unranked, and the package keeps no per-element cycle type."""
    index_of_type = {mu: i for i, mu in enumerate(partitions(7))}
    want = [index_of_type[cycle_type(p)]
            for p in itertools.permutations(range(7))]

    def refuse(r, n):
        raise AssertionError("perm_unrank called")

    monkeypatch.setattr(groups, "perm_unrank", refuse)
    assert make_symmetric(7).class_of().tolist() == want
    assert not hasattr(groups, "cycle_type")


def test_symmetric_class_of_at_order_40320():
    """S_8 is above the orbit sweep's bound, GENERIC_CLASS_BOUND; its
    ``class_of`` agrees with the cycle type of every permutation."""
    index_of_type = {mu: i for i, mu in enumerate(partitions(8))}
    s8 = make_symmetric(8)
    assert s8.order > groups.GENERIC_CLASS_BOUND
    class_of = s8.class_of()
    assert not class_of.flags.writeable
    assert class_of.tolist() == [index_of_type[cycle_type(p)]
                                 for p in itertools.permutations(range(8))]


def test_symmetric_classes_build_no_array(monkeypatch):
    """The classes of S_n are its cycle types: at every n they are listed
    with neither the permutation array nor ``class_of``."""
    def refuse(self):
        raise AssertionError("element array built")

    monkeypatch.setattr(groups.SymmetricGroup, "_perm_array", refuse)
    for n in range(1, largest_symmetric_n() + 1):
        group = make_symmetric(n)
        assert len(group.conjugacy_classes()) == len(partitions(n))
        assert group._class_of is None


def test_symmetric_class_of_in_bounded_memory(monkeypatch):
    """S_9's ``class_of`` walks the permutation array in blocks of
    BLOCK_BYTES of int64 temporaries: with blocks of 64 KB (hundreds of
    them; unblocked, one temporary would take 26 MB), tracemalloc sees at
    most the class array and a few blocks above the permutation array,
    built beforehand."""
    monkeypatch.setattr(groups, "BLOCK_BYTES", 1 << 16)
    s9 = make_symmetric(9)
    s9._perm_array()
    assert len(list(groups.blocks(s9.order, 8 * s9.n))) > 100
    tracemalloc.start()
    try:
        class_of = s9.class_of()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < class_of.nbytes + 8 * groups.BLOCK_BYTES


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
        assert ((classes.sizes.tolist(), classes.inverse.tolist(),
                 group.class_labels()), group.class_of().tolist()) == \
            reference_classes(group)
        for array in (classes.sizes, classes.inverse, group.class_of()):
            assert array.dtype == np.int64 and not array.flags.writeable


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
    assert np.bincount(class_of).tolist() == \
        group.conjugacy_classes().sizes.tolist()
    assert class_of.dtype == np.int64


def test_abelian_classes_above_the_orbit_bound_are_three_arrays():
    """The classes of Z_1000000, one per element, are made above
    GENERIC_CLASS_BOUND as three int64 arrays of the order: sizes all
    one, the inverses and ``class_of`` the identity map.  tracemalloc
    sees at most one more such array above them (the temporaries of
    ``invert``), so no Python object is made per element."""
    order = 10 ** 6
    z = make_abelian_product([order])
    tracemalloc.start()
    try:
        classes = z.conjugacy_classes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (classes.sizes, classes.inverse, z.class_of())
    assert peak <= 4 * 8 * order
    assert all(a.dtype == np.int64 and a.shape == (order,)
               and not a.flags.writeable for a in arrays)
    assert len(classes) == order and (classes.sizes == 1).all()
    everything = np.arange(order)
    assert (classes.inverse == -everything % order).all()
    assert (z.class_of() == everything).all()


def test_abelian_classes_of_six_moduli_trace_no_more_than_one():
    """The classes of Z_10^6 trace no more than those of Z_1000000, of
    the same order: ``invert`` adds each digit into one array.  A new
    array per digit traced 32 MB against 24 MB."""
    peaks = []
    for moduli in ([10 ** 6], [10] * 6):
        z = make_abelian_product(moduli)
        tracemalloc.start()
        try:
            z.conjugacy_classes()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (z.products(np.arange(z.order), z.inverses()) == 0).all()
    assert peaks[1] <= peaks[0]


def _fails(group, table, g, h, p):
    return table[g][table[h][p]] != table[group.products(g, h)][p]


def test_action_table_reports_first_failing_triple():
    """The first (g, h, p), in the order (generator h, then g, then p),
    with g.(h.p) != (gh).p; each one a real failure of the axiom."""
    z5 = make_abelian_product([5])
    assert list(z5.generators()) == [1]
    regular = z5.products(np.arange(5)[:, None], np.arange(5)).tolist()
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
    regular = z5.products(np.arange(5)[:, None], np.arange(5)).tolist()
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
                grown = closure | {group.products(x, h) for x in closure
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

    def products(self, a, b):
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


@pytest.mark.parametrize("values", [
    np.random.default_rng(0).integers(-50, 50, 1000),
    np.random.default_rng(1).integers(-2 ** 62, 2 ** 62, 300),
    np.zeros(0, dtype=np.int64), np.array([7]),
    np.array([0.0, -0.0, 2.5, -0.0, np.inf, 1e-300, 0.0, 2.5, -np.inf,
              np.nan]).view(np.int64),
], ids=["seeded-small", "seeded-wide", "empty", "one", "float-bits"])
def test_distinct_matches_unique(values):
    """``distinct`` gives what np.unique gives, dtype too; the bits of
    0.0 and -0.0 stay apart."""
    got = groups.distinct(values)
    assert got.dtype == values.dtype
    assert np.array_equal(got, np.unique(values))


# ---------------------------------------------------------------------------
# the memory budget

def _complete_graph(n):
    """Cay(Z_n, Z_n minus 0), the complete graph on n vertices."""
    z = make_abelian_product([n])
    return CayleyGraphSpec(z, ConnectionSet.from_elements(z, range(1, n)))


def _float_extraction(n):
    """What ``extract_matrix_solution`` reads of a float certificate on
    Z_n: the group, with its classes made, and a float per class."""
    return SimpleNamespace(
        spec=SimpleNamespace(group=_classes_made(make_abelian_product([n]))),
        f=SimpleNamespace(values=[1.0] * n))


def _empty_cayley(n):
    z = make_abelian_product([n])
    return z, ConnectionSet.from_classes(z, [])


def _classes_made(group):
    group.conjugacy_classes()
    return group


# each site with the bytes of its largest input the order bounds before
# the memory budget admitted, made by ``prepare`` beforehand: the Z_2000
# table (complex), graphs on 5000 vertices, formulation (A) of the
# complete graph on 2000 vertices (its adjacency and 24 bytes for each
# of its 2001000 + 2000 + 1999000 entries), the order-2000 matrix of
# references to one 24-byte float per class (8 bytes an entry and for
# three arrays of 2000 items, and a 56-byte list per row), that of
# 32-byte values, and S_10
OLD_BOUNDS = [
    pytest.param(lambda: make_abelian_product([2000]),
                 abelian_character_table, 16 * 2000 ** 2, id="table-Z2000"),
    pytest.param(lambda: 5000, lambda n: Graph.from_edges(n, []), 5000 ** 2,
                 id="graph-5000"),
    pytest.param(lambda: _empty_cayley(5000), lambda args: build_cayley(*args),
                 5000 ** 2, id="cayley-Z5000"),
    pytest.param(lambda: _complete_graph(2000), build_sdp_A,
                 2000 ** 2 + 24 * (2001000 + 2000 + 1999000),
                 id="formulation-A-K2000"),
    pytest.param(lambda: _float_extraction(2000), extract_matrix_solution,
                 8 * 2000 * 2003 + (56 + 24) * 2000, id="extraction-2000"),
    pytest.param(lambda: make_abelian_product([2000]),
                 lambda z: symmetrize_matrix(None, z), 32 * 2000 ** 2,
                 id="symmetrization-2000"),
    pytest.param(lambda: 10, make_symmetric, 10 * 3628800, id="S10"),
]


class _Admitted(Exception):
    """Raised in place of the allocation that an admitted input starts."""


@pytest.mark.parametrize("prepare, site, need", OLD_BOUNDS)
def test_memory_budget_admits_what_the_order_bounds_admitted(
        prepare, site, need, monkeypatch):
    """Each site asks the budget for the bytes of its input before it
    allocates, and 2^27 admits every input that ABELIAN_TABLE_BOUND,
    CAYLEY_BOUND, MATRIX_BOUND and SymmetricGroup.MAX_N admitted: the
    check is run, and the site stopped, with nothing allocated."""
    asked = []

    def admit(what, *arrays):
        asked.append(sum(count * size for count, size in arrays))
        check_memory(what, *arrays)
        raise _Admitted

    made = prepare()
    check_memory = groups.check_memory
    for module in (groups, graphs, characters, theta):
        monkeypatch.setattr(module, "check_memory", admit)
    assert groups.MEMORY_BYTES == 2 ** 27
    with pytest.raises(_Admitted):
        site(made)
    assert asked == [need] and need <= 2 ** 27


def test_memory_budget_refuses_s11():
    """S_11's permutation array, 11! rows of 11 int8 entries, is over
    the budget; the refusal names its bytes."""
    with pytest.raises(SizeLimit, match=(
            "^the permutation array of S_11 needs 439084800 bytes, more "
            "than the memory budget of 134217728 bytes$")):
        make_symmetric(11)
    with pytest.raises(SizeLimit, match="S_29 needs more than the memory"):
        make_symmetric(29)
    with pytest.raises(SizeLimit, match="S_1000000000000 needs more than"):
        make_symmetric(10 ** 12)


# each site at its largest input under a 4 MiB budget, made from the
# input by ``prepare`` beforehand: a complex table of order 512 (16 *
# 512^2 = 2^22), graphs on 2048 vertices, formulation (A) of the
# complete graph on 409 vertices (25 * 409^2 + 24 * 409 bytes), the
# 717 x 717 matrix of references to shared floats (8 * 717^2 + 104 *
# 717 bytes), 362 x 362 matrices of 32-byte values, and S_9 (9! * 9
# bytes)
SMALL_BUDGET = 1 << 22
BUDGET_EDGES = [
    pytest.param(lambda n: make_abelian_product([n]),
                 abelian_character_table, 512, id="table"),
    pytest.param(lambda n: n, lambda n: Graph.from_edges(n, [(0, 1)]), 2048,
                 id="graph"),
    pytest.param(_empty_cayley, lambda args: build_cayley(*args), 2048,
                 id="cayley"),
    pytest.param(_complete_graph, build_sdp_A, 409, id="formulation-A"),
    pytest.param(_float_extraction, extract_matrix_solution, 717,
                 id="extraction"),
    pytest.param(lambda n: ([[0.0] * n for _ in range(n)],
                            make_abelian_product([n])),
                 lambda args: symmetrize_matrix(*args), 362,
                 id="symmetrization"),
    pytest.param(lambda n: n, lambda n: make_symmetric(n)._perm_array(), 9,
                 id="permutations"),
]


@pytest.mark.parametrize("prepare, site, largest", BUDGET_EDGES)
def test_memory_budget_bounds_the_traced_peak(prepare, site, largest,
                                              monkeypatch):
    """With a budget of 4 MiB, each site's largest admitted input runs
    within 1.5 times the budget (tracemalloc), and the next larger one is
    refused having traced less than a sixteenth of it."""
    monkeypatch.setattr(groups, "MEMORY_BYTES", SMALL_BUDGET)
    for n in (largest, largest + 1):
        made = prepare(n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            try:
                site(made)
                refused = False
            except SizeLimit:
                refused = True
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert refused == (n > largest)
        assert peak <= (SMALL_BUDGET / 16 if refused else 1.5 * SMALL_BUDGET)


def test_exact_extraction_peaks_within_the_budget(monkeypatch):
    """An exact matrix entry is a Fraction, counted with its numerator
    and denominator: with the budget set to the bytes that the exact
    certificate of Cay(Z_2^8, classes 1, 2, 4, 8) asks for, so that its
    order is the largest admitted, its extraction traces at most the
    budget.  Counted at 32 bytes an entry, it traced 1.8 times that."""
    z = make_abelian_product([2] * 8)
    cert = solve_theta(
        CayleyGraphSpec(z, ConnectionSet.from_classes(z, [1, 2, 4, 8])),
        abelian_character_table(z))
    assert cert.exact
    z.inverses()
    monkeypatch.setattr(groups, "MEMORY_BYTES", 0)
    with pytest.raises(SizeLimit) as refused:
        extract_matrix_solution(cert)
    need = int(re.search(r"needs (\d+) bytes", str(refused.value))[1])
    monkeypatch.setattr(groups, "MEMORY_BYTES", need)
    tracemalloc.start()
    try:
        matrix = extract_matrix_solution(cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(matrix) == z.order and peak <= need


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
        x = group.products(x, k)
    coset_of, reps = {}, []
    for g in range(group.order):
        coset = frozenset(group.products(g, list(sub)).tolist())
        if coset not in coset_of:
            coset_of[coset] = len(reps)
            reps.append(g)
    return [[coset_of[frozenset(group.products(group.products(g, r),
                                               list(sub)).tolist())]
             for r in reps]
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
                 make_from_table(s3.products(np.arange(6)[:, None],
                                             np.arange(6)))]
    for i, a in enumerate(order_six):
        for j, b in enumerate(order_six):
            assert same_group(a, b) == (i == j)
    assert same_group(make_symmetric(3), s3)
    assert same_group(make_general_linear(2, 2), order_six[1])
    assert same_group(make_abelian_product([2, 3]), order_six[3])
    assert not same_group(make_abelian_product([3, 2]), order_six[3])
    # table groups: the same table is the same group, a renumbered one
    # (elements 1 and 2 swapped) is not
    table = s3.products(np.arange(6)[:, None], np.arange(6)).tolist()
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
        assert group.conjugacy_classes().sizes.sum() == group.order


def test_inverse_class_involution():
    for group in (make_symmetric(5), make_general_linear(3, 2),
                  make_abelian_product([5])):
        inverse = group.conjugacy_classes().inverse
        assert (inverse[inverse] == np.arange(len(inverse))).all()
    # S_n classes are all self-paired
    for n in (3, 4, 5, 6, 7, 8):
        inverse = make_symmetric(n).conjugacy_classes().inverse
        assert (inverse == np.arange(len(inverse))).all()


def test_class_members_mutually_conjugate():
    group = make_general_linear(3, 2)
    class_of = group.class_of()
    for idx, size in enumerate(group.conjugacy_classes().sizes.tolist()):
        members = np.flatnonzero(class_of == idx).tolist()
        assert len(members) == size
        # spot check: conjugating a member stays in its class
        for g in members:
            for h in range(0, group.order, 7):
                conj = group.products(group.products(h, g), group.invert(h))
                assert class_of[conj] == idx


def test_sn_class_sizes_formula():
    import math
    for n in (4, 5, 6):
        group = make_symmetric(n)
        sizes = group.conjugacy_classes().sizes.tolist()
        assert sum(sizes) == math.factorial(n)
        # sizes agree with exhaustive cycle-type counting
        if n <= 5:
            counts = {}
            for r in range(group.order):
                t = cycle_type(perm_unrank(r, n))
                counts[t] = counts.get(t, 0) + 1
            for mu, size in zip(partitions(n), sizes):
                assert counts[mu] == size


def test_cayley_table_file_roundtrip(tmp_path):
    s3 = make_symmetric(3)
    path = tmp_path / "s3.txt"
    export_cayley_table(s3, path)
    g = import_cayley_table(path)
    assert g.order == 6
    elements = np.arange(6)
    assert g.products(elements[:, None], elements).tolist() == \
        s3.products(elements[:, None], elements).tolist()


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
