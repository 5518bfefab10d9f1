import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from cayley_theta import graphs, groups
from cayley_theta.apps import efp_connection, gl_connection, gl_lower_bound
from cayley_theta.errors import (InvalidArgument, NotAutomorphism,
                                 NotTransitive, SchemaError, SizeLimit,
                                 WrongFormulation)
from cayley_theta.graphs import (ConnectionSet, Graph, alpha,
                                 blowup_connection, build_cayley,
                                 export_action, export_graph, import_action_table,
                                 import_graph)
from cayley_theta.groups import (GroupAction, make_abelian_product,
                                 make_general_linear, make_symmetric)

from oracles import (action_from_generators, bitmasks, brute_force_alpha,
                     edge_list, invert, inverse_closed_set)


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def test_graph_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.adjacency[0, 1] and g.adjacency[1, 0]
    assert not g.adjacency[0, 2]
    assert np.count_nonzero(g.adjacency[1]) == 2
    assert sorted(edge_list(g)) == [(0, 1), (1, 2)]
    with pytest.raises(InvalidArgument):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InvalidArgument):
        Graph.from_edges(3, [(1, 1)])


def test_graph_adjacency_is_read_only():
    z6 = make_abelian_product([6])
    for g in (Graph.from_edges(3, [(0, 1)]), Graph(np.zeros((3, 3), bool)),
              build_cayley(z6, ConnectionSet.from_elements(z6, [1, 5]))):
        before = g.adjacency.copy()
        with pytest.raises(ValueError, match="read-only"):
            g.adjacency[0, 2] = True
        assert (g.adjacency == before).all()


def test_graph_refuses_an_array_it_does_not_describe(monkeypatch):
    """With only a[0, 1] set among 3 x 3, alpha once answered 3 with the
    witness (0, 1, 2) while ``edges`` listed (0, 1).  That array, a
    non-square one and one with a loop are refused; symmetry is checked
    a block of rows at a time, with the same witness at one row per
    block."""
    one_way = np.zeros((3, 3), bool)
    one_way[0, 1] = True
    late = np.zeros((5, 5), bool)
    late[4, 2] = True
    loop = np.zeros((4, 4), bool)
    loop[1, 1] = True
    cases = [(one_way, r"not symmetric at \(0, 1\)$"),
             (late, r"not symmetric at \(2, 4\)$"),
             (np.zeros((2, 3), bool), r"shape \(2, 3\) is not square$"),
             (np.zeros(3, bool), r"shape \(3,\) is not square$"),
             (loop, "self-loop at 1$")]
    for size in (groups.BLOCK_BYTES, 5):
        monkeypatch.setattr(groups, "BLOCK_BYTES", size)
        for a, message in cases:
            with pytest.raises(InvalidArgument, match=message):
                Graph(a)


@pytest.mark.parametrize("size", [groups.BLOCK_BYTES, 5])
def test_graph_names_the_first_asymmetric_pair_across_tiles(size,
                                                            monkeypatch):
    """Symmetry is compared on square tiles, a row of tiles at a time; at
    5 bytes the tiles are 2 x 2, so the first tile of rows 0-1 that
    differs holds (1, 2), while the first pair in row-major order, (0,
    4), lies in a later tile of the same row: the message names it."""
    monkeypatch.setattr(groups, "BLOCK_BYTES", size)
    a = np.zeros((7, 7), bool)
    a[1, 2] = a[0, 4] = a[5, 6] = True
    message = r"^adjacency array is not symmetric at \({}, {}\)$"
    with pytest.raises(InvalidArgument, match=message.format(0, 4)):
        Graph(a)
    a[2, 1] = a[4, 0] = True
    with pytest.raises(InvalidArgument, match=message.format(5, 6)):
        Graph(a)
    a[6, 5] = True
    assert edge_list(Graph(a)) == [(0, 4), (1, 2), (5, 6)]


@pytest.mark.parametrize("n, error", [
    (-3, InvalidArgument), (11586, SizeLimit),
    (3_000_000, SizeLimit), (10 ** 12, SizeLimit)])
def test_from_edges_refuses_vertex_counts_before_allocating(n, error):
    """A vertex count below 0, or one whose n x n bool array exceeds the
    2^27-byte memory budget (11586^2 > 2^27 >= 11585^2), is refused
    before the array is made; 3,000,000 vertices once took terabytes."""
    tracemalloc.start()
    try:
        with pytest.raises(error) as caught:
            Graph.from_edges(n, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(caught.value) is error
    assert peak < 2 ** 20


def test_connection_set_from_classes_excludes_identity():
    s3 = make_symmetric(3)
    with pytest.raises(InvalidArgument):
        ConnectionSet.from_classes(s3, [0])
    X = ConnectionSet.from_classes(s3, [1])
    assert X.conjugation_closed
    assert X.size == 3
    assert X.elements == tuple(np.flatnonzero(s3.class_of() == 1).tolist())
    assert 0 not in X.elements


def test_connection_set_from_elements_checks():
    s3 = make_symmetric(3)
    # a single transposition is inverse-closed but not conjugation-closed
    t = next(g for g in range(6) if s3.perm(g) == (1, 0, 2))
    X = ConnectionSet.from_elements(s3, [t])
    assert not X.conjugation_closed
    with pytest.raises(InvalidArgument):
        ConnectionSet.from_elements(s3, [0])   # identity not allowed
    # a 3-cycle alone is not inverse-closed
    c = next(g for g in range(6) if s3.perm(g) == (1, 2, 0))
    with pytest.raises(InvalidArgument):
        ConnectionSet.from_elements(s3, [c])
    # full class of 3-cycles is conjugation-closed
    c_inv = s3.invert(c)
    X3 = ConnectionSet.from_elements(s3, [c, c_inv])
    assert X3.conjugation_closed


@pytest.mark.parametrize("make, elements, smallest", [
    (lambda: make_abelian_product([10]), [2, 3, 8], 3),
    (lambda: make_abelian_product([10]), [7, 4, 3, 2, 8], 4),
    (lambda: make_symmetric(5), [3, 4, 24, 33, 56, 80, 82], 33),
    (lambda: make_general_linear(3, 2), [2, 5, 9, 20, 41], 2),
])
def test_from_elements_names_the_smallest_element_without_its_inverse(
        make, elements, smallest):
    """One ``invert`` of every element decides inverse closure; the
    error names the smallest element whose inverse is missing."""
    group = make()
    missing = [e for e in sorted(elements)
               if invert(group, e) not in elements]
    assert missing[0] == smallest
    with pytest.raises(InvalidArgument, match=(
            f"^element {smallest} present but its inverse is not$")):
        ConnectionSet.from_elements(group, elements)
    closed = sorted(set(elements) | {invert(group, e) for e in elements})
    assert ConnectionSet.from_elements(group, closed).elements == \
        tuple(closed)


def test_from_classes_names_the_smallest_class_without_its_inverse():
    """Seeded class sets of Z_12 and GL(2, 3): a set that lacks some
    inverse class names the smallest class whose inverse class is
    missing, and a closed set lists the members of its classes."""
    rng = random.Random(37)
    for group in (make_abelian_product([12]), make_general_linear(2, 3)):
        inverse = group.conjugacy_classes().inverse.tolist()
        members = group.class_of().tolist()
        for _ in range(40):
            chosen = sorted(rng.sample(range(1, len(inverse)),
                                       rng.randrange(len(inverse))))
            missing = [c for c in chosen if inverse[c] not in chosen]
            if missing:
                with pytest.raises(InvalidArgument, match=(
                        f"^class {missing[0]} present but its inverse class "
                        f"{inverse[missing[0]]} is not$")):
                    ConnectionSet.from_classes(group, chosen)
            else:
                assert ConnectionSet.from_classes(group, chosen).elements \
                    == tuple(g for g, c in enumerate(members) if c in chosen)


def test_from_elements_allocates_nothing_of_a_huge_abelian_order():
    """Z_10^8 with four elements: inverse closure is checked on the
    elements alone, with no array of the group's order."""
    group = make_abelian_product([10 ** 8])
    tracemalloc.start()
    try:
        conn = ConnectionSet.from_elements(group, [1, 5, 10 ** 8 - 5,
                                                   10 ** 8 - 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert conn.size == 4
    assert peak < 1 << 16
    with pytest.raises(InvalidArgument, match=(
            "^element 5 present but its inverse is not$")):
        ConnectionSet.from_elements(group, [1, 5, 10 ** 8 - 1])


def test_build_cayley_cycle():
    z6 = make_abelian_product([6])
    X = ConnectionSet.from_elements(z6, [1, 5])
    g = build_cayley(z6, X)
    assert sorted(edge_list(g)) == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4),
                                    (4, 5)]


def _direct_adjacency(group, elements):
    """x ~ xs for each s in X, one products row per element of X."""
    xs = np.arange(group.order)
    hit = np.zeros((group.order, group.order), dtype=bool)
    for s in elements:
        hit[xs, group.products(xs, s)] = True
    return hit


def _s6_efp2():
    s6 = make_symmetric(6)
    return s6, efp_connection(6, 2, s6)


def _gl25_rank1():
    gl25 = make_general_linear(5, 2)
    return gl25, gl_connection(5, 2, 1, gl25)


def _s4_union(*sizes):
    """The union of the S_4 classes of these sizes, but the identity's;
    size 6 picks both the transpositions and the 4-cycles."""
    s4 = make_symmetric(4)
    picked = [c for c, size in
              enumerate(s4.conjugacy_classes().sizes.tolist())
              if c and size in sizes]
    return s4, ConnectionSet.from_classes(s4, picked)


def _cyclic(n, elements):
    group = make_abelian_product([n])
    return group, ConnectionSet.from_elements(group, elements)


EITHER_SIDE = pytest.mark.parametrize("make, size", [
    (_s6_efp2, 529),
    (_gl25_rank1, 365),
    (lambda: _s4_union(8), 8),
    (lambda: _s4_union(3, 8), 11),
    (lambda: _s4_union(6), 12),
    (lambda: _s4_union(3, 6, 8), 23),
    (lambda: _cyclic(9, [1, 2, 7, 8]), 4),
    (lambda: _cyclic(13, [1, 2, 3, 10, 11, 12]), 6),
    (lambda: _cyclic(9, [1, 2, 3, 6, 7, 8]), 6),
], ids=["S6-efp2", "GL25-rank1", "S4-8", "S4-11", "S4-12", "S4-23",
        "Z9-4", "Z13-6", "Z9-6"])


class _SevenColumns:
    """Stands in for groups.BLOCK_BYTES: 7 items per block whatever their
    size, so 7 products columns per call in build_cayley and 7 rows per
    block in alpha at every order, so that the blocks split a side or
    the vertices unevenly (or one block holds them)."""

    def __floordiv__(self, item_bytes):
        return 7


@EITHER_SIDE
def test_build_cayley_from_either_side_matches_direct_build(make, size):
    """When 2|X| > |G| - 1 (S6-efp2, GL25-rank1, S4-12, S4-23, Z9-6),
    build_cayley clears the arcs of the elements outside X from a full
    matrix; the graph is the one that sets the arcs of X.  At
    2|X| = |G| - 1 (Z9-4, Z13-6) it sets them."""
    group, X = make()
    assert X.size == size
    graph = build_cayley(group, X)
    assert graph.transitive
    assert (graph.adjacency == _direct_adjacency(group, X.elements)).all()


@EITHER_SIDE
def test_build_cayley_in_7_column_blocks_matches_direct_build(
        make, size, monkeypatch):
    monkeypatch.setattr(groups, "BLOCK_BYTES", _SevenColumns())
    test_build_cayley_from_either_side_matches_direct_build(make, size)


def test_build_cayley_at_the_order_bound():
    """Z_5000 (the order bound before the memory budget) with X =
    +-{1..1249}: the larger direct side, 2498 of the 5000 elements, in
    blocks of whole columns."""
    z = make_abelian_product([5000])
    half = np.arange(1, 1250)
    X = ConnectionSet.from_elements(z, np.r_[half, z.order - half])
    assert X.size == 2498
    graph = build_cayley(z, X)
    assert graph.transitive
    M = graph.adjacency
    assert (M.sum(axis=1) == 2498).all()
    # x ~ y iff y - x is in X: row 0 marks X, and each row is the one
    # above it shifted right by one
    assert np.flatnonzero(M[0]).tolist() == list(X.elements)
    assert (M[1:, 1:] == M[:-1, :-1]).all() and (M[1:, 0] == M[:-1, -1]).all()


def test_build_cayley_memory():
    """S_6 efp:2 (|X| = 529) composes the 191 other elements in one
    products call; with (720, 191, 6) int64 arrays that peaked at 13 MB
    (tracemalloc), one position at a time below 5 MB."""
    s6 = make_symmetric(6)
    X = efp_connection(6, 2, s6)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = build_cayley(s6, X)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(graph.adjacency[0]) == X.size == 529
    assert peak < 5 * 2**20


@pytest.mark.parametrize("elements", [[0, 1, 8], list(range(9))])
def test_build_cayley_rejects_the_identity_on_either_side(elements):
    z9 = make_abelian_product([9])
    with pytest.raises(InvalidArgument, match="self-loop"):
        build_cayley(z9, ConnectionSet(z9, elements=elements))


@pytest.mark.parametrize("size,seed", [(6, 2), (8, 3)])
def test_inverse_closed_set_raises_when_the_gap_cannot_be_filled(size, seed):
    # Z_12 has one involution, 6: drawn toward an even size, it leaves an
    # odd gap that only pairs remain to fill
    with pytest.raises(ValueError, match="no inverse-closed set"):
        inverse_closed_set(make_abelian_product([12]), size, seed)
    chosen = inverse_closed_set(make_abelian_product([12]), size - 1, seed)
    assert len(chosen) == size - 1 and 6 in chosen


def test_build_cayley_pinned_graphs():
    # sha256 of the repr of the bitmask tuple that Graph once stored, as
    # built one product at a time, before the array kernels; the arrays
    # must give the same graphs bit for bit
    s6 = make_symmetric(6)
    gl25 = make_general_linear(5, 2)
    X = ConnectionSet.from_elements(s6, inverse_closed_set(s6, 120, 0))
    assert not X.conjugation_closed
    cases = [
        (s6, efp_connection(6, 2, s6),
         "7286555e61ede7c05ef5c594cd49e7dd24d09a19542f8fe61359ed5093fec56f"),
        (gl25, gl_connection(5, 2, 1, gl25),
         "a3e73132981bdb87a714bcb90da505a120b16fca5902470e88585cae48f89353"),
        (s6, X,
         "decbe95ab76f4b459e735201005816fab43fc6e5e34444215ef8c88a1623e599"),
    ]
    for group, connection, want in cases:
        graph = build_cayley(group, connection)
        assert graph.adjacency.shape == (group.order, group.order)
        assert graph.adjacency.dtype == bool
        assert hashlib.sha256(
            repr(bitmasks(graph)).encode()).hexdigest() == want


def test_build_cayley_pinned_graphs_in_7_column_blocks(monkeypatch):
    monkeypatch.setattr(groups, "BLOCK_BYTES", _SevenColumns())
    test_build_cayley_pinned_graphs()


def _alpha_cases():
    """Graphs that 7 rows per block split unevenly, or hold whole."""
    s6, efp2 = _s6_efp2()
    z = make_abelian_product([1500])
    rng = random.Random(5)
    cases = [petersen(), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
             Graph.from_edges(0, []), build_cayley(s6, efp2),
             build_cayley(*_gl25_rank1()),
             build_cayley(z, ConnectionSet.from_classes(z, []))]
    cases += [build_cayley(*case) for case in _cayley_cases()]
    for n in (5, 7, 13, 40):
        cases.append(Graph.from_edges(n, [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.3]))
    return cases


def test_alpha_in_7_row_blocks_gives_the_same_answers(monkeypatch):
    """The complement's bitmasks are built a block of rows at a time."""
    cases = _alpha_cases()
    want = [alpha(g) for g in cases]
    monkeypatch.setattr(groups, "BLOCK_BYTES", _SevenColumns())
    assert [alpha(g) for g in cases] == want


def test_alpha_packs_only_c_ordered_blocks(monkeypatch):
    """packbits along the rows of a Fortran-ordered block runs about 30x
    slower, so every block alpha packs must be C-contiguous, in 7-row
    blocks and at the default size."""
    packbits = np.packbits

    def guard(a, *args, **kwargs):
        assert a.flags.c_contiguous
        return packbits(a, *args, **kwargs)

    cases = _alpha_cases()
    want = [alpha(g) for g in cases]
    monkeypatch.setattr(np, "packbits", guard)
    assert [alpha(g) for g in cases] == want
    monkeypatch.setattr(groups, "BLOCK_BYTES", _SevenColumns())
    assert [alpha(g) for g in cases] == want


def test_alpha_memory_at_the_order_bound():
    """alpha on Cay(Z_5000, empty) (the order bound before the memory
    budget) holds the complement's bitmasks and one block of rows beside
    its 25 MB graph: 8 MB traced, where unpacking the graph's bitmasks
    and relabelling the whole complement took 54 MB."""
    z = make_abelian_product([5000])
    graph = build_cayley(z, ConnectionSet.from_classes(z, []))
    tracemalloc.start()
    try:
        res = alpha(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exact and res.witness == tuple(range(5000))
    assert peak <= 16 * 2 ** 20


def test_alpha_known_graphs():
    res = alpha(petersen())
    assert res.exact and res.lower == res.upper == 4
    w = res.witness
    g = petersen()
    assert len(w) == 4
    assert all(not g.adjacency[u, v] for u in w for v in w if u != v)

    cycle7 = Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
    assert alpha(cycle7).value == 3

    empty = Graph.from_edges(5, [])
    assert alpha(empty).value == 5
    complete = Graph.from_edges(5, [(i, j) for i in range(5)
                                    for j in range(i + 1, 5)])
    assert alpha(complete).value == 1

    # K_{1,3}, centre 0: a search rooted at vertex 0 would give 1
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert not star.transitive
    res = alpha(star)
    assert res.exact and res.value == 3 and res.witness == (1, 2, 3)


def test_alpha_against_oracle_random():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 12)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        res = alpha(g)
        assert res.exact
        assert res.value == brute_force_alpha(g)


def test_alpha_deeper_than_the_recursion_limit():
    # the empty Cayley graph on Z_1500: the search goes 1500 levels deep
    z = make_abelian_product([1500])
    res = alpha(build_cayley(z, ConnectionSet.from_classes(z, [])))
    assert res.exact and res.value == 1500
    assert res.witness == tuple(range(1500))


def _independent(graph, witness):
    return all(not graph.adjacency[u, v] for u in witness for v in witness
               if u != v)


def _cayley_cases():
    """(group, connection) pairs: every inverse-closed union of classes of
    S_4, and seeded inverse-closed element sets on four groups."""
    s4 = make_symmetric(4)
    inverse = s4.conjugacy_classes().inverse
    cases = []
    for mask in range(1 << (len(inverse) - 1)):
        picked = [i + 1 for i in range(len(inverse) - 1) if mask >> i & 1]
        if all(inverse[i] in picked for i in picked):
            cases.append((s4, ConnectionSet.from_classes(s4, picked)))
    for group, counts in ((make_abelian_product([12]), (1, 2, 3, 4)),
                          (make_abelian_product([2, 2, 2, 2]), (3, 5, 8)),
                          (s4, (2, 4, 6)),
                          (make_general_linear(3, 2), (3, 6, 10))):
        for seed, count in enumerate(counts):
            picked = random.Random(seed).sample(range(1, group.order), count)
            cases.append((group, ConnectionSet.from_elements(
                group, picked + [group.invert(x) for x in picked])))
    return cases


def test_alpha_transitive_root_matches_plain_search():
    # the search rooted at vertex 0 of a Cayley graph against the search
    # over all roots of the same adjacency, and the brute force oracle
    for group, connection in _cayley_cases():
        cay = build_cayley(group, connection)
        assert cay.transitive
        plain = Graph(cay.adjacency)
        assert not plain.transitive
        res = alpha(cay)
        want = alpha(plain)
        assert res.exact and want.exact
        assert res.value == want.value
        if cay.vertex_count <= 16:
            assert res.value == brute_force_alpha(cay)
        assert len(res.witness) == res.value
        assert _independent(cay, res.witness)
        assert 0 in res.witness   # the search holds the identity


def test_alpha_clique_candidates_need_no_search():
    # candidates that form a clique of the complement are taken whole when
    # their frame is made, before the first look at the clock
    z = make_abelian_product([12])
    cases = [(build_cayley(z, ConnectionSet.from_classes(z, [])), 12),
             (build_cayley(z, ConnectionSet.from_elements(
                 z, range(1, 12))), 1),
             (Graph.from_edges(6, []), 6)]
    for graph, want in cases:
        res = alpha(graph, time_budget=1e-6)
        assert res.exact and res.value == want


def test_alpha_pinned_cayley_cells():
    s6 = make_symmetric(6)
    gl27 = make_general_linear(7, 2)
    assert alpha(build_cayley(s6, efp_connection(6, 1, s6))).value == 120
    assert alpha(build_cayley(s6, efp_connection(6, 3, s6))).value == 6
    res = alpha(build_cayley(gl27, gl_connection(7, 2, 1, gl27)))
    assert res.exact and res.value == 42 == gl_lower_bound(7, 2, 1)


def test_alpha_budget_gives_valid_bounds():
    rng = random.Random(3)
    n = 40
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.2]
    # on a Cayley graph the upper bound is 1 + the colors of the root's
    # candidates; on C_5 that bound is tight
    z5 = make_abelian_product([5])
    tested = [Graph.from_edges(n, edges),
              build_cayley(z5, ConnectionSet.from_elements(z5, [1, 4]))]
    tested += [build_cayley(*case) for case in _cayley_cases()[-6:]]
    for g in tested:
        res = alpha(g, time_budget=1e-6)
        assert res.lower <= alpha(g).value <= res.upper
        w = res.witness
        assert len(w) == res.lower
        assert _independent(g, w)


def test_alpha_budget_zero_gives_one_vertex():
    """A budget that runs out before the first leaf still certifies the
    lower bound 1 by a one-vertex witness, vertex 0, on transitive and
    other graphs alike."""
    z200 = make_abelian_product([200])
    s5 = make_symmetric(5)
    rng = random.Random(3)
    edges = [(i, j) for i in range(40) for j in range(i + 1, 40)
             if rng.random() < 0.2]
    cases = [(build_cayley(z200, ConnectionSet.from_classes(z200, [1, 199])),
              100),
             (build_cayley(s5, efp_connection(5, 1, s5)), 27),
             (Graph.from_edges(40, edges), None)]
    for graph, upper in cases:
        res = alpha(graph, time_budget=0)
        assert not res.exact
        assert res.lower == 1 and res.witness == (0,)
        assert _independent(graph, res.witness)
        assert upper is None or res.upper == upper
        assert res.upper >= alpha(graph).value


def test_blowup_petersen():
    # Petersen as the Kneser graph on 2-subsets of {0..4}; S5 acts on the
    # subsets, and its closure from a transposition and a 5-cycle has
    # order 120
    from itertools import combinations
    pairs = list(combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    g = Graph.from_edges(10, [(i, j) for i, a in enumerate(pairs)
                              for j, b in enumerate(pairs)
                              if i < j and not set(a) & set(b)])

    def induced(perm):
        return [idx[tuple(sorted((perm[a], perm[b])))] for (a, b) in pairs]

    action = action_from_generators([induced([1, 0, 2, 3, 4]),
                                     induced([1, 2, 3, 4, 0])])
    assert action.group.order == 120
    X = blowup_connection(action, g)
    cay = build_cayley(action.group, X)
    a_cay = alpha(cay).value
    assert alpha(g).value * action.group.order == g.vertex_count * a_cay


def test_blowup_cycle_and_dihedral():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    # regular action of Z5
    z5 = make_abelian_product([5])
    act = GroupAction(z5, z5.products(np.arange(5)[:, None], np.arange(5)))
    X = blowup_connection(act, c5)
    assert sorted(X.elements) == [1, 4]
    cay = build_cayley(z5, X)
    assert alpha(cay).value * 5 == 5 * alpha(c5).value

    # dihedral action of order 10 via generators
    act10 = action_from_generators([[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]])
    assert act10.group.order == 10
    X10 = blowup_connection(act10, c5)
    cay10 = build_cayley(act10.group, X10)
    assert alpha(c5).value * 10 == 5 * alpha(cay10).value


def test_blowup_above_the_class_bound_needs_no_classes():
    """Z_10002 acting on an edge by parity: its connection set, the odd
    elements, is found without the group's conjugacy classes; they are
    made only when a class-level question is asked, and an abelian
    group's classes, one per element, are made above the orbit sweep's
    GENERIC_CLASS_BOUND too, so every set of its elements is a union of
    classes."""
    z = make_abelian_product([groups.GENERIC_CLASS_BOUND + 2])
    parity = np.arange(z.order) % 2
    action = GroupAction(z, np.stack([parity, 1 - parity], axis=1))
    X = blowup_connection(action, Graph.from_edges(2, [(0, 1)]))
    assert X.elements == tuple(range(1, z.order, 2))
    assert z._classes is None
    assert X.conjugation_closed
    assert X.as_classes == X.elements


def test_blowup_rejects_bad_actions():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    z5 = make_abelian_product([5])
    # "action" that is not by automorphisms: swap two vertices only
    bad = [[0, 1, 2, 3, 4], [1, 0, 2, 3, 4], [0, 1, 2, 4, 3],
           [1, 0, 2, 4, 3], [0, 1, 2, 3, 4]]
    with pytest.raises((NotAutomorphism, InvalidArgument)):
        blowup_connection(GroupAction(z5, bad), c5)
    # trivial action: fixes everything, hence not transitive
    z2 = make_abelian_product([2])
    triv = [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]]
    with pytest.raises(NotTransitive):
        blowup_connection(GroupAction(z2, triv), c5)


def test_blowup_checks_automorphisms_at_every_order():
    """Z_2003 rotating C_2003, conjugated by the swap of vertices 0 and
    5, is a transitive action but not by automorphisms: its generator 1
    maps the edge (0, 1) to (6, 2).  It is refused, where once no element
    was checked above order 2000; the rotations themselves pass."""
    n = 2003
    cycle = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    z = make_abelian_product([n])
    rotations = (np.arange(n)[:, None] + np.arange(n)) % n
    X = blowup_connection(GroupAction(z, rotations), cycle)
    assert X.elements == (1, n - 1)
    swap = np.arange(n)
    swap[[0, 5]] = [5, 0]
    conjugated = GroupAction(z, swap[rotations[:, swap]])
    with pytest.raises(NotAutomorphism) as caught:
        blowup_connection(conjugated, cycle)
    assert (caught.value.element, caught.value.edge) == (1, (0, 1))
    assert not cycle.adjacency[6, 2]


def test_blowup_witness_is_a_broken_edge():
    """On the dihedral action of order 10 on C_5 with the letters 1 and
    2 renamed, the reported element maps the reported edge to a
    non-edge."""
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    action = action_from_generators([[2, 3, 1, 4, 0], [0, 3, 4, 1, 2]])
    assert action.group.order == 10
    with pytest.raises(NotAutomorphism) as caught:
        blowup_connection(action, c5)
    (u, v), g = caught.value.edge, caught.value.element
    assert c5.adjacency[u, v]
    assert not c5.adjacency[tuple(action.table[g, [u, v]])]


def test_graph_file_roundtrip(tmp_path):
    g = petersen()
    path = tmp_path / "petersen.txt"
    export_graph(g, path)
    g2 = import_graph(path)
    assert g2.vertex_count == 10
    assert sorted(edge_list(g2)) == sorted(edge_list(g))


@pytest.mark.parametrize("size", [groups.BLOCK_BYTES, 5])
def test_graph_file_bytes_are_pinned(tmp_path, monkeypatch, size):
    """sha256 of the file that the edge-by-edge writer made of a seeded
    graph whose degrees vary by row; written a block of rows at a time
    (one row per block at 5 bytes), the bytes are the same."""
    monkeypatch.setattr(groups, "BLOCK_BYTES", size)
    rng = random.Random(33)
    g = Graph.from_edges(257, [(u, v) for u in range(257)
                               for v in range(u + 1, 257)
                               if rng.random() < (u % 7) / 10])
    path = tmp_path / "g.txt"
    export_graph(g, path)
    data = path.read_bytes()
    assert data.startswith(b"vertices 257 edges 9665\n")
    assert hashlib.sha256(data).hexdigest() == (
        "d37cbf89d988bbfe9655ec3df04e986a584cc232d6fb6e4541f21c8917be02a3")


def test_graph_file_roundtrip_of_100000_edges(tmp_path):
    """Cay(Z_1000, +-{1..100}): the writer holds one block of rows of
    text (the list of every edge once took 13.7 MB traced), and the
    reader gets the same adjacency back."""
    z = make_abelian_product([1000])
    half = np.arange(1, 101)
    g = build_cayley(z, ConnectionSet.from_elements(
        z, np.r_[half, z.order - half]))
    path = tmp_path / "g.txt"
    tracemalloc.start()
    try:
        export_graph(g, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 21
    assert len(path.read_text().splitlines()) == 100_001
    back = import_graph(path)
    assert not back.transitive
    assert (back.adjacency == g.adjacency).all()


def test_graph_file_of_a_dense_graph_holds_about_one_block(tmp_path):
    """Cay(Z_2000, +-{1..499}), 998,000 edges: a block of rows is sized
    by its adjacency and the narrow u and v of every vertex of a row,
    so the writer traces less than four blocks.  Sized by the adjacency
    alone, a block held up to 2^17 edges as two int64 index arrays and
    their text, 2.7 MB.  The bytes are those of the edge-by-edge
    writer."""
    z = make_abelian_product([2000])
    half = np.arange(1, 500)
    g = build_cayley(z, ConnectionSet.from_elements(
        z, np.r_[half, z.order - half]))
    path = tmp_path / "g.txt"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        export_graph(g, path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 4 * groups.BLOCK_BYTES
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c6c73f9ca7076ab68d3fbae40848381dd8c60bd8f69079788e8a11865be2d155")


@pytest.mark.parametrize("edges, outcome", [
    ("\n  0 3  \n\n", [(0, 3)]),
    ("", []),
    ("0 1\n2 2\n", (InvalidArgument, "self-loop at 2$")),
    ("2 2\n0 9\n", (InvalidArgument, "self-loop at 2$")),
    ("0 9\n2 2\n", (InvalidArgument, r"edge \(0,9\) out of range$")),
    ("7 7\n", (InvalidArgument, "self-loop at 7$")),
    ("-1 2\n", (InvalidArgument, r"edge \(-1,2\) out of range$")),
    ("0 1\n1 x\n", (SchemaError, "malformed edge '1 x'$")),
    ("0 1 2\n1 x\n", (SchemaError, "malformed edge '0 1 2'$")),
    ("0 1\n1\n", (SchemaError, "malformed edge '1'$")),
    ("0 1\n1_0 2\n", (InvalidArgument, r"edge \(10,2\) out of range$")),
    (f"0 1\n1 {10 ** 20}\n",
     (InvalidArgument, rf"edge \(1,{10 ** 20}\) out of range$")),
    (f"{-2 ** 64} {-2 ** 64}\n",
     (InvalidArgument, f"self-loop at {-2 ** 64}$")),
])
def test_graph_file_faults(tmp_path, edges, outcome):
    """Edge lines of int64 are read as one array and checked at once; a
    file with a fault is read line by line, and the message names its
    first faulty edge in file order, a self-loop before a vertex out of
    range."""
    path = tmp_path / "g.txt"
    count = sum(1 for line in edges.splitlines() if line.strip())
    path.write_text(f"vertices 4 edges {count}\n{edges}")
    if isinstance(outcome, list):
        assert edge_list(import_graph(path)) == outcome
    else:
        with pytest.raises(outcome[0], match=outcome[1]):
            import_graph(path)
    if isinstance(outcome, list) or outcome[0] is not SchemaError:
        # a wrong count is named before any edge that parses
        path.write_text(f"vertices 4 edges {count + 1}\n{edges}")
        with pytest.raises(SchemaError, match=(
                f"expected {count + 1} edges, found {count}$")):
            import_graph(path)


@pytest.mark.parametrize("text, outcome", [
    ("2 2\n0 1\n1 0\n", None),
    ("2 2\n\n0 1\n  \n1 0\n", None),
    ("2 2\n0 1\n1 a\n", (SchemaError, "malformed action table row '1 a'$")),
    ("2 2\n0 1\n1\n", (InvalidArgument, "ragged action table$")),
    ("2 2\n0 1\n1 0 1\n", (InvalidArgument, "ragged action table$")),
    ("2 3\n0 1\n1 0\n",
     (SchemaError, "rows have 2 points, but the header says 3$")),
    ("2 2\n0 1 1 0\n", (SchemaError, "does not match the group order$")),
    ("2 2\n0 1\n1 0\n1 0\n", (SchemaError, "does not match the group order$")),
    ("2 2\n", (SchemaError, "does not match the group order$")),
    (f"2 2\n0 1\n1 {-2 ** 70}\n", (InvalidArgument, r"points 0\.\.1$")),
])
def test_action_file_faults(tmp_path, text, outcome):
    """Rows of int64 are read as one array; a file with a fault is read
    line by line, and the message names the fault.  Ragged rows are
    refused by the one check of ``GroupAction``, and even rows of the
    wrong width by the header."""
    path = tmp_path / "act.txt"
    path.write_text(text)
    z2 = make_abelian_product([2])
    if outcome is None:
        assert import_action_table(path, z2).table.tolist() == [[0, 1], [1, 0]]
    else:
        with pytest.raises(outcome[0], match=outcome[1]):
            import_action_table(path, z2)


def test_action_file_roundtrip(tmp_path):
    z5 = make_abelian_product([5])
    act = GroupAction(z5, z5.products(np.arange(5)[:, None], np.arange(5)))
    path = tmp_path / "act.txt"
    export_action(act, path)
    act2 = import_action_table(path, z5)
    assert act2.table.tolist() == act.table.tolist()
