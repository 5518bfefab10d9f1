import hashlib
import random

import pytest

from cayley_theta.apps import efp_connection, gl_connection
from cayley_theta.errors import (InvalidArgument, NotAutomorphism,
                                 NotTransitive, WrongFormulation)
from cayley_theta.graphs import (ConnectionSet, Graph, alpha,
                                 blowup_connection, build_cayley,
                                 export_action, export_graph, import_action_table,
                                 import_graph)
from cayley_theta.groups import (action_from_generators, action_from_table,
                                 make_abelian_product, make_general_linear,
                                 make_symmetric)

from oracles import brute_force_alpha


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def test_graph_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    comp = g.complement()
    assert comp.has_edge(0, 2) and not comp.has_edge(0, 1)
    assert sorted(g.edges) == [(0, 1), (1, 2)]
    with pytest.raises(InvalidArgument):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InvalidArgument):
        Graph.from_edges(3, [(1, 1)])


def test_connection_set_from_classes_excludes_identity():
    s3 = make_symmetric(3)
    with pytest.raises(InvalidArgument):
        ConnectionSet.from_classes(s3, [0])
    X = ConnectionSet.from_classes(s3, [1])
    assert X.conjugation_closed
    assert X.size == 3
    assert all(e in X for e in X.elements)
    assert 0 not in X


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


def test_build_cayley_cycle():
    z6 = make_abelian_product([6])
    X = ConnectionSet.from_elements(z6, [1, 5])
    g = build_cayley(z6, X)
    assert sorted(g.edges) == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]


def _inverse_closed_set(group, size, seed):
    """A seeded inverse-closed, identity-free set of exactly size elements."""
    rng = random.Random(seed)
    chosen = set()
    while len(chosen) < size:
        x = rng.randrange(1, group.order)
        pair = {x, group.invert(x)}
        if len(chosen | pair) <= size:
            chosen |= pair
    return sorted(chosen)


def test_build_cayley_pinned_graphs():
    # sha256 of repr(adj) as built one product at a time, before the
    # array kernels; the arrays must give the same graphs bit for bit
    s6 = make_symmetric(6)
    gl25 = make_general_linear(5, 2)
    X = ConnectionSet.from_elements(s6, _inverse_closed_set(s6, 120, 0))
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
        assert all(type(mask) is int for mask in graph.adj)
        assert hashlib.sha256(repr(graph.adj).encode()).hexdigest() == want


def test_alpha_known_graphs():
    res = alpha(petersen())
    assert res.exact and res.lower == res.upper == 4
    w = res.witness
    g = petersen()
    assert len(w) == 4
    assert all(not g.has_edge(u, v) for u in w for v in w if u != v)

    cycle7 = Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
    assert alpha(cycle7).value == 3

    empty = Graph.from_edges(5, [])
    assert alpha(empty).value == 5
    complete = Graph.from_edges(5, [(i, j) for i in range(5)
                                    for j in range(i + 1, 5)])
    assert alpha(complete).value == 1


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


def test_alpha_budget_gives_valid_bounds():
    rng = random.Random(3)
    n = 40
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.2]
    g = Graph.from_edges(n, edges)
    res = alpha(g, time_budget=1e-6)
    assert res.lower <= res.upper
    w = res.witness
    assert len(w) == res.lower
    assert all(not g.has_edge(u, v) for u in w for v in w if u != v)


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
    act = action_from_table(z5, [[z5.multiply(g, p) for p in range(5)]
                                 for g in range(5)])
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


def test_blowup_rejects_bad_actions():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    z5 = make_abelian_product([5])
    # "action" that is not by automorphisms: swap two vertices only
    bad = [[0, 1, 2, 3, 4], [1, 0, 2, 3, 4], [0, 1, 2, 4, 3],
           [1, 0, 2, 4, 3], [0, 1, 2, 3, 4]]
    with pytest.raises((NotAutomorphism, InvalidArgument)):
        blowup_connection(action_from_table(z5, bad), c5)
    # trivial action: fixes everything, hence not transitive
    z2 = make_abelian_product([2])
    triv = [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]]
    with pytest.raises(NotTransitive):
        blowup_connection(action_from_table(z2, triv), c5)


def test_graph_file_roundtrip(tmp_path):
    g = petersen()
    path = tmp_path / "petersen.txt"
    export_graph(g, path)
    g2 = import_graph(path)
    assert g2.vertex_count == 10
    assert sorted(g2.edges) == sorted(g.edges)


def test_action_file_roundtrip(tmp_path):
    z5 = make_abelian_product([5])
    act = action_from_table(z5, [[z5.multiply(g, p) for p in range(5)]
                                 for g in range(5)])
    path = tmp_path / "act.txt"
    export_action(act, path)
    act2 = import_action_table(path, z5)
    assert all(act2.act(g, p) == act.act(g, p)
               for g in range(5) for p in range(5))
