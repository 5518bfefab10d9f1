"""Cayley graphs, exact independence numbers, and vertex-transitive
blowups.

A graph is its n x n boolean adjacency array.  The independence number
is computed as a maximum clique of the complement with a greedy
coloring bound; a coloring of the complement is exactly a clique cover
of the original graph.  Only that search holds bitmasks (one Python int
per vertex), which keeps its inner loops cheap.

Three exact rules keep the search small.  On a Cayley graph, left
multiplication x -> gx is an automorphism ((gy)^-1 (gx) = y^-1 x), so
the graph is vertex-transitive and some maximum independent set holds
vertex 0: the search starts from {0} alone.  A candidate set whose
greedy coloring needs one color per vertex is a clique of the
complement and is taken whole, without branching.  Candidates whose
color bound cannot beat the incumbent are not stored (the coloring rule
of BBMC, San Segundo et al., Comput. Oper. Res. 2011).
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import groups
from .errors import (InvalidArgument, NotAutomorphism, NotTransitive,
                     SchemaError)
from .groups import (FiniteGroup, GroupAction, blocks, check_memory,
                     decimal_lines, distinct, load_rows, parse_ints,
                     same_group)


# ---------------------------------------------------------------------------
# connection sets

class ConnectionSet:
    """Inverse-closed, identity-free subset of a group; when the set is a
    union of conjugacy classes, ``as_classes`` holds the class indices and
    element materialization can be skipped entirely.  A set given by its
    elements finds its classes on the first read of ``as_classes``, so
    building its Cayley graph needs no class membership."""

    def __init__(self, group: FiniteGroup, as_classes=None, elements=None):
        self.group = group
        if as_classes is not None:
            self.as_classes = tuple(sorted(as_classes))
        self._elements = tuple(sorted(elements)) if elements is not None \
            else None

    @classmethod
    def from_classes(cls, group: FiniteGroup, class_indices):
        inverse = group.conjugacy_classes().inverse
        idx = sorted(set(int(i) for i in class_indices))
        for i in idx:
            if not 0 <= i < len(inverse):
                raise InvalidArgument(f"no conjugacy class {i}")
        if 0 in idx:
            raise InvalidArgument(
                "connection set must not contain the identity class")
        missing = ~np.isin(inverse[idx], idx)
        if missing.any():
            i = idx[np.argmax(missing)]
            raise InvalidArgument(f"class {i} present but its inverse class "
                                  f"{inverse[i]} is not")
        return cls(group, as_classes=idx)

    @classmethod
    def from_elements(cls, group: FiniteGroup, elements):
        """The set of these elements, a collection of integers, checked
        on one sorted int64 array of the distinct ones; each fault names
        the smallest element that has it."""
        try:
            index = distinct(np.fromiter(elements, dtype=np.int64))
        except OverflowError:
            # every group order fits int64, so such an element is outside
            index = distinct(np.array(list(map(int, elements)), dtype=object))
        outside = (index < 0) | (index >= group.order)
        if outside.any():
            raise InvalidArgument(f"no element {index[np.argmax(outside)]}")
        if (index == group.identity).any():
            raise InvalidArgument(
                "connection set must not contain the identity")
        missing = ~np.isin(group.invert(index), index)
        if missing.any():
            raise InvalidArgument(f"element {index[np.argmax(missing)]} "
                                  "present but its inverse is not")
        return cls(group, elements=index.tolist())

    @cached_property
    def as_classes(self):
        """The classes whose union is the set; None if it is no union of
        classes."""
        sizes = self.group.conjugacy_classes().sizes
        inside = np.bincount(self.group.class_of()[list(self._elements)],
                             minlength=len(sizes))
        if ((inside != 0) & (inside != sizes)).any():
            return None
        return tuple(np.flatnonzero(inside).tolist())

    @property
    def conjugation_closed(self) -> bool:
        return self.as_classes is not None

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            inside = np.isin(self.group.class_of(), self.as_classes)
            self._elements = tuple(np.flatnonzero(inside).tolist())
        return self._elements

    @property
    def size(self) -> int:
        if self._elements is not None:
            return len(self._elements)
        sizes = self.group.conjugacy_classes().sizes
        return int(sizes[list(self.as_classes)].sum())


# ---------------------------------------------------------------------------
# graphs

@dataclass(frozen=True, eq=False)
class Graph:
    """A simple graph on the vertices 0..n-1: its symmetric n x n boolean
    adjacency array, False on the diagonal, checked and made read-only,
    not copied; symmetry is compared on square tiles of the upper
    triangle, so that no n x n temporary is made.  ``transitive``: the
    constructor proved the graph vertex-transitive (only build_cayley
    does)."""
    adjacency: np.ndarray
    transitive: bool = False

    def __post_init__(self):
        a = self.adjacency
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidArgument(
                f"adjacency array of shape {a.shape} is not square")
        loops = np.flatnonzero(a.diagonal())
        if loops.size:
            raise InvalidArgument(f"self-loop at {loops[0]}")
        # tiles of about BLOCK_BYTES, a row of tiles at a time: a tile and
        # its transposed partner stay in cache, where a transposed column
        # slab strides across every row; the first pair (u, v) in
        # row-major order has u < v, so tiles left of the diagonal are
        # skipped, and the first of a tile row is the least over its tiles
        side = math.isqrt(groups.BLOCK_BYTES // a.itemsize)
        tiles = list(blocks(len(a), side * a.itemsize))
        for i, rows in enumerate(tiles):
            odd = []
            for cols in tiles[i:]:
                tile = a[rows, cols] != a[cols, rows].T
                if tile.any():
                    u, v = divmod(int(np.argmax(tile)), tile.shape[1])
                    odd.append((rows.start + u, cols.start + v))
            if odd:
                u, v = min(odd)
                raise InvalidArgument(
                    f"adjacency array is not symmetric at ({u}, {v})")
        a.setflags(write=False)

    @classmethod
    def from_edges(cls, n: int, edges):
        """The graph on n vertices with these edges, a sequence of integer
        pairs, checked and set as one int64 array; a faulty sequence is
        walked in order to name its first fault."""
        if n < 0:
            raise InvalidArgument(f"negative vertex count {n}")
        check_memory(f"a graph on {n} vertices", (n * n, 1))
        try:
            pairs = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
            us, vs = pairs.T
            clean = not ((us == vs).any() or (pairs < 0).any()
                         or (pairs >= n).any())
        except OverflowError:
            # a vertex beyond int64 is out of range: the walk names it
            clean = False
        if not clean:
            for u, v in edges:
                if u == v:
                    raise InvalidArgument(f"self-loop at {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise InvalidArgument(f"edge ({u},{v}) out of range")
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[us, vs] = adjacency[vs, us] = True
        return cls(adjacency)

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)


def build_cayley(group: FiniteGroup, connection: ConnectionSet) -> Graph:
    """Cay(Gamma, X): x ~ y iff y^-1 x in X; regular of degree |X|."""
    check_memory(f"the Cayley graph of order {group.order}",
                 (group.order ** 2, 1))
    if not same_group(connection.group, group):
        raise InvalidArgument("connection set belongs to a different group")
    inside = np.zeros(group.order, dtype=bool)
    inside[list(connection.elements)] = True
    if inside[group.identity]:
        raise InvalidArgument("connection set produced a self-loop")
    # a products column per element of the smaller side: set the arcs
    # x -> xs of each s in X, or start from all arcs and clear those of
    # each s outside X (the identity's are the diagonal); one products
    # call per block of whole columns
    direct = 2 * inside.sum() <= group.order - 1
    side = np.flatnonzero(inside == direct)
    xs = np.arange(group.order)[:, None]
    hit = np.full((group.order, group.order), not direct)
    for cols in blocks(len(side), xs.nbytes):
        hit[xs, group.products(xs, side[None, cols])] = direct
    # x -> gx is an automorphism: (gy)^-1 (gx) = y^-1 x
    return Graph(hit, transitive=True)


# ---------------------------------------------------------------------------
# independence number

@dataclass(frozen=True)
class AlphaResult:
    lower: int
    upper: int
    witness: tuple
    exact: bool

    @property
    def value(self) -> Optional[int]:
        return self.lower if self.exact else None


def alpha(graph: Graph, time_budget: Optional[float] = None) -> AlphaResult:
    """Exact maximum independent set by branch-and-bound (maximum clique
    of the complement, greedy-coloring bound, Tomita-style pruning).

    On a ``transitive`` graph the search starts from the clique {v0} of
    the complement, v0 = vertex 0, with v0's complement neighbours as
    candidates: an automorphism moves any maximum independent set onto
    one that holds v0.  Other graphs start from the whole vertex set.
    A candidate set colored with one color per vertex is a clique of the
    complement, taken whole as a leaf.  Candidates whose color bound is
    not above the incumbent are not stored: the incumbent only grows, so
    they would be pruned anyway.

    The time budget is in seconds; NaN or a negative one raises
    InvalidArgument.  If it runs out, certified lower/upper bounds
    are returned with ``exact=False``; the upper bound is the coloring
    bound of the first frame (1 + its colors on a transitive graph), and
    the lower bound is at least 1, witnessed by vertex 0 alone when no
    leaf was reached.
    """
    if time_budget is not None and not time_budget >= 0:
        raise InvalidArgument(f"time budget must be >= 0, not {time_budget}")
    n = graph.vertex_count
    if n == 0:
        return AlphaResult(0, 0, (), True)
    # relabeling: complement-degree descending (degree ascending), index ties
    order = np.argsort(np.count_nonzero(graph.adjacency, axis=1),
                       kind="stable")
    # adj[v]: v's complement neighbours, a bitmask; blocks of rows are
    # gathered by rows, then columns (np.ix_ is 6x slower); np.take keeps
    # the block in C order, where [:, order] returns it in Fortran order
    # and packbits along its rows then runs about 30x slower
    adj = []
    for rows in blocks(n, graph.adjacency[0].nbytes):
        comp = np.take(graph.adjacency[order[rows]], order, axis=1)
        np.logical_not(comp, out=comp)
        np.fill_diagonal(comp[:, rows.start:], False)
        adj.extend(int.from_bytes(row.tobytes(), "little") for row in
                   np.packbits(comp, axis=1, bitorder="little"))
    order = order.tolist()
    # apart[v]: the vertices that may share v's color (not v, not adjacent)
    apart = [~(adj[v] | (1 << v)) for v in range(n)]
    deadline = None if time_budget is None else time.monotonic() + time_budget
    best_size = 0
    best_mask = 0
    full = (1 << n) - 1

    def node(R, size, P):
        """(frame, bound) of the clique R with candidates P.  The frame
        [R, size, verts, bounds, i, avail] holds the candidates in greedy
        color classes whose clique size bound beats the incumbent, each
        with that bound, the next one to branch on (from the end) and the
        candidates not yet branched on; bound is the coloring bound."""
        nonlocal best_size, best_mask
        verts = []
        bounds = []
        left = P
        bound = size
        while left:
            bound += 1
            keep = bound > best_size
            Q = left
            while Q:
                low = Q & -Q
                v = low.bit_length() - 1
                Q &= apart[v]
                left ^= low
                if keep:
                    verts.append(v)
                    bounds.append(bound)
        if bound - size == P.bit_count():
            # one color per candidate: P is a clique, nothing to branch on
            if bound > best_size:
                best_size, best_mask = bound, R | P
            verts, bounds = [], []
        # arrays hold the stack's millions of entries without an int
        # object each
        return [R, size, array("l", verts), array("l", bounds),
                len(verts) - 1, P], bound

    # depth-first search on an explicit stack, so that alpha is not bounded
    # by Python's recursion limit; branch order and pruning are those of
    # the recursive form
    timed_out = False
    if graph.transitive:
        v0 = order.index(0)
        root, upper = node(1 << v0, 1, adj[v0])
    else:
        root, upper = node(0, 0, full)
    stack = [root]
    while stack:
        frame = stack[-1]
        R, size, verts, bounds, i, avail = frame
        if i < 0 or bounds[i] <= best_size:
            stack.pop()
            continue
        if deadline is not None and time.monotonic() > deadline:
            timed_out = True
            break
        v = verts[i]
        avail &= ~(1 << v)
        frame[4], frame[5] = i - 1, avail
        P = avail & adj[v]
        if P:
            stack.append(node(R | (1 << v), size + 1, P)[0])
        elif size + 1 > best_size:
            best_size, best_mask = size + 1, R | (1 << v)
    witness = tuple(sorted(order[i] for i in range(n)
                           if best_mask >> i & 1))
    if timed_out:
        # no leaf yet: vertex 0 alone is independent (on a transitive
        # graph it is v0, the root clique of the complement)
        return AlphaResult(max(best_size, 1), upper, witness or (0,), False)
    return AlphaResult(best_size, best_size, witness, True)


# ---------------------------------------------------------------------------
# blowups of vertex-transitive graphs

def blowup_connection(action: GroupAction, graph: Graph,
                      base_point: int = 0) -> ConnectionSet:
    """Connection set X = {gamma : {x0, gamma.x0} in E} turning a
    vertex-transitive graph into a Cayley graph on the acting group.

    The action is verified to be transitive and by automorphisms, on
    the generators only: automorphisms are closed under products.  The
    contract alpha(G).|Gamma| = |V|.alpha(Cay(Gamma, X)) is asserted by
    the test suite, not here.
    """
    if action.point_count != graph.vertex_count:
        raise InvalidArgument("action and graph disagree on the vertex set")
    if not 0 <= base_point < graph.vertex_count:
        raise InvalidArgument(f"no vertex {base_point}")
    act, M = action.table, graph.adjacency
    for h in action.group.generators():
        # h permutes the vertices, so it is an automorphism iff it maps
        # no edge to a non-edge; the first edge it breaks is the witness
        broken = M & ~np.take(M[act[h]], act[h], axis=1)
        if broken.any():
            u, v = divmod(int(np.argmax(broken)), graph.vertex_count)
            raise NotAutomorphism(h, (u, v))
    seen = np.zeros(graph.vertex_count, dtype=bool)
    orbits = []
    for p in range(graph.vertex_count):
        if not seen[p]:
            orbit = distinct(act[:, p])
            seen[orbit] = True
            orbits.append(orbit.tolist())
    if len(orbits) != 1:
        raise NotTransitive(orbits)
    X = np.flatnonzero(M[base_point, act[:, base_point]])
    return ConnectionSet.from_elements(action.group, X.tolist())


# ---------------------------------------------------------------------------
# file formats

def export_graph(graph: Graph, path):
    """Header 'vertices N edges K', then each edge 'u v', u < v, in
    row-major order; the upper triangle is walked and written a block of
    rows at a time, each block as ``decimal_lines``."""
    a = graph.adjacency
    n = graph.vertex_count
    newline = np.array([b"\n"])
    with open(path, "wb") as fh:
        fh.write(f"vertices {n} edges {np.count_nonzero(a) // 2}\n".encode())
        for rows in blocks(n, n * a.itemsize):
            u, v = np.nonzero(np.triu(a[rows], rows.start + 1))
            u += rows.start
            fh.write(decimal_lines([u, v], newline))


def import_graph(path) -> Graph:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "vertices" or header[2] != "edges":
            raise SchemaError("expected header 'vertices N edges K'")
        n, k = parse_ints(header[1::2], f"graph header {' '.join(header)!r}")
        lines = [line for line in fh if line.strip()]
    edges = load_rows(lines)
    if edges is None or len(edges) and edges.shape[1] != 2:
        edges = [parse_ints(line.split(), f"edge {line.strip()!r}", 2)
                 for line in lines]
    if len(edges) != k:
        raise SchemaError(f"expected {k} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def export_action(action: GroupAction, path):
    np.savetxt(path, action.table, fmt="%d", comments="",
               header=f"{action.group.order} {action.point_count}")


def import_action_table(path, group: FiniteGroup) -> GroupAction:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise SchemaError("expected header 'ORDER POINTS'")
        order, npts = parse_ints(
            header, f"action table header {' '.join(header)!r}")
        lines = [line for line in fh if line.strip()]
    rows = load_rows(lines)
    if rows is None:
        rows = [parse_ints(line.split(), f"action table row {line.strip()!r}")
                for line in lines]
    if order != group.order or len(rows) != order:
        raise SchemaError("action table does not match the group order")
    action = GroupAction(group, rows)
    if action.point_count != npts:
        raise SchemaError(f"action table rows have {action.point_count} "
                          f"points, but the header says {npts}")
    return action
