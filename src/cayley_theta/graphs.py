"""Cayley graphs, exact independence numbers, and vertex-transitive
blowups.

Graphs are stored as adjacency bitmasks (one Python int per vertex),
which keeps the branch-and-bound inner loops cheap.  The independence
number is computed as a maximum clique of the complement with a greedy
coloring bound; a coloring of the complement is exactly a clique cover
of the original graph.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (InvalidArgument, NotAutomorphism, NotTransitive,
                     SchemaError)
from .groups import FiniteGroup, GroupAction, same_group

CAYLEY_BOUND = 5000
BLOWUP_VERIFY_BOUND = 2000


# ---------------------------------------------------------------------------
# connection sets

class ConnectionSet:
    """Inverse-closed, identity-free subset of a group; when the set is a
    union of conjugacy classes, ``as_classes`` holds the class indices and
    element materialization can be skipped entirely."""

    def __init__(self, group: FiniteGroup, as_classes=None, elements=None):
        self.group = group
        self.as_classes = tuple(sorted(as_classes)) if as_classes is not None \
            else None
        self._elements = tuple(sorted(elements)) if elements is not None \
            else None

    @classmethod
    def from_classes(cls, group: FiniteGroup, class_indices):
        classes = group.conjugacy_classes()
        idx = sorted(set(int(i) for i in class_indices))
        for i in idx:
            if not 0 <= i < len(classes):
                raise InvalidArgument(f"no conjugacy class {i}")
        if 0 in idx:
            raise InvalidArgument(
                "connection set must not contain the identity class")
        for i in idx:
            if classes[i].inverse_class not in idx:
                raise InvalidArgument(
                    f"class {i} present but its inverse class "
                    f"{classes[i].inverse_class} is not")
        return cls(group, as_classes=idx)

    @classmethod
    def from_elements(cls, group: FiniteGroup, elements):
        elems = sorted(set(int(e) for e in elements))
        for e in elems:
            if not 0 <= e < group.order:
                raise InvalidArgument(f"no element {e}")
        if group.identity in elems:
            raise InvalidArgument(
                "connection set must not contain the identity")
        eset = set(elems)
        for e in elems:
            if group.invert(e) not in eset:
                raise InvalidArgument(
                    f"element {e} present but its inverse is not")
        as_classes = cls._detect_classes(group, eset)
        return cls(group, as_classes=as_classes, elements=elems)

    @staticmethod
    def _detect_classes(group, eset):
        try:
            classes = group.conjugacy_classes()
        except InvalidArgument:
            return None
        picked = []
        for i, c in enumerate(classes):
            if c.members is None:
                return None
            inside = sum(1 for m in c.members if m in eset)
            if inside == c.size:
                picked.append(i)
            elif inside != 0:
                return None
        return picked

    @property
    def conjugation_closed(self) -> bool:
        return self.as_classes is not None

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            members = []
            for i in self.as_classes:
                members.extend(self.group.class_members(i))
            self._elements = tuple(sorted(members))
        return self._elements

    @property
    def size(self) -> int:
        if self._elements is not None:
            return len(self._elements)
        classes = self.group.conjugacy_classes()
        return sum(classes[i].size for i in self.as_classes)

    def __contains__(self, e: int) -> bool:
        if self.as_classes is not None:
            return self.group.class_index_of(e) in self.as_classes
        return e in self.elements


# ---------------------------------------------------------------------------
# graphs

@dataclass(frozen=True)
class Graph:
    vertex_count: int
    adj: tuple   # adj[v] = bitmask of neighbors

    @classmethod
    def from_edges(cls, n: int, edges):
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise InvalidArgument(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidArgument(f"edge ({u},{v}) out of range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(vertex_count=n, adj=tuple(adj))

    @classmethod
    def from_matrix(cls, matrix):
        """Graph of a symmetric boolean adjacency array."""
        rows = np.packbits(matrix, axis=1, bitorder="little")
        return cls(vertex_count=len(matrix), adj=tuple(
            int.from_bytes(row.tobytes(), "little") for row in rows))

    def matrix(self) -> np.ndarray:
        """The adjacency bitmasks as an n x n boolean array."""
        n = self.vertex_count
        width = (n + 7) // 8
        rows = np.frombuffer(b"".join(m.to_bytes(width, "little")
                                      for m in self.adj), dtype=np.uint8)
        return np.unpackbits(rows.reshape(n, width), axis=1, count=n,
                             bitorder="little").astype(bool)

    @property
    def edges(self):
        out = []
        for u in range(self.vertex_count):
            mask = self.adj[u] >> (u + 1)
            v = u + 1
            while mask:
                if mask & 1:
                    out.append((u, v))
                mask >>= 1
                v += 1
        return out

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def degree(self, v):
        return bin(self.adj[v]).count("1")

    def complement(self):
        full = (1 << self.vertex_count) - 1
        return Graph(self.vertex_count, tuple(
            (full ^ self.adj[v]) & ~(1 << v)
            for v in range(self.vertex_count)))


def build_cayley(group: FiniteGroup, connection: ConnectionSet) -> Graph:
    """Cay(Gamma, X): x ~ y iff y^-1 x in X; regular of degree |X|."""
    if group.order > CAYLEY_BOUND:
        raise InvalidArgument(
            f"Cayley graph materialization limited to order {CAYLEY_BOUND}")
    if not same_group(connection.group, group):
        raise InvalidArgument("connection set belongs to a different group")
    xs = np.arange(group.order)
    hit = np.zeros((group.order, group.order), dtype=bool)
    for s in connection.elements:
        hit[xs, group.products(xs, s)] = True
    if hit.diagonal().any():
        raise InvalidArgument("connection set produced a self-loop")
    return Graph.from_matrix(hit)


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

    If the time budget (seconds) runs out, certified lower/upper bounds
    are returned with ``exact=False``.
    """
    n = graph.vertex_count
    if n == 0:
        return AlphaResult(0, 0, (), True)
    comp = ~graph.matrix()
    np.fill_diagonal(comp, False)
    # deterministic relabeling: complement-degree descending, index ties
    order = np.argsort(-comp.sum(axis=1), kind="stable")
    adj = Graph.from_matrix(comp[np.ix_(order, order)]).adj
    order = order.tolist()
    # apart[v]: the vertices that may share v's color (not v, not adjacent)
    apart = [~(adj[v] | (1 << v)) for v in range(n)]
    deadline = None if time_budget is None else time.monotonic() + time_budget
    best_size = 0
    best_mask = 0
    full = (1 << n) - 1

    def node(R, size, P):
        """Search frame [R, size, verts, bounds, i, avail] of the clique R
        with candidates P: the candidates in greedy color classes, each
        with the clique size bound reached by taking it, the next one to
        branch on (from the end) and the candidates not yet branched on."""
        verts = []
        bounds = []
        left = P
        bound = size
        while left:
            bound += 1
            Q = left
            while Q:
                low = Q & -Q
                v = low.bit_length() - 1
                Q &= apart[v]
                left ^= low
                verts.append(v)
                bounds.append(bound)
        # arrays hold the stack's millions of entries without an int
        # object each
        return [R, size, array("l", verts), array("l", bounds),
                len(verts) - 1, P]

    # depth-first search on an explicit stack, so that alpha is not bounded
    # by Python's recursion limit; branch order and pruning are those of
    # the recursive form
    timed_out = False
    stack = [node(0, 0, full)]
    upper = stack[0][3][-1]   # colors used on the whole graph
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
            stack.append(node(R | (1 << v), size + 1, P))
        elif size + 1 > best_size:
            best_size, best_mask = size + 1, R | (1 << v)
    witness = tuple(sorted(order[i] for i in range(n)
                           if best_mask >> i & 1))
    if timed_out:
        return AlphaResult(best_size, upper, witness, False)
    return AlphaResult(best_size, best_size, witness, True)


# ---------------------------------------------------------------------------
# blowups of vertex-transitive graphs

def blowup_connection(action: GroupAction, graph: Graph,
                      base_point: int = 0) -> ConnectionSet:
    """Connection set X = {gamma : {x0, gamma.x0} in E} turning a
    vertex-transitive graph into a Cayley graph on the acting group.

    The action is verified to be by automorphisms and transitive; the
    contract alpha(G).|Gamma| = |V|.alpha(Cay(Gamma, X)) is asserted by
    the test suite, not here.
    """
    group = action.group
    if action.point_count != graph.vertex_count:
        raise InvalidArgument("action and graph disagree on the vertex set")
    if not 0 <= base_point < graph.vertex_count:
        raise InvalidArgument(f"no vertex {base_point}")
    if group.order <= BLOWUP_VERIFY_BOUND:
        edges = graph.edges
        for g in range(group.order):
            for (u, v) in edges:
                if not graph.has_edge(action.act(g, u), action.act(g, v)):
                    raise NotAutomorphism(g, (u, v))
    seen = set()
    orbits = []
    for p in range(graph.vertex_count):
        if p not in seen:
            orbit = {action.act(g, p) for g in range(group.order)}
            seen |= orbit
            orbits.append(sorted(orbit))
    if len(orbits) != 1:
        raise NotTransitive(orbits)
    X = [g for g in range(group.order)
         if graph.has_edge(base_point, action.act(g, base_point))]
    return ConnectionSet.from_elements(group, X)


# ---------------------------------------------------------------------------
# file formats

def export_graph(graph: Graph, path):
    edges = graph.edges
    with open(path, "w") as fh:
        fh.write(f"vertices {graph.vertex_count} edges {len(edges)}\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")


def import_graph(path) -> Graph:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "vertices" or header[2] != "edges":
            raise SchemaError("expected header 'vertices N edges K'")
        n, k = int(header[1]), int(header[3])
        edges = []
        for line in fh:
            if line.strip():
                u, v = line.split()
                edges.append((int(u), int(v)))
    if len(edges) != k:
        raise SchemaError(f"expected {k} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def export_action(action: GroupAction, path):
    with open(path, "w") as fh:
        fh.write(f"{action.group.order} {action.point_count}\n")
        for row in action.table:
            fh.write(" ".join(str(p) for p in row) + "\n")


def import_action_table(path, group: FiniteGroup) -> GroupAction:
    from .groups import action_from_table
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise SchemaError("expected header 'ORDER POINTS'")
        order, npts = int(header[0]), int(header[1])
        rows = []
        for line in fh:
            if line.strip():
                rows.append([int(t) for t in line.split()])
    if order != group.order or len(rows) != order:
        raise SchemaError("action table does not match the group order")
    if any(len(r) != npts for r in rows):
        raise SchemaError("ragged action table")
    return action_from_table(group, rows)
