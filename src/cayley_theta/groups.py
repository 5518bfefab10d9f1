"""Concrete finite-group models.

Every group is an indexed element set: elements are the integers
``0 .. order-1`` with index 0 always the identity.  The indexing is
canonical per group kind so that external artifacts (certificates,
exported tables) are reproducible byte-for-byte:

* symmetric groups: Lehmer-code rank of the permutation;
* abelian products: mixed-radix encoding of the component tuple;
* general linear groups: identity first, then invertible matrices in
  row-major lexicographic order of their entry vectors;
* table groups: the row/column index of the supplied Cayley table.

Composition convention for permutations: the right factor acts first,
i.e. ``(p * q)(i) = p(q(i))``.

``multiply`` and ``invert`` give single products.  Work over many pairs
(Cayley graphs, conjugacy classes, group matrices) goes through
``products`` and ``inverses``, which act on whole numpy index arrays.
They read an array of every element, built on the first bulk call: the
``(n!, n)`` permutations of S_n or the ``(|G|, n, n)`` matrices of
GL(n, q).  A table group keeps its Cayley table as an array, and
abelian products compute their digits.  The arrays hold the elements in
the canonical order above, so indexing is the same on both paths, and a
group that only ever answers class-level questions (the character table
and LP of S_10) never builds one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidArgument, NotAGroup

GENERIC_CLASS_BOUND = 10000   # orbit algorithm cutoff


# ---------------------------------------------------------------------------
# partitions and permutations

@lru_cache(maxsize=None)
def partitions(n: int) -> tuple:
    """All partitions of n as weakly decreasing tuples, in ascending
    lexicographic order: for n = 4 this is (1,1,1,1), (2,1,1), (2,2),
    (3,1), (4).  This order is the canonical class/irrep order for S_n."""
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(n, n, [])
    return tuple(sorted(out))


def cycle_type(perm: Sequence[int]) -> tuple:
    """Cycle type of a permutation as a weakly decreasing tuple."""
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)


def partition_label(parts: Sequence[int]) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


def perm_rank(perm: Sequence[int]) -> int:
    """Lehmer-code rank of a permutation of {0..n-1}."""
    n = len(perm)
    elems = list(range(n))
    r = 0
    for i, v in enumerate(perm):
        j = elems.index(v)
        r += j * factorial(n - 1 - i)
        elems.pop(j)
    return r


def perm_unrank(r: int, n: int) -> tuple:
    elems = list(range(n))
    perm = []
    for i in range(n):
        f = factorial(n - 1 - i)
        j, r = divmod(r, f)
        perm.append(elems.pop(j))
    return tuple(perm)


# ---------------------------------------------------------------------------
# core types

@dataclass(frozen=True)
class ConjugacyClass:
    representative: int
    size: int
    label: str
    inverse_class: int
    members: Optional[tuple] = None   # omitted for large symmetric groups


@dataclass(frozen=True)
class GroupAction:
    """An action of ``group`` on points {0..point_count-1}; ``table`` has
    one row per group element giving the image of every point."""
    group: "FiniteGroup"
    point_count: int
    table: tuple   # table[g][p] = g . p

    def act(self, g: int, p: int) -> int:
        return self.table[g][p]


class FiniteGroup:
    """Base class: an immutable indexed group.  Subclasses fix the element
    encoding and supply multiply/invert and the bulk products; conjugacy
    classes are cached on first request."""

    kind = "table"
    identity = 0

    def __init__(self, order: int):
        self.order = order
        self._classes = None
        self._class_of = None

    # -- group operations (element indices) --
    def multiply(self, a: int, b: int) -> int:
        raise NotImplementedError

    def invert(self, a: int) -> int:
        raise NotImplementedError

    def products(self, a, b) -> np.ndarray:
        """Products ``a * b`` of index arrays, elementwise under numpy
        broadcasting; either side may be a single index."""
        raise NotImplementedError

    def inverses(self) -> np.ndarray:
        """The inverse of every element, as one index array: g^-1 is
        g^(order-1) (Lagrange), raised for all g at once by squaring."""
        result = np.zeros(self.order, dtype=np.int64)
        power = np.arange(self.order)
        e = self.order - 1
        while e:
            if e & 1:
                result = self.products(result, power)
            power = self.products(power, power)
            e >>= 1
        return result

    def identity_key(self):
        """What fixes the element numbering within this class of group;
        see :func:`same_group`."""
        return id(self)

    def element_label(self, a: int) -> str:
        return str(a)

    # -- conjugacy structure --
    def conjugacy_classes(self):
        if self._classes is None:
            self._classes = self._compute_classes()
        return self._classes

    def _compute_classes(self):
        if self.order > GENERIC_CLASS_BOUND:
            raise InvalidArgument(
                f"generic conjugacy-class computation limited to order "
                f"{GENERIC_CLASS_BOUND}, got {self.order}")
        hs = np.arange(self.order)
        inv = self.inverses()
        class_of = np.full(self.order, -1)
        member_lists = []
        # the sweep visits each class first at its smallest member, which
        # is its representative; the identity 0 comes first, so class 0 is
        # the identity class
        for g in range(self.order):
            if class_of[g] < 0:
                in_orbit = np.zeros(self.order, dtype=bool)
                in_orbit[self.products(self.products(hs, g), inv)] = True
                orbit = np.flatnonzero(in_orbit)
                class_of[orbit] = len(member_lists)
                member_lists.append(tuple(orbit.tolist()))
        inverse_class = class_of[inv[[m[0] for m in member_lists]]].tolist()
        self._class_of = dict(enumerate(class_of.tolist()))
        return tuple(
            ConjugacyClass(representative=members[0], size=len(members),
                           label=self.element_label(members[0]),
                           inverse_class=inverse_class[idx], members=members)
            for idx, members in enumerate(member_lists))

    def class_index_of(self, g: int) -> int:
        if self._class_of is None:
            self.conjugacy_classes()
            if self._class_of is None:
                raise InvalidArgument("class membership unavailable")
        return self._class_of[g]

    def class_members(self, idx: int):
        members = self.conjugacy_classes()[idx].members
        if members is None:
            raise InvalidArgument("class members not materialized")
        return members


class AbelianProductGroup(FiniteGroup):
    """Direct product of cyclic groups Z_m1 x ... x Z_mr, written additively.
    Element index is the mixed-radix encoding with the last modulus varying
    fastest."""

    kind = "abelian-product"

    def __init__(self, moduli):
        moduli = tuple(int(m) for m in moduli)
        if not moduli:
            raise InvalidArgument("at least one modulus required")
        if any(m < 2 for m in moduli):
            raise InvalidArgument(f"moduli must be >= 2, got {moduli}")
        order = prod(moduli)
        super().__init__(order)
        self.moduli = moduli
        # place value of each digit, the last modulus varying fastest
        self.strides = tuple(prod(moduli[i + 1:])
                             for i in range(len(moduli)))

    def decode(self, a: int) -> tuple:
        out = []
        for m in reversed(self.moduli):
            a, r = divmod(a, m)
            out.append(r)
        return tuple(reversed(out))

    def encode(self, xs) -> int:
        a = 0
        for x, m in zip(xs, self.moduli):
            a = a * m + (x % m)
        return a

    def multiply(self, a, b):
        return self.encode(x + y for x, y in
                           zip(self.decode(a), self.decode(b)))

    def invert(self, a):
        return self.encode(-x for x in self.decode(a))

    def products(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        out = 0
        for m, stride in zip(self.moduli, self.strides):
            out = out + (a // stride + b // stride) % m * stride
        return out

    def identity_key(self):
        return self.moduli

    def element_label(self, a):
        return "(" + ",".join(str(x) for x in self.decode(a)) + ")"

    def _compute_classes(self):
        inverse = self.inverses().tolist()
        self._class_of = {g: g for g in range(self.order)}
        return tuple(
            ConjugacyClass(representative=g, size=1,
                           label=self.element_label(g),
                           inverse_class=inverse[g], members=(g,))
            for g in range(self.order))


class SymmetricGroup(FiniteGroup):
    """S_n with elements indexed by Lehmer rank (identity has rank 0).
    Conjugacy classes are classified analytically by cycle type; members
    are enumerated lazily and only on demand."""

    kind = "symmetric"
    MAX_N = 10

    def __init__(self, n: int):
        if not 1 <= n <= self.MAX_N:
            raise InvalidArgument(f"need 1 <= n <= {self.MAX_N}, got {n}")
        super().__init__(factorial(n))
        self.n = n
        self._perms = None

    def perm(self, a: int) -> tuple:
        return perm_unrank(a, self.n)

    def multiply(self, a, b):
        # right factor acts first: (p*q)(i) = p(q(i))
        p, q = self.perm(a), self.perm(b)
        return perm_rank(tuple(p[q[i]] for i in range(self.n)))

    def invert(self, a):
        p = self.perm(a)
        inv = [0] * self.n
        for i, v in enumerate(p):
            inv[v] = i
        return perm_rank(tuple(inv))

    def _perm_array(self) -> np.ndarray:
        """Row r is the permutation of rank r: ``itertools.permutations``
        yields them in lexicographic order, which is Lehmer-rank order."""
        if self._perms is None:
            self._perms = np.array(
                list(itertools.permutations(range(self.n))),
                dtype=np.int64)
            # a permutation's key reads its entries as base-n digits; the
            # keys increase with the rank, so searchsorted ranks them
            self._weights = self.n ** np.arange(self.n - 1, -1, -1)
            self._keys = self._perms @ self._weights
        return self._perms

    def products(self, a, b):
        perms = self._perm_array()
        p, q = np.broadcast_arrays(perms[a], perms[b])
        composed = np.take_along_axis(p, q, axis=-1)
        return np.searchsorted(self._keys, composed @ self._weights)

    def identity_key(self):
        return self.n

    def element_label(self, a):
        return "[" + " ".join(str(v) for v in self.perm(a)) + "]"

    @staticmethod
    def class_size(parts) -> int:
        """n!/z_mu with z_mu = prod_i i^{m_i} m_i! over part multiplicities."""
        n = sum(parts)
        z = 1
        mult = {}
        for p in parts:
            mult[p] = mult.get(p, 0) + 1
        for p, m in mult.items():
            z *= (p ** m) * factorial(m)
        return factorial(n) // z

    @staticmethod
    def canonical_of_type(parts) -> tuple:
        """Permutation with cycles of the given lengths on consecutive
        letters, longest cycle first."""
        perm = []
        start = 0
        for length in sorted(parts, reverse=True):
            perm.extend(start + (i + 1) % length for i in range(length))
            start += length
        return tuple(perm)

    def _compute_classes(self):
        classes = []
        parts_list = partitions(self.n)
        index_of_type = {mu: i for i, mu in enumerate(parts_list)}
        materialize = self.order <= GENERIC_CLASS_BOUND
        members_by_type = None
        if materialize:
            members_by_type = {mu: [] for mu in parts_list}
            for r, p in enumerate(self._perm_array().tolist()):
                members_by_type[cycle_type(p)].append(r)
        for mu in parts_list:
            rep = perm_rank(self.canonical_of_type(mu))
            classes.append(ConjugacyClass(
                representative=rep,
                size=self.class_size(mu),
                label=partition_label(mu),
                inverse_class=index_of_type[mu],  # every class is self-inverse
                members=tuple(members_by_type[mu]) if materialize else None))
        return tuple(classes)

    def class_index_of(self, g):
        parts_list = partitions(self.n)
        return parts_list.index(cycle_type(self.perm(g)))


# ---------------------------------------------------------------------------
# finite fields and general linear groups

# Fixed irreducible polynomials (Conway polynomials), coefficients listed
# from the constant term up, excluding the leading 1:
#   F_4 = F_2[x]/(x^2 + x + 1), F_8 = F_2[x]/(x^3 + x + 1),
#   F_9 = F_3[x]/(x^2 + 2x + 2).
# A field element c_0 + c_1 x + ... is encoded as the integer
# c_0 + c_1 p + c_2 p^2.
_FIELD_POLYS = {4: (2, [1, 1]), 8: (2, [1, 1, 0]), 9: (3, [2, 2])}
_PRIMES = {2, 3, 5, 7}


class FiniteField:
    """Arithmetic tables for F_q, q in {2,3,4,5,7,8,9}."""

    def __init__(self, q: int):
        if q in _PRIMES:
            p, poly = q, []
        elif q in _FIELD_POLYS:
            p, poly = _FIELD_POLYS[q]
        else:
            raise InvalidArgument(f"unsupported field size {q}")
        self.q = q
        self.p = p
        deg = len(poly) if poly else 1
        self.add = [[0] * q for _ in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(q):
                da, db = self._digits(a, deg), self._digits(b, deg)
                self.add[a][b] = self._enc([(x + y) % p for x, y in zip(da, db)])
                prod = [0] * (2 * deg - 1)
                for i, x in enumerate(da):
                    for j, y in enumerate(db):
                        prod[i + j] = (prod[i + j] + x * y) % p
                # reduce modulo the fixed polynomial: x^deg = -poly
                for k in range(2 * deg - 2, deg - 1, -1):
                    c = prod[k]
                    if c:
                        prod[k] = 0
                        for i, coef in enumerate(poly):
                            prod[k - deg + i] = (prod[k - deg + i] - c * coef) % p
                self.mul[a][b] = self._enc(prod[:deg])
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0)
                    for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)

    def _digits(self, a, deg):
        out = []
        for _ in range(deg):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def _enc(self, digits):
        a = 0
        for d in reversed(digits):
            a = a * self.p + d
        return a


class GeneralLinearGroup(FiniteGroup):
    """GL(n, F_q).  Elements are the invertible matrices, the identity
    first, the rest in lexicographic order of the row-major entry
    vector."""

    kind = "general-linear"
    MAX_ORDER = 10000

    def __init__(self, q: int, n: int):
        field = FiniteField(q)
        if n < 1:
            raise InvalidArgument(f"need n >= 1, got {n}")
        expected = 1
        for i in range(n):
            expected *= q ** n - q ** i
        if expected > self.MAX_ORDER:
            raise InvalidArgument(
                f"|GL({n},F_{q})| = {expected} exceeds bound {self.MAX_ORDER}")
        super().__init__(expected)
        self.q, self.n, self.field = q, n, field
        ident = tuple(tuple(1 if i == j else 0 for j in range(n))
                      for i in range(n))
        mats = []
        for entries in itertools.product(range(q), repeat=n * n):
            mat = tuple(tuple(entries[i * n + j] for j in range(n))
                        for i in range(n))
            if mat != ident and self._invertible(mat):
                mats.append(mat)
        self.matrices = (ident,) + tuple(mats)
        if len(self.matrices) != expected:
            raise NotAGroup("order-formula", (len(self.matrices), expected))
        self.index = {m: i for i, m in enumerate(self.matrices)}
        self._mats = None

    def _invertible(self, mat):
        return self._inverse(mat) is not None

    def _inverse(self, mat):
        f, n = self.field, self.n
        aug = [list(mat[i]) + [1 if j == i else 0 for j in range(n)]
               for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if piv is None:
                return None
            aug[col], aug[piv] = aug[piv], aug[col]
            s = f.inv[aug[col][col]]
            aug[col] = [f.mul[s][v] for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    c = f.neg[aug[r][col]]
                    aug[r] = [f.add[v][f.mul[c][w]]
                              for v, w in zip(aug[r], aug[col])]
        return tuple(tuple(row[n:]) for row in aug)

    def mat_mul(self, A, B):
        f, n = self.field, self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                s = 0
                for k in range(n):
                    s = f.add[s][f.mul[A[i][k]][B[k][j]]]
                row.append(s)
            out.append(tuple(row))
        return tuple(out)

    def mat_rank(self, mat):
        f, n = self.field, self.n
        M = [list(r) for r in mat]
        rank = 0
        for col in range(n):
            piv = next((r for r in range(rank, n) if M[r][col] != 0), None)
            if piv is None:
                continue
            M[rank], M[piv] = M[piv], M[rank]
            for r in range(rank + 1, n):
                if M[r][col] != 0:
                    c = f.neg[f.mul[M[r][col]][f.inv[M[rank][col]]]]
                    M[r] = [f.add[v][f.mul[c][w]]
                            for v, w in zip(M[r], M[rank])]
            rank += 1
        return rank

    def multiply(self, a, b):
        return self.index[self.mat_mul(self.matrices[a], self.matrices[b])]

    def invert(self, a):
        return self.index[self._inverse(self.matrices[a])]

    def products(self, a, b):
        if self._mats is None:
            # the field tables as arrays, and the index of every matrix
            # by its entry vector read as a base-q number (-1: singular)
            self._mats = np.array(self.matrices, dtype=np.int64)
            self._add = np.array(self.field.add)
            self._mul = np.array(self.field.mul)
            self._weights = self.q ** np.arange(
                self.n * self.n - 1, -1, -1).reshape(self.n, self.n)
            self._index_of_key = np.full(self.q ** (self.n * self.n), -1)
            self._index_of_key[(self._mats * self._weights).sum(
                axis=(-2, -1))] = np.arange(self.order)
        A, B = self._mats[a], self._mats[b]
        terms = self._mul[A[..., :, :, None], B[..., None, :, :]]
        C = terms[..., 0, :]     # C[i, j] = sum over k of A[i, k] B[k, j]
        for k in range(1, self.n):
            C = self._add[C, terms[..., k, :]]
        return self._index_of_key[(C * self._weights).sum(axis=(-2, -1))]

    def identity_key(self):
        return (self.q, self.n)

    def element_label(self, a):
        return ";".join(" ".join(str(v) for v in row)
                        for row in self.matrices[a])


class TableGroup(FiniteGroup):
    """Group given by an explicit Cayley table (verified on construction).
    If the identity is not element 0 the table is relabelled by swapping
    it with 0."""

    kind = "table"

    def __init__(self, table, labels=None):
        table = [list(row) for row in table]
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise InvalidArgument("table must be square and nonempty")
        full = set(range(n))
        for i, row in enumerate(table):
            if set(row) != full:
                raise NotAGroup("latin-square-row", (i,))
        for j in range(n):
            if {table[i][j] for i in range(n)} != full:
                raise NotAGroup("latin-square-column", (j,))
        e = next((g for g in range(n)
                  if all(table[g][h] == h and table[h][g] == h
                         for h in range(n))), None)
        if e is None:
            raise NotAGroup("identity", ())
        if e != 0:
            table, labels = _swap_labels(table, labels, e)
        super().__init__(n)
        self.table = tuple(tuple(row) for row in table)
        self.labels = tuple(labels) if labels else None
        inv = [None] * n
        for g in range(n):
            inv[g] = next((h for h in range(n) if self.table[g][h] == 0), None)
            if inv[g] is None or self.table[inv[g]][g] != 0:
                raise NotAGroup("inverse", (g,))
        self._inv = tuple(inv)
        self._array = np.array(self.table)
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise NotAGroup("associativity", (a, b, c))

    def multiply(self, a, b):
        return self.table[a][b]

    def invert(self, a):
        return self._inv[a]

    def products(self, a, b):
        return self._array[a, b]

    def identity_key(self):
        return self.table

    def element_label(self, a):
        return self.labels[a] if self.labels else str(a)


def _swap_labels(table, labels, e):
    """Relabel the table so that element e becomes 0."""
    n = len(table)
    sigma = list(range(n))
    sigma[0], sigma[e] = e, 0
    new = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new[sigma[a]][sigma[b]] = sigma[table[a][b]]
    if labels:
        relabeled = list(labels)
        relabeled[0], relabeled[e] = labels[e], labels[0]
        labels = relabeled
    return new, labels


# ---------------------------------------------------------------------------
# constructors and table I/O

def make_abelian_product(moduli) -> AbelianProductGroup:
    return AbelianProductGroup(moduli)


def make_symmetric(n: int) -> SymmetricGroup:
    return SymmetricGroup(n)


def make_general_linear(q: int, n: int) -> GeneralLinearGroup:
    return GeneralLinearGroup(q, n)


def make_from_table(table, labels=None) -> TableGroup:
    return TableGroup(table, labels)


def conjugacy_classes(group: FiniteGroup):
    return group.conjugacy_classes()


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Whether two group objects describe the identical indexed group
    (same element numbering, not merely isomorphic)."""
    return a is b or (type(a) is type(b) and a.order == b.order
                      and a.identity_key() == b.identity_key())


def export_cayley_table(group: FiniteGroup, path):
    """Plain text: first line the order, then order lines of indices."""
    everything = np.arange(group.order)
    with open(path, "w") as fh:
        fh.write(f"{group.order}\n")
        for a in range(group.order):
            row = group.products(a, everything).tolist()
            fh.write(" ".join(map(str, row)) + "\n")


def import_cayley_table(path) -> TableGroup:
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise InvalidArgument("empty Cayley table file")
    n = int(tokens[0])
    vals = [int(t) for t in tokens[1:]]
    if len(vals) != n * n:
        raise InvalidArgument(
            f"expected {n * n} table entries, got {len(vals)}")
    table = [vals[i * n:(i + 1) * n] for i in range(n)]
    return make_from_table(table)


def action_from_table(group: FiniteGroup, table) -> GroupAction:
    """Wrap an explicit action table after checking the action axioms on
    generatable spot checks: identity row and compatibility on all pairs
    when the group is small."""
    table = tuple(tuple(row) for row in table)
    if len(table) != group.order:
        raise InvalidArgument("action table must have one row per element")
    point_count = len(table[0])
    if any(len(row) != point_count for row in table):
        raise InvalidArgument("ragged action table")
    if any(not 0 <= p < point_count for row in table for p in row):
        raise InvalidArgument(
            f"action table entries must be points 0..{point_count - 1}")
    if table[group.identity] != tuple(range(point_count)):
        raise InvalidArgument("identity must act trivially")
    if group.order <= 200:
        act = np.array(table, dtype=np.int64)
        elements = np.arange(group.order)
        products = group.products(elements[:, None], elements)
        # one g at a time keeps memory at |G| x points
        for g in range(group.order):
            bad = np.flatnonzero(act[g][act] != act[products[g]])
            if bad.size:
                h, p = divmod(int(bad[0]), point_count)
                raise InvalidArgument(f"not an action: ({g},{h},{p})")
    return GroupAction(group=group, point_count=point_count, table=table)


def action_from_generators(perms) -> GroupAction:
    """Close a set of point permutations under composition and build the
    generated permutation group as a TableGroup acting naturally.

    The closure is enumerated breadth-first from the identity; element 0
    is the identity and the remaining indices follow discovery order.
    """
    perms = [tuple(p) for p in perms]
    if not perms:
        raise InvalidArgument("need at least one generator")
    npts = len(perms[0])
    if any(len(p) != npts or sorted(p) != list(range(npts)) for p in perms):
        raise InvalidArgument("generators must be permutations of one set")
    ident = tuple(range(npts))
    elements = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                q = tuple(g[p[i]] for i in range(npts))
                if q not in index:
                    index[q] = len(elements)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
        if len(elements) > 100000:
            raise InvalidArgument("generator closure too large")
    order = len(elements)
    table = [[0] * order for _ in range(order)]
    for a, pa in enumerate(elements):
        for b, pb in enumerate(elements):
            table[a][b] = index[tuple(pa[pb[i]] for i in range(npts))]
    group = TableGroup(table)
    return GroupAction(group=group, point_count=npts,
                       table=tuple(elements))
