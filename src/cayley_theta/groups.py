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

Every group has two operations, ``products`` and ``invert``, both
elementwise on numpy index arrays under broadcasting; a single index
gives a single numpy integer.  ``inverses()`` is ``invert`` of every
element, cached.  S_n reads an int8 array of its ``(n!, n)``
permutations, built on the first call, so a group that only ever
answers class-level questions (the character table and LP of S_10)
never builds it; a product composes rows of that array, an inverse
inverts one row, a block of rows at a time, and both are ranked by the
one Lehmer-code ranking, counted from the entries.  GL(n, q) builds its
``(|G|, n, n)`` matrix array and its inverse index at construction, by
one Gauss-Jordan elimination over F_q of every entry vector at once.  A
table group keeps its Cayley table as an array and its inverses beside
it, and abelian products compute their digits.  The arrays hold the
elements in the canonical order above.

The classes are one ``ConjugacyClasses`` record of arrays, and class
membership is one read-only int array, ``class_of()``, whose entry g is
the index of g's conjugacy class.  It is set where the classes are
computed, except on S_n, whose classes are the cycle types: there it is
built on first request from the permutation array, so the classes alone
build neither array.  Labels are made only by ``class_labels()``.

Cayley and action tables are checked in full at every order through
``FiniteGroup.generators``, at most log2|G| elements: associativity
(Light's test) and the action axiom each hold on a set closed under
products, so they hold on G once they hold on a generating set.

Arrays of order^2 or n! items, and an abelian group's classes, must
fit ``MEMORY_BYTES``, checked by ``check_memory`` before they are made:
in ``SymmetricGroup()``, the abelian classes, ``abelian_character_table``,
``build_cayley``, ``Graph.from_edges``, ``build_sdp_A`` (at the bytes of
its narrow columns), ``extract_matrix_solution`` and ``symmetrize_matrix``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidArgument, NotAGroup, SchemaError, SizeLimit

GENERIC_CLASS_BOUND = 10000   # orbit sweep of the classes; |GL(n, q)|
# bytes per block of every loop that walks a large array a block at a time
BLOCK_BYTES = 1 << 17
# bytes that the arrays an input makes may take together (check_memory)
MEMORY_BYTES = 1 << 27


def blocks(count: int, item_bytes: int):
    """An iterator of slices of 0..count-1 in order, each of about
    BLOCK_BYTES bytes of items of item_bytes bytes (at least one item)."""
    step = max(1, BLOCK_BYTES // max(item_bytes, 1))
    return (slice(lo, lo + step) for lo in range(0, count, step))


def decimal_lines(columns, tail) -> np.ndarray:
    """One ASCII line per row of the nonnegative integer columns, as a
    uint8 array: their entries in decimal, a space between them, then
    the row's item of the bytes array ``tail`` (one item broadcasts).
    Each line is a row of one uint8 array with a field per column, as
    wide as its largest entry and a space: the digits right-aligned,
    by division by 10 in the column's narrowest unsigned dtype, and NUL
    where a field or ``tail`` pads.  The bytes that are not NUL are
    the text."""
    tops = [column.max(initial=0) for column in columns]
    ends = list(itertools.accumulate(len(str(top)) + 1 for top in tops))
    text = np.zeros((len(columns[0]), ends[-1] + tail.itemsize),
                    dtype=np.uint8)
    text[:, ends[-1]:] = tail.view(np.uint8).reshape(len(tail), -1)
    text[:, [end - 1 for end in ends[:-1]]] = ord(" ")
    for column, top, end in zip(columns, tops, ends):
        rest = column.astype(np.min_scalar_type(top))
        for place in range(end - 2, end - 2 - len(str(top)), -1):
            high = rest // 10
            digit = rest - high * 10 + ord("0")
            if place < end - 2:    # past the units: NUL once rest is 0
                digit *= rest > 0
            text[:, place] = digit
            rest = high
    return text[text != 0]


def check_memory(what: str, *arrays):
    """SizeLimit unless the arrays that ``what`` would make, given as
    (item count, item bytes) pairs, fit in MEMORY_BYTES together."""
    need = sum(count * item_bytes for count, item_bytes in arrays)
    if need > MEMORY_BYTES:
        raise SizeLimit(f"{what} needs {need} bytes, more than the memory "
                        f"budget of {MEMORY_BYTES} bytes")


def distinct(values) -> np.ndarray:
    """The sorted distinct entries of a 1-d array, as np.unique gives
    them, by one sort: np.unique hashes (numpy 2.4), 50x slower on the
    1.3 million elements of S_10 efp:1."""
    ordered = np.sort(values)
    return np.concatenate([ordered[:1],
                           ordered[1:][ordered[1:] != ordered[:-1]]])


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


def partition_label(parts: Sequence[int]) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


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

@dataclass(frozen=True, eq=False)
class ConjugacyClasses:
    """The conjugacy classes of a group as two read-only int64 arrays
    indexed by class, class 0 the identity class: ``sizes[c]`` is the
    size of class c and ``inverse[c]`` the index of the class of the
    inverses of its members.  ``len()`` is the number of classes."""
    sizes: np.ndarray
    inverse: np.ndarray

    def __post_init__(self):
        for name in ("sizes", "inverse"):
            array = np.asarray(getattr(self, name), dtype=np.int64)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __len__(self):
        return len(self.sizes)


@dataclass(frozen=True, eq=False)
class GroupAction:
    """An action of ``group`` on points {0..point_count-1}; ``table`` has
    one row per group element giving the image of every point, kept as a
    read-only int32 array, and the point count is its width.  Checked on
    construction, a block of rows at a time: the first (g, h, p) with
    g.(h.p) != (gh).p, h a generator, in the order (h, g, p)."""
    group: "FiniteGroup"
    table: np.ndarray   # table[g, p] = g . p

    def __post_init__(self):
        group = self.group
        if len(self.table) != group.order:
            raise InvalidArgument("action table must have one row per element")
        count = len(self.table[0])
        if any(len(row) != count for row in self.table):
            raise InvalidArgument("ragged action table")
        act = np.asarray(self.table)     # dtype object if an entry is huge
        for rows in blocks(group.order, act[0].nbytes):
            if ((act[rows] < 0) | (act[rows] >= count)).any():
                raise InvalidArgument(
                    f"action table entries must be points 0..{count - 1}")
        act = act.astype(np.int32)
        if (act[group.identity] != np.arange(count)).any():
            raise InvalidArgument("identity must act trivially")
        elements = np.arange(group.order)
        for h in group.generators():
            for rows in blocks(group.order, act[0].nbytes):
                # g.(h.p) against (gh).p, for every g of the block and p
                bad = (np.take(act[rows], act[h], axis=1)
                       != act[group.products(elements[rows], h)])
                if bad.any():
                    g, p = divmod(int(np.argmax(bad)), count)
                    raise InvalidArgument(
                        f"not an action: ({rows.start + g},{h},{p})")
        act.setflags(write=False)
        object.__setattr__(self, "table", act)

    @property
    def point_count(self) -> int:
        return self.table.shape[1]


class FiniteGroup:
    """Base class: an immutable indexed group.  Subclasses fix the element
    encoding and supply ``products`` and ``invert``; inverses and conjugacy
    classes are cached on first request, the classes with the one
    ``class_of`` array of every element's class index (on S_n, that
    array on its own first request)."""

    identity = 0

    def __init__(self, order: int):
        self.order = order
        self._classes = None
        self._class_of = None
        self._inverses = None

    # -- group operations (element indices) --
    def products(self, a, b) -> np.ndarray:
        """Products ``a * b`` of index arrays, elementwise under numpy
        broadcasting; either side may be a single index."""
        raise NotImplementedError

    def invert(self, a) -> np.ndarray:
        """Inverses of an index array, elementwise; a single index gives
        a single index.  Here they are gathered from the inverse array
        that GL and table groups build at construction."""
        return self.inverses()[a]

    def inverses(self) -> np.ndarray:
        """The inverse of every element, as one read-only index array:
        ``invert`` of every element, computed once."""
        if self._inverses is None:
            inverse = self.invert(np.arange(self.order))
            inverse.setflags(write=False)
            self._inverses = inverse
        return self._inverses

    def generators(self):
        """Each generator is the smallest element outside the closure of
        the ones before it under right multiplication; each at least
        doubles that subgroup, so there are at most log2(order).  Each is
        yielded before the closure grows, so a failing check stops there."""
        inside = np.arange(self.order) == self.identity
        gens = []
        while not inside.all():
            g = int(np.argmin(inside))
            yield g
            gens.append(g)
            frontier = np.flatnonzero(inside)
            while frontier.size:
                reached = self.products(frontier[:, None], gens).ravel()
                frontier = distinct(reached[~inside[reached]])
                inside[frontier] = True

    def identity_key(self):
        """What fixes the element numbering within this class of group;
        see :func:`same_group`."""
        return id(self)

    def element_label(self, a: int) -> str:
        return str(a)

    # -- conjugacy structure --
    def conjugacy_classes(self) -> ConjugacyClasses:
        if self._classes is None:
            self._classes = self._compute_classes()
            if self._class_of is not None:
                self._class_of.setflags(write=False)
        return self._classes

    def _compute_classes(self):
        if self.order > GENERIC_CLASS_BOUND:
            raise InvalidArgument(
                f"conjugacy-class computation limited to order "
                f"{GENERIC_CLASS_BOUND}, got {self.order}")
        hs = np.arange(self.order)
        inv = self.inverses()
        class_of = np.full(self.order, -1)
        firsts = []
        # the sweep visits each class first at its smallest member; the
        # identity 0 comes first, so class 0 is the identity class
        for g in range(self.order):
            if class_of[g] < 0:
                class_of[self.products(self.products(hs, g), inv)] = \
                    len(firsts)
                firsts.append(g)
        self._class_of = class_of
        return ConjugacyClasses(np.bincount(class_of), class_of[inv[firsts]])

    def class_of(self) -> np.ndarray:
        """The class index of every element, as one read-only int array
        set with the classes."""
        self.conjugacy_classes()
        return self._class_of

    def class_labels(self) -> list:
        """The label of every class, in class order: the element label of
        its smallest member."""
        firsts = np.unique(self.class_of(), return_index=True)[1]
        return [self.element_label(g) for g in firsts.tolist()]


class AbelianProductGroup(FiniteGroup):
    """Direct product of cyclic groups Z_m1 x ... x Z_mr, written additively.
    Element index is the mixed-radix encoding with the last modulus varying
    fastest."""

    def __init__(self, moduli):
        moduli = tuple(int(m) for m in moduli)
        if not moduli:
            raise InvalidArgument("at least one modulus required")
        if any(m < 2 for m in moduli):
            raise InvalidArgument(f"moduli must be >= 2, got {moduli}")
        order = prod(moduli)
        if order > np.iinfo(np.int64).max:
            raise SizeLimit(f"order {order} exceeds the int64 element "
                            "indices")
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

    def products(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        out = 0
        for m, stride in zip(self.moduli, self.strides):
            out = out + (a // stride + b // stride) % m * stride
        return out

    def invert(self, a):
        # each digit negated mod its modulus, added into one array
        a = np.asarray(a)
        out = np.zeros(a.shape, dtype=np.int64)
        digit = np.empty_like(out)
        for m, stride in zip(self.moduli, self.strides):
            np.floor_divide(a, stride, out=digit)
            np.negative(digit, out=digit)
            digit %= m
            digit *= stride
            out += digit
        return out[()]

    def identity_key(self):
        return self.moduli

    def element_label(self, a):
        return "(" + ",".join(str(x) for x in self.decode(a)) + ")"

    def element_labels(self) -> list:
        """``element_label`` of every element, in element order: one pass
        over the digit tuples, the last digit varying fastest."""
        digits = itertools.product(*(map(str, range(m)) for m in self.moduli))
        return ["(" + ",".join(d) + ")" for d in digits]

    def class_labels(self) -> list:
        return self.element_labels()

    def _compute_classes(self):
        # one class per element: the sizes, the inverses and class_of
        check_memory(f"a class per element at order {self.order}",
                     (3 * self.order, 8))
        inverse = self.inverses()
        self._class_of = np.arange(self.order)
        return ConjugacyClasses(np.ones(self.order, dtype=np.int64), inverse)


class SymmetricGroup(FiniteGroup):
    """S_n with elements indexed by Lehmer rank (identity has rank 0).
    Products compose rows of the int8 permutation array and inverses
    invert them; ``_rank`` ranks the results by their Lehmer code,
    computed from the entries; no n!-long key array is kept.  Conjugacy
    classes are the cycle types, in partition order, known without any
    element; ``class_of`` is read from the permutation array, a block of
    rows at a time, on its first request."""

    def __init__(self, n: int):
        if n < 1:
            raise InvalidArgument(f"need n >= 1, got {n}")
        # n! >= 2^(n-1): past the budget's bit length no factorial is taken
        if n > MEMORY_BYTES.bit_length():
            raise SizeLimit(f"the permutation array of S_{n} needs more than "
                            f"the memory budget of {MEMORY_BYTES} bytes")
        check_memory(f"the permutation array of S_{n}", (factorial(n), n))
        super().__init__(factorial(n))
        self.n = n
        self._perms = None

    def perm(self, a: int) -> tuple:
        return perm_unrank(a, self.n)

    def _perm_array(self) -> np.ndarray:
        """Row r is the permutation of rank r, as int8: Lehmer-rank order
        is lexicographic order, so the rows starting with f are f
        followed by the permutations of n - 1 in their order, each entry
        >= f raised by one."""
        if self._perms is None:
            perms = np.zeros((1, 0), dtype=np.int8)
            for m in range(1, self.n + 1):
                sub, perms = perms, np.empty((len(perms) * m, m),
                                             dtype=np.int8)
                for f in range(m):
                    block = perms[f * len(sub):(f + 1) * len(sub)]
                    block[:, 0] = f
                    block[:, 1:] = sub + (sub >= f)
            self._perms = perms
        return self._perms

    def _rank(self, cols) -> np.ndarray:
        """The Lehmer-code rank of permutations given as n int8 columns,
        one per position: sum of c_i (n-1-i)! where c_i counts the later
        entries smaller than entry i, by Horner's rule in the factorial
        base; c_0 is entry 0 itself, the others are int8 counts of
        comparisons (at most n - 1)."""
        n = self.n
        rank = cols[0].astype(np.int64)
        for i in range(1, n - 1):
            count = (cols[i + 1] < cols[i]).astype(np.int8)
            for later in cols[i + 2:]:
                count += later < cols[i]
            rank *= n - i
            rank += count
        return rank

    def products(self, a, b):
        """The rank of each composed permutation p(q(.)): position i is
        entry a * n + q(i) of the flat permutation array."""
        perms, n = self._perm_array(), self.n
        flat, rows, b = perms.ravel(), np.asarray(a) * n, np.asarray(b)
        return self._rank([flat[rows + perms[b, i]] for i in range(n)])

    def invert(self, a):
        """The rank of each inverse permutation, a block of rows at a
        time: position p(i) of the inverse of p holds i."""
        perms, n = self._perm_array(), self.n
        a = np.asarray(a)
        flat = a.ravel()
        out = np.empty(len(flat), dtype=np.int64)
        points = np.arange(n, dtype=np.int8)
        # the int64 temporaries hold n entries per row
        for rows in blocks(len(flat), 8 * n):
            image = perms[flat[rows]]
            inverse = np.empty((n, len(image)), dtype=np.int8)
            inverse[image.T, np.arange(len(image))] = points[:, None]
            out[rows] = self._rank(inverse)
        return out.reshape(a.shape)[()]

    def identity_key(self):
        return self.n

    def element_label(self, a):
        return "[" + " ".join(str(v) for v in self.perm(a)) + "]"

    def _compute_classes(self):
        """Class mu has n!/z_mu members, z_mu = prod_i i^{m_i} m_i! over
        the multiplicities m_i of the parts i; each class is self-inverse."""
        sizes = [factorial(self.n) // prod(
            i ** mu.count(i) * factorial(mu.count(i)) for i in set(mu))
            for mu in partitions(self.n)]
        return ConjugacyClasses(sizes, np.arange(len(sizes)))

    def class_labels(self) -> list:
        return [partition_label(mu) for mu in partitions(self.n)]

    def class_of(self):
        if self._class_of is None:
            class_of = self._class_array()
            class_of.setflags(write=False)
            self._class_of = class_of
        return self._class_of

    def _class_array(self) -> np.ndarray:
        """The partition index of every permutation's cycle type, read
        from the permutation array a block of rows at a time.  Following
        every point through the array n - 1 times gives its cycle length
        L; the sum over the points of (n+1)^(L-1) has digit L-1 equal to
        L times the number of L-cycles, at most n, so it is a key of the
        cycle type."""
        perms, n = self._perm_array(), self.n
        flat, points = perms.ravel(), np.arange(n)
        weight = (n + 1) ** points
        # ascending in partition order: both compare the numbers of the
        # longest cycles first
        type_key = np.array([sum(p * weight[p - 1] for p in mu)
                             for mu in partitions(n)])
        class_of = np.empty(len(perms), dtype=np.int64)
        # the int64 temporaries hold n entries per row
        for rows in blocks(len(perms), 8 * n):
            image = perms[rows]
            base = np.arange(*rows.indices(len(perms)))[:, None] * n
            # a point not back by step n - 1 is on an n-cycle
            length = np.full(image.shape, n, dtype=np.int8)
            for step in range(1, n):
                length[(length == n) & (image == points)] = step
                image = flat[base + image]
            key = weight[length - 1].sum(axis=1)
            class_of[rows] = np.searchsorted(type_key, key)
        return class_of


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
    """Arithmetic tables for F_q, q in {2,3,4,5,7,8,9}, as numpy arrays:
    ``add[a, b]``, ``mul[a, b]``, ``neg[a]`` and ``inv[a]`` (0 for a = 0)."""

    def __init__(self, q: int):
        if q in _PRIMES:
            p, poly = q, []
        elif q in _FIELD_POLYS:
            p, poly = _FIELD_POLYS[q]
        else:
            raise InvalidArgument(f"unsupported field size {q}")
        self.q = q
        deg = len(poly) if poly else 1
        # digits[a] lists the coefficients of a, constant term first
        place = p ** np.arange(deg)
        digits = np.arange(q)[:, None] // place % p
        self.add = (digits[:, None] + digits[None, :]) % p @ place
        prod = np.zeros((q, q, 2 * deg - 1), dtype=np.int64)
        for i in range(deg):
            prod[..., i:i + deg] += digits[:, None, i, None] * digits[None]
        # reduce modulo the fixed polynomial: x^deg = -poly
        for k in range(2 * deg - 2, deg - 1, -1):
            for i, coef in enumerate(poly):
                prod[..., k - deg + i] -= prod[..., k] * coef
        self.mul = prod[..., :deg] % p @ place
        self.neg = np.argmin(self.add, axis=1)       # the b with a + b = 0
        self.inv = np.argmax(self.mul == 1, axis=1)

    def row_reduce(self, stack, width=None):
        """Gauss-Jordan elimination over F_q of a stack of matrices
        ``(..., rows, cols)``, all at once.  Pivots are sought in the first
        ``width`` columns (all by default), each the first nonzero entry
        at or below the next pivot row.  Returns the reduced stack, where
        each pivot is 1 and alone in its column, and the rank of each
        matrix (its number of pivots)."""
        stack = np.asarray(stack)
        M = stack.reshape(-1, *stack.shape[-2:]).astype(np.int64)
        rank = np.zeros(len(M), dtype=np.int64)
        for col in range(M.shape[2] if width is None else width):
            candidates = ((M[:, :, col] != 0) &
                          (np.arange(M.shape[1]) >= rank[:, None]))
            found = np.flatnonzero(candidates.any(axis=1))
            piv, r = candidates[found].argmax(axis=1), rank[found]
            top = M[found, piv]
            M[found, piv] = M[found, r]
            top = self.mul[self.inv[top[:, col]][:, None], top]
            M[found, r] = top
            factor = self.neg[M[found, :, col]]
            factor[np.arange(len(found)), r] = 0
            M[found] = self.add[M[found],
                                self.mul[factor[:, :, None], top[:, None]]]
            rank[found] += 1
        return M.reshape(stack.shape), rank.reshape(stack.shape[:-2])


class GeneralLinearGroup(FiniteGroup):
    """GL(n, F_q).  Elements are the invertible matrices, the identity
    first, the rest in lexicographic order of the row-major entry
    vector.  ``matrices`` holds them as one read-only ``(|G|, n, n)``
    int64 array, found with their inverses by one Gauss-Jordan pass
    over ``[M | I]`` for every entry vector M."""

    def __init__(self, q: int, n: int):
        field = FiniteField(q)
        if n < 1:
            raise InvalidArgument(f"need n >= 1, got {n}")
        # the first factor, q^n - 1 >= 2^n - 1, alone exceeds the bound
        # once n passes its bit length: no power of q is taken for such n
        small = n <= GENERIC_CLASS_BOUND.bit_length()
        expected = prod(q ** n - q ** i for i in range(n)) if small else 0
        if not small or expected > GENERIC_CLASS_BOUND:
            raise InvalidArgument(f"|GL({n},F_{q})| exceeds the order bound "
                                  f"{GENERIC_CLASS_BOUND}")
        super().__init__(expected)
        self.q, self.n, self.field = q, n, field
        # a matrix's key reads its row-major entries as a base-q number, so
        # the key of every entry vector is its lexicographic rank
        self._weights = q ** np.arange(n * n - 1, -1, -1).reshape(n, n)
        every = np.arange(q ** (n * n))[:, None, None] // self._weights % q
        eye = np.broadcast_to(np.eye(n, dtype=np.int64), every.shape)
        reduced, rank = field.row_reduce(
            np.concatenate([every, eye], axis=2), n)
        identity = int(np.trace(self._weights))     # the key of I
        keys = np.flatnonzero(rank == n)
        keys = np.concatenate([[identity], keys[keys != identity]])
        if len(keys) != expected:
            raise NotAGroup("order-formula", (len(keys), expected))
        self.matrices = every[keys]
        self.matrices.setflags(write=False)
        # the index of every matrix by its key (-1: singular)
        self._index_of_key = np.full(len(every), -1)
        self._index_of_key[keys] = np.arange(expected)
        self._inverses = self._index_of_key[
            (reduced[keys, :, n:] * self._weights).sum(axis=(-2, -1))]
        self._inverses.setflags(write=False)

    def ranks(self, stack) -> np.ndarray:
        """The rank over F_q of every matrix in a stack ``(..., n, n)``."""
        return self.field.row_reduce(stack)[1]

    def products(self, a, b):
        # C[i, j] = sum over k of A[i, k] B[k, j], through the flat field
        # tables (entry x * q + y is x op y) on the broadcast leading axes;
        # the key sums C[i, j] times its weight
        n, q = self.n, self.q
        mul, add = self.field.mul.ravel(), self.field.add.ravel()
        A, B = self.matrices[a] * q, self.matrices[b]
        key = 0
        for (i, j), weight in np.ndenumerate(self._weights):
            c = mul[A[..., i, 0] + B[..., 0, j]]
            for k in range(1, n):
                c = add[c * q + mul[A[..., i, k] + B[..., k, j]]]
            key = key + c * int(weight)
        return self._index_of_key[key]

    def identity_key(self):
        return (self.q, self.n)

    def element_label(self, a):
        return ";".join(" ".join(str(v) for v in row)
                        for row in self.matrices[a].tolist())


class TableGroup(FiniteGroup):
    """Group given by an explicit Cayley table, kept as one read-only
    int32 array and checked on construction, a block of rows at a time:
    Latin rows and columns, a two-sided identity (swapped with 0),
    two-sided inverses, and Light's test (x g) y = x (g y) for all x, y
    and each generator g.  An array given to the constructor is read,
    not copied; the int32 table is the one copy."""

    def __init__(self, table):
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise InvalidArgument("table must be square and nonempty")
        T = np.asarray(table)     # dtype object if an entry is huge
        elements = np.arange(n)
        # a line is Latin iff it sorts to 0..n-1, so after the rows every
        # entry is an element
        for rows in blocks(n, T[0].nbytes):
            bad = (np.sort(T[rows], axis=1) != elements).any(axis=1)
            if bad.any():
                raise NotAGroup("latin-square-row",
                                (rows.start + int(np.argmax(bad)),))
        T = T.astype(np.int32)
        spans = list(blocks(n, T[0].nbytes))
        for cols in spans:
            lines = np.ascontiguousarray(T[:, cols].T)
            lines.sort(axis=1)
            bad = (lines != elements).any(axis=1)
            if bad.any():
                raise NotAGroup("latin-square-column",
                                (cols.start + int(np.argmax(bad)),))
        identity_row, identity_column = np.zeros((2, n), dtype=bool)
        for rows in spans:
            identity_row[rows] = (T[rows] == elements).all(axis=1)
            identity_column[rows] = (T[:, rows].T == elements).all(axis=1)
        found = np.flatnonzero(identity_row & identity_column)
        if not found.size:
            raise NotAGroup("identity", ())
        e = int(found[0])
        if e:
            # swap the identity e with 0: rows, columns, then entries
            T[[0, e]] = T[[e, 0]]
            T[:, [0, e]] = T[:, [e, 0]]
            for rows in spans:
                block = T[rows]
                zero = block == 0
                block[block == e] = 0
                block[zero] = e
        inverse = np.empty(n, dtype=np.int64)   # g inverse[g] = 0
        for rows in spans:
            inverse[rows] = np.argmax(T[rows] == 0, axis=1)
        bad = T[inverse, elements] != 0
        if bad.any():
            raise NotAGroup("inverse", (int(np.argmax(bad)),))
        super().__init__(n)
        T.setflags(write=False)
        self._table = T
        self._digest = None
        for g in self.generators():
            for rows in spans:
                # (x g) y against x (g y); np.take is faster than T[:, T[g]]
                bad = T[T[rows, g]] != np.take(T[rows], T[g], axis=1)
                if bad.any():
                    x, y = divmod(int(np.argmax(bad)), n)
                    raise NotAGroup("associativity", (rows.start + x, g, y))
        inverse.setflags(write=False)
        self._inverses = inverse

    def products(self, a, b):
        return self._table[a, b]

    def identity_key(self):
        """The sha256 digest of the int32 table, computed on first use
        from its buffer."""
        if self._digest is None:
            # imported here: loading OpenSSL would add 3.6 MB to the peak
            # RSS of every process that imports this module
            import hashlib
            self._digest = hashlib.sha256(self._table).digest()
        return self._digest


# ---------------------------------------------------------------------------
# constructors and table I/O

def make_abelian_product(moduli) -> AbelianProductGroup:
    return AbelianProductGroup(moduli)


def make_symmetric(n: int) -> SymmetricGroup:
    return SymmetricGroup(n)


def make_general_linear(q: int, n: int) -> GeneralLinearGroup:
    return GeneralLinearGroup(q, n)


def make_from_table(table) -> TableGroup:
    return TableGroup(table)


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


def parse_ints(tokens, what, count=None) -> list:
    """A list of text tokens or JSON integers as integers, ``count`` of
    them if given; SchemaError "malformed <what>" otherwise, also for a
    JSON float or boolean, which int() would truncate or take as 0/1."""
    typed = isinstance(tokens, list) and all(
        type(t) in (int, str) for t in tokens)
    try:
        values = [int(t) for t in tokens] if typed else None
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise SchemaError(f"malformed {what}")
    return values


def load_rows(lines) -> Optional[np.ndarray]:
    """Text lines of integers as one int64 array, a row per line, parsed
    by ``np.loadtxt``; None if it refuses them (a malformed entry, ragged
    rows, or an entry too large for int64), for the caller to parse
    token by token and name the fault."""
    if not lines:
        return np.zeros((0, 0), dtype=np.int64)
    try:
        return np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None


def import_cayley_table(path) -> TableGroup:
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise SchemaError("empty Cayley table file")
    what = f"Cayley table {path}"
    header = lines[0].split()
    rows = load_rows(lines[1:]) if len(header) == 1 else None
    if rows is None:
        n, *vals = parse_ints(" ".join(lines).split(), what)
    else:
        (n,) = parse_ints(header, what)
        vals = rows.ravel()
    if n < 0:
        raise SchemaError(f"negative group order {n} in {what}")
    if len(vals) != n * n:
        raise SchemaError(
            f"expected {n * n} table entries, got {len(vals)}")
    return make_from_table(np.reshape(vals, (n, n)))

