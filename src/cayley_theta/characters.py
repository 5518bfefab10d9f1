"""Character tables and class-function Fourier analysis.

Scalars are either exact (``int`` or ``fractions.Fraction``) or
approximate (``complex``); a table is exact only when every entry is
exact, and holds its entries in one numpy array of the matching kind.
The symmetric-group tables are exact integers, computed by the
Murnaghan-Nakayama rule on int64 arrays, where ``mn_table`` shows they
cannot overflow: the table of S_m is one signed strip matrix times
columns of the table of S_(m-r) for each smallest class part r, and
each strip matrix is read off 0/1 beta-set arrays of every partition
of m at once.  ``mn_character`` is the same rule on one entry,
memoised, with the strips of one partition at a time
(``_beta_strip_removals``).  Abelian tables involve roots of unity and
are stored approximately unless all moduli are 1 or 2.  An abelian
table is symmetric, chi_j(x) = chi_x(j) in element order, so only the
entries on and right of its diagonal are computed; the rest are
copied.

One rule decides every exact-or-approximate test here and in ``theta``
and ``simplex``: exact means tolerance 0.  An exact value is compared
exactly and never passes through ``complex()`` or ``float()``; an
approximate one is compared within the tolerance of its call site.

Exact Fourier sums have one kernel, ``linalg.exact_sums``, which the
exact simplex shares: row combinations sum_pi w_pi chi_pi and the
Bochner scalars scale their rational weights to integers by the lcm of
the denominators, once, take one numpy product of those Python ints
(which cannot overflow) with the entry array, and divide by the lcm
once, at the end.  Every other sum is float or complex, as the scalar
sum is, and added in the order of the scalar sum: on an approximate
table it has the bits of the scalar sum.  Its weights are made one
array once per call (``_weights``), and each block of table rows is
multiplied with its slice of that array (``_terms``).
Float or complex weights on an exact table are summed as on its
approximate copy, so a rational weight among them is rounded to a
double before its product, where the scalar sum would round the exact
product.

Class ordering conventions: class 0 is always the identity class; for
symmetric groups classes and irreps are both indexed by partitions in
the canonical order of :func:`cayley_theta.groups.partitions`.
"""

from __future__ import annotations

import cmath
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Optional, Union

import numpy as np

from .errors import (CorruptTable, InvalidArgument, NeedsIrreps, SchemaError,
                     SizeLimit)
from .groups import (AbelianProductGroup, FiniteGroup, SymmetricGroup, blocks,
                     parse_ints, partition_label, partitions, same_group)
from .linalg import exact_sums, is_exact

Scalar = Union[Fraction, complex]

# an abelian table has order**2 entries
ABELIAN_TABLE_BOUND = 2000
# the largest n with n * sqrt(n!) < 2^63 (see ``mn_table``)
MN_TABLE_MAX_N = 31
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
# a function value given as a string: "p", "p/q" or a decimal whose
# exponent has at most 5 digits and at most EXPONENT_BOUND in size;
# Fraction() alone builds 10^k for "1ek" (9.8 s at k = 10^7)
_FUNCTION_STRING = re.compile(
    r"-?(?:[0-9]+/[0-9]+|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
    r"(?:[eE](?P<exp>[-+]?[0-9]{1,5}))?)")
# Python's default limit on the digits of an int read from a string
EXPONENT_BOUND = 4300


def conj(v: Scalar) -> Scalar:
    return v.conjugate() if isinstance(v, complex) else v


def format_real(v):
    """A real result as written to JSON, CSV or the terminal: a string
    "p/q" when v is exact (an int or Fraction), else a float."""
    return str(Fraction(v)) if is_exact(v) else float(v)


# ---------------------------------------------------------------------------
# function types

@dataclass(frozen=True)
class ClassFunction:
    """One value per conjugacy class, in the group's class order."""
    group: FiniteGroup
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.group.conjugacy_classes()):
            raise InvalidArgument("one value per conjugacy class required")

    def at_element(self, g: int) -> Scalar:
        return self.values[self.group.class_index_of(g)]

    def total(self) -> Scalar:
        classes = self.group.conjugacy_classes()
        return sum(c.size * v for c, v in zip(classes, self.values))


@dataclass(frozen=True)
class GroupFunction:
    """One value per group element."""
    group: FiniteGroup
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.group.order:
            raise InvalidArgument("one value per element required")


# ---------------------------------------------------------------------------
# character tables

@dataclass(frozen=True, eq=False)
class CharacterTable:
    """entries[irrep, class] is one read-only 2-D numpy array: of Python
    ints and Fractions (dtype object) when every entry is rational, else
    float64 when no entry has a nonzero imaginary part, else complex128.
    Whatever the constructor is given is normalised to one of the
    three; ``exact`` and realness are read from the dtype."""
    group: FiniteGroup
    degrees: tuple
    entries: np.ndarray
    irrep_labels: tuple
    trivial_index: int

    def __post_init__(self):
        X = np.asarray(self.entries)
        rational = X.dtype.kind in "iu" or X.dtype == object and all(
            isinstance(v, (int, Fraction)) for v in X.flat)
        # an integer array becomes Python ints, which cannot overflow
        X = X.astype(object if rational else complex, copy=False)
        # the scan stops at the first row with an imaginary part
        if not rational and not any(row.imag.any() for row in X):
            X = X.real.copy(order="K")
        X.setflags(write=False)
        object.__setattr__(self, "entries", X)

    @property
    def exact(self) -> bool:
        return self.entries.dtype == object

    @property
    def classes(self):
        return self.group.conjugacy_classes()

    def validate(self):
        """Check all table invariants; raise CorruptTable on failure.
        Orthogonality is checked on the two Gram matrices of the entry
        array, in the table's own arithmetic, with tolerance 0 when
        exact; the first failing pair of the upper triangle, in
        row-major order, is reported.  Approximate entries must be
        finite: a NaN passes every "misses by more than tol" test."""
        X = self.entries
        order = self.group.order
        sizes = [c.size for c in self.classes]
        if X.shape != (len(self.degrees), len(sizes)):
            raise CorruptTable("entry matrix shape mismatch")
        if not self.exact and not np.isfinite(X).all():
            raise CorruptTable("an entry is not finite")
        if min(self.degrees, default=1) < 1:
            raise CorruptTable("a degree is not positive")
        if sum(d * d for d in self.degrees) != order:
            raise CorruptTable("sum of squared degrees != group order")
        tol = 0 if self.exact else 1e-8
        wrong = np.flatnonzero(
            np.abs(X[:, 0] - np.array(self.degrees, dtype=X.dtype)) > tol)
        if wrong.size:
            raise CorruptTable(
                f"identity-class entry of irrep {wrong[0]} is not its degree")
        if self.degrees[self.trivial_index] != 1 or np.any(
                np.abs(X[self.trivial_index] - 1) > tol):
            raise CorruptTable("trivial irrep row is not all ones")
        tol *= max(order, 1)
        X = _int64_entries(X, sizes, order)
        rows = (X * np.array(sizes, dtype=X.dtype)) @ X.conj().T
        bad = _first_miss(rows, order * np.eye(len(X), dtype=X.dtype), tol)
        if bad:
            raise CorruptTable(f"row orthogonality fails for irreps {bad}")
        # the column sums want order / |C_k| on the diagonal, an integer
        # (a class size divides the group order)
        columns = X.T @ X.conj()
        want = np.diag(np.array([order // s for s in sizes], dtype=X.dtype))
        bad = _first_miss(columns, want, tol)
        if bad:
            raise CorruptTable(
                f"column orthogonality fails for classes {bad}")
        return self


def _int64_entries(X, sizes, order):
    """The entry array X as int64 when every entry is an int and no
    partial sum of an entry of either Gram product in ``validate`` can
    reach 2^63; else X itself (Python ints, which cannot overflow,
    Fractions or complex).

    By Cauchy-Schwarz a partial sum of the row Gram entry (i, j) is at
    most sqrt(N_i N_j), N_i = sum_k |C_k| X[i, k]^2, and one of the
    column Gram entry (k, l) at most sqrt(M_k M_l), M_k = sum_i
    X[i, k]^2; a product |C_k| X[i, k] is at most sqrt(|C_k| N_i).  So
    N_i, M_k and |G| below 2^62 suffice; N and M are bounded in
    doubles, whose rounding is far inside that margin.  A valid table
    has N_i = |G| and M_k = |G| / |C_k|, so it takes int64 whenever
    |G| < 2^62; a corrupt one may fall back, which leaves its verdict
    and the pair it names unchanged."""
    if order >= 1 << 62 or not all(type(v) is int for v in X.flat):
        return X
    try:
        Y = X.astype(np.int64)
    except OverflowError:
        return X
    squares = Y.astype(float) ** 2
    if max((squares @ np.array(sizes, dtype=float)).max(),
           squares.sum(axis=0).max()) >= 2.0 ** 62:
        return X
    return Y


def _first_miss(gram, want, tol):
    """The pair "(i,j)", i <= j, first in row-major order at which the
    Gram matrix misses its wanted value by more than tol; None if none."""
    miss = np.argwhere(np.triu(np.abs(gram - want) > tol))
    return f"({miss[0][0]},{miss[0][1]})" if len(miss) else None


def _ne(value, want, tol):
    return value != want if is_exact(value) else abs(value - want) > tol


# ---------------------------------------------------------------------------
# abelian tables

def abelian_character_table(group: FiniteGroup) -> CharacterTable:
    """Characters of a product of cyclic groups: chi_j(x) =
    prod_t exp(2*pi*i*j_t*x_t/m_t).  Exact (entries +-1) when every
    modulus is 2; approximate complex otherwise.

    The phases come from one integer matrix N[j, x] = sum_t j_t*x_t*(L/m_t)
    with L = lcm(moduli), built a block of rows at a time (``blocks``),
    each block from its diagonal to the right: N is symmetric, so the
    left part of a block is the transpose of the blocks above it, which
    are already filled.  An exact entry is +-1 by
    the parity of N.  An approximate entry is cos(y) + i*sin(y) with
    y = (2*pi)*(N/L): N and L are below 2^53, so N/L is the correctly
    rounded phase, and (cos y, sin y) is what cmath.exp(i*y) returns
    for it."""
    if not isinstance(group, AbelianProductGroup):
        raise InvalidArgument("abelian_character_table needs an "
                              "abelian-product group")
    if group.order > ABELIAN_TABLE_BOUND:
        raise SizeLimit(f"abelian character tables limited to order "
                        f"{ABELIAN_TABLE_BOUND}, got {group.order}")
    moduli = group.moduli
    exact = all(m <= 2 for m in moduli)
    L = lcm(*moduli)
    elements = np.arange(group.order)
    digits = np.stack([elements // s % m for m, s in
                       zip(moduli, group.strides)], axis=1)
    weighted = digits * np.array([L // m for m in moduli])
    entries = np.empty((group.order, group.order),
                       dtype=int if exact else complex)
    for rows in blocks(group.order, entries[0].nbytes):
        start = rows.start
        entries[rows, :start] = entries[:start, rows].T
        N = digits[rows] @ weighted[start:].T
        block = entries[rows, start:]
        if exact:
            block[:] = 1 - 2 * (N % 2)
            continue
        y = (2 * np.pi) * (N / L)
        block.real, block.imag = np.cos(y), np.sin(y)
    return CharacterTable(
        group=group, degrees=(1,) * group.order, entries=entries,
        irrep_labels=tuple("chi" + x for x in group.element_labels()),
        trivial_index=0)


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama

def _beta_strip_removals(lam: tuple, k: int):
    """Yield (sign, smaller_partition) for each removable border strip of
    size k, via first-column hook (beta-set) arithmetic."""
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    bset = set(beta)
    for b in beta:
        nb = b - k
        if nb >= 0 and nb not in bset:
            height = sum(1 for c in beta if nb < c < b)
            newbeta = sorted((bset - {b}) | {nb}, reverse=True)
            newlam = tuple(newbeta[i] - (ell - 1 - i) for i in range(ell))
            yield (-1) ** height, tuple(x for x in newlam if x > 0)


@lru_cache(maxsize=None)
def mn_character(lam: tuple, mu: tuple) -> int:
    """chi_lambda(mu) by the Murnaghan-Nakayama recursion (memoized)."""
    if not mu:
        return 1 if not lam else 0
    if sum(lam) != sum(mu):
        raise InvalidArgument("partition sizes differ")
    total = 0
    for sign, smaller in _beta_strip_removals(lam, mu[0]):
        total += sign * mn_character(smaller, mu[1:])
    return total


def hook_length_degree(lam: tuple) -> int:
    n = sum(lam)
    conjugate = [sum(1 for p in lam if p > j) for j in range(lam[0])] \
        if lam else []
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conjugate[j] - i - 1
    return factorial(n) // hooks


def mn_table(n: int) -> np.ndarray:
    """chi_lambda(mu) for all partitions lambda and mu of n, as an int64
    array with rows and columns in canonical order.

    The tables T_m of S_m are built for m = 1..n from smaller ones by
    the Murnaghan-Nakayama rule on the smallest part r of each class
    mu: chi_lambda(mu) = sum over the border r-strips of lambda of
    (-1)^height * chi_nu(mu without r), nu the rest of lambda.  So
    T_m[:, cols_r] = H_r @ T_(m-r)[:, mu without r], one product for
    each r, with H_r[lambda, nu] the sign of the r-strip that leaves nu
    (different strips leave different nu).

    H_r is built for every lambda at once from beta-sets (James and
    Kerber 1981): lambda padded with zeros to L = n parts has the
    beads beta_i = lambda_i + L - 1 - i, all below 2L, held as one row
    of the 0/1 membership array ``beads``.  A border r-strip is a bead
    at b + r with no bead at b, so the strips of every lambda are the
    hits of beads[:, r:] > beads[:, :2L - r]; moving the bead to b
    leaves nu, and the height of the strip is the number of beads
    strictly between b and b + r, a difference of prefix counts of
    ``beads``.  A beta-set is keyed by the int64 sum_b 2^b (2L <= 62
    bits), so nu is found by its key, key(lambda) - 2^(b+r) + 2^b, in a
    dict of the partitions of m - r.  ``beads`` is int64, not bool: a
    bool-to-int cast is a numpy kernel that nothing else on the S_n path
    runs, and its first call maps code pages into the process.

    Every entry is at most chi_lambda(1) <= sqrt(m!) in absolute value
    and each is a sum of at most m of them, so for n <= MN_TABLE_MAX_N
    no partial sum reaches 2^63 and the int64 arithmetic is exact."""
    if n < 0:
        raise InvalidArgument(f"n must be non-negative, got {n}")
    if n > MN_TABLE_MAX_N:
        raise SizeLimit(f"Murnaghan-Nakayama tables limited to n <= "
                        f"{MN_TABLE_MAX_N}, got {n}")
    width = 2 * n
    power = np.array([1 << b for b in range(width)], dtype=np.int64)
    # (-1)^height for every height below width
    sign = np.array([1, -1] * n, dtype=np.int64)
    tables, at_key, index = [], [], []
    for m in range(n + 1):
        parts = partitions(m)
        padded = np.array([lam + (0,) * (n - len(lam)) for lam in parts],
                          dtype=np.int64)
        beads = np.zeros((len(parts), width), dtype=np.int64)
        beads[np.arange(len(parts))[:, None],
              padded + np.arange(n - 1, -1, -1)] = 1
        key = beads @ power
        at_key.append(dict(zip(key.tolist(), range(len(parts)))))
        index.append({lam: i for i, lam in enumerate(parts)})
        if m == 0:
            tables.append(np.ones((1, 1), dtype=np.int64))
            continue
        # counts[:, b] is the number of beads at b or below
        counts = np.cumsum(beads, axis=1)
        T = np.empty((len(parts), len(parts)), dtype=np.int64)
        cols_of = {}
        for j, mu in enumerate(parts):
            cols_of.setdefault(mu[-1], []).append(j)
        for r, cols in cols_of.items():
            rows, low = np.nonzero(beads[:, r:] > beads[:, :width - r])
            high = low + r
            nu = [at_key[m - r][k] for k in
                  (key[rows] - power[high] + power[low]).tolist()]
            H = np.zeros((len(parts), len(index[m - r])), dtype=np.int64)
            H[rows, nu] = sign[counts[rows, high - 1] - counts[rows, low]]
            rest = [index[m - r][parts[j][:-1]] for j in cols]
            T[:, cols] = H @ tables[m - r][:, rest]
        tables.append(T)
    return tables[n]


def symmetric_character_table(n: int) -> CharacterTable:
    """Exact character table of S_n (``mn_table``); irreps and classes
    are both indexed by partitions of n in canonical order, so the
    trivial irrep (n) comes last."""
    group = SymmetricGroup(n)
    parts = partitions(n)
    entries = mn_table(n)
    degrees = tuple(entries[:, 0].tolist())
    for lam, degree in zip(parts, degrees):
        if degree != hook_length_degree(lam):
            raise CorruptTable(
                f"degree of {lam} disagrees with the hook-length formula")
    return CharacterTable(
        group=group, degrees=degrees, entries=entries,
        irrep_labels=tuple(partition_label(lam) for lam in parts),
        trivial_index=len(parts) - 1).validate()


# ---------------------------------------------------------------------------
# table file format

def _format_scalar(v: Scalar):
    return str(Fraction(v)) if is_exact(v) else [v.real, v.imag]


def _parse_scalar(v, exact: bool) -> Scalar:
    """An exact entry is a "p" or "p/q" string (Fraction() would build a
    huge int for "1e999999999"), an approximate one a JSON number or an
    [re, im] pair of them."""
    try:
        if exact and isinstance(v, str) and _RATIONAL.fullmatch(v):
            v = Fraction(v)
            # a valid table's rational entries are integers: keep ints
            return v.numerator if v.denominator == 1 else v
        x, y = v if isinstance(v, list) and len(v) == 2 else (v, 0)
        if not exact and type(x) in (int, float) and type(y) in (int, float):
            return complex(x, y)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise SchemaError(f"bad {'exact' if exact else 'approximate'} entry "
                      f"{v!r} in entries")


def export_character_table(table: CharacterTable, path):
    classes = table.classes
    data = {
        "group_order": table.group.order,
        "class_sizes": [c.size for c in classes],
        "class_labels": [c.label for c in classes],
        "degrees": list(table.degrees),
        "irrep_labels": list(table.irrep_labels),
        "exact": table.exact,
        "entries": [_format_scalar(v)
                    for v in table.entries.ravel().tolist()],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def _match_class_order(file_sizes, group_classes):
    """Permutation p with p[group_class] = file_column, matched by size.

    Positional match wins when the size sequences agree; otherwise sizes
    must determine the pairing uniquely.
    """
    group_sizes = [c.size for c in group_classes]
    if file_sizes == group_sizes:
        return list(range(len(group_sizes)))
    if sorted(file_sizes) != sorted(group_sizes):
        raise SchemaError(
            f"class sizes {file_sizes} do not match the group's "
            f"{group_sizes}")
    perm = []
    used = set()
    for size in group_sizes:
        candidates = [j for j, s in enumerate(file_sizes)
                      if s == size and j not in used]
        if len(candidates) != 1:
            raise SchemaError(
                "ambiguous class ordering: duplicate class sizes require "
                "the file to use the group's class order")
        perm.append(candidates[0])
        used.add(candidates[0])
    return perm


def _load_json(path, kind=dict):
    """The JSON value of the file, which must be a ``kind`` (dict or
    list)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            # the decoder recurses once per nesting level
            raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, kind):
        raise SchemaError(
            f"not a JSON {'object' if kind is dict else 'list'}")
    return data


def import_character_table(path, group: FiniteGroup) -> CharacterTable:
    data = _load_json(path)
    for key in ("group_order", "class_sizes", "degrees", "exact", "entries"):
        if key not in data:
            raise SchemaError(f"missing field {key!r}")
    if data["group_order"] != group.order:
        raise SchemaError(
            f"file is for a group of order {data['group_order']}, "
            f"got order {group.order}")
    classes = group.conjugacy_classes()
    sizes = parse_ints(data["class_sizes"], "class_sizes")
    if len(sizes) != len(classes):
        raise SchemaError(
            f"file has {len(sizes)} classes, group has {len(classes)}")
    perm = _match_class_order(sizes, classes)
    exact = data["exact"]
    if not isinstance(exact, bool):
        raise SchemaError("exact must be true or false")
    degrees = tuple(parse_ints(data["degrees"], "degrees"))
    n_irreps = len(degrees)
    flat = data["entries"]
    if not isinstance(flat, list) or len(flat) != n_irreps * len(classes):
        raise SchemaError(
            f"entries must be a list of {n_irreps * len(classes)} values")
    entries = np.array([_parse_scalar(v, exact) for v in flat],
                       dtype=object if exact else complex)
    entries = entries.reshape(n_irreps, len(classes))[:, perm]
    labels = data.get("irrep_labels") or [f"irrep{i}"
                                          for i in range(n_irreps)]
    if not (isinstance(labels, list) and len(labels) == n_irreps
            and all(isinstance(label, str) for label in labels)):
        raise SchemaError(f"irrep_labels must be {n_irreps} strings")
    trivial = np.flatnonzero((np.array(degrees) == 1) & np.all(
        np.abs(entries - 1) <= (0 if exact else 1e-8), axis=1))
    if not trivial.size:
        raise CorruptTable("no trivial irrep row found")
    table = CharacterTable(
        group=group, degrees=degrees, entries=entries,
        irrep_labels=tuple(labels), trivial_index=int(trivial[0]))
    return table.validate()


# ---------------------------------------------------------------------------
# Fourier analysis

def _terms(w, rows):
    """The products w[k] * rows[i, k], rounded as Python rounds each up to
    the sign of a zero, which an ordered sum from 0 cannot see; rational
    rows are taken as floats.  numpy may fuse the multiply and add of a
    complex product, CPython does not: a complex times a complex is
    written out in parts, any other product is numpy's."""
    if rows.dtype == object:
        rows = rows.astype(float)
    if not (np.iscomplexobj(w) and np.iscomplexobj(rows)):
        return rows * w
    out = np.empty(rows.shape, dtype=complex)
    out.real = w.real * rows.real - w.imag * rows.imag
    out.imag = w.real * rows.imag + w.imag * rows.real
    return out


def _ordered_sum(terms, start=0):
    """start + terms[:, 0] + terms[:, 1] + ..., added strictly in that
    order as Python's sum() adds: cumsum (add.accumulate) adds in order,
    where add.reduce may add pairwise."""
    terms[:, 0] += start
    return np.cumsum(terms, axis=1)[:, -1]


def row_combination(table: CharacterTable, weights) -> list:
    """sum_pi weights[pi] * chi_pi(C) for every class C: exact by
    ``exact_sums`` when the table and the weights are rational, else
    float or complex as the scalar sum is, summed in irrep order from 0
    (on an approximate table bit for bit as the scalar sum()).

    Only the rows of nonzero weights are summed (a certificate's weights
    are an LP vertex, with at most one nonzero entry per LP row).  This
    keeps every bit: a zero weight times a finite entry is +-0; the
    ordered sum starts from +0, and under round-to-nearest x + y is -0
    only when x and y both are, so neither part of the running sum is
    ever -0, and adding +-0 to it changes nothing.  Every weight zero
    gives zeros."""
    exact = exact_sums(weights, table.entries)
    if exact is not None:
        return exact
    w = _weights(weights, "a weight is")
    acc = np.zeros(len(table.classes), dtype=np.result_type(
        w, float if table.exact else table.entries.dtype))
    live = np.flatnonzero(w)
    for part in blocks(len(live), table.entries[0].nbytes):
        rows = live[part]
        acc = _ordered_sum(_terms(w[rows], table.entries[rows].T), acc)
    return acc.tolist()


def _weights(values, what) -> np.ndarray:
    """The values as one array, complex128 when a value is a ``complex``,
    else float64; InvalidArgument naming ``what`` it is for a rational
    value beyond the range of a double."""
    kind = complex if any(isinstance(x, complex) for x in values) else float
    try:
        return np.array([kind(x) for x in values], dtype=kind)
    except OverflowError:
        raise InvalidArgument(f"{what} too large for a double") from None


def fourier_class_scalars(f: ClassFunction, table: CharacterTable):
    """Scalars c_pi with fhat(pi) = c_pi * I for a class function f:
    c_pi = (1/d_pi) sum_C |C| f(C) chi_pi(C): a Fraction by
    ``exact_sums`` when the table and f are rational, else float or
    complex as the scalar sum is, summed in class order from 0 (on an
    approximate table bit for bit as the scalar sum())."""
    if not same_group(f.group, table.group):
        raise InvalidArgument("function and table use different groups")
    weights = [c.size * fv for c, fv in zip(table.classes, f.values)]
    exact = exact_sums(weights, table.entries.T, table.degrees)
    if exact is not None:
        return tuple(exact)
    w = _weights(weights, "a weight |C| f(C) is")
    sums = []
    for rows in blocks(len(table.entries), table.entries[0].nbytes):
        sums += _ordered_sum(_terms(w, table.entries[rows])).tolist()
    return tuple(s / d for s, d in zip(sums, table.degrees))


@dataclass(frozen=True)
class PositiveTypeResult:
    ok: bool
    irrep: Optional[int] = None
    witness: Optional[object] = None

    def __bool__(self):
        return self.ok


def is_positive_type(f, rep, tol: float = 1e-9) -> PositiveTypeResult:
    """Bochner test: f is of positive type iff every Fourier transform
    fhat(pi) is positive semidefinite.

    For class functions (or any function on an abelian group) a
    CharacterTable suffices and the transforms are scalars; a general
    function on a non-abelian group needs IrrepMatrices.
    """
    if isinstance(rep, IrrepMatrices):
        return _is_positive_type_irreps(f, rep, tol)
    table = rep
    if isinstance(f, GroupFunction):
        if isinstance(f.group, AbelianProductGroup):
            # classes are singletons in element order
            f = ClassFunction(f.group, f.values)
        else:
            g = _as_class_function(f)
            if g is None:
                raise NeedsIrreps(
                    "a non-class function on a non-abelian group needs "
                    "irreducible representation matrices")
            f = g
    scalars = fourier_class_scalars(f, table)
    scale = max(1.0, float(table.group.order)) * tol
    for i, c in enumerate(scalars):
        eps = 0 if is_exact(c) else scale
        # within tolerance, so that NaN and +-inf fail
        if not (abs(c.imag) <= eps and c.real >= -eps):
            return PositiveTypeResult(False, i, c)
    return PositiveTypeResult(True)


def _as_class_function(f: GroupFunction):
    group = f.group
    classes = group.conjugacy_classes()
    values = []
    for idx, cls in enumerate(classes):
        if cls.members is None:
            return None
        vals = {f.values[m] for m in cls.members}
        first = f.values[cls.members[0]]
        if any(_ne(v, first, 1e-12) for v in vals):
            return None
        values.append(first)
    return ClassFunction(group, tuple(values))


def _is_positive_type_irreps(f, irreps: "IrrepMatrices", tol):
    """fhat(pi) = sum_g f(g) pi(g) for each irrep: one product of the
    values with the stack, added in element order from 0 (bit for bit as
    the sum element by element)."""
    group = irreps.group
    if isinstance(f, ClassFunction):
        values = [f.at_element(g) for g in range(group.order)]
    else:
        values = list(f.values)
    values = _weights(values, "a value of f is")
    for i, (d, stack) in enumerate(zip(irreps.degrees, irreps.matrices)):
        terms = (values[:, None, None] * stack).reshape(group.order, d * d)
        fhat = _ordered_sum(terms.T).reshape(d, d)
        herm_defect = np.abs(fhat - fhat.conj().T).max()
        scale = max(1.0, float(np.abs(fhat).max())) * tol * 10
        if not herm_defect <= scale:
            return PositiveTypeResult(False, i, herm_defect)
        eigs = np.linalg.eigvalsh((fhat + fhat.conj().T) / 2)
        if eigs.min() < -max(1.0, float(group.order)) * tol:
            return PositiveTypeResult(False, i, float(eigs.min()))
    return PositiveTypeResult(True)


# ---------------------------------------------------------------------------
# explicit representation matrices

@dataclass(frozen=True, eq=False)
class IrrepMatrices:
    """Unitary matrices pi(g) for every irrep and group element:
    matrices[i] is one read-only complex array of shape (|G|, d_i, d_i),
    pi_i(g) at [g], and d_i is read off its shape.  Whatever the
    constructor is given for an irrep (a sequence of d x d matrices, or
    one array) is normalised to that form; a complex array is made
    read-only, not copied."""
    group: FiniteGroup
    matrices: tuple

    def __post_init__(self):
        stacks = tuple(np.asarray(m, dtype=complex) for m in self.matrices)
        for stack in stacks:
            stack.setflags(write=False)
        object.__setattr__(self, "matrices", stacks)

    @property
    def degrees(self) -> tuple:
        return tuple(stack.shape[1] for stack in self.matrices)

    def validate(self):
        tol = 1e-8
        group = self.group
        for i, stack in enumerate(self.matrices):
            if stack.ndim != 3 or stack.shape[0] != group.order or \
                    stack.shape[1] != stack.shape[2]:
                raise InvalidArgument(f"irrep {i}: expected {group.order} "
                                      "square matrices of one size")
        if sum(d * d for d in self.degrees) != group.order:
            raise InvalidArgument("sum of squared degrees != group order")
        # pi(a) pi(b) = pi(ab) on every pair, or on 2000 seeded pairs
        if group.order > 60:
            left, right = np.random.default_rng(0).integers(
                0, group.order, size=(2000, 2)).T
        else:
            left, right = np.divmod(np.arange(group.order ** 2), group.order)
        prods = group.products(left, right)
        for i, (d, stack) in enumerate(zip(self.degrees, self.matrices)):
            if not np.isfinite(stack).all():
                raise InvalidArgument(f"irrep {i}: an entry is not finite")
            if np.abs(stack[0] - np.eye(d)).max() > tol:
                raise InvalidArgument(f"irrep {i}: pi(e) != I")
            for s in blocks(group.order, stack[0].nbytes):
                part = stack[s]
                defect = np.abs(part @ part.conj().transpose(0, 2, 1) -
                                np.eye(d)).max(axis=(1, 2))
                bad = np.flatnonzero(defect > tol)
                if bad.size:
                    raise InvalidArgument(
                        f"irrep {i}: pi({s.start + bad[0]}) not unitary")
            for s in blocks(len(prods), stack[0].nbytes):
                a, b = left[s], right[s]
                defect = np.abs(stack[a] @ stack[b] -
                                stack[prods[s]]).max(axis=(1, 2))
                bad = np.flatnonzero(defect > tol)
                if bad.size:
                    k = bad[0]
                    raise InvalidArgument(f"irrep {i}: homomorphism fails "
                                          f"at ({a[k]},{b[k]})")
        return self


def as_float_table(table: CharacterTable) -> CharacterTable:
    """Approximate copy of a table (for forcing float-mode pipelines):
    float64, as every rational entry is real."""
    if not table.exact:
        return table
    return CharacterTable(
        group=table.group, degrees=table.degrees,
        entries=table.entries.astype(float),
        irrep_labels=table.irrep_labels, trivial_index=table.trivial_index)


def import_irreps(path, group: FiniteGroup) -> IrrepMatrices:
    """Read representation matrices from JSON: {"degrees": [...],
    "matrices": [irrep][element][row][col] with entries [re, im]}, one
    list per degree, each of |G| d x d matrices of numeric pairs."""
    data = _load_json(path)
    for key in ("degrees", "matrices"):
        if key not in data:
            raise SchemaError(f"missing field {key!r}")
    degrees = tuple(parse_ints(data["degrees"], "degrees"))
    lists = data["matrices"]
    if not isinstance(lists, list):
        raise SchemaError("matrices must be a list, one entry per irrep")
    if len(lists) != len(degrees):
        i = min(len(lists), len(degrees))
        raise SchemaError(f"irrep {i}: {len(lists)} irreps given for "
                          f"{len(degrees)} degrees")
    stacks = []
    for i, (d, mats) in enumerate(zip(degrees, lists)):
        try:
            pairs = np.array(mats)
        except (ValueError, TypeError):     # ragged
            pairs = None
        # numpy reads a boolean among numbers as 1 or 0
        if pairs is None or pairs.dtype.kind not in "iuf" or \
                pairs.shape != (group.order, d, d, 2) or any(
                    type(v) is bool for v in np.array(mats, object).flat):
            raise SchemaError(f"irrep {i}: expected {group.order} matrices "
                              f"{d} x {d} of numeric [re, im] pairs")
        stacks.append(pairs.astype(float).view(complex)[..., 0])
    return IrrepMatrices(group, tuple(stacks)).validate()


def import_function(path, group: FiniteGroup) -> GroupFunction:
    """Read a function from a JSON list of one value per element: a
    string "p", "p/q" or decimal (``_FUNCTION_STRING``) or a JSON integer
    as a Fraction, a JSON float as a float, an [re, im] pair of JSON
    numbers as a complex.  Any other value, a boolean included (type()
    is bool, not int), and one that is not finite are refused naming
    its index."""
    values = []
    for i, v in enumerate(_load_json(path, list)):
        try:
            if isinstance(v, str):
                form = _FUNCTION_STRING.fullmatch(v)
                if form and abs(int(form["exp"] or 0)) <= EXPONENT_BOUND:
                    values.append(Fraction(v))
            elif type(v) in (int, float):
                values.append(Fraction(v) if type(v) is int else v)
            elif isinstance(v, list) and len(v) == 2 and \
                    all(type(x) in (int, float) for x in v):
                values.append(complex(*v))
        except (ValueError, ZeroDivisionError, OverflowError):
            pass                # too many digits, "1/0", beyond a double
        if len(values) != i + 1 or not (is_exact(values[-1]) or
                                        cmath.isfinite(values[-1])):
            raise SchemaError(
                f"malformed function file: value {i} is not a finite "
                f"number, a \"p\", \"p/q\" or decimal string (exponent at "
                f"most {EXPONENT_BOUND}) or an [re, im] pair")
    if len(values) != group.order:
        raise SchemaError(f"function file must list {group.order} values")
    return GroupFunction(group, tuple(values))


def abelian_irreps(table: CharacterTable) -> IrrepMatrices:
    """1x1 representation matrices read off an abelian character table:
    views of its entries when the table is complex."""
    if not isinstance(table.group, AbelianProductGroup):
        raise InvalidArgument("abelian_irreps needs an abelian group")
    return IrrepMatrices(table.group, tuple(table.entries[:, :, None, None]))
