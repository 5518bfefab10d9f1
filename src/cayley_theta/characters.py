"""Character tables and class-function Fourier analysis.

Scalars are either exact (``fractions.Fraction``) or approximate
(``complex``); a table is exact only when every entry is exact.  The
symmetric-group tables are computed by the Murnaghan-Nakayama rule and
are exact integers; abelian tables involve roots of unity and are stored
approximately unless all moduli are 1 or 2.

One rule decides every exact-or-approximate test here and in ``theta``
and ``simplex``: exact means tolerance 0.  An exact value is compared
exactly and never passes through ``complex()`` or ``float()``; an
approximate one is compared within the tolerance of its call site.

Class ordering conventions: class 0 is always the identity class; for
symmetric groups classes and irreps are both indexed by partitions in
the canonical order of :func:`cayley_theta.groups.partitions`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul
from typing import Optional, Union

import numpy as np

from .errors import (CorruptTable, InvalidArgument, NeedsIrreps, SchemaError,
                     SizeLimit)
from .groups import (AbelianProductGroup, FiniteGroup, SymmetricGroup,
                     partition_label, partitions, same_group)
from .linalg import scaled

Scalar = Union[Fraction, complex]

# an abelian table has order**2 entries, each a Python object
ABELIAN_TABLE_BOUND = 2000
# entries per numpy block: table rows, or pairs of irrep matrices
ROW_BLOCK = 1 << 13


def conj(v: Scalar) -> Scalar:
    return v.conjugate() if isinstance(v, complex) else v


def is_exact(v) -> bool:
    return isinstance(v, (Fraction, int))


def format_real(v, exact: bool):
    """A real result as written to JSON, CSV or the terminal: the
    rational as a string "p/q" when exact, else a float."""
    return str(Fraction(v)) if exact else float(v)


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

@dataclass(frozen=True)
class CharacterTable:
    group: FiniteGroup
    degrees: tuple
    entries: tuple          # entries[irrep][class]
    irrep_labels: tuple
    trivial_index: int
    exact: bool

    @property
    def classes(self):
        return self.group.conjugacy_classes()

    def validate(self, tol: float = 1e-8):
        """Check all table invariants; raise CorruptTable on failure."""
        group = self.group
        classes = self.classes
        n_irreps = len(self.degrees)
        if any(len(row) != len(classes) for row in self.entries):
            raise CorruptTable("entry matrix shape mismatch")
        if sum(d * d for d in self.degrees) != group.order:
            raise CorruptTable("sum of squared degrees != group order")
        for i, d in enumerate(self.degrees):
            if _ne(self.entries[i][0], d, tol):
                raise CorruptTable(
                    f"identity-class entry of irrep {i} is not its degree")
        triv = self.entries[self.trivial_index]
        if self.degrees[self.trivial_index] != 1 or any(
                _ne(v, 1, tol) for v in triv):
            raise CorruptTable("trivial irrep row is not all ones")
        if all(is_exact(v) for row in self.entries for v in row):
            _check_orthogonality_exact(self.entries, classes, group.order)
            return self
        scale = max(tol * group.order, tol)
        for i in range(n_irreps):
            for j in range(i, n_irreps):
                s = sum(c.size * self.entries[i][k] * conj(self.entries[j][k])
                        for k, c in enumerate(classes))
                want = group.order if i == j else 0
                if _ne(s, want, scale):
                    raise CorruptTable(
                        f"row orthogonality fails for irreps ({i},{j})")
        for k in range(len(classes)):
            for l in range(k, len(classes)):
                s = sum(self.entries[i][k] * conj(self.entries[i][l])
                        for i in range(n_irreps))
                want = Fraction(group.order, classes[k].size) if k == l else 0
                if _ne(s, want, scale):
                    raise CorruptTable(
                        f"column orthogonality fails for classes ({k},{l})")
        return self


def _check_orthogonality_exact(entries, classes, order):
    """The orthogonality checks of ``validate`` on a rational table, run
    on the integers X = L * entries for one lcm L of the denominators:
    each sum is compared with its wanted value times L^2."""
    L = lcm(*(v.denominator for row in entries for v in row))
    X = [[scaled(v, L) for v in row] for row in entries]
    sizes = [c.size for c in classes]
    norm = order * L * L
    for i, row in enumerate(X):
        weighted = [s * v for s, v in zip(sizes, row)]
        for j in range(i, len(X)):
            s = sum(map(mul, weighted, X[j]))
            if s != (norm if i == j else 0):
                raise CorruptTable(
                    f"row orthogonality fails for irreps ({i},{j})")
    columns = list(zip(*X))
    for k, col in enumerate(columns):
        for l in range(k, len(columns)):
            s = sum(map(mul, col, columns[l]))
            # the wanted sum is order / |C_k| when k == l
            if (s * sizes[k] != norm) if k == l else s != 0:
                raise CorruptTable(
                    f"column orthogonality fails for classes ({k},{l})")


def _ne(value, want, tol):
    if is_exact(value):
        return value != want
    return abs(complex(value) - complex(want)) > tol


# ---------------------------------------------------------------------------
# abelian tables

def abelian_character_table(group: FiniteGroup) -> CharacterTable:
    """Characters of a product of cyclic groups: chi_j(x) =
    prod_t exp(2*pi*i*j_t*x_t/m_t).  Exact (entries +-1) when every
    modulus is 2; approximate complex otherwise.

    The phases come from one integer matrix N[j, x] = sum_t j_t*x_t*(L/m_t)
    with L = lcm(moduli), built ROW_BLOCK entries at a time.  An exact
    entry is +-1 by the parity of N.  An approximate entry is cos(y) +
    i*sin(y) with y = (2*pi)*(N/L): N and L are below 2^53, so N/L is the
    correctly rounded phase, and (cos y, sin y) is what cmath.exp(i*y)
    returns for it."""
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
    signs = (Fraction(1), Fraction(-1))
    step = max(1, ROW_BLOCK // group.order)
    entries = []
    for start in range(0, group.order, step):
        N = digits[start:start + step] @ weighted.T
        if exact:
            entries += [tuple(map(signs.__getitem__, row))
                        for row in (N % 2).tolist()]
            continue
        y = (2 * np.pi) * (N / L)
        z = np.empty(y.shape, dtype=complex)
        z.real, z.imag = np.cos(y), np.sin(y)
        entries += map(tuple, z.tolist())
    return CharacterTable(
        group=group, degrees=(1,) * group.order,
        entries=tuple(entries),
        irrep_labels=tuple("chi" + group.element_label(j)
                           for j in range(group.order)),
        trivial_index=0, exact=exact)


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


def symmetric_character_table(n: int) -> CharacterTable:
    """Exact character table of S_n; irreps and classes are both indexed
    by partitions of n in canonical order, so the trivial irrep (n)
    comes last."""
    if not 1 <= n <= SymmetricGroup.MAX_N:
        raise InvalidArgument(f"need 1 <= n <= {SymmetricGroup.MAX_N}")
    group = SymmetricGroup(n)
    parts = partitions(n)
    entries = []
    degrees = []
    for lam in parts:
        row = tuple(Fraction(mn_character(lam, mu)) for mu in parts)
        entries.append(row)
        degree = int(row[0])
        if degree != hook_length_degree(lam):
            raise CorruptTable(
                f"degree of {lam} disagrees with the hook-length formula")
        degrees.append(degree)
    return CharacterTable(
        group=group, degrees=tuple(degrees), entries=tuple(entries),
        irrep_labels=tuple(partition_label(lam) for lam in parts),
        trivial_index=len(parts) - 1, exact=True).validate()


# ---------------------------------------------------------------------------
# table file format

def _format_scalar(v: Scalar, exact: bool):
    if exact:
        return str(Fraction(v))
    c = complex(v)
    return [c.real, c.imag]


def _parse_scalar(v, exact: bool) -> Scalar:
    if exact:
        if not isinstance(v, str):
            raise SchemaError(f"exact entries must be rational strings: {v!r}")
        return Fraction(v)
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2:
        return complex(v[0], v[1])
    raise SchemaError(f"bad approximate entry {v!r}")


def export_character_table(table: CharacterTable, path):
    classes = table.classes
    data = {
        "group_order": table.group.order,
        "class_sizes": [c.size for c in classes],
        "class_labels": [c.label for c in classes],
        "degrees": list(table.degrees),
        "irrep_labels": list(table.irrep_labels),
        "exact": table.exact,
        "entries": [_format_scalar(v, table.exact)
                    for row in table.entries for v in row],
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


def import_character_table(path, group: FiniteGroup) -> CharacterTable:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    for key in ("group_order", "class_sizes", "degrees", "exact", "entries"):
        if key not in data:
            raise SchemaError(f"missing field {key!r}")
    if data["group_order"] != group.order:
        raise SchemaError(
            f"file is for a group of order {data['group_order']}, "
            f"got order {group.order}")
    classes = group.conjugacy_classes()
    if len(data["class_sizes"]) != len(classes):
        raise SchemaError(
            f"file has {len(data['class_sizes'])} classes, group has "
            f"{len(classes)}")
    perm = _match_class_order(list(data["class_sizes"]), classes)
    exact = bool(data["exact"])
    degrees = tuple(int(d) for d in data["degrees"])
    n_irreps = len(degrees)
    flat = data["entries"]
    if len(flat) != n_irreps * len(classes):
        raise SchemaError("entry count mismatch")
    rows = []
    for i in range(n_irreps):
        file_row = flat[i * len(classes):(i + 1) * len(classes)]
        rows.append(tuple(_parse_scalar(file_row[perm[k]], exact)
                          for k in range(len(classes))))
    labels = data.get("irrep_labels") or [f"irrep{i}"
                                          for i in range(n_irreps)]
    trivial = next((i for i in range(n_irreps)
                    if degrees[i] == 1 and
                    all(not _ne(v, 1, 1e-8) for v in rows[i])), None)
    if trivial is None:
        raise CorruptTable("no trivial irrep row found")
    table = CharacterTable(
        group=group, degrees=degrees, entries=tuple(rows),
        irrep_labels=tuple(labels), trivial_index=trivial, exact=exact)
    return table.validate()


# ---------------------------------------------------------------------------
# Fourier analysis

def _row_blocks(table: CharacterTable):
    """(first row, rows) over the table's rows, about ROW_BLOCK entries at
    a time as one numpy array: of objects when the table is exact, so
    that Python does the arithmetic, else complex."""
    dtype = object if table.exact else complex
    step = max(1, ROW_BLOCK // len(table.classes))
    for start in range(0, len(table.entries), step):
        yield start, np.array(table.entries[start:start + step], dtype=dtype)


def _terms(weights, rows):
    """The products weights[k] * rows[i, k], each rounded as Python rounds
    the scalar product: numpy may fuse the multiply and add of a complex
    product, CPython does not, so an approximate one is written out in
    real and imaginary parts."""
    if rows.dtype == object:
        return np.array(weights, dtype=object) * rows
    w = np.array([complex(x) for x in weights])
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
    """sum_pi weights[pi] * chi_pi(C) for every class C, summed in irrep
    order from 0, bit for bit as the scalar sum()."""
    acc = 0
    for start, rows in _row_blocks(table):
        acc = _ordered_sum(
            _terms(weights[start:start + len(rows)], rows.T), acc)
    return acc.tolist()


def fourier_class_scalars(f: ClassFunction, table: CharacterTable):
    """Scalars c_pi with fhat(pi) = c_pi * I for a class function f:
    c_pi = (1/d_pi) sum_C |C| f(C) chi_pi(C), summed in class order from
    0, bit for bit as the scalar sum()."""
    if not same_group(f.group, table.group):
        raise InvalidArgument("function and table use different groups")
    weights = [c.size * fv for c, fv in zip(table.classes, f.values)]
    sums = []
    for _, rows in _row_blocks(table):
        sums += _ordered_sum(_terms(weights, rows)).tolist()
    return tuple(Fraction(s) / d if is_exact(s) else complex(s) / d
                 for s, d in zip(sums, table.degrees))


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
        if abs(c.imag) > eps or c.real < -eps:
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
    group = irreps.group
    if isinstance(f, ClassFunction):
        values = [f.at_element(g) for g in range(group.order)]
    else:
        values = list(f.values)
    for i, mats in enumerate(irreps.matrices):
        d = irreps.degrees[i]
        fhat = np.zeros((d, d), dtype=complex)
        for g in range(group.order):
            fhat += complex(values[g]) * mats[g]
        herm_defect = np.abs(fhat - fhat.conj().T).max()
        scale = max(1.0, float(np.abs(fhat).max())) * tol * 10
        if herm_defect > scale:
            return PositiveTypeResult(False, i, herm_defect)
        eigs = np.linalg.eigvalsh((fhat + fhat.conj().T) / 2)
        if eigs.min() < -max(1.0, float(group.order)) * tol:
            return PositiveTypeResult(False, i, float(eigs.min()))
    return PositiveTypeResult(True)


# ---------------------------------------------------------------------------
# explicit representation matrices

@dataclass(frozen=True)
class IrrepMatrices:
    """Unitary matrices pi(gamma) for every irrep and group element;
    matrices[i][g] is a numpy complex array of shape (d_i, d_i)."""
    group: FiniteGroup
    degrees: tuple
    matrices: tuple
    labels: tuple = None

    def validate(self, tol: float = 1e-8):
        group = self.group
        if sum(d * d for d in self.degrees) != group.order:
            raise InvalidArgument("sum of squared degrees != group order")
        # pi(a) pi(b) = pi(ab) on every pair, or on 2000 seeded pairs
        if group.order > 60:
            left, right = np.random.default_rng(0).integers(
                0, group.order, size=(2000, 2)).T
        else:
            left, right = np.divmod(np.arange(group.order ** 2), group.order)
        prods = group.products(left, right)
        for i, mats in enumerate(self.matrices):
            d = self.degrees[i]
            if len(mats) != group.order:
                raise InvalidArgument("one matrix per element required")
            if np.abs(mats[0] - np.eye(d)).max() > tol:
                raise InvalidArgument(f"irrep {i}: pi(e) != I")
            for g in range(group.order):
                defect = np.abs(mats[g] @ mats[g].conj().T - np.eye(d)).max()
                if defect > tol:
                    raise InvalidArgument(f"irrep {i}: pi({g}) not unitary")
            stack = np.array(mats)
            block = max(1, ROW_BLOCK // (d * d))
            for s in range(0, len(prods), block):
                a, b = left[s:s + block], right[s:s + block]
                defect = np.abs(stack[a] @ stack[b] -
                                stack[prods[s:s + block]]).max(axis=(1, 2))
                bad = np.flatnonzero(defect > tol)
                if bad.size:
                    k = bad[0]
                    raise InvalidArgument(f"irrep {i}: homomorphism fails "
                                          f"at ({a[k]},{b[k]})")
        return self


def as_float_table(table: CharacterTable) -> CharacterTable:
    """Approximate copy of a table (for forcing float-mode pipelines)."""
    if not table.exact:
        return table
    return CharacterTable(
        group=table.group, degrees=table.degrees,
        entries=tuple(tuple(complex(v) for v in row)
                      for row in table.entries),
        irrep_labels=table.irrep_labels,
        trivial_index=table.trivial_index, exact=False)


def import_irreps(path, group: FiniteGroup) -> IrrepMatrices:
    """Read representation matrices from JSON: {"degrees": [...],
    "matrices": [irrep][element][row][col] with entries [re, im]}."""
    with open(path) as fh:
        data = json.load(fh)
    for key in ("degrees", "matrices"):
        if key not in data:
            raise SchemaError(f"missing field {key!r}")
    degrees = tuple(int(d) for d in data["degrees"])
    mats = []
    for i, per_elem in enumerate(data["matrices"]):
        if len(per_elem) != group.order:
            raise SchemaError(
                f"irrep {i}: expected {group.order} matrices")
        rows = []
        for m in per_elem:
            arr = np.array([[complex(e[0], e[1]) for e in row]
                            for row in m])
            if arr.shape != (degrees[i], degrees[i]):
                raise SchemaError(f"irrep {i}: matrix shape mismatch")
            rows.append(arr)
        mats.append(tuple(rows))
    return IrrepMatrices(group=group, degrees=degrees,
                         matrices=tuple(mats)).validate()


def abelian_irreps(table: CharacterTable) -> IrrepMatrices:
    """1x1 representation matrices read off an abelian character table."""
    group = table.group
    if not isinstance(group, AbelianProductGroup):
        raise InvalidArgument("abelian_irreps needs an abelian group")
    mats = tuple(
        tuple(np.array([[complex(table.entries[i][g])]]) for g in
              range(group.order))
        for i in range(len(table.degrees)))
    return IrrepMatrices(group=group, degrees=table.degrees, matrices=mats,
                         labels=table.irrep_labels)
