"""The four theta formulations for Cayley graphs.

Only the character linear program (valid when the connection set is
conjugation-closed) is solved internally, in exact rational arithmetic
when the character table is exact.  The full-size SDP over the vertex
set and the block SDP over irreducible representations are built and
exported in SDPA sparse format for external solvers.

LP layout (one variable a_pi per irrep, maximize the trivial one):
    row 0:            sum_pi d_pi^2 a_pi = |Gamma|
    one row per kept connection class C (one per {C, C^-1} pair):
                      sum_pi d_pi chi_pi(C) a_pi = 0
A complex table gives each class a real- and an imaginary-part row;
all-zero and duplicate rows are dropped.  Every table makes the
candidate rows as one array (dtype object from an exact table, float64
from an approximate one) by one route: A is its kept rows, and b and c
take A's dtype, so the LP is exact iff the table is.

Duplicate rows are found by one key per row; a row is dropped when it is
zero or an earlier row has its key.  An exact row's key is the primitive
integer row with its first nonzero entry positive, so two rows share a
key iff one is a rational multiple of the other; a zero row has none.
A float row with no entry above ROW_DROP_TOL in absolute value is zero;
any other row is divided by its largest |a|, negated when its first
entry above ROW_DROP_TOL is negative, and rounded to 12 decimals as
round(v, 12) rounds, and -0.0 counts as 0.0.  Formulation (C) keys its
rows by the same float key.  The float keys of all candidate rows are
computed as one array.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional

import numpy as np

from .characters import (CharacterTable, ClassFunction, GroupFunction,
                         IrrepMatrices, conj, format_real,
                         is_positive_type, row_combination)
from .errors import (InvalidArgument, NumericalFailure, SchemaError,
                     WrongFormulation)
from .graphs import ConnectionSet, build_cayley
from .groups import (FiniteGroup, blocks, check_memory, decimal_lines,
                     distinct, parse_ints, same_group)
from .linalg import is_exact, scaled
from .simplex import LpInstance, LpSolution, solve as lp_solve

ROW_DROP_TOL = 1e-12
INDEX_BOUND = 2 ** 31   # SDP block sizes and constraint counts stay below
CERT_TOL = 1e-8


@dataclass(frozen=True)
class CayleyGraphSpec:
    group: FiniteGroup
    connection: ConnectionSet

    def __post_init__(self):
        if not same_group(self.connection.group, self.group):
            raise InvalidArgument("connection set uses a different group")


@dataclass(frozen=True)
class ThetaLp:
    instance: LpInstance


@dataclass(frozen=True)
class ThetaCertificate:
    spec: CayleyGraphSpec
    table: CharacterTable
    objective: object               # the theta value
    a: tuple                        # one coefficient per irrep
    f: ClassFunction                # formulation-(B) witness
    dual: Optional[tuple] = None
    lp_shape: Optional[tuple] = None    # (rows, columns) of the LP solved

    @property
    def exact(self) -> bool:
        return self.table.exact


# ---------------------------------------------------------------------------
# formulation (D)

def build_lp_D(spec: CayleyGraphSpec, table: CharacterTable) -> ThetaLp:
    if not spec.connection.conjugation_closed:
        raise WrongFormulation(
            "connection set is not conjugation-closed; export formulation "
            "(A) or (C) for an external SDP solver instead")
    if not same_group(table.group, spec.group):
        raise InvalidArgument("character table uses a different group")
    degrees = table.degrees
    # one constraint per {C, C^-1} pair, on the smaller class index
    connection = np.array(spec.connection.as_classes, dtype=np.int64)
    kept = connection[
        connection <= spec.group.conjugacy_classes().inverse[connection]]
    X = table.entries[:, kept]
    if X.dtype == complex:
        # for d > 0, d * (Re - 0 * Im) and d * (Im + 0 * Re) are the parts
        # of d * chi as Python makes them, (d + 0j) * chi, signed zeros too
        parts = np.empty((len(degrees), 2 * len(kept)))
        parts[:, 0::2] = X.real - 0.0 * X.imag
        parts[:, 1::2] = X.imag + 0.0 * X.real
        X = parts

    # the candidate rows, normalization first, and their keys
    d = np.array(degrees, dtype=X.dtype)
    rows = np.vstack([d * d, (d[:, None] * X).T])
    keys = ([_exact_row_key(row) for row in rows.tolist()] if table.exact
            else _float_row_keys(rows))

    # drop the zero rows and every row whose key an earlier row has
    chosen = []
    seen = set()
    for i, key in enumerate(keys):
        if key is not None and key not in seen:
            seen.add(key)
            chosen.append(i)
    A = rows[chosen]
    objective = np.zeros(len(degrees), dtype=A.dtype)
    objective[table.trivial_index] = 1
    b = np.zeros(len(chosen), dtype=A.dtype)
    b[0] = spec.group.order
    return ThetaLp(instance=LpInstance(objective, A, b))


def _exact_row_key(row):
    """The key of an exact row (see the module docstring); None for a
    zero row."""
    L = lcm(*(v.denominator for v in row))
    ints = [scaled(v, L) for v in row]
    g = gcd(*ints)
    if g == 0:
        return None
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def _float_row_keys(rows):
    """The key of each row of a 2-D float array, as bytes; None for a row
    with no entry above ROW_DROP_TOL (see the module docstring).

    round(v, 12) rounds the exact decimal value of v; np.rint(v * 1e12)
    rounds the product in doubles, which is within 2^-14 of v * 10^12
    for |v| <= 1, so it is redone by round() wherever the product lies
    within 1e-3 of a half."""
    rows = np.asarray(rows, dtype=float)
    big = np.abs(rows) > ROW_DROP_TOL
    live = big.any(axis=1)
    keys = [None] * len(rows)
    rows, big = rows[live], big[live]
    lead = rows[np.arange(len(rows)), big.argmax(axis=1)]
    unit = rows / np.abs(rows).max(axis=1, keepdims=True)
    unit *= np.where(lead > 0, 1.0, -1.0)[:, None]
    scaled_up = unit * 1e12
    rounded = np.rint(scaled_up) / 1e12
    for r, c in np.argwhere(
            np.abs(scaled_up - np.floor(scaled_up) - 0.5) < 1e-3):
        rounded[r, c] = round(float(unit[r, c]), 12)
    rounded += 0.0      # -0.0 becomes 0.0
    for i, key in zip(np.flatnonzero(live).tolist(), rounded):
        keys[i] = key.tobytes()
    return keys


def solve_theta(spec: CayleyGraphSpec,
                table: CharacterTable) -> ThetaCertificate:
    """Solve the character LP and return its validated certificate.

    A float-mode LP that comes back not optimal, or whose certificate
    fails validation, raises NumericalFailure; in exact mode either one
    is an internal error and raises RuntimeError.  Exact mode also
    raises NumericalFailure when ``simplex.solve`` proves no answer."""
    lp = build_lp_D(spec, table)
    solution = lp_solve(lp.instance)
    failure = RuntimeError if table.exact else NumericalFailure
    if solution.status != "optimal":
        raise failure(
            f"theta LP unexpectedly {solution.status}: delta_e/|Gamma| "
            "is always feasible")
    cert = _certificate_from_lp(spec, table, solution, lp)
    problems = validate_certificate(cert)
    if problems:
        raise failure("certificate validation failed: " +
                      "; ".join(problems))
    return cert


def _certificate_from_lp(spec, table, solution: LpSolution, lp: ThetaLp):
    group = spec.group
    a = solution.x
    g = row_combination(table, [d * ai for d, ai in zip(table.degrees, a)])
    if table.exact:
        values = [Fraction(v) / group.order for v in g]
    else:
        # real symmetrization f = (g + g o inv)/2 soaks up float residue
        inverse = group.conjugacy_classes().inverse.tolist()
        values = [((v + g[i]) / 2).real / group.order
                  for v, i in zip(g, inverse)]
    f = ClassFunction(group, tuple(values))
    return ThetaCertificate(
        spec=spec, table=table, objective=solution.objective_value,
        a=tuple(a), f=f, dual=solution.dual,
        lp_shape=(lp.instance.m, lp.instance.n))


def validate_certificate(cert: ThetaCertificate) -> list:
    """Re-check every certificate invariant from scratch; returns a list
    of violation descriptions (empty when valid).  Shares no code with
    the LP builder or the certificate's construction: constraints are
    re-evaluated over all connection classes, not just the rows the
    builder kept, by plain sums.  Only the Bochner check goes through
    ``characters.fourier_class_scalars``."""
    problems = []
    spec, table = cert.spec, cert.table
    group = spec.group
    degrees = table.degrees
    scale = 0 if cert.exact else CERT_TOL * max(1.0, float(group.order))

    def bad(value, want):
        # not "within scale", so that NaN and +-inf are bad too
        return not abs(value - want) <= scale

    for i, ai in enumerate(cert.a):
        if not ai >= -scale:
            problems.append(f"a[{i}] negative")
    if bad(sum(d * d * ai for d, ai in zip(degrees, cert.a)), group.order):
        problems.append("normalization sum d^2 a != |Gamma|")
    # rational weights are scaled to integers by their own lcm, which
    # leaves every exact zero test as it is
    weights = [d * ai for d, ai in zip(degrees, cert.a)]
    if all(map(is_exact, weights)):
        L = lcm(*(w.denominator for w in weights))
        weights = [w.numerator * (L // w.denominator) for w in weights]
    connection = spec.connection.as_classes
    columns = table.entries[:, list(connection)].T.tolist()
    for c, column in zip(connection, columns):
        s = sum(map(mul, weights, column))
        if bad(s, 0):
            problems.append(f"constraint violated on connection class {c}")
        if bad(cert.f.values[c], 0):
            problems.append(f"f nonzero on connection class {c}")
    if bad(cert.f.values[0], 1):
        problems.append("f(e) != 1")
    if bad(cert.f.total(), cert.objective):
        problems.append("sum of f != objective")
    if bad(cert.a[table.trivial_index], cert.objective):
        problems.append("objective != trivial coefficient")
    pt = is_positive_type(cert.f, table, tol=CERT_TOL)
    if not pt:
        problems.append(f"f not of positive type (irrep {pt.irrep})")
    return problems


# ---------------------------------------------------------------------------
# certificates as matrices (formulations (A) and (B))

def extract_matrix_solution(cert: ThetaCertificate):
    """The formulation-(A) matrix A(beta,gamma) = f(beta gamma^-1)/|Gamma|:
    trace 1, zero on edges, entry sum = theta.  Each row is a list of
    references to one shared object f(C)/|Gamma| per class C.  Counted:
    8 bytes an entry and an item of three arrays of |Gamma| items, a
    list per row, and the objects (``_object_bytes``)."""
    group = cert.spec.group
    order = group.order
    values = [v / order for v in cert.f.values]
    check_memory(f"the matrix of order {order}", (order * (order + 3), 8),
                 (order, sys.getsizeof([])),
                 (1, sum(map(_object_bytes, values))))
    inv = group.inverses()
    f_elem = np.array(values, dtype=object)[group.class_of()]
    return [f_elem[group.products(b, inv)].tolist() for b in range(order)]


def _object_bytes(value) -> int:
    """The bytes of a number object, with a Fraction's two ints (counted
    even where Python shares them)."""
    parts = (value, value.numerator, value.denominator) \
        if isinstance(value, Fraction) else (value,)
    return sum(map(sys.getsizeof, parts))


def symmetrize_matrix(A, group: FiniteGroup) -> GroupFunction:
    """Average A over right translations and read off the function
    f(gamma) = sum_beta A(gamma beta, beta); if A is feasible for (A),
    f is feasible for (B) with the same objective."""
    order = group.order
    check_memory(f"the matrix of order {order}",
                 (order ** 2, 8 + _object_bytes(0.0)))
    if len(A) != order or any(len(row) != order for row in A):
        raise InvalidArgument("matrix shape does not match the group")
    exact = all(is_exact(v) for row in A for v in row)
    tol = 0 if exact else 1e-9
    for i in range(order):
        for j in range(i, order):
            if abs(A[i][j] - conj(A[j][i])) > tol:
                raise InvalidArgument("matrix is not Hermitian")
    betas = np.arange(order)
    values = []
    for gamma in range(order):
        s = sum(A[row][beta] for beta, row in
                enumerate(group.products(gamma, betas).tolist()))
        values.append(Fraction(s) if exact and not isinstance(s, Fraction)
                      else s)
    return GroupFunction(group, tuple(values))


# ---------------------------------------------------------------------------
# SDP instances and SDPA sparse export

_INTS = ("k", "block", "i", "j", "code")
# one SDPA entry line "k b i j v", read wide enough to check the indices
_ENTRY = np.dtype([(c, np.int64) for c in _INTS[:4]] + [("value", float)])


@dataclass(frozen=True, eq=False)
class SdpInstance:
    """Maximize <F0, Y> over block-diagonal PSD Y subject to
    <Fk, Y> = rhs[k-1], k = 1..m.

    Each matrix entry is a row of a table of read-only numpy columns,
    each in the narrowest unsigned dtype of its largest entry: matrix
    k[r] has values[code[r]] at (i[r], j[r]) of block block[r], 1-based,
    i <= j, and ``values`` holds each distinct float64 once, by its bits
    (0.0 and -0.0 differ).  A block size or constraint count of 2^31 or
    more is refused, and the columns given are checked before they are
    narrowed, the block and triangle checks a block of rows at a time
    (``blocks``).  Matrix numbers are nondecreasing.  ``objective`` and
    ``constraints`` read the table as (block, i, j, value) tuples
    without copying it; two instances are equal when their tables are,
    value for value."""
    block_sizes: tuple
    k: np.ndarray
    block: np.ndarray
    i: np.ndarray
    j: np.ndarray
    values: np.ndarray
    code: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "block_sizes",
                           tuple(int(s) for s in self.block_sizes))
        if max(self.block_sizes, default=0) >= INDEX_BOUND:
            raise InvalidArgument(
                f"SDP block size {max(self.block_sizes)} is not below 2^31")
        if len(self.rhs) >= INDEX_BOUND:
            raise InvalidArgument(
                f"{len(self.rhs)} SDP constraints are not below 2^31")
        columns = {name: np.asarray(getattr(self, name)) for name in _INTS}
        columns = {name: c if c.dtype.kind in "iu" else c.astype(np.int64)
                   for name, c in columns.items()}
        floats = {name: np.ascontiguousarray(getattr(self, name), dtype=float)
                  for name in ("values", "rhs")}
        self._check(*columns.values(), *floats.values())
        for name, column in columns.items():
            columns[name] = np.ascontiguousarray(
                column, dtype=np.min_scalar_type(column.max(initial=0)))
        for name, column in {**columns, **floats}.items():
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def _check(self, k, b, i, j, code, values, rhs):
        """The checks of the entry table, on the columns as given."""
        if not len(k) == len(b) == len(i) == len(j) == len(code):
            raise InvalidArgument("SDP entry columns differ in length")
        if len(distinct(values.view(np.int64))) < len(values) or len(code) \
                and (code.min() < 0 or code.max() >= len(values)):
            raise InvalidArgument("SDP codes do not index distinct values")
        if len(k) and (k[0] < 0 or k[-1] > len(rhs)):
            raise InvalidArgument(
                f"matrix number {k[0] if k[0] < 0 else k[-1]} outside "
                f"0..{len(rhs)}")
        if (k[1:] < k[:-1]).any():
            raise InvalidArgument("SDP entries are not ordered by matrix")
        sizes = np.array((0,) + self.block_sizes)
        for r in blocks(len(k), b.itemsize + i.itemsize + j.itemsize):
            bad = (b[r] < 1) | (b[r] >= len(sizes))
            bad |= ((i[r] < 1) | (i[r] > j[r])
                    | (j[r] > sizes[np.where(bad, 0, b[r])]))
            if bad.any():
                e = r.start + int(np.argmax(bad))
                raise InvalidArgument(
                    f"entry ({b[e]}, {i[e]}, {j[e]}) of matrix {k[e]} is "
                    "not an upper-triangle entry of a block")

    def _matrix(self, k: int) -> Sequence:
        """The entries of Fk as (block, i, j, value) tuples."""
        lo, hi = np.searchsorted(self.k, [k, k + 1]).tolist()
        return _View(hi - lo, lambda r: (
            int(self.block[lo + r]), int(self.i[lo + r]),
            int(self.j[lo + r]), float(self.values[self.code[lo + r]])))

    @property
    def objective(self) -> Sequence:
        return self._matrix(0)

    @property
    def constraints(self) -> Sequence:
        """(entries of Fk, rhs_k) for k = 1..m."""
        return _View(len(self.rhs), lambda n: (self._matrix(n + 1),
                                               float(self.rhs[n])))

    def __eq__(self, other):
        if not isinstance(other, SdpInstance):
            return NotImplemented
        return self.block_sizes == other.block_sizes and all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in _INTS[:4] + ("rhs",)) and all(
            np.array_equal(self.values[self.code[r]],
                           other.values[other.code[r]])
            for r in blocks(len(self.code), 2 * self.values.itemsize))


class _View(Sequence):
    """A read-only sequence of n items, item(r) the r-th."""

    def __init__(self, n, item):
        self._n, self._item = n, item

    def __len__(self):
        return self._n

    def __getitem__(self, r):
        return self._item(range(self._n)[r])


def build_sdp_A(spec: CayleyGraphSpec) -> SdpInstance:
    """Formulation (A) on one block of order |Gamma|: maximize the sum of
    all entries subject to trace 1 and a zero on every edge: ``values``
    is (1.0,) and ``code`` all 0.  k, i and j are made in the narrowest
    dtypes of the edge count and the order and filled once, in place,
    row by row of the adjacency array: the objective's upper triangle,
    the trace's diagonal, then one constraint per edge u < v.  Its
    adjacency and table must fit the memory budget."""
    group = spec.group
    n = group.order
    # Cay(G, X) is |X|-regular: n |X| / 2 edges
    triangle, edges = n * (n + 1) // 2, n * spec.connection.size // 2
    rows = triangle + n + edges
    kind, index = np.min_scalar_type(edges + 1), np.min_scalar_type(n)
    check_memory(f"formulation (A) of order {n}", (n * n, 1),
                 (rows, kind.itemsize + 2 * index.itemsize + 2))
    adjacent = build_cayley(group, spec.connection).adjacency
    k = np.ones(rows, dtype=kind)
    i, j = np.ones(rows, dtype=index), np.ones(rows, dtype=index)
    k[:triangle] = 0
    k[triangle + n:] = np.arange(2, edges + 2, dtype=kind)
    one_to_n = np.arange(1, n + 1, dtype=index)
    i[triangle:triangle + n] = j[triangle:triangle + n] = one_to_n
    top, at = 0, triangle + n
    for u in range(n):
        i[top:top + n - u] = u + 1
        j[top:top + n - u] = one_to_n[u:]
        top += n - u
        vs = np.flatnonzero(adjacent[u, u + 1:])
        i[at:at + len(vs)] = u + 1
        j[at:at + len(vs)] = vs + u + 2
        at += len(vs)
    rhs = np.zeros(edges + 1)
    rhs[0] = 1.0
    return SdpInstance((n,), k, np.ones(rows, dtype=np.uint8), i, j, (1.0,),
                       np.zeros(rows, dtype=np.uint8), rhs)


def build_sdp_C(spec: CayleyGraphSpec,
                irreps: IrrepMatrices) -> SdpInstance:
    """Block SDP over the irreps; valid for arbitrary connection sets.
    Complex blocks of degree > 1 are realified by the standard 2x2
    embedding (doubling the block); degree-1 blocks stay 1x1 with the
    complex constraint split into real and imaginary rows.

    Each kept element x (one per {x, x^-1} pair, in first-seen order)
    gives a real and an imaginary candidate row with one column per
    upper-triangle position of every block, filled one irrep at a time
    for all kept elements: coeff * (P + P^T) / 2 of the block's matrix
    P, or of the embeddings [[X, -Y], [Y, X]] and [[-Y, -X], [X, -Y]]
    of pi(x) = X + iY.  Entries of at most ROW_DROP_TOL in absolute
    value are dropped, and with them every row left empty and every row
    whose kept positions and float key an earlier row has."""
    group = spec.group
    if not same_group(irreps.group, group):
        raise InvalidArgument("irreps belong to a different group")
    irreps.validate()
    degrees, stacks = irreps.degrees, irreps.matrices
    block_sizes = tuple(2 * d if d > 1 and np.abs(m.imag).max() >= 1e-10
                        else d for d, m in zip(degrees, stacks))
    trivial = next((i for i, (d, m) in enumerate(zip(degrees, stacks))
                    if d == 1 and np.abs(m[:, 0, 0] - 1).max() < 1e-8), None)
    if trivial is None:
        raise InvalidArgument("no trivial irrep among the supplied matrices")

    coeffs = [d / 2.0 if s > d else float(d)
              for d, s in zip(degrees, block_sizes)]

    xs = np.array(spec.connection.elements, dtype=np.int64)
    pairs = np.minimum(xs, group.invert(xs))
    kept = pairs[np.sort(np.unique(pairs, return_index=True)[1])]
    width = sum(s * (s + 1) // 2 for s in block_sizes)
    rows = np.zeros((len(kept), 2, width))
    where = np.zeros((3, width), dtype=np.int64)    # block, i, j
    at = 0
    for b, (d, s, m, coeff) in enumerate(
            zip(degrees, block_sizes, stacks, coeffs), 1):
        r, c = np.triu_indices(s)
        cols = slice(at, at + len(r))
        at += len(r)
        where[0, cols], where[1, cols], where[2, cols] = b, r + 1, c + 1
        X, Y = m[kept].real, m[kept].imag
        if s > d:
            parts = (np.block([[X, -Y], [Y, X]]),
                     np.block([[-Y, -X], [X, -Y]]))
        else:
            parts = (X, Y) if d == 1 else (X,)
        for p, part in enumerate(parts):
            rows[:, p, cols] = (part[:, r, c] + part[:, c, r]) / 2 * coeff
    rows = rows.reshape(-1, width)
    live = np.abs(rows) > ROW_DROP_TOL
    rows[~live] = 0.0
    chosen, seen = [], set()
    for n, key in enumerate(_float_row_keys(rows)):
        if key is not None and (live[n].tobytes(), key) not in seen:
            seen.add((live[n].tobytes(), key))
            chosen.append(n)
    row, col = np.nonzero(live[chosen])

    # F0 (the trivial irrep), the normalization (the block diagonals),
    # then the kept rows
    diagonal = np.flatnonzero(where[1] == where[2])
    k = np.concatenate([[0], np.ones(len(diagonal), dtype=np.int64),
                        2 + row])
    index = np.concatenate([[[trivial + 1], [1], [1]], where[:, diagonal],
                            where[:, col]], axis=1)
    value = np.concatenate([[1.0], np.repeat(coeffs, block_sizes),
                            rows[chosen][row, col]])
    rhs = np.zeros(len(chosen) + 1)
    rhs[0] = group.order
    return SdpInstance(block_sizes, k, *index, *_encode(value), rhs)


def export_sdpa(instance: SdpInstance, path):
    """SDPA sparse format (.dat-s).  Convention, stated in the header:
    the file encodes  max <F0, Y>  s.t.  <Fk, Y> = c_k,  Y PSD.

    Entry lines "k b i j v" are written a ``blocks`` batch of rows at a
    time, as ``decimal_lines`` of k, block, i and j with a tail " v\n"
    taken by ``code`` from a bytes array of the repr of each value."""
    t = instance
    tails = np.array([b" %r\n" % v for v in t.values.tolist()], dtype=bytes)
    values, code = _encode(t.rhs)
    rhs = np.array([b" %r" % v for v in values.tolist()], dtype=bytes)[code]
    with open(path, "wb") as fh:
        fh.write(('"convention: maximize <F0,Y> subject to <Fk,Y> = c_k, '
                  'Y block-diagonal PSD"\n'
                  f"{len(t.rhs)}\n{len(t.block_sizes)}\n"
                  + " ".join(map(str, t.block_sizes)) + "\n").encode()
                 + rhs.tobytes().replace(b"\0", b"")[1:] + b"\n")
        for r in blocks(len(t.k), sum(getattr(t, c).itemsize for c in _INTS)):
            fh.write(decimal_lines([t.k[r], t.block[r], t.i[r], t.j[r]],
                                   tails[t.code[r]]))


def _encode(value):
    """(values, code) of a float64 column: its distinct values, told
    apart by their bits (so 0.0 and -0.0 differ), and the index into
    them of each entry."""
    bits = np.ascontiguousarray(value, dtype=float).view(np.int64)
    values = distinct(bits)
    return values.view(np.float64), np.searchsorted(values, bits)


def read_sdpa(path) -> SdpInstance:
    """Reader for round-trip checks of this package's exports.  A file
    that is not SDPA sparse format raises SchemaError, and an entry that
    is not an upper-triangle entry of a block of a matrix 0..m raises
    InvalidArgument.  The entry lines are parsed in one ``np.loadtxt``
    call; only a file it refuses is split line by line, to name the
    fault."""
    with open(path) as fh:
        lines = [ln for ln in map(str.strip, fh) if ln and ln[0] not in '"*']
    if len(lines) < 3:
        raise SchemaError("SDPA file ends inside its header")
    (m,) = parse_ints(lines[0].split(), "SDPA constraint count", 1)
    # with no constraints the right-hand-side line is empty, and went
    # with the blank lines
    header = 4 if m else 3
    if len(lines) < header:
        raise SchemaError("SDPA file ends inside its header")
    (nblocks,) = parse_ints(lines[1].split(), "SDPA block count", 1)
    sizes = parse_ints(lines[2].split(), "SDPA block sizes", nblocks)
    body = lines[header:]
    try:
        rhs = [float(t) for t in lines[3].split()] if m else []
        # loadtxt warns on no lines at all
        entries = np.loadtxt(body, dtype=_ENTRY, comments=None, ndmin=1) \
            if body else np.zeros(0, dtype=_ENTRY)
    except ValueError as exc:
        short = next((ln for ln in body if len(ln.split()) != 5), None)
        if short is not None:
            raise SchemaError(
                f"SDPA entry line {short!r} needs 5 fields") from None
        raise SchemaError(f"malformed SDPA file: {exc}") from None
    if len(rhs) != m:
        raise SchemaError("right-hand side count mismatch in SDPA file")
    # the entries of one matrix keep their order in the file
    entries = entries[np.argsort(entries["k"], kind="stable")]
    return SdpInstance(sizes, *(entries[c] for c in _INTS[:4]),
                       *_encode(entries["value"]), rhs)


# ---------------------------------------------------------------------------
# certificate serialization

def certificate_to_json(cert: ThetaCertificate) -> str:
    labels = cert.spec.group.class_labels()
    data = {
        "schema": 1,
        "exact": cert.exact,
        "theta": format_real(cert.objective),
        "a": {label: format_real(v)
              for label, v in zip(cert.table.irrep_labels, cert.a)},
        "f": {label: format_real(v)
              for label, v in zip(labels, cert.f.values)},
    }
    return json.dumps(data, indent=1)
