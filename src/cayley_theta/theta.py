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
Complex character values contribute separate real- and imaginary-part
rows; all-zero and duplicate rows are dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Optional

import numpy as np

from .characters import (CharacterTable, ClassFunction, GroupFunction,
                         IrrepMatrices, conj, format_real, is_exact,
                         is_positive_type, row_combination)
from .errors import (InvalidArgument, NumericalFailure, SizeLimit,
                     WrongFormulation)
from .graphs import ConnectionSet, build_cayley
from .groups import FiniteGroup, same_group
from .simplex import LpInstance, LpSolution, solve as lp_solve

MATRIX_BOUND = 2000
ROW_DROP_TOL = 1e-12
WRITE_BATCH = 1 << 14   # SDPA entry lines per write
CERT_TOL = 1e-8


@dataclass(frozen=True)
class CayleyGraphSpec:
    group: FiniteGroup
    connection: ConnectionSet

    def __post_init__(self):
        if not same_group(self.connection.group, self.group):
            raise InvalidArgument("connection set uses a different group")

    @property
    def conjugation_closed(self) -> bool:
        return self.connection.conjugation_closed


@dataclass(frozen=True)
class ThetaLp:
    instance: LpInstance
    irrep_labels: tuple    # column -> irrep label
    row_labels: tuple      # row -> description
    kept_classes: tuple    # class indices whose constraints were kept


@dataclass(frozen=True)
class ThetaCertificate:
    spec: CayleyGraphSpec
    table: CharacterTable
    objective: object               # the theta value
    a: tuple                        # one coefficient per irrep
    f: ClassFunction                # formulation-(B) witness
    exact: bool
    dual: Optional[tuple] = None
    lp_shape: Optional[tuple] = None    # (rows, columns) of the LP solved


# ---------------------------------------------------------------------------
# formulation (D)

def _kept_connection_classes(spec: CayleyGraphSpec):
    classes = spec.group.conjugacy_classes()
    kept = []
    for c in spec.connection.as_classes:
        if min(c, classes[c].inverse_class) == c:
            kept.append(c)
    return tuple(kept)


def build_lp_D(spec: CayleyGraphSpec, table: CharacterTable) -> ThetaLp:
    if not spec.conjugation_closed:
        raise WrongFormulation(
            "connection set is not conjugation-closed; export formulation "
            "(A) or (C) for an external SDP solver instead")
    if not same_group(table.group, spec.group):
        raise InvalidArgument("character table uses a different group")
    group = spec.group
    degrees = table.degrees
    n = len(degrees)
    exact = table.exact
    num = Fraction if exact else float

    rows = [[num(d * d) for d in degrees]]
    rhs = [num(group.order)]
    labels = ["normalization"]
    seen = {_row_key(rows[0], exact)}

    kept = _kept_connection_classes(spec)
    for c in kept:
        coeffs = [d * v for d, v in
                  zip(degrees, table.entries[:, c].tolist())]
        if exact:
            candidates = [(list(coeffs), f"class {c}")]
        else:
            cvals = [complex(v) for v in coeffs]
            candidates = [([v.real for v in cvals], f"class {c} (re)"),
                          ([v.imag for v in cvals], f"class {c} (im)")]
        for row, label in candidates:
            key = _row_key(row, exact)
            if key is None or key in seen:
                continue
            seen.add(key)
            rows.append(row)
            rhs.append(num(0))
            labels.append(label)

    objective = [num(0)] * n
    objective[table.trivial_index] = num(1)
    instance = LpInstance(objective=tuple(objective),
                          A=tuple(tuple(r) for r in rows),
                          b=tuple(rhs), exact=exact)
    return ThetaLp(instance=instance, irrep_labels=table.irrep_labels,
                   row_labels=tuple(labels), kept_classes=kept)


def _row_key(row, exact):
    """Sign- and scale-normalized key for duplicate-row detection; None
    for a row that is zero (exactly, or below ROW_DROP_TOL in floats)."""
    if exact:
        lead = next((v for v in row if v != 0), None)
        return None if lead is None else tuple(Fraction(v, lead)
                                               for v in row)
    scale = max(abs(v) for v in row)
    if scale < ROW_DROP_TOL:
        return None
    lead = next(v for v in row if abs(v) > ROW_DROP_TOL)
    return tuple(round(v / scale * (1 if lead > 0 else -1), 12) for v in row)


def solve_theta(spec: CayleyGraphSpec,
                table: CharacterTable) -> ThetaCertificate:
    """Solve the character LP and return its validated certificate.

    A float-mode LP that comes back not optimal, or whose certificate
    fails validation, raises NumericalFailure; in exact mode either one
    is an internal error and raises RuntimeError."""
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
        values = [((complex(v) + complex(g[cls.inverse_class])) / 2).real /
                  group.order
                  for v, cls in zip(g, group.conjugacy_classes())]
    f = ClassFunction(group, tuple(values))
    return ThetaCertificate(
        spec=spec, table=table, objective=solution.objective_value,
        a=tuple(a), f=f, exact=table.exact, dual=solution.dual,
        lp_shape=(lp.instance.m, lp.instance.n))


def validate_certificate(cert: ThetaCertificate) -> list:
    """Re-check every certificate invariant from scratch; returns a list
    of violation descriptions (empty when valid).  Shares no code with
    the LP builder: constraints are re-evaluated over all connection
    classes, not just the rows the builder kept."""
    problems = []
    spec, table = cert.spec, cert.table
    group = spec.group
    classes = group.conjugacy_classes()
    degrees = table.degrees
    scale = 0 if cert.exact else CERT_TOL * max(1.0, float(group.order))

    def bad(value, want):
        return abs(value - want) > scale

    for i, ai in enumerate(cert.a):
        if ai < -scale:
            problems.append(f"a[{i}] negative")
    if bad(sum(d * d * ai for d, ai in zip(degrees, cert.a)), group.order):
        problems.append("normalization sum d^2 a != |Gamma|")
    for c in spec.connection.as_classes:
        s = sum(d * ai * v for d, ai, v in
                zip(degrees, cert.a, table.entries[:, c].tolist()))
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
    trace 1, zero on edges, entry sum = theta."""
    group = cert.spec.group
    if group.order > MATRIX_BOUND:
        raise SizeLimit(
            f"matrix extraction limited to order {MATRIX_BOUND}")
    inv = group.inverses()
    f_elem = [cert.f.values[group.class_index_of(g)]
              for g in range(group.order)]
    order = group.order
    return [[f_elem[i] / order for i in group.products(b, inv).tolist()]
            for b in range(order)]


def symmetrize_matrix(A, group: FiniteGroup) -> GroupFunction:
    """Average A over right translations and read off the function
    f(gamma) = sum_beta A(gamma beta, beta); if A is feasible for (A),
    f is feasible for (B) with the same objective."""
    order = group.order
    if order > MATRIX_BOUND:
        raise SizeLimit(f"symmetrization limited to order {MATRIX_BOUND}")
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

@dataclass(frozen=True)
class SdpInstance:
    """Maximize <F0, Y> over block-diagonal PSD Y subject to
    <Fk, Y> = rhs_k.  Matrix entries are (block, i, j, value) with
    1-based indices and i <= j."""
    block_sizes: tuple
    objective: tuple
    constraints: tuple   # of (entries, rhs)


def build_sdp_A(spec: CayleyGraphSpec) -> SdpInstance:
    group = spec.group
    if group.order > MATRIX_BOUND:
        raise SizeLimit(f"formulation (A) limited to order {MATRIX_BOUND}")
    graph = build_cayley(group, spec.connection)
    n = group.order
    objective = tuple((1, i, j, 1.0)
                      for i in range(1, n + 1) for j in range(i, n + 1))
    constraints = [(tuple((1, i, i, 1.0) for i in range(1, n + 1)), 1.0)]
    for (u, v) in graph.edges:
        constraints.append((((1, u + 1, v + 1, 1.0),), 0.0))
    return SdpInstance(block_sizes=(n,), objective=objective,
                       constraints=tuple(constraints))


def _embed(mat):
    """Real embedding [[X, -Y], [Y, X]] of a complex matrix X + iY;
    <embed(A), embed(B)> = 2 Re <A, B> for Hermitian A."""
    X, Y = mat.real, mat.imag
    top = np.hstack([X, -Y])
    bot = np.hstack([Y, X])
    return np.vstack([top, bot])


def _sym_entries(block, mat, coeff, tol=ROW_DROP_TOL):
    """Upper-triangle entries of coeff * sym(mat) as SDPA tuples."""
    sym = (mat + mat.T) / 2 * coeff
    out = []
    d = sym.shape[0]
    for i in range(d):
        for j in range(i, d):
            if abs(sym[i, j]) > tol:
                out.append((block, i + 1, j + 1, float(sym[i, j])))
    return tuple(out)


def build_sdp_C(spec: CayleyGraphSpec,
                irreps: IrrepMatrices) -> SdpInstance:
    """Block SDP over the irreps; valid for arbitrary connection sets.
    Complex blocks of degree > 1 are realified by the standard 2x2
    embedding (doubling the block); degree-1 blocks stay 1x1 with the
    complex constraint split into real and imaginary rows."""
    group = spec.group
    if not same_group(irreps.group, group):
        raise InvalidArgument("irreps belong to a different group")
    irreps.validate()
    degrees = irreps.degrees
    n_irreps = len(degrees)
    is_real = []
    for i in range(n_irreps):
        im_max = max(float(np.abs(m.imag).max()) for m in irreps.matrices[i])
        is_real.append(degrees[i] == 1 or im_max < 1e-10)
    block_sizes = tuple(
        d if (is_real[i] or d == 1) else 2 * d
        for i, d in enumerate(degrees))

    trivial = next(
        (i for i in range(n_irreps) if degrees[i] == 1 and
         max(abs(complex(m[0, 0]) - 1) for m in irreps.matrices[i]) < 1e-8),
        None)
    if trivial is None:
        raise InvalidArgument("no trivial irrep among the supplied matrices")

    objective = ((trivial + 1, 1, 1, 1.0),)

    norm_entries = []
    for i, d in enumerate(degrees):
        size = block_sizes[i]
        coeff = float(d) if size == d else d / 2.0
        for k in range(1, size + 1):
            norm_entries.append((i + 1, k, k, coeff))
    constraints = [(tuple(norm_entries), float(group.order))]

    kept = []
    seen = set()
    for x in spec.connection.elements:
        pair = min(x, group.invert(x))
        if pair not in seen:
            seen.add(pair)
            kept.append(pair)

    seen_rows = set()
    for x in kept:
        re_entries = []
        im_entries = []
        for i, d in enumerate(degrees):
            mat = irreps.matrices[i][x]
            if degrees[i] == 1:
                v = complex(mat[0, 0])
                if abs(v.real) > ROW_DROP_TOL:
                    re_entries.append((i + 1, 1, 1, d * v.real))
                if abs(v.imag) > ROW_DROP_TOL:
                    im_entries.append((i + 1, 1, 1, d * v.imag))
            elif is_real[i]:
                re_entries.extend(_sym_entries(i + 1, mat.real, float(d)))
            else:
                re_entries.extend(_sym_entries(i + 1, _embed(mat), d / 2.0))
                im_entries.extend(
                    _sym_entries(i + 1, _embed(1j * mat), d / 2.0))
        for entries in (tuple(re_entries), tuple(im_entries)):
            if not entries:
                continue
            key = (tuple(e[:3] for e in entries),
                   _row_key([e[3] for e in entries], False))
            if key in seen_rows:
                continue
            seen_rows.add(key)
            constraints.append((entries, 0.0))
    return SdpInstance(block_sizes=block_sizes, objective=objective,
                       constraints=tuple(constraints))


def export_sdpa(instance: SdpInstance, path):
    """SDPA sparse format (.dat-s).  Convention, stated in the header:
    the file encodes  max <F0, Y>  s.t.  <Fk, Y> = c_k,  Y PSD.

    Each distinct index and value is formatted once, and the entry lines
    are written WRITE_BATCH at a time.  Indices are 1-based, as
    ``SdpInstance`` states, and at most max(block size, block count)."""
    sizes = instance.block_sizes
    ints = [str(x) for x in range(max(max(sizes, default=0), len(sizes))
                                   + 1)]
    reals = _Reprs()
    matrices = chain([(0, instance.objective)],
                     ((k, entries) for k, (entries, _) in
                      enumerate(instance.constraints, start=1)))
    lines = (f"{k} {ints[b]} {ints[i]} {ints[j]} {reals[v]}\n"
             for k, entries in matrices for (b, i, j, v) in entries)
    with open(path, "w") as fh:
        fh.write('"convention: maximize <F0,Y> subject to <Fk,Y> = c_k, '
                 'Y block-diagonal PSD"\n')
        fh.write(f"{len(instance.constraints)}\n")
        fh.write(f"{len(sizes)}\n")
        fh.write(" ".join(str(s) for s in sizes) + "\n")
        fh.write(" ".join(_fmt(rhs) for (_, rhs) in instance.constraints)
                 + "\n")
        while batch := list(islice(lines, WRITE_BATCH)):
            fh.write("".join(batch))


def _fmt(v: float) -> str:
    return repr(float(v))


class _Reprs(dict):
    """_fmt of each value, computed once.  Zeros are not kept: 0.0 and
    -0.0 are one key but two reprs."""

    def __missing__(self, v):
        text = _fmt(v)
        if v:
            self[v] = text
        return text


def read_sdpa(path) -> SdpInstance:
    """Minimal reader for round-trip checks of this package's exports."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh
                 if ln.strip() and not ln.lstrip().startswith(('"', "*"))]
    m = int(lines[0])
    nblocks = int(lines[1])
    sizes = tuple(int(t) for t in lines[2].split())
    if len(sizes) != nblocks:
        raise InvalidArgument("block count mismatch in SDPA file")
    rhs = [float(t) for t in lines[3].split()]
    if len(rhs) != m:
        raise InvalidArgument("right-hand side count mismatch in SDPA file")
    objective = []
    rows = [[] for _ in range(m)]
    for ln in lines[4:]:
        kno, b, i, j, v = ln.split()
        entry = (int(b), int(i), int(j), float(v))
        if int(kno) == 0:
            objective.append(entry)
        else:
            rows[int(kno) - 1].append(entry)
    constraints = tuple((tuple(r), rhs[k]) for k, r in enumerate(rows))
    return SdpInstance(block_sizes=sizes, objective=tuple(objective),
                       constraints=constraints)


# ---------------------------------------------------------------------------
# certificate serialization

def certificate_to_json(cert: ThetaCertificate) -> str:
    classes = cert.spec.group.conjugacy_classes()
    data = {
        "schema": 1,
        "exact": cert.exact,
        "theta": format_real(cert.objective, cert.exact),
        "a": {label: format_real(v, cert.exact)
              for label, v in zip(cert.table.irrep_labels, cert.a)},
        "f": {c.label: format_real(v, cert.exact)
              for c, v in zip(classes, cert.f.values)},
    }
    return json.dumps(data, indent=1)
