"""Independent oracles used by the test suite.

These deliberately share no code with the solvers they check: the LP
oracle enumerates basic feasible solutions and extreme rays, the
reference simplex is the plain two-phase Bland solver over ``Fraction``
whose status and optimum exact ``solve`` must reach from its proofs,
the reference abelian table computes one ``cmath.exp`` per
entry and the reference Fourier sums one product per entry, the
independence-number oracle is a plain subset recursion, the group
oracles use the single-product ``multiply``/``invert`` below, which on
S_n compose and invert ``perm()`` tuples and rank them by ``perm_rank``
and on abelian products add and negate ``decode`` digits, the path
independent of the array kernels ``products``/``invert`` (the axiom
and action oracles try every triple, where the package checks the
generators only), the PSD test
is symmetric elimination over ``Fraction`` on the group matrix (the
direct check of Bochner's criterion), the convolution is the defining
sum, the character oracle walks border strips on the Young diagram
instead of beta-sets, the GL(n, q) oracles multiply matrices by the
defining triple loop over the field tables and read rank(A - I) off the
number of vectors that A fixes, with no elimination, the SDPA
reference writer formats one entry line at a time, and the reference
character LP keys its rows one row and one entry at a time.  The seeded
inverse-closed sets, the permutation groups closed from generators
(``action_from_generators``), SDP instances from entry lists
(``sdp_from_matrices``) and the pointwise stabilizers in GL(n, q)
(``gl_pointwise_stabilizer``) are test inputs, kept here so that every
test module makes the same ones.
"""

import cmath
import random
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd, lcm

import numpy as np

from cayley_theta.characters import ClassFunction, GroupFunction, conj
from cayley_theta.errors import InvalidArgument, NotAGroup
from cayley_theta.groups import (AbelianProductGroup, GroupAction,
                                 SymmetricGroup, TableGroup, same_group)
from cayley_theta.simplex import LpInstance
from cayley_theta.theta import SdpInstance, ThetaLp


def solve_square(A, b):
    """Solve A x = b by Gauss-Jordan over Fraction; None if singular."""
    n = len(A)
    M = [[Fraction(v) for v in row] + [Fraction(bi)]
         for row, bi in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def _pivot(T, basis, row, col):
    pv = T[row][col]
    T[row] = [v / pv for v in T[row]]
    pr = T[row]
    for i, r in enumerate(T):
        if i != row and r[col] != 0:
            f = r[col]
            T[i] = [a - f * c for a, c in zip(r, pr)]
    basis[row] = col


def _bland(T, basis, cost, ncols):
    """Bland's rule with reduced costs recomputed for every column."""
    while True:
        entering = None
        for j in range(ncols):
            if j in basis:
                continue
            r = cost[j] - sum(cost[basis[i]] * T[i][j]
                              for i in range(len(T)))
            if r > 0:
                entering = j
                break
        if entering is None:
            return "optimal"
        leaving = None
        best = None
        for i in range(len(T)):
            a = T[i][entering]
            if a > 0:
                ratio = T[i][-1] / a
                if (best is None or ratio < best or
                        (ratio == best and basis[i] < basis[leaving])):
                    best, leaving = ratio, i
        if leaving is None:
            return "unbounded"
        _pivot(T, basis, leaving, entering)


def reference_simplex(c, A, b):
    """Two-phase Bland simplex over Fraction for max c.x, Ax=b, x>=0.

    Returns (status, x, objective_value, dual, basis); the non-optimal
    statuses carry None in the other fields.  A redundant row is dropped
    where phase I leaves its own artificial basic.
    """
    m, n = len(A), len(c)
    A = [[Fraction(v) for v in row] for row in A]
    T = []
    for i, rhs in enumerate(b):
        sign = -1 if rhs < 0 else 1
        T.append([sign * v for v in A[i]] +
                 [Fraction(int(j == i)) for j in range(m)] +
                 [sign * Fraction(rhs)])
    basis = [n + i for i in range(m)]
    _bland(T, basis, [Fraction(0)] * n + [Fraction(-1)] * m, n + m)
    if sum(T[i][-1] for i in range(m) if basis[i] >= n) > 0:
        return "infeasible", None, None, None, None
    dropped = set()
    i = 0
    while i < len(T):
        if basis[i] >= n:
            col = next((j for j in range(n)
                        if T[i][j] != 0 and j not in basis), None)
            if col is None:
                # the artificial's own row is the redundant one
                dropped.add(basis[i] - n)
                del T[i], basis[i]
                continue
            _pivot(T, basis, i, col)
        i += 1
    keep_rows = [r for r in range(m) if r not in dropped]
    T = [row[:n] + [row[-1]] for row in T]
    cost = [Fraction(v) for v in c]
    if _bland(T, basis, cost, n) == "unbounded":
        return "unbounded", None, None, None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = T[i][-1]
    value = sum(cv * v for cv, v in zip(cost, x))
    k = len(basis)
    y = solve_square([[A[keep_rows[i]][basis[j]] for i in range(k)]
                      for j in range(k)], [cost[bi] for bi in basis])
    dual = None
    if y is not None:
        dual = [Fraction(0)] * m
        for i, row in enumerate(keep_rows):
            dual[row] = y[i]
        dual = tuple(dual)
    return "optimal", tuple(x), value, dual, tuple(basis)


def reference_abelian_table(group):
    """Entries of the character table of a product of cyclic groups, one
    ``cmath.exp`` of an exact ``Fraction`` phase per entry, or exact +-1
    when every modulus is 2."""
    moduli = group.moduli
    exact = all(m <= 2 for m in moduli)
    entries = []
    for j in range(group.order):
        js = group.decode(j)
        row = []
        for x in range(group.order):
            xs = group.decode(x)
            if exact:
                sign = sum(a * b for a, b in zip(js, xs))
                row.append(Fraction(-1 if sign % 2 else 1))
            else:
                phase = sum(Fraction(a * b, m) for a, b, m in
                            zip(js, xs, moduli))
                row.append(cmath.exp(2j * cmath.pi * float(phase)))
        entries.append(tuple(row))
    return tuple(entries)


def reference_row_combination(table, weights):
    """sum_pi weights[pi] * chi_pi(C) for every class C, one scalar
    product at a time, summed in irrep order from 0."""
    out = []
    for column in table.entries.T.tolist():
        s = 0
        for w, chi in zip(weights, column):
            s += w * chi
        out.append(s)
    return out


def reference_fourier_scalars(f, table):
    """c_pi = (1/d_pi) sum_C |C| f(C) chi_pi(C), one scalar product at a
    time, summed left to right from 0."""
    out = []
    sizes = table.classes.sizes.tolist()
    for row, d in zip(table.entries.tolist(), table.degrees):
        s = 0
        for size, fv, chi in zip(sizes, f.values, row):
            s += size * fv * chi
        out.append(Fraction(s) / d if isinstance(s, (int, Fraction))
                   else s / d)
    return tuple(out)


def first_orthogonality_failure(table):
    """The message ``CharacterTable.validate`` gives for the first pair
    that fails row or column orthogonality, found by the scalar double
    loops over Python numbers (tolerance 0 when exact); None if none."""
    X = table.entries.tolist()
    sizes = table.classes.sizes.tolist()
    order = table.group.order
    tol = 0 if table.exact else 1e-8 * max(order, 1)
    for i in range(len(X)):
        for j in range(i, len(X)):
            s = sum(z * a * conj(b) for z, a, b in zip(sizes, X[i], X[j]))
            if abs(s - (order if i == j else 0)) > tol:
                return f"row orthogonality fails for irreps ({i},{j})"
    for k in range(len(sizes)):
        for l in range(k, len(sizes)):
            s = sum(row[k] * conj(row[l]) for row in X)
            if abs(s - (Fraction(order, sizes[k]) if k == l else 0)) > tol:
                return f"column orthogonality fails for classes ({k},{l})"
    return None


def _row_reduce(A, b):
    """Return (A', b') with A' of full row rank, or None if inconsistent."""
    m = len(A)
    n = len(A[0])
    M = [[Fraction(v) for v in row] + [Fraction(rhs)]
         for row, rhs in zip(A, b)]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(m):
            if i != r and M[i][col] != 0:
                f = M[i][col] / M[r][col]
                M[i] = [a - f * c for a, c in zip(M[i], M[r])]
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if M[i][n] != 0:
            return None
    return [row[:n] for row in M[:r]], [row[n] for row in M[:r]]


def brute_force_lp(c, A, b):
    """Oracle for max c.x, Ax=b, x>=0 over rationals.

    Returns (status, value): enumerate all basic feasible solutions for
    the feasibility/optimum, and all basis-direction extreme rays for
    unboundedness.
    """
    c = [Fraction(v) for v in c]
    reduced = _row_reduce(A, b)
    if reduced is None:
        return "infeasible", None
    A, b = reduced
    m, n = len(A), len(c)
    if m == 0:
        if any(cj > 0 for cj in c):
            return "unbounded", None
        return "optimal", Fraction(0)
    best = None
    bases = []
    for B in combinations(range(n), m):
        AB = [[A[i][j] for j in B] for i in range(m)]
        xB = solve_square(AB, b)
        if xB is None:
            continue
        bases.append((B, AB))
        if all(x >= 0 for x in xB):
            val = sum(c[j] * x for j, x in zip(B, xB))
            if best is None or val > best:
                best = val
    if best is None:
        return "infeasible", None
    for B, AB in bases:
        for j in range(n):
            if j in B:
                continue
            col = [A[i][j] for i in range(m)]
            d = solve_square(AB, col)
            ray = [-v for v in d]
            if all(v >= 0 for v in ray):
                gain = c[j] + sum(c[B[i]] * ray[i] for i in range(m))
                if gain > 0:
                    return "unbounded", None
    return "optimal", best


def inverse_closed_set(group, size, seed):
    """A seeded inverse-closed, identity-free set of exactly size elements.

    Raises ValueError as soon as the elements not yet chosen cannot fill
    the gap, since every later draw would be refused.  The check draws
    nothing, so every seed that finishes gives the set it gave without
    the check."""
    rng = random.Random(seed)
    inverse = group.inverses().tolist()
    chosen = set()
    while len(chosen) < size:
        free = [x for x in range(1, group.order) if x not in chosen]
        involutions = sum(inverse[x] == x for x in free)
        pairs = (len(free) - involutions) // 2
        gap = size - len(chosen)
        if gap - 2 * min(pairs, gap // 2) > involutions:
            raise ValueError(f"no inverse-closed set of size {size} "
                             f"contains {sorted(chosen)}")
        x = rng.randrange(1, group.order)
        pair = {x, inverse[x]}
        if len(chosen | pair) <= size:
            chosen |= pair
    return sorted(chosen)


def edge_list(graph) -> list:
    """The edges (u, v), u < v, of a graph, in row-major order."""
    us, vs = np.nonzero(np.triu(graph.adjacency, 1))
    return list(zip(us.tolist(), vs.tolist()))


def bitmasks(graph) -> tuple:
    """The neighbours of each vertex as a Python int, bit u for vertex u:
    the graph format the package once stored."""
    return tuple(int.from_bytes(row.tobytes(), "little") for row in
                 np.packbits(graph.adjacency, axis=1, bitorder="little"))


def brute_force_alpha(graph) -> int:
    """Maximum independent set by plain recursion on bitmask candidates."""
    adj = bitmasks(graph)
    n = graph.vertex_count

    def rec(candidates):
        if not candidates:
            return 0
        v = (candidates & -candidates).bit_length() - 1
        rest = candidates & ~(1 << v)
        with_v = 1 + rec(rest & ~adj[v])
        without_v = rec(rest)
        return max(with_v, without_v)

    return rec((1 << n) - 1)


def reference_export_sdpa(instance, path):
    """SDPA sparse format written one entry line at a time, with one
    repr per value, read row by row from the instance's columns: the
    bytes ``theta.export_sdpa`` must reproduce."""
    rows = zip(*(getattr(instance, name).tolist()
                 for name in ("k", "block", "i", "j")),
               instance.values[instance.code].tolist())
    with open(path, "w") as fh:
        fh.write('"convention: maximize <F0,Y> subject to <Fk,Y> = c_k, '
                 'Y block-diagonal PSD"\n')
        fh.write(f"{len(instance.rhs)}\n{len(instance.block_sizes)}\n")
        fh.write(" ".join(str(s) for s in instance.block_sizes) + "\n")
        fh.write(" ".join(repr(c) for c in instance.rhs.tolist()) + "\n")
        for k, b, i, j, v in rows:
            fh.write(f"{k} {b} {i} {j} {v!r}\n")


def reference_row_key(row, exact):
    """Sign- and scale-normalized key of one LP row, one entry at a time;
    None for a zero row.  An exact row's key is the primitive integer
    row with its first nonzero entry positive.  A float row is divided
    by its largest |a|, negated when its first entry above 1e-12 is
    negative, and rounded by round(v, 12)."""
    if exact:
        L = lcm(*(v.denominator for v in row))
        ints = [v.numerator * (L // v.denominator) for v in row]
        g = gcd(*ints)
        if g == 0:
            return None
        if next(v for v in ints if v) < 0:
            g = -g
        return tuple(v // g for v in ints)
    scale = max(abs(v) for v in row)
    if scale < 1e-12:
        return None
    lead = next(v for v in row if abs(v) > 1e-12)
    return tuple(round(v / scale * (1 if lead > 0 else -1), 12) for v in row)


def reference_build_sdp_C(spec, irreps):
    """Formulation (C) one kept element and one matrix entry at a time:
    the instance ``theta.build_sdp_C`` must equal.  A complex irrep of
    degree d > 1 takes the real embedding E(M) = [[Re M, -Im M],
    [Im M, Re M]] of pi(x) and of i pi(x), with coefficient d / 2; any
    other irrep takes Re pi(x), and a 1x1 one Im pi(x) too, with
    coefficient d.  Each part gives the entries of coeff * (P + P^T) / 2
    above 1e-12 in its upper triangle; a row is kept when it is not
    empty and no earlier row has its positions and ``reference_row_key``."""
    group = spec.group
    degrees = irreps.degrees
    mats = [list(stack) for stack in irreps.matrices]
    complex_ = [d > 1 and max(abs(m.imag).max() for m in ms) >= 1e-10
                for d, ms in zip(degrees, mats)]
    sizes = tuple(2 * d if c else d for d, c in zip(degrees, complex_))
    trivial = next(i for i, d in enumerate(degrees) if d == 1 and
                   all(abs(complex(m[0, 0]) - 1) < 1e-8 for m in mats[i]))
    coeffs = [d / 2 if c else float(d) for d, c in zip(degrees, complex_)]
    matrices = [[(trivial + 1, 1, 1, 1.0)],
                [(i + 1, k, k, coeffs[i]) for i, size in enumerate(sizes)
                 for k in range(1, size + 1)]]
    rhs = [float(group.order)]

    def embed(m):
        return np.block([[m.real, -m.imag], [m.imag, m.real]])

    kept = []
    for x in spec.connection.elements:
        if min(x, invert(group, x)) not in kept:
            kept.append(min(x, invert(group, x)))
    seen = set()
    for x in kept:
        rows = ([], [])
        for i, d in enumerate(degrees):
            m = mats[i][x]
            parts = ((embed(m), embed(1j * m)) if complex_[i] else
                     (m.real, m.imag) if d == 1 else (m.real,))
            for entries, part in zip(rows, parts):
                for a in range(sizes[i]):
                    for b in range(a, sizes[i]):
                        v = (part[a, b] + part[b, a]) / 2 * coeffs[i]
                        if abs(v) > 1e-12:
                            entries.append((i + 1, a + 1, b + 1, float(v)))
        for entries in filter(None, rows):
            key = (tuple(e[:3] for e in entries),
                   reference_row_key([e[3] for e in entries], False))
            if key not in seen:
                seen.add(key)
                matrices.append(entries)
                rhs.append(0.0)
    return sdp_from_matrices(sizes, matrices, rhs)


def sdp_from_matrices(block_sizes, matrices, rhs) -> SdpInstance:
    """The instance whose matrix k (F0 first) has the (block, i, j,
    value) entries ``matrices[k]``."""
    entries = [e for m in matrices for e in m]
    index = np.array([e[:3] for e in entries], dtype=np.int64).reshape(-1, 3)
    k = np.repeat(np.arange(len(matrices)), [len(m) for m in matrices])
    bits, code = np.unique(np.array([e[3] for e in entries], dtype=float)
                           .view(np.int64), return_inverse=True)
    return SdpInstance(block_sizes, k, *index.T, bits.view(float), code,
                       rhs)


def reference_build_lp_D(spec, table):
    """The character LP built row by row: the normalization row, then for
    each kept class C (the smaller of C and its inverse class) the row
    d * chi(C) when exact, else its real and its imaginary part, each
    made by Python's int * complex product; a row is kept when its
    ``reference_row_key`` is not None and new."""
    inverse = spec.group.conjugacy_classes().inverse.tolist()
    kept = tuple(c for c in spec.connection.as_classes
                 if min(c, inverse[c]) == c)
    degrees = table.degrees
    exact = table.exact
    num = Fraction if exact else float
    rows = [[num(d * d) for d in degrees]]
    seen = {reference_row_key(rows[0], exact)}
    for c in kept:
        coeffs = [d * v for d, v in zip(degrees, table.entries[:, c].tolist())]
        if exact:
            candidates = [coeffs]
        else:
            cvals = [complex(v) for v in coeffs]
            candidates = [[v.real for v in cvals], [v.imag for v in cvals]]
        for row in candidates:
            key = reference_row_key(row, exact)
            if key is None or key in seen:
                continue
            seen.add(key)
            rows.append(row)
    objective = [num(0)] * len(degrees)
    objective[table.trivial_index] = num(1)
    instance = LpInstance(
        objective=tuple(objective), A=tuple(tuple(r) for r in rows),
        b=(num(spec.group.order),) + (num(0),) * (len(rows) - 1))
    return ThetaLp(instance=instance)


def perm_rank(perm) -> int:
    """Lehmer-code rank of a permutation of {0..n-1}, one entry at a
    time."""
    n = len(perm)
    elems = list(range(n))
    r = 0
    for i, v in enumerate(perm):
        j = elems.index(v)
        r += j * factorial(n - 1 - i)
        elems.pop(j)
    return r


def _encode(group, digits) -> int:
    """The index of an abelian-product element from its digits, each
    taken mod its modulus."""
    a = 0
    for x, m in zip(digits, group.moduli):
        a = a * m + x % m
    return a


def multiply(group, a, b) -> int:
    """a * b as a Python int: S_n composes the ``perm()`` tuples, the
    right factor first, an abelian product adds the digits, and any
    other group reads ``products`` of the two indices."""
    if isinstance(group, SymmetricGroup):
        p, q = group.perm(a), group.perm(b)
        return perm_rank(tuple(p[i] for i in q))
    if isinstance(group, AbelianProductGroup):
        return _encode(group, [x + y for x, y in
                               zip(group.decode(a), group.decode(b))])
    return int(group.products(a, b))


def invert(group, a) -> int:
    """a^-1 as a Python int: S_n inverts the ``perm()`` tuple, an abelian
    product negates the digits, and any other group reads ``invert``."""
    if isinstance(group, SymmetricGroup):
        p = group.perm(a)
        return perm_rank(tuple(p.index(i) for i in range(len(p))))
    if isinstance(group, AbelianProductGroup):
        return _encode(group, [-x for x in group.decode(a)])
    return int(group.invert(a))


def check_axioms(group):
    """Exhaustive group-axiom check through ``multiply``/``invert``: the
    order x order table is made by one ``multiply`` call per product,
    and the axioms are checked on it.  The witness is the first failure
    of the loops that call ``multiply`` for every product: g for the
    identity, then for the inverse, in element order; then (a, b, c) in
    lexicographic order for associativity."""
    n = group.order
    e = group.identity
    T = np.array([[multiply(group, a, b) for b in range(n)]
                  for a in range(n)], dtype=np.int64)
    inverses = np.array([invert(group, g) for g in range(n)], dtype=np.int64)
    elements = np.arange(n)
    no_identity = (T[e] != elements) | (T[:, e] != elements)
    bad = no_identity | (T[elements, inverses] != e)
    if bad.any():
        g = int(np.argmax(bad))
        raise NotAGroup("identity" if no_identity[g] else "inverse", (g,))
    for a in range(n):
        # (ab)c against a(bc) for every (b, c)
        bad = T[T[a]] != T[a][T]
        if bad.any():
            b, c = divmod(int(np.argmax(bad)), n)
            raise NotAGroup("associativity", (a, b, c))


def action_axiom_failures(group, table) -> list:
    """Every (g, h, p) with g.(h.p) != (gh).p, in lexicographic order:
    the exhaustive check of the action axiom, one ``multiply`` call per
    pair (g, h)."""
    points = range(len(table[0]))
    failures = []
    for g in range(group.order):
        for h in range(group.order):
            gh = multiply(group, g, h)
            failures.extend((g, h, p) for p in points
                            if table[g][table[h][p]] != table[gh][p])
    return failures


def cycle_type(perm) -> tuple:
    """Cycle type of a permutation as a weakly decreasing tuple, by
    following each cycle one point at a time."""
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


def reference_classes(group):
    """Conjugacy classes by the orbit sweep over single products: the
    orbit of the smallest unswept element, in the order of
    ``FiniteGroup.conjugacy_classes``.  Returns the lists of the class
    sizes, of the inverse class of each class and of the element label
    of each class's smallest member, and beside them the list of every
    element's class index."""
    remaining = set(range(group.order))
    member_lists = []
    while remaining:
        g = min(remaining)
        orbit = {multiply(group, multiply(group, h, g), invert(group, h))
                 for h in range(group.order)}
        remaining -= orbit
        member_lists.append(tuple(sorted(orbit)))
    class_of = [0] * group.order
    for idx, members in enumerate(member_lists):
        for m in members:
            class_of[m] = idx
    firsts = [members[0] for members in member_lists]
    classes = ([len(members) for members in member_lists],
               [class_of[invert(group, g)] for g in firsts],
               [group.element_label(g) for g in firsts])
    return classes, class_of


def matrix_product(field, A, B) -> tuple:
    """A B over F_q, one table lookup per term of each entry's sum."""
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = 0
            for k in range(n):
                s = field.add[s][field.mul[A[i][k]][B[k][j]]]
            row.append(int(s))
        out.append(tuple(row))
    return tuple(out)


def shift_rank(field, A) -> int:
    """rank(A - I) over F_q from |ker(A - I)| = q^(n - rank): count the
    vectors v with A v = v."""
    n, q = len(A), field.q
    fixed = 0
    for v in product(range(q), repeat=n):
        image = []
        for i in range(n):
            s = 0
            for k in range(n):
                s = field.add[s][field.mul[A[i][k]][v[k]]]
            image.append(int(s))
        fixed += image == list(v)
    nullity = 0
    while q ** nullity < fixed:
        nullity += 1
    assert q ** nullity == fixed
    return n - nullity


def gl_pointwise_stabilizer(group, k: int) -> list:
    """Indices of the matrices of GL(n, q) fixing the first k standard
    basis vectors; an explicit independent set in Cay(GL, X_{q,n,k})."""
    columns = group.matrices[:, :, :k]
    fixed = columns == np.eye(group.n, dtype=np.int64)[:, :k]
    return np.flatnonzero(fixed.all(axis=(1, 2))).tolist()


CONVOLUTION_BOUND = 5000


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f * g)(gamma) = sum_beta f(beta) g(beta^-1 gamma)."""
    if not same_group(f.group, g.group):
        raise InvalidArgument("convolution needs a shared group")
    group = f.group
    if group.order > CONVOLUTION_BOUND:
        raise InvalidArgument(
            f"direct convolution limited to order {CONVOLUTION_BOUND}")
    inv = group.inverses()
    out = []
    for gamma in range(group.order):
        s = sum(fv * g.values[c] for fv, c in
                zip(f.values, group.products(inv, gamma).tolist()))
        out.append(s)
    return GroupFunction(group, tuple(out))


def involute(f: GroupFunction) -> GroupFunction:
    """f^*(gamma) = conj(f(gamma^-1))."""
    group = f.group
    return GroupFunction(group, tuple(
        conj(f.values[invert(group, g)]) for g in range(group.order)))


def group_matrix(f) -> list:
    """The |G| x |G| matrix M(beta, gamma) = f(beta * gamma^-1); f is of
    positive type iff M is positive semidefinite."""
    if isinstance(f, ClassFunction):
        group = f.group
        values = [f.values[idx] for idx in group.class_of().tolist()]
    else:
        group = f.group
        values = list(f.values)
    inv = group.inverses()
    return [[values[i] for i in group.products(b, inv).tolist()]
            for b in range(group.order)]


def exact_psd(M):
    """Decide positive semidefiniteness of a symmetric rational matrix.

    Returns (True, None) or (False, witness) where the witness is a
    nonpositive quantity certifying failure (a negative diagonal entry,
    or a negative Schur-complement pivot).  Uses symmetric pivoting:
    a PSD matrix with a zero diagonal entry must have the whole row zero,
    which lets elimination proceed on positive pivots only.
    """
    n = len(M)
    A = [[Fraction(v) for v in row] for row in M]
    active = list(range(n))
    while active:
        pivot = None
        for i in active:
            d = A[i][i]
            if d < 0:
                return False, d
            if d > 0:
                pivot = i
                break
        if pivot is None:
            # all active diagonal entries are zero: rows must vanish
            for i in active:
                for j in active:
                    if A[i][j] != 0:
                        # 2x2 principal minor [[0, a], [a, d]] has det -a^2 < 0
                        return False, -A[i][j] * A[i][j]
            return True, None
        active.remove(pivot)
        d = A[pivot][pivot]
        for i in active:
            f = A[i][pivot] / d
            if f == 0:
                continue
            for j in active:
                A[i][j] -= f * A[pivot][j]
    return True, None


def mn_character_reference(lam: tuple, mu: tuple) -> int:
    """Independent unmemoized recomputation of chi_lambda(mu).

    Border strips are enumerated directly on the Young diagram: a strip
    spanning rows i..j forces row r (i <= r < j) down to lam[r+1]-1
    cells, and the remaining strip cells land in row j.
    """
    if not mu:
        return 1 if not lam else 0
    k = mu[0]
    ell = len(lam)
    lam_pad = lam + (0,)
    total = 0
    for i in range(ell):
        for j in range(i, ell):
            nu = list(lam)
            cells = 0
            ok = True
            for r in range(i, j):
                nu[r] = lam_pad[r + 1] - 1
                if nu[r] < 0:
                    ok = False
                    break
                cells += lam[r] - nu[r]
            if not ok or cells >= k:
                continue
            rest = k - cells
            nu_j = lam[j] - rest
            if nu_j < lam_pad[j + 1] or nu_j < 0:
                continue
            nu[j] = nu_j
            smaller = tuple(x for x in nu if x > 0)
            total += (-1) ** (j - i) * mn_character_reference(smaller, mu[1:])
    return total


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
    return GroupAction(group, tuple(elements))
