"""Independent oracles used by the test suite.

These deliberately share no code with the solvers they check: the LP
oracle enumerates basic feasible solutions and extreme rays, the
reference simplex is the plain two-phase Bland solver over ``Fraction``
that the package's integer kernel must reproduce pivot for pivot when it
starts cold, the reference abelian table computes one ``cmath.exp`` per
entry and the reference Fourier scalars one product per entry, the
independence-number oracle is a plain subset recursion, the group
oracles use only the single-product ``multiply``/``invert`` that the
array kernels (``products``/``inverses``) must agree with, the PSD test
is symmetric elimination over ``Fraction`` on the group matrix (the
direct check of Bochner's criterion), the convolution is the defining
sum, the character oracle walks border strips on the Young diagram
instead of beta-sets, and the GL(n, q) oracles multiply matrices by the
defining triple loop over the field tables and read rank(A - I) off the
number of vectors that A fixes, with no elimination.
"""

import cmath
from fractions import Fraction
from itertools import combinations, product

from cayley_theta.characters import ClassFunction, GroupFunction, conj
from cayley_theta.errors import InvalidArgument, NotAGroup
from cayley_theta.groups import ConjugacyClass, same_group


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

    Returns (status, x, objective_value, dual, basis) with the same
    pivots and the same tie-breaks as the cold start of
    ``cayley_theta.simplex.solve`` in exact mode; the non-optimal
    statuses carry None in the other fields.
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
    keep_rows = list(range(m))
    i = 0
    while i < len(T):
        if basis[i] >= n:
            col = next((j for j in range(n)
                        if T[i][j] != 0 and j not in basis), None)
            if col is None:
                del T[i], basis[i], keep_rows[i]
                continue
            _pivot(T, basis, i, col)
        i += 1
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


def reference_fourier_scalars(f, table):
    """c_pi = (1/d_pi) sum_C |C| f(C) chi_pi(C), one scalar product at a
    time, summed left to right from 0."""
    out = []
    for row, d in zip(table.entries.tolist(), table.degrees):
        s = 0
        for c, fv, chi in zip(table.classes, f.values, row):
            s += c.size * fv * chi
        out.append(Fraction(s) / d if isinstance(s, (int, Fraction))
                   else complex(s) / d)
    return tuple(out)


def first_orthogonality_failure(table):
    """The message ``CharacterTable.validate`` gives for the first pair
    that fails row or column orthogonality, found by the scalar double
    loops over Python numbers (tolerance 0 when exact); None if none."""
    X = table.entries.tolist()
    sizes = [c.size for c in table.classes]
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


def brute_force_alpha(graph) -> int:
    """Maximum independent set by plain recursion on bitmask candidates."""
    adj = graph.adj
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


def check_axioms(group):
    """Exhaustive group-axiom check through ``multiply``/``invert``;
    O(order^3), for small groups."""
    n = group.order
    e = group.identity
    for g in range(n):
        if group.multiply(e, g) != g or group.multiply(g, e) != g:
            raise NotAGroup("identity", (g,))
        if group.multiply(g, group.invert(g)) != e:
            raise NotAGroup("inverse", (g,))
    for a in range(n):
        for b in range(n):
            ab = group.multiply(a, b)
            for c in range(n):
                if group.multiply(ab, c) != \
                        group.multiply(a, group.multiply(b, c)):
                    raise NotAGroup("associativity", (a, b, c))


def reference_classes(group):
    """Conjugacy classes by the orbit sweep over single products: the
    orbit of the smallest unswept element, in the order and layout of
    ``FiniteGroup.conjugacy_classes``."""
    remaining = set(range(group.order))
    member_lists = []
    while remaining:
        g = min(remaining)
        orbit = {group.multiply(group.multiply(h, g), group.invert(h))
                 for h in range(group.order)}
        remaining -= orbit
        member_lists.append(tuple(sorted(orbit)))
    class_of = {m: idx for idx, members in enumerate(member_lists)
                for m in members}
    return tuple(
        ConjugacyClass(representative=members[0], size=len(members),
                       label=group.element_label(members[0]),
                       inverse_class=class_of[group.invert(members[0])],
                       members=members)
        for members in member_lists)


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
        conj(f.values[group.invert(g)]) for g in range(group.order)))


def group_matrix(f) -> list:
    """The |G| x |G| matrix M(beta, gamma) = f(beta * gamma^-1); f is of
    positive type iff M is positive semidefinite."""
    if isinstance(f, ClassFunction):
        group = f.group
        values = [f.at_element(g) for g in range(group.order)]
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
