"""Small dense linear algebra over exact rationals.

``solve_square`` solves a square rational system modulo word-size
primes and proves the answer exactly (Dixon 1982; Wang, Guy and
Davenport 1982).  Each equation is scaled to integers by the lcm of its
own denominators, giving S = [A' | b'].  For each prime p, downwards
from 2^31 - 1, S is reduced by Gauss-Jordan on one int64 array mod p
(a product of two residues is below 2^62).  The residues of the
solution are combined by the Chinese remainder theorem, and rational
reconstruction makes a candidate u / D from them, with one common
denominator D, after 1, 2, 4, 8, ... primes at which A' is regular.
It is accepted only if A' u = D b' holds exactly (one product of
Python ints); since A' had full rank mod p, it is nonsingular and
u / D is its one solution.  By Cramer's rule every
numerator and denominator of the solution is at most H, the Hadamard
bound (the product of the norms of the rows of S), so reconstruction
succeeds once the product of the primes passes 2 H^2.  A prime at which
A' is singular divides det A'; once the product of such primes passes
H, det A' = 0 and the system is singular.

``exact_sums`` is the one kernel of exact vector-matrix sums, for the
character sums and the simplex's proof.
Floating-point linear algebra goes through numpy, not this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import isqrt, lcm, prod
from typing import Optional

import numpy as np


def is_exact(v) -> bool:
    return isinstance(v, (Fraction, int))


def scaled(v, L):
    """The integer v * L, for a rational v whose denominator divides L."""
    return v.numerator * (L // v.denominator)


def exact_sums(weights, matrix, divisors=None) -> Optional[list]:
    """sum_k weights[k] * matrix[k, j] for every column j of a rational
    (dtype object) matrix, divided by divisors[j] when they are given.

    The weights are scaled to integers by the lcm L of their
    denominators, once; the sums are one numpy product of that vector of
    Python ints, which cannot overflow, with the matrix; each sum is
    divided by L (times its divisor) once, at the end.  A result has the
    value and the type of the scalar sum from 0: a Fraction when a
    weight, a divisor or a term is one, else an int.  When every result
    is a Fraction (a weight or a divisor is one), the rows of zero
    weights, which add nothing, are left out of the product; otherwise
    a zero weight times a Fraction entry still makes its sum a Fraction.
    None when the matrix or a weight is not rational: such sums take
    the complex path."""
    if matrix.dtype != object or not all(map(is_exact, weights)):
        return None
    fractions = divisors is not None or any(
        isinstance(w, Fraction) for w in weights)
    if fractions:
        live = [k for k, w in enumerate(weights) if w]
        weights, matrix = [weights[k] for k in live], matrix[live]
    L = lcm(*(w.denominator for w in weights))
    sums = (np.array([scaled(w, L) for w in weights], dtype=object)
            @ matrix).tolist()
    if not fractions:
        return sums
    divisors = (1,) * len(sums) if divisors is None else divisors
    return [Fraction(s, L * d) for s, d in zip(sums, divisors)]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd 61 < n < 4,759,123,141 (bases
    2, 7 and 61)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# primes downwards from 2^31 - 1, found as solves first need them
_primes = []


def _prime(k: int) -> int:
    """The k-th prime downwards from 2^31 - 1 (k = 0 is 2^31 - 1)."""
    while len(_primes) <= k:
        p = (_primes[-1] if _primes else (1 << 31) + 1) - 2
        while not _is_prime(p):
            p -= 2
        _primes.append(p)
    return _primes[k]


def _solve_mod(S, p):
    """The solution of the integer system S = [A | b] mod p as an int64
    array, by Gauss-Jordan on S mod p; None if A is singular mod p."""
    M = (S % p).astype(np.int64)
    n = len(M)
    for col in range(n):
        # the residues are >= 0, so the largest is nonzero unless all are
        pivot = col + int(M[col:, col].argmax())
        if not M[pivot, col]:
            return None
        row = M[pivot] * pow(int(M[pivot, col]), -1, p) % p
        M[pivot] = M[col]
        M -= M[:, col, None] * row
        M %= p
        M[col] = row
    return M[:, n]


def _denominator(t, m, bound):
    """The denominator d of the fraction a / d with a = d t mod m,
    |a| <= bound and 0 < d <= bound, by the half extended Euclidean
    algorithm; None if the remainders leave the bounds first.  When
    2 bound^2 < m there is at most one such fraction in lowest terms,
    and this finds it (Wang, Guy and Davenport 1982)."""
    r0, r1, s0, s1 = m, t, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return abs(s1) if 0 < abs(s1) <= bound else None


def _candidate(residues, P):
    """Integers u and D > 0 with u = D x mod P for the residues x mod P,
    D the product of the denominators that rational reconstruction
    finds one residue at a time, and u the symmetric residues; None if
    a reconstruction fails."""
    bound = isqrt((P - 1) // 2)
    D = 1
    for r in residues:
        t = D * r % P
        if min(t, P - t) > bound:
            d = _denominator(t, P, bound)
            if d is None:
                return None
            D *= d
    return [t if t <= P // 2 else t - P
            for t in (D * r % P for r in residues)], D


def solve_square(A, b):
    """Solve A x = b for square rational A; return the list of Fractions
    x, or None if A is singular.

    Modular (see the module docstring): one Gauss-Jordan mod p per prime
    (``_solve_mod``), CRT, then rational reconstruction (``_candidate``)
    after 1, 2, 4, 8, ... primes at which A is regular, until a
    candidate passes the exact check, or until the primes at which A is
    singular multiply past the Hadamard bound.  Reconstruction fails
    until P is large enough, and a failed try costs about as much as
    one elimination; trying only at doubled counts bounds the failed
    tries by log2 of the primes needed, for at most twice the primes.
    """
    n = len(A)
    rows = []
    for row, bi in zip(A, b):
        vals = list(row) + [bi]
        L = lcm(*(v.denominator for v in vals))
        rows.append([scaled(v, L) for v in vals])
    S = np.array(rows, dtype=object).reshape(n, n + 1)
    # x mod P, the product of the first ``good`` primes at which A' is
    # regular; the product Z of the primes at which it is singular; the
    # Hadamard bound H, made when Z is first compared with it
    residues, P, good, Z, H = [0] * n, 1, 0, 1, None
    for k in count():
        p = _prime(k)
        xp = _solve_mod(S, p)
        if xp is None:
            Z *= p
            if H is None:
                H = isqrt(prod(sum(v * v for v in row) for row in rows)) + 1
            if Z > H:
                return None
            continue
        # CRT: the residue mod P * p that is residues mod P and xp mod p
        t = pow(P, -1, p)
        residues = [r + P * ((x - r) * t % p)
                    for r, x in zip(residues, xp.tolist())]
        P *= p
        good += 1
        if good & (good - 1):
            continue
        candidate = _candidate(residues, P)
        if candidate is None:
            continue
        u, D = candidate
        if (S[:, :n] @ np.array(u, dtype=object) == D * S[:, n]).all():
            return [Fraction(v, D) for v in u]
