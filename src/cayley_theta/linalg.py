"""Small dense linear algebra over exact rationals.

Inputs are lists of lists of Fraction (or int).  ``solve_square`` scales
each equation to integers and eliminates fraction-free (``eliminate``,
which the exact simplex's cold start shares), so it takes no gcd until
it builds the solution.  ``exact_sums`` is the one kernel of exact
vector-matrix sums, for the character sums and the simplex's proof.
Floating-point linear algebra goes through numpy, not this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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
    weight, a divisor or a term is one, else an int.  None when the
    matrix or a weight is not rational: such sums take the complex
    path."""
    if matrix.dtype != object or not all(map(is_exact, weights)):
        return None
    L = lcm(*(w.denominator for w in weights))
    sums = (np.array([scaled(w, L) for w in weights], dtype=object)
            @ matrix).tolist()
    if divisors is None:
        if not any(isinstance(w, Fraction) for w in weights):
            return sums
        divisors = (1,) * len(sums)
    return [Fraction(s, L * d) for s, d in zip(sums, divisors)]


def eliminate(M, row, col, D):
    """Fraction-free pivot of the integer matrix M / D on (row, col), in
    place; returns the new denominator p = M[row][col].  Every other row
    becomes (M[i] * p - M[i][col] * M[row]) / D, an exact division when
    D is the previous pivot (Bareiss); the pivot row is unchanged."""
    pr = M[row]
    p = pr[col]
    for i, r in enumerate(M):
        if i == row:
            continue
        f = r[col]
        if f:
            M[i] = [(a * p - f * c) // D for a, c in zip(r, pr)]
        elif p != D:
            M[i] = [a * p // D for a in r]
    return p


def solve_square(A, b):
    """Solve A x = b for square rational A; return None if A is singular.

    Each equation is scaled to integers by the lcm of its own
    denominators (the solution is unique, so any row scaling is safe),
    then eliminated by fraction-free Gauss-Jordan (``eliminate``); the
    last pivot is the common denominator of the solution.
    """
    n = len(A)
    M = []
    for row, bi in zip(A, b):
        vals = list(row) + [bi]
        L = lcm(*(v.denominator for v in vals))
        M.append([scaled(v, L) for v in vals])
    D = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        D = eliminate(M, col, col, D)
    return [Fraction(M[r][n], D) for r in range(n)]
