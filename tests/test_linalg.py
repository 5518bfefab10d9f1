import math
import random
from fractions import Fraction

import numpy as np

from cayley_theta import linalg
from cayley_theta.linalg import solve_square

from oracles import exact_psd, solve_square as reference_solve_square


def random_symmetric(rng, n, lo=-3, hi=3):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(lo, hi), rng.randint(1, 2))
            M[i][j] = M[j][i] = v
    return M


def test_solve_square_known():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = solve_square(A, [Fraction(3), Fraction(5)])
    assert x == [Fraction(4, 5), Fraction(7, 5)]
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve_square(singular, [Fraction(1), Fraction(1)]) is None


def test_solve_square_matches_fraction_oracle():
    rng = random.Random(3)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        A = [[Fraction(rng.randint(-50, 50), rng.randint(1, 60))
              for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            A[-1] = [a + b for a, b in zip(A[0], A[1 % (n - 1)])]
        b = [Fraction(rng.randint(-50, 50), rng.randint(1, 60))
             for _ in range(n)]
        x = solve_square(A, b)
        assert x == reference_solve_square(A, b)
        singular += x is None
    assert singular > 10


def count_primes(monkeypatch):
    """The list of the primes ``solve_square`` reduces modulo, filled as
    it runs."""
    primes = []
    solve_mod = linalg._solve_mod

    def counted(S, p):
        primes.append(p)
        return solve_mod(S, p)
    monkeypatch.setattr(linalg, "_solve_mod", counted)
    return primes


def test_solve_square_answer_needing_several_primes(monkeypatch):
    """x = 1 / (2^40 + 1) has a 41-bit denominator: reconstruction needs
    a modulus above 2^81, so three 31-bit primes."""
    primes = count_primes(monkeypatch)
    A = [[Fraction(2**40 + 1), Fraction(3)], [Fraction(0), Fraction(1)]]
    b = [Fraction(1), Fraction(0)]
    assert solve_square(A, b) == [Fraction(1, 2**40 + 1), 0]
    assert primes == [2**31 - 1, 2147483629, 2147483587]


def test_solve_square_singular_mod_the_first_prime(monkeypatch):
    """det = p^2 for p = 2^31 - 1: singular mod p, not over Q; the next
    prime solves it."""
    primes = count_primes(monkeypatch)
    p = 2**31 - 1
    A = [[Fraction(p), Fraction(1)], [Fraction(0), Fraction(p)]]
    b = [Fraction(1), Fraction(1)]
    x = solve_square(A, b)
    assert x == reference_solve_square(A, b) == [Fraction(p - 1, p * p),
                                                 Fraction(1, p)]
    assert primes[:2] == [p, 2147483629]


def test_solve_square_singular_by_the_hadamard_bound(monkeypatch):
    """A singular system with 100-bit entries: singular mod every prime,
    and None once the product of those primes passes the Hadamard bound
    H of the augmented rows, here the product of the primes taken up to
    the first one above H."""
    primes = count_primes(monkeypatch)
    a, c = 3**63, 5**43
    A = [[Fraction(a), Fraction(c)], [Fraction(2 * a), Fraction(2 * c)]]
    b = [Fraction(1), Fraction(7)]
    assert solve_square(A, b) is None
    H = math.isqrt((a * a + c * c + 1) * (4 * a * a + 4 * c * c + 49)) + 1
    assert math.prod(primes) > H >= math.prod(primes[:-1])
    assert len(primes) == 7


def test_exact_psd_known():
    ok, _ = exact_psd([[Fraction(2), Fraction(-1)],
                       [Fraction(-1), Fraction(2)]])
    assert ok
    ok, witness = exact_psd([[Fraction(1), Fraction(2)],
                             [Fraction(2), Fraction(1)]])
    assert not ok
    assert witness is not None
    # zero matrix and rank-one Gram matrix are both PSD
    assert exact_psd([[Fraction(0)] * 2 for _ in range(2)])[0]
    assert exact_psd([[Fraction(1), Fraction(2)],
                      [Fraction(2), Fraction(4)]])[0]


def test_exact_psd_fuzz_against_numpy():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        M = random_symmetric(rng, n)
        ok, _ = exact_psd(M)
        eig = np.linalg.eigvalsh(np.array(M, dtype=float)).min()
        if eig > 1e-9:
            assert ok
        elif eig < -1e-9:
            assert not ok
        # near-zero eigenvalues: the float oracle is ambiguous, skip


def test_exact_psd_witness_is_negative():
    rng = random.Random(23)
    hits = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        M = random_symmetric(rng, n)
        ok, witness = exact_psd(M)
        if not ok:
            assert witness < 0
            hits += 1
    assert hits > 10
