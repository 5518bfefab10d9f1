import random
from fractions import Fraction

import numpy as np

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
        n = rng.randint(1, 6)
        A = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6))
              for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            A[-1] = [a + b for a, b in zip(A[0], A[1 % (n - 1)])]
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 6))
             for _ in range(n)]
        x = solve_square(A, b)
        assert x == reference_solve_square(A, b)
        singular += x is None
    assert singular > 10


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
