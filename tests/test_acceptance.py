"""Acceptance suite: ten end-to-end criteria, each printing a single
PASS/FAIL line (run with -s to see them).  Tolerances are pinned in the
individual tests; exact-mode comparisons use equality of rationals."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from cayley_theta.apps import (efp_conjectured_max, efp_connection, efp_table,
                               gl_connection, gl_lower_bound)
from cayley_theta.characters import (ClassFunction, GroupFunction,
                                     abelian_character_table,
                                     export_character_table,
                                     import_character_table, is_positive_type,
                                     mn_character, as_float_table,
                                     symmetric_character_table)
from cayley_theta.graphs import (ConnectionSet, Graph, alpha,
                                 blowup_connection, build_cayley)
from cayley_theta.groups import (GroupAction, make_abelian_product,
                                 make_general_linear, make_symmetric,
                                 partitions)
from cayley_theta.simplex import LpInstance, solve, verify_certificate
from cayley_theta.theta import (CayleyGraphSpec, build_sdp_A, export_sdpa,
                                extract_matrix_solution, read_sdpa,
                                solve_theta, symmetrize_matrix)

from oracles import (action_from_generators, brute_force_lp, edge_list,
                     exact_psd, group_matrix, mn_character_reference)


def report(criterion: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}")
    assert ok, criterion


BLANKS = {(7, 3): Fraction(360, 11), (7, 4): Fraction(102, 11),
          (8, 4): Fraction(87, 2), (8, 5): Fraction(39, 4)}


def test_criterion_01_theta_table_n_to_8():
    """Exact theta for all 1 <= k <= n <= 8 reproduces the known
    check/blank pattern, with the four strict gaps pinned exactly."""
    cells = efp_table(8)
    ok = True
    for c in cells:
        ok &= c.exact
        theta = Fraction(c.theta)
        if (c.n, c.k) in BLANKS:
            ok &= not c.checkmark
            ok &= theta == BLANKS[(c.n, c.k)]
            ok &= theta > c.conjectured_max
        else:
            ok &= c.checkmark and theta == c.conjectured_max
            if c.n >= 2 * c.k + 1:
                ok &= theta == math.factorial(c.n - c.k)
    report("criterion 1: exact theta grid n<=8 matches the known "
           "check/blank pattern with pinned gap values", ok)


def test_criterion_02_alpha_equals_theta_derangements():
    """alpha = theta = (n-1)! for the derangement graphs, n = 3, 4."""
    ok = True
    for n in (3, 4):
        sn = make_symmetric(n)
        spec = CayleyGraphSpec(sn, efp_connection(n, 1, sn))
        cert = solve_theta(spec, symmetric_character_table(n))
        a = alpha(build_cayley(sn, spec.connection)).value
        ok &= cert.exact
        ok &= Fraction(cert.objective) == a == math.factorial(n - 1)
    report("criterion 2: alpha = theta = (n-1)! for derangement graphs "
           "on S3 and S4", ok)


def test_criterion_03_gl_alpha_and_theta():
    """GL analogues: alpha meets the stabilizer lower bound, and theta of
    GL(2,F2) with an imported character table is 2 within 1e-6."""
    ok = True
    for (q, n, k) in ((2, 2, 1), (3, 2, 1)):
        group = make_general_linear(q, n)
        g = build_cayley(group, gl_connection(q, n, k, group))
        ok &= alpha(g).value == gl_lower_bound(q, n, k)
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s3.json")
        export_character_table(symmetric_character_table(3), path)
        gl = make_general_linear(2, 2)
        table = as_float_table(import_character_table(path, gl))
        spec = CayleyGraphSpec(gl, gl_connection(2, 2, 1, gl))
        cert = solve_theta(spec, table)
        ok &= not cert.exact
        ok &= abs(float(cert.objective) - 2.0) < 1e-6
    report("criterion 3: GL alpha values 2 and 6, and float theta 2 via "
           "an imported character table (tol 1e-6)", ok)


def test_criterion_04_cycle5_float_theta():
    """theta(C5) = sqrt(5) to 1e-6 in float mode."""
    z5 = make_abelian_product([5])
    spec = CayleyGraphSpec(z5, ConnectionSet.from_elements(z5, [1, 4]))
    cert = solve_theta(spec, abelian_character_table(z5))
    ok = abs(float(cert.objective) - 2.2360680) < 1e-6
    report("criterion 4: float theta of the 5-cycle is 2.2360680 "
           "(tol 1e-6)", ok)


def test_criterion_05_bochner_fuzz():
    """Bochner test agrees with direct PSD checks of the group matrix:
    1000 exact class functions on S4 and 1000 float functions on Z12,
    zero disagreements (float tolerance 1e-8, margin 1e-6)."""
    rng = random.Random(20240817)
    s4 = make_symmetric(4)
    table4 = symmetric_character_table(4)
    disagreements = 0
    for _ in range(1000):
        f = ClassFunction(s4, tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(5)))
        direct, _ = exact_psd(group_matrix(f))
        if bool(is_positive_type(f, table4)) != direct:
            disagreements += 1
    z12 = make_abelian_product([12])
    table12 = abelian_character_table(z12)
    for _ in range(1000):
        f = GroupFunction(z12, tuple(float(rng.randint(-5, 5))
                                     for _ in range(12)))
        eig = np.linalg.eigvalsh(
            np.array(group_matrix(f), dtype=float)).min()
        if abs(eig) < 1e-6:
            continue    # numerically on the PSD boundary: not decisive
        if bool(is_positive_type(f, table12, tol=1e-8)) != (eig > 0):
            disagreements += 1
    report("criterion 5: 2000 Bochner fuzz cases (S4 exact, Z12 float) "
           "with zero disagreements", disagreements == 0)


def test_criterion_06_character_tables():
    """Character tables of S_n validate for n <= 8 (orthogonality and
    sum of squared degrees); entries for n <= 5 match an independent
    rim-hook evaluation, zero mismatches."""
    ok = True
    for n in range(1, 9):
        table = symmetric_character_table(n)
        table.validate()
        ok &= sum(d * d for d in table.degrees) == math.factorial(n)
    mismatches = 0
    for n in range(1, 6):
        for lam in partitions(n):
            for mu in partitions(n):
                if mn_character(lam, mu) != mn_character_reference(lam, mu):
                    mismatches += 1
    report("criterion 6: S_n character tables validate for n<=8 and "
           "match the independent evaluator for n<=5", ok and mismatches == 0)


def test_criterion_07_lp_solver_fuzz():
    """200 random exact LPs agree with a basic-solution enumeration
    oracle on status and optimum; optima carry verified certificates."""
    rng = random.Random(777)
    mismatches = 0
    for _ in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        A = tuple(tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
                  for _ in range(m))
        b = tuple(Fraction(rng.randint(-4, 4)) for _ in range(m))
        c = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        inst = LpInstance(objective=c, A=A, b=b)
        sol = solve(inst)
        status, value = brute_force_lp(c, A, b)
        if sol.status != status:
            mismatches += 1
        elif status == "optimal" and (sol.objective_value != value or
                                      not verify_certificate(inst, sol)):
            mismatches += 1
    report("criterion 7: 200 random exact LPs match the enumeration "
           "oracle with zero mismatches", mismatches == 0)


def test_criterion_08_blowup_identity():
    """alpha(G).|Gamma| = |V|.alpha(Cay(Gamma, X)) for three actions:
    Z5 and the dihedral group on the 5-cycle, S5 on the Petersen graph."""
    ok = True
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    z5 = make_abelian_product([5])
    reg = GroupAction(z5, z5.products(np.arange(5)[:, None], np.arange(5)))
    for action in (reg, action_from_generators([[1, 2, 3, 4, 0],
                                                [0, 4, 3, 2, 1]])):
        X = blowup_connection(action, c5)
        cay = build_cayley(action.group, X)
        ok &= alpha(c5).value * action.group.order == \
            5 * alpha(cay).value

    pairs = list(itertools.combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    petersen = Graph.from_edges(10, [
        (i, j) for i, a in enumerate(pairs) for j, b in enumerate(pairs)
        if i < j and not set(a) & set(b)])

    def induced(perm):
        return [idx[tuple(sorted((perm[a], perm[b])))] for (a, b) in pairs]

    action = action_from_generators([induced([1, 0, 2, 3, 4]),
                                     induced([1, 2, 3, 4, 0])])
    ok &= action.group.order == 120
    X = blowup_connection(action, petersen)
    cay = build_cayley(action.group, X)
    ok &= alpha(petersen).value * 120 == 10 * alpha(cay).value
    report("criterion 8: blowup identity holds for Z5/C5, dihedral/C5 "
           "and the order-120 action on Petersen", ok)


def test_criterion_09_certificate_roundtrip():
    """For every exact test instance of order <= 24 the LP certificate
    lifts to a matrix solution: PSD, trace 1, zero on edges, entry sum
    equal to theta, and symmetrize-then-extract is a fixed point."""
    cases = []
    for n, k in ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
        sn = make_symmetric(n)
        cases.append((CayleyGraphSpec(sn, efp_connection(n, k, sn)),
                      symmetric_character_table(n)))
    k4 = make_abelian_product([2, 2])
    cases.append((CayleyGraphSpec(
        k4, ConnectionSet.from_elements(k4, [1, 2])),
        abelian_character_table(k4)))
    ok = True
    for spec, table in cases:
        cert = solve_theta(spec, table)
        ok &= cert.exact
        A = extract_matrix_solution(cert)
        order = spec.group.order
        psd, _ = exact_psd(A)
        ok &= psd
        ok &= sum(A[i][i] for i in range(order)) == 1
        ok &= sum(sum(row) for row in A) == cert.objective
        g = build_cayley(spec.group, spec.connection)
        ok &= all(A[u][v] == 0 for (u, v) in edge_list(g))
        f = symmetrize_matrix(A, spec.group)
        class_of = spec.group.class_of()
        ok &= all(f.values[gamma] == cert.f.values[class_of[gamma]]
                  for gamma in range(order))
    report("criterion 9: certificates lift to exact PSD matrix solutions "
           "for all six order<=24 instances", ok)


def test_criterion_10_sdpa_export(tmp_path):
    """Formulation (A) exports: C5 gives one 5-block with 1+5 constraints,
    the S3 derangement graph one 6-block with 1+6; both files re-read
    identically."""
    z5 = make_abelian_product([5])
    spec5 = CayleyGraphSpec(z5, ConnectionSet.from_elements(z5, [1, 4]))
    sdp5 = build_sdp_A(spec5)
    ok = sdp5.block_sizes == (5,) and len(sdp5.constraints) == 6

    s3 = make_symmetric(3)
    spec3 = CayleyGraphSpec(s3, efp_connection(3, 1, s3))
    sdp3 = build_sdp_A(spec3)
    ok &= sdp3.block_sizes == (6,) and len(sdp3.constraints) == 7

    for name, sdp in (("c5.dat-s", sdp5), ("s3.dat-s", sdp3)):
        path = tmp_path / name
        export_sdpa(sdp, path)
        ok &= read_sdpa(path) == sdp
    report("criterion 10: SDPA exports have the documented block "
           "structure and round-trip byte-identically", ok)
