import hashlib
import json
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cayley_theta import characters, groups, simplex, theta
from cayley_theta.apps import efp_connection
from cayley_theta.cli import cli_dispatch
from cayley_theta.characters import (CharacterTable, IrrepMatrices,
                                     abelian_character_table,
                                     abelian_irreps, as_float_table,
                                     symmetric_character_table)
from cayley_theta.errors import InvalidArgument, WrongFormulation
from cayley_theta.graphs import ConnectionSet, alpha, build_cayley
from cayley_theta.groups import (TableGroup, make_abelian_product,
                                 make_symmetric, perm_unrank)
from cayley_theta.simplex import LpSolution, verify_certificate
from cayley_theta.theta import (CayleyGraphSpec, SdpInstance,
                                build_lp_D, build_sdp_A, build_sdp_C,
                                certificate_to_json, export_sdpa,
                                extract_matrix_solution, read_sdpa,
                                solve_theta, symmetrize_matrix,
                                validate_certificate)

from oracles import (edge_list, exact_psd, inverse_closed_set,
                     reference_build_lp_D, reference_build_sdp_C,
                     reference_export_sdpa, reference_row_key,
                     sdp_from_matrices)


def s3_spec():
    s3 = make_symmetric(3)
    # connection set: the class of 3-cycles (the derangements of S3)
    return CayleyGraphSpec(s3, ConnectionSet.from_classes(s3, [2]))


def s3_irreps():
    """Explicit real unitary irreps of S3: sign, standard, trivial."""
    s3 = make_symmetric(3)
    u = np.array([[1 / math.sqrt(2), -1 / math.sqrt(2), 0],
                  [1 / math.sqrt(6), 1 / math.sqrt(6), -2 / math.sqrt(6)]])
    sign_m, std_m, triv_m = [], [], []
    for g in range(6):
        p = perm_unrank(g, 3)
        P = np.zeros((3, 3))
        for k in range(3):
            P[p[k], k] = 1
        sgn = np.linalg.det(P)
        sign_m.append(np.array([[complex(round(sgn))]]))
        std_m.append((u @ P @ u.T).astype(complex))
        triv_m.append(np.array([[1.0 + 0j]]))
    return IrrepMatrices(s3, (tuple(sign_m), tuple(std_m), tuple(triv_m)))


def z3_s3_irreps():
    """Z_3 x S_3 as a table group, (a, g) at 6a + g, with the irreps
    chi_j (x) rho, j-major, rho from ``s3_irreps``: for j = 1, 2 the
    standard irrep becomes complex of degree 2."""
    s3, rhos = make_symmetric(3), s3_irreps()
    a, g = np.divmod(np.arange(18), 6)
    group = TableGroup(6 * ((a[:, None] + a) % 3) +
                       s3.products(g[:, None], g))
    mats = []
    for j in range(3):
        chi = np.exp(2j * np.pi * j * a / 3)
        for rho in rhos.matrices:
            mats.append(tuple(chi[x] * rho[g[x]] for x in range(18)))
    return IrrepMatrices(group, tuple(mats))


def _corrupted(irreps, irrep, elements, factor=np.exp(0.5j)):
    """The irreps with the matrices of some elements of one irrep scaled
    by factor; a phase keeps them unitary but breaks the homomorphism."""
    mats = [list(m) for m in irreps.matrices]
    for element in elements:
        mats[irrep][element] = mats[irrep][element] * factor
    return replace(irreps, matrices=tuple(tuple(m) for m in mats))


@pytest.mark.parametrize("moduli, irrep, element, pair", [
    (None, 1, 4, "(1,2)"),          # S_3, the degree-2 irrep; 1 * 2 = 4
    ((12,), 5, 7, "(6,1)"),         # generator 1
    ((101,), 3, 40, "(39,1)"),      # generator 1
    ((5, 13), 20, 33, "(20,13)"),   # generators 1 and 13: 20 + 13 = 33
])
def test_irrep_validate_reports_first_failing_pair(moduli, irrep, element,
                                                   pair, monkeypatch):
    """A corrupted matrix is reported at the first pair (a, g), a an
    element and g a generator, in the order of a, then g, whatever the
    block size.  Two matrices scaled by 2 are reported as not unitary at
    the first of them, as the one-element-at-a-time check did, also when
    the blocks are tiny."""
    if moduli is None:
        irreps = s3_irreps()
    else:
        irreps = abelian_irreps(abelian_character_table(
            make_abelian_product(moduli)))
    irreps.validate()
    last = irreps.group.order - 1
    # 48 bytes: blocks of 3 matrices of degree 1, one of higher degrees
    for size in (groups.BLOCK_BYTES, 48):
        monkeypatch.setattr(groups, "BLOCK_BYTES", size)
        with pytest.raises(InvalidArgument) as exc:
            _corrupted(irreps, irrep, [element]).validate()
        assert str(exc.value) == \
            f"irrep {irrep}: homomorphism fails at {pair}"
        with pytest.raises(InvalidArgument) as exc:
            _corrupted(irreps, irrep, [last, element], 2.0).validate()
        assert str(exc.value) == f"irrep {irrep}: pi({element}) not unitary"


def test_irrep_validate_checks_every_element():
    """Z_1999 with pi(39) of irrep 1 negated, still unitary: element 39
    lay in none of the 2000 seeded pairs once checked above order 60, and
    passed.  Every element is now checked against the generator 1."""
    irreps = abelian_irreps(abelian_character_table(
        make_abelian_product([1999])))
    irreps.validate()
    mats = list(irreps.matrices)
    mats[1] = mats[1].copy()
    mats[1][39] *= -1
    with pytest.raises(InvalidArgument) as exc:
        replace(irreps, matrices=tuple(mats)).validate()
    assert str(exc.value) == "irrep 1: homomorphism fails at (38,1)"


def test_s3_exact_theta():
    spec = s3_spec()
    table = symmetric_character_table(3)
    cert = solve_theta(spec, table)
    assert cert.exact
    assert cert.objective == 2
    # multiplicities in (sign, standard, trivial) order
    assert cert.a == (Fraction(0), Fraction(1), Fraction(2))
    assert validate_certificate(cert) == []
    # matches the independence number of this 6-vertex graph
    assert alpha(build_cayley(spec.group, spec.connection)).value == 2


def test_lp_D_shape_s3():
    lp = build_lp_D(s3_spec(), symmetric_character_table(3))
    assert lp.instance.n == 3
    assert lp.instance.b[0] == 6
    assert lp.instance.A.tolist() == [[1, 4, 1], [1, -2, 1]]


def test_lp_D_keeps_exact_rows_equal_only_in_doubles():
    """Duplicate rows are found by exact ratios: columns (1, 10^17, 5, 7)
    and (1, 10^17 + 1, 5, 7) round to the same doubles but both stay,
    and a true duplicate of the first is dropped."""
    group = make_abelian_product([2, 2])
    big = 10 ** 17
    table = CharacterTable(
        group=group, degrees=(1, 1, 1, 1),
        entries=[[1, 1, 1, 1], [1, big, big + 1, big], [1, 5, 5, 5],
                 [1, 7, 7, 7]],
        irrep_labels=tuple("abcd"), trivial_index=0)
    spec = CayleyGraphSpec(group, ConnectionSet.from_elements(group,
                                                              [1, 2, 3]))
    lp = build_lp_D(spec, table)
    assert lp.instance.A.tolist() == [[1, 1, 1, 1], [1, big, 5, 7],
                                      [1, big + 1, 5, 7]]


def test_lp_D_merges_exact_rows_up_to_a_rational_multiple():
    """Exact rows are keyed as primitive integer rows with a positive
    first entry: a row -3/2 times a kept one is dropped, and so is a
    zero row."""
    group = make_abelian_product([2, 2])
    table = CharacterTable(
        group=group, degrees=(1, 1, 1, 1),
        entries=[[1, 2, -3, 0], [1, Fraction(4, 3), -2, 0],
                 [1, -6, 9, 0], [1, Fraction(5, 7), Fraction(-15, 14), 0]],
        irrep_labels=tuple("abcd"), trivial_index=0)
    spec = CayleyGraphSpec(group, ConnectionSet.from_elements(group,
                                                              [1, 2, 3]))
    lp = build_lp_D(spec, table)
    assert lp.instance.m == 2
    assert lp.instance.A[1].tolist() == [2, Fraction(4, 3), -6,
                                         Fraction(5, 7)]


def _lp_bits(lp):
    """All that build_lp_D returns: float rows as bytes (signed zeros
    included), and every value by repr, which shows exact types (of the
    lists, as numpy elides the middle of a large array's repr)."""
    instance = lp.instance
    rows = None if instance.exact else instance.A.tobytes()
    return (rows, instance.A.dtype,
            *(repr(X.tolist()) for X in (instance.A, instance.b,
                                         instance.objective)))


@pytest.mark.parametrize("n", range(3, 11))
def test_lp_D_matches_reference_on_efp(n):
    """Every efp:k LP on S_n, exact and float, is the LP that the
    row-by-row build with one round() per entry makes."""
    table = symmetric_character_table(n)
    for k in range(1, n + 1):
        spec = CayleyGraphSpec(table.group, efp_connection(n, k, table.group))
        for t in (table, as_float_table(table)):
            assert _lp_bits(build_lp_D(spec, t)) == \
                _lp_bits(reference_build_lp_D(spec, t))


def test_lp_D_matches_reference_on_abelian_sets():
    """The benchmark's Z_701 and Z_2^7 LPs, and seeded inverse-closed
    sets on abelian groups with exact and float tables."""
    z701 = make_abelian_product((701,))
    z2_7 = make_abelian_product((2,) * 7)
    cases = [(z701, Z701_SETS[0]), (z701, Z701_SETS[1]), (z2_7, Z2_7_SET)]
    cases = [(CayleyGraphSpec(g, ConnectionSet.from_classes(g, classes)),
              abelian_character_table(g)) for g, classes in cases]
    for moduli, size, seed in (((12,), 6, 0), ((3, 5, 7), 20, 1),
                               ((4, 6), 9, 2), ((2,) * 5, 11, 3),
                               ((211,), 40, 4), ((2, 4, 8), 24, 5),
                               ((2,) * 4, 7, 6)):
        group = make_abelian_product(moduli)
        table = abelian_character_table(group)
        spec = CayleyGraphSpec(group, ConnectionSet.from_elements(
            group, inverse_closed_set(group, size, seed)))
        cases += [(spec, table)]
        if table.exact:
            cases += [(spec, as_float_table(table))]
    assert [t.exact for _, t in cases].count(True) == 3
    for spec, table in cases:
        assert _lp_bits(build_lp_D(spec, table)) == \
            _lp_bits(reference_build_lp_D(spec, table))


def test_lp_D_float_duplicate_rows():
    """A hand-built float table whose columns are the LP rows: rows
    1e-14 apart merge and rows 1e-9 apart stay; all-zero Im rows and
    zero columns go; a row whose first entry is below ROW_DROP_TOL takes
    its sign from the first entry above it, so it merges with its
    negative, whose rounded row differs from its own only in the signs
    of its zeros."""
    group = make_abelian_product((2, 2, 2))
    base = np.array([0.25, 0.5, -0.75, 1.0, 0.3, -0.2, 0.1, 0.6])
    small = np.array([1e-13, -1.0, 2.0, 0.5, 0.25, 0.0, 0.0, 0.0])
    columns = [np.ones(8), base, base + 1e-14 * (np.arange(8) == 4),
               base + 1e-9 * (np.arange(8) == 4), small,
               -small + 2e-13 * (np.arange(8) == 0), -3j * base,
               np.zeros(8)]
    table = CharacterTable(
        group=group, degrees=(1,) * 8,
        entries=np.array(columns, dtype=complex).T,
        irrep_labels=tuple("abcdefgh"), trivial_index=7)
    spec = CayleyGraphSpec(group, ConnectionSet.from_elements(
        group, range(1, 8)))
    lp = build_lp_D(spec, table)
    assert lp.instance.m == 4
    assert _lp_bits(lp) == _lp_bits(reference_build_lp_D(spec, table))


def test_lp_D_float_rows_keep_the_zeros_of_python_products():
    """Row entries are Re and Im of d * chi as Python multiplies an int
    by a complex, d + 0j times chi: a -0.0 real part times d, minus 0.0
    times a negative imaginary part, is 0.0, not -0.0."""
    group = make_abelian_product((2, 2))
    column = [complex(-0.0, -1.0), complex(2.0, -0.0), complex(1.0, 1.0),
              complex(-0.0, 0.5)]
    table = CharacterTable(
        group=group, degrees=(1, 1, 1, 1),
        entries=np.array([np.ones(4), column, np.ones(4), np.ones(4)],
                         dtype=complex).T,
        irrep_labels=tuple("abcd"), trivial_index=0)
    spec = CayleyGraphSpec(group, ConnectionSet.from_elements(group, [1]))
    lp = build_lp_D(spec, table)
    A = lp.instance.A
    assert [repr(v) for v in A[1].tolist() + A[2].tolist()] == [
        "0.0", "2.0", "1.0", "-0.0", "-1.0", "0.0", "1.0", "0.5"]
    assert _lp_bits(lp) == _lp_bits(reference_build_lp_D(spec, table))


def test_float_row_keys_are_the_rounded_rows():
    """The array key is, entry for entry, round(v / scale * sign, 12) with
    -0.0 read as 0.0, also where v * 1e12 in doubles is a half that the
    exact product is not (or the other way round); a row with nothing
    above ROW_DROP_TOL has no key."""
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(300, 9))
    rows[::7] *= 1e-13
    rows[::5, 0] = 1e-13
    rows[::3, 1:4] = -0.0
    # near halves of the last decimal, on rows whose largest |a| is 1
    halves = (rng.integers(0, 10**12, size=(100, 8)) + 0.5) / 1e12
    halves = np.nextafter(halves,
                          halves + rng.integers(-1, 2, size=(100, 8)))
    rows[200:, 0], rows[200:, 1:] = -1.0, halves
    keys = theta._float_row_keys(rows)
    assert keys[0] is None and keys[1] is not None
    for row, key in zip(rows, keys):
        want = reference_row_key(row.tolist(), False)
        if want is None:
            assert key is None
        else:
            assert key == (np.array(want) + 0.0).tobytes()


def test_wrong_formulation_raises():
    s3 = make_symmetric(3)
    t = next(g for g in range(6) if s3.perm(g) == (1, 0, 2))
    spec = CayleyGraphSpec(s3, ConnectionSet.from_elements(s3, [t]))
    with pytest.raises(WrongFormulation):
        build_lp_D(spec, symmetric_character_table(3))


def test_cycle_5_float_theta():
    z5 = make_abelian_product([5])
    spec = CayleyGraphSpec(z5, ConnectionSet.from_elements(z5, [1, 4]))
    cert = solve_theta(spec, abelian_character_table(z5))
    assert not cert.exact
    assert abs(cert.objective - math.sqrt(5)) < 1e-9
    assert validate_certificate(cert) == []


def test_cycle_7_float_theta():
    z7 = make_abelian_product([7])
    spec = CayleyGraphSpec(z7, ConnectionSet.from_elements(z7, [1, 6]))
    cert = solve_theta(spec, abelian_character_table(z7))
    c = math.cos(math.pi / 7)
    assert abs(cert.objective - 7 * c / (1 + c)) < 1e-9


def test_non_finite_certificates_fail_validation():
    """A certificate whose a, f and objective are NaN, or +inf, fails
    validate_certificate and the Bochner test, by characters or by
    irreducible matrices; every check asks that a value lie within
    tolerance (a NaN certificate of the Z_7 cycle, and a NaN function on
    S_3, passed when they asked for a miss by more than it)."""
    z7 = make_abelian_product([7])
    spec = CayleyGraphSpec(z7, ConnectionSet.from_elements(z7, [1, 6]))
    table = abelian_character_table(z7)
    cert = solve_theta(spec, table)
    assert validate_certificate(cert) == []
    irreps = s3_irreps()
    for v in (math.nan, math.inf):
        bad = replace(cert, a=(v,) * len(cert.a), objective=v,
                      f=characters.ClassFunction(z7, (v,) * z7.order))
        # inf * 0 in the Fourier sums warns, as numpy does
        with np.errstate(invalid="ignore"):
            assert "normalization sum d^2 a != |Gamma|" in \
                validate_certificate(bad)
            assert not characters.is_positive_type(bad.f, table)
            assert not characters.is_positive_type(
                characters.GroupFunction(irreps.group, (v,) * 6), irreps)


def test_klein_four_cycle_exact():
    # Cay(Z2 x Z2, {(0,1),(1,0)}) is the 4-cycle: theta = alpha = 2
    k4 = make_abelian_product([2, 2])
    spec = CayleyGraphSpec(k4, ConnectionSet.from_elements(k4, [1, 2]))
    cert = solve_theta(spec, abelian_character_table(k4))
    assert cert.exact
    assert cert.objective == 2


def test_theta_bounds_alpha():
    # theta is sandwiched: alpha <= theta for several Cayley graphs
    for n, cls in ((4, [1]), (4, [3]), (5, [1]), (5, [2])):
        sn = make_symmetric(n)
        spec = CayleyGraphSpec(sn, ConnectionSet.from_classes(sn, cls))
        cert = solve_theta(spec, symmetric_character_table(n))
        if sn.order <= 200:
            a = alpha(build_cayley(sn, spec.connection)).value
            assert Fraction(a) <= cert.objective


def test_certificate_matrix_roundtrip():
    spec = s3_spec()
    cert = solve_theta(spec, symmetric_character_table(3))
    A = extract_matrix_solution(cert)
    order = spec.group.order
    # PSD, trace 1, entry sum = theta, zero on edges
    ok, _ = exact_psd(A)
    assert ok
    assert sum(A[i][i] for i in range(order)) == 1
    assert sum(sum(row) for row in A) == cert.objective
    g = build_cayley(spec.group, spec.connection)
    for (u, v) in edge_list(g):
        assert A[u][v] == 0
    # symmetrization is a fixed point and recovers f
    f = symmetrize_matrix(A, spec.group)
    class_of = spec.group.class_of()
    for gamma in range(order):
        assert f.values[gamma] == cert.f.values[class_of[gamma]]


def test_exact_s8_certificates_pinned():
    """Exact certificate JSON of S_8 efp:1..8, byte for byte; the sha256
    was pinned from the Fraction-based simplex the integer kernel
    replaced."""
    table = symmetric_character_table(8)
    docs = [certificate_to_json(solve_theta(CayleyGraphSpec(
        table.group, efp_connection(8, k, table.group)), table))
        for k in range(1, 9)]
    digest = hashlib.sha256("\n".join(docs).encode()).hexdigest()
    assert digest == \
        "f83490bf1ca652bdcf20ab4408841e0e3ec458bdda884896b452d15fed193550"


def test_float_s8_certificates_pinned_and_near_exact():
    """Float certificate JSON of S_8 efp:1..8 through as_float_table, byte
    for byte (the float simplex and every float sum are deterministic),
    and each float theta within 1e-9 relative of the exact one."""
    table = symmetric_character_table(8)
    ftable = as_float_table(table)
    docs = []
    for k in range(1, 9):
        spec = CayleyGraphSpec(table.group,
                               efp_connection(8, k, table.group))
        exact = solve_theta(spec, table).objective
        cert = solve_theta(spec, ftable)
        assert abs(cert.objective - exact) <= 1e-9 * exact
        docs.append(certificate_to_json(cert))
    digest = hashlib.sha256("\n".join(docs).encode()).hexdigest()
    assert digest == \
        "450149954a5147616c9c22041a5cf7cadd2a29d0f92ea9a4ed800685dfb0d131"


def test_float_s10_certificates_pinned():
    """Float certificate JSON of S_10 efp:1..10 through as_float_table
    (the float cells of the benchmark's efp_grid), byte for byte; the
    sha256 was pinned from the sums over every irrep and class that the
    zero-weight skip and the real Bochner product replaced."""
    table = symmetric_character_table(10)
    ftable = as_float_table(table)
    docs = [certificate_to_json(solve_theta(CayleyGraphSpec(
        table.group, efp_connection(10, k, table.group)), ftable))
        for k in range(1, 11)]
    digest = hashlib.sha256("\n".join(docs).encode()).hexdigest()
    assert digest == \
        "c40cbf2525dadcd7f3886607fac1aae2a7dc29d7dff69ee122271d4cfde94f95"


# the connection sets of the benchmark's abelian_wide workload on Z_701
Z701_SETS = ((1, 700), (208, 210, 289, 323, 328, 350, 351, 373, 378, 412,
                        491, 493))


@pytest.mark.parametrize("moduli, classes, digest", [
    ((701,), Z701_SETS[0],
     "eae17640cd6ed1514345d25697c3c3377b1f10bc44e151bceaa9e91d1d89267f"),
    ((701,), Z701_SETS[1],
     "6e4c1c3b9435542d237f95c8258e47c0327dd750c33b760de95ec546bd68af37"),
    ((3, 5, 7), (7, 28, 35, 43, 70, 104),
     "ba879f843935c30ff50fd46d578a92533db6f8b075f0970cfc9262ad5d3a5a19"),
], ids=["z701-cycle", "z701-12-classes", "z3xz5xz7"])
def test_float_abelian_certificates_pinned(moduli, classes, digest):
    """Float certificate JSON on abelian groups, byte for byte, and the
    LP certificate behind it passes verify_certificate at its default
    tolerance (the 12-class Z_701 set failed it before the float simplex
    was equilibrated)."""
    group = make_abelian_product(moduli)
    spec = CayleyGraphSpec(group, ConnectionSet.from_classes(group, classes))
    table = abelian_character_table(group)
    cert = solve_theta(spec, table)
    assert hashlib.sha256(
        certificate_to_json(cert).encode()).hexdigest() == digest
    _assert_lp_certified(spec, table, cert)


# the exact connection set of the benchmark's abelian_wide workload
Z2_7_SET = (6, 34, 50, 52, 54, 63, 66, 98, 109, 114, 118, 124)


def test_exact_abelian_certificate_pinned():
    """Exact certificate JSON of the 12-class set on Z_2^7, byte for
    byte; the sha256 was pinned from the per-entry Fraction sums that
    the integer product over a common denominator replaced."""
    group = make_abelian_product((2,) * 7)
    spec = CayleyGraphSpec(group,
                           ConnectionSet.from_classes(group, Z2_7_SET))
    table = abelian_character_table(group)
    cert = solve_theta(spec, table)
    assert cert.exact and cert.objective == 32
    assert hashlib.sha256(certificate_to_json(cert).encode()).hexdigest() \
        == "54b14b91b59d0f67e26b3d7858a28d1314f0c65dab17fdf36fd1187705f01cfd"
    _assert_lp_certified(spec, table, cert)


def test_exact_efp_and_abelian_lps_are_proved_from_the_float_basis(
        monkeypatch):
    """Every exact efp:k LP on S_3-S_10, the Z_2^7 LP above, and seeded
    class sets on S_5-S_9 and Z_2^2-Z_2^7 are proved optimal at the
    float basis: none reaches the phase-I LP of the exact fallback."""
    def fallback(instance):
        raise AssertionError("exact fallback reached")
    monkeypatch.setattr(simplex, "_phase_one", fallback)
    rng = random.Random(16)
    specs = []
    for n in range(3, 11):
        table = symmetric_character_table(n)
        group = table.group
        specs += [(CayleyGraphSpec(group, efp_connection(n, k, group)),
                   table) for k in range(1, n + 1)]
        if n in range(5, 10):
            c = len(group.conjugacy_classes())
            specs += [(CayleyGraphSpec(group, ConnectionSet.from_classes(
                group, rng.sample(range(1, c), rng.randint(1, c - 1)))),
                table) for _ in range(20)]
    for k in range(2, 8):
        group = make_abelian_product((2,) * k)
        table = abelian_character_table(group)
        specs += [(CayleyGraphSpec(group, ConnectionSet.from_classes(
            group, rng.sample(range(1, group.order),
                              rng.randint(1, group.order - 1)))), table)
            for _ in range(10)]
    group = make_abelian_product((2,) * 7)
    specs.append((CayleyGraphSpec(
        group, ConnectionSet.from_classes(group, Z2_7_SET)),
        abelian_character_table(group)))
    for spec, table in specs:
        assert simplex.solve(build_lp_D(spec, table).instance).status == \
            "optimal"


def _assert_lp_certified(spec, table, cert):
    claim = LpSolution(status="optimal", x=cert.a,
                       objective_value=cert.objective, dual=cert.dual)
    assert verify_certificate(build_lp_D(spec, table).instance, claim)


# exact theta of Cay(S_n, efp:k), k = 1..n, as first computed by an
# exact two-phase Bland simplex from the artificial basis
EFP_THETA = {
    9: (40320, 5040, 720, Fraction(864, 5), Fraction(560, 11), 11, 2, 1, 1),
    10: (362880, 40320, 5040, Fraction(20629080, 27727), 210, 56, 12, 2, 1,
         1),
}


@pytest.mark.parametrize("n", [9, 10])
def test_efp_theta_s9_s10_exact_and_float(n):
    """Exact theta of S_9 and S_10 efp:k equals the pinned value, and the
    float theta is certified and within 1e-9 relative of it (the Bland
    kernel in doubles failed S_9 k = 5 and S_10 k = 2-6, 9, 10)."""
    table = symmetric_character_table(n)
    ftable = as_float_table(table)
    for k, want in enumerate(EFP_THETA[n], start=1):
        spec = CayleyGraphSpec(table.group,
                               efp_connection(n, k, table.group))
        assert solve_theta(spec, table).objective == want
        cert = solve_theta(spec, ftable)
        assert abs(cert.objective - want) <= 1e-9 * want
        _assert_lp_certified(spec, ftable, cert)


def test_validate_certificate_exact_means_tolerance_zero():
    table = symmetric_character_table(4)
    spec = CayleyGraphSpec(table.group, efp_connection(4, 2, table.group))
    cert = solve_theta(spec, table)
    nudged = replace(cert, objective=cert.objective + Fraction(1, 10**12))
    assert validate_certificate(nudged) == [
        "sum of f != objective", "objective != trivial coefficient"]
    fcert = solve_theta(spec, as_float_table(table))
    assert validate_certificate(
        replace(fcert, objective=fcert.objective + 1e-12)) == []


def test_validate_certificate_rechecks_each_connection_class_exactly():
    """A coefficient moved by 10^-12 breaks the constraint of exactly the
    connection classes where its character is nonzero; f and the other
    invariants are left as they were."""
    s5 = symmetric_character_table(5)
    z2_7 = abelian_character_table(make_abelian_product((2,) * 7))
    for table, connection in (
            (s5, efp_connection(5, 2, s5.group)),
            (z2_7, ConnectionSet.from_classes(z2_7.group, Z2_7_SET))):
        cert = solve_theta(CayleyGraphSpec(table.group, connection), table)
        # an irrep that vanishes on some connection class, where one exists
        j = next((j for j in range(len(table.degrees))
                  if j != table.trivial_index and
                  not all(table.entries[j, c]
                          for c in connection.as_classes)), 1)
        a = list(cert.a)
        a[j] += Fraction(1, 10**12)
        assert validate_certificate(replace(cert, a=tuple(a))) == (
            ["normalization sum d^2 a != |Gamma|"] +
            [f"constraint violated on connection class {c}"
             for c in connection.as_classes if table.entries[j, c]])


def test_symmetrize_exact_means_tolerance_zero():
    spec = s3_spec()
    A = [list(row) for row in extract_matrix_solution(
        solve_theta(spec, symmetric_character_table(3)))]
    floats = [[float(v) for v in row] for row in A]
    A[0][1] += Fraction(1, 10**12)
    with pytest.raises(InvalidArgument, match="not Hermitian"):
        symmetrize_matrix(A, spec.group)
    floats[0][1] += 1e-12
    symmetrize_matrix(floats, spec.group)


def test_certificate_json():
    cert = solve_theta(s3_spec(), symmetric_character_table(3))
    data = json.loads(certificate_to_json(cert))
    assert data["exact"] is True
    assert Fraction(data["theta"]) == cert.objective


def test_build_sdp_A_structure(tmp_path):
    z5 = make_abelian_product([5])
    spec = CayleyGraphSpec(z5, ConnectionSet.from_elements(z5, [1, 4]))
    sdp = build_sdp_A(spec)
    assert sdp.block_sizes == (5,)
    assert len(sdp.constraints) == 1 + 5       # trace + one per edge

    spec3 = s3_spec()
    sdp3 = build_sdp_A(spec3)
    assert sdp3.block_sizes == (6,)
    assert len(sdp3.constraints) == 1 + 6

    path = tmp_path / "a.dat-s"
    export_sdpa(sdp3, path)
    back = read_sdpa(path)
    assert back == sdp3


def test_sdp_A_export_bytes_pinned(tmp_path):
    # S_4 with a seeded inverse-closed set that is not conjugation-closed;
    # sha256 of the file as written one entry line at a time
    s4 = make_symmetric(4)
    rng = random.Random(4)
    chosen = set()
    while len(chosen) < 8:
        x = rng.randrange(1, 24)
        pair = {x, s4.invert(x)}
        if len(chosen | pair) <= 8:
            chosen |= pair
    X = ConnectionSet.from_elements(s4, chosen)
    assert not X.conjugation_closed
    sdp = build_sdp_A(CayleyGraphSpec(s4, X))
    path = tmp_path / "s4.dat-s"
    export_sdpa(sdp, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "c10b439e49fe47b256c58f669407ce789459897bbfb4136da5b64c8fef8756f8"
    assert read_sdpa(path) == sdp


def test_build_sdp_C_s3(tmp_path):
    spec = s3_spec()
    sdp = build_sdp_C(spec, s3_irreps())
    assert sdp.block_sizes == (1, 2, 1)
    # normalization + one row for the single inverse-closed element pair
    assert len(sdp.constraints) == 2
    assert sdp.constraints[0][1] == 6.0
    path = tmp_path / "c.dat-s"
    export_sdpa(sdp, path)
    assert read_sdpa(path) == sdp


def test_build_sdp_C_z5_matches_lp_rows():
    z5 = make_abelian_product([5])
    spec = CayleyGraphSpec(z5, ConnectionSet.from_elements(z5, [1, 4]))
    table = abelian_character_table(z5)
    sdp = build_sdp_C(spec, abelian_irreps(table))
    assert sdp.block_sizes == (1, 1, 1, 1, 1)
    lp = build_lp_D(spec, table)
    assert len(sdp.constraints) == lp.instance.m


def test_sdp_C_works_for_non_closed_sets(tmp_path):
    # formulation (C) must accept connection sets that (D) rejects
    s3 = make_symmetric(3)
    t = next(g for g in range(6) if s3.perm(g) == (1, 0, 2))
    spec = CayleyGraphSpec(s3, ConnectionSet.from_elements(s3, [t]))
    sdp = build_sdp_C(spec, s3_irreps())
    assert len(sdp.constraints) >= 2
    path = tmp_path / "nc.dat-s"
    export_sdpa(sdp, path)
    assert read_sdpa(path) == sdp


def _exports_like_reference(sdp, tmp_path):
    """export_sdpa writes the reference writer's bytes, and the file reads
    back to the instance."""
    fast, slow = tmp_path / "fast.dat-s", tmp_path / "slow.dat-s"
    export_sdpa(sdp, fast)
    reference_export_sdpa(sdp, slow)
    assert fast.read_bytes() == slow.read_bytes()
    assert read_sdpa(fast) == sdp
    return fast.read_text()


def _s6_spec_120():
    """S_6 with the seeded inverse-closed set of 120 elements that the
    benchmark's seed 0 exports."""
    s6 = make_symmetric(6)
    X = ConnectionSet.from_elements(s6, inverse_closed_set(s6, 120, 0))
    assert not X.conjugation_closed
    return CayleyGraphSpec(s6, X)


def test_sdp_A_export_matches_reference_across_batches(tmp_path):
    sdp = build_sdp_A(_s6_spec_120())
    assert len(sdp.constraints) == 1 + 720 * 120 // 2
    # a batch of lines: BLOCK_BYTES of int32 k, block, i, j and float64
    # value columns, 24 bytes a line
    batch = groups.BLOCK_BYTES // 24
    assert len(sdp.k) > 4 * batch
    # row i = 8 of the objective crosses a batch boundary
    assert (sdp.k[batch - 1], sdp.i[batch - 1]) == \
        (sdp.k[batch], sdp.i[batch]) == (0, 8)
    _exports_like_reference(sdp, tmp_path)


def test_sdp_C_export_matches_reference(tmp_path):
    _exports_like_reference(build_sdp_C(s3_spec(), s3_irreps()), tmp_path)
    z5 = make_abelian_product([5])
    spec = CayleyGraphSpec(z5, ConnectionSet.from_elements(z5, [1, 4]))
    sdp = build_sdp_C(spec, abelian_irreps(abelian_character_table(z5)))
    _exports_like_reference(sdp, tmp_path)


def test_sdp_C_export_bytes_pinned(tmp_path):
    """Formulation (C) on Z_5 x Z_13 with a seeded inverse-closed set of
    30 elements, byte for byte; its rows are keyed like the LP's."""
    group = make_abelian_product((5, 13))
    spec = CayleyGraphSpec(group, ConnectionSet.from_elements(
        group, inverse_closed_set(group, 30, 1)))
    sdp = build_sdp_C(spec, abelian_irreps(abelian_character_table(group)))
    path = tmp_path / "c.dat-s"
    export_sdpa(sdp, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "1de782f08842d6655ce81b4e8afe3080091cfae64f395858df539091fe1322a5"


def test_sdp_C_and_bochner_on_complex_irreps_pinned(tmp_path):
    """Formulation (C) and the Bochner test on Z_3 x S_3, whose complex
    degree-2 irreps take the 2x2 real embedding (blocks of size 4).  The
    SDPA bytes over four seeded inverse-closed sets and one witness of
    a complex irrep are pinned from the element-by-element code.  The
    irreps are read-only stacks, and abelian irreps are views of the
    character table."""
    irreps = z3_s3_irreps()
    group = irreps.group
    digest = hashlib.sha256()
    for size, seed in [(4, 0), (7, 1), (10, 2), (13, 3)]:
        spec = CayleyGraphSpec(group, ConnectionSet.from_elements(
            group, inverse_closed_set(group, size, seed)))
        sdp = build_sdp_C(spec, irreps)
        assert sdp.block_sizes == (1, 2, 1, 1, 4, 1, 1, 4, 1)
        assert len(sdp.constraints) == size + 1
        path = tmp_path / f"c{seed}.dat-s"
        export_sdpa(sdp, path)
        digest.update(path.read_bytes())
    assert digest.hexdigest() == \
        "43ec2b3957565e761ad6043e843233abce724086a204dfc1b29c1897c5414f50"
    values = [0.0] * 18
    values[0] = 1.0
    for x in inverse_closed_set(group, 5, 3):
        values[x] = 0.5
    result = characters.is_positive_type(
        characters.GroupFunction(group, tuple(values)), irreps)
    assert (result.ok, result.irrep, result.witness) == \
        (False, 4, -0.3660254037844389)
    for d, stack in zip(irreps.degrees, irreps.matrices):
        assert stack.shape == (18, d, d) and not stack.flags.writeable
    table = abelian_character_table(make_abelian_product([3, 4]))
    for row, stack in zip(table.entries, abelian_irreps(table).matrices):
        assert np.shares_memory(stack, table.entries)
        assert stack.shape == (12, 1, 1) and not stack.flags.writeable
        assert (stack[:, 0, 0] == row).all()


@pytest.mark.parametrize("irreps", [
    z3_s3_irreps, s3_irreps,
    lambda: abelian_irreps(abelian_character_table(
        make_abelian_product([4, 6])))], ids=["z3xs3", "s3", "z4xz6"])
def test_build_sdp_C_matches_reference(irreps):
    """The per-irrep build equals the element-by-element one on seeded
    inverse-closed sets of twelve sizes."""
    irreps = irreps()
    group = irreps.group
    for seed in range(12):
        xs = random.Random(seed).sample(range(1, group.order),
                                        1 + seed % (group.order - 1))
        spec = CayleyGraphSpec(group, ConnectionSet.from_elements(
            group, xs + group.inverses()[xs].tolist()))
        assert build_sdp_C(spec, irreps) == \
            reference_build_sdp_C(spec, irreps)


def test_sdp_export_of_odd_values_matches_reference(tmp_path):
    """Several blocks; negative, subnormal and large values; 0.0 and -0.0
    as entries; a -0.0 right-hand side and a constraint with no
    entries."""
    sdp = sdp_from_matrices(
        (3, 1, 2),
        [[(1, 1, 1, 1.0), (1, 1, 3, -2.5), (2, 1, 1, 1e16)],
         [(1, 1, 1, 5e-324), (1, 1, 2, -0.0), (1, 2, 2, 0.0),
          (3, 1, 2, -1.7976931348623157e308)],
         [],
         [(3, 2, 2, 2.2250738585072014e-308), (3, 1, 1, 1e16),
          (2, 1, 1, -3.0000000000000004), (3, 1, 2, 0.1)]],
        [1.0, -0.0, 1.2345678901234567e20])
    assert len(sdp.constraints) == 3 and len(sdp.constraints[1][0]) == 0
    text = _exports_like_reference(sdp, tmp_path)
    assert text.splitlines()[1:5] == [
        "3", "3", "3 1 2", "1.0 -0.0 1.2345678901234567e+20"]
    assert "1 1 1 2 -0.0\n1 1 2 2 0.0\n" in text
    assert "0 2 1 1 1e+16\n" in text and "1 1 1 1 5e-324\n" in text


def test_sdp_export_of_a_wide_block(tmp_path):
    """Two entries in a block of 10^6 export like the reference, tracing
    less than 1 MiB: a table of a string per row of every block took
    5.2 s and a 156 MB peak."""
    sdp = sdp_from_matrices(
        (10 ** 6,), [[(1, 1, 1, 1.0)], [(1, 2, 10 ** 6, 0.5)]], [1.0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        export_sdpa(sdp, tmp_path / "wide.dat-s")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    _exports_like_reference(sdp, tmp_path)


def test_sdpa_round_trip_without_constraints(tmp_path):
    """An instance with no constraints has an empty right-hand-side line,
    which is read as that header line; it once read as a count
    mismatch."""
    sdp = sdp_from_matrices((2,), [[(1, 1, 1, 1.0)]], [])
    text = _exports_like_reference(sdp, tmp_path)
    assert text.splitlines()[1:6] == ["0", "1", "2", "", "0 1 1 1 1.0"]
    empty = sdp_from_matrices((1,), [[]], [])
    _exports_like_reference(empty, tmp_path)


def test_sdp_instance_views():
    z5 = make_abelian_product([5])
    sdp = build_sdp_A(CayleyGraphSpec(
        z5, ConnectionSet.from_elements(z5, [1, 4])))
    assert len(sdp.objective) == 15
    assert sdp.objective[0] == (1, 1, 1, 1.0)
    assert sdp.objective[-1] == (1, 5, 5, 1.0)
    assert list(sdp.constraints[0][0]) == [(1, i, i, 1.0)
                                           for i in range(1, 6)]
    assert sdp.constraints[0][1] == 1.0
    assert [(tuple(sdp.constraints[k][0]), sdp.constraints[k][1])
            for k in (1, 2)] == [(((1, 1, 2, 1.0),), 0.0),
                                 (((1, 1, 5, 1.0),), 0.0)]
    assert tuple(sdp.constraints[-1][0]) == ((1, 4, 5, 1.0),)
    with pytest.raises(IndexError):
        sdp.constraints[6]
    with pytest.raises(ValueError):
        sdp.k[0] = 1


SDPA_TEXT = ['"a small instance"', "2", "1", "3", "1.0 0.0",
             "0 1 1 1 1.0", "1 1 1 1 1.0", "2 1 1 2 1.0"]


@pytest.mark.parametrize("line, message", [
    ("-1 1 1 1 1.0", "matrix number -1"),
    ("3 1 1 1 1.0", "matrix number 3"),
    ("1 1 1 1", "5 fields"),
    ("1 1 1 2 1.0 7", "5 fields"),
    ("1 1 1 4 1.0", r"entry \(1, 1, 4\) of matrix 1"),
    ("1 2 1 1 1.0", r"entry \(2, 1, 1\) of matrix 1"),
    ("1 1 0 1 1.0", r"entry \(1, 0, 1\) of matrix 1"),
    ("1 1 2 1 1.0", r"entry \(1, 2, 1\) of matrix 1"),
    ("1 1 1 x 1.0", "malformed SDPA file"),
    ("1 1 1 2.0 1.0", "malformed SDPA file"),
    ("1 1 1 2 1.0 # note", "5 fields"),
    ("1 1 1 4294967298 1.0", r"entry \(1, 1, 4294967298\) of matrix 1"),
], ids=["matrix-below-0", "matrix-above-m", "4-fields", "6-fields",
        "index-outside-block", "no-such-block", "index-0", "below-diagonal",
        "not-a-number", "float-index", "trailing-words", "index-past-int32"])
def test_read_sdpa_rejects_malformed_entries(tmp_path, line, message):
    """Each of these once read as another instance or raised IndexError or
    a bare ValueError: matrix -1 landed in constraint m."""
    path = tmp_path / "bad.dat-s"
    path.write_text("\n".join(SDPA_TEXT) + "\n")
    assert len(read_sdpa(path).constraints) == 2
    path.write_text("\n".join(SDPA_TEXT + [line]) + "\n")
    with pytest.raises(InvalidArgument, match=message):
        read_sdpa(path)


def test_read_sdpa_refuses_indices_past_int32(tmp_path):
    """The index columns are int32: a block size of 2^31 is refused (one
    less is read), and an index past 2^31 is checked before the columns
    are narrowed, where it would wrap to 2 and pass."""
    path = tmp_path / "wide.dat-s"
    for size in (2 ** 31 - 1, 2 ** 31):
        path.write_text(f"1\n1\n{size}\n1.0\n1 1 1 1 1.0\n")
        if size < 2 ** 31:
            wide = read_sdpa(path)
            assert wide.block_sizes == (size,)
            _exports_like_reference(wide, tmp_path)
        else:
            with pytest.raises(InvalidArgument,
                               match="block size 2147483648 is not below"):
                read_sdpa(path)
    with pytest.raises(InvalidArgument, match=r"entry \(1, 1, 4294967298\)"):
        sdp_from_matrices((3,), [[(1, 1, 2 ** 32 + 2, 1.0)]], [])


def test_sdp_instance_checks_every_batch():
    """The block and triangle checks run a block of rows at a time,
    BLOCK_BYTES of the block, i and j columns as given (int64 here, 24
    bytes a row): a bad entry past the first block is named.  Matrix
    numbers that decrease anywhere are refused."""
    batch = groups.BLOCK_BYTES // 24
    rows = 2 * batch + 5
    k, one = np.zeros(rows, dtype=np.int64), np.ones(rows, dtype=np.int64)
    assert len(SdpInstance((1,), k, one, one, one, one, [1.0]).k) == rows
    j = one.copy()
    j[batch + 3] = 2
    with pytest.raises(InvalidArgument, match=r"entry \(1, 1, 2\) of matrix 0"):
        SdpInstance((1,), k, one, one, j, one, [1.0])
    k[batch + 3] = 1
    with pytest.raises(InvalidArgument, match="not ordered by matrix"):
        SdpInstance((1,), k, one, one, one, one, [1.0])


def test_sdp_A_build_and_export_memory(tmp_path):
    """Building and exporting the S_6 instance once peaked at 24 MB
    (tracemalloc): int64 columns, two int64 triangle index arrays and
    a numbering of every value and every k at once.  With int32
    columns filled in place and writes numbered per batch it stays
    below 12 MB, the instance about 7.3 MB of it."""
    spec = _s6_spec_120()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        export_sdpa(build_sdp_A(spec), tmp_path / "s6.dat-s")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_sdp_A_instance_memory(capsys, tmp_path):
    """The S_6 instance of 304,321 entries holds one table of numpy
    columns, int32 indices and float64 values (about 7.3 MB); with int64
    indices it held 12 MB, and as tuples of tuples 36 MB."""
    spec = _s6_spec_120()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sdp = build_sdp_A(spec)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sdp.k) == 720 * 721 // 2 + 720 + 720 * 120 // 2
    assert held < 8 * 2**20
    code = cli_dispatch(["export-sdpa", "--formulation", "A", "--group",
                         "cyclic:5", "--connection", "classes:1,4",
                         "--out", str(tmp_path / "c5.dat-s")])
    out = capsys.readouterr().out
    assert code == 0 and "[5]" in out and "6 constraint(s)" in out
