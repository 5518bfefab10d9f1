import hashlib
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cayley_theta import characters
from cayley_theta.apps import efp_connection
from cayley_theta.characters import (CharacterTable, IrrepMatrices,
                                     abelian_character_table,
                                     abelian_irreps, as_float_table,
                                     symmetric_character_table)
from cayley_theta.errors import InvalidArgument, WrongFormulation
from cayley_theta.graphs import ConnectionSet, alpha, build_cayley
from cayley_theta.groups import (make_abelian_product, make_symmetric,
                                 perm_unrank)
from cayley_theta.simplex import LpSolution, verify_certificate
from cayley_theta.theta import (CayleyGraphSpec, build_lp_D, build_sdp_A,
                                build_sdp_C, certificate_to_json,
                                export_sdpa, extract_matrix_solution,
                                read_sdpa, solve_theta, symmetrize_matrix,
                                validate_certificate)

from oracles import exact_psd


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
    return IrrepMatrices(group=s3, degrees=(1, 2, 1),
                         matrices=(tuple(sign_m), tuple(std_m),
                                   tuple(triv_m)),
                         labels=("sign", "standard", "trivial"))


def _corrupted(irreps, irrep, elements, factor=np.exp(0.5j)):
    """The irreps with the matrices of some elements of one irrep scaled
    by factor; a phase keeps them unitary but breaks the homomorphism."""
    mats = [list(m) for m in irreps.matrices]
    for element in elements:
        mats[irrep][element] = mats[irrep][element] * factor
    return replace(irreps, matrices=tuple(tuple(m) for m in mats))


@pytest.mark.parametrize("moduli, irrep, element, pair", [
    (None, 1, 4, "(1,2)"),          # S_3, the degree-2 irrep, all pairs
    ((12,), 5, 7, "(1,6)"),         # all pairs
    ((101,), 3, 40, "(40,2)"),      # 2000 seeded pairs
    ((5, 13), 20, 33, "(33,17)"),   # 2000 seeded pairs
])
def test_irrep_validate_reports_first_failing_pair(moduli, irrep, element,
                                                   pair, monkeypatch):
    """A corrupted matrix is reported at the pair the one-pair-at-a-time
    check reported (pinned from it), in the same words.  Two matrices
    scaled by 2 are reported as not unitary at the first of them, as the
    one-element-at-a-time check did, also when the blocks are tiny."""
    if moduli is None:
        irreps = s3_irreps()
    else:
        irreps = abelian_irreps(abelian_character_table(
            make_abelian_product(moduli)))
    irreps.validate()
    last = irreps.group.order - 1
    for row_block in (characters.ROW_BLOCK, 3):
        monkeypatch.setattr(characters, "ROW_BLOCK", row_block)
        with pytest.raises(InvalidArgument) as exc:
            _corrupted(irreps, irrep, [element]).validate()
        assert str(exc.value) == \
            f"irrep {irrep}: homomorphism fails at {pair}"
        with pytest.raises(InvalidArgument) as exc:
            _corrupted(irreps, irrep, [last, element], 2.0).validate()
        assert str(exc.value) == f"irrep {irrep}: pi({element}) not unitary"


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
    assert lp.row_labels[0] == "normalization"
    assert lp.instance.b[0] == 6
    assert len(lp.kept_classes) == 1


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
    assert lp.row_labels == ("normalization", "class 1", "class 2")


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
    for (u, v) in g.edges:
        assert A[u][v] == 0
    # symmetrization is a fixed point and recovers f
    f = symmetrize_matrix(A, spec.group)
    for gamma in range(order):
        assert f.values[gamma] == cert.f.at_element(gamma)


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


def _assert_lp_certified(spec, table, cert):
    claim = LpSolution(status="optimal", x=cert.a,
                       objective_value=cert.objective, dual=cert.dual)
    assert verify_certificate(build_lp_D(spec, table).instance, claim)


# exact theta of Cay(S_n, efp:k), k = 1..n, as the cold-start Bland
# simplex computes it
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
