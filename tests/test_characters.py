import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_theta.characters import (CharacterTable, ClassFunction,
                                     GroupFunction, abelian_character_table,
                                     abelian_irreps, as_float_table,
                                     export_character_table,
                                     fourier_class_scalars,
                                     hook_length_degree,
                                     import_character_table,
                                     is_positive_type, mn_character,
                                     symmetric_character_table)
from cayley_theta.errors import CorruptTable, NeedsIrreps, SchemaError
from cayley_theta.groups import (make_abelian_product, make_general_linear,
                                 make_symmetric, partitions)

from oracles import (convolve, exact_psd, first_orthogonality_failure,
                     group_matrix, involute, mn_character_reference,
                     reference_abelian_table, reference_fourier_scalars)


def test_abelian_table_z5():
    z5 = make_abelian_product([5])
    table = abelian_character_table(z5)
    table.validate()
    assert not table.exact  # fifth roots of unity are not rational
    assert table.degrees == (1,) * 5
    w = complex(math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5))
    # some row must be the character k -> w^k
    assert any(all(abs(table.entries[i, k] - w ** k) < 1e-12 for k in range(5))
               for i in range(5))


@pytest.mark.parametrize("moduli", [(5,), (12,), (211,), (3, 5, 7),
                                    (4, 6)])
def test_abelian_table_bits_match_cmath_reference(moduli):
    """The table built from one integer phase matrix has, entry for
    entry, the bits of one cmath.exp per entry of a Fraction phase."""
    group = make_abelian_product(moduli)
    table = abelian_character_table(group)

    def bits(entries):
        return [[(v.real.hex(), v.imag.hex()) for v in row]
                for row in entries]

    assert table.entries.dtype == complex
    assert bits(table.entries.tolist()) == bits(reference_abelian_table(group))


def test_abelian_table_exact_matches_reference():
    group = make_abelian_product([2] * 7)
    table = abelian_character_table(group)
    assert table.exact
    assert all(type(v) is int for v in table.entries.flat)
    assert table.entries.tolist() == [list(row) for row in
                                      reference_abelian_table(group)]


def test_fourier_scalars_bits_match_scalar_reference():
    """Complex, float and rational class functions on approximate and
    exact tables: every scalar has the bits of the product-by-product
    sum (numpy's fused complex product would change some)."""
    rng = random.Random(12)
    tables = [abelian_character_table(make_abelian_product(m))
              for m in ((12,), (3, 5), (2, 2, 2))]
    tables += [symmetric_character_table(6)]
    tables += [as_float_table(t) for t in tables if t.exact]
    for table in tables:
        for kind in (complex, float, Fraction):
            values = tuple(
                complex(rng.gauss(0, 1), rng.gauss(0, 1)) if kind is complex
                else rng.gauss(0, 1) if kind is float
                else Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in table.classes)
            f = ClassFunction(table.group, values)
            got = fourier_class_scalars(f, table)
            want = reference_fourier_scalars(f, table)
            assert [type(v) for v in got] == [type(v) for v in want]
            assert [repr(v) for v in got] == [repr(v) for v in want]


def test_abelian_table_klein_exact():
    table = abelian_character_table(make_abelian_product([2, 2]))
    table.validate()
    assert table.exact
    assert all(v in (1, -1) for row in table.entries for v in row)


def test_symmetric_tables_small_known_values():
    t3 = symmetric_character_table(3)
    t3.validate()
    # ascending-lex class order: e, transpositions, 3-cycles;
    # irrep order: sign, standard, trivial
    assert t3.degrees == (1, 2, 1)
    assert t3.trivial_index == 2
    assert t3.entries.tolist() == [[1, -1, 1], [2, 0, -1], [1, 1, 1]]

    t4 = symmetric_character_table(4)
    t4.validate()
    assert sorted(t4.degrees) == [1, 1, 2, 3, 3]


def test_mn_against_reference_small_n():
    for n in range(1, 6):
        for lam in partitions(n):
            for mu in partitions(n):
                assert mn_character(lam, mu) == mn_character_reference(lam, mu)


def test_hook_length_degrees():
    assert hook_length_degree((2, 2)) == 2
    assert hook_length_degree((3, 1, 1)) == 6
    assert hook_length_degree((5,)) == 1
    assert hook_length_degree((1, 1, 1, 1)) == 1
    for n in range(1, 8):
        for lam in partitions(n):
            assert mn_character(tuple(lam), (1,) * n) == hook_length_degree(
                tuple(lam))


def test_symmetric_table_n8_orthogonality():
    table = symmetric_character_table(8)
    table.validate()
    assert sum(d * d for d in table.degrees) == math.factorial(8)


def test_fourier_scalars_delta():
    # delta at identity: fhat(pi) = d_pi / d_pi = 1 for every irrep? no:
    # c_pi = (1/d) * 1 * chi(e) = 1 for all pi.
    s4 = make_symmetric(4)
    table = symmetric_character_table(4)
    delta = ClassFunction(s4, (Fraction(1), 0, 0, 0, 0))
    assert fourier_class_scalars(delta, table) == (1, 1, 1, 1, 1)
    # constant 1: only the trivial transform survives
    ones = ClassFunction(s4, (Fraction(1),) * 5)
    scal = fourier_class_scalars(ones, table)
    for i, c in enumerate(scal):
        assert c == (24 if i == table.trivial_index else 0)


def test_bochner_matches_psd_of_group_matrix():
    s4 = make_symmetric(4)
    table = symmetric_character_table(4)
    rng = random.Random(7)
    for _ in range(60):
        vals = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(5))
        f = ClassFunction(s4, vals)
        ok, _ = exact_psd(group_matrix(f))
        assert bool(is_positive_type(f, table)) == ok


@given(st.lists(st.fractions(min_value=-5, max_value=5,
                             max_denominator=6),
                min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_bochner_matches_psd_hypothesis_s3(vals):
    s3 = make_symmetric(3)
    table = symmetric_character_table(3)
    f = ClassFunction(s3, tuple(vals))
    ok, _ = exact_psd(group_matrix(f))
    assert bool(is_positive_type(f, table)) == ok


def test_characters_are_positive_type():
    s5 = make_symmetric(5)
    table = symmetric_character_table(5)
    for i in range(len(table.degrees)):
        f = ClassFunction(s5, tuple(Fraction(v) for v in table.entries[i]))
        assert is_positive_type(f, table)


def test_bochner_float_abelian():
    z12 = make_abelian_product([12])
    table = abelian_character_table(z12)
    f = GroupFunction(z12, tuple(float(max(0, 3 - min(g, 12 - g)))
                                 for g in range(12)))
    res = is_positive_type(f, table, tol=1e-8)
    # compare to numpy eigenvalues of the circulant group matrix
    import numpy as np
    M = np.array(group_matrix(f), dtype=float)
    want = bool(np.linalg.eigvalsh(M).min() > -1e-8)
    assert bool(res) == want


def test_bochner_exact_means_tolerance_zero():
    z2 = make_abelian_product([2])
    table = abelian_character_table(z2)
    assert table.exact
    res = is_positive_type(
        ClassFunction(z2, (Fraction(1), 1 + Fraction(1, 10**12))), table)
    assert not res and res.irrep == 1
    assert is_positive_type(ClassFunction(z2, (1.0, 1.0 + 1e-12)),
                            as_float_table(table))


def test_non_class_function_needs_irreps():
    s3 = make_symmetric(3)
    table = symmetric_character_table(3)
    vals = [Fraction(0)] * 6
    vals[1] = Fraction(1)   # not constant on the transposition class
    with pytest.raises(NeedsIrreps):
        is_positive_type(GroupFunction(s3, tuple(vals)), table)


def test_convolution_identity_and_involution():
    s3 = make_symmetric(3)
    delta = GroupFunction(s3, (Fraction(1), 0, 0, 0, 0, 0))
    rng = random.Random(1)
    f = GroupFunction(s3, tuple(Fraction(rng.randint(-5, 5))
                                for _ in range(6)))
    assert convolve(delta, f).values == f.values
    assert convolve(f, delta).values == f.values
    assert involute(involute(f)).values == f.values
    # f * f^* is always of positive type
    g = convolve(f, involute(f))
    ok, _ = exact_psd(group_matrix(g))
    assert ok


def test_table_json_roundtrip(tmp_path):
    s4 = make_symmetric(4)
    table = symmetric_character_table(4)
    path = tmp_path / "s4.json"
    export_character_table(table, path)
    loaded = import_character_table(path, s4)
    loaded.validate()
    assert loaded.entries.tolist() == table.entries.tolist()
    assert loaded.trivial_index == table.trivial_index

    # complex-valued table round trip
    z5 = make_abelian_product([5])
    t5 = abelian_character_table(z5)
    p5 = tmp_path / "z5.json"
    export_character_table(t5, p5)
    l5 = import_character_table(p5, z5)
    l5.validate()
    for i in range(5):
        for k in range(5):
            assert abs(l5.entries[i, k] - t5.entries[i, k]) < 1e-12


def test_import_rejects_wrong_group_and_corruption(tmp_path):
    table = symmetric_character_table(4)
    path = tmp_path / "s4.json"
    export_character_table(table, path)
    with pytest.raises((SchemaError, CorruptTable)):
        import_character_table(path, make_symmetric(3))

    import json
    data = json.loads(path.read_text())
    data["entries"][0] = "2"   # breaks first-column-equals-degree
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises((SchemaError, CorruptTable)):
        import_character_table(bad, make_symmetric(4))


def test_import_into_gl22_from_s3_table(tmp_path):
    # GL(2,2) is isomorphic to S3; class sizes 1,2,3 are pairwise distinct
    # so size-matching must align the classes
    table = symmetric_character_table(3)
    path = tmp_path / "s3.json"
    export_character_table(table, path)
    gl = make_general_linear(2, 2)
    loaded = import_character_table(path, gl)
    loaded.validate()
    assert sorted(loaded.degrees) == [1, 1, 2]


def test_as_float_table():
    table = as_float_table(symmetric_character_table(4))
    table.validate()
    assert not table.exact


def test_abelian_irreps_validate():
    z6 = make_abelian_product([6])
    table = abelian_character_table(z6)
    irreps = abelian_irreps(table)
    irreps.validate()
    f = GroupFunction(z6, tuple(float(v) for v in (3, 1, 0, 0, 0, 1)))
    assert bool(is_positive_type(f, irreps, tol=1e-8)) == bool(
        is_positive_type(f, table, tol=1e-8))


def _with_entry(table, i, k, value):
    entries = table.entries.copy()
    entries[i, k] = value
    return replace(table, entries=entries)


@pytest.mark.parametrize("i, k, value, message", [
    (1, 2, Fraction(1), "row orthogonality fails for irreps (0,1)"),
    (3, 4, Fraction(1, 2), "row orthogonality fails for irreps (0,3)"),
    pytest.param(1, 2, 1.0, "row orthogonality fails for irreps (0,1)",
                 id="float"),
])
def test_corrupted_exact_table_message(i, k, value, message):
    """A float value is written into the float copy of the S_5 table.
    The Gram-matrix check names the pair the scalar loops name first."""
    table = symmetric_character_table(5)
    if isinstance(value, float):
        table = as_float_table(table)
    table = _with_entry(table, i, k, value)
    assert first_orthogonality_failure(table) == message
    with pytest.raises(CorruptTable) as info:
        table.validate()
    assert str(info.value) == message


def test_exact_column_orthogonality_checked():
    # four linear characters of Z_2^3 and a fake degree-2 row
    # 2(delta_e - delta_x) with x = (1,0,0): every row check passes, but
    # the table is not square, so column orthogonality fails, exactly and
    # in the float copy
    group = make_abelian_product([2, 2, 2])
    linear = abelian_character_table(group).entries[:4]
    fake = [Fraction(v) for v in (2, 0, 0, 0, -2, 0, 0, 0)]
    table = CharacterTable(group=group, degrees=(1, 1, 1, 1, 2),
                           entries=np.vstack([linear, [fake]]),
                           irrep_labels=tuple("abcde"), trivial_index=0)
    message = "column orthogonality fails for classes (1,1)"
    for t in (table, as_float_table(table)):
        assert first_orthogonality_failure(t) == message
        with pytest.raises(CorruptTable) as info:
            t.validate()
        assert str(info.value) == message
    assert table.exact and not as_float_table(table).exact


def test_float_table_export_import_validate_order_401(tmp_path):
    """The float Z_401 table survives export and import bit for bit, and
    both orthogonality checks (the import runs them) pass."""
    group = make_abelian_product([401])
    table = abelian_character_table(group)
    path = tmp_path / "z401.json"
    export_character_table(table, path)
    loaded = import_character_table(path, group)
    assert not loaded.exact
    assert loaded.entries.tobytes() == table.entries.tobytes()
    assert loaded.validate() is loaded


def test_entries_are_one_read_only_array():
    table = symmetric_character_table(4)
    assert table.entries.shape == (5, 5) and table.exact
    with pytest.raises(ValueError):
        table.entries[0, 0] = 7
    # a rational entry that is not an integer keeps the table exact
    fractional = _with_entry(table, 1, 2, Fraction(1, 2))
    assert fractional.exact and type(fractional.entries[1, 2]) is Fraction
    assert not _with_entry(as_float_table(table), 1, 2, 0.5).exact
