import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_theta import characters
from cayley_theta.characters import (CharacterTable, ClassFunction,
                                     GroupFunction, abelian_character_table,
                                     abelian_irreps, as_float_table,
                                     export_character_table,
                                     fourier_class_scalars,
                                     hook_length_degree,
                                     import_character_table,
                                     is_positive_type, mn_character,
                                     mn_table, row_combination,
                                     symmetric_character_table)
from cayley_theta.errors import (CorruptTable, InvalidArgument, NeedsIrreps,
                                 SchemaError, SizeLimit)
from cayley_theta.groups import (blocks, make_abelian_product,
                                 make_general_linear, make_symmetric,
                                 partitions)

from oracles import (convolve, exact_psd, first_orthogonality_failure,
                     group_matrix, involute, mn_character_reference,
                     reference_abelian_table, reference_fourier_scalars,
                     reference_row_combination)


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
    sum (numpy's fused complex product would change some).  Fractions
    mixed with floats on an exact table follow the documented rule
    instead: the bits of the same sums on the table's float copy, for
    the Fourier scalars and the row combinations alike.  Z_211 spans
    six row blocks, so the weights meet rows of several blocks."""
    rng = random.Random(12)
    tables = [abelian_character_table(make_abelian_product(m))
              for m in ((12,), (3, 5), (2, 2, 2), (211,))]
    tables += [symmetric_character_table(6)]
    tables += [as_float_table(t) for t in tables if t.exact]
    assert len(list(blocks(211, tables[3].entries[0].nbytes))) == 6

    def draw(kind):
        if kind == "mixed":
            kind = rng.choice((float, Fraction))
        if kind is complex:
            return complex(rng.gauss(0, 1), rng.gauss(0, 1))
        if kind is float:
            return rng.gauss(0, 1)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    for table in tables:
        for kind in (complex, float, Fraction) + ("mixed",) * 8:
            values = [draw(kind) for _ in range(len(table.classes))]
            if kind == "mixed":
                values[:2] = [Fraction(1, 10), 0.5]
            f = ClassFunction(table.group, tuple(values))
            got = fourier_class_scalars(f, table)
            if kind == "mixed" and table.exact:
                approx = as_float_table(table)
                assert [repr(v) for v in got] == \
                    [repr(v) for v in fourier_class_scalars(f, approx)]
                assert [repr(v) for v in row_combination(table, values)] \
                    == [repr(v) for v in row_combination(approx, values)]
                continue
            want = reference_fourier_scalars(f, table)
            assert [type(v) for v in got] == [type(v) for v in want]
            assert [repr(v) for v in got] == [repr(v) for v in want]


def _fraction_table():
    """A hand-built table on S_3 with non-integer Fraction entries: not a
    character table, but rational, which is all the exact sums need."""
    return CharacterTable(
        group=make_symmetric(3), degrees=(1, 2, 1),
        entries=[[1, Fraction(-1, 2), Fraction(2, 3)],
                 [2, 0, Fraction(-7, 5)], [1, 1, 1]],
        irrep_labels=("a", "b", "c"), trivial_index=2)


def _exact_weight_sets(n, rng):
    """Seeded Fractions with large, mixed denominators (a few of them
    ints), all zeros as ints and as Fractions, one nonzero weight, and
    small ints."""
    large = [Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**15))
             if rng.random() < 0.8 else rng.randint(-10**6, 10**6)
             for _ in range(n)]
    single = [0] * n
    single[rng.randrange(n)] = Fraction(-7, 3)
    return [large, [0] * n, [Fraction(0)] * n, single,
            [rng.randint(-9, 9) for _ in range(n)]]


EXACT_TABLES = ([symmetric_character_table(n) for n in range(3, 9)] +
                [abelian_character_table(make_abelian_product([2] * k))
                 for k in range(1, 8)] + [_fraction_table()])


@pytest.mark.parametrize("table", EXACT_TABLES, ids=(
    [f"S{n}" for n in range(3, 9)] + [f"Z2^{k}" for k in range(1, 8)] +
    ["fractions"]))
def test_exact_sums_match_scalar_references(table):
    """The integer product over a common denominator gives the values
    and the types of the scalar sums: row combinations and Fourier
    scalars."""
    assert table.exact
    rng = random.Random(len(table.classes))
    for weights in _exact_weight_sets(len(table.classes), rng):
        got = row_combination(table, weights)
        want = reference_row_combination(table, weights)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
        f = ClassFunction(table.group, tuple(weights))
        got = fourier_class_scalars(f, table)
        want = reference_fourier_scalars(f, table)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]


def test_row_combination_bits_match_scalar_reference():
    """Approximate sums, and rational tables with float or complex
    weights, take the float path: every sum has the type and the bits
    of the product-by-product sum.  Z_211 spans six row blocks."""
    rng = random.Random(5)
    tables = [abelian_character_table(make_abelian_product([12])),
              abelian_character_table(make_abelian_product([211])),
              symmetric_character_table(6), _fraction_table()]
    tables += [as_float_table(t) for t in tables if t.exact]
    for table in tables:
        for kind in (complex, float):
            weights = [complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       if kind is complex else rng.gauss(0, 1)
                       for _ in table.degrees]
            got = row_combination(table, weights)
            want = reference_row_combination(table, weights)
            assert [type(v) for v in got] == [type(v) for v in want]
            assert [repr(v) for v in got] == [repr(v) for v in want]


def _zero_weight_sets(n, rng, draw):
    """Weight vectors whose zero terms the sums skip or multiply by
    numpy's product: all +0, all -0, zeros first and last, one live
    weight, -0 mixed with live weights, and every weight live."""
    dense = [draw() for _ in range(n)]
    ends = dense[:]
    ends[0] = ends[-1] = 0.0
    single = [0.0] * n
    single[rng.randrange(n)] = draw()
    signed = [-0.0 if rng.random() < 0.5 else v for v in dense]
    return [[0.0] * n, [-0.0] * n, ends, single, signed, dense]


FLOAT_TABLES = [
    as_float_table(symmetric_character_table(6)),
    abelian_character_table(make_abelian_product([211])),
    abelian_character_table(make_abelian_product([3, 5, 7]))]
# entries in column-major order, as a table imported with its classes
# permuted may hold them
FLOAT_TABLES.append(replace(FLOAT_TABLES[0], entries=np.asfortranarray(
    FLOAT_TABLES[0].entries)))


@pytest.mark.parametrize("table", FLOAT_TABLES,
                         ids=["S6", "Z211", "Z3x5x7", "S6-column-major"])
def test_zero_weights_leave_the_float_sums_bit_for_bit(table):
    """Row combinations over the nonzero weights only, and Bochner
    scalars of real weights or on a real table as numpy's product, have
    the type and the bits of the scalar sums over every term (repr
    tells -0.0 from 0.0), on tables of one or several row blocks (Z_211
    spans six)."""
    rng = random.Random(len(table.classes))
    for kind in (float, complex):
        def draw():
            if kind is float:
                return rng.gauss(0, 1)
            return complex(rng.gauss(0, 1), rng.gauss(0, 1))
        for weights in _zero_weight_sets(len(table.classes), rng, draw):
            got = row_combination(table, weights)
            want = reference_row_combination(table, weights)
            assert [type(v) for v in got] == [type(v) for v in want]
            assert [repr(v) for v in got] == [repr(v) for v in want]
            f = ClassFunction(table.group, tuple(
                w / size for w, size in
                zip(weights, table.classes.sizes.tolist())))
            got = fourier_class_scalars(f, table)
            want = reference_fourier_scalars(f, table)
            assert [repr(v) for v in got] == [repr(v) for v in want]


def test_mixed_weights_on_exact_tables_sum_as_on_the_float_copy():
    """Fractions mixed with float or complex values on an exact table
    take the complex path of its approximate copy, bit for bit: each
    Fraction weight is rounded to a double before its product, where
    the scalar sum rounds the exact product (and adds a leading run of
    Fraction terms exactly), so the two may differ in the last bits."""
    rng = random.Random(8)
    tables = [symmetric_character_table(n) for n in (4, 6)]
    tables += [abelian_character_table(make_abelian_product([2] * 3)),
               _fraction_table()]
    for table in tables:
        approx = as_float_table(table)
        for kind in (complex, float):
            values = [kind(rng.gauss(0, 1)) if rng.random() < 0.4 else
                      Fraction(rng.randint(-99, 99), rng.randint(1, 30))
                      for _ in range(len(table.classes))]
            values[:2] = [Fraction(1, 10), Fraction(1, 5)]
            values[-1] = kind(rng.gauss(0, 1))
            f = ClassFunction(table.group, tuple(values))
            got = fourier_class_scalars(f, table)
            assert [repr(v) for v in got] == \
                [repr(v) for v in fourier_class_scalars(f, approx)]
            want = reference_fourier_scalars(f, table)
            assert [type(v) for v in got] == [type(v) for v in want]
            scale = max(1.0, max(abs(v) for v in want))
            assert all(abs(g - w) <= 1e-12 * scale
                       for g, w in zip(got, want))
            got = row_combination(table, values)
            assert [repr(v) for v in got] == \
                [repr(v) for v in row_combination(approx, values)]
            want = reference_row_combination(table, values)
            assert all(abs(g - w) <= 1e-12 * scale
                       for g, w in zip(got, want))
    # the example of the docstring: 1/10 + 1/5 is 0.3 when added exactly
    weights = [Fraction(1, 10), Fraction(1, 5), 0.0, 0.0]
    table = abelian_character_table(make_abelian_product([2, 2]))
    assert reference_row_combination(table, weights)[0] == 0.3
    assert row_combination(table, weights)[0] == 0.1 + 0.2 != 0.3


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


@pytest.mark.parametrize("n", list(range(0, 11)) + [12, 13, 15])
def test_mn_table_matches_the_memoised_rule(n):
    """The table built from beta-set strips equals ``mn_character`` (the
    rule on the largest part, one entry at a time) entry by entry; n = 12
    to 15 are past the S_n that the memory budget admits, which the
    builder does not need."""
    parts = partitions(n)
    table = mn_table(n)
    assert table.dtype == np.int64
    assert table.tolist() == [[mn_character(lam, mu) for mu in parts]
                              for lam in parts]
    if n <= 7:
        assert table.tolist() == [[mn_character_reference(lam, mu)
                                   for mu in parts] for lam in parts]


def test_mn_table_bound():
    """MN_TABLE_MAX_N is the largest n with n * sqrt(n!) < 2^63, the
    bound on every partial sum of the int64 table products."""
    n = characters.MN_TABLE_MAX_N
    assert n * n * math.factorial(n) < 2**126
    assert (n + 1) ** 2 * math.factorial(n + 1) >= 2**126
    with pytest.raises(SizeLimit):
        mn_table(n + 1)


def test_mn_table_refuses_a_negative_n():
    for n in (-1, -40):
        with pytest.raises(InvalidArgument, match="non-negative"):
            mn_table(n)


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


def test_bochner_refuses_a_rational_too_large_for_a_double():
    """10^400 on Z_7 once raised OverflowError from ``complex()`` on the
    float table's route and on the irreps' route; the exact S_3 table
    sums it exactly."""
    z7 = make_abelian_product([7])
    f = GroupFunction(z7, (Fraction(10) ** 400,) + (Fraction(0),) * 6)
    table = abelian_character_table(z7)
    assert not table.exact
    for rep in (table, abelian_irreps(table)):
        with pytest.raises(InvalidArgument, match="too large for a double"):
            is_positive_type(f, rep)
    s3 = make_symmetric(3)
    assert is_positive_type(
        GroupFunction(s3, (Fraction(10) ** 400,) + (Fraction(0),) * 5),
        symmetric_character_table(3))


def test_non_class_function_needs_irreps():
    s3 = make_symmetric(3)
    table = symmetric_character_table(3)
    vals = [Fraction(0)] * 6
    vals[1] = Fraction(1)   # not constant on the transposition class
    with pytest.raises(NeedsIrreps):
        is_positive_type(GroupFunction(s3, tuple(vals)), table)


def test_float_class_function_read_at_smallest_members():
    """A float function on S_4, constant on classes up to noise of 1e-13,
    is the class function of its values at each class's smallest member;
    S_4 numbers its classes in partition order, not in the order of
    their smallest members."""
    s4 = make_symmetric(4)
    class_of = s4.class_of()
    rng = np.random.default_rng(4)
    base = rng.normal(size=len(s4.conjugacy_classes()))
    values = base[class_of] + rng.uniform(-1e-13, 1e-13, size=s4.order)
    f = GroupFunction(s4, tuple(values.tolist()))
    smallest = [int(np.argmax(class_of == idx)) for idx in range(len(base))]
    assert smallest != sorted(smallest)
    assert characters._as_class_function(f) == ClassFunction(
        s4, tuple(f.values[g] for g in smallest))
    values[s4.order - 1] += 1e-11
    assert characters._as_class_function(
        GroupFunction(s4, tuple(values.tolist()))) is None


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
    """The float copy of an S_n table is real, so float64; a table with
    an imaginary part, such as Z_701's, stays complex128."""
    table = as_float_table(symmetric_character_table(4))
    table.validate()
    assert not table.exact
    assert table.entries.dtype == np.float64
    z701 = abelian_character_table(make_abelian_product([701]))
    assert as_float_table(z701).entries.dtype == np.complex128


def test_negative_degree_refused():
    """An irrep's row negated together with its degree passed every
    other check: its identity-class entry is its degree, and negating a
    row keeps both orthogonalities."""
    table = abelian_character_table(make_abelian_product([3]))
    entries = table.entries.copy()
    entries[1] *= -1
    with pytest.raises(CorruptTable, match="a degree is not positive"):
        replace(table, degrees=(1, -1, 1), entries=entries).validate()


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


@pytest.mark.parametrize("value, int64", [
    (5, True), (Fraction(5), False), (2 ** 40, False), (-2 ** 70, False)],
    ids=["int", "fraction", "past-the-bound", "past-int64"])
@pytest.mark.parametrize("i, k", [(3, 4), (10, 12)])
def test_corrupted_s7_table_same_pair_in_int64_and_object(i, k, value,
                                                          int64):
    """The Gram products run in int64 only when every entry is an int
    and no partial sum can overflow; a Fraction or a huge entry keeps
    Python ints.  Either way the same first failing pair is named."""
    table = _with_entry(symmetric_character_table(7), i, k, value)
    sizes = table.classes.sizes.tolist()
    taken = characters._int64_entries(table.entries, sizes,
                                      table.group.order)
    assert (taken.dtype == np.int64) == int64
    message = first_orthogonality_failure(table)
    assert message is not None
    with pytest.raises(CorruptTable) as info:
        table.validate()
    assert str(info.value) == message
    with pytest.raises(CorruptTable) as info:
        _with_entry(table, i, k, Fraction(value)).validate()
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_imported_table_with_a_non_finite_entry_is_corrupt(tmp_path, bad):
    """JSON reads NaN and Infinity; a NaN misses no value by more than a
    tolerance, so without the finiteness check such a table passed every
    test of ``validate``."""
    group = make_abelian_product([3])
    path = tmp_path / "z3.json"
    export_character_table(abelian_character_table(group), path)
    data = json.loads(path.read_text())
    data["entries"][4] = [bad, 0.0]
    path.write_text(json.dumps(data))
    with pytest.raises(CorruptTable, match="an entry is not finite"):
        import_character_table(path, group)


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
