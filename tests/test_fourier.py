import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewcube.cube import CubePoint
from skewcube.errors import BadModulus, DegreeOutOfRange, DimensionTooLarge, UsageError
from skewcube.fourier import (
    _INTERN_FIELDS,
    MultilinearPoly,
    ValueTable,
    check_transform_size,
    degree,
    inverse_wht,
    random_poly,
    w_set,
    wht,
)
from skewcube.subsets import mask_of

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=8)


@st.composite
def tables(draw, max_n=5, max_k=2):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    vals = tuple(tuple(draw(rationals) for _ in range(k)) for _ in range(1 << n))
    return ValueTable(n, k, vals)


@st.composite
def polys(draw, max_n=5, max_k=2):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    coeffs = {}
    for mask in draw(st.sets(st.integers(0, (1 << n) - 1), max_size=6)):
        coeffs[mask] = tuple(draw(rationals) for _ in range(k))
    return MultilinearPoly(n, k, coeffs)


def test_wht_single_monomial():
    # f(x) = x1 * x2 on n = 2
    vals = tuple(
        (Fraction(1 if (bits.bit_count() % 2 == 0) else -1),) for bits in range(4)
    )
    poly = wht(ValueTable(2, 1, vals))
    assert poly.coeffs == {0b11: (Fraction(1),)}


def test_wht_constant():
    c = Fraction(7, 3)
    poly = wht(ValueTable(3, 1, tuple(((c,)) for _ in range(8))))
    assert poly.coeffs == {0: (c,)}


def test_inverse_wht_constant_one():
    table = inverse_wht(MultilinearPoly(3, 1, {0: (1,)}))
    assert all(v == (Fraction(1),) for v in table.values)


def test_inverse_wht_single_variable():
    table = inverse_wht(MultilinearPoly(1, 1, {0b1: (1,)}))
    assert table.values[0] == (Fraction(1),)   # x1 = +1
    assert table.values[1] == (Fraction(-1),)  # x1 = -1


@settings(max_examples=50, deadline=None)
@given(tables())
def test_round_trip_table(table):
    assert inverse_wht(wht(table)) == table


@settings(max_examples=50, deadline=None)
@given(polys())
def test_round_trip_poly(poly):
    assert wht(inverse_wht(poly)) == poly


@settings(max_examples=40, deadline=None)
@given(polys(max_n=5))
def test_values_match_direct_monomial_summation(poly):
    table = inverse_wht(poly)
    for bits in range(1 << poly.n):
        assert table.values[bits] == poly.value_at(bits)


@settings(max_examples=30, deadline=None)
@given(tables(max_k=1))
def test_parseval_scalar(table):
    poly = wht(table)
    lhs = sum((v[0] * v[0] for v in table.values), Fraction(0)) / (1 << table.n)
    rhs = sum((c[0] * c[0] for c in poly.coeffs.values()), Fraction(0))
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(tables(max_n=4, max_k=1))
def test_coefficient_mean_formula(table):
    # hat(S) is the average of f(x) * (-1)^|S & x|, checked directly
    poly = wht(table)
    n = table.n
    for S in range(1 << n):
        total = Fraction(0)
        for x in range(1 << n):
            sign = -1 if (S & x).bit_count() & 1 else 1
            total += sign * table.values[x][0]
        assert poly.coeffs.get(S, (Fraction(0),))[0] == total / (1 << n)


def test_transforms_past_int64():
    # Entry (x, i) is 2^80 + 7x + 1/d with d = 2x + i + 1, in lowest terms, so
    # the butterfly adds numerators past int64 over the denominator lcm(1..128).
    n = 6
    vals = tuple(
        tuple(Fraction((2**80 + 7 * x) * d + 1, d) for d in (2 * x + 1, 2 * x + 2)) for x in range(1 << n)
    )
    assert sorted(v.denominator for row in vals for v in row) == list(range(1, 129))
    assert min(v.numerator for row in vals for v in row) > 2**63
    table = ValueTable(n, 2, vals)
    poly = wht(table)
    assert inverse_wht(poly) == table
    S = 0b101101
    total = Fraction(0)
    for x in range(1 << n):
        sign = -1 if (S & x).bit_count() & 1 else 1
        total += sign * vals[x][1]
    assert poly.coeffs[S][1] == total / (1 << n)


def test_degree_examples():
    assert degree(MultilinearPoly(3, 1, {0: (5,)})) == 0
    two = MultilinearPoly(3, 1, {mask_of([1, 3]): (1,), mask_of([2]): (-1,)})
    assert degree(two) == 2
    assert degree(MultilinearPoly(3, 1, {})) == 0
    # zero coefficient vectors do not contribute to the degree
    assert degree(MultilinearPoly(3, 1, {0b111: (0,), 0b1: (2,)})) == 1


def test_w_set_counts():
    assert len(w_set(4, 2)) == 8
    assert [p.weight for p in w_set(5, 5)] == [0, 5]
    assert len(w_set(3, 2)) == 4


def test_w_set_order_and_membership():
    pts = w_set(6, 3)
    assert [p.bits for p in pts] == sorted(p.bits for p in pts)
    assert all(p.weight % 3 == 0 for p in pts)


@pytest.mark.parametrize("n", list(range(1, 13)) + [16, 20])
def test_w_set_binomial_sum(n):
    for m in range(2, n + 1):
        want = sum(math.comb(n, j) for j in range(0, n + 1, m))
        assert len(w_set(n, m)) == want


@pytest.mark.parametrize("m", [5, 255, 256, 10**9, 10**30])
def test_w_set_modulus_past_n_keeps_only_weight_0(m):
    assert w_set(4, m) == [CubePoint(0, 4)]


def test_w_set_bad_modulus():
    with pytest.raises(BadModulus):
        w_set(4, 1)


@pytest.mark.parametrize("n", [0, -1])
def test_w_set_nonpositive_dimension(n):
    with pytest.raises(UsageError, match="dimension must be positive"):
        w_set(n, 2)


def test_random_poly_deterministic():
    a = random_poly(6, 3, 2, seed=11)
    b = random_poly(6, 3, 2, seed=11)
    assert a == b
    assert a != random_poly(6, 3, 2, seed=12)


@pytest.mark.parametrize("seed", range(8))
def test_random_poly_degree_exact(seed):
    assert degree(random_poly(6, 3, 1, seed)) == 3


def test_random_poly_degree_zero_is_nonzero_constant():
    poly = random_poly(4, 0, 1, seed=3)
    assert degree(poly) == 0
    assert poly.coeffs[0] != (Fraction(0),)


def test_random_poly_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        random_poly(3, 4, 1, seed=0)


def test_transform_cap_counts_values_and_refuses_before_building():
    check_transform_size(24, 1)
    check_transform_size(22, 4)
    for n, k in [(25, 1), (23, 3), (5, 10**8), (10**30, 1)]:
        with pytest.raises(DimensionTooLarge):
            inverse_wht(MultilinearPoly(n, k, {}))
    assert MultilinearPoly(10**30, 1, {1: (1,)}).coeffs == {1: (Fraction(1),)}


def _w_set_reference(n, m):
    """The mask loop w_set used before it selected with numpy."""
    return [x for x in range(1 << n) if x.bit_count() % m == 0]


@pytest.mark.parametrize("n, m", [(1, 2), (5, 2), (6, 3), (9, 4), (12, 5), (14, 7)])
def test_w_set_matches_mask_loop(n, m):
    pts = w_set(n, m)
    assert [p.bits for p in pts] == _w_set_reference(n, m)
    assert all(type(p.bits) is int and p.n == n for p in pts)


non_integer_rationals = st.fractions(max_denominator=10**6).filter(lambda q: q.denominator > 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.data())
def test_value_at_matches_inverse_wht_on_rational_coefficients(n, k, data):
    coeffs = {
        mask: tuple(data.draw(non_integer_rationals | st.integers(-(2**70), 2**70)) for _ in range(k))
        for mask in data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    }
    poly = MultilinearPoly(n, k, coeffs)
    table = inverse_wht(poly)
    assert [poly.value_at(x) for x in range(1 << n)] == list(table.values)


def test_poly_integer_numerators_are_not_fields():
    a = MultilinearPoly(3, 2, {0b1: (Fraction(1, 2), 3), 0b110: (Fraction(-2, 3), 0)})
    assert a._den == 6
    assert dict(a._terms) == {0b1: (3, 18), 0b110: (-4, 0)}
    assert a == MultilinearPoly(3, 2, {0b110: ("-2/3", 0), 0b1: ("1/2", "3")})
    assert "_den" not in repr(a) and "_terms" not in repr(a)
    assert MultilinearPoly(4, 1, {}).value_at(5) == (Fraction(0),)


@pytest.mark.parametrize("bits", [1 << 4, -1])
def test_value_at_mask_out_of_range(bits):
    # unchecked, 2^4 would read as mask 0 and -1 as mask 15
    poly = MultilinearPoly(4, 1, {0b1: (1,), 0b1111: (2,)})
    with pytest.raises(UsageError, match="out of range for n=4"):
        poly.value_at(bits)


def test_value_table_huge_n_is_usage_error():
    from skewcube.errors import UsageError

    with pytest.raises(UsageError):
        ValueTable(10**30, 1, ((1,),))
    with pytest.raises(UsageError):
        ValueTable(2, 1, ((1,),) * 3)


def test_entries_are_coerced_once_and_floats_refused():
    half = Fraction(1, 2)
    poly = MultilinearPoly(2, 2, {0b01: (half, 3), 0b10: ("-1/3", 0)})
    assert poly.coeffs == {0b01: (half, Fraction(3)), 0b10: (Fraction(-1, 3), Fraction(0))}
    assert poly.coeffs[0b01][0] is half  # a Fraction is kept, not rebuilt
    assert all(type(x) is Fraction for vec in poly.coeffs.values() for x in vec)
    table = ValueTable(1, 2, ((half, 1), ("2/3", Fraction(-5))))
    assert table.values == ((half, Fraction(1)), (Fraction(2, 3), Fraction(-5)))
    assert table.values[0][0] is half
    assert all(type(x) is Fraction for row in table.values for x in row)
    with pytest.raises(TypeError):
        MultilinearPoly(2, 1, {0b01: (0.5,)})
    with pytest.raises(TypeError):
        ValueTable(1, 1, ((Fraction(1),), (0.5,)))



def _unshared(table):
    """An equal table with a new tuple of new Fractions at every mask."""
    rows = tuple(tuple(Fraction(x.numerator, x.denominator) for x in row) for row in table.values)
    return ValueTable(table.n, table.k, rows)


@pytest.mark.parametrize("n, d, k, seed", [(6, 2, 1, 0), (10, 3, 2, 1), (14, 3, 2, 0)])
def test_inverse_wht_shares_one_object_per_distinct_row(n, d, k, seed):
    poly = random_poly(n, d, k, seed)
    table = inverse_wht(poly)
    rows = table.values
    assert len(set(map(id, rows))) == len(set(rows)) < len(rows)
    assert wht(table) == poly
    plain = _unshared(table)
    assert len(set(map(id, plain.values))) == len(rows)
    assert table == plain and repr(table) == repr(plain)
    again = pickle.loads(pickle.dumps(table))
    assert again == plain and repr(again) == repr(plain)
    assert len(set(map(id, again.values))) == len(set(rows))
    assert all(rows[x] == _direct_values(poly, x) for x in range(0, 1 << n, 1 + (1 << n) // 64))


def test_value_table_keeps_repeated_row_objects_shared():
    half, ints, strings = (Fraction(1, 2), Fraction(3)), (1, -2), ("1/3", 4)
    table = ValueTable(3, 2, (half, ints, strings, half, ints, strings, half, ints))
    values = table.values
    # a tuple of Fractions is kept as it is; any other tuple is converted once
    assert values[0] is values[3] is values[6] is half
    assert values[1] is values[4] is values[7] and values[2] is values[5]
    assert values[1] == (Fraction(1), Fraction(-2)) and values[2] == (Fraction(1, 3), Fraction(4))
    assert all(type(x) is Fraction for row in values for x in row)


def test_value_table_of_fresh_tuples_from_a_generator():
    # the generator's tuples are held while they are converted, so a freed
    # tuple's id, reused by the next, never finds another row's conversion
    rows = [(x, Fraction(x, 3)) for x in range(16)]
    table = ValueTable(4, 2, (tuple(list(row)) for row in rows))
    assert table.values == tuple((Fraction(x), Fraction(x, 3)) for x in range(16))


def test_value_table_converts_and_checks_every_list_row():
    reads = []

    class Row(list):
        def __iter__(self):
            reads.append(id(self))
            return super().__iter__()

    row = Row([1, "1/2"])
    table = ValueTable(2, 2, [row, row, [3, 4], row])
    assert reads == [id(row)] * 3
    assert table.values == ((Fraction(1), Fraction(1, 2)),) * 2 + ((Fraction(3), Fraction(4)), (Fraction(1), Fraction(1, 2)))
    assert table.values[0] is not table.values[1]
    # the same iterator twice is read once, and its second row is empty
    it = iter((1, 2))
    with pytest.raises(UsageError, match="length k"):
        ValueTable(1, 2, [it, it])
    with pytest.raises(TypeError):
        ValueTable(1, 2, [[1, 2], [1, 0.5]])

@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_value_at_returns_fractions_equal_to_inverse_wht(n, k):
    ints = random_poly(n, min(n, 3), k, seed=10 * n + k)
    big = MultilinearPoly(n, k, {mask: tuple(x * 2**70 for x in vec) for mask, vec in ints.coeffs.items()})
    sixths = MultilinearPoly(n, k, {mask: tuple(x / 6 for x in vec) for mask, vec in ints.coeffs.items()})
    zero = MultilinearPoly(n, k, {})
    assert ints._den == big._den == zero._den == 1 and sixths._den > 1
    for poly in (ints, big, sixths, zero):
        values = [poly.value_at(x) for x in range(1 << n)]
        assert values == list(inverse_wht(poly).values)
        assert all(type(v) is Fraction for row in values for v in row)


def _direct_values(poly, bits):
    """The reference sum_S c_S * (-1)^|S & x|, in Fractions, term by term."""
    total = [Fraction(0)] * poly.k
    for mask, vec in poly.coeffs.items():
        sign = -1 if (mask & bits).bit_count() & 1 else 1
        total = [t + sign * c for t, c in zip(total, vec)]
    return tuple(total)


def test_value_at_several_groups_with_a_partial_last_group():
    # 70 terms: eight groups of 8 terms and one of 6, in _terms order.
    rng = random.Random(24)
    coeffs = {mask: (Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-40, 40)) for mask in rng.sample(range(1 << 8), 70)}
    poly = MultilinearPoly(8, 2, coeffs)
    assert len(poly._terms) == 70
    assert [poly.value_at(x) for x in range(1 << 8)] == list(inverse_wht(poly).values)


@pytest.mark.parametrize("n", [17, 20])
def test_value_at_terms_touching_three_bytes(n):
    rng = random.Random(n)
    # Each term has a coordinate in bytes 0, 1 and 2 of the mask.
    coeffs = {
        mask_of([rng.randint(1, 8), rng.randint(9, 16), rng.randint(17, n)]): (rng.randint(-5, 5) or 1,) for _ in range(30)
    }
    coeffs[0] = (Fraction(-7, 2),)
    poly = MultilinearPoly(n, 1, coeffs)
    masks = [rng.getrandbits(n) for _ in range(300)] + [0, (1 << n) - 1]
    assert [poly.value_at(x) for x in masks] == [_direct_values(poly, x) for x in masks]


@pytest.mark.parametrize("n", [6, 11])
def test_value_at_wide_fields_rationals_and_negative_totals(n):
    # Entries of 2^100 need fields wider than a byte; the thirds and sevenths
    # make D = 21; every total is negative.
    big = 2**100
    coeffs = {
        0: (-big, Fraction(-5, 3), -3),
        0b1: (big, Fraction(2, 7), -1),
        0b110: (-big + 1, Fraction(-1, 3), Fraction(-9, 7)),
        (1 << n) - 1: (-17, -2, Fraction(4, 21)),
        0b101: (3, Fraction(1, 3), 0),
    }
    poly = MultilinearPoly(n, 3, coeffs)
    assert poly._den == 21
    assert all(sum(col) < 0 for col in zip(*(row for _, row in poly._terms)))
    values = [poly.value_at(x) for x in range(1 << n)]
    assert values == list(inverse_wht(poly).values)
    assert all(type(v) is Fraction for row in values for v in row)


@pytest.mark.parametrize("c", [63, -63, 64, -64, 2**14 - 1, -(2**14), 2**30 - 1, -(2**30), 2**62 - 1, 2**62, -(2**64)])
def test_value_at_field_width_boundaries(c):
    # A field is the least of 1, 2, 4, 8, 16, ... bytes W with 2^(8W - 1)
    # above twice the sum of each term's largest |numerator|: 2 * 63 and
    # 6 * 21 fit one byte, 2 * 64 and 6 * 22 do not; 2^14 - 1, 2^30 - 1 and
    # 2^62 - 1 are the largest single entries of 2, 4 and 8 bytes, and 2^62
    # and 2^64 need 16.
    one = MultilinearPoly(3, 2, {0b101: (c, -c)})
    a = c // 3
    three = MultilinearPoly(3, 2, {0: (a, -a), 0b11: (a, a), 0b110: (-a, a)})
    for poly in (one, three):
        assert [poly.value_at(x) for x in range(8)] == list(inverse_wht(poly).values)


def test_value_at_scattered_terms_at_large_n():
    rng = random.Random(5)
    n = 10**5
    labels = {}
    while len(labels) < 2000:
        subset = rng.sample(range(1, n + 1), 3)
        labels[mask_of(subset)] = subset
    poly = MultilinearPoly(n, 1, {mask: (rng.choice([-3, -2, -1, 1, 2, 3]),) for mask in labels})
    for seed in range(3):
        bits = random.Random(seed).getrandbits(n)
        assert poly.value_at(bits) == _direct_values(poly, bits)
    # One parity table per distinct column: the bytes at one index of a
    # group's masks. A column with one coordinate is one of 8 bits at one
    # of 8 places, so those columns share at most 64 tables.
    masks = [mask for mask, _ in poly._terms]
    columns = set()
    for g in range(0, len(masks), 8):
        group = masks[g : g + 8]
        for j in {(c - 1) >> 3 for mask in group for c in labels[mask]}:
            columns.add(bytes((mask >> 8 * j) & 255 for mask in group))
    groups = poly._tables[2]
    assert len({id(table) for parts, _ in groups for _, table in parts}) == len(columns)
    assert sum(1 for column in columns if sum(x.bit_count() for x in column) == 1) <= 64


def test_value_at_heavy_masks():
    # Masks with hundreds of nonzero bytes, up to the full mask at n = 3000.
    n = 3000
    rng = random.Random(9)
    coeffs = {(1 << n) - 1: (3,), mask_of(range(1, n + 1, 7)): (-2,), mask_of(range(5, n, 250)): (Fraction(1, 3),)}
    poly = MultilinearPoly(n, 1, coeffs)
    for bits in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(5)]:
        assert poly.value_at(bits) == _direct_values(poly, bits)


def test_value_at_empty_poly():
    poly = MultilinearPoly(4, 3, {})
    assert [poly.value_at(x) for x in range(16)] == [(Fraction(0),) * 3] * 16
    assert all(type(v) is Fraction for v in poly.value_at(9))


def test_empty_poly_allocates_nothing_k_long():
    tracemalloc.start()
    try:
        poly = MultilinearPoly(5, 10**8, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert poly.coeffs == {} and poly._terms == ()


def test_evaluation_changes_neither_equality_repr_nor_pickle():
    poly = random_poly(10, 3, 2, seed=4)
    twin = random_poly(10, 3, 2, seed=4)
    before = repr(poly), pickle.dumps(poly)
    assert "_tables" not in vars(poly)
    values = [poly.value_at(x) for x in range(1 << 10)]
    assert "_tables" in vars(poly)
    assert poly == twin and repr(poly) == before[0]
    assert pickle.dumps(poly) == before[1]
    # A second pass reads every value from the map of values: only hits.
    assert 0 < len(_interned(poly)) < 1 << 10
    kept = dict(_interned(poly))
    assert [poly.value_at(x) for x in range(1 << 10)] == values
    assert _interned(poly) == kept
    assert poly == twin and repr(poly) == before[0]
    assert pickle.dumps(poly) == before[1]
    again = pickle.loads(pickle.dumps(poly))
    assert again == poly and "_tables" not in vars(again)
    assert [again.value_at(x) for x in range(1 << 10)] == values
    assert [again.value_at(x) for x in range(1 << 10)] == values
    assert pickle.dumps(again) == before[1]


def _interned(poly):
    """The map from packed sums to returned values in poly's tables."""
    return poly._tables[7]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interned_values_equal_inverse_wht(seed):
    # Few terms of entries in [-4, 4]: 1,024 masks reach far fewer values,
    # so most calls are hits, on the integer path and on Fraction(a, 3).
    ints = random_poly(10, 3, 2, seed)
    thirds = MultilinearPoly(10, 2, {mask: tuple(x / 3 for x in vec) for mask, vec in ints.coeffs.items()})
    assert ints._den == 1 and thirds._den == 3
    for poly in (ints, thirds):
        want = list(inverse_wht(poly).values)
        first = [poly.value_at(x) for x in range(1 << 10)]
        assert first == want
        assert len(_interned(poly)) == len({poly.value_at(x) for x in range(1 << 10)}) < 1 << 9
        again = [poly.value_at(x) for x in range(1 << 10)]
        assert again == want
        assert all(type(v) is Fraction for row in again for v in row)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_interned_fields_never_exceed_the_bound(k):
    # Distinct powers of two on the 14 singletons: all 2^14 values differ.
    n = 14
    poly = MultilinearPoly(n, k, {1 << i: (Fraction(2**i, 7),) + (-(2**i),) * (k - 1) for i in range(n)})
    want = inverse_wht(poly).values
    assert len(set(want)) == 1 << n > _INTERN_FIELDS // k
    for x in range(1 << n):
        assert poly.value_at(x) == want[x]
        assert len(_interned(poly)) * k <= _INTERN_FIELDS
    assert len(_interned(poly)) == _INTERN_FIELDS // k
    assert [poly.value_at(x) for x in range(1 << n)] == list(want)
    assert len(_interned(poly)) == _INTERN_FIELDS // k


def test_k_above_the_bound_or_wide_numbers_intern_nothing():
    k = _INTERN_FIELDS + 1
    wide_k = MultilinearPoly(3, k, {0b101: tuple(range(1, k + 1)), 0: (3,) * k})
    # Fields past 8 bytes, and a common denominator of 2^63.
    wide_fields = MultilinearPoly(3, 1, {0b1: (2**70,), 0b110: (5,)})
    wide_den = MultilinearPoly(3, 1, {0b1: (Fraction(1, 2**63),), 0b110: (5,)})
    for poly in (wide_k, wide_fields, wide_den):
        want = inverse_wht(poly).values
        for _ in range(2):
            assert [poly.value_at(x) for x in range(8)] == list(want)
        assert _interned(poly) == {}


def test_interned_values_at_k_1_hold_under_4_mib():
    # The most a value can hold at k = 1: a numerator and a denominator just
    # under 2^63 (the largest prime there), and an 8-byte key; all 2^15
    # values differ, and the first _INTERN_FIELDS + 64 masks fill the map.
    n, den = 15, 2**63 - 25
    rng = random.Random(3)
    poly = MultilinearPoly(n, 1, {1 << i: (Fraction(rng.randrange(2**57, 2**58), den),) for i in range(n)})
    assert poly._tables is None and poly._den == den
    poly.value_at(0)
    assert poly._tables[4].size == 8
    tracemalloc.start()
    try:
        for x in range(_INTERN_FIELDS + 64):
            poly.value_at(x)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(_interned(poly)) == _INTERN_FIELDS
    assert held < 4 << 20
