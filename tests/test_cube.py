import copy
import dataclasses
import itertools
import math
import pickle
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skewcube import cube
from skewcube.cube import (
    CoverFamily,
    CoverReport,
    CubePoint,
    Hyperplane,
    covered_set,
    covers,
    evaluate,
    is_skew,
    verify_cover,
)
from skewcube.constructions import level_set_cover, power_of_two_cover
from skewcube.errors import DimensionMismatch, DimensionTooLarge, EmptyFamily
from skewcube.fourier import w_set
from skewcube.interpolation import build_scheme
from skewcube.search import candidate_pool

nonzero_coeff = st.integers(-5, 5).filter(lambda v: v != 0)


@st.composite
def skew_planes(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    a = tuple(draw(nonzero_coeff) for _ in range(n))
    b = draw(st.integers(-6, 6))
    return Hyperplane(a, b)


def brute_covered(plane, n):
    """Independent oracle: evaluate the affine form point by point."""
    out = set()
    for bits in range(1 << n):
        x = [-1 if (bits >> j) & 1 else 1 for j in range(n)]
        if sum(c * xi for c, xi in zip(plane.a, x)) + plane.b == 0:
            out.add(bits)
    return out


def test_eval_all_ones():
    p = Hyperplane((1, 1, 1), 0)
    assert evaluate(p, CubePoint(0, 3)) == 3


def test_eval_hand_sum():
    p = Hyperplane((1, 1, 1, 1, 2), 0)
    pt = CubePoint.from_coords([1, 1, -1, -1, 1])
    assert evaluate(p, pt) == 2


def test_eval_symmetric_cancellation():
    p = Hyperplane((1, -1), 0)
    pt = CubePoint.from_coords([-1, -1])
    assert evaluate(p, pt) == 0
    assert covers(p, pt)


def test_eval_rational_exact():
    p = Hyperplane((Fraction(1, 2), Fraction(-1, 3)), Fraction(1, 6))
    pt = CubePoint.from_coords([-1, 1])
    assert evaluate(p, pt) == Fraction(-1, 2) - Fraction(1, 3) + Fraction(1, 6)


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evaluate(Hyperplane((1, 1), 0), CubePoint(0, 3))


def test_floats_rejected():
    with pytest.raises(TypeError):
        Hyperplane((1.0, 2), 0)
    # a float anywhere, with int or Fraction neighbours, takes no fast path
    for a, b in [((1, 0.5), 0), ((1, 2), 0.0), ((Fraction(1, 2), 1), 2.5)]:
        with pytest.raises(TypeError, match="float"):
            Hyperplane(a, b)
    # exact hands a Fraction back as it is and refuses numpy floats too
    q = Fraction(-7, 3)
    assert cube.exact(q) is q
    with pytest.raises(TypeError, match="float"):
        cube.exact(np.float64(0.5))


def test_covers_odd_sum_never_zero():
    p = Hyperplane((1, 1, 1), 0)
    assert all(not covers(p, CubePoint(bits, 3)) for bits in range(8))


def test_covers_two_dim():
    p = Hyperplane((1, 1), 0)
    assert covers(p, CubePoint.from_coords([1, -1]))
    assert not covers(p, CubePoint.from_coords([1, 1]))


def test_is_skew():
    assert is_skew(Hyperplane((1, 1, 1), 0))
    assert not is_skew(Hyperplane((1, 0, 1), 2))
    assert is_skew(Hyperplane((Fraction(1, 2), -3, 7), 0))


def test_covered_set_two_dim():
    got = covered_set(Hyperplane((1, 1), 0))
    assert {p.bits for p in got} == {0b01, 0b10}


def test_covered_set_single_minus():
    got = covered_set(Hyperplane((1, 1, 1), -1))
    assert {p.bits for p in got} == {0b001, 0b010, 0b100}
    assert all(p.weight == 1 for p in got)


def test_covered_set_powers_of_two_empty():
    assert covered_set(Hyperplane((1, 2, 4), 0)) == set()


def test_covered_set_unpacks_only_nonzero_words():
    # The plane's sum is odd, so it meets no point. Its row of words takes
    # 2 MiB at n = 24; the whole row unpacked would add 16 MiB.
    import tracemalloc

    tracemalloc.start()
    try:
        got = covered_set(Hyperplane((1,) * 23 + (3,), 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == set()
    assert peak < 4 << 20


def test_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        covered_set(Hyperplane((1,) * 25, 0))
    # no two columns agree up to sign: 25 singleton classes, 2^25 class points
    distinct = CoverFamily((Hyperplane(tuple(range(1, 26)), 0),))
    with pytest.raises(DimensionTooLarge, match="class points"):
        verify_cover(distinct)
    # one class of 25 columns is 26 class points, far under the cap; a sum
    # of 25 odd terms is never 0
    assert verify_cover(CoverFamily((Hyperplane((1,) * 25, 0),))).num_uncovered == 1 << 25


def test_empty_family_rejected():
    with pytest.raises(EmptyFamily):
        CoverFamily(())


def test_mixed_dimension_family_rejected():
    with pytest.raises(DimensionMismatch):
        CoverFamily((Hyperplane((1, 1), 0), Hyperplane((1, 1, 1), 0)))


def test_verify_single_plane_not_a_cover():
    report = verify_cover(CoverFamily((Hyperplane((1, 1), 0),)))
    assert not report.covered
    assert report.num_uncovered == 2
    assert [p.bits for p in report.uncovered_sample] == [0b00, 0b11]
    assert report.per_plane_counts == (2,)


def test_verify_report_consistency():
    fam = CoverFamily((Hyperplane((1, 1), 0), Hyperplane((1, -1), 0)))
    report = verify_cover(fam)
    assert report.covered and report.num_uncovered == 0
    assert report.uncovered_sample == ()


def test_verify_matches_union_of_covered_sets():
    planes = (
        Hyperplane((1, 2, -1), 0),
        Hyperplane((1, 1, 1), -1),
        Hyperplane((1, 1, 1), 1),
        Hyperplane((2, -1, -1), 0),
    )
    fam = CoverFamily(planes)
    union = set()
    for p in planes:
        union |= {q.bits for q in covered_set(p)}
    report = verify_cover(fam)
    assert report.covered == (len(union) == 8)
    assert report.num_uncovered == 8 - len(union)


def test_verify_workers_and_chunking_agree():
    fam = CoverFamily(
        (
            Hyperplane((1, 1, 1, 1), 0),
            Hyperplane((1, 1, 1, 1), 2),
            Hyperplane((1, 1, 1, 1), -2),
        )
    )
    base = verify_cover(fam)
    chunked = verify_cover(fam, chunk_bits=2)
    parallel = verify_cover(fam, workers=2, chunk_bits=2)
    assert base == chunked == parallel


def test_uncovered_sample_capped_at_32():
    # a plane of distinct powers of two covers nothing; all 64 points of
    # n = 6 are uncovered but the sample stays at 32, mask-ascending
    fam = CoverFamily((Hyperplane((1, 2, 4, 8, 16, 32), 0),))
    report = verify_cover(fam)
    assert report.num_uncovered == 64
    assert [p.bits for p in report.uncovered_sample] == list(range(32))


def test_middle_binomial_bound_structured_n14():
    middle = Hyperplane((1,) * 14, 0)
    assert len(covered_set(middle)) == math.comb(14, 7)


def test_bigint_fallback_agrees_with_int64_path():
    huge = 1 << 70
    small = Hyperplane((1, 1, -1), 0)
    scaled = Hyperplane((huge, huge, -huge), 0)
    assert {p.bits for p in covered_set(small)} == {p.bits for p in covered_set(scaled)}
    r1 = verify_cover(CoverFamily((small,)))
    r2 = verify_cover(CoverFamily((scaled,)))
    assert (r1.num_uncovered, r1.per_plane_counts) == (r2.num_uncovered, r2.per_plane_counts)


@settings(max_examples=60, deadline=None)
@given(skew_planes())
def test_covered_set_matches_bruteforce(plane):
    assert {p.bits for p in covered_set(plane)} == brute_covered(plane, plane.n)


@settings(max_examples=60, deadline=None)
@given(skew_planes())
def test_covered_set_middle_binomial_bound(plane):
    n = plane.n
    assert len(covered_set(plane)) <= math.comb(n, n // 2)


@settings(max_examples=40, deadline=None)
@given(skew_planes(max_n=5), st.data())
def test_sign_equivariance(plane, data):
    j = data.draw(st.integers(0, plane.n - 1))
    flipped = Hyperplane(
        tuple(-c if i == j else c for i, c in enumerate(plane.a)), plane.b
    )
    want = {p.bits ^ (1 << j) for p in covered_set(plane)}
    assert {p.bits for p in covered_set(flipped)} == want


@settings(max_examples=40, deadline=None)
@given(skew_planes(max_n=5), st.data())
def test_permutation_equivariance(plane, data):
    n = plane.n
    perm = data.draw(st.permutations(range(n)))
    permuted = Hyperplane(tuple(plane.a[perm[j]] for j in range(n)), plane.b)

    def relabel(bits):
        out = 0
        for j in range(n):
            if (bits >> perm[j]) & 1:
                out |= 1 << j
        return out

    want = {relabel(p.bits) for p in covered_set(plane)}
    assert {p.bits for p in covered_set(permuted)} == want


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_antichain_for_positive_planes(n, data):
    a = tuple(data.draw(st.integers(1, 5)) for _ in range(n))
    b = data.draw(st.integers(-n, n))
    masks = [p.bits for p in covered_set(Hyperplane(a, b))]
    for p in masks:
        for q in masks:
            if p != q:
                assert p & ~q != 0  # p is not a subset of q


def brute_report(family):
    """Independent oracle for verify_cover: evaluate every plane at every point."""
    n = family.n
    counts = [0] * len(family)
    uncovered = []
    for bits in range(1 << n):
        point = CubePoint(bits, n)
        hits = [evaluate(p, point) == 0 for p in family]
        for i, hit in enumerate(hits):
            counts[i] += hit
        if not any(hits):
            uncovered.append(point)
    return CoverReport(
        covered=not uncovered,
        num_uncovered=len(uncovered),
        uncovered_sample=tuple(uncovered[:32]),
        per_plane_counts=tuple(counts),
    )


@st.composite
def skew_families(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, 4))
    planes = []
    for _ in range(k):
        a = tuple(draw(nonzero_coeff) for _ in range(n))
        planes.append(Hyperplane(a, draw(st.integers(-n, n))))
    return CoverFamily(tuple(planes))


def scaled(family, scales):
    return CoverFamily(
        tuple(Hyperplane(tuple(s * c for c in p.a), s * p.b) for p, s in zip(family, scales))
    )


@settings(max_examples=60, deadline=None)
@given(skew_families(), st.data())
def test_object_branch_across_chunks_matches_bruteforce(family, data):
    # factors of at least 2^62 push every plane past the int64 bound, and
    # chunk_bits=2 splits n >= 3 into several chunks, so the high bits of
    # each chunk's base mask enter the target
    scales = [data.draw(st.integers(1 << 62, 1 << 90)) for _ in family]
    big = scaled(family, scales)
    assert not cube._int64_safe([p._row for p in big])
    report = verify_cover(big, chunk_bits=2)
    assert report == brute_report(big)
    assert report == verify_cover(family, chunk_bits=2)


@st.composite
def block_families(draw):
    n = draw(st.integers(1, 6))
    planes = [
        Hyperplane(tuple(draw(nonzero_coeff) for _ in range(n)), draw(st.integers(-n, n)))
        for _ in range(draw(st.integers(1, 40)))
    ]
    return CoverFamily(tuple(planes)), draw(st.integers(n + 1, n + 3))


# n = 8 with chunk_bits 6 splits the cube into four chunks of one 64-bit
# word each, one plane per block, so each chunk's word offset is checked.
WORD_CHUNKS = CoverFamily(
    tuple(Hyperplane((1,) * 8, b) for b in (-4, 0, 2))
    + (Hyperplane((1, 2, 3, 4, -1, -2, -3, -4), 0), Hyperplane((1, -1, 2, -2, 3, -3, 1, 1), 2))
)


@settings(max_examples=40, deadline=None)
@given(block_families(), st.integers(1 << 63, 1 << 90))
@example((WORD_CHUNKS, 6), 1 << 63)
def test_plane_blocks_match_bruteforce(family_bits, scale):
    # chunk_bits above n puts 2 to 8 planes in one block of the single
    # chunk, so block boundaries fall inside the family; the scaled copy
    # keeps every zero set and takes the object dtype
    family, chunk_bits = family_bits
    n = family.n
    want_pairs = [(i, m) for i, p in enumerate(family) for m in sorted(brute_covered(p, n))]
    want = brute_report(family)
    for fam, dtype in ((family, np.int64), (scaled(family, [scale] * len(family)), object)):
        a, b = cube._plane_arrays([p._row for p in fam], n)
        assert a.dtype == dtype
        words = cube._bitsets(a, b, n, chunk_bits)
        assert words.shape == (len(fam), max(1, (1 << n) // 64))
        hit = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        assert not hit[:, 1 << n :].any()  # the padding of n < 6 stays clear
        planes, masks = np.nonzero(hit)
        assert list(zip(planes.tolist(), masks.tolist())) == want_pairs
        assert verify_cover(fam, chunk_bits=chunk_bits) == want


def test_reports_identical_across_workers_and_chunks():
    # five level planes of n = 7 miss the weights 0, 6 and 7, and a sixth
    # plane meets one of those 9 points, so 8 stay uncovered
    family = CoverFamily(
        tuple(Hyperplane((1,) * 7, b) for b in (-5, -3, -1, 1, 3))
        + (Hyperplane((1, 2, 3, -1, -2, -3, 1), 1),)
    )
    big = scaled(family, [(1 << 70) + 3] * len(family))
    for fam in (family, big):
        want = brute_report(fam)
        # a worker count below 1 runs serially
        for workers in (-1, 0, 1, 2):
            for chunk_bits in (1, 3, 5, 18):
                assert verify_cover(fam, workers=workers, chunk_bits=chunk_bits) == want


def test_pool_size_clamped(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cube, "_process_pool", RecordingPool)
    monkeypatch.setattr(cube.os, "cpu_count", lambda: 3)
    # no two columns agree up to sign, so the class grid is all 16 masks
    fam = CoverFamily((Hyperplane((1, 2, 3, 4), 0), Hyperplane((1, 2, 3, 4), 2)))
    base = verify_cover(fam)
    # 16 chunks, clamped by the cpu count; 2 chunks, clamped by the chunks
    assert verify_cover(fam, workers=8, chunk_bits=0) == base
    assert verify_cover(fam, workers=8, chunk_bits=3) == base
    assert sizes == [3, 2]
    # one chunk, one worker or no cpu count reported: no pool at all
    assert verify_cover(fam, workers=8) == base
    assert verify_cover(fam, workers=1, chunk_bits=0) == base
    monkeypatch.setattr(cube.os, "cpu_count", lambda: None)
    assert verify_cover(fam, workers=8, chunk_bits=0) == base
    assert sizes == [3, 2]


big_rational = st.builds(
    Fraction,
    st.integers(1 << 63, 1 << 90) | st.integers(-(1 << 90), -(1 << 63)),
    st.integers(1, 1 << 40),
).filter(lambda q: abs(q.numerator) >= 1 << 63)


@settings(max_examples=80, deadline=None)
@given(st.lists(big_rational | st.fractions(max_denominator=50), min_size=2, max_size=7))
def test_integerized_matches_fraction_arithmetic(values):
    plane = Hyperplane(tuple(values[1:]), values[0])
    den = math.lcm(*(v.denominator for v in values))
    a_int, b_int, got_den = plane._row
    assert got_den == den
    assert a_int == tuple(int(c * den) for c in plane.a)
    assert b_int == int(plane.b * den)
    assert all(type(v) is int for v in (*a_int, b_int))


def lcm_row(plane):
    """The integer row by the lcm formula, read off the plane's fields."""
    den = math.lcm(plane.b.denominator, *(c.denominator for c in plane.a))
    return (
        tuple(c.numerator * (den // c.denominator) for c in plane.a),
        plane.b.numerator * (den // plane.b.denominator),
        den,
    )


plane_inputs = st.one_of(
    st.integers(-2000, 2000),
    st.integers(-(1 << 70), 1 << 70),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50).map(lambda q: f"{q.numerator}/{q.denominator}"),
    st.integers(-100, 100).map(np.int64),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-2000, 2000), min_size=2, max_size=7) | st.lists(plane_inputs, min_size=2, max_size=7))
def test_stored_row_matches_the_lcm_formula(values):
    plane = Hyperplane(tuple(values[1:]), values[0])
    assert all(type(c) is Fraction for c in (*plane.a, plane.b))
    assert plane._row == lcm_row(plane)
    # the row is no field: equality, hashing and repr ignore it
    twin = Hyperplane(plane.a, plane.b)
    object.__setattr__(twin, "_row", None)
    assert twin == plane and hash(twin) == hash(plane) and repr(twin) == repr(plane)
    clone = pickle.loads(pickle.dumps(plane))
    assert clone == plane and hash(clone) == hash(plane) and repr(clone) == repr(plane)
    assert clone._row == plane._row
    # the shared int Fractions stay within their bound
    assert cube._fraction.cache_info().currsize <= 1024


def test_cube_point_range_without_building_two_to_the_n():
    from skewcube.errors import UsageError

    assert CubePoint(1, 10**30).weight == 1
    assert CubePoint((1 << 40) - 1, 40).weight == 40
    for bits, n in [(1 << 40, 40), (-1, 3), (1 << 10**6, 10**6), (8, 3)]:
        with pytest.raises(UsageError):
            CubePoint(bits, n)


@pytest.mark.parametrize("bits, n", [(0, 1), (1, 1), (0b1011, 4), ((1 << 24) - 1, 24), (1 << 99, 100)])
def test_built_points_equal_the_checked_one(bits, n):
    checked = CubePoint(bits, n)
    w = bits.bit_count()
    built = [build_scheme(n, 2, 0, ()).atoms[0][0]]
    if n <= 24:
        # the level plane through the point's weight
        level = covered_set(Hyperplane((1,) * n, 2 * w - n))
        assert checked in level
        built += level
    if n <= 16:
        built += w_set(n, max(w, 2))
    if n >= 5:
        built += [pt for pt, _, _ in build_scheme(n, 2, 2, (2, n)).atoms]
    for point in built:
        twin = CubePoint(point.bits, n)
        assert type(point) is CubePoint and point.n == n and 0 <= point.bits < 1 << n
        assert point == twin and hash(point) == hash(twin) and repr(point) == repr(twin)
        assert pickle.dumps(point) == pickle.dumps(twin)
    assert checked.weight == w and checked.coords() == tuple(-1 if bits >> j & 1 else 1 for j in range(n))


def _sample_planes():
    return [
        Hyperplane((1, -2, 3), 4),
        Hyperplane((Fraction(1, 3), 2), "5/6"),
        Hyperplane._from_int_row((1, 1), 0, (Fraction(1), Fraction(1))),
        *candidate_pool(3, 1, 1)[:2],
    ]


def test_points_and_planes_hold_no_instance_dict():
    points = [CubePoint(5, 4), CubePoint.from_coords([1, -1]), *w_set(4, 2)]
    points += covered_set(Hyperplane((1, 1, 1, 1), 0))
    points += [pt for pt, _, _ in build_scheme(5, 2, 2, (1, 2)).atoms]
    for obj in points + _sample_planes():
        assert not hasattr(obj, "__dict__"), obj
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "extra", 1)


def test_points_and_planes_round_trip_pickle_copy_and_replace():
    for obj in [CubePoint(0, 1), CubePoint(1 << 99, 100), *_sample_planes()]:
        for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), dataclasses.replace(obj)):
            assert type(clone) is type(obj)
            assert clone == obj and hash(clone) == hash(obj) and repr(clone) == repr(obj)
            if isinstance(obj, Hyperplane):
                assert clone._row == obj._row
    plane = Hyperplane((Fraction(1, 2), 3), 1)
    moved = dataclasses.replace(plane, b=Fraction(1, 3))
    assert moved == Hyperplane(plane.a, Fraction(1, 3)) and moved._row == ((3, 18), 2, 6)
    with pytest.raises(ValueError):
        dataclasses.replace(plane, _row=None)


def _coords_reference(point):
    return tuple(-1 if (point.bits >> j) & 1 else 1 for j in range(point.n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200), st.randoms(use_true_random=False))
def test_point_methods_match_the_per_coordinate_definition(n, rng):
    point = CubePoint(rng.getrandbits(n), n)
    x = _coords_reference(point)
    assert point.coords() == x
    assert CubePoint.from_coords(x) == point and CubePoint.from_coords(list(x)) == point
    a = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))
    plane = Hyperplane(a, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    assert evaluate(plane, point) == sum(c * xi for c, xi in zip(plane.a, x)) + plane.b


def test_point_methods_are_linear_in_n():
    n = 10**6
    # bit j is set for odd j, so coordinates 2, 4, ..., n are -1
    point = CubePoint(int("10" * (n // 2), 2), n)
    plane = Hyperplane((1, 2) * (n // 2), 0)
    start = time.perf_counter()
    x = point.coords()
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    value = evaluate(plane, point)
    assert time.perf_counter() - start < 1
    assert x[:4] == (1, -1, 1, -1) and x.count(-1) == n // 2
    assert value == 3 * n // 2 - 4 * (n // 2)
    assert CubePoint.from_coords(x) == point


def test_binomial_rows_match_math_comb():
    for s in range(65):
        assert cube._binomial_row(s) == [math.comb(s, t) for t in range(s + 1)]


@pytest.mark.parametrize("chunk_bits", [cube._CHUNK_BITS, 4])
def test_two_level_planes_at_n_2000_count_exactly(chunk_bits):
    # one class of 2,000 coordinates; at 4 chunk bits its digit is a high one
    n = 2000
    family = CoverFamily((Hyperplane((1,) * n, 0), Hyperplane((1,) * n, 2)))
    report = verify_cover(family, chunk_bits=chunk_bits)
    low, high = math.comb(n, n // 2), math.comb(n, n // 2 + 1)
    assert report.per_plane_counts == (low, high)
    assert report.num_uncovered == 2**n - low - high
    assert [pt.bits for pt in report.uncovered_sample] == list(range(32))


def test_weights_past_int64_beside_singleton_low_digits_stay_exact():
    # 18 singletons fill a chunk, so the class of 63 is a high digit whose
    # weights reach C(63, 31) ~ 2^59; a chunk's count times one passes 2^63
    singles, size = 18, 63
    family = CoverFamily((Hyperplane(tuple(range(1, singles + 1)) + (1000,) * size, -999),))
    signs = 1 - 2 * ((np.arange(1 << singles)[:, None] >> np.arange(singles)) & 1)
    low = np.bincount(signs @ np.arange(1, singles + 1) + 171, minlength=343)
    want = 0
    for t in range(size + 1):
        s = 999 - 1000 * (size - 2 * t)  # the singleton sum the plane needs
        if -171 <= s <= 171:
            want += int(low[s + 171]) * math.comb(size, t)
    assert verify_cover(family).per_plane_counts == (want,)


@st.composite
def class_families(draw, max_n=12):
    """Families whose columns repeat: every coordinate takes one of a few base
    columns, negated or not, and some bases have zero entries."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, 4))
    coeff = st.integers(-3, 3)
    bases = [[draw(coeff) for _ in range(k)] for _ in range(draw(st.integers(1, min(n, 4))))]
    cols = [
        [draw(st.sampled_from((1, -1))) * c for c in draw(st.sampled_from(bases))]
        for _ in range(n)
    ]
    return CoverFamily(
        tuple(
            Hyperplane(tuple(col[i] for col in cols), draw(st.integers(-n, n)))
            for i in range(k)
        )
    )


@settings(max_examples=30, deadline=None)
@given(class_families(), st.data())
def test_class_reduction_matches_bruteforce(family, data):
    # each plane is rescaled by its own rational, and by 2^64 (the object
    # dtype) one time in four; the classes are found after each plane is
    # integerized on its own
    big = data.draw(st.booleans()) and data.draw(st.booleans())
    scales = [
        Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))) * (1 << 64 if big else 1)
        for _ in family
    ]
    fam = scaled(family, scales)
    want = brute_report(fam)
    for chunk_bits in (0, 1, 3, 18):
        assert verify_cover(fam, chunk_bits=chunk_bits) == want
    for chunk_bits in (0, 2):
        assert verify_cover(fam, workers=2, chunk_bits=chunk_bits) == want


def smallest_masks_of_weight(n, w, count):
    """The count smallest n-bit masks with w bits set (Gosper's hack)."""
    out, m = [], (1 << w) - 1
    while len(out) < count and m < 1 << n:
        out.append(m)
        low = m & -m
        ripple = m + low
        m = ripple | (((m ^ ripple) >> 2) // low)
    return out


def test_level_set_64_minus_one_level():
    # plane k covers the C(64, k) points with k coordinates +1, that is
    # the masks of weight 64 - k; the 65 class points stand for 2^64 masks
    n, gone = 64, 40
    fam = CoverFamily(tuple(p for k, p in enumerate(level_set_cover(n)) if k != gone))
    report = verify_cover(fam)
    assert report.per_plane_counts == tuple(math.comb(n, k) for k in range(n + 1) if k != gone)
    assert report.num_uncovered == math.comb(n, gone)
    assert not report.covered
    masks = [p.bits for p in report.uncovered_sample]
    assert all(bin(m).count("1") == n - gone for m in masks)
    assert masks == smallest_masks_of_weight(n, n - gone, 32)


@pytest.mark.parametrize("m", [5, 6, 7])
def test_power_of_two_cover_counts(m):
    # n = 36, 69, 134: one class of 2^m - 1 columns and m singletons. A
    # point lies on the plane whose signed powers cancel its unit sum, so
    # plane p covers sum over tails y of C(2^m - 1, k) points, where the
    # unit block has k coordinates -1 and sums to -(sum_j eps_j 2^j y_j)
    fam = power_of_two_cover(m)
    units = (1 << m) - 1
    want = []
    for p in range(1 << m):
        count = 0
        for y in range(1 << m):
            tail = sum((-1 if (p >> j) & 1 else 1) * (-1 if (y >> j) & 1 else 1) << j for j in range(m))
            if (units + tail) % 2 == 0 and 0 <= (units + tail) // 2 <= units:
                count += math.comb(units, (units + tail) // 2)
        want.append(count)
    report = verify_cover(fam)
    assert report.covered and report.per_plane_counts == tuple(want)
    assert sum(want) == 1 << fam.n


def per_row_int64_safe(planes_int):
    """The dtype rule _plane_arrays keeps, one Python sum per row: int64 iff
    4 (|b| + sum|a_j|) < 2^62 for every row."""
    return all(4 * (abs(b) + sum(abs(c) for c in a)) < 1 << 62 for a, b, _ in planes_int)


# Magnitudes around every threshold of the decision: the bound 2^62 / (4 (n + 1))
# for n up to 7, the per-row limit 2^60, and the int64 range 2^63.
edge_magnitudes = st.sampled_from(
    [(1 << 62) // (4 * (n + 1)) + d for n in range(1, 8) for d in (-1, 0, 1)]
    + [(1 << 60) + d for d in (-1, 0, 1)]
    + [(1 << 59) + d for d in (-1, 0, 1)]
    + [(1 << 63) + d for d in (-1, 0, 1)]
)
row_entries = (
    st.integers(-3, 3) | st.integers(-(1 << 64), 1 << 64) | edge_magnitudes | edge_magnitudes.map(lambda v: -v)
)


@st.composite
def int_rows(draw):
    n = draw(st.integers(1, 7))
    rows = [
        (tuple(draw(row_entries) for _ in range(n)), draw(row_entries), 1)
        for _ in range(draw(st.integers(0, 5)))
    ]
    return rows, n


@settings(max_examples=300, deadline=None)
@given(int_rows())
@example(([((1 << 59,), (1 << 59) - 1, 1)], 1))  # 4 (|b| + sum|a|) = 2^62 - 4
@example(([((1 << 58, -(1 << 58), 1 << 58), -((1 << 58) - 1), 1)], 3))  # the same, mixed signs
@example(([((1 << 59, -(1 << 58)), 1 << 58, 1)], 2))  # 4 (|b| + sum|a|) = 2^62
@example(([((1, 1), 0, 1), ((1 << 59, 1 << 58), -(1 << 58), 1)], 2))  # one row of 2^62 among small ones
@example(([((1 << 63,), 0, 1)], 1))  # past int64
@example(([((-(1 << 63),), 0, 1)], 1))  # the int64 minimum, whose negation overflows
@example(([((1, -2), 1 << 63, 1)], 2))  # an offset past int64
@example(([((2, 1), -(1 << 63), 1)], 2))  # an offset of -2^63
@example(([((1 << 59, 1, -1), 0, 1)], 3))  # past the bound 4 (n + 1) max|entry|, yet below 2^62
@example(([], 4))
def test_plane_arrays_dtype_is_the_per_row_rule(rows_n):
    rows, n = rows_n
    a, b = cube._plane_arrays(rows, n)
    dtype = np.int64 if per_row_int64_safe(rows) else object
    assert a.dtype == dtype and b.dtype == dtype
    assert a.shape == (len(rows), n)
    assert a.tolist() == [list(r[0]) for r in rows]
    assert b.tolist() == [r[1] for r in rows]


def test_bigint_benchmark_family_takes_the_object_path():
    # level_set_cover(8) with each plane times +-(p/q) 2^62, p, q in 1..9, as
    # the benchmark's bigint verify family is built
    for p, q, sign in itertools.product(range(1, 10), range(1, 10), (1, -1)):
        r = Fraction(sign * p, q) * (1 << 62)
        family = [Hyperplane(tuple(r * c for c in plane.a), r * plane.b) for plane in level_set_cover(8)]
        rows = [plane._row for plane in family]
        a, b = cube._plane_arrays(rows, 8)
        assert not per_row_int64_safe(rows)
        assert a.dtype == object and b.dtype == object
