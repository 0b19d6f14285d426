import math
import pickle
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
    got = covered_set(Hyperplane((1, 1), 0), 2)
    assert {p.bits for p in got} == {0b01, 0b10}


def test_covered_set_single_minus():
    got = covered_set(Hyperplane((1, 1, 1), -1), 3)
    assert {p.bits for p in got} == {0b001, 0b010, 0b100}
    assert all(p.weight == 1 for p in got)


def test_covered_set_powers_of_two_empty():
    assert covered_set(Hyperplane((1, 2, 4), 0), 3) == set()


def test_covered_set_rejects_mismatched_n():
    with pytest.raises(DimensionMismatch):
        covered_set(Hyperplane((1, 1), 0), 3)


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
    assert not cube._int64_safe([cube._integerized(p) for p in big])
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
        a, b = cube._plane_arrays([cube._integerized(p) for p in fam], n)
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

    monkeypatch.setattr(cube, "ProcessPoolExecutor", RecordingPool)
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
    a_int, b_int, got_den = cube._integerized(plane)
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
    assert cube._integerized(plane) == lcm_row(plane)
    # the row is no field: equality, hashing and repr ignore it
    twin = Hyperplane(plane.a, plane.b)
    object.__setattr__(twin, "_row", None)
    assert twin == plane and hash(twin) == hash(plane) and repr(twin) == repr(plane)
    clone = pickle.loads(pickle.dumps(plane))
    assert clone == plane and hash(clone) == hash(plane) and repr(clone) == repr(plane)
    assert cube._integerized(clone) == cube._integerized(plane)
    # the shared int Fractions stay within their bound
    assert cube._fraction.cache_info().currsize <= 1024


def test_cube_point_range_without_building_two_to_the_n():
    from skewcube.errors import UsageError

    assert CubePoint(1, 10**30).weight == 1
    assert CubePoint((1 << 40) - 1, 40).weight == 40
    for bits, n in [(1 << 40, 40), (-1, 3), (1 << 10**6, 10**6), (8, 3)]:
        with pytest.raises(UsageError):
            CubePoint(bits, n)


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
