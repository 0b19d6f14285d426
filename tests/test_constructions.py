import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewcube.constructions import (
    balanced_even_cover,
    example_n5,
    example_n6,
    level_set_cover,
    power_of_two_cover,
)
from skewcube.cube import covered_set, is_skew, verify_cover
from skewcube.errors import DimensionTooLarge, UsageError


def normalized(plane):
    # quotient by plane negation: make the first coefficient positive
    sign = 1 if plane.a[0] > 0 else -1
    return tuple(sign * c for c in plane.a), sign * plane.b


def test_power_of_two_m1():
    fam = power_of_two_cover(1)
    assert fam.n == 2 and len(fam) == 2
    assert {normalized(p) for p in fam} == {((1, 1), 0), ((1, -1), 0)}
    assert verify_cover(fam).covered


def test_power_of_two_m2_matches_handbuilt_n5():
    fam = power_of_two_cover(2)
    assert fam.n == 5 and len(fam) == 4
    assert {normalized(p) for p in fam} == {normalized(p) for p in example_n5()}
    assert verify_cover(fam).covered


def test_power_of_two_m3_covers():
    fam = power_of_two_cover(3)
    assert fam.n == 10 and len(fam) == 8
    assert verify_cover(fam).covered


def test_power_of_two_sizes_and_skewness():
    for m in (1, 2, 3, 4):
        fam = power_of_two_cover(m)
        assert len(fam) == 1 << m
        assert fam.n == (1 << m) + m - 1
        assert all(is_skew(p) for p in fam)


def test_power_of_two_too_large():
    # 512 planes over n = 520 is over the output cap; 10**30 never builds 2^m
    for m in (9, 10**30):
        with pytest.raises(DimensionTooLarge, match="output cap"):
            power_of_two_cover(m)
    with pytest.raises(DimensionTooLarge, match="output cap"):
        level_set_cover(400)
    with pytest.raises(DimensionTooLarge, match="output cap"):
        balanced_even_cover(400)


def test_level_set_n1():
    fam = level_set_cover(1)
    assert {(p.a, p.b) for p in fam} == {((Fraction(1),), Fraction(1)), ((Fraction(1),), Fraction(-1))}
    assert verify_cover(fam).covered


def test_level_set_n3_covers():
    fam = level_set_cover(3)
    assert len(fam) == 4
    assert verify_cover(fam).covered
    assert all(is_skew(p) for p in fam)


def test_level_set_plane_counts():
    # plane k covers exactly the points with k coordinates equal to +1
    fam = level_set_cover(4)
    for k, plane in enumerate(fam):
        pts = covered_set(plane)
        assert len(pts) == math.comb(4, k)
        assert all(p.n - p.weight == k for p in pts)


def test_level_set_middle_plane_n2():
    plane = level_set_cover(2).planes[1]
    assert plane.b == 0
    assert len(covered_set(plane)) == 2


def test_balanced_even_n2():
    fam = balanced_even_cover(2)
    assert len(fam) == 2
    assert {normalized(p) for p in fam} == {normalized(p) for p in power_of_two_cover(1)}
    assert verify_cover(fam).covered


@pytest.mark.parametrize("n", [4, 6])
def test_balanced_even_covers(n):
    fam = balanced_even_cover(n)
    assert len(fam) == n
    assert all(is_skew(p) for p in fam)
    assert verify_cover(fam).covered


def test_balanced_rejects_odd():
    with pytest.raises(UsageError):
        balanced_even_cover(5)


def test_example_n5_verbatim():
    fam = example_n5()
    assert [tuple(int(c) for c in p.a) for p in fam] == [
        (1, 1, 1, 1, 2),
        (1, 1, 1, -1, 2),
        (1, 1, 1, 1, -2),
        (1, 1, 1, -1, -2),
    ]
    assert all(p.b == 0 for p in fam)
    assert verify_cover(fam).covered


def test_example_n6_verbatim():
    fam = example_n6()
    assert len(fam) == 5
    assert [tuple(int(c) for c in p.a) for p in fam] == [
        (1, -1, 2, 1, 1, 2),
        (1, -1, 1, 1, 1, -1),
        (1, -1, -1, 2, -2, 1),
        (1, 1, 1, 1, 1, -1),
        (1, -1, -3, 1, 1, -1),
    ]
    assert all(p.b == 0 for p in fam)
    assert all(is_skew(p) for p in fam)
    assert verify_cover(fam).covered


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6))
def test_odd_sum_representability(m):
    # every odd k with |k| <= 2^m - 1 is a signed sum of 2^0..2^(m-1)
    sums = {0}
    for j in range(m):
        sums = {s + (1 << j) for s in sums} | {s - (1 << j) for s in sums}
    assert sums == set(range(-(1 << m) + 1, 1 << m, 2))
