import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gram_oracle import exact_nullity
from skewcube.errors import DimensionTooLarge, ZeroCoefficient
from skewcube.kernel import (
    base_case_det,
    build_system,
    kernel_dim,
    product_vector,
)
from skewcube.subsets import subsets_colex

nonzero = st.integers(-9, 9).filter(lambda v: v != 0)


def test_base_case_matrix_rows():
    sys = build_system((1, 2, 3), 1)
    dense = [[int(x) for x in row] for row in sys.dense()]
    # colex rows {1,2}, {1,3}, {2,3}; same rows as the classic display,
    # which lists them in the opposite order
    assert dense == [[2, 1, 0], [3, 0, 1], [0, 3, 2]]
    assert sys.row_subsets == ((1, 2), (1, 3), (2, 3))


def test_single_row_system():
    sys = build_system((5, 7), 1)
    assert sys.num_rows == 1 and sys.num_cols == 2
    assert [[int(x) for x in row] for row in sys.dense()] == [[7, 5]]


def test_row_structure_n5_d2():
    sys = build_system((1, 2, 3, 4, 5), 2)
    assert sys.num_rows == 10 and sys.num_cols == 10
    for T, row in zip(sys.row_subsets, sys.rows):
        assert len(row) == 3
        cols = {c for c, _ in row}
        want = {
            rank
            for rank, S in enumerate(subsets_colex(5, 2))
            if set(S) <= set(T)
        }
        assert cols == want


def test_build_system_rejects_zero_coefficient():
    with pytest.raises(ZeroCoefficient):
        build_system((1, 0, 2), 1)


def test_build_system_row_cap():
    with pytest.raises(DimensionTooLarge):
        build_system((1,) * 30, 14)


def test_kernel_dim_examples():
    assert kernel_dim(build_system((1, 1, 1), 1)) == 0
    assert kernel_dim(build_system((1, 1), 1)) == 1
    assert kernel_dim(build_system((1, 2, 3, 4, 5), 2)) == 0


def test_kernel_dim_rational_coefficients():
    assert kernel_dim(build_system((Fraction(1, 2), Fraction(-3, 7), Fraction(5)), 1)) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_trivial_for_wide_n(d):
    rng = random.Random(f"kernel-{d}")
    for n in (2 * d + 1, 2 * d + 2):
        for _ in range(4):
            a = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
            assert kernel_dim(build_system(a, d)) == 0


def test_kernel_adversarial_vectors():
    # mixed signs and repeated magnitudes
    for a, d in [
        ((1, -1, 1, -1, 1), 2),
        ((2, 2, 2, 2, 2), 2),
        ((1, 1, -1, -1, 2, -2, 1), 3),
    ]:
        assert kernel_dim(build_system(a, d)) == 0


def test_kernel_dim_agrees_with_exact_elimination():
    # both the certified fast path and plain rational elimination, including
    # the boundary n = 2d where the kernel can be nontrivial
    cases = [
        ((1, 1), 1),
        ((1, -2), 1),
        ((1, 1, 1, 1), 2),
        ((1, 2, -1, 3), 2),
        ((2, 3, 5, 7, 11), 2),
        ((1, -1, 2, -2, 3, -3), 3),
    ]
    for a, d in cases:
        sys = build_system(a, d)
        dense = [[f for f in row] for row in sys.dense()]
        assert kernel_dim(sys) == exact_nullity(dense, sys.num_cols)


def test_base_case_det_examples():
    assert base_case_det(1, 1, 1) == 2
    assert base_case_det(1, 2, 3) == 12
    assert base_case_det(0, 5, 7) == 0
    assert base_case_det(Fraction(1, 2), Fraction(2, 3), 3) == 2


def det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


@settings(max_examples=60, deadline=None)
@given(nonzero, nonzero, nonzero)
def test_base_case_det_matches_cofactor_expansion(a1, a2, a3):
    m = [
        [Fraction(0), Fraction(a3), Fraction(a2)],
        [Fraction(a3), Fraction(0), Fraction(a1)],
        [Fraction(a2), Fraction(a1), Fraction(0)],
    ]
    assert base_case_det(a1, a2, a3) == det3(m)


def test_product_vector_examples():
    assert product_vector((1, 2, 3), 1, 1) == (1, 2, 3)
    assert product_vector((1, 2, 3), 1, 0) == (0, 0, 0)
    with pytest.raises(ZeroCoefficient):
        product_vector((1, 0, 3), 1, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.data())
def test_apply_product_vector_identity(d, data):
    n = data.draw(st.integers(d + 1, 7))
    a = tuple(data.draw(nonzero) for _ in range(n))
    K = Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 4)))
    sys = build_system(a, d)
    out = sys.apply(product_vector(a, d, K))
    for T, got in zip(sys.row_subsets, out):
        prod = Fraction(1)
        for j in T:
            prod *= Fraction(a[j - 1])
        assert got == (d + 1) * K * prod


small_rationals = st.builds(Fraction, nonzero, st.integers(1, 5))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kernel_dim_matches_exact_elimination_random(data):
    # one coefficient at or above 2^63 in every case: int64 cannot hold it
    n = data.draw(st.integers(1, 7))
    d = data.draw(st.integers(0, n - 1))
    a = data.draw(st.lists(small_rationals, min_size=n, max_size=n))
    a[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(2**63, 2**90))
    sys = build_system(a, d)
    assert kernel_dim(sys) == exact_nullity(sys.dense(), sys.num_cols)


@pytest.mark.parametrize("d", [-1, 3, 5])
def test_build_system_degree_out_of_range(d):
    from skewcube.errors import DegreeOutOfRange

    with pytest.raises(DegreeOutOfRange):
        build_system((1, 2, 3), d)


@pytest.mark.parametrize("d", [-1, 3, 5])
def test_product_vector_degree_out_of_range(d):
    from skewcube.errors import DegreeOutOfRange

    with pytest.raises(DegreeOutOfRange):
        product_vector((1, 2, 3), d, 1)


@pytest.mark.parametrize("k", [-1, -5, 4])
def test_subsets_colex_out_of_range_is_empty(k):
    assert list(subsets_colex(3, k)) == []
