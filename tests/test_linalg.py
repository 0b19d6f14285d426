import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gram_oracle import block_rows, exact_nullity, modp_rank


def brute_rank(rows, ncols):
    """Largest k with a nonsingular k x k submatrix (permanent-style oracle)."""
    m = [list(map(Fraction, r)) for r in rows]
    nrows = len(m)
    for k in range(min(nrows, ncols), 0, -1):
        for ri in itertools.combinations(range(nrows), k):
            for ci in itertools.combinations(range(ncols), k):
                if det([[m[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


def det(m):
    """Fraction Gaussian elimination determinant."""
    m = [row[:] for row in m]
    n = len(m)
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            for j in range(c, n):
                m[i][j] -= f * m[c][j]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-5, 5), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_exact_and_modp_match_bruteforce(rows):
    ncols = len(rows[0])
    want = brute_rank(rows, ncols)
    assert exact_nullity([r[:] for r in rows], ncols) == ncols - want
    # entries are tiny next to the prime, so no minor can vanish mod p here
    rank, _ = modp_rank(block_rows(rows), ncols)
    assert rank == want


def test_exact_nullity_fraction_rows():
    # every row is a multiple of (1/2, 1/3): rank 1, nullity 1
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(1, 1)],
        [Fraction(1), Fraction(2, 3)],
    ]
    assert exact_nullity(rows, 2) == 1
    assert exact_nullity([[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(5, 7)]], 2) == 0


def test_exact_nullity_rejects_floats():
    for rows in ([[0.5, 1.0]], [[1, 2], [Fraction(1, 2), 0.25]], [[1, np.float64(2)]]):
        with pytest.raises(TypeError, match="float"):
            exact_nullity(rows, 2)


def test_exact_nullity_dependent_rows():
    rows = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    assert exact_nullity(rows, 3) == 1


def test_modp_rank_early_exit_full_rank():
    eye = np.eye(4, dtype=np.int64)
    blocks = [eye[:2], eye[2:], np.ones((1000, 4), dtype=np.int64)]
    assert modp_rank(blocks, 4) == (4, True)


def test_modp_rank_certificates():
    # full row rank with fewer rows than columns: certified
    assert modp_rank(block_rows([[1, 2, 3], [0, 1, 4]]), 3) == (2, True)
    # genuinely deficient both ways: rank correct but not certified
    rank, certified = modp_rank(block_rows([[1, 2], [2, 4], [3, 6]]), 2)
    assert rank == 1 and not certified


def test_zero_matrix():
    assert exact_nullity([[0, 0], [0, 0]], 2) == 2
    rank, certified = modp_rank(block_rows([[0, 0], [0, 0]]), 2)
    assert rank == 0 and not certified
