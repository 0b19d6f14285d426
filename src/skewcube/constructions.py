"""Generators for the explicit skew covers.

Four families, all with every coefficient nonzero:

* ``power_of_two_cover(m)``: 2^m planes over n = 2^m + m - 1. Each plane has
  unit coefficients on the first 2^m - 1 coordinates and a sign pattern on
  the powers 2^0..2^(m-1) placed on the last m coordinates. The unit block
  sums to an odd integer k with |k| <= 2^m - 1, and every such k equals one
  signed sum of those powers, so every point lands on exactly one plane.
* ``level_set_cover(n)``: the n+1 planes x_1 + ... + x_n = 2k - n; plane k
  covers exactly the points with k coordinates equal to +1.
* ``balanced_even_cover(n)``: for even n, the interior level sets plus one
  balanced plane that picks up both the all-plus and the all-minus point,
  for a total of n planes.
* ``example_n5()`` / ``example_n6()``: hand-built record families for n = 5
  (four planes) and n = 6 (five planes), coefficients kept verbatim.
"""

from __future__ import annotations

from .cube import CoverFamily, Hyperplane
from .errors import DimensionTooLarge, UsageError

# Cap on a generated family, in planes times n coefficients. It admits
# power_of_two_cover(8), 256 planes over n = 263.
MAX_OUTPUT_CELLS = 1 << 17


def _check_output(cells: int, what: str) -> None:
    if cells > MAX_OUTPUT_CELLS:
        raise DimensionTooLarge(
            f"{what} exceeds the output cap of 2^17 coefficients, planes times n"
        )


def power_of_two_cover(m: int) -> CoverFamily:
    """2^m skew planes covering {-1,1}^n with n = 2^m + m - 1.

    Sign patterns are enumerated as m-bit integers 0..2^m - 1; bit j set
    means a minus sign on the 2^j coefficient.
    """
    if m < 1:
        raise UsageError(f"m must be >= 1, got {m}")
    # 2^m is clipped so that a huge m never builds 1 << m; clipped, it is
    # already over the cap.
    count = 1 << min(m, MAX_OUTPUT_CELLS.bit_length())
    _check_output(count * (count + m - 1), f"m={m} (2^m planes over n = 2^m + m - 1)")
    unit = (1,) * ((1 << m) - 1)
    planes = []
    for pattern in range(1 << m):
        tail = tuple(
            (-1 if (pattern >> j) & 1 else 1) * (1 << j) for j in range(m)
        )
        planes.append(Hyperplane(unit + tail, 0))
    return CoverFamily(tuple(planes))


def level_set_cover(n: int) -> CoverFamily:
    """The n+1 level-set planes x_1 + ... + x_n = 2k - n for k = 0..n.

    The k = 0 and k = n planes have offsets +-n but all unit coefficients,
    so they are still skew.
    """
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    _check_output((n + 1) * n, f"n={n} ({n + 1} planes)")
    ones = (1,) * n
    return CoverFamily(tuple(Hyperplane(ones, n - 2 * k) for k in range(n + 1)))


def balanced_even_cover(n: int) -> CoverFamily:
    """For even n, an n-plane cover: interior level sets plus one balanced plane.

    The balanced plane x_1 + ... + x_{n/2} - x_{n/2+1} - ... - x_n = 0 covers
    both constant points, replacing the two extreme level sets.
    """
    if n < 2 or n % 2:
        raise UsageError(f"n must be even and >= 2, got {n}")
    _check_output(n * n, f"n={n} ({n} planes)")
    ones = (1,) * n
    planes = [Hyperplane(ones, n - 2 * k) for k in range(1, n)]
    planes.append(Hyperplane((1,) * (n // 2) + (-1,) * (n // 2), 0))
    return CoverFamily(tuple(planes))


def example_n5() -> CoverFamily:
    """The four-plane cover of {-1,1}^5, coefficients verbatim."""
    rows = [
        (1, 1, 1, 1, 2),
        (1, 1, 1, -1, 2),
        (1, 1, 1, 1, -2),
        (1, 1, 1, -1, -2),
    ]
    return CoverFamily(tuple(Hyperplane(r, 0) for r in rows))


def example_n6() -> CoverFamily:
    """The five-plane cover of {-1,1}^6, coefficients verbatim."""
    rows = [
        (1, -1, 2, 1, 1, 2),
        (1, -1, 1, 1, 1, -1),
        (1, -1, -1, 2, -2, 1),
        (1, 1, 1, 1, 1, -1),
        (1, -1, -3, 1, 1, -1),
    ]
    return CoverFamily(tuple(Hyperplane(r, 0) for r in rows))
