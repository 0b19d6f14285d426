"""The top-coefficient linear system and its kernel certificate.

For nonzero coefficients a_1..a_n and degree d, the system has one equation
per (d+1)-subset T: sum over j in T of a_j * c_{T minus j} = 0. Rows are the
(d+1)-subsets and columns the d-subsets, both in colex order, so each row has
exactly d+1 nonzeros sitting under the subsets of its own index.

The entry at (T, T minus j) is a_j = prod_T(a) / prod_{T minus j}(a), so the
matrix factors as D_T * W * D_S^-1: W is the 0/1 inclusion matrix of
d-subsets in (d+1)-subsets, and D_T, D_S are the invertible diagonals of
subset products. The rank is therefore that of W, whatever the nonzero a.
W has full rank min(C(n,d), C(n,d+1)) over Q (Gottlieb 1966, Kantor 1972;
Wilson, "A diagonal form for the incidence matrices of t-subsets vs.
k-subsets", 1990), so the nullity is max(0, C(n,d) - C(n,d+1)): zero
whenever n >= 2d + 1, and the Catalan number C(2d,d)/(d+1) at n = 2d.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cube import exact
from .errors import DegreeOutOfRange, DimensionTooLarge, UsageError, ZeroCoefficient
from .subsets import colex_rank, subsets_colex

_MAX_ROWS = 1_000_000


@dataclass(frozen=True)
class KernelSystem:
    """Sparse matrix of the top-coefficient equations for one coefficient
    vector. Its fields are n, d and the checked coefficients a; ``==`` and
    ``repr`` read those alone. The rows are built on first read, so the
    nullity needs none of them, and that read raises ``DimensionTooLarge``
    past 10^6 rows."""

    n: int
    d: int
    a: tuple[Fraction, ...]

    @property
    def num_rows(self) -> int:
        return math.comb(self.n, self.d + 1)

    @functools.cached_property
    def row_subsets(self) -> tuple[tuple[int, ...], ...]:
        """The (d+1)-subsets in colex order, one per row."""
        if self.num_rows > _MAX_ROWS:
            raise DimensionTooLarge(f"{self.num_rows} rows exceed the cap {_MAX_ROWS}")
        return tuple(subsets_colex(self.n, self.d + 1))

    @functools.cached_property
    def rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Per row, the (column index, coefficient) pairs sorted by column."""
        return tuple(
            tuple(sorted((colex_rank(T[:pos] + T[pos + 1 :]), self.a[j - 1]) for pos, j in enumerate(T)))
            for T in self.row_subsets
        )

    @property
    def num_cols(self) -> int:
        return math.comb(self.n, self.d)

    def dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.num_cols for _ in self.rows]
        for dense_row, row in zip(out, self.rows):
            for col, coeff in row:
                dense_row[col] = coeff
        return out

    def apply(self, c: Sequence) -> tuple[Fraction, ...]:
        """Matrix-vector product A c over exact rationals."""
        rows = self.rows
        vec = [exact(x) for x in c]
        if len(vec) != self.num_cols:
            raise UsageError(f"expected {self.num_cols} entries, got {len(vec)}")
        return tuple(sum((coeff * vec[col] for col, coeff in row), Fraction(0)) for row in rows)


def check_system(n: int, d: int, a: Sequence) -> tuple[Fraction, ...]:
    """The coefficients as exact rationals, once n of them, all nonzero, and 0 <= d < n."""
    if len(a) != n:
        raise UsageError(f"expected {n} coefficients, got {len(a)}")
    coeffs = tuple(exact(v) for v in a)
    if any(c == 0 for c in coeffs):
        raise ZeroCoefficient("all coefficients must be nonzero")
    if not 0 <= d < n:
        raise DegreeOutOfRange(f"need 0 <= d < n, got d={d}, n={n}")
    return coeffs


def kernel_nullity(n: int, d: int) -> int:
    """Nullity of the system for any n nonzero coefficients: max(0, C(n,d) - C(n,d+1)).

    Exact by the factorization through the inclusion matrix and its full
    rank (see the module docstring); no system is built.
    """
    return max(0, math.comb(n, d) - math.comb(n, d + 1))


def build_system(a: Sequence, d: int) -> KernelSystem:
    """The sparse system for coefficients ``a`` and degree ``d``, checked by
    ``check_system``; its rows are built when first read."""
    return KernelSystem(len(a), d, check_system(len(a), d, a))


def kernel_dim(system: KernelSystem) -> int:
    """Nullity of the system over the rationals, ``kernel_nullity(n, d)``.

    It does not depend on the coefficients, which ``build_system`` has
    already checked to be nonzero.
    """
    return kernel_nullity(system.n, system.d)


def base_case_det(a1, a2, a3) -> Fraction:
    """Determinant of the 3x3 degree-1 system matrix; identically 2*a1*a2*a3."""
    return 2 * exact(a1) * exact(a2) * exact(a3)


def product_vector(a: Sequence, d: int, K) -> tuple[Fraction, ...]:
    """The vector c with c_S = K * prod of a_i over S, d-subsets in colex order.

    ``a`` and ``d`` are checked as in ``build_system``. The system scales row
    T of c by (d+1) * K * prod over T, so c is in the kernel only for K = 0.
    """
    coeffs = check_system(len(a), d, a)
    scale = exact(K)
    out = []
    for S in subsets_colex(len(coeffs), d):
        prod = scale
        for j in S:
            prod *= coeffs[j - 1]
        out.append(prod)
    return tuple(out)
