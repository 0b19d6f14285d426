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
    """Sparse matrix of the top-coefficient equations for one coefficient vector."""

    n: int
    d: int
    a: tuple[Fraction, ...]
    row_subsets: tuple[tuple[int, ...], ...]
    # Per row, the (column index, coefficient) pairs sorted by column.
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]

    @property
    def num_rows(self) -> int:
        return len(self.row_subsets)

    @property
    def num_cols(self) -> int:
        return math.comb(self.n, self.d)

    def dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.num_cols for _ in range(self.num_rows)]
        for i, row in enumerate(self.rows):
            for col, coeff in row:
                out[i][col] = coeff
        return out

    def apply(self, c: Sequence) -> tuple[Fraction, ...]:
        """Matrix-vector product A c over exact rationals."""
        vec = [exact(x) for x in c]
        if len(vec) != self.num_cols:
            raise UsageError(f"expected {self.num_cols} entries, got {len(vec)}")
        return tuple(
            sum((coeff * vec[col] for col, coeff in row), Fraction(0))
            for row in self.rows
        )


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
    """Assemble the sparse system for coefficients ``a`` and degree ``d``."""
    n = len(a)
    coeffs = check_system(n, d, a)
    if math.comb(n, d + 1) > _MAX_ROWS:
        raise DimensionTooLarge(f"{math.comb(n, d + 1)} rows exceed the cap {_MAX_ROWS}")
    subs = []
    rows = []
    for T in subsets_colex(n, d + 1):
        entries = sorted(
            (colex_rank(T[:pos] + T[pos + 1 :]), coeffs[j - 1])
            for pos, j in enumerate(T)
        )
        subs.append(T)
        rows.append(tuple(entries))
    return KernelSystem(n, d, coeffs, tuple(subs), tuple(rows))


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
