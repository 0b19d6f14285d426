"""Multilinear maps on {-1,1}^n in coefficient and point-value form.

A coefficient table maps subset bitmasks to rational vectors: bit j-1 of the
key means coordinate j appears in the monomial, and the monomial's value at a
point mask is (-1)^popcount(key & mask).

Neither point evaluation nor the transform pair adds fractions. Both read
their input as ``cube._numerators`` gives it, integer numerators over one
common denominator D (``MultilinearPoly`` stores them as ``_terms`` and
``_den``). A value or coefficient is a signed sum of entries, which is the
same signed sum of numerators over D: Python integers neither round nor
overflow, and each output entry is reduced once, as ``Fraction(sum, D)``. The
transform pair is one in-place butterfly; the coefficient direction divides
by 2^n and the value direction does not, so the round trip is the identity.

Point evaluation also keeps each component's total T of numerators
(``_total``) and, per term, the flip -2 * numerators (``_flips``). At a point
only the terms of odd parity change sign, so a component's value is
(T - 2 * odd) / D, where odd is that component's column sum over those
terms: T plus the column sum of their flips. With D = 1 each entry comes from
``cube._fraction``, a bounded cache of immutable integer ``Fraction``s, so
an integer value seen recently builds no new ``Fraction``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cube import MAX_EXHAUSTIVE_N, CubePoint, _check_exhaustive, _fraction, _numerators, exact
from .errors import BadModulus, DegreeOutOfRange, DimensionTooLarge, UsageError
from .subsets import mask_of


@dataclass(frozen=True, eq=True)
class MultilinearPoly:
    """Coefficient form: a map from subset bitmasks to vectors of k rationals.

    Zero coefficient vectors are dropped at construction, so ``degree`` can
    read the support directly. The zero polynomial has an empty map and, by
    convention, degree 0. Construction also stores the common denominator
    ``_den``, the (mask, integer numerators) pairs ``_terms``, their
    per-component totals ``_total`` and the (mask, -2 * numerators) pairs
    ``_flips`` that ``value_at`` reads; they are not fields, so equality and
    ``repr`` read ``coeffs`` alone.
    """

    n: int
    k: int
    coeffs: dict[int, tuple[Fraction, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise UsageError("dimension must be positive")
        if self.k < 1:
            raise UsageError("codomain dimension must be positive")
        clean: dict[int, tuple[Fraction, ...]] = {}
        for mask, vec in self.coeffs.items():
            if mask < 0 or mask >> self.n:
                raise UsageError(f"subset mask 0x{mask:x} out of range for n={self.n}")
            v = tuple(map(exact, vec))
            if len(v) != self.k:
                raise UsageError(f"coefficient vector has length {len(v)}, expected {self.k}")
            if any(v):
                clean[mask] = v
        object.__setattr__(self, "coeffs", clean)
        den, nums = _numerators(clean.values())
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_terms", tuple(zip(clean, nums)))
        object.__setattr__(self, "_total", tuple(map(sum, zip(*nums))) if nums else (0,) * self.k)
        object.__setattr__(self, "_flips", tuple((mask, tuple(-2 * v for v in row)) for mask, row in self._terms))

    def value_at(self, bits: int) -> tuple[Fraction, ...]:
        """Evaluate at a point mask: each component's numerator total plus
        the column sum of the flips of the terms that are odd at the mask."""
        if bits < 0 or bits >> self.n:
            raise UsageError(f"mask 0x{bits:x} out of range for n={self.n}")
        odd = [flip for mask, flip in self._flips if (mask & bits).bit_count() & 1]
        acc = map(sum, zip(*odd), self._total) if odd else self._total
        den = self._den
        if den == 1:
            return tuple(map(_fraction, acc))
        return tuple(Fraction(a, den) for a in acc)


@dataclass(frozen=True, eq=True)
class ValueTable:
    """Point-value form: a dense array of 2^n rational vectors, mask-indexed."""

    n: int
    k: int
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise UsageError("dimension must be positive")
        if self.k < 1:
            raise UsageError("codomain dimension must be positive")
        vals = tuple(tuple(map(exact, row)) for row in self.values)
        # 2^n is built only once it is known to be at most len(vals).
        if self.n >= len(vals).bit_length() or len(vals) != 1 << self.n:
            raise UsageError(f"expected 2^{self.n} values, got {len(vals)}")
        if any(len(row) != self.k for row in vals):
            raise UsageError("value rows must all have length k")
        object.__setattr__(self, "values", vals)


def check_transform_size(n: int, k: int) -> None:
    """Refuse a dense table of k * 2^n values above 2^MAX_EXHAUSTIVE_N before it is built."""
    if n > MAX_EXHAUSTIVE_N or k << n > 1 << MAX_EXHAUSTIVE_N:
        raise DimensionTooLarge(f"k * 2^n = {k} * 2^{n} exceeds the dense cap 2^{MAX_EXHAUSTIVE_N}")


def _butterfly(vals: np.ndarray, n: int) -> list[list[int]]:
    """The rows of a (2^n, k) object array of Python ints, transformed in place:
    at level j, each pair of rows 2^j apart becomes their sum and difference."""
    for j in range(n):
        v = vals.reshape(-1, 2, 1 << j, vals.shape[1])
        v[:, 0], v[:, 1] = v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]
    return vals.tolist()


def wht(table: ValueTable) -> MultilinearPoly:
    """Coefficients from values: hat(S) = 2^-n * sum_x f(x) * (-1)^|S & x|."""
    check_transform_size(table.n, table.k)
    den, nums = _numerators(table.values)
    vals = _butterfly(np.array(nums, dtype=object), table.n)
    den <<= table.n
    coeffs = {mask: tuple(Fraction(x, den) for x in row) for mask, row in enumerate(vals) if any(row)}
    return MultilinearPoly(table.n, table.k, coeffs)


def inverse_wht(poly: MultilinearPoly) -> ValueTable:
    """Values from coefficients: f(x) = sum_S hat(S) * (-1)^|S & x|."""
    check_transform_size(poly.n, poly.k)
    vals = np.zeros((1 << poly.n, poly.k), dtype=object)
    for mask, nums in poly._terms:
        vals[mask] = nums
    den = poly._den
    values = tuple(tuple(Fraction(x, den) for x in row) for row in _butterfly(vals, poly.n))
    return ValueTable(poly.n, poly.k, values)


def degree(poly: MultilinearPoly) -> int:
    """Largest subset size with a nonzero coefficient vector; 0 if none."""
    return max((mask.bit_count() for mask in poly.coeffs), default=0)


def w_set(n: int, m: int) -> list[CubePoint]:
    """Points whose count of -1 coordinates is divisible by m, mask-ascending."""
    if n < 1:
        raise UsageError("dimension must be positive")
    if m < 2:
        raise BadModulus(f"modulus must be >= 2, got {m}")
    _check_exhaustive(n)
    masks = np.arange(1 << n, dtype=np.int64)
    # Weights are <= n, so an m past n divides weight 0 alone, as uint8-safe n + 1 does.
    masks = masks[np.bitwise_count(masks) % min(m, n + 1) == 0]
    return [CubePoint._from_mask(x, n) for x in masks.tolist()]


def random_poly(n: int, d: int, k: int, seed) -> MultilinearPoly:
    """Seeded pseudo-random polynomial of degree exactly d with small integer entries.

    Deterministic for a given (n, d, k, seed): string seeding of the stdlib
    generator hashes with sha512, independent of PYTHONHASHSEED.
    """
    if not 0 <= d <= n:
        raise DegreeOutOfRange(f"need 0 <= d <= n, got d={d}, n={n}")
    if k < 1:
        raise UsageError("codomain dimension must be positive")
    rng = random.Random(f"skewcube-poly/{n}/{d}/{k}/{seed}")

    def vector() -> tuple[Fraction, ...]:
        while True:
            v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(k))
            if any(v):
                return v

    coeffs: dict[int, tuple[Fraction, ...]] = {}
    for _ in range(rng.randint(d + 1, 2 * d + 4)):
        size = rng.randint(0, d)
        coeffs[mask_of(rng.sample(range(1, n + 1), size))] = vector()
    # Set the top-level term last so nothing overwrites it.
    top = mask_of(rng.sample(range(1, n + 1), d))
    coeffs[top] = vector()
    return MultilinearPoly(n, k, coeffs)
