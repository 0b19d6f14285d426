"""Exact geometry of {-1,1}^n: points, skew hyperplanes, cover verification.

A point is an n-bit mask (bit j-1 set means coordinate x_j = -1), so the
popcount of the mask counts the -1 coordinates. A hyperplane carries exact
rational coefficients and an offset; "covers" means the affine form vanishes
as a rational number, never approximately.

Exhaustive enumeration over all 2^n points is capped at n <= 24 and runs
chunk by chunk over aligned mask ranges. One vectorized evaluator builds
the subset sums of blocks of planes (at most 2^chunk_bits cells) over a
chunk's low bits by doubling and compares each plane's with its per-chunk
target. Its arrays are int64 when the scaled
integer values fit comfortably and Python ints otherwise, so no input
changes the exactness of the answer.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, DimensionTooLarge, EmptyFamily, UsageError

MAX_EXHAUSTIVE_N = 24

_CHUNK_BITS = 18
_SAMPLE_CAP = 32
# The int64 evaluator is only used when 4 * (|b| + sum|a_j|) < 2^62, which
# keeps every intermediate strictly below 2^63.
_INT64_LIMIT = 1 << 62


def exact(value) -> Fraction:
    """Coerce to Fraction, rejecting floats (exactness is the contract)."""
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; pass int, Fraction or 'p/q'")
    return Fraction(value)


@dataclass(frozen=True)
class CubePoint:
    """A vertex of {-1,1}^n encoded as a bitmask: bit j-1 set means x_j = -1."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise UsageError("dimension must be positive")
        # bits >> n tests the range without building 2^n, so any n is cheap.
        if self.bits < 0 or self.bits >> self.n:
            raise UsageError(f"mask 0x{self.bits:x} out of range for n={self.n}")

    @property
    def weight(self) -> int:
        """Number of coordinates equal to -1."""
        return self.bits.bit_count()

    def coords(self) -> tuple[int, ...]:
        return tuple(-1 if (self.bits >> j) & 1 else 1 for j in range(self.n))

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "CubePoint":
        bits = 0
        for j, c in enumerate(coords):
            if c == -1:
                bits |= 1 << j
            elif c != 1:
                raise UsageError("coordinates must be +1 or -1")
        return cls(bits, len(coords))


@dataclass(frozen=True)
class Hyperplane:
    """The affine plane a.x + b = 0 with exact rational coefficients."""

    a: tuple[Fraction, ...]
    b: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(exact(v) for v in self.a))
        object.__setattr__(self, "b", exact(self.b))
        if not self.a:
            raise UsageError("a hyperplane needs at least one coefficient")

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class CoverFamily:
    """An ordered, nonempty family of hyperplanes over one cube dimension."""

    planes: tuple[Hyperplane, ...]

    def __post_init__(self):
        planes = tuple(self.planes)
        object.__setattr__(self, "planes", planes)
        if not planes:
            raise EmptyFamily("a cover family needs at least one plane")
        n = planes[0].n
        for p in planes[1:]:
            if p.n != n:
                raise DimensionMismatch(f"mixed dimensions in family: {p.n} != {n}")

    @property
    def n(self) -> int:
        return self.planes[0].n

    def __len__(self) -> int:
        return len(self.planes)

    def __iter__(self):
        return iter(self.planes)


@dataclass(frozen=True)
class CoverReport:
    """Outcome of exhaustive cover verification."""

    covered: bool
    num_uncovered: int
    uncovered_sample: tuple[CubePoint, ...]
    per_plane_counts: tuple[int, ...]


def _integerized(plane: Hyperplane) -> tuple[tuple[int, ...], int, int]:
    """Scale a plane to integer coefficients; returns (a_int, b_int, denominator)."""
    den = math.lcm(plane.b.denominator, *(c.denominator for c in plane.a))
    return (
        tuple(c.numerator * (den // c.denominator) for c in plane.a),
        plane.b.numerator * (den // plane.b.denominator),
        den,
    )


def evaluate(plane: Hyperplane, point: CubePoint) -> Fraction:
    """Exact value of a.x + b at the point."""
    if plane.n != point.n:
        raise DimensionMismatch(f"plane has n={plane.n}, point has n={point.n}")
    a_int, b_int, den = _integerized(plane)
    neg = sum(c for j, c in enumerate(a_int) if (point.bits >> j) & 1)
    return Fraction(b_int + sum(a_int) - 2 * neg, den)


def covers(plane: Hyperplane, point: CubePoint) -> bool:
    """True iff the plane passes through the point exactly."""
    return evaluate(plane, point) == 0


def is_skew(plane: Hyperplane) -> bool:
    """True iff every coefficient is nonzero."""
    return all(c != 0 for c in plane.a)


def _check_exhaustive(n: int) -> None:
    if n > MAX_EXHAUSTIVE_N:
        raise DimensionTooLarge(f"n={n} exceeds the exhaustive cap {MAX_EXHAUSTIVE_N}")


def _chunk_ranges(n: int, chunk_bits: int):
    size = 1 << min(n, chunk_bits)
    for lo in range(0, 1 << n, size):
        yield lo, lo + size


def _int64_safe(planes_int) -> bool:
    return all(
        4 * (abs(b) + sum(abs(c) for c in a)) < _INT64_LIMIT for a, b, _ in planes_int
    )


def _plane_arrays(planes_int, n: int):
    """Coefficient rows and offsets, int64 if _int64_safe allows, else object."""
    dtype = np.int64 if _int64_safe(planes_int) else object
    a = np.array([p[0] for p in planes_int], dtype=dtype).reshape(len(planes_int), n)
    return a, np.array([p[1] for p in planes_int], dtype=dtype)


def _chunk_zero_offsets(a, b, n: int, lo: int, hi: int, chunk_bits: int = _CHUNK_BITS):
    """Per plane, offsets within the aligned chunk [lo, hi) where a.x + b = 0.

    a.x + b = (b + sum a) - 2*s(mask), where s sums the a_j whose bit is set,
    so the plane vanishes at lo + i iff s(i) == (b + sum a)/2 - s(lo); if that
    target is odd it meets no point. The low-bit subset sums s(i) are built
    by doubling in blocks of at most 1 << chunk_bits cells (planes x points),
    in the dtype of a and b. Returns (counts, offsets): plane i's counts[i]
    ascending offsets follow those of the planes before it.
    """
    width = hi - lo
    low_bits = width.bit_length() - 1
    high = np.array([j >= low_bits and (lo >> j) & 1 for j in range(n)], dtype=bool)
    twice_target = b + a.sum(axis=1) - 2 * a[:, high].sum(axis=1)
    even = np.flatnonzero(twice_target % 2 == 0)
    step = max(1, (1 << chunk_bits) // width)
    counts = np.zeros(len(b), dtype=np.intp)
    offsets = [np.empty(0, dtype=np.intp)]
    buf = np.zeros((min(step, even.size), width), dtype=a.dtype)
    for start in range(0, even.size, step):
        block = even[start : start + step]
        coeffs = a[block]
        sums = buf[: block.size]
        for j in range(low_bits):
            np.add(sums[:, : 1 << j], coeffs[:, j, None], out=sums[:, 1 << j : 2 << j])
        flat = np.flatnonzero(sums == (twice_target[block] // 2)[:, None])
        counts[block] = np.diff(np.searchsorted(flat, np.arange(block.size + 1) * width))
        offsets.append(flat & (width - 1))
    return counts, np.concatenate(offsets)


def _verify_chunk_job(args):
    a, b, n, lo, hi, chunk_bits = args
    counts, offsets = _chunk_zero_offsets(a, b, n, lo, hi, chunk_bits)
    covered = np.zeros(hi - lo, dtype=bool)
    covered[offsets] = True
    unc = np.nonzero(~covered)[0]
    return counts.tolist(), int(unc.size), [int(lo + i) for i in unc[:_SAMPLE_CAP]]


def covered_set(plane: Hyperplane, n: int | None = None) -> set[CubePoint]:
    """All points of {-1,1}^n lying on the plane, by exhaustive enumeration."""
    nn = plane.n if n is None else n
    if nn != plane.n:
        raise DimensionMismatch(f"plane has n={plane.n}, requested n={nn}")
    _check_exhaustive(nn)
    a, b = _plane_arrays([_integerized(plane)], nn)
    points: set[CubePoint] = set()
    for lo, hi in _chunk_ranges(nn, _CHUNK_BITS):
        _, offsets = _chunk_zero_offsets(a, b, nn, lo, hi)
        points.update(CubePoint(lo + int(i), nn) for i in offsets)
    return points


def verify_cover(
    family: CoverFamily, *, workers: int = 1, chunk_bits: int = _CHUNK_BITS
) -> CoverReport:
    """Exhaustively check whether the family covers every point of the cube.

    The point range is split into aligned chunks; with workers > 1 the chunks
    are verified in min(workers, chunks, cpu count) parallel processes. Chunk
    reductions are integer counts and ordered samples, so the report is
    identical for any worker count.
    """
    n = family.n
    _check_exhaustive(n)
    a, b = _plane_arrays([_integerized(p) for p in family.planes], n)
    jobs = [(a, b, n, lo, hi, chunk_bits) for lo, hi in _chunk_ranges(n, chunk_bits)]
    pool_size = min(workers, len(jobs), os.cpu_count() or 1)
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            parts = list(pool.map(_verify_chunk_job, jobs))
    else:
        parts = [_verify_chunk_job(job) for job in jobs]

    counts = [0] * len(b)
    num_uncovered = 0
    sample: list[int] = []
    for chunk_counts, unc, chunk_sample in parts:
        for i, v in enumerate(chunk_counts):
            counts[i] += v
        num_uncovered += unc
        if len(sample) < _SAMPLE_CAP:
            sample.extend(chunk_sample[: _SAMPLE_CAP - len(sample)])
    return CoverReport(
        covered=num_uncovered == 0,
        num_uncovered=num_uncovered,
        uncovered_sample=tuple(CubePoint(m, n) for m in sample),
        per_plane_counts=tuple(counts),
    )
