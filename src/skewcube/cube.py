"""Exact geometry of {-1,1}^n: points, skew hyperplanes, cover verification.

A point is an n-bit mask (bit j-1 set means coordinate x_j = -1), so the
popcount of the mask counts the -1 coordinates. A hyperplane carries exact
rational coefficients and an offset; "covers" means the affine form vanishes
as a rational number, never approximately. Both are frozen dataclasses with
slots, so neither holds a __dict__. Every point, the bulk ones included,
is built by the range-checked CubePoint constructor, and every plane, the
search pool's included, by the Hyperplane constructor.

Cover verification is exact but does not visit all 2^n points. Coordinates
whose columns agree across the family up to one common sign form a class,
and a plane's value depends only on how many -1s each class holds once the
negated columns are flipped. So verify_cover evaluates every plane on the
prod_c (s_c + 1) class points, s_c the size of class c, and weights a class
point by the prod_c C(s_c, t_c) masks it stands for. It is capped at 2^24
class points, not at a dimension: level_set_cover(n) has n + 1 class points
and power_of_two_cover(m) 4^m. A family with no repeated column has 2^n
class points, one per mask. covered_set returns the points themselves, so
it stays capped at n <= 24.

Both run through one vectorized evaluator, _zero_hits, over a mixed-radix
grid (radix s_c + 1 for the class points, 2 for masks), chunk by chunk over
aligned index ranges. It builds the sums of the low digits for blocks of
planes (at most 2^chunk_bits cells), once per block, and compares each
plane's with its per-chunk target, yielding a boolean hit matrix. Of its two
consumers, verify_cover's range jobs sum weighted counts and _bitsets packs
the hits into uint64 words: the search pool's rows directly (greedy_cover
reads a candidate pool's words and evaluates nothing), and through
_plane_words the Hyperplanes of covered_set and of a greedy_cover given a
list of planes.
Its arrays are int64 when the scaled integer values fit comfortably and
Python ints otherwise, so no input changes the exactness of the answer.

Only verify_cover starts a process pool, and only when workers > 1, the
grid has more than one chunk and the machine has more than one CPU
(pool_size = min(workers, chunks, cpu count)). _process_pool imports the
pool module then, so importing the package loads neither
concurrent.futures nor multiprocessing.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, DimensionTooLarge, EmptyFamily, UsageError
from .subsets import labels_of

MAX_EXHAUSTIVE_N = 24
MAX_CLASS_POINTS = 1 << MAX_EXHAUSTIVE_N

_CHUNK_BITS = 18
_SAMPLE_CAP = 32
# The int64 evaluator is only used when 4 * (|b| + sum|a_j|) < 2^62, which
# keeps every intermediate strictly below 2^63.
_INT64_LIMIT = 1 << 62


def exact(value) -> Fraction:
    """The value as a Fraction, returned as it is if it already is one;
    floats are rejected (exactness is the contract)."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; pass int, Fraction or 'p/q'")
    return Fraction(value)


def _numerators(rows) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm D of the denominators in rows of ints and Fractions, and each
    row as integer numerators over D: the one step from rationals to integers."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    den = math.lcm(*{q for row in ratios for _, q in row})
    if den == 1:
        return den, [tuple([p for p, _ in row]) for row in ratios]
    return den, [tuple([p * (den // q) for p, q in row]) for row in ratios]


@functools.lru_cache(maxsize=1024)
def _fraction(v: int) -> Fraction:
    """Fraction(v) for the last 1,024 ints, shared by the planes built from
    int rows and by the integer values MultilinearPoly.value_at returns at
    points; a Fraction is immutable, and building one costs several cache hits."""
    return Fraction(v)


@dataclass(frozen=True, slots=True)
class CubePoint:
    """A vertex of {-1,1}^n encoded as a bitmask: bit j-1 set means x_j = -1.
    Its fields are slots, and every point passes the range check below."""

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
        # The binary string lowest bit first, read once: linear in n.
        return tuple(-1 if c == "1" else 1 for c in bin(self.bits)[:1:-1].ljust(self.n, "0"))

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "CubePoint":
        if any(c != 1 and c != -1 for c in coords):
            raise UsageError("coordinates must be +1 or -1")
        # One base-2 parse of the digits, highest bit first: linear in n.
        digits = "".join("1" if c == -1 else "0" for c in coords)
        return cls(int(digits[::-1] or "0", 2), len(digits))


@dataclass(frozen=True, slots=True)
class Hyperplane:
    """The affine plane a.x + b = 0 with exact rational coefficients.

    Construction also stores the integer row ``_row`` = (a_int, b_int, den),
    which the evaluators read: the plane's ``_numerators`` over their common
    denominator ``den``, or the input itself with den = 1 when every input
    is an int. ``_row`` is a slot field outside ``__init__``, ``==``, hashing
    and ``repr``, which read ``a`` and ``b`` alone; pickle and ``copy`` keep
    it.
    """

    a: tuple[Fraction, ...]
    b: Fraction = Fraction(0)
    _row: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = tuple(self.a), self.b
        if type(b) is int and all(type(v) is int for v in a):
            row = (a, b, 1)
            a, b = tuple(map(_fraction, a)), _fraction(b)
        else:
            a, b = tuple(map(exact, a)), exact(b)
            den, (a_int, (b_int,)) = _numerators((a, (b,)))
            row = (a_int, b_int, den)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_row", row)
        if not a:
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


def evaluate(plane: Hyperplane, point: CubePoint) -> Fraction:
    """Exact value of a.x + b at the point."""
    if plane.n != point.n:
        raise DimensionMismatch(f"plane has n={plane.n}, point has n={point.n}")
    a_int, b_int, den = plane._row
    neg = sum(a_int[j - 1] for j in labels_of(point.bits))
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


def _int64_safe(planes_int) -> bool:
    return all(
        4 * (abs(b) + sum(abs(c) for c in a)) < _INT64_LIMIT for a, b, _ in planes_int
    )


def _plane_arrays(planes_int, n: int):
    """Coefficient rows and offsets, int64 if _int64_safe allows, else object.

    The decision is _int64_safe's, without its Python sum per row: an entry
    past int64 fails it, and with every |entry| <= e a row's 4 (|b| + sum|a_j|)
    is at most 4 (n + 1) e, so 4 (n + 1) e < 2^62 passes it. Only between
    the two does the per-row rule run.
    """
    a_rows, b_row = [p[0] for p in planes_int], [p[1] for p in planes_int]
    try:
        a = np.fromiter(itertools.chain.from_iterable(a_rows), np.int64, len(a_rows) * n)
        b = np.array(b_row, dtype=np.int64)
    except OverflowError:
        safe = False
    else:
        # In Python ints, since -(-2^63) overflows int64.
        e = max(int(a.max(initial=0)), -int(a.min(initial=0)), int(b.max(initial=0)), -int(b.min(initial=0)))
        safe = 4 * (n + 1) * e < _INT64_LIMIT or _int64_safe(planes_int)
    if safe:
        return a.reshape(len(a_rows), n), b
    return np.array(a_rows, dtype=object).reshape(len(a_rows), n), np.array(b_row, dtype=object)


def _layout(radix, chunk_bits: int) -> tuple[int, int]:
    """A chunk's low digits and width: the longest prefix of the radices whose
    product is at most 2^chunk_bits, and that product."""
    low, width = 0, 1
    for r in radix:
        if width * r > 1 << chunk_bits:
            break
        low, width = low + 1, width * int(r)
    return low, width


def _zero_hits(a, b, radix, lo: int, hi: int, chunk_bits: int):
    """Yield (block, k, hit): where the planes of a block vanish in chunk k of [lo, hi).

    A grid point t has digit t_c in 0..radix[c] - 1, digit 0 fastest, and the
    value b + sum_c a_c (radix[c] - 1) - 2 sum_c a_c t_c; with every radix 2
    that is a.x + b at mask t. A chunk fixes the digits above its low ones
    (see _layout), so a plane vanishes at chunk offset i iff the low sum
    s(i) = sum_{c < low} a_c t_c equals half of b + sum_c a_c (radix[c] - 1)
    less the chunk's high sum; if that total is odd it meets no point. The
    planes go in blocks of at most 2^chunk_bits cells (planes x chunk width),
    in the dtype of a and b. Each block builds its low sums once, by shifted
    adds, and compares them with the target of every chunk in turn. hit is
    the boolean matrix of the block's planes x chunk offsets, True where the
    plane vanishes. [lo, hi) must be a whole number of chunks. Its consumers are
    _verify_range_job (weighted counts over the class grid) and _bitsets
    (packed covered masks).
    """
    low, width = _layout(radix, chunk_bits)
    full = b + a @ (radix - 1)
    even = np.flatnonzero(full % 2 == 0)
    # The digits above the low ones, per chunk of [lo, hi).
    q = np.arange(lo // width, hi // width)
    high = np.empty((q.size, len(radix) - low), dtype=np.int64)
    for c, r in enumerate(radix[low:]):
        q, high[:, c] = np.divmod(q, r)
    step = max(1, (1 << chunk_bits) // width)
    buf = np.zeros((min(step, even.size), width), dtype=a.dtype)
    for start in range(0, even.size, step):
        block = even[start : start + step]
        coeffs = a[block]
        targets = full[block][:, None] // 2 - coeffs[:, low:] @ high.T
        sums, size = buf[: block.size], 1
        for c in range(low):
            for d in range(1, radix[c]):
                np.add(sums[:, size * (d - 1) : size * d], coeffs[:, c, None], out=sums[:, size * d : size * (d + 1)])
            size *= int(radix[c])
        for k in range(len(high)):
            yield block, k, sums == targets[:, k, None]


def _bitsets(a, b, n: int, chunk_bits: int = _CHUNK_BITS):
    """Per integer plane row of (a, b), its covered masks as a row of
    max(1, 2^n / 64) little-endian uint64 words: bit m % 64 of word m // 64
    is set iff the plane covers mask m. Below n = 6 the one word is padded
    with zeros. Each (block, chunk) of _zero_hits is packed as it arrives, so
    beside the words only one chunk's cells are held; a chunk is therefore
    the whole cube or a whole number of words."""
    radix = np.full(n, 2)
    width = _layout(radix, chunk_bits)[1]
    assert width == 1 << n or width % 64 == 0, "a chunk must be the cube or whole words"
    out = np.zeros((len(b), max(8, (1 << n) >> 3)), dtype=np.uint8)
    for block, k, hit in _zero_hits(a, b, radix, 0, 1 << n, chunk_bits):
        packed = np.packbits(hit, axis=1, bitorder="little")
        out[block, k * packed.shape[1] : (k + 1) * packed.shape[1]] = packed
    return out.view("<u8")


def _plane_words(planes, n: int):
    """The _bitsets words of Hyperplanes over {-1,1}^n, read off the integer
    rows ``_row`` stored when each plane was built."""
    _check_exhaustive(n)
    return _bitsets(*_plane_arrays([p._row for p in planes], n), n)


def _coordinate_classes(a) -> tuple[list[int], list[int], int]:
    """Group the coordinates whose columns of a agree up to one common sign.

    Returns (reps, class_of, flips): each class's lowest coordinate, in
    ascending order; the class index of every coordinate; and the mask of
    the coordinates whose column is the negative of their representative's.
    """
    index: dict[tuple, int] = {}
    reps, rep_neg, class_of, flips = [], [], [], 0
    for j, col in enumerate(a.T.tolist()):
        neg = next((c < 0 for c in col if c), False)
        c = index.setdefault(tuple(-v for v in col) if neg else tuple(col), len(reps))
        if c == len(reps):
            reps.append(j)
            rep_neg.append(neg)
        elif neg != rep_neg[c]:
            flips |= 1 << j
        class_of.append(c)
    return reps, class_of, flips


def _binomial_row(s: int) -> list[int]:
    """C(s, t) for t = 0..s by C(s, t + 1) = C(s, t) (s - t) / (t + 1), where
    a math.comb per entry would cost time cubic in s."""
    row = [1]
    for t in range(s):
        row.append(row[-1] * (s - t) // (t + 1))
    return row


def _verify_range_job(args):
    """Weighted zero counts, uncovered weight and packed uncovered class
    points of the chunks in [lo, hi) of the class grid."""
    a, b, radix, lo, hi, chunk_bits = args
    low, width = _layout(radix, chunk_bits)
    # Weights sum to 2^n over the grid, so int64 holds every sum up to n = 62.
    dtype = np.int64 if (radix - 1).sum() <= 62 else object
    rows = {r: np.array(_binomial_row(r - 1), dtype=dtype) for r in set(radix.tolist())}

    def grid(radices):  # the weights of these digits' grid, digit 0 fastest
        return functools.reduce(lambda w, r: np.outer(rows[r], w).ravel(), radices, np.ones(1, dtype=dtype))

    w_low = grid(radix[:low].tolist())
    w_high = grid(radix[low:].tolist())[lo // width : hi // width].tolist()
    # When every low class is a singleton, every low weight is 1 and
    # counting stands in for summing weights: about a quarter less time
    # with no repeated column at n = 22 and 24 (see CHANGES.md).
    unit = bool((radix[:low] == 2).all())
    covered = np.zeros(hi - lo, dtype=bool)
    counts = np.zeros(len(b), dtype=dtype)
    for block, k, hit in _zero_hits(a, b, radix, lo, hi, chunk_bits):
        flat = np.flatnonzero(hit)  # ascending by plane, then offset
        offsets = flat % width
        covered[k * width + offsets] = True
        ends = np.searchsorted(flat, np.arange(block.size + 1) * width)
        if not unit:
            running = np.zeros(flat.size + 1, dtype=dtype)
            np.cumsum(w_low[offsets], out=running[1:])
            ends = running[ends]
        # In dtype: an int64 count times a weight past 2^63 would wrap.
        counts[block] += np.diff(ends).astype(dtype) * w_high[k]
    uncovered = ~covered
    weight = 0
    for k, w in enumerate(w_high):
        chunk = uncovered[k * width : (k + 1) * width]
        weight += int(np.count_nonzero(chunk) if unit else w_low @ chunk) * w
    return counts.tolist(), weight, np.packbits(uncovered)


def _smallest_masks(uncovered, radix, class_of, flips: int, limit: int) -> list[int]:
    """The ``limit`` smallest masks whose class point is uncovered, ascending.

    Bits are fixed from the top, 0 before 1. A prefix fixes some of each
    class's coordinates, so the -1 count t_c of class c (after the flips)
    lies in a range; a prefix is kept only if that box of the grid holds an
    uncovered class point, so every kept prefix has a completion.
    """
    grid = uncovered.reshape(radix[::-1].tolist())
    fixed = [0] * len(radix)
    free = (radix - 1).tolist()
    masks, path, mask, bit = [], [], 0, 0
    while len(masks) < limit:
        j = len(class_of) - 1 - len(path)
        if j >= 0 and bit < 2:
            c, y = class_of[j], bit ^ (flips >> j & 1)
            fixed[c] += y
            free[c] -= 1
            if grid[tuple(slice(t, t + f + 1) for t, f in zip(fixed[::-1], free[::-1]))].any():
                path.append(bit)
                mask |= bit << j
                bit = 0
                continue
            fixed[c] -= y
            free[c] += 1
            bit += 1
            continue
        if j < 0:
            masks.append(mask)
        if not path:
            break
        j += 1
        bit = path.pop()
        mask &= ~(1 << j)
        fixed[class_of[j]] -= bit ^ (flips >> j & 1)
        free[class_of[j]] += 1
        bit += 1
    return masks


def covered_set(plane: Hyperplane) -> set[CubePoint]:
    """All points of {-1,1}^n, n = plane.n, lying on the plane, by exhaustive enumeration."""
    n = plane.n
    row = _plane_words([plane], n)[0]
    # Only the nonzero words are unpacked, so an empty set costs no 2^n bytes.
    words = np.flatnonzero(row)
    w, bit = np.nonzero(np.unpackbits(row[words].view(np.uint8), bitorder="little").reshape(-1, 64))
    return {CubePoint(m, n) for m in (words[w] * 64 + bit).tolist()}


def _process_pool(max_workers: int):
    """A ProcessPoolExecutor of max_workers processes. The pool module and
    multiprocessing are imported here, when a pool starts, so importing the
    package (and every grid of one chunk) never loads them."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def verify_cover(
    family: CoverFamily, *, workers: int = 1, chunk_bits: int = _CHUNK_BITS
) -> CoverReport:
    """Check exactly whether the family covers every point of the cube.

    Two coordinates are in one class when their integerized columns agree
    across all planes up to one common sign; the class representative is
    its lowest coordinate. Substituting y_j = -x_j for the coordinates whose
    column is the negative of their representative's is a bijection of the
    cube, after which every plane has equal coefficients inside each class.
    Any permutation of the coordinates inside a class then fixes every
    plane's value, so that value depends only on the class point t, where
    t_c counts the -1s of y in class c, and the t-orbit holds
    prod_c C(s_c, t_c) masks, s_c the size of class c. Evaluating each plane
    once per class point (prod_c (s_c + 1) of them) and weighting the point
    by its orbit therefore counts masks exactly. With no repeated column
    every class is a singleton, the class point is the mask and the weights
    are 1.

    The class grid is split into aligned chunks; with workers > 1 runs of
    consecutive chunks are verified in min(workers, chunks, cpu count)
    parallel processes, and with workers < 2 in this one. Their results are
    exact integer sums and packed bitmaps, so the report is identical for
    any worker count. The sample is the 32 smallest uncovered masks. Raises
    ``DimensionTooLarge`` above 2^24 class points.
    """
    n = family.n
    a, b = _plane_arrays([p._row for p in family.planes], n)
    reps, class_of, flips = _coordinate_classes(a)
    radix = np.bincount(class_of) + 1
    # Every radix is at least 2, so more classes than cap bits are over it.
    total = math.prod(radix.tolist()) if len(radix) <= MAX_EXHAUSTIVE_N else MAX_CLASS_POINTS + 1
    if total > MAX_CLASS_POINTS:
        raise DimensionTooLarge(
            f"the {len(radix)} coordinate classes of n={n} give more than "
            f"2^{MAX_EXHAUSTIVE_N} class points, the verification cap"
        )
    width = _layout(radix, chunk_bits)[1]
    chunks = total // width
    pool_size = max(1, min(workers, chunks, os.cpu_count() or 1))
    cuts = [chunks * i // pool_size * width for i in range(pool_size + 1)]
    ranges = list(zip(cuts, cuts[1:]))
    jobs = [(a[:, reps], b, radix, lo, hi, chunk_bits) for lo, hi in ranges]
    if pool_size > 1:
        with _process_pool(pool_size) as pool:
            parts = list(pool.map(_verify_range_job, jobs))
    else:
        parts = [_verify_range_job(job) for job in jobs]

    counts = [sum(c) for c in zip(*(part[0] for part in parts))]
    num_uncovered = sum(part[1] for part in parts)
    sample: list[int] = []
    if num_uncovered:
        uncovered = np.concatenate(
            [np.unpackbits(part[2], count=hi - lo).view(bool) for part, (lo, hi) in zip(parts, ranges)]
        )
        sample = _smallest_masks(uncovered, radix, class_of, flips, _SAMPLE_CAP)
    return CoverReport(
        covered=num_uncovered == 0,
        num_uncovered=num_uncovered,
        uncovered_sample=tuple(CubePoint(m, n) for m in sample),
        per_plane_counts=tuple(counts),
    )
