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
``inverse_wht`` builds one tuple of Fractions per distinct row and shares it
among the masks where that row occurs.

Point evaluation reads the same numerators through lookup tables, built on
the first ``value_at`` call (the Method of Four Russians, with the k
components packed into one integer). A term is odd at a point mask when
popcount(term & mask) is odd, which is the XOR of that parity over the bytes
they share. The terms are cut, in ``_terms`` order, into groups of 8. Each
byte that holds a coordinate of a group gets a 256-entry parity table: entry
x is the 8-bit set of the group's terms that are odd on a mask byte x. Equal
tables are shared, and no other byte gets one. XORing one entry per such
byte gives the group's odd set, which indexes a second 256-entry table: the
sum, over every subset of the group, of its flips -2 * numerators. A value
is then T - 2 * (odd numerators), with T the numerator totals: the packed
totals plus one looked-up sum per group. The packed fields are W bytes
wide, lowest component first, and biased by 2^(8W-1). W is the least of 1,
2, 4, 8, 16, ... with 2^(8W-1) above twice the sum of each term's largest
|numerator|, which is at least |T| + sum |numerators| in every component;
so no field leaves [0, 2^(8W)) at any step, and the sum is exact at any
size. XORing the bias flips each field's top bit, which turns biased fields
into two's complement ones and back: a ``struct.Struct`` of k signed W-byte
fields (past 8 bytes, one ``to_bytes`` per field) packs each term's
numerators and, per call, reads the k fields back in one step, linear in k.
Each becomes ``Fraction(field, D)``, with D = 1 from ``cube._fraction``, a
bounded cache of immutable integer ``Fraction``s.

The packed sum is the only input of that last step, since the fields, the
bias and D are fixed per polynomial, so the tables also hold a map from the
packed sum to the finished tuple, and a later call that reaches the same sum
returns that tuple without unpacking. The key is the exact integer, so a hit
returns what the decode would; the polynomial is immutable, so no entry goes
stale. The map keeps at most ``_INTERN_FIELDS`` fields (entries times k) per
polynomial, filled in call order and never evicted, and only when every
field and D fit a signed machine word (W at most 8 bytes, D below 2^63):
each kept Fraction is then two word-sized integers, so the map's memory is
bounded, where wider numerators or denominators would let it grow with
their size. Any other polynomial, and one with k above the bound, keeps
nothing.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cube import MAX_EXHAUSTIVE_N, CubePoint, _check_exhaustive, _fraction, _numerators, exact
from .errors import BadModulus, DegreeOutOfRange, DimensionTooLarge, UsageError
from .subsets import mask_of

# Terms per group: a group's subset sums fill one 256-entry table.
_GROUP = 8

# Most fields (entries times k) that one polynomial's map from packed sums to
# returned values keeps: 8,192 values at k = 2, under 4 MiB at worst (k = 1).
_INTERN_FIELDS = 1 << 14

# The one entry type a ValueTable row keeps without converting it.
_FRACTION = frozenset((Fraction,))


@dataclass(frozen=True, eq=True)
class MultilinearPoly:
    """Coefficient form: a map from subset bitmasks to vectors of k rationals.

    Zero coefficient vectors are dropped at construction, so ``degree`` can
    read the support directly. The zero polynomial has an empty map and, by
    convention, degree 0. Construction also stores the common denominator
    ``_den`` and the (mask, integer numerators) pairs ``_terms``; the first
    ``value_at`` call builds and stores ``_tables`` from them: the lookup
    tables, and the map from packed sums to returned values, which holds at
    most ``_INTERN_FIELDS`` fields and is exact because the packed sum alone
    determines the value (see the module docstring). A pickle leaves
    ``_tables`` out. None of the three is a field, so equality and ``repr``
    read ``coeffs`` alone, and construction holds nothing k long beyond the
    coefficients.
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

    # Until the first value_at call stores the instance's own.
    _tables = None

    def __getstate__(self):
        # The tables hold a struct.Struct, which pickle cannot write; a loaded
        # polynomial builds its own on its first value_at call.
        return {key: v for key, v in self.__dict__.items() if key != "_tables"}

    def value_at(self, bits: int) -> tuple[Fraction, ...]:
        """Evaluate at a point mask: for each group of terms, the parities
        looked up from the mask's bytes pick one packed sum of flips, which
        is added to the packed totals; a sum reached before returns the
        tuple it gave then (see the module docstring)."""
        if bits < 0 or bits >> self.n:
            raise UsageError(f"mask 0x{bits:x} out of range for n={self.n}")
        window, size, groups, acc, fields, bias, den, seen, room = self._tables or _build_tables(self)
        raw = (bits & window).to_bytes(size, "little")
        for parts, sums in groups:
            odd = 0
            for j, parity in parts:
                odd ^= parity[raw[j]]
            acc += sums[odd]
        value = seen.get(acc)
        if value is None:
            nums = fields.unpack((acc ^ bias).to_bytes(fields.size, "little"))
            if den == 1:
                value = tuple(map(_fraction, nums))
            else:
                value = tuple(Fraction(a, den) for a in nums)
            if len(seen) < room:
                seen[acc] = value
        return value


def _parity_table(column: bytes) -> bytes:
    """Entry x: the set of i (bit i) with popcount(column[i] & x) odd. The
    parity is linear in x, so entry x is the XOR of the entries of its bits."""
    table = [0]
    for b in range(8):
        bit = sum((c >> b & 1) << i for i, c in enumerate(column))
        table += [t ^ bit for t in table]
    return bytes(table)


def _mask_bytes(mask: int) -> dict[int, int]:
    """The nonzero bytes of mask, by index. Up to 8 are read from the top,
    each with one shift and one XOR that clears it; any rest takes one
    to_bytes scan, so a mask of any weight costs a bounded number of
    passes over it. A degree-d term has at most d such bytes: for 10^4
    degree-3 terms at n = 10^6 the tables build in 0.9 s this way and in
    3.4 s with a scan of every mask (2-core Xeon)."""
    found = {}
    for _ in range(8):
        if not mask:
            return found
        j = (mask.bit_length() - 1) >> 3
        found[j] = top = mask >> 8 * j
        mask ^= top << 8 * j
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    found.update((j, raw[j]) for j in np.flatnonzero(np.frombuffer(raw, np.uint8)).tolist())
    return found


class _WideFields:
    """struct.Struct's size, pack and unpack for k little-endian signed
    fields of more bytes than struct has a code for."""

    def __init__(self, k: int, width: int):
        self.width, self.size = width, k * width

    def pack(self, *vals: int) -> bytes:
        return b"".join(v.to_bytes(self.width, "little", signed=True) for v in vals)

    def unpack(self, buf: bytes) -> list[int]:
        w = self.width
        return [int.from_bytes(buf[i : i + w], "little", signed=True) for i in range(0, len(buf), w)]


# struct's codes for signed fields of 1, 2, 4 and 8 bytes. struct packs and
# reads fields in C: with one to_bytes per field, a call on random_poly(14,
# 3, 2) takes 1.7x as long, and a first call at k = 20,000 twice as long.
_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _build_tables(poly: MultilinearPoly):
    """Build value_at's tables for poly, store them on it and return them."""
    k, terms = poly.k, poly._terms
    # Fields of width bytes, biased by half > bound (see the module docstring).
    bound = 2 * sum(max(max(row), -min(row)) for _, row in terms)
    width = 1 << (bound.bit_length() // 8).bit_length()
    fields = struct.Struct(f"<{k}{_CODES[width]}") if width <= 8 else _WideFields(k, width)
    bias = int.from_bytes((1 << 8 * width - 1).to_bytes(width, "little") * k, "little")
    # Each row packed: the sum of its numerators v_i * 2^(8 * width * i).
    # struct packs two's complement fields; XOR and - bias make the sum signed.
    rows = [(int.from_bytes(fields.pack(*row), "little") ^ bias) - bias for _, row in terms]

    shared: dict[bytes, bytes] = {}
    groups = []
    size = 0
    for g in range(0, len(terms), _GROUP):
        found = [_mask_bytes(mask) for mask, _ in terms[g : g + _GROUP]]
        parts = []
        for j in sorted(set().union(*found)):
            column = bytes(f.get(j, 0) for f in found)
            parity = shared.get(column)
            if parity is None:
                parity = shared[column] = _parity_table(column)
            parts.append((j, parity))
            size = max(size, j + 1)
        sums = [0]
        for row in rows[g : g + _GROUP]:
            flip = -2 * row
            sums += [s + flip for s in sums]
        groups.append((tuple(parts), sums))
    # Entries the map of values may keep: none unless fields and D are word-sized.
    room = _INTERN_FIELDS // k if width <= 8 and poly._den >> 63 == 0 else 0
    tables = ((1 << 8 * size) - 1, size, tuple(groups), bias + sum(rows), fields, bias, poly._den, {}, room)
    object.__setattr__(poly, "_tables", tables)
    return tables


@dataclass(frozen=True, eq=True)
class ValueTable:
    """Point-value form: a dense array of 2^n rational vectors, mask-indexed.

    Rows become tuples of Fractions; repeated tuple row objects stay shared.
    """

    n: int
    k: int
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise UsageError("dimension must be positive")
        if self.k < 1:
            raise UsageError("codomain dimension must be positive")
        # A tuple row is immutable: one of Fractions alone is kept, any other
        # is converted once per object (rows holds it, so its id is not
        # reused). Any other row, such as a list, is converted where it stands.
        rows = tuple(self.values)
        converted = {}
        vals = []
        for row in rows:
            if type(row) is not tuple:
                value = tuple(map(exact, row))
            elif _FRACTION.issuperset(map(type, row)):
                value = row
            else:
                value = converted.get(id(row))
                if value is None:
                    value = converted[id(row)] = tuple(map(exact, row))
            vals.append(value)
        vals = tuple(vals)
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
    # One tuple of Fractions per distinct row, shared by the rows equal to it.
    rows = list(map(tuple, _butterfly(vals, poly.n)))
    shared = dict.fromkeys(rows)
    for row in shared:
        shared[row] = tuple(Fraction(x, den) for x in row)
    return ValueTable(poly.n, poly.k, tuple(map(shared.__getitem__, rows)))


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
    return [CubePoint(x, n) for x in masks.tolist()]


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
