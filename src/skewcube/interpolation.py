"""Recovery of top multilinear coefficients from values on weight-divisible points.

Setting: even m >= 2, target subset S with |S| = d, and n >= d*m + m/2. The
coordinates are split into d chunks of m (the i-th smallest element of S sits
at the end of chunk i), a half-chunk of m/2 "parity" coordinates, and an
untouched remainder. A product distribution assigns each chunk either the
all-plus state (probability 1/m) or a state with the end coordinate +1 and
exactly m/2 of the others -1 (probability 1/(2*C(m-2, m/2-1)) each); the
remainder is pinned to all-plus, and the parity half-chunk flips to all-minus
exactly when the chunk states' total count of -1, always a multiple of m/2,
is not a multiple of m. Every support point therefore has -1 count divisible
by m.

Expanding over the 2^d ways of negating whole chunks, with weight 2^-d and
sign equal to the product of the chunk signs, yields a finitely supported
signed probability measure. For any map of degree at most d, the weighted
signed sum of its values over the support equals the coefficient at S, as an
exact rational identity: terms missing some chunk average to zero with the
sign, terms of degree d meeting every chunk reduce to a product of single
coordinate expectations, and each non-end coordinate is -1 with probability
exactly 1/2.

Recovery runs on integers, once per distinct value. A chunk state's
probability is an integer over one chunk denominator, so the d + 1 distinct
atom weights are built once each (see ``build_scheme``), and the scheme
stores one common weight denominator D and a signed integer numerator w per
atom. ``recover_coefficient`` reads the atoms' values in scheme order and
gives each distinct value a slot: its entries, once, and the sum W of its
atoms' w. A tuple of ints and Fractions is immutable, so one returned again
is found by its id (the slot holds it until the call returns, so no other
object takes that id); any other value is checked and converted before the
next atom is read, into a slot of its own. ``cube._numerators`` writes the
slots' entries as integer numerators p over one denominator L, and each
component is (sum of W * p) / (L * D), divided once. Every step is exact
integer arithmetic, so the result equals the rational sum term by term.

A scheme for modulus m and degree d has (2 * (1 + C(m-1, m/2)))^d atoms
whatever n is. ``check_recovery_size`` bounds a recovery by that count
times n + k (the atoms' n-bit points and the k values read at each) before
``build_scheme`` allocates anything n long.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .cube import CubePoint, _numerators, exact
from .errors import (
    BadModulus,
    BadSubsetSize,
    DegreeOutOfRange,
    DegreeTooHigh,
    DimensionMismatch,
    DimensionTooLarge,
    MissingValue,
    SkewcubeError,
)
from .fourier import ValueTable
from .subsets import mask_of

# Largest recovery check_recovery_size admits: atoms * (n + k) cells.
MAX_RECOVERY_CELLS = 1 << 20
# The entry types recover_coefficient sums without converting them.
_EXACT_TYPES = frozenset((int, Fraction))


@dataclass(frozen=True)
class ChunkLayout:
    """Partition of {1..n} into d chunks of m, a half-chunk, and a remainder.

    ``canonical_order[p]`` is the caller's coordinate label placed at canonical
    position p+1; the last label of chunk i is the i-th smallest element of the
    target subset, and all other labels fill the remaining positions in
    ascending order.
    """

    n: int
    m: int
    d: int
    subset: tuple[int, ...]
    chunks: tuple[tuple[int, ...], ...]
    extra: tuple[int, ...]
    rest: tuple[int, ...]
    canonical_order: tuple[int, ...]


@dataclass(frozen=True)
class InterpolationScheme:
    """A signed probability measure on W(m) recovering the coefficient at ``subset``.

    Atoms are (point, weight, sign) with positive weights summing to exactly 1,
    every point's -1 count divisible by m, and no repeated points. All of that
    is validated at construction: the point checks on the int masks, and
    ``exact``, the positivity check and the integer numerator once per
    distinct weight object, since ``build_scheme`` shares one Fraction among
    the atoms of equal weight. Construction stores the common weight
    denominator ``_den``, the points ``_points`` and their signed integer
    numerators ``_nums``, which ``recover_coefficient`` sums. None of these
    are fields, so equality and ``repr`` read ``atoms`` alone.
    """

    n: int
    m: int
    d: int
    subset: tuple[int, ...]
    atoms: tuple[tuple[CubePoint, Fraction, int], ...]

    def __post_init__(self):
        points, weights, signs = tuple(zip(*self.atoms, strict=True)) or ((), (), ())
        masks = [point.bits for point in points]
        if not {self.n}.issuperset(point.n for point in points):
            raise SkewcubeError("atom dimension mismatch")
        if len(set(masks)) != len(masks):
            raise SkewcubeError("duplicate atom point")
        if any(count % self.m for count in set(map(int.bit_count, masks))):
            raise SkewcubeError("atom point outside W(m)")
        if signs.count(1) + signs.count(-1) != len(signs):
            raise SkewcubeError("atom signs must be +-1")
        # Each distinct weight object, keyed by id in first-seen order.
        distinct = dict(zip(map(id, weights), weights))
        values = [exact(weight) for weight in distinct.values()]
        if any(value <= 0 for value in values):
            raise SkewcubeError("atom weights must be positive")
        den, (nums,) = _numerators((values,))
        nums = list(map(dict(zip(distinct, nums)).__getitem__, map(id, weights)))
        if sum(nums) != den:
            raise SkewcubeError(f"atom weights sum to {Fraction(sum(nums), den)}, expected 1")
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_nums", tuple(map(operator.mul, nums, signs)))


def _checked_subset(n: int, m: int, d: int, subset: Iterable[int]) -> tuple[int, ...]:
    """The sorted subset, once m, d and the subset fit a layout on n coordinates."""
    if m < 2 or m % 2:
        raise BadModulus(f"modulus must be even and >= 2, got {m}")
    if d < 0:
        raise BadSubsetSize(f"degree must be >= 0, got {d}")
    sub = tuple(sorted(subset))
    if len(sub) != d or len(set(sub)) != d:
        raise BadSubsetSize(f"need a subset of exactly {d} distinct labels, got {sub}")
    if any(not 1 <= s <= n for s in sub):
        raise BadSubsetSize(f"subset labels must lie in 1..{n}, got {sub}")
    if n < d * m + m // 2:
        raise DegreeTooHigh(
            f"degree {d} too high for n={n}, m={m}: need n >= d*m + m/2 = {d * m + m // 2}"
        )
    return sub


def chunk_layout(n: int, m: int, d: int, subset: Iterable[int]) -> ChunkLayout:
    """Canonical chunk layout for recovering the coefficient at ``subset``."""
    sub = _checked_subset(n, m, d, subset)
    order = [0] * n
    for i, s in enumerate(sub):
        order[i * m + m - 1] = s
    taken = set(sub)
    others = (label for label in range(1, n + 1) if label not in taken)
    for p in range(n):
        if order[p] == 0:
            order[p] = next(others)
    chunks = tuple(tuple(order[i * m : (i + 1) * m]) for i in range(d))
    extra = tuple(order[d * m : d * m + m // 2])
    rest = tuple(order[d * m + m // 2 :])
    return ChunkLayout(n, m, d, sub, chunks, extra, rest, tuple(order))


def build_scheme(n: int, m: int, d: int, subset: Iterable[int]) -> InterpolationScheme:
    """Materialize the signed measure for the coefficient at ``subset``.

    The scheme depends only on (n, m, d, subset), never on the function being
    recovered, and identical inputs give identical atom tuples, sorted by
    point mask. No two atoms share a point (see ``atom_count``), so each
    (state, sign) choice is one atom; ``InterpolationScheme`` still rejects a
    repeated point.

    A chunk state's probability is an integer numerator over one chunk
    denominator L = lcm(m, h), h = 2*C(m-2, m/2-1): L/m for all-plus and L/h
    for each other state. An atom's weight is the product of its chunks'
    numerators over (2L)^d, so it depends only on the number j of all-plus
    chunks, and the d + 1 weights are built once, as ``weights[j]``.
    """
    layout = chunk_layout(n, m, d, subset)
    h = 2 * math.comb(m - 2, m // 2 - 1)
    lcm = math.lcm(m, h)
    weights = [Fraction((lcm // m) ** j * (lcm // h) ** (d - j), (2 * lcm) ** d) for j in range(d + 1)]
    # The product distribution's support as (mask of -1 labels, j), one chunk at a time.
    support = [(0, 0)]
    # Per sign choice y: the xor of the negated chunks and the sign's product.
    flips = [(0, 1)]
    for chunk in layout.chunks:
        states = [mask_of(negatives) for negatives in itertools.combinations(chunk[:-1], m // 2)]
        support = [(base, j + 1) for base, j in support] + [
            (base | state, j) for base, j in support for state in states
        ]
        mask = mask_of(chunk)
        flips += [(f ^ mask, -s) for f, s in flips]
    extra_mask = mask_of(layout.extra)
    atoms = []
    for base, j in support:
        if base.bit_count() % m:
            base |= extra_mask
        atoms += ((base ^ f, weights[j], s) for f, s in flips)
    atoms.sort(key=operator.itemgetter(0))
    return InterpolationScheme(
        n, m, d, layout.subset, tuple((CubePoint(bits, n), w, s) for bits, w, s in atoms)
    )


def atom_count(m: int, d: int) -> int:
    """Atoms of ``build_scheme(n, m, d, S)`` for even m >= 2, any valid n and S.

    Each chunk has 1 + C(m-1, m/2) states and two signs. A point's chunk bits
    determine both (the chunk-end coordinate is -1 exactly when the chunk is
    negated), so no two atoms merge and the count is (2 * (1 + C(m-1, m/2)))^d.
    At d = 0 the binomial, slow for a huge m, is skipped.
    """
    return (2 * (1 + math.comb(m - 1, m // 2))) ** d if d else 1


def check_recovery_size(n: int, k: int, m: int, subset: Sequence[int]) -> None:
    """Refuse a recovery of more than MAX_RECOVERY_CELLS cells before its scheme is built.

    A recovery of k-vectors on n coordinates costs atom_count(m, d) * (n + k)
    cells. The layout's own preconditions are checked first, with the errors
    ``build_scheme`` raises. Every chunk multiplies the atoms by at least 2m,
    so a modulus above half the cap is refused without its binomial.
    """
    d = len(subset)
    _checked_subset(n, m, d, subset)
    if d and 2 * m > MAX_RECOVERY_CELLS:
        raise DimensionTooLarge(f"m={m} gives more than 2^20 atoms per chunk")
    atoms = atom_count(m, d)
    if atoms * (n + k) > MAX_RECOVERY_CELLS:
        raise DimensionTooLarge(
            f"atoms * (n + k) = {atoms} * {n + k} exceeds the recovery cap 2^20"
        )


def recover_coefficient(
    scheme: InterpolationScheme,
    f: ValueTable | Callable[[CubePoint], Sequence],
) -> tuple[Fraction, ...]:
    """Weighted signed sum of f over the scheme's atoms.

    Equals the coefficient of f at ``scheme.subset`` exactly whenever
    deg(f) <= scheme.d (this includes deg(f) < d, where both sides are zero).
    ``f`` is either a ValueTable or a callback from CubePoint to a rational
    vector; the callback must be defined at every atom point. f is called
    once per atom, in scheme order, a bad value raises before the next call,
    and each distinct value is summed once (see the module docstring).
    """
    if isinstance(f, ValueTable):
        if f.n != scheme.n:
            raise DimensionMismatch(f"table has n={f.n}, scheme has n={scheme.n}")
        table = f
        getter = lambda pt: table.values[pt.bits]
    elif callable(f):
        getter = f
    else:
        raise TypeError("f must be a ValueTable or a callable")

    k = None
    # Slot i is a distinct value, values[i], and the sum weights[i] of its
    # atoms' signed weight numerators. ``slots`` maps the id of each tuple of
    # ints and Fractions to its slot; ``values`` holds that tuple until the
    # call returns, so no other object can take its id meanwhile.
    slots = {}
    values = []
    weights = []
    for point, w in zip(scheme._points, scheme._nums):
        value = getter(point)
        slot = slots.get(id(value))
        if slot is not None:
            weights[slot] += w
            continue
        # A new value. A tuple of ints and Fractions is keyed by its id; any
        # other value is checked and converted here, before f is called at
        # the next atom, into a slot that no later value can find.
        if type(value) is tuple and _EXACT_TYPES.issuperset(map(type, value)):
            slots[id(value)] = len(values)
        elif value is None:
            raise MissingValue(f"f is undefined at point mask 0x{point.bits:x}")
        else:
            value = tuple(v if type(v) is int else exact(v) for v in value)
        if len(value) != k:
            if k is not None:
                raise MissingValue("f returned vectors of inconsistent dimension")
            k = len(value)
        values.append(value)
        weights.append(w)
    # Component j of slot i is nums[i * k + j].
    den, (nums,) = _numerators((list(itertools.chain.from_iterable(values)),))
    den *= scheme._den
    return tuple(Fraction(sum(map(operator.mul, weights, nums[j::k])), den) for j in range(k))


def vanishing_dimension(n: int, m: int, d: int) -> int:
    """Dimension of the degree <= d multilinear maps vanishing on all of W(m).

    This is the nullity over Q of the evaluation map E, which sends a map of
    degree <= d to its values on the points of W(m). Symmetry and the rank
    lemma below reduce it to counting, and no matrix is ever built:

        vanishing_dimension = sum over k = 0 .. min(d, n // 2) of
            (C(n, k) - C(n, k - 1)) * max(0, rows_k - cols_k),

    where rows_k = min(d, n - k) - k + 1 counts the degrees j = k ..
    min(d, n - k), and cols_k counts the levels w in {0, m, 2m, ...} with
    k <= w <= n - k. Let C_k be the rows_k x cols_k matrix with entry
    K_{j-k}(w - k; n - 2k), the Krawtchouk value: the sum of (-1)^|x & U|
    over the masks x of weight j - k, for any U of weight w - k.

    Proof. Let M^j be the permutation module of S_n on the j-subsets of
    {1..n}. The monomials of degree j span a copy of M^j, and the functions
    on the level of weight w form another, so E is an S_n-equivariant map
    from the sum of M^j over j <= d to the sum of M^w over w in W(m)'s
    levels. By Young's rule M^j holds the irreducible S^(n-k,k), of
    dimension C(n, k) - C(n, k - 1), once for each k <= min(j, n - j), and
    its parts below k are the image of M^(k-1). By Schur's lemma E acts on
    the isotypic part of type (n-k, k) as C ⊗ id for some matrix C between
    the multiplicity spaces. The domain holds rows_k copies of S^(n-k,k),
    one per degree j in k .. min(d, n - k), so the nullity of E there is
    dim S^(n-k,k) * (rows_k - rank C), and E's nullity is the sum over k.

    C is read off from one vector per copy. Pair the coordinates
    (1, 2), (3, 4), ..., (2k-1, 2k) and call a vector of M^j or M^w
    k-typed when swapping a pair negates it and permuting the other n - 2k
    coordinates fixes it. A k-typed vector vanishes on every subset that
    holds both or neither of some pair, so the k-typed vectors of M^j form
    a line when k <= j <= n - k, and none exist otherwise. The line is
    spanned by

        f_{k,j} = prod over i <= k of (x_{2i-1} - x_{2i}) * e_{j-k}(x_{2k+1}, ..., x_n).

    f_{k,j} is orthogonal to the image of M^(k-1): a (k-1)-set misses some
    pair, swapping that pair permutes its supersets and negates f_{k,j},
    so the coefficients of f_{k,j} on them sum to zero. Hence f_{k,j} lies
    in the part of type (n-k, k), and as the k-typed vectors of M^j are one
    line, the other parts hold none: each copy of S^(n-k,k) holds exactly
    one k-typed line. The same holds on each level M^w, whose k-typed line
    is spanned by the vector h_w equal to 1 at the point p_w whose pairs are
    (+1, -1) and whose w - k other -1s are the last coordinates. E maps
    k-typed vectors to k-typed vectors, so E f_{k,j} is the sum over w of
    its value at p_w times h_w. That value is 2^k * K_{j-k}(w - k; n - 2k):
    each pair factor is 2, and e_{j-k} of n - 2k signs with w - k minus signs
    is the Krawtchouk value. So C = 2^k * C_k, of the same rank.

    Rank lemma: rank C_k = min(rows_k, cols_k), so rows_k - rank C_k =
    max(0, rows_k - cols_k). K_t(u; N) is a polynomial in u of degree
    exactly t with leading coefficient (-2)^t / t! (MacWilliams and Sloane,
    The Theory of Error-Correcting Codes, ch. 5 §7), and every row of C_k
    has t = j - k <= n - 2k = N. Hence C_k = L V, where L is the
    rows_k x rows_k lower-triangular matrix of those polynomials'
    coefficients, invertible as its diagonal entries (-2)^t / t! are
    nonzero, and V is the Vandermonde matrix of u^0 .. u^(rows_k - 1) at the
    cols_k distinct nodes u = w - k. A Vandermonde matrix on distinct nodes
    has rank min(rows, cols), and so has L V.

    Edge: for d >= 1 the dimension is 0 at n = d*m + 1 and positive at
    n = d*m. At n = d*m + 1, rows_0 = d + 1 = floor(n / m) + 1 = cols_0.
    For 1 <= k <= d, n - k > d, so rows_k = d - k + 1. Write k = a*m - b
    with a >= 1 and 0 <= b < m. Then floor((k - 1) / m) = a - 1 and
    floor((n - k) / m) = d - a + floor((b + 1) / m), so
    cols_k >= d - 2a + 1, with one more when b = m - 1. If b <= m - 2,
    k >= (a - 1)*m + 2 >= 2a, so rows_k <= d - 2a + 1 <= cols_k. If
    b = m - 1, k = (a - 1)*m + 1 >= 2a - 1, so rows_k <= d - 2a + 2 =
    cols_k. Every term is then 0. A larger n keeps every rows_k and lowers
    no cols_k, so the dimension stays 0. At n = d*m the part k = 1 has
    rows_1 = d and cols_1 = floor((d*m - 1) / m) = d - 1, so it adds
    n - 1 > 0. ``test_vanishing_dimension_edge_is_n_equals_d_m_plus_1``
    checks both sides for even m <= 10 and d <= 7.

    Cost: one pass over k with a few integer operations each, plus two
    binomials for each k with rows_k > cols_k.
    """
    if m < 2 or m % 2:
        raise BadModulus(f"modulus must be even and >= 2, got {m}")
    if not 0 <= d <= n:
        raise DegreeOutOfRange(f"need 0 <= d <= n, got d={d}")
    total = 0
    for k in range(min(d, n // 2) + 1):
        rows = min(d, n - k) - k + 1
        cols = (n - k) // m - (k - 1) // m
        if rows > cols:
            total += (rows - cols) * (math.comb(n, k) - (math.comb(n, k - 1) if k else 0))
    return total
