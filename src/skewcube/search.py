"""Bounded-integer search for small skew covers of {-1,1}^n.

The candidate pool enumerates primitive integer planes within coefficient and
offset bounds, keeps only those that can vanish on the cube (parity filter)
and do somewhere by one capped pass of ``cube._bitsets``, and orders them
canonically. The parity and primitivity filters are one broadcast mask over
the (coefficient row x offset) grid, whose kept cells come in canonical
order, and the pass evaluates the kept planes in the narrowest signed dtype
that holds 2nB + 1; the arrays it returns are int64 (the words uint64).
It stays three numpy arrays, the coefficient matrix, the offsets
and the bitsets (one row of uint64 words per plane), from that pass to every
consumer: the search reads its symmetry rule and its root rule off the
coefficient matrix, and ``candidate_pool`` wraps the arrays in a ``Pool``, a
read-only sequence that builds a plane only when one is read, whose words
``greedy_cover`` reads instead of evaluating the planes again. The root of
the search branches only on the canonical planes, one per orbit under
coordinate permutations, sign flips and negation. The cover search is
depth-first branch and bound with iterative deepening on the family size,
starting at the proven lower bound ceil(n/2 + 1): asking for fewer planes than
that is vacuous by the bound, and the search reports it as exhausted without
exploring. Inside the tree two lower bounds prune a child whose remaining
budget cannot finish the cover: a counting rule (the budget times the largest
single-plane coverage is below the number of uncovered points) and a packing
rule (more than budget uncovered points, no two of which lie on a common pool
plane). The packing rule is sound because each of those points needs a plane
of its own. A node tests its children against both rules before recursing: one
popcount over the word rows gives every child's fresh coverage, the counting
rule cuts a suffix of the sorted children with no call, and the packing rule
is tested on each child that survives it. Before either rule, a symmetry rule
drops every child that is not the first of its orbit under the permutations of
coordinates that fix the node (the lex-leader form of Crawford, Ginsberg, Luks
and Roy 1996): the first member is the one the search tries first, and its
mates hold a cover exactly when it does, so the rule changes node counts but
never the status or the family found.
Negative outcomes are always claims relative to the configured bounds, never
unconditional nonexistence statements.
"""

from __future__ import annotations

import enum
import math
import operator
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import cube
from .cube import CoverFamily, Hyperplane, verify_cover
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    PoolInsufficient,
    SkewcubeError,
    UsageError,
)

# Caps on the pool's one evaluation, in raw planes times 2^n points, and on
# its raw planes once offsets past n * B are dropped. The row cap is the
# bound the cell cap implies at n = 7 (2^28 cells over 2^7 points, halved by
# a_1 > 0); below n = 7 the cell cap alone admits up to 2^(27 - n) rows,
# 2^25 at n = 2, that almost all meet nothing.
_POOL_CELLS = 1 << 28
_POOL_ROWS = 1 << 20
# Nodes between reads of the clock when a time budget is set.
_CHECK_EVERY = 256


class SearchStatus(enum.Enum):
    FOUND_COVER = "found_cover"
    EXHAUSTED_NO_COVER = "exhausted_no_cover"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class SearchConfig:
    """Bounds and knobs for one search run.

    ``offset_bound`` defaults to n (level-set planes need offsets up to n).
    A ``max_k`` below the proven lower bound makes the run vacuous.
    ``time_budget`` is in seconds; None means no limit.
    """

    n: int
    coeff_bound: int = 1
    offset_bound: int | None = None
    max_k: int = 8
    time_budget: float | None = None

    def __post_init__(self):
        # Messages name each field by its command-line flag. The test is
        # written "not >=" so that a NaN time budget fails it too.
        for flag, value, least in (
            ("--n", self.n, 1),
            ("--coeff-bound", self.coeff_bound, 1),
            ("--offset-bound", self.offset_bound, 0),
            ("--max-k", self.max_k, 0),
            ("--time-budget", self.time_budget, 0),
        ):
            if value is not None and not value >= least:
                raise UsageError(f"{flag} must be at least {least}, got {value}")


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    family: CoverFamily | None
    nodes_explored: int
    candidate_pool_size: int


def lower_bound(n: int) -> int:
    """Smallest integer >= n/2 + 1: no fewer skew planes can cover {-1,1}^n."""
    if n < 1:
        raise UsageError("n must be positive")
    return (n + 3) // 2


class Pool(Sequence):
    """The read-only sequence of a candidate pool's planes over {-1,1}^n,
    kept as ``_pool_rows``' three arrays: coefficient rows, offsets and word
    rows. A plane is built only when it is read, by the public Hyperplane
    constructor. The first iteration builds every plane and keeps the list,
    so later passes (==, repr, pickle, another loop) build nothing. A slice
    is a Pool over the sliced arrays. It compares equal to a list or Pool of
    the same planes in the same order, is unhashable, and its repr and
    pickle are those of its list of planes."""

    __slots__ = ("n", "_a", "_b", "_words", "_planes")
    __hash__ = None

    def __init__(self, n: int, a, b, words):
        self.n, self._a, self._b, self._words, self._planes = n, a, b, words, None

    def __len__(self) -> int:
        return len(self._b)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Pool(self.n, self._a[i], self._b[i], self._words[i])
        i = operator.index(i)
        return Hyperplane(tuple(self._a[i].tolist()), int(self._b[i]))

    def __iter__(self):
        if self._planes is None:
            self._planes = list(map(Hyperplane, map(tuple, self._a.tolist()), self._b.tolist()))
        return iter(self._planes)

    def __eq__(self, other):
        if isinstance(other, (list, Pool)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def __reduce__(self):
        return list, (list(self),)


def candidate_pool(n: int, coeff_bound: int, offset_bound: int) -> Pool:
    """All primitive skew integer planes within bounds that cover >= 1 point,
    as a ``Pool``: a read-only sequence that builds a plane only when it is
    read.

    Coefficients range over {-B..B} minus 0 with the leading one positive
    (a plane and its negation are the same set), contents divided by their
    gcd, and the parity filter applied: a.x has the parity of sum(a), so
    b must match it mod 2 for the form to vanish anywhere. Output is sorted
    by colex on (a_1..a_n, b). Raises ``DimensionTooLarge``, before enumerating,
    when (2B)^n (2 offset_bound + 1) raw planes times 2^n points exceed 2^28,
    or when B (2B)^(n-1) (2 min(offset_bound, nB) + 1) raw planes exceed 2^20.

    The pool keeps ``_pool_rows``' arrays, word rows included, so
    ``greedy_cover`` reads its coverage without evaluating a plane again.
    ``list(pool)`` gives the planes as a list.
    """
    return Pool(n, *_pool_rows(n, coeff_bound, offset_bound))


def _pool_rows(n: int, coeff_bound: int, offset_bound: int):
    """The pool as arrays (a, b, words) in colex order: int64 coefficient rows
    and offsets, and uint64 bitsets. The B (2B)^(n-1) coefficient rows are
    built once, in colex order, and the (row x offset) grid is masked by
    parity and by gcd(content(a), |b|) = 1 in one broadcast step, whose
    kept cells, read row by row, come with b fastest. The kept planes go to
    one ``cube._bitsets`` call, in the narrowest signed dtype that holds
    2nB + 1, and those that cover a point stay."""
    if n < 1:
        raise UsageError("n must be positive")
    if coeff_bound < 1 or offset_bound < 0:
        raise UsageError("bounds out of range")
    cube._check_exhaustive(n)
    cells = (2 * coeff_bound) ** n * (2 * offset_bound + 1) << n
    if cells > _POOL_CELLS:
        raise DimensionTooLarge(f"pool table of {cells} cells (planes x 2^n) exceeds {_POOL_CELLS}")
    # |a.x| <= n*B, so a larger |b| meets no point.
    offset_bound = min(offset_bound, n * coeff_bound)
    total = coeff_bound * (2 * coeff_bound) ** (n - 1) * (2 * offset_bound + 1)
    if total > _POOL_ROWS:
        raise DimensionTooLarge(f"pool grid of {total} raw planes exceeds {_POOL_ROWS}")
    # _zero_hits works in the dtype of a and b, and |b| + sum|a_j| <= 2nB.
    dtype = np.min_scalar_type(-(2 * n * coeff_bound + 1))
    values = np.arange(-coeff_bound, coeff_bound + 1, dtype=dtype)
    values = values[values != 0]
    # The rows in colex order: a_n slowest, a_1 (positive) fastest.
    cols = np.meshgrid(*[values] * (n - 1), values[coeff_bound:], indexing="ij")
    rows = np.stack([c.ravel() for c in reversed(cols)], axis=1)
    offsets = np.arange(-offset_bound, offset_bound + 1, dtype=dtype)
    # a.x has the parity of sum(a), and a row's gcd with b is its content's.
    odd = rows.sum(axis=1, dtype=dtype) & 1
    content = np.gcd.reduce(rows, axis=1)
    keep = (odd[:, None] == offsets & 1) & (np.gcd.outer(content, offsets) == 1)
    # Row-major, so each row's kept offsets follow it, ascending.
    a = np.repeat(rows, keep.sum(axis=1), axis=0)
    b = np.broadcast_to(offsets, keep.shape)[keep]
    words = cube._bitsets(a, b, n)
    hits = words.any(axis=1)
    return a[hits].astype(np.int64), b[hits].astype(np.int64), words[hits]


def _ints(words) -> list[int]:
    """Per row of a word matrix, the int whose bit m is bit m of the row,
    built one word column at a time, highest first."""
    *low, ints = words.T.tolist()
    for col in reversed(low):
        ints = [x << 64 | y for x, y in zip(ints, col)]
    return ints


def min_cover_search(config: SearchConfig) -> SearchOutcome:
    """Iterative-deepening DFS for a cover of at most ``max_k`` pool planes.

    The root branches on the canonical planes of the root rule below. Every
    other node selects its lowest-mask uncovered point v and branches on the
    pool planes covering it that the symmetry rule below keeps. Children run
    in descending fresh coverage (points of the node they newly cover), pool
    order breaking ties. A child is cut, before any call, by either of two
    lower bounds on the planes still needed:

    - counting: the child's budget times the best single-plane coverage
      cannot reach its uncovered count. With U uncovered points and budget b
      at the node, child i fails exactly when fresh_i < |U| - (b-1)*max_cov.
      Fresh coverage is non-increasing along the sorted children, so the
      failing children form a suffix: the node computes fresh for every
      candidate in one popcount over their uint64 word rows and the node's
      uncovered words, sorts only the children that pass, and counts the
      rest in one step after the passing children are exhausted;
    - packing: walking the child's uncovered points in mask order and taking
      each one that shares no pool plane with a point already taken yields
      more than budget points. Every taken point needs a plane of its own,
      so no cover within the budget exists below the child. It is tested on
      each child that passes counting, just before recursing into it.

    The root of each family size k is tested by the same two rules; the
    sizes whose root fails counting (k * max_cov < 2^n) are counted in one
    step, one node each, so a run in which every root fails ends at once
    whatever its ``max_k``. Both rules remove only subtrees without a cover
    within the budget, so they change node counts but never which cover is
    found first.

    Symmetry rule, at every node that branches on the planes covering v.
    Coordinates 2..n fall into classes: j and j' share one when every chosen
    plane has a_j = a_j' and v has the same bit at j and j'. Coordinate 1
    stays alone, since every pool row has a_1 > 0. A candidate is kept only
    when its coefficients are non-increasing along each class (a_j >= a_j'
    for consecutive members j < j' of a class); the others are not generated
    and not counted. This never changes the outcome:

    - Let G be the group of permutations of coordinates within classes. The
      pool is closed under G (parity, gcd, bounds, a_1 > 0 and covering a
      point do not depend on the order of a_2..a_n), and G fixes every
      chosen plane and v, hence the uncovered set U and the candidates, and
      it preserves coverage: |Z(g p) & U| = |g (Z(p) & U)|. So the members
      of an orbit of candidates have equal fresh coverage and pass or fail
      the counting bound together.
    - The pool index orders rows by (a_n, ..., a_1, b) lexicographically,
      each coefficient ascending. G fixes a_1 and b, and the smallest row
      in an orbit puts the smallest values of each class on its highest
      coordinates, which is the one row non-increasing along every class.
      Children are tried in (-fresh, index) order, so the kept member is
      the first of its orbit that the DFS visits.
    - The pool and the budget are G-invariant, so a family covers U \\ Z(p)
      exactly when its image under g covers U \\ Z(g p): the subtree of an
      orbit-mate holds a cover within the budget exactly when the kept
      member's does. The bounds are sound and the rule, by induction on the
      depth, removes no subtree that holds a cover, so the search below a
      node finds a cover exactly when one exists.
    - Hence a skipped child comes after its kept mate, which either returned
      a cover, and the node never reached the skipped child, or returned
      none, and the skipped child would have returned none as well. Status
      and family are those of the search without the rule at every family
      size k; only ``nodes_explored`` drops.

    This is the lex-leader form of Crawford, Ginsberg, Luks and Roy (1996),
    restricted to the node's stabiliser so that it keeps the first cover.

    Root rule. The canonical planes, coefficients positive and ascending and
    offset nonnegative, are one per orbit under coordinate permutations, sign
    flips and negation, which map the pool onto itself. A cover within the
    budget maps to one holding a canonical plane c, and the search below c
    is complete by the argument above, so the rule never changes the status.

    ``nodes_explored`` counts every node generated: each root, and every
    child of a node that branched, whether it was cut by a bound before any
    call or recursed into. A cover found ends the count at its own node, so
    the children a node would have tried after it are not counted. Runs
    without a time budget are fully deterministic, including node counts.
    With a budget the clock starts before the pool is built (its size is
    capped, so that step is bounded) and is read every 256 points while the
    point tables are built and about every 256 nodes in the search; a run
    past its deadline returns ``timeout``, with no node counted when it ends
    during set-up.
    """
    deadline = None if config.time_budget is None else time.monotonic() + config.time_budget
    n = config.n
    offset = config.offset_bound if config.offset_bound is not None else n
    coeffs, offsets, words = _pool_rows(n, config.coeff_bound, offset)
    pool_size = len(offsets)

    k_lo = lower_bound(n)
    if config.max_k < k_lo:
        # Vacuous by the lower bound: nothing of this size can exist.
        return SearchOutcome(SearchStatus.EXHAUSTED_NO_COVER, None, 0, pool_size)

    # uncov[i]: the complement of plane i's covered set.
    uncov = [~c for c in _ints(words)]
    max_cov = int(np.bitwise_count(words).sum(axis=1).max(initial=0))
    width = 1 << n
    full = (1 << width) - 1
    # covering[v]: the pool indices of the planes covering v, ascending. Only
    # indices are kept; a node gathers its candidates' word rows itself, so
    # setup holds one copy of the words whatever the number of incidences.
    # near[v]: the mask of every point sharing a pool plane with v.
    covering, near = [], []
    for v in range(width):
        c = np.flatnonzero(words[:, v >> 6] >> (v & 63) & 1)
        covering.append(c)
        near.append(int.from_bytes(np.bitwise_or.reduce(words.take(c, 0)).tobytes(), "little"))
        if deadline is not None and v % _CHECK_EVERY == _CHECK_EVERY - 1:
            if time.monotonic() > deadline:
                return SearchOutcome(SearchStatus.TIMEOUT, None, 0, pool_size)
    # unnbr[v + 1]: the complement of v and every point sharing a pool plane
    # with it, indexed by the bit length of 1 << v.
    unnbr = [0] + [~(1 << v | m) for v, m in enumerate(near)]
    # The coefficient rows as lists, for the symmetry rule's column reads
    # and the family found.
    rows = coeffs.tolist()
    roots = np.flatnonzero((coeffs > 0).all(axis=1) & (coeffs[:, :-1] <= coeffs[:, 1:]).all(axis=1) & (offsets >= 0))
    nbytes = words.shape[1] * 8
    # Child i of a node gets the sort key i - fresh_i * 2^32: keys ascend as
    # (-fresh_i, i) does, and fresh_i >= need exactly when the key is below
    # (1 - need) * 2^32. The pool has fewer than 2^20 planes.
    shift = np.full(words.shape[1], -(1 << 32), dtype=np.int64)

    nodes = 0
    # Cut children are counted in bulk, so ``nodes`` can step over any fixed
    # multiple; the clock is read once ``nodes`` reaches this threshold.
    next_check = _CHECK_EVERY if deadline is not None else math.inf
    timed_out = False
    chosen: list[int] = []

    def packs(rest: int, budget: int) -> bool:
        # Packing bound: False when more than budget points of ``rest``, taken
        # greedily in mask order, share no pool plane pairwise.
        packed = 0
        while rest:
            packed += 1
            if packed > budget:
                return False
            rest &= unnbr[(rest & -rest).bit_length()]
        return True

    def first_of_orbits(uncovered: int):
        # The planes covering the lowest uncovered point v that the symmetry
        # rule keeps: consecutive members lo < hi of each class of
        # coordinates 2..n, a class being one column of the chosen planes'
        # coefficients and v's bits; keep the rows with a_lo >= a_hi.
        v = (uncovered & -uncovered).bit_length() - 1
        cands = covering[v]
        columns = zip(*(rows[i] for i in chosen), [v >> j & 1 for j in range(n)])
        next(columns)  # coordinate 1 is a class of its own
        last, lo, hi = {}, [], []
        for j, column in enumerate(columns, 1):
            if column in last:
                lo.append(last[column])
                hi.append(j)
            last[column] = j
        if not lo:
            return cands
        sub = coeffs.take(cands, 0)
        return cands[(sub[:, lo] >= sub[:, hi]).all(axis=1)]

    def expand(uncovered: int, budget: int) -> bool:
        """Branch at a node that passed both bounds; True when a cover lies
        below it, left on ``chosen``."""
        nonlocal nodes, next_check, timed_out
        cands = first_of_orbits(uncovered) if chosen else roots
        left = uncovered.bit_count()
        # Counting bound: child i keeps left - fresh_i points for child_budget
        # planes, so it fails exactly when fresh_i < need.
        child_budget = budget - 1
        need = left - child_budget * max_cov
        # One popcount per candidate word; the product with shift sums each
        # candidate's words into its fresh coverage and makes its key.
        uncovered_words = np.frombuffer(uncovered.to_bytes(nbytes, "little"), "<u8")
        keys = np.bitwise_count(words.take(cands, 0) & uncovered_words) @ shift + cands
        kids = np.sort(keys[keys < (1 - need) << 32]).tolist()
        for key in kids:
            nodes += 1
            if nodes >= next_check:
                if time.monotonic() > deadline:
                    timed_out = True
                    return False
                next_check = nodes + _CHECK_EVERY
            i = key & 0xFFFFFFFF
            chosen.append(i)
            rest = uncovered & uncov[i]
            if not rest or (packs(rest, child_budget) and expand(rest, child_budget)):
                return True
            chosen.pop()
            if timed_out:
                return False
        # The failing children sort after every passing one; count them only
        # now, since a cover found above returns before reaching them.
        nodes += len(cands) - len(kids)
        return False

    # The root's counting bound, width <= k * max_cov, fails below k_pass and
    # holds from it on, so the roots below k_pass are counted in one step,
    # one node per size, with the one clock read the threshold asks for; a
    # timeout there reports the count the threshold was reached at.
    k_pass = -(-width // max_cov) if max_cov else config.max_k + 1
    k_first = min(max(k_lo, k_pass), config.max_k + 1)
    nodes = k_first - k_lo
    if nodes >= next_check:
        if time.monotonic() > deadline:
            return SearchOutcome(SearchStatus.TIMEOUT, None, next_check, pool_size)
        next_check = nodes + _CHECK_EVERY
    for k in range(k_first, config.max_k + 1):
        nodes += 1
        if nodes >= next_check:
            if time.monotonic() > deadline:
                return SearchOutcome(SearchStatus.TIMEOUT, None, nodes, pool_size)
            next_check = nodes + _CHECK_EVERY
        if packs(full, k) and expand(full, k):
            family = CoverFamily(tuple(Hyperplane(tuple(rows[i]), int(offsets[i])) for i in chosen))
            if not verify_cover(family).covered:
                raise SkewcubeError("internal error: search returned an unverified cover")
            return SearchOutcome(SearchStatus.FOUND_COVER, family, nodes, pool_size)
        if timed_out:
            return SearchOutcome(SearchStatus.TIMEOUT, None, nodes, pool_size)
    return SearchOutcome(SearchStatus.EXHAUSTED_NO_COVER, None, nodes, pool_size)


def greedy_cover(n: int, pool) -> CoverFamily:
    """Repeatedly take the plane covering the most uncovered points.

    Ties break toward the earlier pool position, so feeding a canonically
    ordered pool keeps the result deterministic. Raises when the pool cannot
    finish the cover. A ``Pool`` (what ``candidate_pool`` returns, or a
    slice of it) gives its word rows, so no plane is evaluated and only the
    planes taken are built; any other iterable of planes is evaluated once
    by ``cube._plane_words``.
    """
    planes = pool if isinstance(pool, Pool) else list(pool)
    if not planes:
        raise PoolInsufficient("empty pool")
    if isinstance(planes, Pool):
        if planes.n != n:
            raise DimensionMismatch(f"pool plane has n={planes.n}, expected {n}")
        words = planes._words
    else:
        for p in planes:
            if p.n != n:
                raise DimensionMismatch(f"pool plane has n={p.n}, expected {n}")
        words = cube._plane_words(planes, n)
    covered = np.zeros(words.shape[1], dtype=words.dtype)
    left = 1 << n
    chosen: list[int] = []
    while left:
        # argmax takes the first largest gain: the earliest pool position.
        gains = np.bitwise_count(words & ~covered).sum(axis=1)
        best = int(gains.argmax())
        if not gains[best]:
            raise PoolInsufficient(f"pool leaves {left} points uncovered")
        chosen.append(best)
        covered |= words[best]
        left -= int(gains[best])
    return CoverFamily(tuple(planes[i] for i in chosen))
