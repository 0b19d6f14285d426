"""Bounded-integer search for small skew covers of {-1,1}^n.

The candidate pool enumerates primitive integer planes within coefficient and
offset bounds, keeps only those that can vanish on the cube (parity filter)
and do somewhere by one capped pass of ``cube._bitsets``, and orders them
canonically. The same pass gives the search its bitsets, one row of uint64
words per plane. The cover search is depth-first branch and bound with
iterative deepening on the family size, starting at the proven lower bound
ceil(n/2 + 1): asking for fewer planes than that is vacuous by the bound, and
the search reports it as exhausted without exploring. Inside the tree two
lower bounds prune a child whose remaining budget cannot finish the cover: a
counting rule (the budget times the largest single-plane coverage is below
the number of uncovered points) and a packing rule (more than budget
uncovered points, no two of which lie on a common pool plane). The packing
rule is sound because each of those points needs a plane of its own. A node
tests its children against both rules before recursing: one popcount over
the word rows gives every child's fresh coverage, the counting rule cuts a
suffix of the sorted children with no call, and the packing rule is tested
on each child that survives it. Before either rule, a symmetry rule drops
every child that is not the first of its orbit under the permutations of
coordinates that fix the node (the lex-leader form of Crawford, Ginsberg,
Luks and Roy 1996): the first member is the one the search tries first, and
its mates hold a cover exactly when it does, so the rule changes node
counts but never the status or the family found.
Negative outcomes are always claims relative to the configured bounds, never
unconditional nonexistence statements.
"""

from __future__ import annotations

import enum
import math
import time
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
    canonical_first_plane: bool = True

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


def candidate_pool(n: int, coeff_bound: int, offset_bound: int) -> list[Hyperplane]:
    """All primitive skew integer planes within bounds that cover >= 1 point.

    Coefficients range over {-B..B} minus 0 with the leading one positive
    (a plane and its negation are the same set), contents divided by their
    gcd, and the parity filter applied: a.x has the parity of sum(a), so
    b must match it mod 2 for the form to vanish anywhere. Output is sorted
    by colex on (a_1..a_n, b). Raises ``DimensionTooLarge``, before enumerating,
    when (2B)^n (2 offset_bound + 1) raw planes times 2^n points exceed 2^28,
    or when B (2B)^(n-1) (2 min(offset_bound, nB) + 1) raw planes exceed 2^20.
    """
    return [Hyperplane(a, b) for a, b in _pool_rows(n, coeff_bound, offset_bound)[0]]


def _pool_rows(n: int, coeff_bound: int, offset_bound: int):
    """The pool's integer rows (a, b) in colex order and their bitsets: the raw
    grid, numbered with b fastest, then a_1..a_n, is decoded, masked by parity
    and gcd and handed to ``cube._bitsets`` in slices of at most
    2^_CHUNK_BITS cells."""
    if n < 1:
        raise UsageError("n must be positive")
    if coeff_bound < 1 or offset_bound < 0:
        raise UsageError("bounds out of range")
    cube._check_exhaustive(n)
    cells = (2 * coeff_bound) ** n * (2 * offset_bound + 1) << n
    if cells > _POOL_CELLS:
        raise DimensionTooLarge(f"pool table of {cells} cells (planes x 2^n) exceeds {_POOL_CELLS}")
    # |a.x| <= n*B, so a larger |b| meets no point; the cap keeps all in int64.
    offset_bound = min(offset_bound, n * coeff_bound)
    shape = (2 * coeff_bound,) * (n - 1) + (coeff_bound, 2 * offset_bound + 1)
    total, step = math.prod(shape), max(1, (1 << cube._CHUNK_BITS) >> n)
    if total > _POOL_ROWS:
        raise DimensionTooLarge(f"pool grid of {total} raw planes exceeds {_POOL_ROWS}")
    rows, words = [], []
    for start in range(0, total, step):
        *tail, first, b = np.unravel_index(np.arange(start, min(start + step, total)), shape)
        # Digit d of a_2..a_n stands for the d-th of -B..-1, 1..B.
        cols = [first + 1] + [d - coeff_bound + (d >= coeff_bound) for d in reversed(tail)]
        b = b - offset_bound
        # Parity first, so the gcd runs only on the rows it keeps.
        even = (sum(cols) + b) % 2 == 0
        cols, b = [c[even] for c in cols], b[even]
        keep = np.gcd.reduce([*cols, b]) == 1
        a, b = np.stack(cols, axis=1)[keep], b[keep]
        packed = cube._bitsets(a, b, n)
        hits = packed.any(axis=1)
        rows += zip(map(tuple, a[hits].tolist()), b[hits].tolist())
        words.append(packed[hits])
    return rows, np.concatenate(words)


def _ints(words) -> list[int]:
    """Per row of a word matrix, the int whose bit m is bit m of the row."""
    return [int.from_bytes(row.tobytes(), "little") for row in words]


def _covered_words(pool: list[Hyperplane], n: int):
    """The ``cube._bitsets`` word matrix of planes with any rational rows."""
    cube._check_exhaustive(n)
    return cube._bitsets(*cube._plane_arrays([cube._integerized(p) for p in pool], n), n)


def _canonical_root(a, b) -> bool:
    # Representative of the orbit under coordinate permutations and sign
    # flips (plus plane negation): coefficients positive and ascending,
    # offset nonnegative.
    return all(c > 0 for c in a) and all(a[i] <= a[i + 1] for i in range(len(a) - 1)) and b >= 0


def min_cover_search(config: SearchConfig) -> SearchOutcome:
    """Iterative-deepening DFS for a cover of at most ``max_k`` pool planes.

    At each node the lowest-mask uncovered point v is selected and the branch
    runs over the pool planes covering it, ordered by descending fresh
    coverage (points of the node it newly covers) with pool order breaking
    ties. Before any bound, the symmetry rule below drops every candidate
    that is not the first of its orbit. A child is cut, before any call, by
    either of two lower bounds on the planes still needed:

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

    The root of each family size k is tested by the same two rules. Both
    rules remove only subtrees without a cover within the budget, so they
    change node counts but never which cover is found first. At the root,
    when enabled, branching is restricted to orbit representatives under
    coordinate permutations and sign flips, which is sound because the pool
    is closed under those symmetries.

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
    pool, words = _pool_rows(n, config.coeff_bound, offset)
    pool_size = len(pool)

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
    # The coefficient rows as one matrix, for the symmetry rule's compare.
    coeffs = np.array([a for a, _ in pool], dtype=np.int64).reshape(pool_size, n)
    roots = None
    if config.canonical_first_plane:
        roots = np.array(
            [i for i, (a, b) in enumerate(pool) if _canonical_root(a, b)], dtype=np.intp
        )
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

    def first_of_orbits(cands, v: int):
        # The symmetry rule: consecutive members lo < hi of each class of
        # coordinates 2..n, a class being one column of the chosen planes'
        # coefficients and v's bits; keep the rows with a_lo >= a_hi.
        columns = zip(*(pool[i][0] for i in chosen), [v >> j & 1 for j in range(n)])
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
        if chosen or roots is None:
            v = (uncovered & -uncovered).bit_length() - 1
            cands = first_of_orbits(covering[v], v)
        else:
            cands = roots
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

    for k in range(k_lo, config.max_k + 1):
        nodes += 1
        if width <= k * max_cov and packs(full, k) and expand(full, k):
            family = CoverFamily(tuple(Hyperplane(*pool[i]) for i in chosen))
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
    finish the cover.
    """
    planes = list(pool)
    if not planes:
        raise PoolInsufficient("empty pool")
    for p in planes:
        if p.n != n:
            raise DimensionMismatch(f"pool plane has n={p.n}, expected {n}")
    words = _covered_words(planes, n)
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
