import itertools
import json
import math
import pickle
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewcube import cube
from skewcube.constructions import level_set_cover, power_of_two_cover
from skewcube.cube import CoverFamily, Hyperplane, covered_set, is_skew, verify_cover
from skewcube.errors import DimensionMismatch, DimensionTooLarge, PoolInsufficient, UsageError
from skewcube.search import (
    SearchConfig,
    SearchOutcome,
    SearchStatus,
    Pool,
    _ints,
    _pool_rows,
    candidate_pool,
    greedy_cover,
    lower_bound,
    min_cover_search,
)

GOLDEN = Path(__file__).parent / "golden"


def covered_bitsets(pool, n):
    """Per plane, the int whose bit m is set iff the plane covers mask m."""
    return _ints(cube._plane_words(pool, n))


def pool_rows(n, coeff_bound, offset):
    """``_pool_rows``' coefficient rows and offsets as (tuple, int) pairs."""
    a, b, _ = _pool_rows(n, coeff_bound, offset)
    return list(zip(map(tuple, a.tolist()), b.tolist()))


def test_lower_bound_values():
    assert lower_bound(5) == 4
    assert lower_bound(2) == 2
    assert lower_bound(6) == 4
    assert lower_bound(1) == 2
    assert lower_bound(7) == 5


def test_candidate_pool_n2_unit():
    pool = candidate_pool(2, 1, 0)
    got = {(tuple(int(c) for c in p.a), int(p.b)) for p in pool}
    assert got == {((1, 1), 0), ((1, -1), 0)}
    # canonical order: colex on (a_1..a_n, b)
    keys = [tuple(reversed(p.a)) + (p.b,) for p in pool]
    assert keys == sorted(keys)


def test_candidate_pool_parity_filter():
    # sum(a) is even here, so odd offsets can never vanish on the cube
    pool = candidate_pool(2, 1, 1)
    assert all(int(p.b) % 2 == 0 for p in pool)
    assert ((1, 1), 1) not in {(tuple(int(c) for c in p.a), int(p.b)) for p in pool}


def test_candidate_pool_all_skew_and_primitive():
    pool = candidate_pool(3, 2, 2)
    assert all(is_skew(p) for p in pool)
    for p in pool:
        ints = [int(c) for c in p.a] + [int(p.b)]
        assert math.gcd(*(abs(v) for v in ints)) == 1
        assert int(p.a[0]) > 0


def test_candidate_pool_every_plane_covers_something():
    from skewcube.cube import covered_set

    pool = candidate_pool(3, 1, 3)
    assert all(covered_set(p) for p in pool)


def test_candidate_pool_cap():
    with pytest.raises(DimensionTooLarge):
        candidate_pool(20, 3, 20)


@pytest.mark.parametrize("n, coeff_bound, offset", [(16, 1, 0), (8, 2, 8), (7, 3, 7), (24, 1, 0)])
def test_candidate_pool_refuses_a_table_over_the_cap_at_once(n, coeff_bound, offset):
    # (16, 1, 0) is 2^16 raw planes x 2^16 points; nothing is enumerated
    start = time.perf_counter()
    with pytest.raises(DimensionTooLarge, match="cells"):
        candidate_pool(n, coeff_bound, offset)
    assert time.perf_counter() - start < 1


def test_candidate_pool_cap_counts_cells():
    # 2 * (2 * (2^25 - 1) + 1) raw planes x 2 points is just under 2^28;
    # offsets past n * B meet no point, so the grid stops there
    assert len(candidate_pool(1, 1, (1 << 25) - 1)) == 2
    with pytest.raises(DimensionTooLarge):
        candidate_pool(1, 1, 1 << 25)


def test_pool_rows_refuses_a_grid_over_the_row_cap_at_once():
    # (2B)^2 = 2^26 raw planes times 4 points is exactly the cell cap, yet
    # the grid's 2^25 rows (a_1 > 0) give a pool of 2 planes
    start = time.perf_counter()
    with pytest.raises(DimensionTooLarge, match="raw planes"):
        _pool_rows(2, 4096, 0)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", [25, 10**30])
def test_candidate_pool_checks_the_cube_size_first(n):
    with pytest.raises(DimensionTooLarge, match="exhaustive cap"):
        candidate_pool(n, 10**30, 10**30)


def reference_raw(n, coeff_bound, offset_bound):
    """The raw planes of the pool: one Python loop over the grid, parity and
    gcd tested per plane, in product order."""
    values = [v for v in range(-coeff_bound, coeff_bound + 1) if v]
    positives = [v for v in values if v > 0]
    raw = []
    for first in positives:
        for tail in itertools.product(values, repeat=n - 1):
            a = (first, *tail)
            parity = sum(a) & 1
            for b in range(-offset_bound, offset_bound + 1):
                if (b & 1) != parity:
                    continue
                if math.gcd(*(abs(x) for x in a), abs(b)) > 1:
                    continue
                raw.append((a, b))
    return raw


def reference_pool(n, coeff_bound, offset_bound):
    """The pool as first built: the raw planes, a dense matmul over every
    point that keeps the planes meeting one, then a colex sort."""
    raw = reference_raw(n, coeff_bound, offset_bound)
    masks = np.arange(1 << n, dtype=np.int64)
    signs = 1 - 2 * ((masks[:, None] >> np.arange(n)[None, :]) & 1)
    A = np.asarray([a for a, _ in raw], dtype=np.int64).reshape(len(raw), n)
    b = np.asarray([b for _, b in raw], dtype=np.int64)
    hits = (signs @ A.T == -b[None, :]).any(axis=0)
    keep = [ab for ab, hit in zip(raw, hits) if hit]
    keep.sort(key=lambda ab: (tuple(reversed(ab[0])), ab[1]))
    return [Hyperplane(a, b) for a, b in keep]


def assert_pool_matches_reference(n, coeff_bound, offset):
    want = reference_pool(n, coeff_bound, offset)
    assert candidate_pool(n, coeff_bound, offset) == want
    a, b, words = _pool_rows(n, coeff_bound, offset)
    assert a.dtype == b.dtype == np.int64 and a.shape == (len(want), n)
    assert list(zip(map(tuple, a.tolist()), b.tolist())) == [(p.a, p.b) for p in want]
    assert _ints(words) == covered_bitsets(want, n)


SMALL_POOLS = [
    (n, coeff_bound, offset)
    for n in range(1, 5)
    for coeff_bound in range(1, 4)
    for offset in range(coeff_bound * n + 2)
]


@pytest.mark.parametrize("n, coeff_bound", sorted({cfg[:2] for cfg in SMALL_POOLS}))
def test_pool_matches_reference(n, coeff_bound):
    for offset in range(coeff_bound * n + 2):
        assert_pool_matches_reference(n, coeff_bound, offset)


def test_small_pools_exercise_the_covering_filter():
    raw = reference_raw(2, 2, 4)
    assert (len(raw), len(candidate_pool(2, 2, 4))) == (26, 22)
    dropping = [cfg for cfg in SMALL_POOLS if len(_pool_rows(*cfg)[1]) < len(reference_raw(*cfg))]
    assert len(dropping) == 47


@pytest.mark.parametrize("n, coeff_bound, offset", [(5, 2, 5), (6, 2, 0), (6, 1, 6), (6, 2, 6)])
def test_pool_matches_reference_benchmark_configs(n, coeff_bound, offset):
    assert_pool_matches_reference(n, coeff_bound, offset)


@pytest.mark.parametrize(
    "n, coeff_bound, offset, dtype",
    # 2nB + 1 is 127 at (3, 21), 133 at (3, 22) and 401 at (2, 100)
    [(3, 21, 0, np.int8), (3, 21, 1, np.int8), (3, 22, 0, np.int16), (3, 22, 1, np.int16), (2, 100, 3, np.int16)],
)
def test_pool_is_evaluated_in_the_narrowest_dtype(n, coeff_bound, offset, dtype, monkeypatch):
    seen = set()
    bitsets = cube._bitsets
    monkeypatch.setattr(cube, "_bitsets", lambda a, b, n: seen.add((a.dtype, b.dtype)) or bitsets(a, b, n))
    _pool_rows(n, coeff_bound, offset)
    assert seen == {(np.dtype(dtype), np.dtype(dtype))}
    monkeypatch.undo()
    assert_pool_matches_reference(n, coeff_bound, offset)


def test_empty_pool_keeps_its_shapes_and_dtypes():
    a, b, words = _pool_rows(1, 1, 0)
    assert (a.shape, b.shape, words.shape) == ((0, 1), (0,), (0, 1))
    assert (a.dtype, b.dtype, words.dtype) == (np.int64, np.int64, np.uint64)
    assert _ints(words) == []


@pytest.mark.parametrize("rows, cols", [(0, 1), (0, 3), (1, 1), (5, 1), (5, 2), (7, 4)])
def test_ints_reads_each_row_little_endian(rows, cols):
    words = np.random.default_rng(rows * 10 + cols).integers(0, 1 << 64, (rows, cols), dtype=np.uint64)
    words[:, -1:] |= np.uint64(1 << 63)
    assert _ints(words) == [int.from_bytes(row.tobytes(), "little") for row in words]


@pytest.mark.parametrize("n, coeff_bound, offset", [(4, 2, 4), (5, 2, 5), (7, 1, 7)])
def test_pool_rows_do_not_depend_on_the_block_size(n, coeff_bound, offset, monkeypatch):
    # chunk_bits n, n + 3 and 18 put 1, 8 and 2^(18 - n) planes in each _zero_hits block.
    bitsets = cube._bitsets
    runs = []
    for bits in (n, n + 3, 18):
        calls = []
        monkeypatch.setattr(cube, "_bitsets", lambda a, b, n, bits=bits: calls.append(bits) or bitsets(a, b, n, bits))
        runs.append(_pool_rows(n, coeff_bound, offset))
        assert len(calls) == 1
    for run in runs[1:]:
        for x, y in zip(runs[0], run):
            assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


def test_pool_rows_stay_small_on_a_grid_where_most_planes_meet_no_point():
    # 1,040,384 raw planes over the 4 points of n = 2, most of which meet
    # none of them: the one _bitsets pass holds a word for each raw plane.
    tracemalloc.start()
    try:
        a, b, words = _pool_rows(2, 64, 63)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(b) == len(a) == len(words) > 0
    assert peak < 24 << 20, peak


def test_vacuous_below_lower_bound():
    out = min_cover_search(SearchConfig(n=2, coeff_bound=1, offset_bound=0, max_k=1))
    assert out.status is SearchStatus.EXHAUSTED_NO_COVER
    assert out.nodes_explored == 0
    assert out.family is None


def test_found_cover_n2():
    out = min_cover_search(SearchConfig(n=2, coeff_bound=1, offset_bound=0, max_k=2))
    assert out.status is SearchStatus.FOUND_COVER
    assert len(out.family) == 2
    assert verify_cover(out.family).covered


def test_found_cover_n4_unit_coeffs():
    out = min_cover_search(SearchConfig(n=4, coeff_bound=1, max_k=4))
    assert out.status is SearchStatus.FOUND_COVER
    assert lower_bound(4) <= len(out.family) <= 4
    assert verify_cover(out.family).covered


def test_search_deterministic():
    cfg = SearchConfig(n=4, coeff_bound=1, max_k=4)
    a = min_cover_search(cfg)
    b = min_cover_search(cfg)
    assert a.status == b.status
    assert a.nodes_explored == b.nodes_explored
    assert a.family == b.family


def test_search_monotone_in_coeff_bound():
    # enlarging the pool can only help: found stays found
    small = min_cover_search(SearchConfig(n=3, coeff_bound=1, offset_bound=3, max_k=4))
    big = min_cover_search(SearchConfig(n=3, coeff_bound=2, offset_bound=3, max_k=4))
    assert small.status is SearchStatus.FOUND_COVER
    assert big.status is SearchStatus.FOUND_COVER


def test_golden_n3_bounded_outcome():
    # archived after the first verified run; the exhausted claim was
    # cross-checked by brute force over all 3-subsets of the pool
    record = json.loads((GOLDEN / "search_n3_b1_off3_k3.json").read_text())
    cfg = record["config"]
    out = min_cover_search(
        SearchConfig(
            n=cfg["n"],
            coeff_bound=cfg["coeff_bound"],
            offset_bound=cfg["offset_bound"],
            max_k=cfg["max_k"],
        )
    )
    assert out.status.value == record["status"]
    assert out.nodes_explored == record["nodes_explored"]
    assert out.candidate_pool_size == record["candidate_pool_size"]
    assert out.family is None


def test_greedy_with_level_set_pool():
    fam = greedy_cover(3, list(level_set_cover(3)))
    assert len(fam) <= 4
    assert verify_cover(fam).covered


def test_greedy_with_doubling_pool():
    fam = greedy_cover(5, list(power_of_two_cover(2)))
    assert len(fam) == 4
    assert verify_cover(fam).covered


def test_greedy_never_beats_lower_bound():
    for n, pool in [(3, list(level_set_cover(3))), (5, list(power_of_two_cover(2)))]:
        assert len(greedy_cover(n, pool)) >= lower_bound(n)


def test_greedy_with_rationally_rescaled_pool():
    # every plane scaled by its own rational keeps its zero set, so greedy
    # picks the same positions as on the integer pool
    pool = candidate_pool(5, 2, 5)
    scales = [Fraction((-1) ** i * (i % 7 + 1), i % 7 + 2) for i in range(len(pool))]
    scaled = [Hyperplane(tuple(q * c for c in p.a), q * p.b) for p, q in zip(pool, scales)]
    assert all(p._row[2] > 1 for p in scaled)
    position = {p: i for i, p in enumerate(pool)}
    want = tuple(scaled[position[p]] for p in greedy_cover(5, pool))
    assert greedy_cover(5, scaled).planes == want


def reference_greedy(n, pool):
    """Greedy as first written: one Python loop over the pool's int bitsets
    per pick, the first largest gain winning."""
    cov = covered_bitsets(pool, n)
    full = (1 << (1 << n)) - 1
    covered = 0
    chosen = []
    while covered != full:
        best, best_gain = None, 0
        for i, c in enumerate(cov):
            gain = (c & ~covered & full).bit_count()
            if gain > best_gain:
                best, best_gain = i, gain
        if best is None:
            raise PoolInsufficient(f"pool leaves {(full & ~covered).bit_count()} points uncovered")
        chosen.append(best)
        covered |= cov[best]
    return CoverFamily(tuple(pool[i] for i in chosen))


# (6, 2, 6) and every fifth small pool past n = 1
GREEDY_POOLS = [(6, 2, 6), *[cfg for cfg in SMALL_POOLS if cfg[0] > 1][::5]]


@pytest.mark.parametrize("n, coeff_bound, offset", GREEDY_POOLS)
def test_greedy_matches_the_loop_over_int_bitsets(n, coeff_bound, offset):
    whole = candidate_pool(n, coeff_bound, offset)
    # reversed, the pool breaks ties the other way; its first third may
    # leave points uncovered. A Pool reads its own words and a list of its
    # planes is evaluated again; both must pick the same planes.
    for pool in filter(None, (whole, whole[::-1], whole[: len(whole) // 3])):
        assert isinstance(pool, Pool)
        try:
            want = reference_greedy(n, pool)
        except PoolInsufficient as exc:
            for planes in (pool, list(pool)):
                with pytest.raises(PoolInsufficient, match=f"^{exc}$"):
                    greedy_cover(n, planes)
        else:
            assert greedy_cover(n, pool) == greedy_cover(n, list(pool)) == want


def test_greedy_insufficient_pool():
    with pytest.raises(PoolInsufficient):
        greedy_cover(2, [Hyperplane((1, 1), 0)])


def test_greedy_checks_a_pool_like_a_list():
    pool = candidate_pool(3, 1, 3)
    for planes in (pool, list(pool)):
        with pytest.raises(DimensionMismatch, match="pool plane has n=3, expected 4"):
            greedy_cover(4, planes)
    # emptiness is tested first, whatever the dimension
    for planes in (pool[:0], []):
        for n in (3, 4):
            with pytest.raises(PoolInsufficient, match="^empty pool$"):
                greedy_cover(n, planes)


def assert_pool_is_a_sequence_of_its_rows(n, coeff_bound, offset):
    pool = candidate_pool(n, coeff_bound, offset)
    want = [Hyperplane(a, b) for a, b in pool_rows(n, coeff_bound, offset)]
    assert isinstance(pool, Pool) and pool.n == n and len(pool) == len(want)
    planes = list(pool)
    assert planes == want
    # the first pass keeps its planes, so a second one builds none
    assert all(p is q for p, q in zip(planes, pool, strict=True))
    assert [pool[i] for i in range(len(pool))] == want
    if want:
        assert pool[-1] == want[-1] and pool[-len(want)] == want[0]
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            pool[i]
    for cut in (slice(None, None, -1), slice(len(want) // 3), slice(0)):
        part = pool[cut]
        assert isinstance(part, Pool) and part.n == n
        assert list(part) == want[cut]
        assert part == want[cut] and want[cut] == part
    with pytest.raises(TypeError):
        hash(pool)
    assert pool == want and want == pool and pool == pool[:]
    if len(want) > 1:
        assert pool != want[::-1] and want[::-1] != pool


@pytest.mark.parametrize("n, coeff_bound", sorted({cfg[:2] for cfg in SMALL_POOLS}))
def test_pool_is_a_sequence_of_its_rows(n, coeff_bound):
    for offset in range(coeff_bound * n + 2):
        assert_pool_is_a_sequence_of_its_rows(n, coeff_bound, offset)


def test_pool_is_a_sequence_of_its_rows_benchmark_config():
    assert_pool_is_a_sequence_of_its_rows(6, 2, 6)


def brute_min_cover_size(cov, n, max_k):
    """Smallest k <= max_k such that some k pool planes cover the cube, else None.

    Independent of the search: walks the set of all unions of j covered
    sets, j = 1, 2, ..., with no pruning, ordering or symmetry.
    """
    full = (1 << (1 << n)) - 1
    cov = np.asarray(cov, dtype=np.int64)
    reach = np.zeros(1, dtype=np.int64)
    for k in range(1, max_k + 1):
        reach = np.unique(reach[:, None] | cov[None, :])
        if (reach == full).any():
            return k
    return None


# A budget no small search reaches: a timed search that does not run out
# must return what the untimed one does, node counts included.
LONG_BUDGET = 3600.0


@pytest.mark.parametrize("timed", [True, False])
@pytest.mark.parametrize(
    "n, coeff_bound",
    [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)],
)
def test_search_matches_brute_force(n, coeff_bound, timed):
    max_k = n + 1
    for offset in range(n + 1):
        pool = candidate_pool(n, coeff_bound, offset)
        want = brute_min_cover_size(covered_bitsets(pool, n), n, max_k)
        out = min_cover_search(
            SearchConfig(
                n=n,
                coeff_bound=coeff_bound,
                offset_bound=offset,
                max_k=max_k,
                time_budget=LONG_BUDGET if timed else None,
            )
        )
        if want is None:
            assert out.status is SearchStatus.EXHAUSTED_NO_COVER, (n, coeff_bound, offset)
        else:
            assert out.status is SearchStatus.FOUND_COVER, (n, coeff_bound, offset)
            assert len(out.family) == want, (n, coeff_bound, offset)


def brute_bitsets(pool):
    """Independent oracle: per plane, the int whose bit m is set iff a.x + b
    vanishes at mask m. The plane is scaled to integers by the lcm of its
    denominators, and its values at all masks are built by doubling: the
    masks with bit j set take the values of those without it, less 2 a_j."""
    out = []
    for plane in pool:
        den = math.lcm(plane.b.denominator, *(c.denominator for c in plane.a))
        vals = np.array([int((sum(plane.a) + plane.b) * den)], dtype=object)
        for c in plane.a:
            vals = np.concatenate([vals, vals - int(2 * c * den)])
        out.append(int.from_bytes(np.packbits(vals == 0, bitorder="little").tobytes(), "little"))
    return out


def bits_of_covered_set(plane):
    return sum(1 << pt.bits for pt in covered_set(plane))


small_rational = st.builds(
    Fraction, st.integers(-6, 6).filter(lambda v: v != 0), st.integers(1, 4)
)


@st.composite
def rational_pools(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pool = []
    for _ in range(draw(st.integers(0, 5))):
        a = tuple(draw(small_rational) for _ in range(n))
        pool.append(Hyperplane(a, draw(st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4)))))
    return n, pool


@settings(max_examples=60, deadline=None)
@given(rational_pools(), st.integers(1 << 63, 1 << 90))
def test_covered_bitsets_match_covered_set(n_pool, scale):
    n, pool = n_pool
    want = brute_bitsets(pool)
    assert covered_bitsets(pool, n) == want
    assert [bits_of_covered_set(p) for p in pool] == want
    # scaling every plane by >= 2^63 keeps its zero set and takes the
    # object-dtype branch of the evaluator
    big = [Hyperplane(tuple(scale * c for c in p.a), scale * p.b) for p in pool]
    assert not pool or not cube._int64_safe([p._row for p in big])
    assert covered_bitsets(big, n) == want
    assert [bits_of_covered_set(p) for p in big] == want


def test_covered_bitsets_across_chunks():
    # n = 19 spans two chunks of 2^18 points
    n = 19
    pool = [
        Hyperplane((1,) * n, 1),
        Hyperplane(tuple(Fraction(j + 1, 3) for j in range(n)), Fraction(2, 3)),
    ]
    big = [Hyperplane(tuple((1 << 63) * c for c in p.a), (1 << 63) * p.b) for p in pool]
    want = brute_bitsets(pool)
    low = (1 << (1 << 18)) - 1
    assert all(w & low and w & ~low for w in want)  # both chunks contribute
    assert covered_bitsets(pool, n) == want
    assert covered_bitsets(big, n) == want


def first_of_orbit(a, chosen, v):
    """The symmetry rule, pair by pair: every two coordinates j < j' (both
    past the first) on which each chosen row agrees and v's bits agree must
    have a_j >= a_j'."""
    n = len(a)
    same = [
        (j, k)
        for j in range(1, n)
        for k in range(j + 1, n)
        if v >> j & 1 == v >> k & 1 and all(row[j] == row[k] for row in chosen)
    ]
    return all(a[j] >= a[k] for j, k in same)


def _canonical_root(a, b) -> bool:
    # Representative of the orbit under coordinate permutations and sign
    # flips (plus plane negation): coefficients positive and ascending,
    # offset nonnegative.
    return all(c > 0 for c in a) and all(a[i] <= a[i + 1] for i in range(len(a) - 1)) and b >= 0


def reference_search(config, symmetry=True):
    """The search with one recursive call per child, bounds tested on entry.

    Same pool, bitsets, branching order and bounds as ``min_cover_search``,
    with every child a call of its own that counts itself and then tests
    the counting and packing bounds. No time budget. The root's children are
    the planes ``_canonical_root`` accepts. With ``symmetry`` the children
    of a node branching on v are those ``first_of_orbit`` keeps,
    as in ``min_cover_search``; without it every plane covering v is a
    child, as in the search before the rule.
    """
    n = config.n
    offset = config.offset_bound if config.offset_bound is not None else n
    pool = candidate_pool(n, config.coeff_bound, offset)
    k_lo = lower_bound(n)
    if config.max_k < k_lo:
        return SearchOutcome(SearchStatus.EXHAUSTED_NO_COVER, None, 0, len(pool))
    cov = covered_bitsets(pool, n)
    max_cov = max((c.bit_count() for c in cov), default=0)
    width = 1 << n
    full = (1 << width) - 1
    covering = [[i for i, c in enumerate(cov) if c >> v & 1] for v in range(width)]
    nbr = [1 << v for v in range(width)]
    for v, planes in enumerate(covering):
        for i in planes:
            nbr[v] |= cov[i]
    roots = [i for i, p in enumerate(pool) if _canonical_root(p.a, p.b)]
    nodes = 0

    def dfs(covered, chosen, budget):
        nonlocal nodes
        nodes += 1
        uncovered = full & ~covered
        if not uncovered:
            return chosen
        if uncovered.bit_count() > budget * max_cov:
            return None
        rest = uncovered
        packed = 0
        while rest:
            packed += 1
            if packed > budget:
                return None
            rest &= ~nbr[(rest & -rest).bit_length() - 1]
        if not chosen:
            cands = roots
        else:
            v = (uncovered & -uncovered).bit_length() - 1
            cands = covering[v]
            if symmetry:
                rows = [pool[c].a for c in chosen]
                cands = [i for i in cands if first_of_orbit(pool[i].a, rows, v)]
        for i in sorted(cands, key=lambda i: (-(cov[i] & uncovered).bit_count(), i)):
            res = dfs(covered | cov[i], chosen + [i], budget - 1)
            if res is not None:
                return res
        return None

    for k in range(k_lo, config.max_k + 1):
        found = dfs(0, [], k)
        if found is not None:
            family = CoverFamily(tuple(pool[i] for i in found))
            return SearchOutcome(SearchStatus.FOUND_COVER, family, nodes, len(pool))
    return SearchOutcome(SearchStatus.EXHAUSTED_NO_COVER, None, nodes, len(pool))


def assert_same_answer_without_the_rule(cfg):
    out, want = min_cover_search(cfg), reference_search(cfg, symmetry=False)
    assert (out.status, out.family, out.candidate_pool_size) == (
        want.status,
        want.family,
        want.candidate_pool_size,
    ), cfg
    # the rule only removes children, so it never adds a node
    assert out.nodes_explored <= want.nodes_explored, cfg


@pytest.mark.parametrize("timed", [True, False])
@pytest.mark.parametrize(
    "n, coeff_bound", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
)
def test_search_matches_reference(n, coeff_bound, timed):
    # offsets past coeff_bound * n give the same pool
    for offset in range(coeff_bound * n + 1):
        cfg = SearchConfig(
            n=n,
            coeff_bound=coeff_bound,
            offset_bound=offset,
            max_k=n + 1,
            time_budget=LONG_BUDGET if timed else None,
        )
        assert min_cover_search(cfg) == reference_search(cfg), (n, coeff_bound, offset)
        assert_same_answer_without_the_rule(cfg)


@pytest.mark.parametrize("n, coeff_bound, offset, max_k", [(5, 2, 5, 4), (6, 2, 0, 5), (6, 1, 6, 5)])
def test_search_matches_reference_benchmark_configs(n, coeff_bound, offset, max_k):
    cfg = SearchConfig(n=n, coeff_bound=coeff_bound, offset_bound=offset, max_k=max_k)
    assert min_cover_search(cfg) == reference_search(cfg)
    assert_same_answer_without_the_rule(cfg)


@pytest.mark.parametrize("offset", [1, 3, 5, 7])
def test_search_matches_reference_on_two_words(offset):
    # 2^7 points take two words per bitset; B = 1 keeps the reference fast
    cfg = SearchConfig(n=7, coeff_bound=1, offset_bound=offset, max_k=5)
    assert min_cover_search(cfg) == reference_search(cfg)
    assert_same_answer_without_the_rule(cfg)


def test_n7_b1_six_planes_exhausts_in_a_tenth_of_the_nodes():
    # 64,442,058 nodes without the symmetry rule
    out = min_cover_search(SearchConfig(7, 1, 7, 6))
    assert out.status is SearchStatus.EXHAUSTED_NO_COVER
    assert out.nodes_explored < 6_444_205


def test_golden_n5_found_cover():
    # recorded from the search with one call per child
    record = json.loads((GOLDEN / "search_n5_b2_off5_k4.json").read_text())
    cfg = record["config"]
    out = min_cover_search(
        SearchConfig(
            n=cfg["n"],
            coeff_bound=cfg["coeff_bound"],
            offset_bound=cfg["offset_bound"],
            max_k=cfg["max_k"],
        )
    )
    assert out.status.value == record["status"]
    assert out.nodes_explored == record["nodes_explored"]
    assert out.candidate_pool_size == record["candidate_pool_size"]
    family = [{"a": [int(c) for c in p.a], "b": int(p.b)} for p in out.family]
    assert family == record["family"]


def test_time_budget_zero_times_out():
    # 623,342 nodes without a budget; cut children are counted in bulk,
    # so the clock must be read on a threshold, not on multiples of 256
    out = min_cover_search(SearchConfig(6, 2, 6, 5, time_budget=0))
    assert out.status is SearchStatus.TIMEOUT
    assert out.family is None
    assert 0 < out.nodes_explored < 623_342


def test_time_budget_zero_times_out_when_every_root_is_cut():
    # offset 0 at odd n leaves the pool empty, so each family size is one
    # root cut by the counting bound and no node is ever expanded: the
    # deepening loop itself must read the clock
    out = min_cover_search(SearchConfig(3, 1, 0, 10_000, time_budget=0))
    assert out == SearchOutcome(SearchStatus.TIMEOUT, None, 256, 0)


@pytest.mark.parametrize("budget", [None, LONG_BUDGET])
def test_roots_cut_by_counting_are_counted_in_one_step(budget):
    # The same empty pool: its 10^9 - 2 roots, one per family size, were
    # once walked one by one (about 70 s); they are counted in one step.
    start = time.monotonic()
    out = min_cover_search(SearchConfig(3, 1, 0, 10**9, time_budget=budget))
    assert out == SearchOutcome(SearchStatus.EXHAUSTED_NO_COVER, None, 10**9 - 2, 0)
    assert time.monotonic() - start < 5


def test_search_setup_keeps_one_copy_of_the_words(monkeypatch):
    # n = 11, B = 1, offset 1: 2,048 planes of 32 words each and 946,176
    # (plane, point) incidences. A word row copied per incidence would take
    # 242 MB; the word matrix takes 0.5 MB and the index arrays 7.6 MB.
    # The clock starts at 0 and gains 1 s per read, and the budget is the
    # 8 set-up reads: the whole point table is built, and the search times
    # out at its first read of the clock.
    import time
    import tracemalloc

    ticks = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))
    tracemalloc.start()
    try:
        out = min_cover_search(SearchConfig(11, 1, 1, 11, time_budget=2048 // 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.status is SearchStatus.TIMEOUT
    assert out.candidate_pool_size == 2048
    assert out.nodes_explored > 0
    # the start, the set-up reads and the search's one read
    assert next(ticks) == 1 + 2048 // 256 + 1
    assert peak < 64 << 20


def test_greedy_bitsets_are_packed_per_chunk():
    # 63 planes at n = 20 hold 7.9 MiB of words, and a greedy step adds one
    # temporary of that size. A bool matrix of every plane's points, built
    # before packing, would take 63 MiB.
    import tracemalloc

    pool = list(level_set_cover(20)) * 3
    tracemalloc.start()
    try:
        family = greedy_cover(20, pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(family) == set(level_set_cover(20))
    assert peak < 24 << 20


def test_clock_read_about_every_256_nodes(monkeypatch):
    import time

    real = time.monotonic
    reads = []
    monkeypatch.setattr(time, "monotonic", lambda: reads.append(None) or real())
    out = min_cover_search(SearchConfig(5, 2, 5, 4, time_budget=float("inf")))
    assert out.nodes_explored == 74_756
    # reads on multiples of 256 alone would see 2 of them here
    assert len(reads) >= out.nodes_explored // 1024


def test_time_budget_bounds_the_set_up(monkeypatch):
    # n = 11 has 2,048 points. The clock starts at 0 and gains 1 s per
    # read, so a 3 s budget has passed at the fourth read after the start,
    # which comes after 1,024 points of the point tables and before any
    # node: the search reads the clock while it builds them.
    import time

    ticks = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))
    out = min_cover_search(SearchConfig(11, 1, 1, 11, time_budget=3))
    assert out == SearchOutcome(SearchStatus.TIMEOUT, None, 0, 2048)
    assert next(ticks) == 1 + 1024 // 256


@pytest.mark.parametrize("budget", [-1, -1e-9, float("nan"), float("-inf")])
def test_time_budget_negative_or_nan_is_usage_error(budget):
    with pytest.raises(UsageError, match="--time-budget"):
        SearchConfig(3, time_budget=budget)


def test_time_budget_infinite_is_no_limit():
    cfg = SearchConfig(n=4, coeff_bound=1, max_k=4)
    unlimited = SearchConfig(n=4, coeff_bound=1, max_k=4, time_budget=float("inf"))
    assert min_cover_search(unlimited) == min_cover_search(cfg)


def assert_same_planes(pool, want):
    assert pool == want
    assert [p._row for p in pool] == [p._row for p in want]
    entries = itertools.chain(itertools.chain.from_iterable(p.a for p in pool), (p.b for p in pool))
    assert set(map(type, entries)) <= {Fraction}


def assert_pool_planes_match_the_public_constructor(n, coeff_bound, offset):
    """candidate_pool's planes against Hyperplane(a, b) of the same rows,
    in every way a caller can see them; returns the public planes."""
    pool = candidate_pool(n, coeff_bound, offset)
    want = [Hyperplane(a, b) for a, b in pool_rows(n, coeff_bound, offset)]
    assert_same_planes(pool, want)
    # == compares the class and the fields, so hash and repr follow from it
    # unless a plane is built apart from its fields; a pickle also records
    # which objects a plane shares
    assert [hash(p) for p in pool] == [hash(p) for p in want]
    assert repr(pool) == repr(want)
    assert [pickle.dumps(p) for p in pool] == [pickle.dumps(p) for p in want]
    clones = pickle.loads(pickle.dumps(pool))
    assert clones == want and [p._row for p in clones] == [p._row for p in want]
    return want


@pytest.mark.parametrize("n, coeff_bound", [(n, coeff_bound) for n in range(1, 6) for coeff_bound in range(1, 4)])
def test_pool_planes_match_the_public_constructor(n, coeff_bound):
    want = assert_pool_planes_match_the_public_constructor(n, coeff_bound, coeff_bound * n)
    # The pool of a smaller offset keeps the planes with |b| <= offset (read
    # off the int row, which is quicker than a Fraction), in order; past
    # n * B every offset gives the pool of n * B.
    for offset in range(coeff_bound * n + 2):
        assert_same_planes(candidate_pool(n, coeff_bound, offset), [p for p in want if abs(p._row[1]) <= offset])


def test_pool_planes_match_the_public_constructor_benchmark_config():
    assert_pool_planes_match_the_public_constructor(6, 2, 6)


GREEDY_GOLDEN = json.loads((GOLDEN / "greedy_pool_families.json").read_text())


@pytest.mark.parametrize(
    "record", GREEDY_GOLDEN, ids=lambda r: "n{n}_B{coeff_bound}_off{offset_bound}".format(**r["config"])
)
def test_greedy_golden_families(record, monkeypatch):
    # The families and their pool positions are pinned, so a change to the
    # pool order or to greedy's tie-break shows here. Greedy reads the
    # pool's words and evaluates no plane again.
    cfg = record["config"]
    n = cfg["n"]
    pool = candidate_pool(n, cfg["coeff_bound"], cfg["offset_bound"])
    assert len(pool) == record["candidate_pool_size"]
    with monkeypatch.context() as m:
        m.setattr(cube, "_plane_words", lambda *args: pytest.fail("greedy evaluated its pool again"))
        family = greedy_cover(n, pool)
    assert family == CoverFamily(tuple(Hyperplane(tuple(p["a"]), p["b"]) for p in record["family"]))
    rows = [p._row for p in pool]
    assert [rows.index(p._row) for p in family] == record["positions"]
    assert verify_cover(family).covered
