"""The Gram-matrix vanishing dimension and the exact and mod-p ranks it
rests on, kept as test oracles.

``vanishing_dimension`` counts by S_n isotypic parts. This module counts
the same nullity the direct way: the rank of the evaluation matrix E equals
the rank of whichever of E^T E and E E^T is smaller, built from Krawtchouk
sums, and a mod-p elimination certifies it or hands it to ``exact_nullity``.
Its cost grows with C(n, <= d) and |W(m)|, so it serves small n only.
``exact_nullity`` is also the brute-force rank that the interpolation and
kernel tests compare the closed forms against.
"""

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from skewcube.cube import _numerators, exact
from skewcube.errors import UsageError
from skewcube.subsets import mask_of, subsets_colex

PRIME = (1 << 31) - 1


def exact_nullity(rows: Iterable[Sequence], ncols: int) -> int:
    """Nullity over Q by fraction-free elimination (cross-multiply, gcd-reduce).

    Entries are ints or anything ``cube.exact`` takes, never floats. Each
    row becomes its ``cube._numerators`` over its own denominator, which
    changes neither rank nor nullity.
    """
    work: list[list[int]] = []
    for row in rows:
        _, (ints,) = _numerators(([v if type(v) is int else exact(v) for v in row],))
        if len(ints) != ncols:
            raise UsageError("row length does not match ncols")
        if any(ints):
            work.append(list(ints))
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        pval = prow[col]
        keep = work[: rank + 1]
        for i in range(rank + 1, len(work)):
            ri = work[i]
            v = ri[col]
            if v:
                for c in range(col, ncols):
                    ri[c] = ri[c] * pval - prow[c] * v
                g = 0
                for x in ri:
                    g = math.gcd(g, x)
                if g > 1:
                    for c in range(col, ncols):
                        ri[c] //= g
            if any(ri):
                keep.append(ri)
        work = keep
        rank += 1
        if rank == ncols:
            break
    return ncols - rank


def krawtchouk(n: int, k: int, u: int) -> int:
    """Sum of (-1)^|x & U| over the masks x of weight k, for any U of weight
    u, as one binomial sum."""
    return sum((-1) ** j * math.comb(u, j) * math.comb(n - u, k - j) for j in range(k + 1))


def _echelon_modp(m: np.ndarray, p: int) -> np.ndarray:
    """Row echelon mod p in place; returns the nonzero (pivot) rows.

    Entries stay in [0, p); with p < 2^31 every product fits int64.
    """
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = m[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r, c:] = (m[r, c:] * inv) % p
        below = m[r + 1 :, c]
        nzb = np.nonzero(below)[0]
        if nzb.size:
            idx = r + 1 + nzb
            m[idx, c:] = (m[idx, c:] - np.outer(below[nzb], m[r, c:])) % p
        r += 1
    return m[:r]


def modp_rank(blocks: Iterable[np.ndarray], ncols: int, p: int = PRIME) -> tuple[int, bool]:
    """Streaming rank mod p over row blocks; returns (rank, certified).

    ``certified`` means the mod-p rank provably equals the rank over Q:
    either every column got a pivot (early exit) or every row did. In both
    cases rank_p <= rank_Q <= min(rows, cols) = rank_p forces equality. An
    uncertified rank is only a lower bound on the rational rank.
    """
    echelon = np.zeros((0, ncols), dtype=np.int64)
    nrows = 0
    for block in blocks:
        b = np.asarray(block, dtype=np.int64) % p
        nrows += b.shape[0]
        echelon = _echelon_modp(np.vstack([echelon, b]) if echelon.shape[0] else b, p)
        if echelon.shape[0] == ncols:
            return ncols, True
    rank = echelon.shape[0]
    return rank, rank == nrows


def block_rows(rows: Sequence[Sequence[int]], block: int = 2048) -> Iterator[np.ndarray]:
    """Batch dense integer rows into int64 blocks for the mod-p pass."""
    for i in range(0, len(rows), block):
        yield np.asarray(rows[i : i + block], dtype=np.int64)


def _gram(n: int, index_levels: range, summed_levels: range) -> np.ndarray:
    """Gram matrix of the +-1 character table between two families of subsets.

    Rows and columns are the subsets of {1..n} whose sizes lie in
    ``index_levels`` (sizes ascending, colex within each size); the entry at
    (a, b) is the sum over subsets x with |x| in ``summed_levels`` of
    (-1)^(|x & a| + |x & b|) = (-1)^|x & (a ^ b)|, which depends only on
    |a ^ b|: it is the sum of the Krawtchouk values K_l(|a ^ b|).
    """
    masks = np.array(
        [mask_of(s) for k in index_levels for s in subsets_colex(n, k)], dtype=np.uint32
    )
    by_distance = np.array(
        [sum(krawtchouk(n, l, u) for l in summed_levels) for u in range(n + 1)],
        dtype=np.int64,
    )
    return by_distance[np.bitwise_count(masks[:, None] ^ masks[None, :])]


def gram_vanishing_dimension(n: int, m: int, d: int) -> int:
    """Nullity of E from the rank of its smaller Gram matrix."""
    col_levels = range(d + 1)
    row_levels = range(0, n + 1, m)
    ncols = sum(math.comb(n, k) for k in col_levels)
    nrows = sum(math.comb(n, w) for w in row_levels)
    if ncols <= nrows:
        side, levels = ncols, (col_levels, row_levels)
    else:
        side, levels = nrows, (row_levels, col_levels)
    rank, certified = modp_rank([_gram(n, *levels)], side)
    if not certified:
        rank = side - exact_nullity(_gram(n, *levels).tolist(), side)
    return ncols - rank
