"""Exact rank and nullity over the rationals, with a prime-field fast path.

A mod-p elimination that pivots every column, or every row, is already an
exact certificate over Q: the pivot minor is nonzero mod p, hence nonzero
over Z, and min(rows, cols) bounds the rank from above. Those answers are
proofs, not probabilistic claims. Whenever the mod-p pass certifies nothing,
callers recompute with fraction-free integer elimination, which is exact for
any input.

The only caller of the mod-p pass is ``interpolation.vanishing_dimension``,
which hands it a square Gram matrix; the kernel system's nullity has a
closed form and needs no elimination at all.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import UsageError

PRIME = (1 << 31) - 1


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


def _integer_row(row: Sequence) -> list[int]:
    if all(isinstance(x, int) for x in row):
        return list(row)
    fracs = [Fraction(x) for x in row]
    den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [int(f * den) for f in fracs]


def exact_nullity(rows: Iterable[Sequence], ncols: int) -> int:
    """Nullity over Q by fraction-free elimination (cross-multiply, gcd-reduce).

    Rows may contain ints or Fractions; each row is scaled independently,
    which changes neither rank nor nullity.
    """
    work: list[list[int]] = []
    for row in rows:
        ints = _integer_row(row)
        if len(ints) != ncols:
            raise UsageError("row length does not match ncols")
        if any(ints):
            work.append(ints)
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


def block_rows(rows: Sequence[Sequence[int]], block: int = 2048) -> Iterator[np.ndarray]:
    """Batch dense integer rows into int64 blocks for the mod-p pass."""
    for i in range(0, len(rows), block):
        yield np.asarray(rows[i : i + block], dtype=np.int64)
