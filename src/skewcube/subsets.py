"""Bitmask subsets of {1..n}: encoding, colex ranking, enumeration.

Coordinate labels are 1-based everywhere in the public API; bit (j-1) of a
mask stands for label j. Fixed-size subsets are ordered colexicographically
(compare the largest differing element), which gives an O(k) rank function.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator


def mask_of(labels: Iterable[int]) -> int:
    """Bitmask of a collection of 1-based labels."""
    m = 0
    for j in labels:
        m |= 1 << (j - 1)
    return m


def labels_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based labels encoded by a bitmask.

    One pass over the binary string, lowest bit first, so the work is linear
    in the mask's length.
    """
    bits = bin(mask)[:1:-1]
    out = []
    j = bits.find("1")
    while j >= 0:
        out.append(j + 1)
        j = bits.find("1", j + 1)
    return tuple(out)


def colex_rank(labels: tuple[int, ...]) -> int:
    """Position of a sorted label tuple among same-size subsets in colex order."""
    return sum(math.comb(s - 1, i + 1) for i, s in enumerate(labels))


def subsets_colex(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of {1..n} as sorted label tuples, in colex order."""
    if k == 0:
        yield ()
        return
    if k < 0 or k > n:
        return
    for top in range(k, n + 1):
        for rest in subsets_colex(top - 1, k - 1):
            yield rest + (top,)
