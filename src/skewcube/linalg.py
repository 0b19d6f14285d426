"""Exact nullity over the rationals by fraction-free integer elimination.

The module holds only ``exact_nullity``. Its one caller in the package is
``interpolation.vanishing_dimension``, whose blocks have at most d + 1
columns each; the kernel system's nullity has a closed form and needs no
elimination at all.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .cube import _numerators, exact
from .errors import UsageError


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
