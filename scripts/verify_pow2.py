#!/usr/bin/env python3
"""Exact verification of the paper's family power_of_two_cover(m), m = 1..8.

The family has 2^m skew planes over n = 2^m + m - 1, that is n - log2(n) + 1
planes at those n. Its first 2^m - 1 columns are equal and the last m are
distinct, so verify_cover evaluates each plane on (2^m) * 2^m = 4^m class
points instead of 2^n masks. For each m the script prints n, the number of
planes and of class points, whether the family covers the cube, whether every
per-plane count equals its closed form, and the seconds verify_cover took.
The closed form: a point lies on plane p iff its unit block sums to
-(sum_j eps_j 2^j x_(2^m - 1 + j)), so plane p covers sum over the tails y of
C(2^m - 1, k) points, where k is the number of -1s that sum needs. The exit
code is 1 if any row is not covered or not exact.
"""

import argparse
import math
import time

from skewcube import power_of_two_cover, verify_cover


def expected_counts(m: int) -> list[int]:
    units = (1 << m) - 1
    counts = []
    for pattern in range(1 << m):
        count = 0
        for y in range(1 << m):
            tail = sum((-1) ** ((pattern >> j) & 1) * (-1) ** ((y >> j) & 1) << j for j in range(m))
            count += math.comb(units, (units + tail) // 2)
        counts.append(count)
    return counts


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--m-max", type=int, default=8)
    args = parser.parse_args()

    ok = True
    print(f"{'m':>2} {'n':>4} {'planes':>6} {'class points':>12} {'covered':>8} {'exact':>6} {'seconds':>8}")
    for m in range(1, args.m_max + 1):
        family = power_of_two_cover(m)
        start = time.perf_counter()
        report = verify_cover(family)
        seconds = time.perf_counter() - start
        exact = list(report.per_plane_counts) == expected_counts(m)
        ok = ok and report.covered and exact
        print(
            f"{m:>2} {family.n:>4} {len(family):>6} {4**m:>12} "
            f"{str(report.covered):>8} {str(exact):>6} {seconds:>8.3f}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
