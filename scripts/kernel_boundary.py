#!/usr/bin/env python3
"""Nullity of the top-coefficient system at the n = 2d boundary.

The trivial kernel needs n >= 2d + 1. At n = 2d the system is the inclusion
matrix of d-subsets in (d+1)-subsets scaled by invertible diagonals, so its
nullity is C(2d,d) - C(2d,d+1), the Catalan number C(2d,d)/(d+1), whatever
the nonzero coefficients: 1, 2, 5, 14 for d = 1..4. The script prints it for
a few coefficient vectors per d.
"""

import random

from skewcube.kernel import build_system, kernel_dim


def main():
    print(f"{'d':>3} {'n':>3} {'coefficients':<28} {'nullity':>8}")
    for d in (1, 2, 3, 4):
        n = 2 * d
        rng = random.Random(f"kernel-boundary/{d}")
        vectors = [[1] * n, [(-1) ** j for j in range(n)]]
        for _ in range(3):
            vectors.append([rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)])
        for a in vectors:
            nullity = kernel_dim(build_system(a, d))
            label = ",".join(str(v) for v in a)
            print(f"{d:>3} {n:>3} {label:<28} {nullity:>8}")


if __name__ == "__main__":
    main()
