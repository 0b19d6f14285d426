#!/usr/bin/env python3
"""Bounded-search census of minimal skew-cover sizes for small n.

For each n, makes one call of the exact branch-and-bound search over
integer planes with |a_j| <= B and |b| <= n, with the generator's family size
as max_k; the search deepens from the proven lower bound ceil(n/2 + 1) on its
own, so the first cover it finds has the smallest size within the pool. The
node counts printed are cumulative over every family size tried. Upper bounds
from the generators are printed alongside. Every negative line is a claim
about the bounded pool only; the lower bound is unconditional.
"""

import argparse

from skewcube.constructions import balanced_even_cover, level_set_cover
from skewcube.search import SearchConfig, SearchStatus, lower_bound, min_cover_search


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--coeff-bound", "-B", type=int, default=2)
    parser.add_argument("--time-budget", type=float, default=60.0, help="seconds per n")
    args = parser.parse_args()

    print(f"{'n':>3} {'lower':>6} {'generator':>10} {'bounded search (B=%d)' % args.coeff_bound}")
    for n in range(2, args.n_max + 1):
        lo = lower_bound(n)
        generator = n if n % 2 == 0 else n + 1
        if n % 2 == 0:
            assert len(balanced_even_cover(n)) == n
        else:
            assert len(level_set_cover(n)) == n + 1

        config = SearchConfig(
            n=n,
            coeff_bound=args.coeff_bound,
            offset_bound=n,
            max_k=generator,
            time_budget=args.time_budget,
        )
        outcome = min_cover_search(config)

        if outcome.status is SearchStatus.EXHAUSTED_NO_COVER:
            note = f"no cover up to k={generator} within bounds"
        elif outcome.status is SearchStatus.TIMEOUT:
            note = f"timed out after {args.time_budget:.0f}s, nodes={outcome.nodes_explored}"
        else:
            k = len(outcome.family)
            note = f"found k={k} (nodes={outcome.nodes_explored}, pool={outcome.candidate_pool_size})"
        print(f"{n:>3} {lo:>6} {generator:>10}   {note}")
        if outcome.status is SearchStatus.FOUND_COVER:
            for p in outcome.family:
                coeffs = " ".join(str(c) for c in p.a)
                print(f"      plane: [{coeffs}]  b={p.b}")


if __name__ == "__main__":
    main()
