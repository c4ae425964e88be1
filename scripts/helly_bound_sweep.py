#!/usr/bin/env python3
"""Empirical margin between maximal-clique counts and the Helly bound.

Generates random subtree representations on random tree patterns (always
Helly), counts maximal cliques exactly, and reports the observed count
against the guaranteed ceiling |V(H)| + |E(H)| * |V(G)|.
"""

import argparse
import random

from hgraphs.clique import maximal_cliques_capped
from hgraphs.randgen import random_representation, random_subdivision, random_tree_pattern


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--max-vertices", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    worst_ratio = 0.0
    print(f"{'n':>4} {'pattern':>8} {'cliques':>8} {'bound':>6} {'ratio':>6}")
    for _ in range(args.trials):
        h = random_tree_pattern(rng.randint(2, 8), rng)
        pattern = random_subdivision(h, rng, 3)
        n = rng.randint(1, args.max_vertices)
        g, _ = random_representation(pattern, n, rng, 6)
        bound = h.n + h.m * g.n
        enum = maximal_cliques_capped(g, bound)
        if not enum.complete:
            raise AssertionError("bound violated: representation was not Helly?")
        count = len(enum.masks)
        ratio = count / bound
        if ratio > worst_ratio:
            worst_ratio = ratio
            print(f"{g.n:>4} {h.n:>5}n{h.m}e {count:>8} {bound:>6} {ratio:>6.3f}")
    print(f"\nworst observed count/bound ratio: {worst_ratio:.3f}")


if __name__ == "__main__":
    main()
