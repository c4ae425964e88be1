#!/usr/bin/env python3
"""Timing: endpoint-pair circular-arc clique vs brute force.

Random cycle arc models of growing size; the brute-force column drops out
once it passes its vertex limit.
"""

import argparse
import random
import time

from hgraphs.clique import carc_max_clique, model_intersection_graph
from hgraphs.core import max_clique_bruteforce
from hgraphs.errors import SearchLimitExceeded
from hgraphs.randgen import random_arc_model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[8, 12, 16, 20, 30, 40, 80, 160])
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    print(f"{'arcs':>5} {'arc secs':>9} {'brute secs':>11} {'agree':>6}")
    for size in args.sizes:
        arc_time = brute_time = 0.0
        agree = True
        skipped = False
        for _ in range(args.trials):
            model = random_arc_model(size, 2 * size, rng, full_fraction=0.05)
            start = time.perf_counter()
            got = carc_max_clique(model)
            arc_time += time.perf_counter() - start
            try:
                start = time.perf_counter()
                want = max_clique_bruteforce(model_intersection_graph(model))
                brute_time += time.perf_counter() - start
                agree = agree and len(got) == len(want)
            except SearchLimitExceeded:
                skipped = True
        brute_col = "   (skipped)" if skipped else f"{brute_time:>11.3f}"
        print(f"{size:>5} {arc_time:>9.3f} {brute_col} {'yes' if agree else 'NO':>6}")


if __name__ == "__main__":
    main()
