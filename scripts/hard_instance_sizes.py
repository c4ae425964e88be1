#!/usr/bin/env python3
"""Size table for generated hard clique instances.

For random graphs of growing order, builds the representation of the
complement of the 2-subdivision on a chosen pattern and reports instance
sizes, re-verifying each construction.
"""

import argparse
import random
import time

from hgraphs.pattern import double_triangle, find_tripartition, wheel
from hgraphs.randgen import gnm
from hgraphs.representation import generate_hard_instance, verify_representation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pattern", choices=["double-triangle", "wheel4"],
                        default="double-triangle")
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    h = double_triangle() if args.pattern == "double-triangle" else wheel(4)
    part = find_tripartition(h)
    rng = random.Random(args.seed)
    print(f"{'n':>3} {'m':>3} {'target n':>8} {'target m':>8} "
          f"{'pat nodes':>9} {'verify':>7} {'secs':>6}")
    for n in range(2, args.max_n + 1):
        m = rng.randint(n - 1, min(2 * n, n * (n - 1) // 2))
        g = gnm(n, m, rng)
        start = time.perf_counter()
        target, rep = generate_hard_instance(g, h, part)
        verdict = verify_representation(target, rep)
        elapsed = time.perf_counter() - start
        nodes = rep.pattern.graph.n
        print(f"{n:>3} {g.m:>3} {target.n:>8} {target.m:>8} "
              f"{nodes:>9} {verdict.kind:>7} {elapsed:>6.3f}")


if __name__ == "__main__":
    main()
