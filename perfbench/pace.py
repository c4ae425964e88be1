"""Host speed reference: a fixed pure-Python job timed between ops.

The benchmark host is shared: the same Python code runs 20-60% slower for
seconds to minutes at a time, and every op slows with it.  `reference_job`
shares no code with hgraphs, so no change to hgraphs moves its time; it
mixes the interpreter work hgraphs does (dicts, frozensets, sorting, int
bitsets, small calls).  Timed right before and right after an op, it gives
the host's speed during that op, and an op's time scaled by
REFERENCE_S / (the job's time then) reads as the time the op would take
on the reference host in a quiet spell.  On that host the two move
together: one op repeated 150 times with a similar job between repeats
had a correlation of 0.6 with it, and over five whole runs of one seed
the summed op time varied by 29% raw and by 2% scaled.
"""

from __future__ import annotations

from time import perf_counter

# seconds reference_job takes on the reference host (2 vCPUs, Python 3.11)
# in a quiet spell: the scale of every reported time
REFERENCE_S = 0.0017
_ROUNDS = 12


def reference_job() -> int:
    acc = 0
    for r in range(_ROUNDS):
        adj = {i: frozenset((i * j + r) % 64 for j in range(1, 6)) for i in range(64)}
        order = sorted(adj, key=lambda v: (len(adj[v]), -v))
        bits = 0
        for v in order:
            bits |= 1 << v
            acc += len(adj[v] & adj[order[0]])
        acc += bin(bits).count("1")
    return acc


def reference_seconds() -> float:
    """Time one reference_job now."""
    start = perf_counter()
    reference_job()
    return perf_counter() - start
