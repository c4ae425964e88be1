"""Structural analysis of pattern multigraphs.

Covers cactus recognition (blocks are edges or cycles, a parallel pair
counting as a 2-cycle), exact treewidth for small patterns, and the
exhaustive search for a tripartition into three connected parts with at
least two connecting edges per part pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Multigraph, _components, _reach
from .errors import ExactLimitExceeded, InvalidPartition, SearchLimitExceeded
from .fpt import TreeDecomposition, exact_decomposition, validate_decomposition

PAIR_KEYS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class PatternProfile:
    """A pattern together with its exact treewidth.

    ``bound(omega)`` is the width guarantee (tw+1)*omega - 1 available for
    any graph represented on the pattern; it is strictly increasing in omega.
    """

    pattern: Multigraph
    tw: int

    def bound(self, omega: int) -> int:
        return (self.tw + 1) * omega - 1

    @staticmethod
    def compute(pattern: Multigraph, limit: int = 12) -> "PatternProfile":
        width, _ = treewidth_exact_small(pattern, limit)
        return PatternProfile(pattern, width)


@dataclass(frozen=True)
class TriPartition:
    """Three disjoint connected node sets with >= 2 edges between each pair.

    ``connecting[i]`` lists the indices of the edges between the parts of
    PAIR_KEYS[i]; loops never count.  For a disconnected pattern the parts
    cover the single component that carries them.
    """

    parts: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    connecting: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def edges_between(self, i: int, j: int) -> tuple[int, ...]:
        return self.connecting[PAIR_KEYS.index((min(i, j), max(i, j)))]


def _blocks(h: Multigraph) -> list[list[int]]:
    """Biconnected components as lists of edge indices (loops excluded)."""
    items = h.non_loop_items()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(h.n)]
    for k, (u, v) in items:
        adj[u].append((v, k))
        adj[v].append((u, k))
    disc = [-1] * h.n
    low = [0] * h.n
    timer = 0
    stack: list[int] = []
    blocks: list[list[int]] = []

    def dfs(root: int) -> None:
        nonlocal timer
        work = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while work:
            u, in_edge, it = work[-1]
            advanced = False
            for w, k in it:
                if k == in_edge:
                    continue
                if disc[w] == -1:
                    stack.append(k)
                    disc[w] = low[w] = timer
                    timer += 1
                    work.append((w, k, iter(adj[w])))
                    advanced = True
                    break
                if disc[w] < disc[u]:
                    stack.append(k)
                    low[u] = min(low[u], disc[w])
            if advanced:
                continue
            work.pop()
            if work:
                p = work[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    block = []
                    while True:
                        k = stack.pop()
                        block.append(k)
                        if k == in_edge:
                            break
                    blocks.append(block)

    for r in range(h.n):
        if disc[r] == -1:
            dfs(r)
    return blocks


def is_cactus(h: Multigraph) -> bool:
    """True iff every block of h is a single edge or a cycle.

    A pair of parallel edges forms a 2-node cycle and is accepted; loops are
    ignored entirely.
    """
    for block in _blocks(h):
        if len(block) == 1:
            continue
        degree: dict[int, int] = {}
        for k in block:
            u, v = h.edges[k]
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        if len(block) != len(degree) or any(d != 2 for d in degree.values()):
            return False
    return True


def treewidth_exact_small(
    h: Multigraph, limit: int = 12
) -> tuple[int, TreeDecomposition]:
    """Exact treewidth of the pattern with a witnessing decomposition.

    Parallel edges are collapsed first since treewidth is an invariant of the
    underlying simple graph.
    """
    if h.n > limit:
        raise ExactLimitExceeded(f"n={h.n} exceeds exact treewidth limit {limit}")
    simple = h.simple_graph()
    width, d = exact_decomposition(simple)
    validate_decomposition(simple, d)
    return width, d


def _part_connected(h: Multigraph, part: tuple[int, ...]) -> bool:
    members = set(part)
    return bool(part) and _reach(h.adjacency, part[0], members) == members


def _connecting_edges(h: Multigraph, parts) -> tuple | None:
    lookup = {}
    for i, part in enumerate(parts):
        for v in part:
            lookup[v] = i
    buckets: dict[tuple[int, int], list[int]] = {pk: [] for pk in PAIR_KEYS}
    for k, (u, v) in h.non_loop_items():
        iu, iv = lookup.get(u), lookup.get(v)
        if iu is None or iv is None or iu == iv:
            continue
        buckets[(min(iu, iv), max(iu, iv))].append(k)
    if any(len(buckets[pk]) < 2 for pk in PAIR_KEYS):
        return None
    return tuple(tuple(buckets[pk]) for pk in PAIR_KEYS)


def validate_tripartition(h: Multigraph, part: TriPartition) -> None:
    """Re-check every tripartition invariant, raising InvalidPartition."""
    seen: set[int] = set()
    for p in part.parts:
        if not p:
            raise InvalidPartition("empty part")
        for v in p:
            if not (0 <= v < h.n):
                raise InvalidPartition(f"node {v} out of range")
            if v in seen:
                raise InvalidPartition(f"node {v} in two parts")
            seen.add(v)
        if not _part_connected(h, p):
            raise InvalidPartition(f"part {p} is not connected")
    actual = _connecting_edges(h, part.parts)
    if actual is None:
        raise InvalidPartition("fewer than two connecting edges for some pair")
    if actual != part.connecting:
        raise InvalidPartition("stored connecting edges disagree with the pattern")


def _canonical_labelings(k: int):
    """All labelings of k items with labels 0..2, first occurrences in order.

    Enumerated in lexicographic order; every unordered 3-partition appears
    exactly once, as its lexicographically least labeling.
    """
    labels = [0] * k

    def rec(i: int, used: int):
        if i == k:
            if used == 3:
                yield tuple(labels)
            return
        for lab in range(min(used + 1, 3)):
            labels[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    yield from rec(0, 0)


def find_tripartition(h: Multigraph, limit: int = 15) -> TriPartition | None:
    """Exhaustive search for a valid tripartition, or None.

    Each connected component of h is searched independently; the first valid
    partition in lexicographic labeling order is returned.
    """
    if h.n > limit:
        raise SearchLimitExceeded(f"n={h.n} exceeds tripartition search limit {limit}")
    for comp in _components(h.adjacency, range(h.n)):
        if len(comp) < 3:
            continue
        for labeling in _canonical_labelings(len(comp)):
            parts: tuple = (
                tuple(v for v, lab in zip(comp, labeling) if lab == 0),
                tuple(v for v, lab in zip(comp, labeling) if lab == 1),
                tuple(v for v, lab in zip(comp, labeling) if lab == 2),
            )
            if not all(_part_connected(h, p) for p in parts):
                continue
            connecting = _connecting_edges(h, parts)
            if connecting is not None:
                return TriPartition(parts, connecting)
    return None


# Named patterns.

def double_triangle() -> Multigraph:
    """Three nodes joined by two parallel edges per pair."""
    return Multigraph(3, ((0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)))


def wheel(rim: int) -> Multigraph:
    """Hub node 0 joined to every node of a rim cycle 1..rim."""
    if rim < 3:
        raise ValueError("wheel rim needs at least 3 nodes")
    spokes = [(0, i) for i in range(1, rim + 1)]
    ring = [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Multigraph(rim + 1, tuple(spokes + ring))


def complete_pattern(k: int) -> Multigraph:
    return Multigraph(
        k, tuple((u, v) for u in range(k) for v in range(u + 1, k))
    )


def path_pattern(k: int) -> Multigraph:
    return Multigraph(k, tuple((i, i + 1) for i in range(k - 1)))


def cycle_pattern(k: int) -> Multigraph:
    if k < 2:
        raise ValueError("cycle pattern needs at least 2 nodes")
    if k == 2:
        return Multigraph(2, ((0, 1), (0, 1)))
    return Multigraph(k, tuple((i, (i + 1) % k) for i in range(k)))
