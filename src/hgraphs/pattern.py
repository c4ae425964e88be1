"""Structural analysis of pattern multigraphs.

Covers cactus recognition (blocks are edges or cycles, a parallel pair
counting as a 2-cycle), a pattern's exact treewidth and elimination order,
and the exhaustive search for a tripartition into three connected parts with
at least two connecting edges per part pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import fpt
from .core import Multigraph, _components, _connected
from .errors import ExactLimitExceeded, InvalidPartition, SearchLimitExceeded

PAIR_KEYS = ((0, 1), (0, 2), (1, 2))

# The tripartition search tries about 3**n / 6 labelings of an n-node
# component, read off 3**(n - 1) label products
TRIPARTITION_LIMIT = 15


@dataclass(frozen=True)
class PatternProfile:
    """A pattern together with its exact treewidth and elimination order.

    ``order`` eliminates the pattern's simple graph (loops dropped, parallel
    edges collapsed) at its exact treewidth.  A parallel pair counts as a
    cycle, so it raises tw to at least 2: once subdivided, the pair is one.
    ``bound(omega)`` is the width guarantee (tw+1)*omega - 1 available for any
    graph represented on any subdivision of the pattern; it is strictly
    increasing in omega.
    """

    pattern: Multigraph
    tw: int
    order: tuple[int, ...]

    def bound(self, omega: int) -> int:
        return (self.tw + 1) * omega - 1

    @staticmethod
    def compute(pattern: Multigraph) -> "PatternProfile":
        """The profile from the exact subset DP, on at most fpt.EXACT_LIMIT
        nodes; the order's decomposition is validated before it is kept."""
        if pattern.n > fpt.EXACT_LIMIT:
            raise ExactLimitExceeded(
                f"n={pattern.n} exceeds exact treewidth limit {fpt.EXACT_LIMIT}"
            )
        simple = pattern.simple_graph()
        width, order = fpt._exact_order(simple)
        fpt.validate_decomposition(simple, fpt.decomposition_from_order(simple, order))
        if simple.m < len(pattern.non_loop_items()):
            width = max(width, 2)
        return PatternProfile(pattern, width, tuple(order))


@dataclass(frozen=True)
class TriPartition:
    """Three disjoint connected node sets with >= 2 edges between each pair.

    ``connecting[i]`` lists the indices of the edges between the parts of
    PAIR_KEYS[i]; loops never count.  For a disconnected pattern the parts
    cover the single component that carries them.
    """

    parts: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    connecting: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def is_cactus(h: Multigraph) -> bool:
    """True iff no edge of h lies on two cycles, i.e. every block is a
    single edge or a cycle.

    A pair of parallel edges forms a 2-node cycle and is accepted; loops are
    ignored entirely.  One spanning-forest pass: each non-tree edge claims
    the tree edges on its cycle, and a second claim means two cycles share
    that edge.
    """
    items = h.non_loop_items()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(h.n)]
    for k, (u, v) in items:
        adj[u].append((v, k))
        adj[v].append((u, k))
    parent = [-1] * h.n
    depth = [-1] * h.n
    tree: set[int] = set()
    for root in range(h.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y, k in adj[x]:
                if depth[y] < 0:
                    depth[y], parent[y] = depth[x] + 1, x
                    tree.add(k)
                    stack.append(y)
    claimed = [False] * h.n  # claimed[x]: the tree edge from x to parent[x]
    for k, (u, v) in items:
        if k in tree:
            continue
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            if claimed[u]:
                return False
            claimed[u] = True
            u = parent[u]
    return True


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
    # from a list, as in clique.CliqueEnumeration.cliques: no tuple(generator)
    return tuple([tuple(buckets[pk]) for pk in PAIR_KEYS])


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
        if not _connected(h.adjacency, p):
            raise InvalidPartition(f"part {p} is not connected")
    actual = _connecting_edges(h, part.parts)
    if actual is None:
        raise InvalidPartition("fewer than two connecting edges for some pair")
    if actual != part.connecting:
        raise InvalidPartition("stored connecting edges disagree with the pattern")


def _canonical_labelings(k: int):
    """All labelings of k items with labels 0..2, first occurrences in order.

    Enumerated in lexicographic order; every unordered 3-partition appears
    exactly once, as its lexicographically least labeling.  Item 0 takes
    label 0, and the labels of the others run through every product in
    lexicographic order, kept when a 1 comes before the first 2.
    """
    for rest in product(range(3), repeat=max(k - 1, 0)):
        if 2 in rest and 1 in rest[: rest.index(2)]:
            yield (0, *rest)


def find_tripartition(h: Multigraph) -> TriPartition | None:
    """Exhaustive search for a valid tripartition, or None.

    Each connected component of h is searched independently; the first valid
    partition in lexicographic labeling order is returned.  A component whose
    non-loop cycle rank m - n + 1 is below 4 is skipped: contracting its three
    parts would leave at least the 3-node, 6-edge multigraph, of rank 4.  A
    cactus has no tripartition at all: contracting the parts leaves a minor of
    it, cacti are closed under minors, and that multigraph is not a cactus.
    Only a component that is searched must have at most TRIPARTITION_LIMIT
    nodes; a larger one raises SearchLimitExceeded.
    """
    if is_cactus(h):
        return None
    items = h.non_loop_items()
    for comp in _components(h.adjacency, range(h.n)):
        members = set(comp)
        rank = sum(u in members for _, (u, _v) in items) - len(comp) + 1
        if rank < 4:
            continue
        if len(comp) > TRIPARTITION_LIMIT:
            raise SearchLimitExceeded(
                f"n={len(comp)} exceeds tripartition search limit {TRIPARTITION_LIMIT}"
            )
        for labeling in _canonical_labelings(len(comp)):
            parts: tuple[list[int], ...] = ([], [], [])
            for v, lab in zip(comp, labeling):
                parts[lab].append(v)
            if not all(_connected(h.adjacency, p) for p in parts):
                continue
            connecting = _connecting_edges(h, parts)
            if connecting is not None:
                return TriPartition(tuple([tuple(p) for p in parts]), connecting)
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
