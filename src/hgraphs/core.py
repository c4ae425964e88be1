"""Simple-graph and multigraph primitives plus the brute-force clique search.

Vertices are dense 0-based integers everywhere; all tie-breaks are
lexicographic by vertex index so results are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

from .errors import OracleLimitExceeded

ColorLists = Mapping[int, frozenset[int]]


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph: no loops, no parallel edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u},{v}) for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop ({u},{v}) not allowed in a simple graph")
            norm.add((u, v) if u < v else (v, u))
        return SimpleGraph(n, frozenset(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Neighbourhoods as int bitsets, bit u standing for vertex u."""
        return _masks(self.n, self.edges)

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph with stable edge indices.

    Parallel edges are distinct entries of ``edges``; loops are accepted but
    treated as inert by every algorithm in this package (they create no
    adjacency, no cycles, no blocks).
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def non_loop_items(self) -> list[tuple[int, tuple[int, int]]]:
        return [(k, e) for k, e in enumerate(self.edges) if e[0] != e[1]]

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        return self.simple_graph().adjacency

    def simple_graph(self) -> SimpleGraph:
        """Underlying simple graph: loops dropped, parallel edges collapsed."""
        return SimpleGraph.from_edges(
            self.n, [e for _, e in self.non_loop_items()]
        )


@dataclass(frozen=True)
class LabeledTwoSubdivision:
    """A graph, its 2-subdivision, and the per-edge vertex labeling.

    Edges of the base graph are indexed 0..m-1 in sorted order.  Edge k with
    endpoints ``(a, b) = edge_order[k]``, a < b, becomes the path
    ``(a, sub1(k), sub2(k), b)`` in the result; the two new vertices per
    edge sit in the blocks n..n+m-1 and n+m..n+2m-1.
    """

    base: SimpleGraph
    result: SimpleGraph
    edge_order: tuple[tuple[int, int], ...]

    def sub1(self, k: int) -> int:
        return self.base.n + k

    def sub2(self, k: int) -> int:
        return self.base.n + len(self.edge_order) + k


def complement(g: SimpleGraph) -> SimpleGraph:
    """Complement graph: uv is an edge iff u != v and uv is not in g."""
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in g.edges
    ]
    return SimpleGraph.from_edges(g.n, edges)


def two_subdivision(g: SimpleGraph) -> LabeledTwoSubdivision:
    """Subdivide every edge of g exactly twice, keeping the labeling."""
    order = g.sorted_edges()
    n, m = g.n, len(order)
    edges = []
    for k, (u, v) in enumerate(order):
        s1, s2 = n + k, n + m + k
        edges.extend([(u, s1), (s1, s2), (v, s2)])
    return LabeledTwoSubdivision(
        base=g,
        result=SimpleGraph.from_edges(n + 2 * m, edges),
        edge_order=order,
    )


def _check_clique(g: SimpleGraph, verts) -> None:
    """Raise AssertionError unless verts are pairwise adjacent in g's edge set.

    A failure here is a solver bug, not bad input, so it is never caught by
    the CLI; written as a raise so that it also runs under ``python -O``.
    """
    edges = g.edges
    for u, v in combinations(sorted(verts), 2):
        if (u, v) not in edges:
            raise AssertionError(f"reported set is not a clique: {u},{v}")


def max_clique_bruteforce(g: SimpleGraph, limit: int = 20) -> tuple[int, ...]:
    """Maximum clique by exhaustive clique enumeration.

    Visits every clique of the graph via ordered extension, so the result is
    independent of any of the solver code paths.  Ties are broken toward the
    lexicographically smallest vertex set.
    """
    if g.n > limit:
        raise OracleLimitExceeded(f"n={g.n} exceeds oracle limit {limit}")
    adj = g.adjacency
    best: tuple[int, ...] = ()
    # frames [clique, candidates, next index]: a child's candidate list is
    # built only when the child is visited, so the stack holds O(n^2) ints
    stack = [[(), list(range(g.n)), 0]]
    while stack:
        frame = stack[-1]
        clique, candidates, i = frame
        if i == len(candidates):
            stack.pop()
            continue
        frame[2] = i + 1
        v = candidates[i]
        child = clique + (v,)
        if len(child) > len(best):
            best = child
        stack.append([child, [w for w in candidates[i + 1 :] if w in adj[v]], 0])
    return best


def _bits(mask: int):
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _masks(n: int, edges) -> tuple[int, ...]:
    """The neighbourhoods of vertices 0..n-1 as int bitsets."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return tuple(nbr)


def _reach(adjacency, start, allowed) -> set:
    """Vertices reachable from start through vertices of allowed, start
    included; adjacency[v] lists v's neighbours, allowed only needs ``in``."""
    seen = {start}
    stack = [start]
    while stack:
        for y in adjacency[stack.pop()]:
            if y in allowed and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _grow(masks, start: int, allowed: int) -> int:
    """The bits reachable from start's through allowed's, start included,
    one layer at a time while allowed has any left; masks[v] is v's."""
    frontier, rest = start, allowed & ~start
    while frontier and rest:
        grow = 0
        while frontier:  # _bits inline: verify grows every set of a representation
            bit = frontier & -frontier
            grow |= masks[bit.bit_length() - 1]
            frontier ^= bit
        frontier = grow & rest
        rest ^= frontier
    return start | allowed ^ rest


def _connected(adjacency, nodes) -> bool:
    """True iff nodes is non-empty and induces a connected subgraph."""
    members = frozenset(nodes)
    return bool(members) and _reach(adjacency, next(iter(members)), members) == members


def _components(adjacency, vertices) -> list[tuple]:
    """Components of the subgraph induced on vertices, as sorted tuples
    ordered by smallest member."""
    allowed = set(vertices)
    seen: set = set()
    result = []
    for start in sorted(allowed):
        if start not in seen:
            comp = _reach(adjacency, start, allowed)
            seen |= comp
            result.append(tuple(sorted(comp)))
    return result


def induced_subgraph(g: SimpleGraph, vertices: Iterable[int]) -> SimpleGraph:
    """Induced subgraph relabeled to 0..k-1 following sorted vertex order."""
    verts = sorted(set(vertices))
    index = {v: i for i, v in enumerate(verts)}
    adj = g.adjacency
    edges = [(index[u], index[v]) for u in verts for v in adj[u] if v in index]
    return SimpleGraph.from_edges(len(verts), edges)


def full_lists(n: int, k: int) -> dict[int, frozenset[int]]:
    """Unconstrained color lists: every vertex may take any of 1..k."""
    palette = frozenset(range(1, k + 1))
    return {v: palette for v in range(n)}


# Small named graphs used throughout the test and experiment code.

def empty_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset())


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return SimpleGraph.from_edges(
        n, [(i, (i + 1) % n) for i in range(n)]
    )


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


def complete_multipartite(sizes: Iterable[int]) -> SimpleGraph:
    """Complete multipartite graph; parts sit at consecutive vertex ranges."""
    parts = []
    start = 0
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    edges = [
        (u, v)
        for i, p in enumerate(parts)
        for q in parts[i + 1 :]
        for u in p
        for v in q
    ]
    return SimpleGraph.from_edges(start, edges)


def petersen_graph() -> SimpleGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return SimpleGraph.from_edges(10, outer + inner + spokes)
