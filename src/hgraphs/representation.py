"""Representations of graphs as connected node sets of a subdivided pattern.

Intersection is node sharing on the discrete subdivision; there is no
geometry and no open/closed endpoint ambiguity anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .core import (
    Multigraph,
    SimpleGraph,
    _components,
    _reach,
    complement,
    two_subdivision,
)
from .errors import DomainMismatch, InvalidRepresentation
from .fpt import TreeDecomposition
from .pattern import (
    PatternProfile,
    TriPartition,
    treewidth_exact_small,
    validate_tripartition,
)

# Pattern nodes: ("b", h) is the branch node for pattern node h;
# ("s", k, i) is the i-th internal node (1-based) on the path replacing edge k.
Node = tuple


def branch(h: int) -> Node:
    return ("b", h)


def sub(k: int, i: int) -> Node:
    return ("s", k, i)


@dataclass(frozen=True)
class SubdividedPattern:
    """A pattern with a per-edge count of internal subdivision nodes.

    Contracting all subdivision nodes recovers the base pattern exactly.
    Loop edges stay inert and must keep a count of zero.
    """

    base: Multigraph
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.base.m:
            raise ValueError("one subdivision count per edge required")
        for k, t in enumerate(self.counts):
            if t < 0:
                raise ValueError("subdivision counts must be non-negative")
            u, v = self.base.edges[k]
            if u == v and t != 0:
                raise ValueError(f"loop edge {k} cannot be subdivided")

    def nodes(self) -> tuple[Node, ...]:
        out = [branch(h) for h in range(self.base.n)]
        for k, t in enumerate(self.counts):
            out.extend(sub(k, i) for i in range(1, t + 1))
        return tuple(out)

    @cached_property
    def adjacency(self) -> dict[Node, frozenset[Node]]:
        nbrs: dict[Node, set[Node]] = {nd: set() for nd in self.nodes()}

        def link(a: Node, b: Node) -> None:
            nbrs[a].add(b)
            nbrs[b].add(a)

        for k, (u, v) in enumerate(self.base.edges):
            if u == v:
                continue
            t = self.counts[k]
            if t == 0:
                link(branch(u), branch(v))
                continue
            link(branch(u), sub(k, 1))
            for i in range(1, t):
                link(sub(k, i), sub(k, i + 1))
            link(sub(k, t), branch(v))
        return {nd: frozenset(s) for nd, s in nbrs.items()}

    def path_from(self, k: int, endpoint: int) -> list[Node]:
        """Internal nodes of edge k ordered away from the given endpoint."""
        u, v = self.base.edges[k]
        if endpoint not in (u, v):
            raise ValueError(f"node {endpoint} is not an endpoint of edge {k}")
        t = self.counts[k]
        forward = [sub(k, i) for i in range(1, t + 1)]
        return forward if endpoint == u else forward[::-1]


@dataclass(frozen=True)
class HRepresentation:
    """Map from graph vertices to non-empty connected node sets of a pattern."""

    pattern: SubdividedPattern
    sets: Mapping[int, frozenset[Node]]


@dataclass(frozen=True)
class Verdict:
    """Outcome of representation verification."""

    kind: str  # "ok" | "disconnected" | "mismatch"
    vertex: int | None = None
    # (u, v, expected_adjacent); actual adjacency is the negation
    mismatches: tuple[tuple[int, int, bool], ...] = ()

    @property
    def is_ok(self) -> bool:
        return self.kind == "ok"

    @staticmethod
    def ok() -> "Verdict":
        return Verdict("ok")

    @staticmethod
    def disconnected(vertex: int) -> "Verdict":
        return Verdict("disconnected", vertex=vertex)

    @staticmethod
    def mismatch(pairs) -> "Verdict":
        return Verdict("mismatch", mismatches=tuple(pairs))


@dataclass(frozen=True)
class HellyReport:
    """Outcome of the Helly property check."""

    kind: str  # "helly" | "violation" | "exceeded"
    witness: tuple[int, ...] = ()
    cap: int | None = None

    @property
    def is_helly(self) -> bool:
        return self.kind == "helly"


def _set_connected(nodes: frozenset[Node], adjacency) -> bool:
    return bool(nodes) and _reach(adjacency, next(iter(nodes)), nodes) == nodes


def verify_representation(g: SimpleGraph, r: HRepresentation) -> Verdict:
    """Check that r is exactly a representation of g.

    Each node set must induce a connected subgraph of the subdivided pattern,
    and two sets must share a node precisely when the vertices are adjacent.
    """
    if set(r.sets.keys()) != set(range(g.n)):
        raise DomainMismatch("representation domain differs from graph vertices")
    adjacency = r.pattern.adjacency
    for v in range(g.n):
        for nd in r.sets[v]:
            if nd not in adjacency:
                raise ValueError(f"vertex {v} uses unknown pattern node {nd}")
        if not _set_connected(r.sets[v], adjacency):
            return Verdict.disconnected(v)
    mismatches = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            shares = not r.sets[u].isdisjoint(r.sets[v])
            expected = g.has_edge(u, v)
            if shares != expected:
                mismatches.append((u, v, expected))
    if mismatches:
        return Verdict.mismatch(mismatches)
    return Verdict.ok()


def intersection_graph(r: HRepresentation) -> SimpleGraph:
    """The graph encoded by node sharing; domain must be dense 0..n-1."""
    verts = sorted(r.sets.keys())
    if verts != list(range(len(verts))):
        raise DomainMismatch("representation domain must be dense 0-based")
    edges = [
        (u, v)
        for i, u in enumerate(verts)
        for v in verts[i + 1 :]
        if not r.sets[u].isdisjoint(r.sets[v])
    ]
    return SimpleGraph.from_edges(len(verts), edges)


def helly_check(r: HRepresentation, cap: int) -> HellyReport:
    """Decide the Helly property of a representation.

    Every pairwise-intersecting subfamily is a clique of the intersection
    graph, hence contained in a maximal clique; if each maximal clique has a
    common node, each of its subfamilies inherits it.  So scanning maximal
    cliques suffices.  Enumeration emitting more than ``cap`` cliques yields
    an exceeded report.
    """
    from .clique import maximal_cliques_capped  # local import: module cycle

    if cap < 1:
        raise ValueError("cap must be at least 1")
    g = intersection_graph(r)
    enum = maximal_cliques_capped(g, cap)
    if not enum.complete:
        return HellyReport("exceeded", cap=cap)
    for clique in enum.cliques:
        common = frozenset.intersection(*(r.sets[v] for v in clique))
        if not common:
            return HellyReport("violation", witness=clique)
    return HellyReport("helly")


def generate_hard_instance(
    g: SimpleGraph, h: Multigraph, part: TriPartition
) -> tuple[SimpleGraph, HRepresentation]:
    """Represent the complement of g's 2-subdivision on a subdivision of h.

    Two connecting edges of each part pair carry the construction: the four
    paths between part 1 and parts 2 and 3 get one internal node per vertex
    of g, the two between parts 2 and 3 one per edge of g.  Prefix/suffix
    lengths are paired off so that exactly the subdivided-path adjacencies of
    g survive as non-edges of the target.
    """
    validate_tripartition(h, part)
    labeled = two_subdivision(g)
    target = complement(labeled.result)
    n, m = g.n, len(labeled.edge_order)

    counts = [0] * h.m
    chosen = {}
    for pair, size in (((0, 1), n), ((0, 2), n), ((1, 2), m)):
        first, second = part.edges_between(*pair)[:2]
        counts[first] = size
        counts[second] = size
        chosen[pair] = (first, second)
    pattern = SubdividedPattern(h, tuple(counts))

    in_part = {}
    for i, p in enumerate(part.parts):
        for node in p:
            in_part[node] = i

    def oriented(k: int, from_part: int) -> list[Node]:
        u, v = h.edges[k]
        start = u if in_part[u] == from_part else v
        return pattern.path_from(k, start)

    # Paths leave part 1 toward parts 2 and 3, and part 2 toward part 3.
    path_12_a = oriented(chosen[(0, 1)][0], 0)
    path_12_b = oriented(chosen[(0, 1)][1], 0)
    path_13_a = oriented(chosen[(0, 2)][0], 0)
    path_13_b = oriented(chosen[(0, 2)][1], 0)
    path_23_a = oriented(chosen[(1, 2)][0], 1)
    path_23_b = oriented(chosen[(1, 2)][1], 1)

    branch_sets = [
        frozenset(branch(x) for x in p) for p in part.parts
    ]

    sets: dict[int, frozenset[Node]] = {}
    # Vertex i of g (1-based position q = i+1) takes prefixes of length q of
    # one path per pair and complementary length n-q of the other, so two
    # original vertices always share part-1 branch nodes, while the sets for
    # edge subdivision vertices (built from the opposite ends) miss vertex q
    # exactly when q is the matching endpoint of their edge.
    for i in range(n):
        q = i + 1
        sets[i] = branch_sets[0].union(
            path_12_a[:q],
            path_12_b[: n - q],
            path_13_a[:q],
            path_13_b[: n - q],
        )
    for j in range(m):
        ell = labeled.left(j) + 1
        p = j + 1
        sets[labeled.sub1(j)] = branch_sets[1].union(
            path_12_a[ell:],
            path_12_b[n - ell :],
            path_23_a[:p],
            path_23_b[: m - p],
        )
    for j in range(m):
        rr = labeled.right(j) + 1
        p = j + 1
        sets[labeled.sub2(j)] = branch_sets[2].union(
            path_13_a[rr:],
            path_13_b[n - rr :],
            path_23_a[p:],
            path_23_b[m - p :],
        )
    return target, HRepresentation(pattern, sets)


def _is_forest(h: Multigraph) -> bool:
    items = h.non_loop_items()
    simple_pairs = {tuple(sorted(e)) for _, e in items}
    if len(simple_pairs) != len(items):
        return False  # a parallel pair is a 2-cycle
    return len(items) == h.n - len(_components(h.adjacency, range(h.n)))


def _forest_bag_decomposition(pattern: SubdividedPattern):
    """Width-1 decomposition of a subdivided forest: one bag per node edge.

    Returns (bags over pattern nodes, tree edges).  Components are linked by
    arbitrary bridge tree edges, which is harmless because bags of different
    components share nothing.
    """
    adjacency = pattern.adjacency
    nodes = sorted(adjacency)
    bags: list[frozenset[Node]] = []
    tree_edges: list[tuple[int, int]] = []
    seen: set[Node] = set()
    comp_roots: list[int] = []
    for root in nodes:
        if root in seen:
            continue
        seen.add(root)
        root_bag = len(bags)
        bags.append(frozenset([root]))
        comp_roots.append(root_bag)
        attach = {root: root_bag}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in sorted(adjacency[x]):
                if y in seen:
                    continue
                seen.add(y)
                idx = len(bags)
                bags.append(frozenset([x, y]))
                tree_edges.append((attach[x], idx))
                attach[y] = idx
                stack.append(y)
    for a, b in zip(comp_roots, comp_roots[1:]):
        tree_edges.append((a, b))
    return bags, tree_edges


def _pattern_decomposition(pattern: SubdividedPattern):
    """Decomposition of the subdivided pattern with width max(tw(base), 2).

    Forest patterns get the natural width-1 bag-per-edge decomposition so the
    final bound is met at tw = 1.  Otherwise the base pattern is decomposed
    exactly and each subdivided edge is appended as a chain of 3-node bags
    hanging off a bag that contains both endpoints.
    """
    base = pattern.base
    if _is_forest(base):
        return _forest_bag_decomposition(pattern)
    _, base_dec = treewidth_exact_small(base)
    bags: list[frozenset[Node]] = [
        frozenset(branch(h) for h in bag) for bag in base_dec.bags
    ]
    tree_edges = list(base_dec.tree_edges)
    for k, (u, v) in enumerate(base.edges):
        t = pattern.counts[k]
        if u == v or t == 0:
            continue
        host = next(
            i for i, bag in enumerate(base_dec.bags) if u in bag and v in bag
        )
        bu, bv = branch(u), branch(v)
        chain = [frozenset([bu, sub(k, 1), bv])]
        for i in range(1, t):
            chain.append(frozenset([sub(k, i), sub(k, i + 1), bv]))
        chain.append(frozenset([sub(k, t), bv]))
        prev = host
        for bag in chain:
            idx = len(bags)
            bags.append(bag)
            tree_edges.append((prev, idx))
            prev = idx
    return bags, tree_edges


def td_from_representation(
    g: SimpleGraph, r: HRepresentation, profile: PatternProfile
) -> TreeDecomposition:
    """Tree decomposition of g of width at most (tw(pattern)+1) * omega(g) - 1.

    A decomposition of the subdivided pattern is mapped bag-by-bag to the
    vertices whose node sets touch the bag; each pattern node is held by a
    clique of g, which gives the width bound.
    """
    if profile.pattern != r.pattern.base:
        raise DomainMismatch("profile pattern differs from representation base")
    verdict = verify_representation(g, r)
    if not verdict.is_ok:
        raise InvalidRepresentation(verdict)
    node_bags, tree_edges = _pattern_decomposition(r.pattern)
    holders: dict[Node, list[int]] = {nd: [] for nd in r.pattern.adjacency}
    for v in range(g.n):
        for nd in r.sets[v]:
            holders[nd].append(v)
    bags = tuple(
        frozenset(v for nd in bag for v in holders[nd]) for bag in node_bags
    )
    return TreeDecomposition(bags, tuple(tree_edges))
