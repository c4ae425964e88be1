"""Representations of graphs as connected node sets of a subdivided pattern.

Intersection is node sharing on the discrete subdivision; there is no
geometry and no open/closed endpoint ambiguity anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .core import (
    Multigraph,
    SimpleGraph,
    _bits,
    _grow,
    _masks,
    complement,
    two_subdivision,
)
from .errors import DomainMismatch, InvalidRepresentation
from .fpt import TreeDecomposition, decomposition_from_order, minfill_order
from .pattern import (
    PAIR_KEYS,
    PatternProfile,
    TriPartition,
    is_cactus,
    validate_tripartition,
)

def branch(h: int) -> int:
    """The number of branch node h, which is h."""
    return h


@dataclass(frozen=True)
class SubdividedPattern:
    """A pattern with a per-edge count of internal subdivision nodes.

    Contracting all subdivision nodes recovers the base pattern exactly.
    Loop edges stay inert and must keep a count of zero.  A node is a
    number: branch node h is h, and edge k's internal nodes follow the
    branch nodes, edge by edge, in order from the edge's first end.
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

    @cached_property
    def node_count(self) -> int:
        """The branch nodes and every edge's internal nodes, counted."""
        return self.base.n + sum(self.counts)

    def names(self) -> tuple[str, ...]:
        """Each node's id in .rep files, by number: b:<node> for a branch
        node, s:<edge>.<i> for a subdivision node (1-based)."""
        out = [f"b:{h + 1}" for h in range(self.base.n)]
        counts = enumerate(self.counts, start=1)
        out += [f"s:{k}.{i}" for k, t in counts for i in range(1, t + 1)]
        return tuple(out)

    @cached_property
    def name_index(self) -> dict[str, int]:
        """Each node's .rep id (``names()``) to its number."""
        return {name: i for i, name in enumerate(self.names())}

    def _edges(self) -> list[tuple[int, int]]:
        """The edges of ``graph``, each pair in order."""
        edges, at = [], self.base.n
        for (u, v), t in zip(self.base.edges, self.counts):
            if t:  # each pair in order, as branch nodes come first
                edges += zip([u, *range(at, at + t - 1)], range(at, at + t))
                edges.append((v, at + t - 1))
                at += t
            elif u != v:
                edges.append((min(u, v), max(u, v)))
        return edges

    @cached_property
    def graph(self) -> SimpleGraph:
        """The pattern on node numbers; callers build masks with ``_masks``
        and drop them, as on a long path they take about n²/2 bits."""
        return SimpleGraph(self.node_count, frozenset(self._edges()))

    @cached_property
    def cactus(self) -> bool:
        """Whether the base pattern is a cactus (``is_cactus``), found once
        for the strategy choice and the cactus route to share."""
        return is_cactus(self.base)

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        """Each node's neighbours, keyed by number."""
        return dict(enumerate(self.graph.adjacency))

    def path_from(self, k: int, endpoint: int) -> list[int]:
        """Internal nodes of edge k ordered away from the given endpoint."""
        u, v = self.base.edges[k]
        if endpoint not in (u, v):
            raise ValueError(f"node {endpoint} is not an endpoint of edge {k}")
        at = self.base.n + sum(self.counts[:k])
        forward = list(range(at, at + self.counts[k]))
        return forward if endpoint == u else forward[::-1]


@dataclass(frozen=True)
class HRepresentation:
    """Map from graph vertices to non-empty connected node sets of a pattern.

    ``sets`` holds each vertex's set as node numbers, fixed at
    construction, where a number outside the pattern is refused.
    """

    pattern: SubdividedPattern
    sets: Mapping[int, Iterable[int]]  # stored as a dict of frozensets

    def __post_init__(self):
        sets = {v: frozenset(ids) for v, ids in self.sets.items()}
        every = frozenset(range(self.pattern.node_count))
        if not all(map(every.issuperset, sets.values())):
            v = min(v for v, ids in sets.items() if not every.issuperset(ids))
            raise ValueError(f"vertex {v} uses unknown pattern node {min(sets[v] - every)}")
        object.__setattr__(self, "sets", sets)


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


def _meets(r: HRepresentation) -> list[int]:
    """For each vertex v the mask of the vertices whose sets meet v's: the OR
    of the holder masks (bit u for vertex u) of v's node numbers.

    The vertices are 0..len(r.sets)-1.
    """
    numbers = r.sets
    holders = [0] * r.pattern.node_count
    for v in range(len(numbers)):
        bit = 1 << v
        for i in numbers[v]:
            holders[i] |= bit
    meets = []
    for v in range(len(numbers)):
        meet = 0
        for i in numbers[v]:
            meet |= holders[i]
        meets.append(meet)
    return meets


def verify_representation(g: SimpleGraph, r: HRepresentation) -> Verdict:
    """Check that r is exactly a representation of g.

    Each node set must induce a connected subgraph of the subdivided pattern,
    and two sets must share a node precisely when the vertices are adjacent.

    Sets are int masks of node numbers (``r.sets``), each grown inside
    itself on the pattern's masks.  Then v's set meets exactly the sets of v
    and its neighbours iff its meet mask (`_meets`) is ``g.masks[v] | 1 << v``.
    """
    if set(r.sets) != set(range(g.n)):
        raise DomainMismatch("representation domain differs from graph vertices")
    pattern, numbers = r.pattern, r.sets
    nbr = _masks(pattern.node_count, pattern._edges())
    for v in range(g.n):
        mask = sum(map((1).__lshift__, numbers[v]))
        if not mask or _grow(nbr, mask & -mask, mask) != mask:
            return Verdict("disconnected", vertex=v)
    del nbr  # the node masks and the meet masks each take about n²/2 bits on a path
    meets = _meets(r)
    masks = g.masks
    # a pair is wrong where meeting and adjacency differ, and it was expected
    # adjacent iff the sets miss each other
    mismatches = [
        (v, u, not meet >> u & 1)
        for v, meet in enumerate(meets)
        for u in _bits((meet ^ (masks[v] | 1 << v)) >> v << v)
    ]
    if mismatches:
        return Verdict("mismatch", mismatches=tuple(mismatches))
    return Verdict("ok")


def intersection_graph(r: HRepresentation) -> SimpleGraph:
    """The graph encoded by node sharing; domain must be dense 0..n-1."""
    verts = sorted(r.sets)
    if verts != list(range(len(verts))):
        raise DomainMismatch("representation domain must be dense 0-based")
    meets = _meets(r)
    edges = [
        (v, u) for v, meet in enumerate(meets) for u in _bits(meet >> v + 1 << v + 1)
    ]
    return SimpleGraph.from_edges(len(verts), edges)


def generate_hard_instance(
    g: SimpleGraph, h: Multigraph, part: TriPartition
) -> tuple[SimpleGraph, HRepresentation]:
    """Represent the complement of g's 2-subdivision on a subdivision of h.

    For each part pair (i, j), the first two connecting edges become paths
    a and b of s internal nodes, each read from its end in part i; s is n
    for the pairs (0, 1) and (0, 2), and |E(g)| for (1, 2).  A pair is cut
    at t in 1..s into head(t) = a[:t] + b[:s-t] and tail(t) = a[t:] +
    b[s-t:].  A head and a tail of one pair miss each other exactly when
    both are cut at the same t; two heads always meet, and so do two tails.
    Each set takes its part's branch nodes and two cuts:

    - vertex i of g: head01(i+1) and head02(i+1);
    - sub1 of edge j = (u, v): tail01(u+1) and head12(j+1);
    - sub2 of edge j: tail02(v+1) and tail12(j+1).

    Two sets then miss each other exactly along the edges u-sub1, sub1-sub2
    and sub2-v of the 2-subdivision, whose complement is the target.
    """
    validate_tripartition(h, part)
    labeled = two_subdivision(g)
    target = complement(labeled.result)
    n, m = g.n, len(labeled.edge_order)

    counts = [0] * h.m
    for edges, s in zip(part.connecting, (n, n, m)):
        counts[edges[0]] = counts[edges[1]] = s
    pattern = SubdividedPattern(h, tuple(counts))

    def cuts(pair: int):
        i = PAIR_KEYS[pair][0]
        a, b = (
            pattern.path_from(k, next(x for x in h.edges[k] if x in part.parts[i]))
            for k in part.connecting[pair][:2]
        )
        s = len(a)
        return (lambda t: a[:t] + b[: s - t]), (lambda t: a[t:] + b[s - t :])

    (head01, tail01), (head02, tail02), (head12, tail12) = map(cuts, range(3))

    top, mid, low = map(frozenset, part.parts)  # branch node h is h
    sets = {i: top.union(head01(i + 1), head02(i + 1)) for i in range(n)}
    for j, (u, v) in enumerate(labeled.edge_order):
        sets[labeled.sub1(j)] = mid.union(tail01(u + 1), head12(j + 1))
        sets[labeled.sub2(j)] = low.union(tail02(v + 1), tail12(j + 1))
    return target, HRepresentation(pattern, sets)


def _pattern_order(
    pattern: SubdividedPattern, profile: PatternProfile
) -> tuple[SimpleGraph, list[int]]:
    """A copy of ``pattern.graph`` and an elimination order of width at most
    profile.tw; the decomposition's masks go with the copy.

    A forest pattern (tw <= 1) stays a forest once subdivided, so min-fill
    eliminates it leaf by leaf without fill.  Otherwise each edge's path is
    eliminated first, walking away from one end, in bags of at most 3 nodes;
    that leaves the base's simple graph, whose exact order, the profile's,
    comes next.
    """
    graph = SimpleGraph(pattern.graph.n, pattern.graph.edges)
    if profile.tw <= 1:
        return graph, minfill_order(graph)
    return graph, [*range(pattern.base.n, graph.n), *profile.order]


def td_from_representation(
    g: SimpleGraph, r: HRepresentation, profile: PatternProfile
) -> TreeDecomposition:
    """Tree decomposition of g of width at most (tw(pattern)+1) * omega(g) - 1.

    The subdivided pattern is decomposed along one elimination order, and
    each bag is mapped to the vertices whose node sets touch it; each pattern
    node is held by a clique of g, which gives the width bound.  tw is the
    profile's, in which a parallel pair counts as a cycle.
    """
    if profile.pattern != r.pattern.base:
        raise DomainMismatch("profile pattern differs from representation base")
    verdict = verify_representation(g, r)
    if not verdict.is_ok:
        raise InvalidRepresentation(verdict)
    graph, order = _pattern_order(r.pattern, profile)
    node_dec = decomposition_from_order(graph, order)
    holders: list[list[int]] = [[] for _ in range(graph.n)]
    for v in range(g.n):
        for i in r.sets[v]:
            holders[i].append(v)
    bags = tuple(frozenset(v for i in bag for v in holders[i]) for bag in node_dec.bags)
    return TreeDecomposition(bags, node_dec.tree_edges)
