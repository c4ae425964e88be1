"""Representations of graphs as connected node sets of a subdivided pattern.

Intersection is node sharing on the discrete subdivision; there is no
geometry and no open/closed endpoint ambiguity anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

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
        """The branch nodes, then each edge's internal nodes: sorted order."""
        # branch() and sub() tuples inline: .rep files and index build them all
        out = [("b", h) for h in range(self.base.n)]
        counts = enumerate(self.counts)
        out += [("s", k, i) for k, t in counts for i in range(1, t + 1)]
        return tuple(out)

    def names(self) -> tuple[str, ...]:
        """Each node's id in .rep files, in ``nodes()`` order: b:<node> for a
        branch node, s:<edge>.<i> for a subdivision node (1-based)."""
        out = [f"b:{h + 1}" for h in range(self.base.n)]
        counts = enumerate(self.counts, start=1)
        out += [f"s:{k}.{i}" for k, t in counts for i in range(1, t + 1)]
        return tuple(out)

    @cached_property
    def index(self) -> dict[Node, int]:
        """Each node's position in ``nodes()``: the one numbering that every
        mask over pattern nodes uses."""
        return {nd: i for i, nd in enumerate(self.nodes())}

    @cached_property
    def name_index(self) -> dict[str, int]:
        """Each node's .rep id (``names()``) to its number in ``index``: a
        parsed map line numbers its nodes without building them."""
        return {name: i for i, name in enumerate(self.names())}

    def _edges(self) -> list[tuple[int, int]]:
        """The edges of ``graph``, each pair in order: branch node h is h, and
        each edge's internal nodes follow in order, from its first end."""
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
        """The pattern on node indices; callers build masks with ``_masks`` and
        drop them, as on a long path they take about n²/2 bits."""
        return SimpleGraph(self.base.n + sum(self.counts), frozenset(self._edges()))

    @cached_property
    def cactus(self) -> bool:
        """Whether the base pattern is a cactus (``is_cactus``), found once
        for the strategy choice and the cactus route to share."""
        return is_cactus(self.base)

    @cached_property
    def adjacency(self) -> dict[Node, frozenset[Node]]:
        """Each node's neighbours, in ``nodes()`` order; a subdivision node's
        are the two nodes next to it on its edge's path (``_edges``)."""
        nodes = self.nodes()
        nbrs: list[list[Node]] = [[] for _ in nodes]
        for a, b in self._edges():
            nbrs[a].append(nodes[b])
            nbrs[b].append(nodes[a])
        return dict(zip(nodes, map(frozenset, nbrs)))

    def path_from(self, k: int, endpoint: int) -> list[Node]:
        """Internal nodes of edge k ordered away from the given endpoint."""
        u, v = self.base.edges[k]
        if endpoint not in (u, v):
            raise ValueError(f"node {endpoint} is not an endpoint of edge {k}")
        t = self.counts[k]
        forward = [sub(k, i) for i in range(1, t + 1)]
        return forward if endpoint == u else forward[::-1]


class HRepresentation:
    """Map from graph vertices to non-empty connected node sets of a pattern.

    ``numbers`` is the one stored form: each vertex's set as node numbers
    (``pattern.index``), fixed at construction, where a node outside the
    pattern is refused.  ``sets`` is the read-only node-set view: the
    mapping given, for a representation built from node sets; for one built
    by ``from_numbers``, as a parsed one is, it is built on its first read.
    """

    def __init__(self, pattern: SubdividedPattern, sets: Mapping[int, frozenset[Node]]):
        index = pattern.index
        number = index.__getitem__
        try:
            numbers = {v: frozenset(map(number, nds)) for v, nds in sets.items()}
        except KeyError:  # name the least vertex with a node outside the pattern
            v = min(v for v, nds in sets.items() if any(nd not in index for nd in nds))
            nd = next(nd for nd in sets[v] if nd not in index)
            raise ValueError(f"vertex {v} uses unknown pattern node {nd}") from None
        self.pattern, self.numbers = pattern, numbers
        self._sets = MappingProxyType(dict(sets))

    @staticmethod
    def from_numbers(
        pattern: SubdividedPattern, numbers: dict[int, frozenset[int]]
    ) -> HRepresentation:
        """The representation whose vertex v has the nodes numbered numbers[v]."""
        r = object.__new__(HRepresentation)
        r.pattern, r.numbers, r._sets = pattern, numbers, None
        return r

    @property
    def sets(self) -> Mapping[int, frozenset[Node]]:
        if self._sets is None:
            node = self.pattern.nodes().__getitem__
            sets = {v: frozenset(map(node, ids)) for v, ids in self.numbers.items()}
            self._sets = MappingProxyType(sets)
        return self._sets

    def __eq__(self, other) -> bool:
        if not isinstance(other, HRepresentation):
            return NotImplemented
        return (self.pattern, self.numbers) == (other.pattern, other.numbers)

    def __repr__(self) -> str:
        return f"HRepresentation.from_numbers({self.pattern!r}, {self.numbers!r})"


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

    The vertices are 0..len(r.numbers)-1.
    """
    numbers = r.numbers
    holders = [0] * (r.pattern.base.n + sum(r.pattern.counts))
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

    Sets are int masks of node numbers (``r.numbers``), each grown inside
    itself on the pattern's masks.  Then v's set meets exactly the sets of v
    and its neighbours iff its meet mask (`_meets`) is ``g.masks[v] | 1 << v``.
    """
    if set(r.numbers) != set(range(g.n)):
        raise DomainMismatch("representation domain differs from graph vertices")
    pattern, numbers = r.pattern, r.numbers
    nbr = _masks(pattern.base.n + sum(pattern.counts), pattern._edges())
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
    verts = sorted(r.numbers)
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

    top, mid, low = (frozenset(branch(x) for x in p) for p in part.parts)
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
        for i in r.numbers[v]:
            holders[i].append(v)
    bags = tuple(frozenset(v for i in bag for v in holders[i]) for bag in node_dec.bags)
    return TreeDecomposition(bags, node_dec.tree_edges)
