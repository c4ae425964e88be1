"""Seeded random instance generators for experiments and tests."""

from __future__ import annotations

import random

from .clique import ArcModel, _classify_shape
from .core import SimpleGraph, Multigraph, _masks
from .representation import HRepresentation, SubdividedPattern, intersection_graph


def gnp(n: int, p: float, rng: random.Random) -> SimpleGraph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return SimpleGraph.from_edges(n, edges)


def gnm(n: int, m: int, rng: random.Random) -> SimpleGraph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = min(m, len(pairs))
    return SimpleGraph.from_edges(n, rng.sample(pairs, m))


def random_tree_pattern(n: int, rng: random.Random) -> Multigraph:
    """Random tree: node i attaches to a uniform earlier node."""
    edges = tuple((rng.randrange(i), i) for i in range(1, n))
    return Multigraph(n, edges)


def random_cactus(max_nodes: int, rng: random.Random) -> Multigraph:
    """Random cactus grown by attaching pendant edges and node-disjoint cycles.

    A 2-node cycle is a parallel pair, so digons occur naturally.
    """
    n = 1
    edges: list[tuple[int, int]] = []
    while n < max_nodes:
        at = rng.randrange(n)
        if rng.random() < 0.4:
            edges.append((at, n))
            n += 1
            continue
        size = rng.randint(2, min(4, max_nodes - n + 1))
        ring = [at] + list(range(n, n + size - 1))
        n += size - 1
        for a, b in zip(ring, ring[1:]):
            edges.append((a, b))
        edges.append((ring[-1], ring[0]))
    return Multigraph(n, tuple(edges))


def random_subdivision(
    h: Multigraph, rng: random.Random, max_count: int = 3
) -> SubdividedPattern:
    counts = tuple(
        0 if u == v else rng.randint(0, max_count) for u, v in h.edges
    )
    return SubdividedPattern(h, counts)


def random_connected_set(
    pattern: SubdividedPattern, rng: random.Random, max_size: int = 6
) -> frozenset[int]:
    """Random connected node set grown from a uniform seed node."""
    adjacency = pattern.graph.adjacency
    current = {rng.choice(range(pattern.node_count))}
    target = rng.randint(1, max_size)
    while len(current) < target:
        boundary = sorted(
            {y for x in current for y in adjacency[x]} - current
        )
        if not boundary:
            break
        current.add(rng.choice(boundary))
    return frozenset(current)


def random_representation(
    pattern: SubdividedPattern,
    n_vertices: int,
    rng: random.Random,
    max_size: int = 6,
) -> tuple[SimpleGraph, HRepresentation]:
    """Random representation plus the graph it encodes (valid by construction)."""
    sets = {
        v: random_connected_set(pattern, rng, max_size)
        for v in range(n_vertices)
    }
    r = HRepresentation(pattern, sets)
    return intersection_graph(r), r


def random_lists(
    n: int, k: int, rng: random.Random, singleton_fraction: float = 0.0
) -> dict[int, frozenset[int]]:
    """Random non-empty color lists; some vertices may be pinned to one color."""
    lists = {}
    for v in range(n):
        if rng.random() < singleton_fraction:
            lists[v] = frozenset([rng.randint(1, k)])
        else:
            size = rng.randint(1, k)
            lists[v] = frozenset(rng.sample(range(1, k + 1), size))
    return lists


def random_arc_model(
    n_arcs: int,
    length: int,
    rng: random.Random,
    kind: str = "cycle",
    full_fraction: float = 0.1,
) -> ArcModel:
    arcs: dict[int, tuple[int, int] | None] = {}
    for v in range(n_arcs):
        if kind == "cycle" and rng.random() < full_fraction:
            arcs[v] = None
            continue
        if kind == "path":
            s = rng.randrange(length)
            t = rng.randrange(s, length)
            arcs[v] = (s, t)
        else:
            s = rng.randrange(length)
            span = rng.randrange(length)
            arcs[v] = (s, (s + span) % length)
    return ArcModel(kind, length, arcs)


def cycle_pattern_for_length(length: int) -> SubdividedPattern:
    """A subdivided triangle whose node graph is a cycle of the given length."""
    if length < 3:
        raise ValueError("cycle needs at least 3 nodes")
    base = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    spare = length - 3
    counts = [spare // 3 + (1 if i < spare % 3 else 0) for i in range(3)]
    return SubdividedPattern(base, tuple(counts))


def representation_from_cycle_arcs(model: ArcModel) -> HRepresentation:
    """Re-encode a cycle arc model as node sets on a subdivided triangle."""
    if model.kind != "cycle":
        raise ValueError("expected a cycle model")
    pattern = cycle_pattern_for_length(model.length)
    graph = pattern.graph
    _, order = _classify_shape((1 << graph.n) - 1, _masks(graph.n, graph.edges))
    numbers = {v: frozenset(order[p] for p in model.positions(v)) for v in model.arcs}
    return HRepresentation(pattern, numbers)
