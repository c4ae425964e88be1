"""Shared brute-force helpers for the test suite.

These deliberately re-derive properties from first principles (subset
enumeration, component counting) so they stay independent of the library's
own algorithms.
"""

from __future__ import annotations

from itertools import combinations

from hgraphs.core import SimpleGraph, connected_components, induced_subgraph


def all_cliques(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Every clique of g, including the empty one, by ordered extension."""
    adj = g.adjacency
    out: list[tuple[int, ...]] = []

    def extend(cur: tuple[int, ...], cands: list[int]) -> None:
        out.append(cur)
        for i, v in enumerate(cands):
            extend(cur + (v,), [w for w in cands[i + 1 :] if w in adj[v]])

    extend((), list(range(g.n)))
    return out


def maximal_cliques_reference(g: SimpleGraph) -> set[tuple[int, ...]]:
    """Maximal cliques by filtering the full clique list."""
    adj = g.adjacency
    result = set()
    for c in all_cliques(g):
        if not c and g.n > 0:
            continue
        members = set(c)
        if any(members <= adj[v] for v in range(g.n) if v not in members):
            continue
        if c or g.n == 0:
            result.add(c)
    return result


def has_clique_cutset(g: SimpleGraph) -> bool:
    """Exhaustive check: some clique's removal increases the component count."""
    base = len(connected_components(g))
    for k in all_cliques(g):
        if len(k) == g.n:
            continue
        rest = [v for v in range(g.n) if v not in k]
        if len(connected_components(induced_subgraph(g, rest))) > base:
            return True
    return False


def atoms_bruteforce(g: SimpleGraph) -> list[tuple[int, ...]]:
    """The inclusion-maximal vertex sets that induce a connected subgraph
    without a clique cutset, sorted, found by trying every subset."""
    candidates = []
    for k in range(1, g.n + 1):
        for vs in combinations(range(g.n), k):
            sub = induced_subgraph(g, vs)
            if len(connected_components(sub)) == 1 and not has_clique_cutset(sub):
                candidates.append(set(vs))
    return sorted(
        tuple(sorted(vs)) for vs in candidates if not any(vs < ws for ws in candidates)
    )


def assert_clique(g: SimpleGraph, verts) -> None:
    for u, v in combinations(sorted(verts), 2):
        assert g.has_edge(u, v), f"({u},{v}) missing: not a clique"


def coloring_is_proper(g: SimpleGraph, lists, coloring: dict[int, int]) -> bool:
    if set(coloring) != set(range(g.n)):
        return False
    if any(coloring[u] == coloring[v] for u, v in g.edges):
        return False
    return all(coloring[v] in lists[v] for v in range(g.n))
