"""Clique algorithms: capped enumeration, the Helly bound route,
clique-cutset decomposition, cactus-atom arc models, and circular-arc
maximum clique.

Every clique returned by a public operation is re-checked for pairwise
adjacency before it leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .core import (
    Multigraph,
    SimpleGraph,
    _check_clique,
    _components,
    _reach,
    connected_components,
    induced_subgraph,
)
from .errors import InvalidRepresentation, NotAnAtom, NotCactus
from .pattern import is_cactus
from .representation import HRepresentation, Node, verify_representation


@dataclass(frozen=True)
class CliqueEnumeration:
    """Maximal cliques, either all of them or a capped prefix.

    When complete, ``cliques`` holds every maximal clique, distinct and
    sorted lexicographically.  Otherwise enumeration stopped after emitting
    cap + 1 cliques, which are kept in emission order.
    """

    complete: bool
    cliques: tuple[tuple[int, ...], ...]
    cap: int


@dataclass(frozen=True)
class Atom:
    """An induced subgraph without a clique cutset.

    ``vertices`` keeps the original labels; ``graph`` is the induced subgraph
    relabeled to 0..k-1 in sorted vertex order.
    """

    vertices: tuple[int, ...]
    graph: SimpleGraph


@dataclass(frozen=True)
class AtomDecomposition:
    atoms: tuple[Atom, ...]


@dataclass(frozen=True)
class ArcModel:
    """Arcs over integer positions 0..length-1 on a path or circle.

    An arc (s, t) covers positions clockwise from s to t inclusive and may
    wrap on cycle models; None marks a full-circle arc.  Two vertices are
    adjacent in the modeled graph iff their arcs share a position.
    """

    kind: str  # "path" | "cycle"
    length: int
    arcs: Mapping[int, tuple[int, int] | None]

    def positions(self, v: int) -> frozenset[int]:
        arc = self.arcs[v]
        if arc is None:
            return frozenset(range(self.length))
        s, t = arc
        if s <= t:
            return frozenset(range(s, t + 1))
        if self.kind == "path":
            raise ValueError("path arcs cannot wrap")
        return frozenset(range(s, self.length)) | frozenset(range(0, t + 1))


@dataclass(frozen=True)
class HellyCliqueResult:
    """Either a maximum clique, or a certificate that the enumeration
    passed the Helly clique bound (so no Helly representation exists)."""

    clique: tuple[int, ...] | None
    count: int
    bound: int

    @property
    def exceeded(self) -> bool:
        return self.clique is None


def maximal_cliques_capped(g: SimpleGraph, cap: int) -> CliqueEnumeration:
    """Enumerate maximal cliques, stopping once more than cap are seen.

    Pivoted branch and bound; the pivot takes the candidate with the most
    remaining candidates as neighbors, ties toward the smaller index, so the
    emission order is deterministic.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if g.n == 0:
        return CliqueEnumeration(True, (), cap)
    adj = g.adjacency
    found: list[tuple[int, ...]] = []

    def frame(clique: set[int], cands: set[int], used: set[int]):
        pivot = max(cands | used, key=lambda u: (len(cands & adj[u]), -u))
        return clique, cands, used, iter(sorted(cands - adj[pivot]))

    # An explicit stack of frames (clique, candidates, used, branch vertices
    # left), so a clique of any size cannot exhaust the recursion limit.
    # A branch's own sets are cut out before v moves from the candidates to
    # the used set, so moving it first changes nothing the branch sees.
    stack = [frame(set(), set(range(g.n)), set())]
    while stack:
        clique, cands, used, branches = stack[-1]
        v = next(branches, None)
        if v is None:
            stack.pop()
            continue
        grown, sub_cands, sub_used = clique | {v}, cands & adj[v], used & adj[v]
        cands.discard(v)
        used.add(v)
        if sub_cands or sub_used:
            stack.append(frame(grown, sub_cands, sub_used))
            continue
        found.append(tuple(sorted(grown)))
        if len(found) > cap:
            return CliqueEnumeration(False, tuple(found), cap)
    return CliqueEnumeration(True, tuple(sorted(found)), cap)


def clique_helly(g: SimpleGraph, h: Multigraph) -> HellyCliqueResult:
    """Maximum clique assuming a Helly representation on h exists.

    A graph with a Helly representation on h has at most |V(h)| + |E(h)|*n
    maximal cliques.  If enumeration finishes within that bound the largest
    clique is returned; otherwise the overflow count certifies that no Helly
    representation on h exists.  No representation is required as input.
    """
    bound = h.n + h.m * g.n
    enum = maximal_cliques_capped(g, bound)
    if not enum.complete:
        return HellyCliqueResult(None, len(enum.cliques), bound)
    best: tuple[int, ...] = ()
    for c in enum.cliques:  # sorted, so first of max size is lex-least
        if len(c) > len(best):
            best = c
    _check_clique(g, best)
    return HellyCliqueResult(best, len(enum.cliques), bound)


def _mcs_m(g: SimpleGraph, verts: tuple[int, ...]):
    """Minimal elimination ordering of the induced subgraph on verts.

    Returns (elimination order, fill adjacency including original edges).
    Search for weight updates goes through unnumbered vertices of strictly
    smaller weight, which makes the resulting fill minimal.
    """
    adj = g.adjacency
    members = set(verts)
    weight = {v: 0 for v in verts}
    fill: dict[int, set[int]] = {v: set(adj[v] & members) for v in verts}
    unnumbered = set(verts)
    order = [0] * len(verts)
    for slot in range(len(verts) - 1, -1, -1):
        v = max(unnumbered, key=lambda u: (weight[u], -u))
        unnumbered.discard(v)
        reached: set[int] = set()
        for u in sorted(unnumbered):
            # path from v to u through unnumbered vertices of weight < weight[u]
            limit = weight[u]
            seen = {v}
            stack = [v]
            hit = False
            while stack and not hit:
                x = stack.pop()
                for z in adj[x]:
                    if z == u and z in members:
                        hit = True
                        break
                    if (
                        z in unnumbered
                        and z not in seen
                        and weight[z] < limit
                    ):
                        seen.add(z)
                        stack.append(z)
            if hit:
                reached.add(u)
        for u in reached:
            weight[u] += 1
            fill[v].add(u)
            fill[u].add(v)
        order[slot] = v
    return order, fill


def clique_cutset_decomposition(g: SimpleGraph) -> AtomDecomposition:
    """Decompose into atoms by repeatedly splitting on clique separators.

    A minimal elimination ordering is scanned for a vertex whose later fill
    neighborhood is a clique of the original graph and separates it.  The
    separator is trimmed from both sides down to a minimal one (otherwise
    splits could shed fragments finer than atoms), the graph splits there,
    and both sides recurse.  Disconnected inputs are decomposed per
    connected component.
    """
    adj = g.adjacency
    atoms: list[tuple[int, ...]] = []

    def decompose(verts: tuple[int, ...]) -> None:
        order, fill = _mcs_m(g, verts)
        pos = {v: i for i, v in enumerate(order)}
        members = set(verts)
        for v in order:
            sep = {u for u in fill[v] if pos[u] > pos[v]}
            if any(b not in adj[a] for a, b in combinations(sorted(sep), 2)):
                continue
            side = _reach(adj, v, members - sep)
            if side | sep == members:
                continue
            # trim to a minimal separator between v's side and one other
            # component: keep only separator vertices seen from both sides
            toward_side = {s for s in sep if adj[s] & side}
            other_seed = min(members - sep - side)
            other = _reach(adj, other_seed, members - toward_side)
            minimal = {s for s in toward_side if adj[s] & other}
            side = _reach(adj, v, members - minimal)
            decompose(tuple(sorted(side | minimal)))
            decompose(tuple(sorted(members - side)))
            return
        atoms.append(verts)

    for comp in connected_components(g):
        decompose(comp)
    atoms.sort()
    return AtomDecomposition(
        tuple(Atom(vs, induced_subgraph(g, vs)) for vs in atoms)
    )


def _classify_shape(nodes: list[Node], adjacency) -> tuple[str, list[Node]] | None:
    """Recognize the induced subgraph on nodes as a path or cycle.

    Returns ("path", order) or ("cycle", order), or None for anything else.
    Orders start at the smallest node and are deterministic.
    """
    present = set(nodes)
    degree = {nd: len(adjacency[nd] & present) for nd in nodes}
    if len(nodes) == 1:
        return "path", list(nodes)
    ends = sorted(nd for nd in nodes if degree[nd] == 1)
    if len(ends) == 2 and all(degree[nd] == 2 for nd in nodes if nd not in ends):
        order = [ends[0]]
        prev = None
        while len(order) < len(nodes):
            nxt = [
                x for x in sorted(adjacency[order[-1]] & present) if x != prev
            ]
            if len(nxt) != 1:
                return None
            prev = order[-1]
            order.append(nxt[0])
        return ("path", order) if order[-1] == ends[1] else None
    if all(degree[nd] == 2 for nd in nodes):
        start = min(nodes)
        order = [start]
        prev = None
        while True:
            nxt = [
                x for x in sorted(adjacency[order[-1]] & present) if x != prev
            ]
            if not nxt:
                return None
            prev = order[-1]
            nxt_node = nxt[0]
            if nxt_node == start:
                break
            if nxt_node in order:
                return None
            order.append(nxt_node)
        return ("cycle", order) if len(order) == len(nodes) else None
    return None


def _first_cut_node(nodes: list[Node], adjacency) -> Node | None:
    """Smallest node whose removal leaves the subgraph induced on the other
    nodes disconnected, or None."""
    present = set(nodes)
    for x in sorted(nodes):
        rest = present - {x}
        if rest and len(_reach(adjacency, next(iter(rest)), rest)) != len(rest):
            return x
    return None


def cactus_atom_arc_model(atom: Atom, r: HRepresentation) -> ArcModel:
    """Arc model of an atom represented on a cactus pattern.

    Peeling loop: while the union of the node sets is neither a path nor a
    cycle, it has a cut node x; all sets avoiding x must live in a single
    component of the union minus x (otherwise the holders of x form a clique
    cutset of the atom), and truncating every set to that component plus x
    preserves the intersection graph.  The final path or cycle yields integer
    arc positions in node order.
    """
    adjacency = r.pattern.adjacency
    sets = {v: r.sets[v] for v in atom.vertices}
    while True:
        union = sorted(set().union(*sets.values())) if sets else []
        shape = _classify_shape(union, adjacency)
        if shape is not None:
            kind, order = shape
            index = {nd: i for i, nd in enumerate(order)}
            length = len(order)
            arcs: dict[int, tuple[int, int] | None] = {}
            for v, nds in sets.items():
                positions = sorted(index[nd] for nd in nds)
                if kind == "cycle" and len(positions) == length:
                    arcs[v] = None
                    continue
                arcs[v] = _positions_to_arc(positions, length, kind)
            return ArcModel(kind, length, arcs)
        x = _first_cut_node(union, adjacency)
        if x is None:
            raise NotAnAtom("union of node sets is neither path, cycle, nor cut")
        comps = _components(adjacency, set(union) - {x})
        where = {nd: i for i, comp in enumerate(comps) for nd in comp}
        # a connected set avoiding x lies entirely in one component
        carriers = {where[min(nds)] for nds in sets.values() if x not in nds}
        if len(carriers) > 1:
            raise NotAnAtom("holders of the cut node form a clique cutset")
        keep = set(comps[carriers.pop() if carriers else 0]) | {x}
        sets = {v: nds & keep for v, nds in sets.items()}


def _positions_to_arc(
    positions: list[int], length: int, kind: str
) -> tuple[int, int]:
    run = set(positions)
    if kind == "path" or len(positions) == positions[-1] - positions[0] + 1:
        lo, hi = positions[0], positions[-1]
        if hi - lo + 1 != len(positions):
            raise NotAnAtom("node set is not contiguous on the path")
        return lo, hi
    # cyclic interval: the unique start has no predecessor in the run
    starts = [p for p in positions if (p - 1) % length not in run]
    if len(starts) != 1:
        raise NotAnAtom("node set is not a contiguous arc of the cycle")
    s = starts[0]
    return s, (s + len(positions) - 1) % length


def model_intersection_graph(model: ArcModel) -> SimpleGraph:
    """The graph an arc model encodes; vertex labels must be dense 0-based."""
    verts = sorted(model.arcs.keys())
    if verts != list(range(len(verts))):
        raise ValueError("arc model vertices must be dense 0-based")
    pos = {v: model.positions(v) for v in verts}
    edges = [
        (u, v)
        for i, u in enumerate(verts)
        for v in verts[i + 1 :]
        if pos[u] & pos[v]
    ]
    return SimpleGraph.from_edges(len(verts), edges)


def _bipartite_max_independent(left, right, conflict) -> list:
    """Maximum independent set of a bipartite conflict graph via matching.

    Kuhn augmenting paths give a maximum matching; the standard alternating
    reachability argument turns its size into a minimum vertex cover, whose
    complement is returned.
    """
    match_right: dict = {}
    match_left: dict = {}

    def try_augment(u, visited) -> bool:
        for w in conflict[u]:
            if w in visited:
                continue
            visited.add(w)
            if w not in match_right or try_augment(match_right[w], visited):
                match_right[w] = u
                match_left[u] = w
                return True
        return False

    for u in left:
        try_augment(u, set())
    # alternating reachability from unmatched left vertices
    frontier = [u for u in left if u not in match_left]
    reach_left = set(frontier)
    reach_right = set()
    while frontier:
        u = frontier.pop()
        for w in conflict[u]:
            if w not in reach_right:
                reach_right.add(w)
                owner = match_right.get(w)
                if owner is not None and owner not in reach_left:
                    reach_left.add(owner)
                    frontier.append(owner)
    return sorted(
        [u for u in left if u in reach_left]
        + [w for w in right if w not in reach_right]
    )


def carc_max_clique(model: ArcModel) -> tuple[int, ...]:
    """Maximum clique of a circular-arc (or interval) model.

    Full-circle arcs join every clique.  Any other clique either has a common
    position, or the arcs missing a position p become pairwise-intersecting
    intervals once the circle is cut at p, and intervals with pairwise
    intersections share a point q.  So the clique splits as (arcs through p)
    union (arcs through q) for some pair of positions, each side a clique:
    a co-bipartite candidate whose maximum clique is found as a maximum
    independent set of the bipartite disjointness graph between the sides.
    All endpoint position pairs, including p = q, are tried.
    """
    verts = sorted(model.arcs.keys())
    full = [v for v in verts if model.arcs[v] is None]
    others = [v for v in verts if model.arcs[v] is not None]
    if not others:
        return tuple(full)
    pos = {v: model.positions(v) for v in others}
    endpoints = sorted({p for v in others for p in model.arcs[v]})
    best: list[int] = []
    for pi, p in enumerate(endpoints):
        through_p = [v for v in others if p in pos[v]]
        for q in endpoints[pi:]:
            left = through_p
            right = [v for v in others if q in pos[v] and p not in pos[v]]
            if len(left) + len(right) <= len(best):
                continue
            conflict = {
                u: [w for w in right if not (pos[u] & pos[w])] for u in left
            }
            candidate = _bipartite_max_independent(left, right, conflict)
            if len(candidate) > len(best):
                best = candidate
    result = tuple(sorted(best + full))
    graph_pos = {v: model.positions(v) for v in verts}
    for u, v in combinations(result, 2):
        if not graph_pos[u] & graph_pos[v]:
            raise AssertionError("candidate is not a clique")
    return result


def clique_cactus(g: SimpleGraph, r: HRepresentation) -> tuple[int, ...]:
    """Maximum clique of a graph represented on a cactus pattern.

    The clique-cutset decomposition reduces the problem to atoms, each atom
    is peeled to an arc model, and the best arc-model clique wins.
    """
    if not is_cactus(r.pattern.base):
        raise NotCactus("pattern base is not a cactus")
    verdict = verify_representation(g, r)
    if not verdict.is_ok:
        raise InvalidRepresentation(verdict)
    if g.n == 0:
        return ()
    best: tuple[int, ...] = ()
    for atom in clique_cutset_decomposition(g).atoms:
        model = cactus_atom_arc_model(atom, r)
        c = carc_max_clique(model)
        if len(c) > len(best) or (len(c) == len(best) and c < best):
            best = c
    _check_clique(g, best)
    return best
