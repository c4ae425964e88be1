"""Shared brute-force helpers for the test suite.

These deliberately re-derive properties from first principles (subset
enumeration, component counting) so they stay independent of the library's
own algorithms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations

from hgraphs.clique import (
    ArcModel,
    CliqueEnumeration,
    cactus_atom_arc_model,
    carc_max_clique,
    clique_cutset_decomposition,
)
from hgraphs.clique import _bipartite_max_independent as _bitset_max_independent
from hgraphs.core import (
    Multigraph,
    SimpleGraph,
    _bits,
    _check_clique,
    _components,
    _connected,
    _reach,
    complement,
    induced_subgraph,
    two_subdivision,
)
from hgraphs.errors import (
    DomainMismatch,
    InvalidRepresentation,
    NotAnAtom,
    NotCactus,
    OracleLimitExceeded,
    ParseError,
    SearchLimitExceeded,
)
from hgraphs.fpt import (
    TreeDecomposition,
    _check_lists,
    make_nice,
    validate_decomposition,
)
from hgraphs.pattern import (
    TriPartition,
    _canonical_labelings,
    _connecting_edges,
    is_cactus,
    validate_tripartition,
)
from hgraphs.representation import (
    HRepresentation,
    SubdividedPattern,
    Verdict,
    verify_representation,
)


# Pattern nodes as tuples, built here apart from the package: ("b", h) is
# branch node h and ("s", k, i) the i-th internal node (1-based) of edge k.
# The package numbers a pattern's nodes in their sorted tuple order, and the
# references below number their tuples so by themselves.
Node = tuple


def node_tuples(pattern: SubdividedPattern) -> list[Node]:
    """Every node of pattern as a tuple, in sorted order."""
    nodes = [("b", h) for h in range(pattern.base.n)]
    nodes += [("s", k, i) for k, t in enumerate(pattern.counts) for i in range(1, t + 1)]
    return sorted(nodes)


def node_numbers(pattern: SubdividedPattern) -> dict[Node, int]:
    """Each node tuple's number: its position in sorted order."""
    return {nd: i for i, nd in enumerate(node_tuples(pattern))}


def sub(pattern: SubdividedPattern, k: int, i: int) -> int:
    """The number of edge k's i-th internal node (1-based)."""
    return node_numbers(pattern)[("s", k, i)]


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


# The set-based maximal-clique enumerator that the bitset
# maximal_cliques_capped replaced, kept verbatim (renamed) so tests can
# require identical cliques in identical emission order from it; only its
# return value changed, to the bitsets of today's CliqueEnumeration.
def maximal_cliques_capped_reference(g: SimpleGraph, cap: int) -> CliqueEnumeration:
    """Enumerate maximal cliques, stopping once more than cap are seen.

    Pivoted branch and bound; the pivot takes the candidate with the most
    remaining candidates as neighbors, ties toward the smaller index, so the
    emission order is deterministic.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if g.n == 0:
        return CliqueEnumeration(True, (), cap)
    # sets, not g.masks: masks were no faster on chordal graphs of 100-250 vertices
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
            return CliqueEnumeration(False, _as_masks(found), cap)
    return CliqueEnumeration(True, _as_masks(found), cap)


def _as_masks(cliques: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Cliques as the int bitsets CliqueEnumeration keeps, in the same order."""
    return tuple(sum(1 << v for v in c) for c in cliques)


# core.max_clique_bruteforce as it was before its recursion became an explicit
# stack, kept verbatim (renamed) so a differential test can require the same
# clique from both.
def max_clique_bruteforce_reference(
    g: SimpleGraph, limit: int = 20
) -> tuple[int, ...]:
    """Maximum clique by exhaustive clique enumeration.

    Visits every clique of the graph via ordered extension, so the result is
    independent of any of the solver code paths.  Ties are broken toward the
    lexicographically smallest vertex set.
    """
    if g.n > limit:
        raise OracleLimitExceeded(f"n={g.n} exceeds oracle limit {limit}")
    adj = g.adjacency
    best: tuple[int, ...] = ()

    def extend(clique: tuple[int, ...], candidates: list[int]) -> None:
        nonlocal best
        if len(clique) > len(best):
            best = clique
        for i, v in enumerate(candidates):
            extend(clique + (v,), [w for w in candidates[i + 1 :] if w in adj[v]])

    extend((), list(range(g.n)))
    return best


def has_clique_cutset(g: SimpleGraph) -> bool:
    """Exhaustive check: some clique's removal increases the component count."""
    base = len(_components(g.adjacency, range(g.n)))
    for k in all_cliques(g):
        if len(k) == g.n:
            continue
        rest = [v for v in range(g.n) if v not in k]
        if len(_components(g.adjacency, rest)) > base:
            return True
    return False


def atoms_bruteforce(g: SimpleGraph) -> list[tuple[int, ...]]:
    """The inclusion-maximal vertex sets that induce a connected subgraph
    without a clique cutset, sorted, found by trying every subset."""
    candidates = []
    for k in range(1, g.n + 1):
        for vs in combinations(range(g.n), k):
            sub = induced_subgraph(g, vs)
            if len(_components(g.adjacency, vs)) == 1 and not has_clique_cutset(sub):
                candidates.append(set(vs))
    return sorted(
        tuple(sorted(vs)) for vs in candidates if not any(vs < ws for ws in candidates)
    )


# The MCS-M+ run that the heap selection and the early-stopping search
# replaced, kept verbatim (renamed) so tests can require identical output.
def mcs_m_reference(g: SimpleGraph):
    """One MCS-M+ run: a minimal elimination ordering and its generators.

    Vertices are numbered from last to first, each time taking an
    unnumbered vertex of the largest weight, ties toward the smaller index.
    Numbering v raises, and joins to v by a fill edge, every unnumbered u
    that v reaches through unnumbered vertices all lighter than u; this fill
    is minimal (Berry, Blair, Heggernes & Peyton 2004).

    Returns (generators, later): the vertices whose weight when numbered is
    no larger than that of the vertex numbered just before, in numbering
    order, and for each vertex the set of its fill neighbours numbered
    before it, i.e. eliminated after it (Berry, Pogorelcnik & Simonet 2010).
    """
    # sets, not g.masks: masks took a 2000-vertex path from 1.1 to 3.1 s
    adj = g.adjacency
    weight = [0] * g.n
    later: list[set[int]] = [set() for _ in range(g.n)]
    unnumbered = set(range(g.n))
    generators: list[int] = []
    prev = -1
    while unnumbered:
        v = max(unnumbered, key=lambda u: (weight[u], -u))
        unnumbered.discard(v)
        if weight[v] <= prev:
            generators.append(v)
        prev = weight[v]
        # buckets[j] holds vertices whose path from v is no heavier than j;
        # no unnumbered vertex outweighs v, so buckets past weight[v] stay
        # empty and bucket weight[v] itself can raise nothing.
        buckets: list[list[int]] = [[] for _ in range(weight[v] + 1)]
        raised = [u for u in adj[v] if u in unnumbered]
        seen = set(raised)
        for u in raised:
            buckets[weight[u]].append(u)
        for j in range(weight[v]):
            stack = buckets[j]
            while stack:
                for z in adj[stack.pop()]:
                    if z in unnumbered and z not in seen:
                        seen.add(z)
                        if weight[z] > j:
                            raised.append(z)
                            buckets[weight[z]].append(z)
                        else:
                            stack.append(z)
        for u in raised:
            weight[u] += 1
            later[u].add(v)
    return generators, later


# The frozenset circular-arc clique that the bitset carc_max_clique replaced,
# kept verbatim (renamed) so tests can require identical tuples from it.
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


def carc_reference(model) -> tuple[int, ...]:
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
                u: [w for w in right if pos[u].isdisjoint(pos[w])] for u in left
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


# The endpoint scan that carc_max_clique ran before it found the clique
# number first, kept verbatim (renamed) so tests can require identical
# tuples from it.  It calls the library's bitset matching, as it did.
def carc_scan_reference(model) -> tuple[int, ...]:
    """Maximum clique of a circular-arc (or interval) model.

    Full-circle arcs join every clique.  Any other clique either has a common
    position, or the arcs missing a position p become pairwise-intersecting
    intervals once the circle is cut at p, and intervals with pairwise
    intersections share a point q.  So the clique splits as (arcs through p)
    union (arcs through q) for some pair of positions, each side a clique:
    a co-bipartite candidate whose maximum clique is found as a maximum
    independent set of the bipartite disjointness graph between the sides.
    All endpoint position pairs, including p = q, are tried in order, and
    the first strictly largest candidate wins.

    Arcs are bits of Python ints.  The arc set S of a pair holds the arcs
    through p or q, and its candidate is a maximum clique of S.  A pair's
    matching is skipped when that candidate cannot beat the best so far:
    when |S| minus a greedy matching of the disjointness graph is no larger
    than the best (by Konig the candidate has |S| minus a maximum matching's
    size), or when S lies inside the S of a pair matched before (an induced
    subgraph has no larger clique).  On an interval model the scan stops at
    the first candidate as large as the largest point load, which no clique
    exceeds, so the answer is the same.
    """
    verts = sorted(model.arcs.keys())
    pos = {v: model.positions(v) for v in verts}
    full = [v for v in verts if model.arcs[v] is None]
    others = [v for v in verts if model.arcs[v] is not None]
    if not others:
        return tuple(full)
    endpoints = sorted({p for v in others for p in model.arcs[v]})
    # through[p]: the arcs covering endpoint p, bit i standing for others[i]
    through = {
        p: sum(1 << i for i, v in enumerate(others) if p in pos[v])
        for p in endpoints
    }
    # two arcs meet iff one holds the other's start, so the arcs meeting
    # arc v are those through some endpoint that v covers
    everything = (1 << len(others)) - 1
    disjoint = []
    for v in others:
        meets = 0
        for p in endpoints:
            if p in pos[v]:
                meets |= through[p]
        disjoint.append(everything & ~meets)
    best, best_size = 0, 0
    # intervals that pairwise meet share a point (Helly), so on a path no
    # candidate beats the largest point load and the first to reach it wins
    load = max(map(int.bit_count, through.values())) if model.kind == "path" else -1
    matched: list[int] = []
    for pi, p in enumerate(endpoints):
        left = through[p]
        left_size = left.bit_count()
        for q in endpoints[pi:]:
            right = through[q] & ~left
            size = left_size + right.bit_count()
            if size <= best_size:
                continue
            # a greedy matching from the right side, stopped once it proves
            # the candidate cannot win
            unmatched, rest, need = left, right, size - best_size
            while rest and need:
                low = rest & -rest
                rest ^= low
                free = disjoint[low.bit_length() - 1] & unmatched
                if free:
                    unmatched ^= free & -free
                    need -= 1
            if not need:
                continue
            span = left | right
            if any(not span & ~seen for seen in reversed(matched)):
                continue
            # matched keeps only the inclusion-maximal sets
            matched = [seen for seen in matched if seen & ~span]
            matched.append(span)
            rows = {u: disjoint[u] & right for u in _bits(left)}
            candidate = _bitset_max_independent(left, right, rows)
            if candidate.bit_count() > best_size:
                best, best_size = candidate, candidate.bit_count()
                if best_size == load:
                    break
        if best_size == load:
            break
    result = tuple(sorted([others[i] for i in _bits(best)] + full))
    for u, v in combinations(result, 2):
        if not pos[u] & pos[v]:
            raise AssertionError("candidate is not a clique")
    return result


# clique_cactus as it was before it skipped atoms that cannot beat the best
# clique so far, kept verbatim (renamed, with its clique test inlined) so
# tests can require identical tuples from it.
def clique_cactus_reference(g: SimpleGraph, r: HRepresentation) -> tuple[int, ...]:
    """Maximum clique of a graph represented on a cactus pattern.

    The clique-cutset decomposition reduces the problem to atoms, each atom
    is peeled to an arc model, and the best arc-model clique wins.  An atom
    whose vertices are pairwise adjacent is its own maximum clique, the one
    the arc model would give, so it skips the model.
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
        whole = sum(1 << v for v in atom.vertices)
        if all(whole & ~g.masks[v] == 1 << v for v in atom.vertices):
            c = atom.vertices
        else:
            c = carc_max_clique(cactus_atom_arc_model(atom, r))
        if len(c) > len(best) or (len(c) == len(best) and c < best):
            best = c
    _check_clique(g, best)
    return best


# The pattern adjacency built on node tuples and the arc-model peel on node
# sets, from before both were read off the pattern's node graph, kept
# (renamed) so tests can require identical neighbours and arc models from
# them.  The adjacency numbers its tuples itself (``node_numbers``); the
# peel reads pattern.adjacency, which a test holds equal to the adjacency
# here.
def subdivided_adjacency_reference(
    pattern: SubdividedPattern,
) -> dict[int, frozenset[int]]:
    """Each node's neighbours, by number; a subdivision node's are the two
    nodes next to it on its edge's path."""
    ends: dict[Node, set[Node]] = {("b", h): set() for h in range(pattern.base.n)}
    inner: dict[Node, frozenset[Node]] = {}
    for k, (u, v) in enumerate(pattern.base.edges):
        if u == v:
            continue
        path = [("b", u)] + [("s", k, i) for i in range(1, pattern.counts[k] + 1)]
        path.append(("b", v))
        ends[path[0]].add(path[1])
        ends[path[-1]].add(path[-2])
        for i in range(1, len(path) - 1):
            inner[path[i]] = frozenset((path[i - 1], path[i + 1]))
    out = {nd: frozenset(s) for nd, s in ends.items()}
    out.update(inner)
    number = node_numbers(pattern)
    return {number[nd]: frozenset(map(number.get, out[nd])) for nd in sorted(out)}


def _classify_shape_reference(
    nodes: list[int], adjacency
) -> tuple[str, list[int]] | None:
    """Recognize the induced subgraph on nodes as a path or cycle.

    Returns ("path", order) or ("cycle", order), or None for anything else.
    A path is walked from its smaller end, a cycle from its smallest node
    toward the smaller neighbour, so orders are deterministic.
    """
    present = set(nodes)
    degree = {nd: len(adjacency[nd] & present) for nd in nodes}
    if len(nodes) == 1:
        return "path", list(nodes)
    ends = sorted(nd for nd in nodes if degree[nd] == 1)
    if len(ends) not in (0, 2) or any(
        degree[nd] != 2 for nd in nodes if nd not in ends
    ):
        return None
    order = [ends[0] if ends else min(nodes)]
    prev = None
    while len(order) < len(nodes):
        nxt = [x for x in sorted(adjacency[order[-1]] & present) if x != prev]
        if not nxt or nxt[0] == order[0]:
            return None  # disconnected: the walk closed or stopped early
        prev = order[-1]
        order.append(nxt[0])
    return ("path" if ends else "cycle"), order


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


def cactus_atom_arc_model_reference(atom, r: HRepresentation) -> ArcModel:
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
        shape = _classify_shape_reference(union, adjacency)
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
        for x in union:  # the smallest cut node, with the parts it leaves
            comps = _components(adjacency, set(union) - {x})
            if len(comps) > 1:
                break
        else:
            raise NotAnAtom("union of node sets is neither path, cycle, nor cut")
        where = {nd: i for i, comp in enumerate(comps) for nd in comp}
        # a connected set avoiding x lies entirely in one component
        carriers = {where[min(nds)] for nds in sets.values() if x not in nds}
        if len(carriers) > 1:
            raise NotAnAtom("holders of the cut node form a clique cutset")
        keep = set(comps[carriers.pop() if carriers else 0]) | {x}
        sets = {v: nds & keep for v, nds in sets.items()}


@dataclass(frozen=True)
class _BlockArcs:
    """The arcs of one cycle block, in the shape carc_reference reads."""

    length: int
    arcs: dict  # vertex -> (first, last) position clockwise, or None: all
    covered: dict  # vertex -> frozenset of its positions

    def positions(self, v: int) -> frozenset[int]:
        return self.covered[v]


def _pattern_cycles(adjacency) -> list[list[int]]:
    """The cycles of a cactus node graph, each in cyclic order.

    A depth-first search on an explicit stack: in a cactus every back edge
    closes exactly one cycle, the tree path up to its ancestor end.
    """
    parent: dict[int, int | None] = {}
    depth: dict[int, int] = {}
    cycles = []
    for root in sorted(adjacency):
        if root in depth:
            continue
        parent[root], depth[root] = None, 0
        stack = [(root, iter(sorted(adjacency[root])))]
        while stack:
            x, todo = stack[-1]
            y = next(todo, None)
            if y is None:
                stack.pop()
            elif y not in depth:
                parent[y], depth[y] = x, depth[x] + 1
                stack.append((y, iter(sorted(adjacency[y]))))
            elif depth[y] < depth[x] - 1:  # a back edge to an ancestor
                cycle = [x]
                while cycle[-1] != y:
                    cycle.append(parent[cycle[-1]])
                cycles.append(cycle)
    return cycles


def cactus_omega_reference(r: HRepresentation) -> int:
    """Clique number of the graph of a representation on a cactus pattern.

    Map each connected node set to the block-cut tree of the pattern; the
    images of a clique pairwise meet, so they share a cut node, and then the
    sets do, or a block B.  Two sets meeting outside B both hold the cut
    node of B on the way there, so the sets' parts in B pairwise meet.  On a
    bridge or a two-node cycle that gives a common node again; on a longer
    cycle the parts are arcs (a set's path between two cycle nodes stays on
    the cycle).  Conversely meeting parts make a clique.  So omega is the
    larger of the most sets on one node and the clique number of each cycle
    block's arc model, found by carc_reference.
    """
    load: dict[int, int] = {}
    for nodes in r.sets.values():
        for x in nodes:
            load[x] = load.get(x, 0) + 1
    best = max(load.values(), default=0)
    cycles = _pattern_cycles(r.pattern.adjacency)
    on: dict[int, list[tuple[int, int]]] = {}  # node -> (cycle, position)
    for c, cycle in enumerate(cycles):
        for i, x in enumerate(cycle):
            on.setdefault(x, []).append((c, i))
    parts: list[dict[int, set[int]]] = [{} for _ in cycles]
    for v, nodes in r.sets.items():
        for x in nodes:
            for c, i in on.get(x, ()):
                parts[c].setdefault(v, set()).add(i)
    for cycle, meeting in zip(cycles, parts):
        if len(meeting) <= best:  # no more arcs than the best clique
            continue
        size = len(cycle)
        arcs, covered = {}, {}
        for v, part in meeting.items():
            starts = [p for p in part if (p - 1) % size not in part]
            if len(part) == size:
                arcs[v] = None
            elif len(starts) == 1:
                arcs[v] = (starts[0], (starts[0] + len(part) - 1) % size)
            else:
                raise AssertionError(f"set {v} meets a cycle in {len(starts)} arcs")
            covered[v] = frozenset(part)
        best = max(best, len(carc_reference(_BlockArcs(size, arcs, covered))))
    return best


# The set-based min-fill order and min-degree peeling that the bitset
# minfill_order and the bucket-queue degeneracy replaced, kept verbatim
# (renamed) so tests can require identical orders and values from them.
def minfill_order_reference(
    g: SimpleGraph, rng: random.Random | None = None
) -> list[int]:
    """Elimination order picking a minimum-fill vertex at each step.

    Ties go to the smallest vertex index unless an rng is supplied, in which
    case a uniformly random tied vertex is taken (still deterministic per seed).
    """
    adj = [set(a) for a in g.adjacency]
    remaining = set(range(g.n))
    order = []
    while remaining:
        best_fill = None
        tied = []
        for v in sorted(remaining):
            nb = adj[v] & remaining
            fill = sum(
                1 for a, c in combinations(sorted(nb), 2) if c not in adj[a]
            )
            if best_fill is None or fill < best_fill:
                best_fill = fill
                tied = [v]
            elif fill == best_fill:
                tied.append(v)
        v = tied[0] if rng is None else rng.choice(tied)
        nb = adj[v] & remaining
        for a, c in combinations(sorted(nb), 2):
            adj[a].add(c)
            adj[c].add(a)
        remaining.remove(v)
        order.append(v)
    return order


# The heap min-fill that fpt._minfill's bit-plane and heap paths replaced,
# kept verbatim (renamed): it returns the elimination masks too, and it stays
# fast past the 60 dense vertices where minfill_order_reference slows down.
def minfill_heap_reference(
    g: SimpleGraph, rng: random.Random | None
) -> tuple[list[int], list[int]]:
    """Elimination order picking a minimum-fill vertex at each step, and the
    mask of each eliminated vertex's neighbours when it goes.

    Ties go to the smallest vertex index unless an rng is supplied, in which
    case a uniformly random tied vertex is taken (still deterministic per seed).

    Adjacency is held as int bitsets.  Fills are computed once and then kept
    by deltas (Bodlaender & Koster 2010, "Treewidth computations I. Upper
    bounds").  Eliminating v first adds its fill edges one at a time: a new
    edge ab lowers the fill of each common neighbour of a and b by one and
    raises a's by |N(a) \\ N(b)| and b's by |N(b) \\ N(a)|, read before
    linking.  Then N(v) is a clique, and dropping v lowers the fill of each
    w in N(v) by |N(w) \\ N(v)|, with v already gone from N(w).

    Vertices wait in one heap of int keys fill·n + v.  A fill change pushes
    a new key, and a popped key that no longer names v's fill is skipped (an
    eliminated vertex's fill is -1), so the first live key is the least
    fill's smallest vertex.  With an rng, the live keys at that fill pop in
    ascending order as the tie list, and go back on the heap.
    """
    n = g.n
    nbr = list(g.masks)

    def fill_of(v: int) -> int:
        # pairs in N(v) minus the edges inside N(v), each seen from both ends;
        # inline bit loop: _bits here made min-fill 5-20% slower
        nv = nbr[v]
        inside = 0
        m = nv
        while m:
            low = m & -m
            inside += (nbr[low.bit_length() - 1] & nv).bit_count()
            m ^= low
        d = nv.bit_count()
        return d * (d - 1) // 2 - inside // 2

    fill = [fill_of(v) for v in range(n)]
    heap = [f * n + v for v, f in enumerate(fill)]
    heapify(heap)
    delta = [0] * n  # fill changes of the current step, reset once applied
    order = []
    eliminated = []
    for _ in range(n):
        least, v = divmod(heappop(heap), n)
        while fill[v] != least:
            least, v = divmod(heappop(heap), n)
        if rng is not None:
            tied = [v]
            low = least * n
            while heap and heap[0] < low + n:
                u = heappop(heap) - low
                if fill[u] == least and u != tied[-1]:  # live, not a repeat
                    tied.append(u)
            v = rng.choice(tied)
            for u in tied:
                heappush(heap, low + u)
        order.append(v)
        nv = nbr[v]
        eliminated.append(nv)
        nbr[v] = 0
        fill[v] = -1
        if not least:
            # N(v) is a clique already, so nothing is linked and only the
            # fills in N(v) change, each once: no delta pass is needed
            for w in _bits(nv):
                nw = nbr[w] ^ 1 << v
                nbr[w] = nw
                drop = (nw & ~nv).bit_count()
                if drop:
                    fill[w] -= drop
                    heappush(heap, fill[w] * n + w)
            continue
        # links pair by pair, not by _eliminate: each new edge moves fills
        touched = nv
        for a in _bits(nv):
            for b in _bits(nv & ~nbr[a] & ~((2 << a) - 1)):  # b > a, unlinked
                na, nb = nbr[a], nbr[b]
                common = na & nb
                touched |= common
                for w in _bits(common):
                    delta[w] -= 1
                delta[a] += (na & ~nb).bit_count()
                delta[b] += (nb & ~na).bit_count()
                nbr[a] = na | 1 << b
                nbr[b] = nb | 1 << a
        for w in _bits(nv):
            nbr[w] ^= 1 << v
            delta[w] -= (nbr[w] & ~nv).bit_count()
        for w in _bits(touched & ~(1 << v)):
            if delta[w]:
                fill[w] += delta[w]
                heappush(heap, fill[w] * n + w)
                delta[w] = 0
    return order, eliminated


def degeneracy_reference(g: SimpleGraph) -> int:
    """Max over the min-degree peeling; a certified treewidth lower bound."""
    adj = [set(a) for a in g.adjacency]
    remaining = set(range(g.n))
    worst = 0
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u] & remaining), u))
        worst = max(worst, len(adj[v] & remaining))
        remaining.remove(v)
    return worst


# The validator that tested each vertex's bags with one BFS over the bag
# tree, replaced by counting and kept verbatim (renamed) so tests can
# require identical problem lists on tree-shaped decompositions.
def check_decomposition_reference(g: SimpleGraph, d: TreeDecomposition) -> list[str]:
    """Return a list of axiom violations; empty means the decomposition is valid."""
    problems = []
    b = len(d.bags)
    if b == 0:
        return ["decomposition has no bags"]
    holders: list[set[int]] = [set() for _ in range(g.n)]  # bags holding v
    for i, bag in enumerate(d.bags):
        for v in bag:
            if 0 <= v < g.n:
                holders[v].add(i)
            else:
                problems.append(f"bag vertex {v} outside graph")
    for i, j in d.tree_edges:
        if not (0 <= i < b and 0 <= j < b):
            return problems + [f"tree edge ({i},{j}) out of range"]
    # the tree really is a tree
    if len(d.tree_edges) != b - 1:
        problems.append(f"{len(d.tree_edges)} tree edges for {b} bags")
    nbrs: list[list[int]] = [[] for _ in range(b)]
    for i, j in d.tree_edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    if len(_reach(nbrs, 0, range(b))) != b:
        problems.append("bag tree is disconnected")
        return problems
    # every vertex induces a non-empty connected subtree
    for v, hold in enumerate(holders):
        if not hold:
            problems.append(f"vertex {v} in no bag")
        elif not _connected(nbrs, hold):
            problems.append(f"bags of vertex {v} are not connected in the tree")
    # every edge is inside some bag
    for u, v in g.edges:
        if holders[u].isdisjoint(holders[v]):
            problems.append(f"edge ({u},{v}) not covered by any bag")
    return problems


# The set-based elimination game and the subset DP with inline bit loops
# that the shared bitset elimination replaced, kept verbatim (renamed) so
# tests can require identical bags, tree edges and widths from them.
def decomposition_from_order_reference(
    g: SimpleGraph, order: list[int] | tuple[int, ...]
) -> TreeDecomposition:
    """Tree decomposition induced by an elimination order.

    Bag i is the i-th eliminated vertex together with its neighbors in the
    partially filled graph; bag i hangs off the bag of its earliest-eliminated
    fill neighbor.
    """
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    if g.n == 0:
        return TreeDecomposition((frozenset(),), ())
    pos = {v: i for i, v in enumerate(order)}
    adj = [set(a) for a in g.adjacency]
    bags = []
    elim_nbrs = []
    for v in order:
        nb = sorted(adj[v])
        bags.append(frozenset([v] + nb))
        elim_nbrs.append(nb)
        for a, c in combinations(nb, 2):
            adj[a].add(c)
            adj[c].add(a)
        for u in nb:
            adj[u].discard(v)
        adj[v].clear()
    edges = []
    for i, nb in enumerate(elim_nbrs):
        if nb:
            edges.append((i, min(pos[w] for w in nb)))
        elif i + 1 < len(bags):
            edges.append((i, i + 1))
    return TreeDecomposition(tuple(bags), tuple(edges))


def exact_decomposition_reference(g: SimpleGraph) -> tuple[int, TreeDecomposition]:
    """Exact treewidth via dynamic programming over vertex subsets.

    State tw[S] is the best possible maximum elimination degree over orders
    that eliminate exactly the set S first; the witnessing order is unwound
    from the stored choices.  Exponential in n, intended for small graphs.
    """
    n = g.n
    if n == 0:
        return -1, TreeDecomposition((frozenset(),), ())
    adj_mask = [0] * n
    for u, v in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    full = (1 << n) - 1

    def elim_degree(prefix: int, v: int) -> int:
        # vertices outside prefix+v reachable from v through prefix
        comp = 1 << v
        frontier = comp
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= adj_mask[low.bit_length() - 1]
                m ^= low
            nxt &= prefix & ~comp
            comp |= nxt
            frontier = nxt
        reach = 0
        m = comp
        while m:
            low = m & -m
            reach |= adj_mask[low.bit_length() - 1]
            m ^= low
        return (reach & ~prefix & ~(1 << v)).bit_count()

    tw = [0] * (full + 1)
    tw[0] = -1
    choice = [0] * (full + 1)
    for s in range(1, full + 1):
        best = n
        best_v = -1
        m = s
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            prev = s ^ low
            w = max(tw[prev], elim_degree(prev, v))
            if w < best:
                best = w
                best_v = v
        tw[s] = best
        choice[s] = best_v
    order_rev = []
    s = full
    while s:
        v = choice[s]
        order_rev.append(v)
        s ^= 1 << v
    order = order_rev[::-1]
    return tw[full], decomposition_from_order_reference(g, order)


# The list-coloring DP that stored a predecessor tuple for every state of
# every table, and the recursive backtracking oracle, both replaced and
# kept verbatim (renamed) so tests can require identical return values.
def list_k_coloring_reference(
    g: SimpleGraph, lists: ColorLists, k: int, d: TreeDecomposition
) -> dict[int, int] | None:
    """Proper coloring drawing each vertex's color from its own list, or None.

    Dynamic program over the nice form of d: a state is a proper,
    list-respecting coloring of the current bag; introduce extends by list
    colors unused on bag neighbors, forget projects, join keeps assignments
    present on both sides.  A witness is rebuilt from stored predecessors.
    Pre-coloring extension is the special case of singleton lists.
    """
    validate_decomposition(g, d)
    _check_lists(g, lists, k)
    nice = make_nice(d)
    adj = g.adjacency

    # make_nice adds every node after its children, so index order is a
    # valid evaluation order
    tables: list[dict[tuple[int, ...], tuple]] = []
    for nd in nice.nodes:
        if nd.kind == "leaf":
            table = {(): ()}
        elif nd.kind == "join":
            left, right = (tables[c] for c in nd.children)
            table = {s: (s, s) for s in left if s in right}
        elif nd.kind == "introduce":
            (child,) = nd.children
            v = nd.vertex
            vi = nd.bag.index(v)
            # positions of v's bag neighbours in the child's states
            near = [i - (i > vi) for i, u in enumerate(nd.bag) if u in adj[v]]
            colors = sorted(lists[v])
            table = {}
            for state in tables[child]:
                used = {state[j] for j in near}
                for c in colors:
                    if c not in used:
                        table[state[:vi] + (c,) + state[vi:]] = (state,)
        else:  # forget
            (child,) = nd.children
            vi = nice.nodes[child].bag.index(nd.vertex)
            table = {}
            for state in tables[child]:
                new = state[:vi] + state[vi + 1 :]
                if new not in table:  # first predecessor wins, in insertion order
                    table[new] = (state,)
        tables.append(table)

    if () not in tables[nice.root]:
        return None

    # Witness: pre-order from the root, left child before right, each node
    # read at the state its parent chose.
    coloring: dict[int, int] = {}
    walk = [(nice.root, ())]
    while walk:
        idx, state = walk.pop()
        nd = nice.nodes[idx]
        preds = tables[idx][state]
        for child, cstate in reversed(tuple(zip(nd.children, preds))):
            walk.append((child, cstate))
        if nd.kind == "forget":
            (child,) = nd.children
            (cstate,) = preds
            coloring[nd.vertex] = cstate[nice.nodes[child].bag.index(nd.vertex)]
    # every vertex is forgotten exactly once on the way to the empty root bag
    if len(coloring) != g.n:
        raise AssertionError(f"witness colors {len(coloring)} of {g.n} vertices")
    for u, v in g.edges:
        if coloring[u] == coloring[v]:
            raise AssertionError(f"witness gives {u} and {v} the same color")
    for v, c in coloring.items():
        if c not in lists[v]:
            raise AssertionError(f"witness color {c} of {v} is not on its list")
    return coloring


def list_coloring_bruteforce_reference(
    g: SimpleGraph, lists: ColorLists, limit: int = 12
) -> dict[int, int] | None:
    """Proper list coloring by exhaustive backtracking, or None if unsatisfiable.

    Vertices are colored in index order, colors tried in ascending order, so
    the returned coloring (when one exists) is deterministic.
    """
    if g.n > limit:
        raise OracleLimitExceeded(f"n={g.n} exceeds oracle limit {limit}")
    for v in range(g.n):
        if v not in lists or not lists[v]:
            raise ValueError(f"vertex {v} has no color list")
    adj = g.adjacency
    colors: dict[int, int] = {}

    def assign(v: int) -> bool:
        if v == g.n:
            return True
        for c in sorted(lists[v]):
            if all(colors.get(u) != c for u in adj[v] if u < v):
                colors[v] = c
                if assign(v + 1):
                    return True
                del colors[v]
        return False

    return dict(colors) if assign(0) else None


def degeneracy_bruteforce(g: SimpleGraph) -> int:
    """The largest minimum degree of an induced subgraph, over every subset."""
    best = 0
    for k in range(1, g.n + 1):
        for vs in combinations(range(g.n), k):
            members = set(vs)
            best = max(best, min(len(g.adjacency[v] & members) for v in vs))
    return best


def grid_graph(rows: int, cols: int) -> SimpleGraph:
    """The rows x cols grid, vertex r * cols + c at row r and column c."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((r * cols + c, r * cols + c + 1))
            if r + 1 < rows:
                edges.append((r * cols + c, (r + 1) * cols + c))
    return SimpleGraph.from_edges(rows * cols, edges)


def caterpillar_graph(spine: int, legs: int) -> SimpleGraph:
    """A path 0..spine-1 with legs leaves hung on each of its vertices."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i * legs + j) for i in range(spine) for j in range(legs)]
    return SimpleGraph.from_edges(spine * (legs + 1), edges)


def random_tree(n: int, rng: random.Random) -> SimpleGraph:
    """A random tree: vertex v hangs off a uniform earlier vertex."""
    return SimpleGraph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_chordal(n: int, rng: random.Random) -> SimpleGraph:
    """A random chordal graph on shuffled labels.

    Each new vertex joins a random subset of a clique already present: an
    earlier vertex together with the clique it joined.  Reversed insertion
    order is then a perfect elimination order; an empty subset starts a new
    component.
    """
    label = list(range(n))
    rng.shuffle(label)
    joined: list[list[int]] = []
    edges = []
    for v in range(n):
        if v:
            u = rng.randrange(v)
            clique = [u] + joined[u]
            joined.append(rng.sample(clique, rng.randint(0, len(clique))))
        else:
            joined.append([])
        edges += [(label[u], label[v]) for u in joined[v]]
    return SimpleGraph.from_edges(n, edges)


def assert_clique(g: SimpleGraph, verts) -> None:
    # raised, not asserted: pytest leaves asserts in this module unrewritten,
    # and python -O would drop them
    for u, v in combinations(sorted(verts), 2):
        if (u, v) not in g.edges:
            raise AssertionError(f"({u},{v}) missing: not a clique")


def coloring_is_proper(g: SimpleGraph, lists, coloring: dict[int, int]) -> bool:
    if set(coloring) != set(range(g.n)):
        return False
    if any(coloring[u] == coloring[v] for u, v in g.edges):
        return False
    return all(coloring[v] in lists[v] for v in range(g.n))


# The token helpers of hgraphs.formats as they were before its id checks were
# stated once, kept verbatim so the reference parsers share no code with the
# parsers they are compared against.
def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield no, line


def _int(tok: str, path: str, no: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(path, no, f"expected integer {what}, got {tok!r}")


def _count(tok: str, path: str, no: int, what: str) -> int:
    value = _int(tok, path, no, what)
    if value < 0:
        raise ParseError(path, no, f"{what} must be non-negative, got {value}")
    return value


def _parse_node_ref(tok: str, pattern: SubdividedPattern, path: str, no: int):
    if tok.startswith("b:"):
        h = _int(tok[2:], path, no, "branch node")
        if not (1 <= h <= pattern.base.n):
            raise ParseError(path, no, f"branch node {h} outside 1..{pattern.base.n}")
        return ("b", h - 1)
    if tok.startswith("s:"):
        body = tok[2:]
        if "." not in body:
            raise ParseError(path, no, f"expected s:<edge>.<i>, got {tok!r}")
        e_str, i_str = body.split(".", 1)
        e = _int(e_str, path, no, "edge index")
        i = _int(i_str, path, no, "subdivision position")
        if not (1 <= e <= pattern.base.m):
            raise ParseError(path, no, f"edge index {e} outside 1..{pattern.base.m}")
        if not (1 <= i <= pattern.counts[e - 1]):
            raise ParseError(
                path,
                no,
                f"edge {e} has {pattern.counts[e - 1]} subdivision nodes, not {i}",
            )
        return ("s", e - 1, i)
    raise ParseError(path, no, f"expected b:<node> or s:<edge>.<i>, got {tok!r}")


# The headed parsers as they were before one reader took over their header
# rules, kept verbatim (renamed) so a differential fuzz test can require
# identical return values and identical ParseError lines and messages.
def parse_gr_reference(text: str, path: str = "<gr>") -> SimpleGraph:
    n = m = None
    edges = set()
    header_line = 0
    for no, line in _lines(text):
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(path, no, "duplicate p line")
            if len(parts) != 4 or parts[1] != "tw":
                raise ParseError(path, no, "expected 'p tw <n> <m>'")
            n = _count(parts[2], path, no, "vertex count")
            m = _count(parts[3], path, no, "edge count")
            header_line = no
            continue
        if n is None:
            raise ParseError(path, no, "edge line before p line")
        if len(parts) != 2:
            raise ParseError(path, no, "expected '<u> <v>'")
        u = _int(parts[0], path, no, "endpoint")
        v = _int(parts[1], path, no, "endpoint")
        for x in (u, v):
            if not (1 <= x <= n):
                raise ParseError(path, no, f"vertex {x} outside 1..{n}")
        if u == v:
            raise ParseError(path, no, "loops are not allowed in .gr files")
        key = (min(u, v) - 1, max(u, v) - 1)
        if key in edges:
            raise ParseError(path, no, f"duplicate edge {u} {v}")
        edges.add(key)
    if n is None:
        raise ParseError(path, 1, "missing p line")
    if len(edges) != m:
        raise ParseError(
            path, header_line, f"declared {m} edges but found {len(edges)}"
        )
    return SimpleGraph.from_edges(n, edges)


def parse_hgr_reference(text: str, path: str = "<hgr>") -> Multigraph:
    n = m = None
    edges = []
    header_line = 0
    for no, line in _lines(text):
        parts = line.split()
        if parts[0] == "h":
            if n is not None:
                raise ParseError(path, no, "duplicate h line")
            if len(parts) != 3:
                raise ParseError(path, no, "expected 'h <n> <m>'")
            n = _count(parts[1], path, no, "node count")
            m = _count(parts[2], path, no, "edge count")
            header_line = no
            continue
        if n is None:
            raise ParseError(path, no, "edge line before h line")
        if len(parts) != 2:
            raise ParseError(path, no, "expected '<u> <v>'")
        u = _int(parts[0], path, no, "endpoint")
        v = _int(parts[1], path, no, "endpoint")
        for x in (u, v):
            if not (1 <= x <= n):
                raise ParseError(path, no, f"node {x} outside 1..{n}")
        edges.append((u - 1, v - 1))
    if n is None:
        raise ParseError(path, 1, "missing h line")
    if len(edges) != m:
        raise ParseError(
            path, header_line, f"declared {m} edges but found {len(edges)}"
        )
    return Multigraph(n, tuple(edges))


def parse_td_reference(text: str, path: str = "<td>") -> tuple[TreeDecomposition, int]:
    """Parse a .td file; returns the decomposition and the declared graph size."""
    header = None
    bags: dict[int, frozenset[int]] = {}
    tree_edges = []
    header_line = 0
    for no, line in _lines(text):
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise ParseError(path, no, "duplicate s line")
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(path, no, "expected 's td <bags> <width+1> <n>'")
            header = tuple(_count(p, path, no, "header field") for p in parts[2:])
            header_line = no
            continue
        if header is None:
            raise ParseError(path, no, "content before s line")
        if parts[0] == "b":
            if len(parts) < 2:
                raise ParseError(path, no, "expected 'b <id> <vertices...>'")
            idx = _int(parts[1], path, no, "bag id")
            if not (1 <= idx <= header[0]):
                raise ParseError(path, no, f"bag id {idx} outside 1..{header[0]}")
            if idx in bags:
                raise ParseError(path, no, f"duplicate bag {idx}")
            verts = [_int(p, path, no, "bag vertex") for p in parts[2:]]
            for v in verts:
                if not (1 <= v <= header[2]):
                    raise ParseError(path, no, f"vertex {v} outside 1..{header[2]}")
            bags[idx] = frozenset(v - 1 for v in verts)
            continue
        if len(parts) != 2:
            raise ParseError(path, no, "expected tree edge '<i> <j>'")
        i = _int(parts[0], path, no, "bag id")
        j = _int(parts[1], path, no, "bag id")
        for x in (i, j):
            if not (1 <= x <= header[0]):
                raise ParseError(path, no, f"bag id {x} outside 1..{header[0]}")
        tree_edges.append((i - 1, j - 1))
    if header is None:
        raise ParseError(path, 1, "missing s line")
    if len(bags) != header[0]:
        raise ParseError(
            path, header_line, f"declared {header[0]} bags but found {len(bags)}"
        )
    ordered = tuple(bags[i + 1] for i in range(header[0]))
    d = TreeDecomposition(ordered, tuple(tree_edges))
    if max((len(b) for b in ordered), default=0) != header[1]:
        raise ParseError(path, header_line, "declared width+1 disagrees with bags")
    return d, header[2]


def parse_rep_reference(
    text: str, pattern_text: str, path: str = "<rep>", pattern_path: str = "<hgr>"
) -> tuple[HRepresentation, str]:
    """Parse a .rep file given the text of the pattern file it references.

    Returns the representation and the pattern reference recorded in the
    header (the caller resolves that reference to load ``pattern_text``).
    Map lines are read to node tuples, numbered at the end by
    ``node_numbers``.
    """
    pattern_base = parse_hgr_reference(pattern_text, pattern_path)
    ref = None
    counts: list[int | None] = [None] * pattern_base.m  # None: no subdiv line
    sets: dict[int, frozenset] = {}
    pattern: SubdividedPattern | None = None
    for no, line in _lines(text):
        parts = line.split()
        if parts[0] == "r":
            if ref is not None:
                raise ParseError(path, no, "duplicate r line")
            if len(parts) != 2:
                raise ParseError(path, no, "expected 'r <pattern-file>'")
            ref = parts[1]
            continue
        if ref is None:
            raise ParseError(path, no, "content before r line")
        if parts[0] == "subdiv":
            if pattern is not None:
                raise ParseError(path, no, "subdiv line after map lines")
            if len(parts) != 3:
                raise ParseError(path, no, "expected 'subdiv <edge> <count>'")
            e = _int(parts[1], path, no, "edge index")
            t = _int(parts[2], path, no, "subdivision count")
            if not (1 <= e <= pattern_base.m):
                raise ParseError(
                    path, no, f"edge index {e} outside 1..{pattern_base.m}"
                )
            if t < 0:
                raise ParseError(path, no, "subdivision count must be >= 0")
            a, b = pattern_base.edges[e - 1]
            if a == b and t > 0:
                raise ParseError(path, no, f"edge {e} is a loop and cannot be subdivided")
            if counts[e - 1] is not None:
                raise ParseError(path, no, f"duplicate subdiv line for edge {e}")
            counts[e - 1] = t
            continue
        if parts[0] == "map":
            if pattern is None:
                pattern = SubdividedPattern(pattern_base, tuple(c or 0 for c in counts))
            if len(parts) < 3:
                raise ParseError(path, no, "expected 'map <v> <node>...'")
            v = _int(parts[1], path, no, "vertex")
            if v < 1:
                raise ParseError(path, no, f"vertex {v} must be positive")
            if v - 1 in sets:
                raise ParseError(path, no, f"duplicate map line for vertex {v}")
            sets[v - 1] = frozenset(
                _parse_node_ref(tok, pattern, path, no) for tok in parts[2:]
            )
            continue
        raise ParseError(path, no, f"unrecognized line {line!r}")
    if ref is None:
        raise ParseError(path, 1, "missing r line")
    if pattern is None:
        pattern = SubdividedPattern(pattern_base, tuple(c or 0 for c in counts))
    if sorted(sets) != list(range(len(sets))):
        missing = next(i for i in range(len(sets) + 1) if i not in sets)
        raise ParseError(path, 1, f"no map line for vertex {missing + 1}")
    number = node_numbers(pattern)
    numbers = {v: map(number.get, nds) for v, nds in sets.items()}
    return HRepresentation(pattern, numbers), ref


# The emitter that wrote each vertex's node tuples through a node -> id map,
# from before it read node numbers, kept (renamed) so tests can require
# byte-identical files from both; it reads the numbers back to tuples
# through its own sorted tuple order and names the tuples itself.
def emit_rep_reference(r: HRepresentation, pattern_ref: str) -> str:
    out = [f"r {pattern_ref}"]
    out += [f"subdiv {k + 1} {t}" for k, t in enumerate(r.pattern.counts) if t > 0]
    nodes = node_tuples(r.pattern)
    name = {nd: f"b:{nd[1] + 1}" if nd[0] == "b" else f"s:{nd[1] + 1}.{nd[2]}" for nd in nodes}
    for v in sorted(r.sets):
        refs = " ".join([name[nd] for nd in sorted(nodes[i] for i in r.sets[v])])
        out.append(f"map {v + 1} {refs}")
    return "\n".join(out) + "\n"


# The six-path construction that the head/tail rule of generate_hard_instance
# replaced, kept verbatim (renamed) so tests can require identical targets,
# representations and emitted files from both.
def generate_hard_instance_reference(
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
    for pair, connecting, size in zip(((0, 1), (0, 2), (1, 2)), part.connecting, (n, n, m)):
        first, second = connecting[:2]
        counts[first] = size
        counts[second] = size
        chosen[pair] = (first, second)
    pattern = SubdividedPattern(h, tuple(counts))

    in_part = {}
    for i, p in enumerate(part.parts):
        for node in p:
            in_part[node] = i

    def oriented(k: int, from_part: int) -> list[int]:
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

    branch_sets = [frozenset(p) for p in part.parts]  # branch node h is h

    sets: dict[int, frozenset[int]] = {}
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
        ell = labeled.edge_order[j][0] + 1
        p = j + 1
        sets[labeled.sub1(j)] = branch_sets[1].union(
            path_12_a[ell:],
            path_12_b[n - ell :],
            path_23_a[:p],
            path_23_b[: m - p],
        )
    for j in range(m):
        rr = labeled.edge_order[j][1] + 1
        p = j + 1
        sets[labeled.sub2(j)] = branch_sets[2].union(
            path_13_a[rr:],
            path_13_b[n - rr :],
            path_23_a[p:],
            path_23_b[m - p :],
        )
    return target, HRepresentation(pattern, sets)


def _meeting_pairs(sets) -> list[tuple[int, int]]:
    """Pairs u < v whose sets share an element, in ascending order.

    sets is indexed by 0..len(sets)-1: a sequence or a dense int mapping.
    """
    return [
        (u, v)
        for u in range(len(sets))
        for v in range(u + 1, len(sets))
        if not sets[u].isdisjoint(sets[v])
    ]


# The pairwise verification that the holder-mask one replaced, kept verbatim
# (renamed) so tests can require the identical verdict from both.
def verify_representation_reference(g: SimpleGraph, r: HRepresentation) -> Verdict:
    """Check that r is exactly a representation of g.

    Each node set must induce a connected subgraph of the subdivided pattern,
    and two sets must share a node precisely when the vertices are adjacent.
    """
    if set(r.sets.keys()) != set(range(g.n)):
        raise DomainMismatch("representation domain differs from graph vertices")
    adjacency = subdivided_adjacency_reference(r.pattern)
    for v in range(g.n):
        for nd in r.sets[v]:
            if nd not in adjacency:
                raise ValueError(f"vertex {v} uses unknown pattern node {nd}")
        if not _connected(adjacency, r.sets[v]):
            return Verdict("disconnected", vertex=v)
    wrong = sorted(g.edges.symmetric_difference(_meeting_pairs(r.sets)))
    if wrong:
        mismatches = tuple([(u, v, (u, v) in g.edges) for u, v in wrong])
        return Verdict("mismatch", mismatches=mismatches)
    return Verdict("ok")


# The tripartition search before it skipped components of cycle rank below 4,
# kept verbatim (renamed) so tests can require identical answers from both.
def find_tripartition_reference(h: Multigraph, limit: int = 15) -> TriPartition | None:
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
            parts: tuple[list[int], ...] = ([], [], [])
            for v, lab in zip(comp, labeling):
                parts[lab].append(v)
            if not all(_connected(h.adjacency, p) for p in parts):
                continue
            connecting = _connecting_edges(h, parts)
            if connecting is not None:
                return TriPartition(tuple([tuple(p) for p in parts]), connecting)
    return None
