"""Clique algorithms: capped enumeration, the Helly bound route, the Helly
property check of a representation, clique-cutset decomposition,
cactus-atom arc models, and circular-arc maximum clique.

Every clique returned by a public operation is re-checked for pairwise
adjacency before it leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Mapping

from .core import (
    Multigraph,
    SimpleGraph,
    _bits,
    _check_clique,
    _grow,
    _reach,
)
from .errors import InvalidRepresentation, NotAnAtom, NotCactus
from .representation import (
    HRepresentation,
    intersection_graph,
    verify_representation,
)


@dataclass(frozen=True)
class CliqueEnumeration:
    """Maximal cliques, either all of them or a capped prefix.

    ``masks`` keeps each clique as an int bitset, bit v standing for vertex
    v, in emission order.  When complete it holds every maximal clique;
    otherwise enumeration stopped after emitting cap + 1 cliques.
    ``cliques`` builds the vertex tuples on first read: sorted
    lexicographically when complete, in emission order when capped.
    """

    complete: bool
    masks: tuple[int, ...]
    cap: int

    @cached_property
    def cliques(self) -> tuple[tuple[int, ...], ...]:
        # built from a list: tuple(generator) grows by resizing, and the
        # freed tuples pile up in CPython's tuple free lists
        found = [tuple([*_bits(m)]) for m in self.masks]
        return tuple(sorted(found) if self.complete else found)


@dataclass(frozen=True)
class Atom:
    """An induced subgraph without a clique cutset, as its vertices.

    ``vertices`` keeps the original labels in ascending order;
    ``core.induced_subgraph(g, atom.vertices)`` builds the subgraph.
    """

    vertices: tuple[int, ...]


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
class HellyReport:
    """Outcome of the Helly property check, with the maximal-clique bound
    and the count enumerated (bound + 1 for an overflow)."""

    kind: str  # "helly" | "violation" | "overflow"
    bound: int
    count: int
    witness: tuple[int, ...] = ()


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

    Pivoted Bron-Kerbosch (Tomita, Tanaka & Takahashi 2006) on the int
    bitsets of ``g.masks``.  Each frame holds four bitsets: the clique, the
    candidates, the used vertices and the branch vertices left.  The pivot is
    the vertex of candidates | used with the most neighbours among the
    candidates, the smallest on ties; the branches are the candidates outside
    the pivot's neighbourhood, taken lowest bit first, so the emission order
    is deterministic.  A branch with no candidates left gets no frame: it
    emits its clique unless a used vertex extends it.  Frames live on an
    explicit stack, so a clique of any size cannot exhaust the recursion
    limit.
    """
    if cap < 0:
        raise ValueError("cap must be at least 0")
    if g.n == 0:
        return CliqueEnumeration(True, (), cap)
    masks = g.masks
    found: list[int] = []

    def frame(clique: int, cands: int, used: int) -> list[int]:
        most = -1
        rest = cands | used
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            count = (cands & masks[u]).bit_count()
            if count > most:
                most, pivot = count, u
        return [clique, cands, used, cands & ~masks[pivot]]

    # A branch's own sets are cut out before v moves from the candidates to
    # the used set, so moving it first changes nothing the branch sees.
    stack = [frame(0, (1 << g.n) - 1, 0)]
    while stack:
        top = stack[-1]
        clique, cands, used, branches = top
        if not branches:
            stack.pop()
            continue
        low = branches & -branches
        top[1], top[2], top[3] = cands ^ low, used | low, branches ^ low
        nbr = masks[low.bit_length() - 1]
        if cands & nbr:
            stack.append(frame(clique | low, cands & nbr, used & nbr))
        elif not used & nbr:
            found.append(clique | low)
            if len(found) > cap:
                return CliqueEnumeration(False, tuple(found), cap)
    return CliqueEnumeration(True, tuple(found), cap)


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
        return HellyCliqueResult(None, len(enum.masks), bound)
    # the lex-least of the largest cliques: of two sets of one size, the
    # lesser holds the lowest bit of their XOR
    best = size = 0
    for m in enum.masks:
        k = m.bit_count()
        if k > size or k == size and m & (diff := m ^ best) & -diff:
            best, size = m, k
    clique = tuple([*_bits(best)])
    _check_clique(g, clique)
    return HellyCliqueResult(clique, len(enum.masks), bound)


def helly_check(r: HRepresentation) -> HellyReport:
    """Decide the Helly property of a representation.

    Every pairwise-intersecting subfamily is a clique of the intersection
    graph, hence contained in a maximal clique; if each maximal clique has a
    common node, each of its subfamilies inherits it.  So scanning maximal
    cliques suffices.  In a Helly family two maximal cliques share no common
    node (the vertices holding it would form a larger clique), so there are
    at most as many as pattern nodes; enumeration stops past that bound, and
    the overflow certifies that the family is not Helly.
    """
    bound = r.pattern.node_count
    enum = maximal_cliques_capped(intersection_graph(r), bound)
    count = len(enum.masks)
    if not enum.complete:
        return HellyReport("overflow", bound, count)
    sets = r.sets
    for clique in enum.cliques:
        if not frozenset.intersection(*[sets[v] for v in clique]):
            return HellyReport("violation", bound, count, clique)
    return HellyReport("helly", bound, count)


def _mcs_m(g: SimpleGraph):
    """One MCS-M+ run: a minimal elimination ordering and its generators.

    Vertices are numbered from last to first, each time taking an
    unnumbered vertex of the largest weight, ties toward the smaller index:
    the lowest bit of the highest non-empty level, an int mask of the
    unnumbered vertices of one weight.  Numbering v raises, and joins to v
    by a fill edge, every unnumbered u that v reaches through unnumbered
    vertices all lighter than u; this fill is minimal (Berry, Blair,
    Heggernes & Peyton 2004).

    The search from v runs level by level; at level j only an unseen vertex
    heavier than j can still be raised, so it stops once the count of such
    vertices, kept per weight, drops to zero.

    Returns (generators, later): the vertices whose weight when numbered is
    no larger than that of the vertex numbered just before, in numbering
    order, and for each vertex the set of its fill neighbours numbered
    before it, i.e. eliminated after it (Berry, Pogorelcnik & Simonet 2010).
    """
    # Sparse graphs keep this search on adjacency sets: the mask search
    # pays one n-bit OR per round, and from each vertex of a cycle it walks
    # the whole remaining cycle, one round per vertex (cycle_graph(3000)'s
    # atoms took 7.4 s on masks against 1.0 s here, on one host).
    adj = g.adjacency
    weight = [0] * g.n
    later: list[set[int]] = [set() for _ in range(g.n)]
    # mark[u] is past every step once u is numbered, else the last step
    # whose search saw u: one list lookup tests "unnumbered and unseen"
    numbered = g.n + 1
    mark = [0] * g.n
    count = [g.n] + [0] * g.n  # count[w]: unnumbered vertices of weight w
    level = [(1 << g.n) - 1] + [0] * g.n  # level[w]: those vertices as a mask
    generators: list[int] = []
    prev = -1
    top = 0
    for step in range(1, g.n + 1):
        while not level[top]:
            top -= 1
        low = level[top] & -level[top]
        level[top] ^= low
        v = low.bit_length() - 1
        mark[v] = numbered
        count[top] -= 1
        if top <= prev:
            generators.append(v)
        prev = top
        # buckets[j] holds vertices whose path from v is no heavier than j;
        # no unnumbered vertex outweighs v, so buckets past top stay empty
        # and bucket top itself can raise nothing.
        buckets: list[list[int]] = [[] for _ in range(top + 1)]
        raised = [u for u in adj[v] if mark[u] < step]
        unseen = count[: top + 1]
        for u in raised:
            mark[u] = step
            buckets[weight[u]].append(u)
            unseen[weight[u]] -= 1
        heavy = sum(unseen[1:])  # unseen and heavier than level 0
        for j in range(top):
            bucket = buckets[j]
            for x in bucket:  # a list walked while it grows: a queue
                if not heavy:
                    break
                for z in adj[x]:
                    if mark[z] < step:
                        mark[z] = step
                        if weight[z] > j:
                            heavy -= 1
                            unseen[weight[z]] -= 1
                            raised.append(z)
                            buckets[weight[z]].append(z)
                        else:
                            bucket.append(z)
            heavy -= unseen[j + 1]
            if not heavy:
                break
        up = 0
        for u in raised:
            weight[u] += 1
            later[u].add(v)
            up |= 1 << u
        # from the top, so that no vertex moves up twice
        for w in range(top, -1, -1):
            if not up:
                break
            moved = level[w] & up
            if moved:
                up ^= moved
                level[w] ^= moved
                level[w + 1] |= moved
                k = moved.bit_count()
                count[w] -= k
                count[w + 1] += k
        top += 1  # a raised vertex may now weigh one more than v did
    return generators, later


def _dense(g: SimpleGraph) -> bool:
    """Mean degree >= n/64: an n-bit mask OR costs no more than a neighbour walk."""
    return 128 * g.m >= g.n * g.n


def _mcs_m_masks(g: SimpleGraph):
    """``_mcs_m``'s numbering on the int bitsets of ``g.masks``.

    At level j the search ORs the neighbour masks of the reached vertices of
    weight at most j, raises each heavier vertex it reaches, and stops once
    no unreached vertex heavier than j is left.

    Returns (generators, order, raised): ``_mcs_m``'s generators, the
    vertices in numbering order, and for each step the mask of the vertices
    it raised.  u's later set in ``_mcs_m`` holds order[i] for each step i
    whose raised mask has bit u; only ``_split_masks`` reads it, and only
    at generators.
    """
    masks = g.masks
    order: list[int] = []
    raised_at: list[int] = []
    unnumbered = (1 << g.n) - 1
    level = [unnumbered] + [0] * g.n  # level[w]: the unnumbered of weight w
    generators: list[int] = []
    prev = -1
    top = 0
    for _ in range(g.n):
        while not level[top]:
            top -= 1
        low = level[top] & -level[top]
        level[top] ^= low
        unnumbered ^= low
        v = low.bit_length() - 1
        if top <= prev:
            generators.append(v)
        prev = top
        raised = reached = masks[v] & unnumbered
        heavy = unnumbered ^ reached  # unreached and heavier than the level
        for j in range(top):
            heavy &= ~level[j]
            frontier = reached & level[j]
            while frontier and heavy:
                grow = 0
                while frontier:
                    bit = frontier & -frontier
                    grow |= masks[bit.bit_length() - 1]
                    frontier ^= bit
                new = grow & unnumbered & ~reached
                reached |= new
                frontier = new & ~heavy
                raised |= new & heavy
                heavy &= ~new
            if not heavy:
                break
        order.append(v)
        raised_at.append(raised)
        for w in range(top, -1, -1):  # from the top, so no vertex moves twice
            moved = level[w] & raised
            level[w] ^= moved
            level[w + 1] |= moved
            raised ^= moved
            if not raised:
                break
        top += 1  # a raised vertex may now weigh one more than v did
    return generators, order, raised_at


def _is_clique(masks, whole: int) -> bool:
    """Whether the vertices of mask whole are pairwise adjacent."""
    for v in _bits(whole):
        if whole & ~masks[v] != 1 << v:
            return False
    return True


def clique_cutset_decomposition(g: SimpleGraph) -> AtomDecomposition:
    """Decompose into atoms along clique minimal separators.

    One MCS-M+ run gives a minimal triangulation and its generators.  Taken
    in elimination order, a generator x whose later fill neighbours form a
    clique of g has them as a clique minimal separator: x's component of
    what remains without the separator, plus the separator, is an atom, and
    that component is removed.  What remains at the end is the last atom
    (Berry, Pogorelcnik & Simonet 2010).  A later component of a
    disconnected graph starts at a generator with an empty separator.
    """
    if _dense(g):
        atoms = _split_masks(g, *_mcs_m_masks(g))
    else:
        atoms = _split_sets(g, *_mcs_m(g))
    return AtomDecomposition(tuple(Atom(vs) for vs in sorted(atoms)))


def _split_sets(g: SimpleGraph, generators, later) -> list[tuple[int, ...]]:
    """The atoms, unsorted, each side searched over adjacency sets."""
    adj = g.adjacency
    remaining = set(range(g.n))
    atoms: list[tuple[int, ...]] = []
    for x in reversed(generators):
        sep = later[x]
        if any(len(adj[u] & sep) < len(sep) - 1 for u in sep):  # not a clique
            continue
        # take the separator out of remaining for the search and put it
        # back: building remaining - sep costs a pass over remaining
        cut = sep & remaining
        remaining -= cut
        side = _reach(adj, x, remaining)
        remaining |= cut
        atoms.append(tuple(sorted(side | sep)))
        remaining -= side
    if remaining:
        atoms.append(tuple(sorted(remaining)))
    return atoms


def _split_masks(g: SimpleGraph, generators, order, raised) -> list[tuple[int, ...]]:
    """The atoms, unsorted, each side grown on masks.

    A generator's separator, its later set in ``_mcs_m``, is read off the
    raised masks of ``_mcs_m_masks`` at the generator bits alone.
    """
    masks = g.masks
    gens = 0
    for x in generators:
        gens |= 1 << x
    seps = dict.fromkeys(generators, 0)
    for v, up in zip(order, raised):
        hit = up & gens
        if hit:
            bit = 1 << v
            for x in _bits(hit):
                seps[x] |= bit
    remaining = (1 << g.n) - 1
    atoms: list[tuple[int, ...]] = []
    for x in reversed(generators):
        cut = seps[x]
        if not _is_clique(masks, cut):
            continue
        side = _grow(masks, 1 << x, remaining & ~cut)
        atoms.append(tuple(_bits(side | cut)))
        remaining &= ~side
    if remaining:
        atoms.append(tuple(_bits(remaining)))
    return atoms


def _classify_shape(union: int, masks) -> tuple[str, list[int]] | None:
    """Recognize the subgraph induced on union as a path or cycle, masks[x]
    being node x's neighbours: ("path", order) or ("cycle", order), order a
    list of node numbers, or None for anything else.  A path is walked from
    its smaller end, a cycle from its smallest node toward the smaller
    neighbour, so orders are deterministic.
    """
    nodes = list(_bits(union))
    if len(nodes) == 1:
        return "path", nodes
    degrees = [(masks[x] & union).bit_count() for x in nodes]
    ends = [x for x, d in zip(nodes, degrees) if d == 1]
    if len(ends) not in (0, 2) or not set(degrees) <= {1, 2}:
        return None
    order = [ends[0] if ends else nodes[0]]
    left = union ^ 1 << order[0]  # with degrees at most 2, the walk's next
    while left:  # node is its one unvisited neighbour
        nxt = masks[order[-1]] & left
        if not nxt:
            return None  # disconnected: the walk closed or stopped early
        nxt &= -nxt
        left ^= nxt
        order.append(nxt.bit_length() - 1)
    return ("path" if ends else "cycle"), order


def cactus_atom_arc_model(atom: Atom, r: HRepresentation) -> ArcModel:
    """Arc model of an atom represented on a cactus pattern.

    Peeling loop: while the union of the node sets is neither a path nor a
    cycle, it has a cut node x; all sets avoiding x must live in a single
    component of the union minus x (otherwise the holders of x form a clique
    cutset of the atom), and truncating every set to that component plus x
    preserves the intersection graph.  Nodes are the pattern's numbers
    (``r.sets``), and the union's parts are found by ``_grow`` on masks of
    the atom's nodes alone, read off ``pattern.graph``.  The union is a mask
    of node bits and, from the first peel step on, so is each set: a
    truncation is an AND with the kept part, which is the new union, and a
    set's lowest bit tells which part it lies in.  The final path or cycle
    numbers the positions in node order, and each vertex's arc is read off
    one mask, the OR of its nodes' position bits (a node peeled off has
    none): its lowest and highest bit, or those of the gap it leaves when
    the arc wraps.
    """
    numbers, adjacency = r.sets, r.pattern.graph.adjacency
    bit = {x: 1 << x for x in set().union(*map(numbers.__getitem__, atom.vertices))}
    union = sum(bit.values())
    masks = {x: sum(1 << y for y in adjacency[x]) for x in bit}
    held: dict[int, int] = {}  # each set as a node mask, from the first peel on
    while (shape := _classify_shape(union, masks)) is None:
        if not held:
            held = {v: sum(map(bit.__getitem__, numbers[v])) for v in atom.vertices}
        for x in _bits(union):  # the smallest cut node
            rest = union ^ 1 << x
            if _grow(masks, rest & -rest, rest) != rest:
                break
        else:
            raise NotAnAtom("union of node sets is neither path, cycle, nor cut")
        # a connected set avoiding x lies in one part of rest: one node tells which
        starts = [mask & -mask for mask in held.values() if not mask >> x & 1]
        part = _grow(masks, starts[0] if starts else rest & -rest, rest)
        if any(not start & part for start in starts):
            raise NotAnAtom("holders of the cut node form a clique cutset")
        # each kept node stays in a set that held it, so the kept part is the union
        union = part | 1 << x
        held = {v: mask & union for v, mask in held.items()}
    kind, order = shape
    length = len(order)
    at = dict.fromkeys(bit, 0)  # a node's position bit: none once peeled off
    for i, x in enumerate(order):
        at[x] = 1 << i
    arcs: dict[int, tuple[int, int] | None] = {}
    for v in atom.vertices:
        run = sum(map(at.__getitem__, numbers[v]))  # v's positions
        count = run.bit_count()
        lo, hi = (run & -run).bit_length() - 1, run.bit_length() - 1
        if hi - lo + 1 == count:
            arcs[v] = None if kind == "cycle" and count == length else (lo, hi)
            continue
        if kind == "path":
            raise NotAnAtom("node set is not contiguous on the path")
        # a wrapping arc misses one run of positions strictly inside the cycle
        gap = run ^ (1 << length) - 1
        lo, hi = (gap & -gap).bit_length() - 1, gap.bit_length() - 1
        if hi - lo + 1 != gap.bit_count():
            raise NotAnAtom("node set is not a contiguous arc of the cycle")
        arcs[v] = hi + 1, lo - 1
    return ArcModel(kind, length, arcs)


def model_intersection_graph(model: ArcModel) -> SimpleGraph:
    """The graph an arc model encodes; vertex labels must be dense 0-based."""
    verts = sorted(model.arcs.keys())
    if verts != list(range(len(verts))):
        raise ValueError("arc model vertices must be dense 0-based")
    pos = [model.positions(v) for v in verts]
    pairs = ((u, v) for u in verts for v in verts[u + 1 :])
    edges = [(u, v) for u, v in pairs if not pos[u].isdisjoint(pos[v])]
    return SimpleGraph(len(verts), frozenset(edges))


def _bipartite_max_independent(
    left: int, right: int, rows: Mapping[int, int] | list[int]
) -> int:
    """Maximum independent set of a bipartite conflict graph via matching.

    left and right are disjoint bitmasks; the bits of rows[u] inside right
    are the right vertices in conflict with left vertex u.  Kuhn augmenting
    paths, left ascending and each row ascending, give a maximum matching;
    the standard alternating reachability argument turns it into a minimum
    vertex cover, whose complement is returned as a mask.  That complement
    is A | (right - N(A)), A the left vertices u with nu(G - u) = nu(G) for
    the matching number nu, whatever the matching: so carc's tuples do not
    depend on the order of the augmenting paths.  The augmenting path search
    runs on an explicit stack, so a path of any length fits.
    """
    match_right: dict[int, int] = {}
    taken = 0
    # right vertices seen by failed searches: all matched, and their owners'
    # rows lie inside the set, so no augmenting path ever leaves it (an
    # augmentation avoids it and keeps its owners).  Searches skip it, as
    # they would only fail through it, and so find the same paths.
    dead = 0
    for root in _bits(left):
        row = rows[root] & right
        low = row & -row
        if not low & taken:
            # the search's first try is a free vertex, or there is none
            if low:
                match_right[low.bit_length() - 1] = root
                taken |= low
            continue
        # us[i] is a left vertex on the search path, todo[i] its untried
        # row, and ws[i] the right vertex leading from us[i] to us[i + 1]
        us, todo, ws = [root], [row], []
        visited = dead
        while us:
            untried = todo[-1] & ~visited
            if not untried:
                us.pop()
                todo.pop()
                if ws:
                    ws.pop()
                continue
            low = untried & -untried
            todo[-1] = untried ^ low
            visited |= low
            ws.append(low.bit_length() - 1)
            owner = match_right.get(ws[-1])
            if owner is None:
                match_right.update(zip(ws, us))
                taken |= low
                break
            us.append(owner)
            todo.append(rows[owner] & right)
        else:
            dead = visited
    # alternating reachability from unmatched left vertices
    reach_left = left & ~sum(1 << u for u in match_right.values())
    reach_right = 0
    frontier = list(_bits(reach_left))
    while frontier:
        new = rows[frontier.pop()] & right & ~reach_right
        reach_right |= new
        for w in _bits(new):
            owner = match_right.get(w)
            if owner is not None and not reach_left >> owner & 1:
                reach_left |= 1 << owner
                frontier.append(owner)
    return reach_left | (right & ~reach_right)


def _arc_tables(model: ArcModel):
    """Bitset tables over the non-full arcs of a model, bit i for others[i].

    Returns others, ends, through and disjoint: ends[i] holds the indices in
    the sorted endpoint positions of arc i's start and end, through[k] the
    arcs covering the k-th endpoint, and disjoint[i] the arcs missing arc i.
    Each arc covers a run of endpoints (two runs when it wraps), so one sweep
    builds through, and prefix masks of the starts give the arcs starting
    inside an arc: two arcs meet iff one holds the other's start.
    """
    others = [v for v in sorted(model.arcs) if model.arcs[v] is not None]
    endpoints = sorted({p for v in others for p in model.arcs[v]})
    index = {p: k for k, p in enumerate(endpoints)}
    starts, stops = [0] * len(endpoints), [0] * len(endpoints)
    ends, running = [], 0
    for i, v in enumerate(others):
        s, t = model.arcs[v]
        ends.append((index[s], index[t]))
        starts[index[s]] |= 1 << i
        stops[index[t]] |= 1 << i
        if s > t:
            if model.kind == "path":
                raise ValueError("path arcs cannot wrap")
            # a wrapping arc covers the first endpoint through its end
            running |= 1 << i
    through, started = [], [0]
    for k in range(len(endpoints)):
        running |= starts[k]
        through.append(running)
        running &= ~stops[k]
        started.append(started[-1] | starts[k])
    everything = started[-1]
    disjoint = []
    for ks, kt in ends:
        # the arcs starting inside the arc; a wrapping arc holds all but
        # those starting after its end and before its start
        inside = started[kt + 1] ^ started[ks]
        if ks > kt:
            inside ^= everything
        disjoint.append(everything & ~(through[ks] | inside))
    return others, ends, through, disjoint


def _may_exceed(left: int, right: int, disjoint: list[int], floor: int) -> bool:
    """Whether the largest clique of left | right may hold more than floor arcs.

    left and right are each a clique.  By Konig that clique has |left| +
    |right| minus a maximum matching of the disjointness graph between them,
    so a greedy matching from the right side answers False once it has
    matched enough to prove that the clique cannot exceed floor.
    """
    unmatched, need = left, left.bit_count() + right.bit_count() - floor
    while right and need > 0:
        low = right & -right
        right ^= low
        free = disjoint[low.bit_length() - 1] & unmatched
        if free:
            unmatched ^= free & -free
            need -= 1
    return need > 0


def _carc_omega(
    ends: list[tuple[int, int]], through: list[int], disjoint: list[int]
) -> int:
    """The clique number of the non-full arcs, peeling the shortest arc.

    An arc meeting an arc v but covering neither end of v lies strictly
    inside v and so covers fewer endpoints.  Taking the arcs by the number of
    endpoints they cover, every clique through v among the arcs still alive
    lies in those through v's two ends: two cliques, whose union's largest
    clique is found by matching.  v is then dropped.  Each endpoint's arcs
    are a clique, so the largest point load starts the search.
    """
    omega = max(map(int.bit_count, through))
    alive = (1 << len(ends)) - 1
    count = len(through)
    for i in sorted(range(len(ends)), key=lambda i: (ends[i][1] - ends[i][0]) % count):
        ks, kt = ends[i]
        left = through[ks] & alive
        right = through[kt] & alive & ~left
        if _may_exceed(left, right, disjoint, omega):
            clique = _bipartite_max_independent(left, right, disjoint)
            omega = max(omega, clique.bit_count())
        alive ^= 1 << i
    return omega


def _first_candidate_above(through: list[int], disjoint: list[int], floor: int) -> int:
    """The first endpoint pair's candidate with more than floor arcs."""
    matched: list[int] = []
    for pi, left in enumerate(through):
        for right in through[pi:]:
            right &= ~left
            if not _may_exceed(left, right, disjoint, floor):
                continue
            span = left | right
            if any(not span & ~seen for seen in reversed(matched)):
                continue
            # matched keeps only the inclusion-maximal sets
            matched = [seen for seen in matched if seen & ~span]
            matched.append(span)
            candidate = _bipartite_max_independent(left, right, disjoint)
            if candidate.bit_count() > floor:
                return candidate
    raise AssertionError("no endpoint pair reaches the clique number")


def carc_max_clique(model: ArcModel) -> tuple[int, ...]:
    """Maximum clique of a circular-arc (or interval) model.

    Full-circle arcs join every clique.  Any other clique either has a common
    position, or the arcs missing a position p become pairwise-intersecting
    intervals once the circle is cut at p, and intervals with pairwise
    intersections share a point q.  So the clique splits as (arcs through p)
    union (arcs through q) for some pair of positions, each side a clique:
    a co-bipartite candidate whose maximum clique is found as a maximum
    independent set of the bipartite disjointness graph between the sides
    (Hsu, "Maximum weight clique algorithms for circular-arc graphs and
    circle graphs", SIAM J. Comput. 1985).  Endpoint position pairs,
    including p = q, are tried in order, and the first candidate of the
    clique number ω wins.

    ω comes first, by peeling the shortest arc (`_carc_omega`), so the scan
    starts with ω - 1 as the best so far and stops at the first pair that
    reaches ω.  Arcs are bits of Python ints.  The arc set S of a pair holds
    the arcs through p or q, and its candidate is a maximum clique of S.  A
    pair's matching is skipped when that candidate cannot reach ω: when |S|
    minus a greedy matching of the disjointness graph is below ω, or when S
    lies inside the S of a pair matched before (an induced subgraph has no
    larger clique).  Neither rule skips a pair whose candidate reaches ω, so
    the answer is the first such pair's, as a scan from nothing would find.
    The answer is checked pairwise on masks of positions read off the model.
    """
    full = [v for v in sorted(model.arcs) if model.arcs[v] is None]
    others, ends, through, disjoint = _arc_tables(model)
    best = 0
    if others:
        floor = _carc_omega(ends, through, disjoint) - 1
        best = _first_candidate_above(through, disjoint, floor)
    result = tuple(sorted([others[i] for i in _bits(best)] + full))
    # each answer arc as a mask of its positions: a full arc holds them all,
    # a wrapping arc all but the gap from t + 1 to s - 1
    every = (1 << model.length) - 1
    spans = []
    for v in result:
        s, t = model.arcs[v] or (0, model.length - 1)
        spans.append((2 << t) - (1 << s) if s <= t else every ^ ((1 << s) - (2 << t)))
    for a, b in combinations(spans, 2):
        if not a & b:
            raise AssertionError("candidate is not a clique")
    return result


def clique_cactus(g: SimpleGraph, r: HRepresentation) -> tuple[int, ...]:
    """Maximum clique of a graph represented on a cactus pattern.

    The clique-cutset decomposition reduces the problem to atoms, each atom
    is peeled to an arc model, and the best arc-model clique wins: the
    largest, ties to the lexicographically least, so the order the atoms
    are read in does not matter.  An atom whose vertices are pairwise
    adjacent is its own maximum clique, the one the arc model would give, so
    it skips the model; these atoms come first.  Any other atom is connected
    and not complete, so its cliques have at most its largest inner degree
    vertices (a clique one larger would hold every neighbour of each of its
    vertices, and so be the whole atom).  A sorted k-subset of an atom is
    never below its first k vertices, so an atom whose bound is below the
    best size k, or equal to k with its first k vertices above the best
    clique, cannot win and skips the model too.
    """
    if not r.pattern.cactus:
        raise NotCactus("pattern base is not a cactus")
    verdict = verify_representation(g, r)
    if not verdict.is_ok:
        raise InvalidRepresentation(verdict)
    if g.n == 0:
        return ()
    masks = g.masks
    best: tuple[int, ...] = ()
    others: list[tuple[int, Atom]] = []  # (clique size bound, atom)
    for atom in clique_cutset_decomposition(g).atoms:
        vs = atom.vertices
        whole = 0
        for v in vs:
            whole |= 1 << v
        degrees = [(masks[v] & whole).bit_count() for v in vs]
        if min(degrees) < len(vs) - 1:
            others.append((max(degrees), atom))
        elif len(vs) > len(best) or (len(vs) == len(best) and vs < best):
            best = vs
    for bound, atom in others:
        k = len(best)
        if bound < k or (bound == k and atom.vertices[:k] > best):
            continue
        c = carc_max_clique(cactus_atom_arc_model(atom, r))
        if len(c) > k or (len(c) == k and c < best):
            best = c
    _check_clique(g, best)
    return best
