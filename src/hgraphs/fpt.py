"""Tree decompositions and decomposition-based solvers.

The validator here is the single source of truth for decomposition validity;
every other module that produces a decomposition is tested against it.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import NamedTuple

from .core import ColorLists, SimpleGraph, _bits, _check_clique, _grow, _reach
from .errors import InvalidDecomposition, ListColorOutOfRange, SearchLimitExceeded

# list_k_coloring raises SearchLimitExceeded once its introduce steps have
# built more states than this.  The forget tables keep their full states
# for the witness: at the budget, 3-coloring a 12x12 grid holds about 60 MiB
STATE_BUDGET = 1_000_000

# k_clique raises SearchLimitExceeded once its bag searches, over all bags of
# one call, have added more vertices to a clique than this.  G(150, 0.7) needs
# about 630 000 and still answers; G(200, 0.9) reaches the budget
BRANCH_BUDGET = 1_000_000

# The exact subset DP runs on graphs of at most this many vertices: its
# tables hold 2**n entries
EXACT_LIMIT = 12


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..b-1 plus tree edges over bag indices."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


class NiceNode(NamedTuple):
    kind: str  # "leaf" | "introduce" | "forget" | "join"
    bag: tuple[int, ...]  # sorted
    children: tuple[int, ...]
    vertex: int | None = None


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """Rooted binary decomposition with empty leaf and root bags."""

    nodes: tuple[NiceNode, ...]
    root: int

    @property
    def width(self) -> int:
        return max((len(nd.bag) for nd in self.nodes), default=0) - 1


@dataclass(frozen=True)
class DecompositionAttempt:
    """Outcome of a width-targeted decomposition attempt.

    Either a decomposition was found (possibly flagged as wider than the
    accepted factor times the target), or a certified lower bound on the
    treewidth, the degeneracy, exceeds the target.
    """

    decomposition: TreeDecomposition | None
    lower_bound: int | None = None
    over_target: bool = False

    @property
    def found(self) -> bool:
        return self.decomposition is not None


def check_decomposition(g: SimpleGraph, d: TreeDecomposition) -> list[str]:
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
    tree = len(d.tree_edges) == b - 1
    if not tree:
        problems.append(f"{len(d.tree_edges)} tree edges for {b} bags")
    nbrs: list[list[int]] = [[] for _ in range(b)]
    for i, j in d.tree_edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    if len(_reach(nbrs, 0, range(b))) != b:
        problems.append("bag tree is disconnected")
        return problems
    if not tree:  # a cycle: the count below needs a tree
        return problems
    # every vertex induces a non-empty connected subtree: on a tree, iff its
    # bags are one more than the tree edges holding it at both ends
    shared = [0] * g.n
    for i, j in d.tree_edges:
        for v in d.bags[i] & d.bags[j]:
            if 0 <= v < g.n:
                shared[v] += 1
    for v, hold in enumerate(holders):
        if not hold:
            problems.append(f"vertex {v} in no bag")
        elif len(hold) - shared[v] != 1:
            problems.append(f"bags of vertex {v} are not connected in the tree")
    # every edge is inside some bag
    for u, v in g.edges:
        if holders[u].isdisjoint(holders[v]):
            problems.append(f"edge ({u},{v}) not covered by any bag")
    return problems


def validate_decomposition(g: SimpleGraph, d: TreeDecomposition) -> None:
    problems = check_decomposition(g, d)
    if problems:
        raise InvalidDecomposition("; ".join(problems))


def decomposition_from_order(
    g: SimpleGraph, order: list[int] | tuple[int, ...]
) -> TreeDecomposition:
    """Tree decomposition induced by an elimination order (`_from_elimination`)."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    nbr = list(g.masks)
    return _from_elimination(order, [_eliminate(nbr, v) for v in order])


def _from_elimination(order, eliminated: list[int]) -> TreeDecomposition:
    """The decomposition of an elimination game: eliminated[i] is the mask of
    order[i]'s neighbours in the partially filled graph when it goes.

    Bag i is the i-th eliminated vertex together with those neighbours; bag i
    hangs off the bag of its earliest-eliminated neighbour, else the next bag.
    """
    if not order:
        return TreeDecomposition((frozenset(),), ())
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    bags = []
    edges = []
    for i, (v, nv) in enumerate(zip(order, eliminated)):
        nb = list(_bits(nv))
        bags.append(frozenset([v] + nb))
        if nb:
            edges.append((i, min(map(pos.__getitem__, nb))))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
    return TreeDecomposition(tuple(bags), tuple(edges))


def _eliminate(nbr: list[int], v: int) -> int:
    """Make N(v) a clique in the bitset graph nbr, drop v, and return N(v)."""
    nv = nbr[v]
    for u in _bits(nv):
        nbr[u] = (nbr[u] | nv) ^ (1 << u | 1 << v)
    nbr[v] = 0
    return nv


def minfill_order(g: SimpleGraph, rng: random.Random | None = None) -> list[int]:
    """Elimination order picking a minimum-fill vertex at each step (`_minfill`)."""
    return _minfill(g, rng)[0]


def minfill_decomposition(
    g: SimpleGraph, rng: random.Random | None = None
) -> TreeDecomposition:
    """The decomposition of the min-fill order, read off min-fill's own
    elimination: equal to ``decomposition_from_order(g, minfill_order(g, rng))``."""
    return _from_elimination(*_minfill(g, rng))


def _minfill(
    g: SimpleGraph, rng: random.Random | None
) -> tuple[list[int], list[int]]:
    """Elimination order picking a minimum-fill vertex at each step, and the
    mask of each eliminated vertex's neighbours when it goes.

    Ties go to the smallest vertex index unless an rng is supplied, in which
    case a uniformly random tied vertex is taken (still deterministic per seed).

    Adjacency is held as int bitsets.  Fills are computed once and then kept
    by deltas (Bodlaender & Koster 2010, "Treewidth computations I. Upper
    bounds").  Eliminating v first adds its fill edges one at a time
    (`_link`): a new edge ab lowers the fill of each common neighbour of a
    and b by one and raises a's by |N(a) \\ N(b)| and b's by |N(b) \\ N(a)|,
    read before linking.  Then N(v) is a clique, and dropping v lowers the
    fill of each w in N(v) by |N(w) \\ N(v)|, with v already gone from N(w).
    A dense graph (`_dense_fill`) keeps every fill in bit planes
    (`_minfill_planes`), a sparse one in a heap (`_minfill_heap`).
    """
    return (_minfill_planes if _dense_fill(g) else _minfill_heap)(g, rng)


def _dense_fill(g: SimpleGraph) -> bool:
    """Mean degree >= n/2: on G(n, p) with n from 25 to 300, min-fill on bit
    planes takes 0.98-1.01 of the heap's time at p = 0.5, 0.38-0.47 at 0.9
    and 1.1-1.9 at 0.15."""
    return 4 * g.m >= g.n * g.n


def _minfill_heap(
    g: SimpleGraph, rng: random.Random | None
) -> tuple[list[int], list[int]]:
    """``_minfill`` on a sparse graph, with the fills in a list.

    Vertices wait in one heap of int keys fill·n + v.  A fill change pushes
    a new key, and a popped key that no longer names v's fill is skipped (an
    eliminated vertex's fill is -1), so the first live key is the least
    fill's smallest vertex.  With an rng, the live keys at that fill pop in
    ascending order as the tie list, and go back on the heap.  A step's
    common-neighbour drops come from `_link` as bit planes, applied once
    after linking; a step at fill 0 is simplicial, links nothing, and lowers
    each neighbour's fill at once.
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
        touched = nv
        drops = _link(nbr, nv, least, -1, delta)[0]  # -1: nbr holds no dead vertex
        for i, plane in enumerate(drops):
            touched |= plane
            for w in _bits(plane):
                delta[w] -= 1 << i
        for w in _bits(nv):
            nbr[w] ^= 1 << v
            delta[w] -= (nbr[w] & ~nv).bit_count()
        for w in _bits(touched & ~(1 << v)):
            if delta[w]:
                fill[w] += delta[w]
                heappush(heap, fill[w] * n + w)
                delta[w] = 0
    return order, eliminated


def _minfill_planes(
    g: SimpleGraph, rng: random.Random | None
) -> tuple[list[int], list[int]]:
    """``_minfill`` on a dense graph, with every fill a vertical counter:
    plane i holds bit i of every vertex's fill (bit-sliced counting; Knuth,
    TAOCP 4A §7.1.3), so one int operation moves a whole vertex mask.

    The initial fills count the non-edges: each raises the fill of its ends'
    common neighbours by one.  The least fill's vertices are the alive ones
    left by an argmin from the top plane down, which keeps those with bit i
    clear whenever some have it, and v's fill is the bits it could not clear;
    the tied bits, ascending, are the draw list.  A step first adds the
    fill edges' gains at their ends, then subtracts the common-neighbour
    drops of ``_link`` and the drops of v's neighbours, counted over v's
    alive non-neighbours (each lowers its neighbours in N(v) by one), so no
    counter goes below zero.  Neighbour masks keep eliminated vertices, and
    so do the planes: every read masks them off with ``alive``.
    """
    n = g.n
    nbr = list(g.masks)
    planes: list[int] = []
    alive = (1 << n) - 1
    for a in range(n):
        na = nbr[a]
        for b in _bits(alive & ~na & ~((2 << a) - 1)):  # b > a, no edge ab
            _count(planes, na & nbr[b])
    gain = [0] * n
    order = []
    eliminated = []
    for _ in range(n):
        tied = alive
        least = 0
        for i in range(len(planes) - 1, -1, -1):
            if tied & ~planes[i]:
                tied &= ~planes[i]
            else:
                least |= 1 << i
        if rng is None:
            v = (tied & -tied).bit_length() - 1
        else:
            v = rng.choice(list(_bits(tied)))
        order.append(v)
        alive ^= 1 << v
        nv = nbr[v] & alive
        eliminated.append(nv)
        drops = []
        if least:
            drops, ends = _link(nbr, nv, least, alive, gain)
            for w in _bits(ends):
                for i in _bits(gain[w]):
                    _count(planes, 1 << w, i)
                gain[w] = 0
        for u in _bits(alive & ~nv):
            _count(drops, nbr[u] & nv)
        for i, plane in enumerate(drops):
            _uncount(planes, plane & alive, i)
    return order, eliminated


def _link(
    nbr: list[int], nv: int, fill: int, alive: int, gain: list[int]
) -> tuple[list[int], int]:
    """Make N(v) = nv, with ``fill`` non-edges, a clique in nbr one fill edge
    ab at a time, raising gain[a] by |N(a) \\ N(b)| and gain[b] by
    |N(b) \\ N(a)|, read before linking; nbr may hold vertices outside
    ``alive``.  Returns the common-neighbour drops as bit planes (plane i
    holds bit i of the number of fill edges whose ends each vertex is next
    to) and the mask of the fill edges' ends.
    """
    drops: list[int] = []
    ends = 0
    later = nv
    while fill:
        low = later & -later
        later ^= low
        a = low.bit_length() - 1
        na = nbr[a]
        unlinked = later & ~na  # b > a
        if unlinked:
            fill -= unlinked.bit_count()
            ends |= low | unlinked
            for b in _bits(unlinked):
                nb = nbr[b]
                _count(drops, na & nb)
                gain[a] += (na & ~nb & alive).bit_count()
                gain[b] += (nb & ~na & alive).bit_count()
                na |= 1 << b
                nbr[b] = nb | low
            nbr[a] = na
    return drops, ends


def _count(planes: list[int], m: int, i: int = 0) -> None:
    """Add 2**i to the bit-sliced counters of planes at each vertex of m,
    rippling the carry up the planes."""
    while m:
        if i == len(planes):
            planes.append(0)
        plane = planes[i]
        planes[i] = plane ^ m
        m &= plane
        i += 1


def _uncount(planes: list[int], m: int, i: int) -> None:
    """Subtract 2**i from the counters of planes at each vertex of m, none of
    which may go below zero, rippling the borrow up the planes."""
    while m:
        plane = planes[i]
        planes[i] = plane ^ m
        m &= ~plane
        i += 1


def degeneracy(g: SimpleGraph) -> int:
    """Max over the min-degree peeling; a certified treewidth lower bound.

    Vertices wait in buckets by remaining degree (Matula & Beck 1983).  One
    removal lowers the least degree by at most one, so the search for the
    next non-empty bucket restarts one below the last.
    """
    deg = [len(a) for a in g.adjacency]
    buckets: list[set[int]] = [set() for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        buckets[d].add(v)
    worst = d = 0
    for _ in range(g.n):
        d = max(d - 1, 0)
        while not buckets[d]:
            d += 1
        v = buckets[d].pop()
        worst = max(worst, d)
        for u in g.adjacency[v]:
            if u in buckets[deg[u]]:  # not removed yet
                buckets[deg[u]].remove(u)
                deg[u] -= 1
                buckets[deg[u]].add(u)
    return worst


def exact_decomposition(g: SimpleGraph) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with the decomposition of a witnessing order."""
    width, order = _exact_order(g)
    return width, decomposition_from_order(g, order)


def _exact_order(g: SimpleGraph) -> tuple[int, list[int]]:
    """Exact treewidth and an elimination order of that width.

    Dynamic programming over vertex subsets: state tw[S] is the best possible
    maximum elimination degree over orders that eliminate exactly the set S
    first; the witnessing order is unwound from the stored choices.
    Exponential in n, intended for small graphs.
    """
    n = g.n
    adj_mask = g.masks
    full = (1 << n) - 1

    def elim_degree(prefix: int, v: int) -> int:
        # vertices outside prefix+v next to v's component within prefix+v
        reach = 0
        comp = _grow(adj_mask, 1 << v, prefix)
        while comp:
            low = comp & -comp
            reach |= adj_mask[low.bit_length() - 1]
            comp ^= low
        return (reach & ~prefix & ~(1 << v)).bit_count()

    tw = [0] * (full + 1)
    tw[0] = -1
    choice = [0] * (full + 1)
    for s in range(1, full + 1):
        best = n
        best_v = -1
        for v in _bits(s):
            prev = s ^ 1 << v
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
    return tw[full], order_rev[::-1]


def tree_decomposition(
    g: SimpleGraph,
    target: int,
    approx_factor: int = 5,
    rng: random.Random | None = None,
) -> DecompositionAttempt:
    """Try for a decomposition of width at most approx_factor * target.

    A certified lower bound above the target wins first and yields a
    width-exceeded answer; the degeneracy is at most the largest degree, at
    most n - 1, so it is computed only for a target below that.  Otherwise
    the exact subset DP (at most EXACT_LIMIT vertices) or the min-fill
    heuristic produces a decomposition, flagged when its width misses the
    accepted factor.

    The paper's decisions rest on tw <= (tw(H)+1)·ω - 1 = bound(ω) for a graph
    with a representation on H (`PatternProfile.bound`): a certified lower
    bound above bound(k - 1) means a k-clique exists, and one above bound(k)
    means there is no k-coloring.
    """
    if target < 0:
        raise ValueError("target width must be non-negative")
    if target < g.n - 1 and (lb := degeneracy(g)) > target:
        return DecompositionAttempt(None, lower_bound=lb)
    if g.n <= EXACT_LIMIT:
        width, d = exact_decomposition(g)
    else:
        d = minfill_decomposition(g, rng)
        width = d.width
    return DecompositionAttempt(d, over_target=width > approx_factor * target)


def make_nice(d: TreeDecomposition) -> NiceTreeDecomposition:
    """Binary nice form: empty leaf/root bags, one-vertex introduce/forget steps.

    Bags are kept as sorted tuples, so join children always agree on vertex
    order.  Width and the set of covered vertex pairs are preserved exactly.
    The bag tree is rooted at bag 0 and cut at each tree edge whose bags
    share no vertex; each piece hangs from its bag nearest bag 0.  Within a
    piece, a tree edge becomes a chain that forgets the child bag's vertices
    outside the parent's, then introduces the parent's vertices outside the
    child's, each in ascending order; a bag with several children joins
    their chains in the order of its tree edges, left to right, leaving cut
    children out, and a bag without children, or whose first child is cut,
    starts from a leaf, or from the top of the piece before.  A piece's top
    forgets the bag it hangs from down to the empty bag.  The pieces are
    chained, not joined: each is built whole, in the order their hanging
    bags finish bottom up, so bag 0's piece comes last and its top is the
    root; an empty bag is a piece that adds no node.  Nodes are named
    tuples, each added after its children.
    """
    bags = [frozenset(b) for b in d.bags] or [frozenset()]
    nbrs: list[list[int]] = [[] for _ in bags]
    for i, j in d.tree_edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    nodes: list[NiceNode] = []
    carry: list[int] = []  # the top of the piece built last, until a leaf takes it

    def add(kind: str, bag: tuple[int, ...], children=(), vertex=None) -> int:
        nodes.append(NiceNode(kind, bag, children, vertex))
        return len(nodes) - 1

    def leaf() -> int:
        return carry.pop() if carry else add("leaf", ())

    def chain(idx: int, frm: frozenset[int], to: frozenset[int]) -> int:
        if frm == to:
            return idx
        bag = sorted(frm)
        for v in sorted(frm - to):
            bag.remove(v)
            idx = add("forget", tuple(bag), (idx,), v)
        for v in sorted(to - frm):
            insort(bag, v)
            idx = add("introduce", tuple(bag), (idx,), v)
        return idx

    # Breadth first from bag 0, then each bag after all of its children,
    # piece by piece, without recursion, so a long path of bags cannot
    # exhaust the interpreter's recursion limit.
    parent: list[int | None] = [None] * len(bags)
    parent[0] = -1
    order = [0]
    for i in order:
        for j in nbrs[i]:
            if j != parent[i]:
                if parent[j] is not None:
                    raise InvalidDecomposition("bag tree has a cycle")
                parent[j] = i
                order.append(j)
    if len(order) < len(bags):
        raise InvalidDecomposition("bag tree is disconnected")
    # piece[i] is the breadth-first position of the bag that i's piece hangs from
    piece = [0] * len(bags)
    for pos, i in enumerate(order[1:], 1):
        piece[i] = pos if bags[i].isdisjoint(bags[parent[i]]) else piece[parent[i]]
    top = [-1] * len(bags)  # node index standing for each finished subtree
    for i in sorted(reversed(order), key=lambda i: -piece[i]):
        kids = [j for j in nbrs[i] if j != parent[i]]
        lifted = []
        if not kids or piece[kids[0]] != piece[i]:  # no child, or a cut first child
            lifted.append(chain(leaf(), frozenset(), bags[i]))
        lifted += [chain(top[j], bags[j], bags[i]) for j in kids if piece[j] == piece[i]]
        top[i] = lifted[0]
        for nxt in lifted[1:]:
            top[i] = add("join", tuple(sorted(bags[i])), (top[i], nxt))
        if order[piece[i]] == i:
            carry.append(chain(top[i], bags[i], frozenset()))
    root = leaf()
    return NiceTreeDecomposition(tuple(nodes), root)


def _color_class_tops(cands: int, non_nbr: list[int]) -> list[int]:
    """Highest bit of each class of a greedy coloring of the bitset cands.

    Vertices are colored highest bit first, each into the first class that
    holds none of its neighbors; ``non_nbr[v]`` masks out v and its
    neighbors.  ``tops[c]`` is the first vertex that needs c + 1 colors, so
    the tops fall strictly, and the candidates at bit v or above need at most
    ``#{c : tops[c] >= v}`` colors: a bound on any clique among them.
    """
    tops = []
    while cands:
        free = cands
        tops.append(free.bit_length() - 1)
        while free:
            v = free.bit_length() - 1
            cands ^= 1 << v
            free &= non_nbr[v]
    return tops


def _max_clique_in_bag(
    nbr: tuple[int, ...], non_nbr: list[int], bag: int, floor: int, left: int
) -> tuple[int, int]:
    """Lexicographically smallest maximum clique inside one bag, as a bitset.

    The clique is 0 unless it has more than floor vertices.  Branch and
    bound on int bitsets, bit v standing for vertex v: bag holds the bag's
    vertices, nbr[v] is v's neighbourhood and non_nbr[v] masks out v and its
    neighbours.  Cliques grow by ascending vertices, so they are met in
    lexicographic order, and only a strictly larger clique replaces the best.
    A branch is cut only when a greedy-coloring bound (Tomita & Seki, MCQ,
    2003) shows it cannot beat the best, so the first maximum clique met is
    kept.  Each vertex added to a clique is one branch node: left is how
    many the search may still add, and it is returned, less those added,
    with the clique.  One more raises SearchLimitExceeded.
    """
    best, best_size = 0, floor
    # frames: (clique bits, clique size, untried candidates, color tops)
    stack = [(0, 0, bag, _color_class_tops(bag, non_nbr))]
    while stack:
        clique, size, cands, tops = stack[-1]
        need = best_size - size  # a branch must add more than this
        low = cands & -cands
        i = low.bit_length() - 1
        if not cands or need >= len(tops) or i > tops[need]:
            stack.pop()
            continue
        cands ^= low
        stack[-1] = (clique, size, cands, tops)
        left -= 1
        if left < 0:
            raise SearchLimitExceeded(
                f"bag scan added more than {BRANCH_BUDGET} branch nodes"
            )
        clique |= low
        size += 1
        if size > best_size:
            best, best_size = clique, size
        sub = cands & nbr[i]
        if size + sub.bit_count() > best_size:
            stack.append((clique, size, sub, _color_class_tops(sub, non_nbr)))
    return best, left


def k_clique(
    g: SimpleGraph, k: int, d: TreeDecomposition
) -> tuple[int, ...] | None:
    """Find a clique of size at least k by scanning decomposition bags.

    Complete because every clique of the graph appears inside some bag of any
    valid decomposition (pairwise intersecting subtrees of a tree share a
    node), so the best over bags is a maximum clique.  Each bag looks only
    for a clique larger than the best so far, so the answer is the
    lexicographically smallest maximum clique of the earliest bag holding one.
    Every bag is searched on the graph's own neighbour masks, g.masks.  The
    searches of one call share BRANCH_BUDGET branch nodes; past it, the call
    raises SearchLimitExceeded.
    """
    validate_decomposition(g, d)
    non_nbr = [~(m | 1 << v) for v, m in enumerate(g.masks)]
    best = 0
    left = BRANCH_BUDGET
    for bag in d.bags:
        floor = best.bit_count()
        if len(bag) > floor:
            bits = sum(1 << v for v in bag)
            found, left = _max_clique_in_bag(g.masks, non_nbr, bits, floor, left)
            best = found or best
    clique = tuple(_bits(best))
    _check_clique(g, clique)
    return clique if len(clique) >= k else None


def _check_lists(g: SimpleGraph, lists: ColorLists, k: int) -> None:
    for v in range(g.n):
        if v not in lists or not lists[v]:
            raise ListColorOutOfRange(f"vertex {v} has no color list")
        bad = [c for c in lists[v] if not (1 <= c <= k)]
        if bad:
            raise ListColorOutOfRange(
                f"vertex {v} lists color {bad[0]} outside 1..{k}"
            )


def narrow_lists(g: SimpleGraph, lists: ColorLists) -> dict[int, frozenset[int]] | None:
    """The lists with each forced color taken from the neighbours', or None.

    A vertex whose list is the single color c must take c, so c leaves its
    neighbours' lists, which may leave one of them a single color in turn;
    this repeats until no list changes.  Every proper list coloring keeps to
    the narrowed lists, so a list left empty (None) means there is none.
    lists must hold every vertex of g; the caller's mapping is not changed.
    """
    narrowed = dict(lists)
    forced = [v for v in range(g.n) if len(narrowed[v]) == 1]
    for v in forced:
        (c,) = narrowed[v]
        for u in g.adjacency[v]:
            if c in narrowed[u]:
                narrowed[u] = narrowed[u] - {c}
                if not narrowed[u]:
                    return None
                if len(narrowed[u]) == 1:
                    forced.append(u)
    return narrowed


def _projector(frm: tuple[int, ...], to: tuple[int, ...]):
    """Map a state over bag frm to its colors on the vertices of bag to."""
    at = [frm.index(u) for u in to]
    if len(at) == 1:
        return lambda state: (state[at[0]],)
    return itemgetter(*at) if at else lambda state: ()


def list_k_coloring(
    g: SimpleGraph, lists: ColorLists, k: int, d: TreeDecomposition
) -> dict[int, int] | None:
    """Proper coloring drawing each vertex's color from its own list, or None.

    The lists are narrowed first (narrow_lists); an emptied list answers
    None.  A vertex left one color takes it, and no neighbour's list holds
    that color, so it leaves the bags, which may fall apart into pieces that
    share no vertex; make_nice chains the pieces instead of joining them.
    A dynamic program then runs over that nice form: a state is a proper,
    list-respecting coloring of a bag that some coloring of the vertices
    below extends; introduce extends by list colors unused on bag
    neighbours, forget projects, join keeps the states of both sides.
    Tables are dicts, in the order their states are first built, and exist
    only at leaves, joins and the tops of forget runs:

    - a run of forgets is one projection of the introduce run below it,
      from each new state to the first full state reaching it; when the
      run forgets the last vertices that introduce run adds, a new state
      gets only the first completion of its first prefix;
    - a join keeps the left states whose projection onto the base bag of
      the right child's introduce run is in that base's table, so the
      right run is never built;
    - a leaf or join table is dropped once read: the witness walk reads
      only the forget tables.

    The witness is the one the DP over d and the given lists finds: a bag
    separates the vertices below it from the rest, so a state keeping to
    the narrowed lists extends within them, every forget keeps the same
    first state, a piece's top passes only the empty state, as the DP over
    the joined pieces would, and a forced vertex adds one fixed color to
    each state.
    The DP stops at the first empty table, as every ancestor's would be
    empty too, and raises SearchLimitExceeded once its introduce steps have
    built more than STATE_BUDGET states.  Pre-coloring extension is the
    special case of singleton lists.
    """
    validate_decomposition(g, d)
    _check_lists(g, lists, k)
    lists = narrow_lists(g, lists)
    if lists is None:
        return None
    forced = {v for v in range(g.n) if len(lists[v]) == 1}
    coloring = {v: min(lists[v]) for v in forced}
    bags = tuple([frozenset(bag) - forced for bag in d.bags])
    nice = make_nice(TreeDecomposition(bags, d.tree_edges))
    nodes = nice.nodes
    adj = g.adjacency
    built = 0

    def run(idx: int, kind: str):
        """The kind-run of nodes ending at idx, bottom first, and the node below."""
        seq = []
        while nodes[idx].kind == kind:
            seq.append(idx)
            idx = nodes[idx].children[0]
        return seq[::-1], idx

    def step(idx: int):
        # position of v, a reader of its bag neighbours' colors in the
        # child's states (a lone index is doubled, so it too gives a tuple),
        # and v's colors
        nd = nodes[idx]
        vi = nd.bag.index(nd.vertex)
        near = [i - (i > vi) for i, u in enumerate(nd.bag) if u in adj[nd.vertex]]
        pick = itemgetter(*near, *near[:1]) if near else lambda state: ()
        return vi, pick, sorted(lists[nd.vertex])

    def introduce(states, vi: int, pick, colors: list):
        nonlocal built
        for state in states:
            used = pick(state)
            for c in colors:
                if c not in used:
                    built += 1
                    if built > STATE_BUDGET:
                        raise SearchLimitExceeded(
                            f"list coloring built more than {STATE_BUDGET} DP states"
                        )
                    yield state[:vi] + (c,) + state[vi:]

    def grow(states, steps: list) -> list:
        """Every extension of the states through the steps, in table order."""
        for vi, pick, colors in steps:
            states = list(introduce(states, vi, pick, colors))
        return states

    def first(state: tuple, steps: list):
        """The first extension of state through the steps in table order, or None.

        Depth first on an explicit stack of lazy introduce steps, so only
        the states met before it are built.
        """
        frames = [iter([state])]
        while frames:
            state = next(frames[-1], None)
            if state is None:
                frames.pop()
            elif len(frames) > len(steps):
                return state
            else:
                frames.append(introduce([state], *steps[len(frames) - 1]))
        return None

    def read(idx: int) -> dict:
        table = tables[idx]
        if nodes[idx].kind != "forget":
            tables[idx] = None
        return table

    above = {c: nd.kind for nd in nodes for c in nd.children}
    # make_nice adds every node after its children, so index order is a
    # valid evaluation order
    tables = [None] * len(nodes)
    for idx, nd in enumerate(nodes):
        if nd.kind == "leaf":
            table = {(): ()}
        elif nd.kind == "join":
            left, right = (run(c, "introduce") for c in nd.children)
            keys = read(right[1])
            key = _projector(nd.bag, nodes[right[1]].bag)
            states = grow(read(left[1]), [step(i) for i in left[0]])
            table = dict.fromkeys(s for s in states if key(s) in keys)
        elif nd.kind == "forget" and above.get(idx) != "forget":
            intros, base = run(run(idx, "forget")[1], "introduce")
            cut = len(intros)
            while cut and nodes[intros[cut - 1]].vertex not in nd.bag:
                cut -= 1
            key = _projector(nodes[intros[cut - 1] if cut else base].bag, nd.bag)
            steps = [step(i) for i in intros]
            rest = steps[cut:]
            table = {}
            for s in grow(read(base), steps[:cut]):
                new = key(s)
                if new not in table:  # the first completion of the first prefix
                    full = first(s, rest) if rest else s
                    if full is not None:
                        table[new] = full
        else:  # built by the forget run or join above it
            continue
        if not table:
            return None
        tables[idx] = table

    # Witness: pre-order from the root (empty bag, non-empty table), left
    # child before right, each node read at the state its parent chose; a
    # forget run's full state colors its whole bottom bag.
    walk = [(nice.root, ())]
    while walk:
        idx, state = walk.pop()
        if nodes[idx].kind == "forget":  # the top of its run
            state, idx = tables[idx][state], run(idx, "forget")[1]
            coloring.update(zip(nodes[idx].bag, state))
        nd = nodes[idx]
        if nd.kind == "introduce":  # the top of its run
            base = run(idx, "introduce")[1]
            walk.append((base, _projector(nd.bag, nodes[base].bag)(state)))
        else:  # join, or a leaf without children
            walk.extend((c, state) for c in reversed(nd.children))
    # forced vertices are colored up front and every other vertex lies in
    # the bottom bag of the forget run that leaves it out, on the way to the
    # empty root bag
    _check_witness(g, lists, coloring)
    return coloring


def forced_coloring(g: SimpleGraph, lists: dict[int, frozenset[int]]) -> dict[int, int]:
    """The coloring of narrowed lists that leave every vertex one color.

    narrow_lists took each forced color from the neighbours' lists, so
    these colors form a proper list coloring, the one list_k_coloring
    would give on any decomposition; none is needed.
    """
    coloring = {v: min(lists[v]) for v in range(g.n)}
    _check_witness(g, lists, coloring)
    return coloring


def _check_witness(g: SimpleGraph, lists, coloring: dict[int, int]) -> None:
    if len(coloring) != g.n:
        raise AssertionError(f"witness colors {len(coloring)} of {g.n} vertices")
    for u, v in g.edges:
        if coloring[u] == coloring[v]:
            raise AssertionError(f"witness gives {u} and {v} the same color")
    for v, c in coloring.items():
        if c not in lists[v]:
            raise AssertionError(f"witness color {c} of {v} is not on its list")
