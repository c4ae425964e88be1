"""Tree decompositions and decomposition-based solvers.

The validator here is the single source of truth for decomposition validity;
every other module that produces a decomposition is tested against it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .core import ColorLists, SimpleGraph, _check_clique, _reach
from .errors import InvalidDecomposition, ListColorOutOfRange


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..b-1 plus tree edges over bag indices."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


@dataclass(frozen=True)
class NiceNode:
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
    treewidth exceeds the target.
    """

    decomposition: TreeDecomposition | None
    lower_bound: int | None = None
    lower_bound_method: str | None = None
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
        elif _reach(nbrs, min(hold), hold) != hold:
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


def minfill_order(g: SimpleGraph, rng: random.Random | None = None) -> list[int]:
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


def degeneracy(g: SimpleGraph) -> int:
    """Max over the min-degree peeling; a certified treewidth lower bound."""
    adj = [set(a) for a in g.adjacency]
    remaining = set(range(g.n))
    worst = 0
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u] & remaining), u))
        worst = max(worst, len(adj[v] & remaining))
        remaining.remove(v)
    return worst


def exact_decomposition(g: SimpleGraph) -> tuple[int, TreeDecomposition]:
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
    return tw[full], decomposition_from_order(g, order)


def tree_decomposition(
    g: SimpleGraph,
    target: int,
    approx_factor: int = 5,
    exact_limit: int = 12,
    rng: random.Random | None = None,
) -> DecompositionAttempt:
    """Try for a decomposition of width at most approx_factor * target.

    A certified lower bound above the target wins first and yields a
    width-exceeded answer.  Otherwise the exact subset DP (small graphs) or
    the min-fill heuristic produces a decomposition, flagged when its width
    misses the accepted factor.
    """
    if target < 0:
        raise ValueError("target width must be non-negative")
    lb = degeneracy(g)
    if lb > target:
        return DecompositionAttempt(None, lower_bound=lb, lower_bound_method="degeneracy")
    if g.n <= exact_limit:
        width, d = exact_decomposition(g)
    else:
        d = decomposition_from_order(g, minfill_order(g, rng))
        width = d.width
    return DecompositionAttempt(d, over_target=width > approx_factor * target)


def make_nice(d: TreeDecomposition) -> NiceTreeDecomposition:
    """Binary nice form: empty leaf/root bags, one-vertex introduce/forget steps.

    Bags are kept as sorted tuples, so join children always agree on vertex
    order.  Width and the set of covered vertex pairs are preserved exactly.
    """
    bags = [tuple(sorted(b)) for b in d.bags] or [()]
    nbrs: list[list[int]] = [[] for _ in bags]
    for i, j in d.tree_edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    nodes: list[NiceNode] = []

    def add(kind: str, bag: tuple[int, ...], children=(), vertex=None) -> int:
        nodes.append(NiceNode(kind, bag, tuple(children), vertex))
        return len(nodes) - 1

    def chain(idx: int, frm: tuple[int, ...], to: tuple[int, ...]) -> int:
        cur = idx
        bag = list(frm)
        for v in [x for x in frm if x not in to]:
            bag.remove(v)
            cur = add("forget", tuple(bag), (cur,), v)
        for v in [x for x in to if x not in frm]:
            bag = sorted(bag + [v])
            cur = add("introduce", tuple(bag), (cur,), v)
        return cur

    # Post-order over the bag tree from bag 0 with an explicit stack, so a
    # long path of bags cannot exhaust the interpreter's recursion limit.
    # Each subtree is finished before its next sibling's starts, and a bag's
    # chains and joins follow all of its subtrees.
    top = [-1] * len(bags)  # node index standing for each finished subtree
    seen = [False] * len(bags)
    seen[0] = True
    stack = [(0, -1, False)]
    while stack:
        i, parent, kids_done = stack.pop()
        kids = [j for j in nbrs[i] if j != parent]
        if not kids_done:
            stack.append((i, parent, True))
            for j in reversed(kids):
                if seen[j]:
                    raise InvalidDecomposition("bag tree has a cycle")
                seen[j] = True
                stack.append((j, i, False))
        elif not kids:
            top[i] = chain(add("leaf", ()), (), bags[i])
        else:
            lifted = [chain(top[j], bags[j], bags[i]) for j in kids]
            cur = lifted[0]
            for nxt in lifted[1:]:
                cur = add("join", bags[i], (cur, nxt))
            top[i] = cur

    root = chain(top[0], bags[0], ())
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
    g: SimpleGraph, bag: frozenset[int], floor: int
) -> tuple[int, ...]:
    """Lexicographically smallest maximum clique inside one bag.

    Returns () unless that clique has more than floor vertices.  Branch and
    bound on int bitsets, bit i standing for the bag's i-th smallest vertex.
    Cliques grow by ascending vertices, so they are met in lexicographic
    order, and only a strictly larger clique replaces the best.  A branch is
    cut only when a greedy-coloring bound (Tomita & Seki, MCQ, 2003) shows
    it cannot beat the best, so the first maximum clique met is kept.
    """
    verts = sorted(bag)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    nbr = [sum(bit[u] for u in g.adjacency[v] & bag) for v in verts]
    non_nbr = [~(nb | bit[v]) for v, nb in zip(verts, nbr)]
    best, best_size = 0, floor
    everything = (1 << len(verts)) - 1
    # frames: (clique bits, clique size, untried candidates, color tops)
    stack = [(0, 0, everything, _color_class_tops(everything, non_nbr))]
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
        clique |= low
        size += 1
        if size > best_size:
            best, best_size = clique, size
        sub = cands & nbr[i]
        if size + sub.bit_count() > best_size:
            stack.append((clique, size, sub, _color_class_tops(sub, non_nbr)))
    return tuple(v for v in verts if best & bit[v])


def k_clique(
    g: SimpleGraph, k: int, d: TreeDecomposition
) -> tuple[int, ...] | None:
    """Find a clique of size at least k by scanning decomposition bags.

    Complete because every clique of the graph appears inside some bag of any
    valid decomposition (pairwise intersecting subtrees of a tree share a
    node), so the best over bags is a maximum clique.  Each bag looks only
    for a clique larger than the best so far, so the answer is the
    lexicographically smallest maximum clique of the earliest bag holding one.
    """
    validate_decomposition(g, d)
    best: tuple[int, ...] = ()
    for bag in d.bags:
        if len(bag) > len(best):
            best = _max_clique_in_bag(g, bag, len(best)) or best
    _check_clique(g, best)
    return best if len(best) >= k else None


def max_clique_decomposed(g: SimpleGraph, d: TreeDecomposition) -> tuple[int, ...]:
    """Maximum clique via the same bag scan as k_clique."""
    result = k_clique(g, 0, d)
    if result is None:
        raise AssertionError("bag scan found no clique of size at least 0")
    return result


@dataclass(frozen=True)
class KCliqueOutcome:
    """Answer of the width-attempt pipeline for the k-clique question.

    ``by_promise`` marks a positive answer concluded from a certified width
    bound plus the caller's promise that the graph lies in a class whose
    treewidth is bounded by the given function of the clique number; no
    witness is fabricated in that case.
    """

    has_clique: bool
    witness: tuple[int, ...] | None
    by_promise: bool
    attempt: DecompositionAttempt


def k_clique_bounded(
    g: SimpleGraph,
    k: int,
    target_width: int,
    approx_factor: int = 5,
    promise: bool = False,
) -> KCliqueOutcome:
    """Decide k-clique through a width-targeted decomposition attempt.

    When the attempt certifies treewidth above the target and the promise
    flag is set, the answer is yes without a witness.  Without the promise
    the graph is decomposed unconditionally and solved exactly.
    """
    attempt = tree_decomposition(g, target_width, approx_factor)
    if attempt.found:
        witness = k_clique(g, k, attempt.decomposition)
        return KCliqueOutcome(witness is not None, witness, False, attempt)
    if promise:
        return KCliqueOutcome(True, None, True, attempt)
    fallback = tree_decomposition(g, max(g.n - 1, 0), approx_factor)
    witness = k_clique(g, k, fallback.decomposition)
    return KCliqueOutcome(witness is not None, witness, False, attempt)


def _check_lists(g: SimpleGraph, lists: ColorLists, k: int) -> None:
    for v in range(g.n):
        if v not in lists or not lists[v]:
            raise ListColorOutOfRange(f"vertex {v} has no color list")
        bad = [c for c in lists[v] if not (1 <= c <= k)]
        if bad:
            raise ListColorOutOfRange(
                f"vertex {v} lists color {bad[0]} outside 1..{k}"
            )


def list_k_coloring(
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

    tables: list[dict[tuple[int, ...], tuple]] = [None] * len(nice.nodes)  # type: ignore

    def eval_node(idx: int) -> None:
        nd = nice.nodes[idx]
        if nd.kind == "leaf":
            tables[idx] = {(): ()}
            return
        if nd.kind == "join":
            a, b = nd.children
            left, right = tables[a], tables[b]
            tables[idx] = {
                s: (s, s) for s in left if s in right
            }
            return
        (child,) = nd.children
        ctab = tables[child]
        if nd.kind == "introduce":
            v = nd.vertex
            vi = nd.bag.index(v)
            bag_nbrs = [
                (i, u) for i, u in enumerate(nd.bag) if u != v and u in adj[v]
            ]
            out: dict[tuple[int, ...], tuple] = {}
            for state in ctab:
                for c in sorted(lists[v]):
                    if any(state[i if i < vi else i - 1] == c for i, _ in bag_nbrs):
                        continue
                    new = state[:vi] + (c,) + state[vi:]
                    out[new] = (state,)
            tables[idx] = out
            return
        # forget
        v = nd.vertex
        cbag = nice.nodes[child].bag
        vi = cbag.index(v)
        out = {}
        for state in ctab:
            new = state[:vi] + state[vi + 1 :]
            if new not in out:  # first predecessor wins; iteration is insertion order
                out[new] = (state,)
        tables[idx] = out

    post = []
    stack = [(nice.root, False)]
    while stack:
        idx, done = stack.pop()
        if done:
            post.append(idx)
            continue
        stack.append((idx, True))
        for ch in nice.nodes[idx].children:
            stack.append((ch, False))
    for idx in post:
        eval_node(idx)

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
