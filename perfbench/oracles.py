"""Answer checks that share no code with hgraphs.

Everything here works from the files the program was given and from facts
fixed by the construction of each instance.  Graphs are adjacency bitsets
(one Python int per vertex, 0-based).
"""

from __future__ import annotations

from itertools import combinations


class WrongAnswer(Exception):
    """The program's output contradicts the oracle."""


def read_gr(path: str) -> tuple[int, list[int], int]:
    """Parse a PACE .gr file into (n, adjacency bitsets, edge count)."""
    n = 0
    adj: list[int] = []
    m = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0] == "c":
                continue
            if parts[0] == "p":
                n = int(parts[2])
                adj = [0] * n
                continue
            u, v = int(parts[0]) - 1, int(parts[1]) - 1
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            m += 1
    return n, adj, m


def edges_of_sets(sets: dict[int, frozenset]) -> list[tuple[int, int]]:
    """Pairs of keys whose sets share an element."""
    holders: dict[object, list[int]] = {}
    for v in sorted(sets):
        for x in sets[v]:
            holders.setdefault(x, []).append(v)
    pairs = set()
    for group in holders.values():
        pairs.update(combinations(group, 2))
    return sorted(pairs)


def max_load(sets: dict[int, frozenset]) -> int:
    """Largest number of sets sharing one element.

    For subtrees of a tree (intervals included) this is the clique number:
    pairwise intersecting subtrees have a common node.
    """
    load: dict[object, int] = {}
    for s in sets.values():
        for x in s:
            load[x] = load.get(x, 0) + 1
    return max(load.values(), default=0)


def alpha_bruteforce(n: int, adj: list[int]) -> int:
    """Independence number by trying every vertex subset (n stays small)."""
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        rest = mask
        ok = True
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & mask:
                ok = False
                break
            rest ^= low
        if ok:
            best = size
    return best


def clique_number(n: int, adj: list[int]) -> int:
    """Maximum clique size by branch and bound with a greedy-coloring bound.

    The candidate set is colored greedily and candidates are expanded in
    reverse color order, stopping once size + color cannot beat the best
    (Tomita & Seki, MCQ, 2003).
    """
    best = 0

    def color_order(cands: int) -> tuple[list[int], list[int]]:
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        uncolored = cands
        while uncolored:
            color += 1
            free = uncolored
            while free:
                low = free & -free
                v = low.bit_length() - 1
                free &= ~adj[v] & ~low
                uncolored &= ~low
                order.append(v)
                bounds.append(color)
        return order, bounds

    def expand(cands: int, size: int) -> None:
        nonlocal best
        order, bounds = color_order(cands)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            inner = cands & adj[v]
            if inner:
                expand(inner, size + 1)
            elif size + 1 > best:
                best = size + 1
            cands &= ~(1 << v)

    if n:
        expand((1 << n) - 1, 0)
    return best


def mcs_coloring(n: int, adj: list[int]) -> list[int]:
    """Greedy coloring (colors from 1) along a maximum cardinality search.

    On a chordal graph the earlier-visited neighbors of each vertex form a
    clique, so the greedy coloring uses exactly omega colors.
    """
    weight = [0] * n
    buckets = [set(range(n))]  # unvisited vertices by weight
    top = 0
    color = [0] * n  # 0 marks unvisited
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        v = min(buckets[top])
        buckets[top].discard(v)
        used = set()
        rest = adj[v]
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            if color[u]:
                used.add(color[u])
            else:
                buckets[weight[u]].discard(u)
                weight[u] += 1
                if weight[u] == len(buckets):
                    buckets.append(set())
                buckets[weight[u]].add(u)
                top = max(top, weight[u])
        c = 1
        while c in used:
            c += 1
        color[v] = c
    return color


def parse_vertex_line(out: str, label: str) -> list[int]:
    """0-based vertices from the CLI line '<label>: v1 v2 ...'."""
    for line in out.splitlines():
        if line.startswith(label + ":"):
            return [int(tok) - 1 for tok in line.split()[1:]]
    raise WrongAnswer(f"no '{label}:' line in output")


def parse_int_after(out: str, prefix: str) -> int:
    """The integer that follows prefix on the first line starting with it."""
    for line in out.splitlines():
        if line.startswith(prefix):
            return int(line[len(prefix):].split()[0])
    raise WrongAnswer(f"no line starting with {prefix!r} in output")


def check_clique(adj: list[int], verts: list[int], size: int) -> None:
    """verts must be `size` distinct, pairwise adjacent vertices."""
    if len(set(verts)) != len(verts) or len(verts) != size:
        raise WrongAnswer(f"clique has {len(verts)} vertices, expected {size}")
    for u, v in combinations(verts, 2):
        if not adj[u] >> v & 1:
            raise WrongAnswer(f"vertices {u + 1} and {v + 1} are not adjacent")


def check_coloring(
    n: int, adj: list[int], lists: dict[int, frozenset[int]], k: int, out: str
) -> None:
    """The CLI coloring must be proper and draw each color from the lists."""
    lines = out.splitlines()
    if not lines or lines[0] != "coloring:":
        raise WrongAnswer("expected a coloring")
    color: dict[int, int] = {}
    for line in lines[1:]:
        v, c = (int(tok) for tok in line.split())
        color[v - 1] = c
    if sorted(color) != list(range(n)):
        raise WrongAnswer("coloring does not cover exactly the vertices")
    for v in range(n):
        allowed = lists.get(v, range(1, k + 1))
        if color[v] not in allowed:
            raise WrongAnswer(f"vertex {v + 1} got color {color[v]} outside its list")
        rest = adj[v] & ~((1 << (v + 1)) - 1)
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            if color[u] == color[v]:
                raise WrongAnswer(f"edge {v + 1}-{u + 1} has both ends colored {color[v]}")
