"""The three workloads: seeded input files, the CLI steps of each op, and the
checks of each op's answers.

Inputs are written to the current directory and every CLI argument is a
relative file name, so captured stdout does not depend on where a run
happens.  `hg` is a namespace holding the freshly imported hgraphs modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from oracles import (
    WrongAnswer,
    alpha_bruteforce,
    check_clique,
    check_coloring,
    clique_number,
    edges_of_sets,
    max_load,
    mcs_coloring,
    parse_int_after,
    parse_vertex_line,
    read_gr,
)


@dataclass
class Step:
    """One CLI call of an op and the exit code it must return."""

    argv: list[str]
    expect: int
    decisive: bool = False  # exit 0 or 1 is itself the answer


@dataclass
class Op:
    """One user task on one instance."""

    name: str  # file stem of the instance
    cls: str  # instance class
    steps: list[Step]
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    build: Callable  # (hg, rng) -> list[Op]; writes the input files
    check: Callable  # (op, outputs of the steps that completed) -> None
    # seconds one pass over the ops took on the reference host (2 vCPUs,
    # Python 3.11); --seconds / pass_seconds fixes the number of passes
    pass_seconds: float
    check_trace: Callable | None = None  # (tracer records, ops) -> None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def spread_order(mix: dict, blocks: int) -> list:
    """Classes in proportion to `mix`, each as evenly spaced as its share allows.

    Any prefix of the sequence then holds close to the stated shares, so
    the first ops, which the traced run uses, still see the whole mix.
    """
    total = sum(mix.values())
    placed = dict.fromkeys(mix, 0)
    block = []
    for j in range(1, total + 1):
        cls = max(mix, key=lambda c: mix[c] * j / total - placed[c])
        placed[cls] += 1
        block.append(cls)
    return block * blocks


def stratified(lo: int, hi: int, k: int, rng: random.Random, kinds=(None,)) -> list[tuple]:
    """k (size, kind) pairs in seeded order.

    The sizes cover [lo, hi] evenly and the kinds take turns along them, so
    every seed gets the same sizes of each kind; only the structure drawn
    for each instance changes with the seed.
    """
    pairs = [(round(lo + (hi - lo) * (i + 0.5) / k), kinds[i % len(kinds)]) for i in range(k)]
    rng.shuffle(pairs)
    return pairs


def chain_representation(hg, n: int, caterpillar: bool, rng: random.Random):
    """A path or caterpillar on n vertices as intervals of a subdivided edge.

    Spine vertex j covers its own leaves' nodes plus one node shared with
    each spine neighbour; each leaf (0 to 2 per spine vertex) owns one node.
    """
    positions: dict[int, range] = {}
    start = 0
    while len(positions) < n:
        leaves = min(rng.randint(0, 2), n - len(positions) - 1) if caterpillar else 0
        positions[len(positions)] = range(start, start + leaves + 2)
        for k in range(leaves):
            positions[len(positions)] = range(start + 1 + k, start + 2 + k)
        start += leaves + 1
    rmod = hg.representation
    pattern = rmod.SubdividedPattern(hg.core.Multigraph(2, ((0, 1),)), (start - 1,))
    order = [rmod.branch(0)] + pattern.path_from(0, 0) + [rmod.branch(1)]
    sets = {v: frozenset(order[p] for p in ps) for v, ps in positions.items()}
    return rmod.HRepresentation(pattern, sets)


def random_representation(hg, pattern, n: int, rng: random.Random, max_size: int = 6):
    """n random connected node sets of up to max_size nodes, each grown from
    a uniform seed node by adding random neighbouring nodes."""
    adjacency = pattern.adjacency
    nodes = sorted(adjacency)
    nbrs = {nd: sorted(adjacency[nd]) for nd in nodes}
    sets = {}
    for v in range(n):
        start = rng.choice(nodes)
        inside = {start}
        boundary = list(nbrs[start])
        target = rng.randint(1, max_size)
        while len(inside) < target:
            boundary = [y for y in boundary if y not in inside]
            if not boundary:
                break
            y = rng.choice(boundary)
            inside.add(y)
            boundary.extend(nbrs[y])
        sets[v] = frozenset(inside)
    return hg.representation.HRepresentation(pattern, sets)


def _emit_instance(hg, name: str, rep, edges) -> None:
    """Write name.hgr, name.gr and name.rep for a representation."""
    fmt = hg.formats
    _write(name + ".hgr", fmt.emit_hgr(rep.pattern.base))
    _write(name + ".gr", fmt.emit_gr(hg.core.SimpleGraph.from_edges(len(rep.sets), edges)))
    _write(name + ".rep", fmt.emit_rep(rep, name + ".hgr"))


def _bitsets(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def paper_bound(op: Op) -> int | None:
    """(tw(H)+1)*omega - 1, the width the paper promises from a representation."""
    if "omega" not in op.meta or "tw_h" not in op.meta:
        return None
    return (op.meta["tw_h"] + 1) * op.meta["omega"] - 1


# hard-clique ---------------------------------------------------------------

# Nodes, edges and treewidth of each pattern, fixed by its definition.
HARD_PATTERNS = {"wheel4": (5, 8, 3), "double_triangle": (3, 6, 2)}
# Ops per block by |V(G)|; the target co-S2(G) has n + 2m = 5n vertices.
# Costs rise about threefold per step of n, so the shares put p50 inside
# the n=6 class and p90 at the middle of the n=7 class, away from the
# edges between classes where a percentile jumps.
HARD_MIX = {5: 6, 6: 15, 7: 3, 8: 1}
HARD_BLOCKS = 4


def build_hard_clique(hg, rng: random.Random) -> list[Op]:
    _write("wheel4.hgr", hg.formats.emit_hgr(hg.pattern.wheel(4)))
    _write("double_triangle.hgr", hg.formats.emit_hgr(hg.pattern.double_triangle()))
    ops = []
    turns: dict[int, int] = {}
    for i, n in enumerate(spread_order(HARD_MIX, HARD_BLOCKS)):
        turns[n] = turns.get(n, -1) + 1
        pattern = ("wheel4", "double_triangle")[turns[n] % 2]
        name = f"hc{i:03d}"
        _write(name + ".gr", hg.formats.emit_gr(hg.randgen.gnm(n, 2 * n, rng)))
        target, rep = name + "-t.gr", name + "-t.rep"
        on_target = ["--graph", target, "--rep", rep]
        steps = [
            Step(["gen-hard", "--graph", name + ".gr", "--pattern", pattern + ".hgr",
                  "--out-graph", target, "--out-rep", rep], 0),
            Step(["verify"] + on_target, 0, decisive=True),
            Step(["clique"] + on_target, 3),
            Step(["clique"] + on_target + ["--mode", "treewidth"], 0),
        ]
        ops.append(Op(name, f"n{n}", steps, {"pattern": pattern, "tw_h": HARD_PATTERNS[pattern][2]}))
    return ops


def check_hard_clique(op: Op, outs: list[str]) -> None:
    """Poljak: omega(co-S2(G)) = alpha(G) + |E(G)|, alpha by brute force on G."""
    n, adj, m = read_gr(op.name + ".gr")
    omega = alpha_bruteforce(n, adj) + m
    op.meta["omega"] = omega
    big_n = n + 2 * m
    nodes, edges, _ = HARD_PATTERNS[op.meta["pattern"]]
    if outs:
        words = outs[0].split()  # target: <n> vertices, <m> edges -> <file>
        if words[0] != "target:" or int(words[1]) != big_n:
            raise WrongAnswer(f"{op.name}: target should have {big_n} vertices")
        if int(words[3]) != big_n * (big_n - 1) // 2 - 3 * m:
            raise WrongAnswer(f"{op.name}: target should be the complement of S2(G)")
    if len(outs) > 1 and outs[1].split() != ["ok"]:
        raise WrongAnswer(f"{op.name}: verify did not accept the representation")
    if len(outs) > 2 and parse_int_after(outs[2], "not helly: more than ") != nodes + edges * big_n:
        raise WrongAnswer(f"{op.name}: Helly bound should be |V(H)| + |E(H)|*n")
    if len(outs) > 3:
        _, target_adj, _ = read_gr(op.name + "-t.gr")
        if parse_int_after(outs[3], "size: ") != omega:
            raise WrongAnswer(f"{op.name}: clique size should be alpha + m = {omega}")
        check_clique(target_adj, parse_vertex_line(outs[3], "clique"), omega)


def check_helly_overflow(records: dict, ops: list[Op]) -> None:
    """The auto route must overflow with exactly bound + 1 maximal cliques."""
    for op, count, bound, exceeded in records["clique.clique_helly"]:
        if not exceeded or count != bound + 1:
            raise WrongAnswer(f"{ops[op].name}: Helly route emitted {count} with bound {bound}")


# cactus-clique -------------------------------------------------------------

# a: representations on random subdivided cacti; b: circular-arc models;
# c: paths and caterpillars on a subdivided edge.  At one size, class a's
# atom time varies about 1.8-fold with the shape of the splits, class b's
# 1.2-fold and a chain's little, so b holds p50 and the chains, one
# eighth of the ops, hold p90; the whole mix is timed in one pass.
CACTUS_MIX = {"a": 8, "b": 20, "c": 4}
CACTUS_BLOCKS = 5
CACTUS_SIZES = {"a": (60, 150), "b": (30, 50), "c": (150, 200)}
CACTUS_KINDS = {"c": ("path", "caterpillar")}


def build_cactus_clique(hg, rng: random.Random) -> list[Op]:
    rg = hg.randgen
    seq = spread_order(CACTUS_MIX, CACTUS_BLOCKS)
    sizes = {
        c: stratified(lo, hi, seq.count(c), rng, CACTUS_KINDS.get(c, (None,)))
        for c, (lo, hi) in CACTUS_SIZES.items()
    }
    ops = []
    for i, cls in enumerate(seq):
        size, kind = sizes[cls].pop()
        name = f"cc{i:03d}"
        if cls == "a":
            pattern = rg.random_subdivision(rg.random_cactus(size // 3, rng), rng)
            rep = random_representation(hg, pattern, size, rng)
        elif cls == "b":
            rep = rg.representation_from_cycle_arcs(rg.random_arc_model(size, size, rng))
        else:
            rep = chain_representation(hg, size, kind == "caterpillar", rng)
        _emit_instance(hg, name, rep, edges_of_sets(rep.sets))
        steps = [Step(["clique", "--graph", name + ".gr", "--rep", name + ".rep"], 0)]
        ops.append(Op(name, cls, steps, {"size": size, "kind": kind}))
    return ops


def check_cactus_clique(op: Op, outs: list[str]) -> None:
    """Pairwise adjacency in the .gr file, size against branch and bound."""
    if not outs:
        return
    if not outs[0].startswith("strategy: cactus"):
        raise WrongAnswer(f"{op.name}: expected the cactus route")
    n, adj, _ = read_gr(op.name + ".gr")
    omega = clique_number(n, adj)
    if parse_int_after(outs[0], "size: ") != omega:
        raise WrongAnswer(f"{op.name}: maximum clique has size {omega}")
    check_clique(adj, parse_vertex_line(outs[0], "clique"), omega)


# list-color ----------------------------------------------------------------

# sat/unsat: chordal graphs on random subdivided trees; long: paths and
# caterpillars, which exceed the recursion limit today.
LIST_MIX = {"sat": 16, "unsat": 16, "long": 2}
LIST_BLOCKS = 3
CHORDAL_SIZES = (100, 250)
LONG_SIZES = (500, 1000)
OMEGA = 6  # every chordal instance has exactly this clique number
PIN_SHARE = 0.4


def _chordal_representation(hg, n: int, rng: random.Random):
    """A random representation on a subdivided tree with clique number OMEGA.

    With omega fixed, an instance's cost follows its size, so the costliest
    instances, which set p90, are the largest ones for every seed.
    """
    rg = hg.randgen
    # a subdivided tree on t nodes has about 2.5 t nodes and sets average
    # 3.5 nodes; start at 1.25 sets per node and thin or thicken from there
    tree_nodes = round(n * 3.5 / (2.5 * 1.25))
    while True:
        pattern = rg.random_subdivision(rg.random_tree_pattern(tree_nodes, rng), rng)
        rep = random_representation(hg, pattern, n, rng)
        omega = max_load(rep.sets)
        if omega == OMEGA:
            return rep
        tree_nodes = round(tree_nodes * (1.1 if omega > OMEGA else 0.9))


def build_list_color(hg, rng: random.Random) -> list[Op]:
    seq = spread_order(LIST_MIX, LIST_BLOCKS)
    chordal = stratified(*CHORDAL_SIZES, len(seq) - seq.count("long"), rng)
    long_kinds = [(shape, sat) for sat in (True, False) for shape in ("path", "caterpillar")]
    longs = stratified(*LONG_SIZES, seq.count("long"), rng, long_kinds)
    ops = []
    for i, cls in enumerate(seq):
        name = f"lc{i:03d}"
        if cls == "long":
            size, (shape, sat) = longs.pop()
            rep = chain_representation(hg, size, shape == "caterpillar", rng)
        else:
            rep = _chordal_representation(hg, chordal.pop()[0], rng)
            sat = cls == "sat"
        n = len(rep.sets)
        edges = edges_of_sets(rep.sets)
        omega = max_load(rep.sets)
        color = mcs_coloring(n, _bitsets(n, edges))
        if max(color) != omega:
            raise RuntimeError(f"{name}: search coloring used {max(color)} colors, omega is {omega}")
        pins = {v: frozenset([color[v]]) for v in rng.sample(range(n), round(n * PIN_SHARE))}
        if not sat:
            u, v = rng.choice(edges)
            pins[u] = pins[v] = frozenset([1])
        _emit_instance(hg, name, rep, edges)
        _write(name + ".lists", hg.formats.emit_lists(pins))
        steps = [
            Step(["clique", "--graph", name + ".gr", "--rep", name + ".rep", "--mode", "helly"], 0),
            Step(["color", "--graph", name + ".gr", "--k", str(omega), "--lists", name + ".lists"],
                 0 if sat else 1, decisive=True),
        ]
        ops.append(Op(name, cls, steps, {"omega": omega, "tw_h": 1, "pins": pins, "sat": sat}))
    return ops


def check_list_color(op: Op, outs: list[str]) -> None:
    """Clique of size omega; a proper list coloring, or UNSAT by construction."""
    n, adj, _ = read_gr(op.name + ".gr")
    omega = op.meta["omega"]
    if outs:
        if parse_int_after(outs[0], "size: ") != omega:
            raise WrongAnswer(f"{op.name}: maximum clique has size {omega}")
        check_clique(adj, parse_vertex_line(outs[0], "clique"), omega)
    if len(outs) > 1:
        if op.meta["sat"]:
            check_coloring(n, adj, op.meta["pins"], omega, outs[1])
        elif outs[1].split() != ["UNSAT"]:
            raise WrongAnswer(f"{op.name}: two adjacent vertices share a pinned color")


WORKLOADS = {
    "hard-clique": Workload(build_hard_clique, check_hard_clique, 9.0, check_helly_overflow),
    "cactus-clique": Workload(build_cactus_clique, check_cactus_clique, 27.0),
    "list-color": Workload(build_list_color, check_list_color, 11.0),
}
