import random
import sys

import pytest

from helpers import (
    cocktail_party_representation,
    generate_hard_instance_reference,
    interval_path_representation,
    sub,
    subdivided_adjacency_reference,
    verify_representation_reference,
)

from hgraphs.clique import ArcModel, HellyReport, helly_check
from hgraphs.core import (
    Multigraph,
    SimpleGraph,
    complement,
    complete_graph,
    complete_multipartite,
    empty_graph,
    max_clique_bruteforce,
    path_graph,
    two_subdivision,
)
from hgraphs.errors import DomainMismatch, InvalidPartition, InvalidRepresentation
from hgraphs.formats import emit_gr, emit_rep
from hgraphs.fpt import (
    _exact_order,
    check_decomposition,
    decomposition_from_order,
    validate_decomposition,
)
from hgraphs.pattern import (
    PAIR_KEYS,
    PatternProfile,
    TriPartition,
    complete_pattern,
    cycle_pattern,
    double_triangle,
    find_tripartition,
    wheel,
)
from hgraphs.representation import (
    HRepresentation,
    SubdividedPattern,
    _pattern_order,
    branch,
    generate_hard_instance,
    intersection_graph,
    td_from_representation,
    verify_representation,
)
from hgraphs.randgen import (
    cycle_pattern_for_length,
    gnm,
    gnp,
    random_cactus,
    random_representation,
    random_subdivision,
    random_tree_pattern,
    representation_from_cycle_arcs,
)


def _three_node_path_pattern() -> SubdividedPattern:
    # single edge subdivided once: nodes b0, s(0,1), b1
    return SubdividedPattern(Multigraph(2, ((0, 1),)), (1,))


def test_verify_ok_on_path():
    pat = _three_node_path_pattern()
    rep = HRepresentation(
        pat,
        {
            0: frozenset({branch(0), sub(pat, 0, 1)}),
            1: frozenset({sub(pat, 0, 1), branch(1)}),
            2: frozenset({branch(1)}),
        },
    )
    assert verify_representation(path_graph(3), rep).is_ok


def test_verify_detects_disconnected_set():
    pat = _three_node_path_pattern()
    rep = HRepresentation(
        pat,
        {
            0: frozenset({branch(0), branch(1)}),  # endpoints without the middle
            1: frozenset({sub(pat, 0, 1), branch(1)}),
            2: frozenset({branch(1)}),
        },
    )
    verdict = verify_representation(path_graph(3), rep)
    assert verdict.kind == "disconnected" and verdict.vertex == 0


def _random_patterns(rng: random.Random, count: int):
    # multigraph patterns with loops, parallel pairs and zero counts
    for _ in range(count):
        n = rng.randint(1, 6)
        edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 8)))
        counts = tuple(0 if u == v else rng.choice((0, 0, 1, 2, 4)) for u, v in edges)
        yield SubdividedPattern(Multigraph(n, edges), counts)


def test_subdivided_pattern_nodes_and_adjacency():
    # a node's number is the sorted position of its tuple, ("b", h) for a
    # branch node and ("s", k, i) for edge k's i-th internal node; names()
    # gives the nodes' .rep ids by number, and the adjacency and the graph
    # link each edge's path end to end on those numbers; loops stay inert
    # and parallel pairs link once
    for pattern in _random_patterns(random.Random(29), 400):
        n, edges, counts = pattern.base.n, pattern.base.edges, pattern.counts
        nodes = [("b", h) for h in range(n)]
        nodes += [("s", k, i) for k, t in enumerate(counts) for i in range(1, t + 1)]
        assert nodes == sorted(nodes)
        number = {nd: x for x, nd in enumerate(nodes)}
        names = [f"b:{nd[1] + 1}" if nd[0] == "b" else f"s:{nd[1] + 1}.{nd[2]}" for nd in nodes]
        assert pattern.names() == tuple(names)
        assert pattern.name_index == {name: x for x, name in enumerate(names)}
        assert pattern.node_count == len(nodes)
        expected = {x: set() for x in range(len(nodes))}
        for k, (u, v) in enumerate(edges):
            path = [("b", u)] + [("s", k, i) for i in range(1, counts[k] + 1)] + [("b", v)]
            for a, b in zip(path, path[1:]):
                if a != b:
                    expected[number[a]].add(number[b])
                    expected[number[b]].add(number[a])
        assert pattern.adjacency == expected
        assert subdivided_adjacency_reference(pattern) == expected
        mapped = {x: set() for x in range(len(nodes))}
        for a, b in pattern.graph.edges:
            mapped[a].add(b)
            mapped[b].add(a)
        assert pattern.graph.n == len(nodes) and mapped == expected


def test_pattern_numbers_keep_the_benchmark_contract():
    # the benchmark builds node sets from branch() and path_from() and grows
    # them on adjacency, whose keys it sorts: all speak node numbers, and a
    # path runs from the given end through the ids s:<k+1>.<i> in order
    for pattern in _random_patterns(random.Random(39), 400):
        adjacency, graph = pattern.adjacency, pattern.graph
        assert [branch(h) for h in range(pattern.base.n)] == list(range(pattern.base.n))
        assert sorted(adjacency) == list(adjacency) == list(range(graph.n))
        assert all(adjacency[x] == graph.adjacency[x] for x in range(graph.n))
        for k, (u, v) in enumerate(pattern.base.edges):
            ids = [f"s:{k + 1}.{i}" for i in range(1, pattern.counts[k] + 1)]
            forward = [pattern.name_index[name] for name in ids]
            assert pattern.path_from(k, u) == forward
            if u != v:
                assert pattern.path_from(k, v) == forward[::-1]
            outside = next((x for x in range(pattern.base.n) if x not in (u, v)), None)
            if outside is not None:
                with pytest.raises(ValueError, match="is not an endpoint"):
                    pattern.path_from(k, outside)


def test_unknown_nodes_leave_the_pattern_index_alone():
    # a number outside the pattern, too large or negative, is refused when
    # the representation is built, and the pattern's id table and node graph
    # stay as they were
    pat = _three_node_path_pattern()
    names, graph = dict(pat.name_index), SimpleGraph(pat.graph.n, pat.graph.edges)
    for stray in (3, -1):
        sets = {0: {branch(0), stray}, 1: {stray}, 2: {branch(1)}}
        with pytest.raises(ValueError) as err:
            HRepresentation(pat, sets)
        assert str(err.value) == f"vertex 0 uses unknown pattern node {stray}"
    assert pat.name_index == names and pat.graph == graph and pat.graph.n == 3


def test_representation_names_its_least_unknown_node():
    # the least vertex with a number outside 0..2, and that vertex's least
    # such number
    pat = _three_node_path_pattern()
    sets = {3: {7}, 2: {0, 5, 3, -2}, 1: {1, 2}, 0: {0}}
    with pytest.raises(ValueError) as err:
        HRepresentation(pat, sets)
    assert str(err.value) == "vertex 2 uses unknown pattern node -2"
    sets[2] = {0, 5, 3}
    with pytest.raises(ValueError) as err:
        HRepresentation(pat, sets)
    assert str(err.value) == "vertex 2 uses unknown pattern node 3"


def test_representation_stores_frozensets_of_plain_sets():
    # sets given as plain sets are stored as frozensets, so the Helly check
    # can intersect them, and later changes to the given sets do not reach
    # the representation
    pat = SubdividedPattern(complete_pattern(3), (1, 1, 1))
    arcs = {0: {0, sub(pat, 0, 1), 1}, 1: {1, sub(pat, 2, 1), 2}, 2: {2, sub(pat, 1, 1), 0}}
    rep = HRepresentation(pat, arcs)
    assert all(type(ids) is frozenset for ids in rep.sets.values())
    assert helly_check(rep).kind == "violation"
    arcs[0].add(sub(pat, 2, 1))
    assert rep.sets[0] == frozenset({0, sub(pat, 0, 1), 1})
    helly = HRepresentation(pat, {0: {0, 3}, 1: {3, 1}, 2: {0, 1, 3}})
    assert helly_check(helly).kind == "helly"


def test_verify_reports_adjacency_mismatch():
    pat = _three_node_path_pattern()
    rep = HRepresentation(
        pat,
        {
            0: frozenset({branch(0), sub(pat, 0, 1)}),
            1: frozenset({sub(pat, 0, 1), branch(1)}),
            2: frozenset({sub(pat, 0, 1), branch(1)}),
        },
    )
    verdict = verify_representation(path_graph(3), rep)
    assert verdict.kind == "mismatch"
    assert verdict.mismatches == ((0, 2, False),)
    # missing and extra edges together, sorted by pair
    rep = HRepresentation(
        pat,
        {
            0: frozenset({branch(0)}),
            1: frozenset({branch(0), sub(pat, 0, 1)}),
            2: frozenset({branch(1)}),
            3: frozenset({sub(pat, 0, 1), branch(1)}),
        },
    )
    g = SimpleGraph.from_edges(4, [(0, 2), (0, 3), (1, 3)])
    assert verify_representation(g, rep).mismatches == (
        (0, 1, False),
        (0, 2, True),
        (0, 3, True),
        (2, 3, False),
    )


def test_verify_requires_matching_domain():
    pat = _three_node_path_pattern()
    rep = HRepresentation(pat, {0: frozenset({branch(0)})})
    with pytest.raises(DomainMismatch):
        verify_representation(path_graph(2), rep)


def _with_faults(g, rep, rng):
    # up to three faults at random vertices: an unknown node, an empty set, a
    # node far from the set (so it is disconnected), an edge added or removed;
    # it returns node sets, not a representation, which refuses unknown nodes
    adjacency = rep.pattern.adjacency
    sets, edges = dict(rep.sets), set(g.edges)
    for _ in range(rng.randint(0, 3)):
        v = rng.randrange(g.n)
        fault = rng.choice(("unknown", "empty", "far", "edge"))
        if fault == "unknown":
            nodes = rep.pattern.node_count
            sets[v] = sets[v] | {rng.choice((nodes, nodes + 98, -1 - v))}
        elif fault == "empty":
            sets[v] = frozenset()
        elif fault == "far":
            near = sets[v].union(*(adjacency.get(nd, ()) for nd in sets[v]))
            far = [nd for nd in adjacency if nd not in near]
            if far:
                sets[v] = sets[v] | {rng.choice(far)}
        else:
            u = rng.randrange(g.n)
            if u != v:
                edges ^= {(min(u, v), max(u, v))}
    return SimpleGraph(g.n, frozenset(edges)), sets


def _verdict_or_error(verify, g, rep):
    try:
        return verify(g, rep)
    except (ValueError, DomainMismatch) as exc:
        return type(exc), str(exc)


def test_verify_matches_reference_on_faults():
    # the whole outcome must agree: the first disconnected vertex, a
    # disconnected set reported before any mismatch, and every mismatch in
    # order; a set with an unknown node is refused when the representation
    # is built, naming the least such vertex and its least unknown node
    rng = random.Random(41)
    cases = []
    for i in range(500):
        h = (random_tree_pattern(rng.randint(1, 6), rng), random_cactus(8, rng),
             wheel(4), complete_pattern(4))[i % 4]
        pat = random_subdivision(h, rng, 3)
        cases.append(random_representation(pat, rng.randint(1, 14), rng, 5))
    for i in range(20):
        h = (wheel(4), double_triangle())[i % 2]
        g = gnm(rng.randint(3, 6), rng.randint(2, 6), rng)
        cases.append(generate_hard_instance(g, h, find_tripartition(h)))
    seen = set()
    for g, rep in cases:
        g, sets = _with_faults(g, rep, rng)
        graphs = [g, SimpleGraph(g.n + 1, g.edges)][: 1 + (rng.random() < 0.1)]
        every = set(range(rep.pattern.node_count))
        unknown = [v for v in sorted(sets) if not sets[v] <= every]
        if unknown:
            v = unknown[0]
            nd = min(sets[v] - every)
            with pytest.raises(ValueError) as err:
                HRepresentation(rep.pattern, sets)
            assert str(err.value) == f"vertex {v} uses unknown pattern node {nd}"
            seen.add(ValueError)
            continue
        faulty = HRepresentation(rep.pattern, sets)
        want = [_verdict_or_error(verify_representation_reference, h, faulty) for h in graphs]
        assert [_verdict_or_error(verify_representation, h, faulty) for h in graphs] == want
        seen.add(want[0].kind)
    assert seen == {"ok", "disconnected", "mismatch", ValueError}, seen


def test_helly_on_tree_patterns():
    rng = random.Random(10)
    for _ in range(40):
        h = random_tree_pattern(rng.randint(1, 6), rng)
        pat = random_subdivision(h, rng, 3)
        _, rep = random_representation(pat, rng.randint(1, 12), rng, 5)
        assert helly_check(rep).kind == "helly"


def test_helly_violation_on_triangle_arcs():
    pat = SubdividedPattern(complete_pattern(3), (1, 1, 1))
    rep = HRepresentation(
        pat,
        {
            0: frozenset({branch(0), sub(pat, 0, 1), branch(1)}),
            1: frozenset({branch(1), sub(pat, 1, 1), branch(2)}),
            2: frozenset({branch(2), sub(pat, 2, 1), branch(0)}),
        },
    )
    report = helly_check(rep)
    assert report.kind == "violation"
    assert report.witness == (0, 1, 2)


def test_helly_overflow_on_cocktail_party_arcs():
    # K_{2x10} has 1024 maximal cliques on a 20-node cycle: the enumeration
    # stops at the 21st, which certifies that the arcs are not Helly
    rep = cocktail_party_representation(10)
    assert intersection_graph(rep) == complete_multipartite([2] * 10)
    assert rep.pattern.node_count == 20
    assert helly_check(rep) == HellyReport("overflow", 20, 21)


def test_helly_bound_is_the_pattern_node_count():
    # a 1500-vertex path as intervals of a 1501-node edge: more than 1000
    # maximal cliques (1499), within the node count
    rep = interval_path_representation(1500)
    assert helly_check(rep) == HellyReport("helly", 1501, 1499)
    # one isolated vertex per node meets the bound exactly
    rep = HRepresentation(rep.pattern, {v: {v} for v in range(1501)})
    assert helly_check(rep) == HellyReport("helly", 1501, 1501)


def test_hard_instance_k2_double_triangle():
    target, rep = generate_hard_instance(
        complete_graph(2), double_triangle(), find_tripartition(double_triangle())
    )
    # complement of the path (0, 2, 3, 1) is again a path
    assert target.edges == frozenset({(0, 1), (0, 3), (1, 2)})
    assert verify_representation(target, rep).is_ok


def test_hard_instance_k3_four_wheel():
    g = complete_graph(3)
    h = wheel(4)
    target, rep = generate_hard_instance(g, h, find_tripartition(h))
    sub9 = two_subdivision(g).result
    assert sub9.n == 9 and all(len(a) == 2 for a in sub9.adjacency)
    assert target == complement(sub9)
    assert verify_representation(target, rep).is_ok


def test_hard_instance_single_vertex():
    h = double_triangle()
    part = find_tripartition(h)
    target, rep = generate_hard_instance(SimpleGraph(1, frozenset()), h, part)
    assert target == SimpleGraph(1, frozenset())
    assert verify_representation(target, rep).is_ok
    # with no edges in g, the paths between parts 2 and 3 stay unsubdivided
    for k in part.connecting[PAIR_KEYS.index((1, 2))]:
        assert rep.pattern.counts[k] == 0


def test_hard_instance_rejects_invalid_partition():
    h = double_triangle()
    part = find_tripartition(h)
    broken = TriPartition(part.parts, (part.connecting[0], part.connecting[0], part.connecting[2]))
    with pytest.raises(InvalidPartition):
        generate_hard_instance(complete_graph(2), h, broken)


def test_hard_instance_nonadjacency_algebra():
    rng = random.Random(11)
    h = double_triangle()
    part = find_tripartition(h)
    for _ in range(15):
        n = rng.randint(2, 7)
        g = gnm(n, rng.randint(1, min(10, n * (n - 1) // 2)), rng)
        _, rep = generate_hard_instance(g, h, part)
        labeled = two_subdivision(g)
        m = g.m
        for i in range(n):
            for j in range(m):
                a_set = rep.sets[labeled.sub1(j)]
                b_set = rep.sets[labeled.sub2(j)]
                v_set = rep.sets[i]
                left, right = labeled.edge_order[j]
                assert v_set.isdisjoint(a_set) == (i == left)
                assert v_set.isdisjoint(b_set) == (i == right)
        for j in range(m):
            for jj in range(m):
                a_set = rep.sets[labeled.sub1(j)]
                b_set = rep.sets[labeled.sub2(jj)]
                assert a_set.isdisjoint(b_set) == (j == jj)


def test_hard_instance_on_disconnected_pattern():
    dt = double_triangle()
    h = Multigraph(5, dt.edges + ((3, 4),))
    part = find_tripartition(h)
    target, rep = generate_hard_instance(complete_graph(3), h, part)
    assert verify_representation(target, rep).is_ok


def test_hard_instance_random_sweep():
    rng = random.Random(12)
    patterns = [double_triangle(), wheel(4)]
    parts = [find_tripartition(h) for h in patterns]
    for _ in range(20):
        n = rng.randint(2, 8)
        g = gnm(n, rng.randint(0, min(14, n * (n - 1) // 2)), rng)
        for h, part in zip(patterns, parts):
            target, rep = generate_hard_instance(g, h, part)
            assert verify_representation(target, rep).is_ok


def test_hard_instance_matches_six_path_reference():
    """Equal targets, representations and emitted files on the gen-hard
    shape, on wheel(5) and K5, and on random multigraph patterns."""
    rng = random.Random(15)
    cases = []
    for h in (wheel(4), double_triangle()):
        for n in range(5, 9):
            cases.append((gnm(n, 2 * n, rng), h))
    for h in (wheel(5), complete_pattern(5)):
        for n in range(10):
            cases.append((gnp(n, rng.random(), rng), h))
    patterns = []
    while len(patterns) < 60:
        k = rng.randint(3, 7)
        h = Multigraph(k, tuple(
            (rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(5, 14))
        ))
        if find_tripartition(h) is not None:
            patterns.append(h)
    for i, h in enumerate(patterns):
        n = i % 10
        cases.append((gnp(n, 0.0 if i % 4 == 0 else rng.random(), rng), h))
    assert sum(g.m == 0 for g, _ in cases) >= 10
    for g, h in cases:
        part = find_tripartition(h)
        target, rep = generate_hard_instance(g, h, part)
        ref_target, ref_rep = generate_hard_instance_reference(g, h, part)
        assert (target, rep) == (ref_target, ref_rep), (g, h)
        assert emit_gr(target) == emit_gr(ref_target)
        assert emit_rep(rep, "h.hgr") == emit_rep(ref_rep, "h.hgr")


def test_td_from_interval_representation():
    rng = random.Random(13)
    k2 = Multigraph(2, ((0, 1),))
    profile = PatternProfile.compute(k2)
    assert profile.tw == 1
    for _ in range(25):
        pat = random_subdivision(k2, rng, 6)
        g, rep = random_representation(pat, rng.randint(1, 12), rng, 4)
        d = td_from_representation(g, rep, profile)
        validate_decomposition(g, d)
        omega = len(max_clique_bruteforce(g))
        assert d.width <= 2 * omega - 1


def test_td_from_subtree_representation_of_chordal_graph():
    rng = random.Random(14)
    for _ in range(25):
        h = random_tree_pattern(rng.randint(2, 6), rng)
        profile = PatternProfile.compute(h)
        assert profile.tw == 1
        pat = random_subdivision(h, rng, 3)
        g, rep = random_representation(pat, rng.randint(1, 12), rng, 5)
        d = td_from_representation(g, rep, profile)
        validate_decomposition(g, d)
        omega = len(max_clique_bruteforce(g))
        assert d.width <= 2 * omega - 1


def test_td_single_vertex_graph():
    k2 = Multigraph(2, ((0, 1),))
    pat = SubdividedPattern(k2, (0,))
    rep = HRepresentation(pat, {0: frozenset({branch(0)})})
    d = td_from_representation(
        SimpleGraph(1, frozenset()), rep, PatternProfile.compute(k2)
    )
    validate_decomposition(SimpleGraph(1, frozenset()), d)
    assert d.width == 0


def test_td_on_cyclic_patterns():
    rng = random.Random(15)
    for h in [complete_pattern(3), double_triangle(), wheel(4)]:
        profile = PatternProfile.compute(h)
        for _ in range(15):
            pat = random_subdivision(h, rng, 3)
            g, rep = random_representation(pat, rng.randint(1, 10), rng, 5)
            d = td_from_representation(g, rep, profile)
            validate_decomposition(g, d)
            omega = len(max_clique_bruteforce(g))
            assert d.width <= profile.bound(omega)


def test_td_parallel_pair_counts_as_cycle():
    # a subdivided parallel pair is a cycle: width 2 even for omega = 1
    pat = SubdividedPattern(cycle_pattern(2), (3, 3))
    sets = [branch(1), sub(pat, 0, 2), branch(0), sub(pat, 1, 2), sub(pat, 0, 3)]
    rep = HRepresentation(pat, {v: frozenset([nd]) for v, nd in enumerate(sets)})
    g = SimpleGraph(5, frozenset())
    profile = PatternProfile.compute(pat.base)
    assert profile.tw == 2
    d = td_from_representation(g, rep, profile)
    validate_decomposition(g, d)
    assert d.width <= profile.bound(1)


def test_td_from_representation_reuses_the_profile_order():
    # the subset DP runs once, in the profile; each decomposition is the one
    # built from the subdivision paths first, then the base's exact order
    h = wheel(4)
    profile = PatternProfile.compute(h)
    assert profile.tw == 3
    base_order = _exact_order(h.simple_graph())[1]
    rng = random.Random(18)
    cases = []
    for _ in range(10):
        pat = random_subdivision(h, rng, 3)
        cases.append((pat, *random_representation(pat, rng.randint(1, 10), rng, 5)))
    calls = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code is _exact_order.__code__:
            calls.append(frame)

    sys.setprofile(profiler)
    try:
        got = [td_from_representation(g, rep, profile) for pat, g, rep in cases]
    finally:
        sys.setprofile(None)
    assert calls == []
    for d, (pat, g, rep) in zip(got, cases):
        adjacency = subdivided_adjacency_reference(pat)
        graph = SimpleGraph.from_edges(
            len(adjacency), [(a, b) for a in adjacency for b in adjacency[a]]
        )
        order = list(range(h.n, len(adjacency))) + base_order
        node_dec = decomposition_from_order(graph, order)
        bags = tuple(
            frozenset(v for v in range(g.n) if rep.sets[v] & bag) for bag in node_dec.bags
        )
        assert d.bags == bags and d.tree_edges == node_dec.tree_edges


def _sweep_pattern(rng: random.Random) -> Multigraph:
    kind = rng.randrange(5)
    if kind == 0:
        return random_tree_pattern(rng.randint(1, 7), rng)
    if kind == 1:
        return random_cactus(rng.randint(1, 8), rng)
    if kind == 2:
        return rng.choice(
            [complete_pattern(4), double_triangle(), wheel(4),
             cycle_pattern(2), cycle_pattern(5)]
        )
    # multigraph: parallel edges, loops, isolated nodes, or no edges at all
    n = rng.randint(0, 7)
    m = rng.randint(0, 10) if n else 0
    return Multigraph(
        n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
    )


def test_td_random_pattern_sweep():
    rng = random.Random(17)
    profiles: dict[Multigraph, PatternProfile] = {}
    for _ in range(1500):
        h = _sweep_pattern(rng)
        if h not in profiles:
            profiles[h] = PatternProfile.compute(h)
        profile = profiles[h]
        pat = random_subdivision(h, rng, 3)
        graph, order = _pattern_order(pat, profile)
        node_dec = decomposition_from_order(graph, order)
        assert check_decomposition(graph, node_dec) == []
        assert node_dec.width <= profile.tw, (h, pat.counts)
        size = rng.randint(1, 8) if h.n else 0
        g, rep = random_representation(pat, size, rng, 4)
        d = td_from_representation(g, rep, profile)
        assert check_decomposition(g, d) == [], (h, pat.counts, rep.sets)
        omega = len(max_clique_bruteforce(g))
        assert d.width <= profile.bound(omega), (h, pat.counts, rep.sets)


def test_td_profile_must_match():
    k2 = Multigraph(2, ((0, 1),))
    pat = SubdividedPattern(k2, (0,))
    rep = HRepresentation(pat, {0: frozenset({branch(0)})})
    wrong = PatternProfile.compute(complete_pattern(3))
    with pytest.raises(DomainMismatch):
        td_from_representation(SimpleGraph(1, frozenset()), rep, wrong)


def test_intersection_graph_matches_construction():
    rng = random.Random(16)
    for _ in range(20):
        h = random_tree_pattern(rng.randint(1, 5), rng)
        pat = random_subdivision(h, rng, 2)
        g, rep = random_representation(pat, rng.randint(1, 9), rng, 4)
        assert intersection_graph(rep) == g
        assert verify_representation(g, rep).is_ok


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: SubdividedPattern(Multigraph(2, ((0, 1),)), ()),
         "one subdivision count per edge required"),
        (lambda: SubdividedPattern(Multigraph(2, ((0, 1),)), (-1,)),
         "subdivision counts must be non-negative"),
        (lambda: SubdividedPattern(Multigraph(2, ((0, 1), (1, 1))), (0, 2)),
         "loop edge 1 cannot be subdivided"),
        (lambda: cycle_pattern_for_length(2), "cycle needs at least 3 nodes"),
        (lambda: representation_from_cycle_arcs(ArcModel("path", 3, {0: (0, 1)})),
         "expected a cycle model"),
    ],
    ids=["count_per_edge", "negative_count", "subdivided_loop",
         "cycle_length_2", "path_model"],
)
def test_pattern_builders_reject_bad_input(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_intersection_graph_and_td_reject_bad_representations():
    pat = _three_node_path_pattern()
    sparse = HRepresentation(pat, {0: {branch(0)}, 2: {branch(1)}})
    with pytest.raises(DomainMismatch) as err:
        intersection_graph(sparse)
    assert str(err.value) == "representation domain must be dense 0-based"
    # two vertices that share a node but are not adjacent in the graph
    rep = HRepresentation(pat, {0: {branch(0)}, 1: {branch(0)}})
    with pytest.raises(InvalidRepresentation) as err:
        td_from_representation(empty_graph(2), rep, PatternProfile.compute(pat.base))
    assert str(err.value) == "representation failed verification"
    assert err.value.verdict.kind == "mismatch"
