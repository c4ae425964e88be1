import inspect
import random
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from helpers import (
    _classify_shape_reference,
    assert_clique,
    atoms_bruteforce,
    cactus_atom_arc_model_reference,
    cactus_omega_reference,
    carc_reference,
    carc_scan_reference,
    caterpillar_graph,
    clique_cactus_reference,
    has_clique_cutset,
    maximal_cliques_capped_reference,
    max_matching_size_bruteforce,
    maximal_cliques_reference,
    mcs_m_reference,
    random_chordal,
    sub,
    tree_clique_reference,
)
import hgraphs.clique as clique_module
from hgraphs.clique import (
    Atom,
    ArcModel,
    _arc_tables,
    _bipartite_max_independent,
    _carc_omega,
    _classify_shape,
    _dense,
    _mcs_m,
    _mcs_m_masks,
    cactus_atom_arc_model,
    carc_max_clique,
    clique_cactus,
    clique_cutset_decomposition,
    clique_helly,
    helly_check,
    maximal_cliques_capped,
    model_intersection_graph,
)
from hgraphs.core import (
    Multigraph,
    SimpleGraph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    induced_subgraph,
    max_clique_bruteforce,
    path_graph,
)
from hgraphs.errors import InvalidRepresentation, NotAnAtom, NotCactus
from hgraphs.formats import emit_hgr, emit_rep, parse_rep
from hgraphs.pattern import (
    PatternProfile,
    complete_pattern,
    cycle_pattern,
    double_triangle,
    find_tripartition,
    path_pattern,
    wheel,
)
from hgraphs.representation import (
    HRepresentation,
    SubdividedPattern,
    branch,
    generate_hard_instance,
    intersection_graph,
    td_from_representation,
    verify_representation,
)
from hgraphs.randgen import (
    gnm,
    gnp,
    random_arc_model,
    random_cactus,
    random_representation,
    random_subdivision,
    random_tree_pattern,
    representation_from_cycle_arcs,
)


def test_enumeration_p3():
    enum = maximal_cliques_capped(path_graph(3), 10)
    assert enum.complete and enum.cliques == ((0, 1), (1, 2))


def test_enumeration_octahedron():
    enum = maximal_cliques_capped(complete_multipartite([2, 2, 2]), 100)
    assert enum.complete and len(enum.cliques) == 8
    assert all(len(c) == 3 for c in enum.cliques)


def test_enumeration_cap_exceeded():
    enum = maximal_cliques_capped(complete_multipartite([2] * 20), 1000)
    assert not enum.complete
    assert len(enum.cliques) == 1001 and enum.cap == 1000


def test_enumeration_matches_reference():
    rng = random.Random(20)
    for _ in range(60):
        g = gnp(rng.randint(1, 9), rng.random(), rng)
        enum = maximal_cliques_capped(g, 10_000)
        assert enum.complete
        assert set(enum.cliques) == maximal_cliques_reference(g)
        assert list(enum.cliques) == sorted(enum.cliques)


def test_enumeration_of_a_large_clique_does_not_recurse():
    g = complete_graph(300)
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        enum = maximal_cliques_capped(g, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert enum.complete and enum.cliques == (tuple(range(300)),)


def test_enumeration_cap_validation():
    # cap 0 stops at the first clique; a negative cap raises
    enum = maximal_cliques_capped(path_graph(2), 0)
    assert not enum.complete and enum.masks == (0b11,)
    enum = maximal_cliques_capped(path_graph(0), 0)
    assert enum.complete and enum.masks == ()
    with pytest.raises(ValueError) as err:
        maximal_cliques_capped(path_graph(2), -1)
    assert str(err.value) == "cap must be at least 0"


def _hard_targets(rng, sizes, patterns):
    """gen-hard targets co-S2(G), G = gnm(n, 2n), with their Helly bounds."""
    for n in sizes:
        g = gnm(n, 2 * n, rng)
        for h in patterns:
            target, _ = generate_hard_instance(g, h, find_tripartition(h))
            yield target, h.n + h.m * target.n


def test_enumeration_emits_as_the_set_based_reference():
    rng = random.Random(22)
    cases = list(_hard_targets(rng, [5, 6, 7, 8] * 2, (wheel(4), double_triangle())))
    for _ in range(200):
        g = gnp(rng.randint(1, 30), rng.random(), rng)
        cases += [(g, cap) for cap in (1, 2, 7, 50, 10**6)]
    cases += [(random_chordal(rng.randint(100, 250), rng), 10**6) for _ in range(4)]
    cases.append((path_graph(900), 10**6))
    for g, cap in cases:
        enum = maximal_cliques_capped(g, cap)
        expected = maximal_cliques_capped_reference(g, cap)
        assert (enum.complete, enum.cliques) == (expected.complete, expected.cliques)


def test_helly_overflow_does_not_grow_traced_memory():
    h = wheel(4)
    targets = [t for t, _ in _hard_targets(random.Random(23), (6, 7, 8), (h,))]
    assert [t.n for t in targets] == [30, 35, 40]
    tracemalloc.start()
    try:
        for i in range(20):
            clique_helly(targets[i % 3], h)
        before = tracemalloc.get_traced_memory()[0]
        for i in range(30):
            clique_helly(targets[i % 3], h)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024, grown


def test_clique_helly_c6_triangle_pattern():
    result = clique_helly(cycle_graph(6), complete_pattern(3))
    assert result.bound == 3 + 3 * 6
    assert not result.exceeded
    assert result.count == 6 and len(result.clique) == 2


def test_clique_helly_rejects_cocktail_party():
    result = clique_helly(complete_multipartite([2] * 12), complete_pattern(3))
    assert result.bound == 3 + 3 * 24
    assert result.exceeded and result.count == result.bound + 1


def test_clique_helly_matches_oracle_on_subtree_graphs():
    rng = random.Random(21)
    for _ in range(30):
        h = random_tree_pattern(rng.randint(1, 6), rng)
        pat = random_subdivision(h, rng, 3)
        g, _ = random_representation(pat, rng.randint(1, 14), rng, 5)
        result = clique_helly(g, h)
        assert not result.exceeded
        assert len(result.clique) == len(max_clique_bruteforce(g))
        assert_clique(g, result.clique)


def test_clique_helly_picks_as_the_sorted_reference():
    # the first largest clique of the reference's sorted list, on graphs
    # with many maximum cliques of one size
    rng = random.Random(24)
    fat = Multigraph(2, ((0, 1),) * 1000)  # bound 2 + 1000n: never overflows
    graphs = [
        complete_multipartite([rng.randint(1, 3) for _ in range(rng.randint(1, 6))])
        for _ in range(50)
    ]
    graphs += [cycle_graph(n) for n in range(3, 53)]
    graphs += [gnp(rng.randint(1, 30), rng.random(), rng) for _ in range(60)]
    graphs += [random_chordal(rng.randint(1, 60), rng) for _ in range(40)]
    for g in graphs:
        expected = maximal_cliques_capped_reference(g, 2 + 1000 * g.n)
        assert expected.complete
        top = max(map(len, expected.cliques))
        first = next(c for c in expected.cliques if len(c) == top)
        result = clique_helly(g, fat)
        assert (result.clique, result.count) == (first, len(expected.cliques))
    g = complete_multipartite([2] * 12)
    result = clique_helly(g, complete_pattern(3))
    expected = maximal_cliques_capped_reference(g, result.bound)
    assert result.exceeded and result.count == len(expected.cliques)


def _check_helly_on_subdivided_trees(solve):
    # 50 representations of 200-2000 vertices on subdivided random trees,
    # about 1.25 sets per node, so omega stays near 6 and ties are common
    rng = random.Random(44)
    for i in range(50):
        n = 200 + 1800 * i // 49
        h = random_tree_pattern(round(n * 3.5 / (2.5 * 1.25)), rng)
        g, rep = random_representation(random_subdivision(h, rng), n, rng, 6)
        assert solve(g, h) == tree_clique_reference(rep), n


def test_clique_helly_meets_the_tree_identity():
    _check_helly_on_subdivided_trees(lambda g, h: clique_helly(g, h).clique)
    # a clique one vertex short fails the check
    with pytest.raises(AssertionError):
        _check_helly_on_subdivided_trees(lambda g, h: clique_helly(g, h).clique[1:])


def test_enumeration_builds_clique_tuples_only_when_read(monkeypatch):
    g = complete_multipartite([2] * 12)
    for cap in (10, 10**5):
        enum = maximal_cliques_capped(g, cap)
        assert "cliques" not in vars(enum)
        assert enum.cliques == maximal_cliques_capped_reference(g, cap).cliques
    seen = []

    def spy(g, cap):
        seen.append(maximal_cliques_capped(g, cap))
        return seen[-1]

    monkeypatch.setattr(clique_module, "maximal_cliques_capped", spy)
    assert clique_helly(g, complete_pattern(3)).exceeded
    assert not clique_helly(cycle_graph(6), complete_pattern(3)).exceeded
    assert all("cliques" not in vars(enum) for enum in seen)
    expected = maximal_cliques_capped_reference(g, seen[0].cap)
    assert seen[0].cliques == expected.cliques


def test_atoms_two_triangles():
    g = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    atoms = clique_cutset_decomposition(g).atoms
    assert [a.vertices for a in atoms] == [(0, 1, 2), (2, 3, 4)]


def test_atoms_path():
    # under a recursion limit 150 frames above the caller, which a
    # decomposition recursing once per split exceeds on the long path
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    for n in (4, 400):
        sys.setrecursionlimit(depth + 150)
        try:
            atoms = clique_cutset_decomposition(path_graph(n)).atoms
        finally:
            sys.setrecursionlimit(limit)
        assert [a.vertices for a in atoms] == [(i, i + 1) for i in range(n - 1)]


def test_atoms_long_path_in_time():
    start = time.perf_counter()
    atoms = clique_cutset_decomposition(path_graph(5000)).atoms
    elapsed = time.perf_counter() - start
    assert [a.vertices for a in atoms] == [(i, i + 1) for i in range(4999)]
    assert elapsed < 2.0, elapsed


def test_atoms_long_cycle_in_time():
    # MCS-M+ walks the whole remaining cycle at each numbering
    start = time.perf_counter()
    atoms = clique_cutset_decomposition(cycle_graph(3000)).atoms
    elapsed = time.perf_counter() - start
    assert [a.vertices for a in atoms] == [tuple(range(3000))]
    assert elapsed < 2.0, elapsed


def _mcs_m_from_masks(g: SimpleGraph):
    """(generators, later) rebuilt from the mask search's numbering order and
    raised masks: u's later set holds each vertex whose step raised u."""
    generators, order, raised = _mcs_m_masks(g)
    assert sorted(order) == list(range(g.n)) and len(raised) == g.n
    later = [set() for _ in range(g.n)]
    for v, up in zip(order, raised):
        while up:
            low = up & -up
            later[low.bit_length() - 1].add(v)
            up ^= low
    return generators, later


def test_mcs_m_matches_reference():
    # both searches; the mask search takes one round per vertex along a
    # path, so it stops at 300 vertices on the long thin graphs
    rng = random.Random(30)
    dense = 0
    for _ in range(2000):
        g = gnp(rng.randint(0, 30), rng.choice((0.05, 0.15, 0.3, 0.5, 0.8)), rng)
        dense += _dense(g)
        want = mcs_m_reference(g)
        assert _mcs_m(g) == want and _mcs_m_from_masks(g) == want, g
    assert 0 < dense < 2000
    for n in (3, 10, 100, 300, 2000):
        for g in (path_graph(n), cycle_graph(n), caterpillar_graph(n // 2, 1)):
            want = mcs_m_reference(g)
            assert _mcs_m(g) == want, g.n
            assert n > 300 or _mcs_m_from_masks(g) == want, g.n
    graphs = [gnp(80, p / 10, rng) for p in range(3, 10)]
    graphs += [model_intersection_graph(random_arc_model(60, 60, rng)) for _ in range(3)]
    for g in graphs:
        want = mcs_m_reference(g)
        assert _dense(g) and _mcs_m(g) == want and _mcs_m_from_masks(g) == want, g


def test_dense_atoms_build_no_adjacency_sets():
    # on dense graphs the cactus route reads g.masks alone
    rng = random.Random(32)
    r = representation_from_cycle_arcs(random_arc_model(40, 40, rng))
    g = intersection_graph(r)
    clique_cactus(g, r)
    assert "adjacency" not in vars(g)
    g = gnp(60, 0.5, rng)
    clique_cutset_decomposition(g)
    assert "adjacency" not in vars(g)


def test_sparse_atoms_build_no_masks():
    # on sparse graphs the atoms read adjacency sets alone: masks of a long
    # path would grow with n squared
    for g in (path_graph(300), caterpillar_graph(150, 1)):
        clique_cutset_decomposition(g)
        assert "masks" not in vars(g)
    g = path_graph(20000)
    tracemalloc.start()
    try:
        atoms = clique_cutset_decomposition(g).atoms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(atoms) == 19999
    assert peak < 20 * 2**20, peak


def test_atoms_chordless_cycle():
    atoms = clique_cutset_decomposition(cycle_graph(5)).atoms
    assert [a.vertices for a in atoms] == [(0, 1, 2, 3, 4)]


def test_atom_decomposition_invariants():
    assert clique_cutset_decomposition(empty_graph(0)).atoms == ()
    g = SimpleGraph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
    atoms = clique_cutset_decomposition(g).atoms
    assert [a.vertices for a in atoms] == [(0, 1, 2), (3, 4), (5,)]
    rng = random.Random(22)
    for _ in range(120):
        n = rng.randint(1, 12)
        g = gnp(n, rng.random(), rng)
        dec = clique_cutset_decomposition(g)
        if n <= 8:
            assert [a.vertices for a in dec.atoms] == atoms_bruteforce(g)
        assert len(dec.atoms) <= max(n, 1)
        covered_vertices = set()
        covered_edges = set()
        for atom in dec.atoms:
            covered_vertices.update(atom.vertices)
            sub_graph = induced_subgraph(g, atom.vertices)
            back = dict(enumerate(atom.vertices))
            covered_edges.update(
                tuple(sorted((back[x], back[y]))) for x, y in sub_graph.edges
            )
            assert not has_clique_cutset(sub_graph)
        assert covered_vertices == set(range(n))
        assert covered_edges == set(g.edges)
        for a, b in combinations(dec.atoms, 2):
            shared = set(a.vertices) & set(b.vertices)
            assert_clique(g, shared)


def _interval_pattern_representation(rng):
    pat = random_subdivision(path_pattern(2), rng, 6)
    return random_representation(pat, rng.randint(1, 10), rng, 4)


def test_arc_model_for_path_atom():
    rng = random.Random(23)
    for _ in range(20):
        g, rep = _interval_pattern_representation(rng)
        for atom in clique_cutset_decomposition(g).atoms:
            model = cactus_atom_arc_model(atom, rep)
            assert model.kind == "path"
            assert model_intersection_graph(_relabel(model)) == induced_subgraph(
                g, atom.vertices
            )


def _relabel(model: ArcModel) -> ArcModel:
    verts = sorted(model.arcs)
    return ArcModel(
        model.kind,
        model.length,
        {i: model.arcs[v] for i, v in enumerate(verts)},
    )


def test_arc_model_for_cycle_of_arcs():
    # triangle edges are indexed (0,1), (0,2), (1,2); 10-node cycle
    pat = SubdividedPattern(complete_pattern(3), (2, 3, 2))
    order = [
        branch(0), sub(pat, 0, 1), sub(pat, 0, 2), branch(1), sub(pat, 2, 1), sub(pat, 2, 2),
        branch(2), sub(pat, 1, 3), sub(pat, 1, 2), sub(pat, 1, 1),
    ]
    sets = {
        v: frozenset(order[p % 10] for p in range(2 * v, 2 * v + 3))
        for v in range(5)
    }
    g = cycle_graph(5)
    rep = HRepresentation(pat, sets)
    assert verify_representation(g, rep).is_ok
    (atom,) = clique_cutset_decomposition(g).atoms
    model = cactus_atom_arc_model(atom, rep)
    assert model.kind == "cycle" and len(model.arcs) == 5
    assert model_intersection_graph(_relabel(model)) == g


def test_arc_model_peels_figure_eight():
    # two digon cycles sharing branch node 0; the atom lives in the first
    h = Multigraph(3, ((0, 1), (0, 1), (0, 2), (0, 2)))
    pat = SubdividedPattern(h, (2, 2, 2, 2))
    cycle_one = [branch(0), sub(pat, 0, 1), sub(pat, 0, 2), branch(1), sub(pat, 1, 2), sub(pat, 1, 1)]
    sets = {
        0: frozenset(cycle_one[0:3] + [sub(pat, 2, 1)]),  # pokes into the second cycle
        1: frozenset(cycle_one[2:5]),
        2: frozenset(cycle_one[4:6] + cycle_one[0:1]),
    }
    g = complete_graph(3)
    rep = HRepresentation(pat, sets)
    assert verify_representation(g, rep).is_ok
    (atom,) = clique_cutset_decomposition(g).atoms
    model = cactus_atom_arc_model(atom, rep)
    assert model.kind == "cycle"
    assert model_intersection_graph(_relabel(model)) == g


def test_carc_three_long_arcs():
    model = ArcModel("cycle", 9, {0: (0, 5), 1: (3, 8), 2: (6, 2)})
    assert carc_max_clique(model) == (0, 1, 2)


def test_carc_cycle_of_four():
    model = ArcModel("cycle", 8, {0: (0, 2), 1: (2, 4), 2: (4, 6), 3: (6, 0)})
    assert len(carc_max_clique(model)) == 2


def test_carc_full_circle_arcs_join_everything():
    model = ArcModel("cycle", 6, {0: None, 1: (0, 1), 2: (3, 4), 3: None})
    got = carc_max_clique(model)
    assert len(got) == 3 and set(got) >= {0, 3}


@pytest.mark.parametrize(
    "model",
    [
        ArcModel("path", 6, {0: (0, 1), 1: (3, 5)}),
        ArcModel("cycle", 6, {0: (5, 1), 1: (2, 4)}),
        ArcModel("cycle", 6, {0: None, 1: (4, 0), 2: (1, 3)}),
    ],
    ids=["path", "wrapping", "full"],
)
def test_carc_answer_check_fires_on_disjoint_arcs(monkeypatch, model):
    # the scan handing back two arcs that miss each other must not pass
    monkeypatch.setattr(clique_module, "_first_candidate_above", lambda *_: 0b11)
    with pytest.raises(AssertionError, match="^candidate is not a clique$"):
        carc_max_clique(model)


@pytest.mark.parametrize(
    "model",
    [
        ArcModel("cycle", 6, {0: (4, 0), 1: (0, 2)}),  # meet at 0 only
        ArcModel("cycle", 6, {0: (5, 1), 1: (3, 5)}),  # meet at 5 only
        ArcModel("cycle", 6, {0: (5, 0), 1: (3, 1), 2: None}),
    ],
    ids=["first", "last", "both"],
)
def test_carc_answer_check_passes_wrapping_arcs_that_meet(monkeypatch, model):
    monkeypatch.setattr(clique_module, "_first_candidate_above", lambda *_: 0b11)
    assert carc_max_clique(model) == tuple(sorted(model.arcs))


def test_carc_matches_bruteforce():
    rng = random.Random(24)
    for trial in range(200):
        kind = "path" if trial % 4 == 0 else "cycle"
        model = random_arc_model(
            rng.randint(1, 14),
            rng.randint(3, 24),
            rng,
            kind=kind,
            full_fraction=0.1 if kind == "cycle" else 0.0,
        )
        got = carc_max_clique(model)
        want = max_clique_bruteforce(model_intersection_graph(model))
        assert len(got) == len(want)


def test_carc_matches_reference_tuples():
    # the same tuple as the frozenset reference, tie-breaks included
    rng = random.Random(27)
    for trial in range(500):
        kind = "path" if trial % 4 == 0 else "cycle"
        model = random_arc_model(
            rng.randint(1, 60),
            rng.randint(1, 60),
            rng,
            kind=kind,
            full_fraction=0.1 if kind == "cycle" else 0.0,
        )
        assert carc_max_clique(model) == carc_reference(model), model


def test_carc_interval_model_stops_at_the_largest_point_load():
    # an interval clique is at most the most arcs over one position (Helly),
    # and the scan stops at the first candidate that large: the pairs after
    # it took most of the 6.8 s an 800-arc model needed before
    model = random_arc_model(800, 800, random.Random(800), kind="path", full_fraction=0.05)
    spans = {v: model.positions(v) for v in model.arcs}
    load = max(sum(p in span for span in spans.values()) for p in range(model.length))
    start = time.perf_counter()
    got = carc_max_clique(model)
    assert time.perf_counter() - start < 4
    assert len(got) == load
    assert all(spans[u] & spans[v] for u, v in combinations(got, 2))


def _omega(model: ArcModel) -> int:
    # the clique number found by peeling, full-circle arcs added
    _, ends, through, disjoint = _arc_tables(model)
    full = sum(arc is None for arc in model.arcs.values())
    return full + (_carc_omega(ends, through, disjoint) if ends else 0)


def test_carc_matches_the_endpoint_scan():
    # the scan from nothing returns the first pair reaching omega, and so
    # must the scan that knows omega first
    rng = random.Random(30)
    for trial in range(2000):
        kind = "path" if trial % 4 == 0 else "cycle"
        model = random_arc_model(
            rng.randint(1, 60),
            rng.randint(1, 60),
            rng,
            kind=kind,
            full_fraction=(0.0, 0.05, 0.3)[trial % 3] if kind == "cycle" else 0.0,
        )
        assert carc_max_clique(model) == carc_scan_reference(model), model
    for n in (100, 110, 120, 135, 150):
        model = random_arc_model(n, n, rng, kind="path" if n == 120 else "cycle")
        assert carc_max_clique(model) == carc_scan_reference(model), model


def test_carc_omega_matches_bruteforce():
    rng = random.Random(31)
    for trial in range(40):
        kind = "path" if trial % 4 == 0 else "cycle"
        model = random_arc_model(
            rng.randint(1, 20),
            rng.randint(1, 30),
            rng,
            kind=kind,
            full_fraction=0.1 if kind == "cycle" else 0.0,
        )
        want = max_clique_bruteforce(model_intersection_graph(model))
        assert _omega(model) == len(want), model


def _edge_case_models(rng):
    # tied shortest arcs: every arc spans the same number of positions
    for _ in range(30):
        length, span = rng.randint(3, 20), rng.randint(0, 6)
        starts = [rng.randrange(length) for _ in range(rng.randint(2, 14))]
        arcs = {v: (s, (s + span) % length) for v, s in enumerate(starts)}
        yield ArcModel("cycle", length, arcs)
    # one-position arcs, alone and among longer arcs
    for _ in range(30):
        length = rng.randint(1, 12)
        model = random_arc_model(rng.randint(0, 10), length, rng, full_fraction=0.1)
        arcs = dict(model.arcs)
        for _ in range(rng.randint(1, 6)):
            p = rng.randrange(length)
            arcs[len(arcs)] = (p, p)
        yield ArcModel("cycle", length, arcs)
    # arcs that each miss one or two positions, each position missed by
    # one: from five positions up they pairwise meet, yet share none
    for _ in range(30):
        length = rng.randint(3, 10)
        arcs = {}
        for v in range(rng.randint(length, 12)):
            s = (v + 1) % length if v < length else rng.randrange(length)
            arcs[v] = (s, (s + length - rng.choice((2, 3))) % length)
        yield ArcModel("cycle", length, arcs)
    yield ArcModel("cycle", 5, {0: None, 1: None, 2: None})
    yield ArcModel("cycle", 6, {0: None, 1: (4, 1), 2: None})
    yield ArcModel("cycle", 6, {0: (3, 3)})
    yield ArcModel("path", 6, {0: (2, 5)})


def test_carc_peel_edge_cases():
    non_helly = 0
    for model in _edge_case_models(random.Random(32)):
        got = carc_max_clique(model)
        assert got == carc_reference(model), model
        want = max_clique_bruteforce(model_intersection_graph(model))
        assert len(got) == _omega(model) == len(want), model
        spans = [model.positions(v) for v in got]
        non_helly += bool(got) and not frozenset.intersection(*spans)
    # the models reach the case the peel exists for: no common position
    assert non_helly > 20


def test_carc_cycle_model_of_300_arcs_within_a_second():
    # the endpoint scan from nothing took 2.5-4.4 s on this model
    model = random_arc_model(300, 600, random.Random(7), full_fraction=0.05)
    start = time.perf_counter()
    got = carc_max_clique(model)
    assert time.perf_counter() - start < 1
    assert len(got) == _omega(model)
    assert_clique(model_intersection_graph(model), got)


def _random_cactus_representations(count: int = 16):
    # clique atoms, and atoms whose degree bound cannot beat the best clique
    # so far, skip the arc model, so it takes the first 24 graphs of this
    # stream for more than 8 atoms to reach carc_max_clique
    rng = random.Random(28)
    for _ in range(count):
        h = random_cactus(rng.randint(2, 8), rng)
        pat = random_subdivision(h, rng, 3)
        yield random_representation(pat, rng.randint(20, 40), rng, 6)


def test_parsed_representations_never_build_node_tuples(monkeypatch):
    # a parsed .rep holds node numbers, the one form of a pattern node, and
    # verify, the cactus route, the intersection graph, the Helly check and
    # the decomposition give it the answers of the representation it was
    # written from
    cases = []
    for g, rep in _random_cactus_representations(24):
        text, pattern_text = emit_rep(rep, "p.hgr"), emit_hgr(rep.pattern.base)
        expected = (clique_cactus(g, rep), helly_check(rep))
        cases.append((g, text, pattern_text, expected))
    models = []
    monkeypatch.setattr(
        clique_module, "carc_max_clique",
        lambda model: models.append(model) or carc_max_clique(model),
    )
    for g, text, pattern_text, expected in cases:
        rep = parse_rep(text, pattern_text)
        assert verify_representation(g, rep).is_ok
        assert (clique_cactus(g, rep), helly_check(rep)) == expected
        assert intersection_graph(rep) == g
        td_from_representation(g, rep, PatternProfile.compute(rep.pattern.base))
    assert len(models) > 8
    # built in code, a representation refuses a node outside its pattern
    monkeypatch.undo()
    pat = SubdividedPattern(Multigraph(2, ((0, 1),)), (1,))
    x, y = 3, -1
    sets = {
        0: frozenset({branch(0), x}), 1: frozenset({x, y}), 2: frozenset({y}),
        3: frozenset({sub(pat, 0, 1), branch(1)}),
    }
    with pytest.raises(ValueError, match=r"^vertex 0 uses unknown pattern node 3$"):
        HRepresentation(pat, sets)


def test_carc_matches_reference_inside_clique_cactus(monkeypatch):
    seen = []

    def checked(model):
        got = carc_max_clique(model)
        assert got == carc_reference(model), model
        seen.append(model)
        return got

    monkeypatch.setattr(clique_module, "carc_max_clique", checked)
    for g, rep in _random_cactus_representations(24):
        clique_cactus(g, rep)
    assert len(seen) > 8


def test_clique_atoms_answer_what_their_arc_models_give():
    # clique_cactus takes a clique atom's vertices as its maximum clique;
    # the arc model it skips must build and give that same tuple
    cliques = 0
    for g, rep in _random_cactus_representations():
        for atom in clique_cutset_decomposition(g).atoms:
            vs = atom.vertices
            if any(v not in g.adjacency[u] for u, v in combinations(vs, 2)):
                continue
            model = cactus_atom_arc_model(atom, rep)
            assert carc_max_clique(model) == vs == carc_reference(model), model
            cliques += 1
    assert cliques > 100


def test_carc_interval_models_beyond_bruteforce():
    # intervals are Helly: omega is the most intervals covering one position
    rng = random.Random(29)
    for n in (100, 200, 400):
        model = random_arc_model(n, rng.randint(n // 2, 2 * n), rng, kind="path")
        cover = [0] * model.length
        for s, t in model.arcs.values():
            for x in range(s, t + 1):
                cover[x] += 1
        got = carc_max_clique(model)
        assert len(got) == max(cover)
        assert_clique(model_intersection_graph(model), got)


def test_bipartite_matching_follows_a_long_augmenting_path():
    # left u_i has row {w_i, w_i+1} and is processed from u_2999 down, so
    # all of them match straight; a last left vertex with row {w_0} then
    # needs the augmenting path through every u_i, far past the limit
    chain = 3000
    u = [chain - 1 - i for i in range(chain)]
    extra = chain
    w = [chain + 1 + i for i in range(chain + 1)]
    rows = {u[i]: 1 << w[i] | 1 << w[i + 1] for i in range(chain)}
    rows[extra] = 1 << w[0]
    left = (1 << (chain + 1)) - 1
    right = sum(1 << x for x in w)
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        independent = _bipartite_max_independent(left, right, rows)
    finally:
        sys.setrecursionlimit(limit)
    # a perfect matching leaves no left vertex reachable, so every right
    # vertex is kept
    assert independent == right


def test_clique_cactus_on_interval_representations():
    rng = random.Random(25)
    for _ in range(25):
        g, rep = _interval_pattern_representation(rng)
        got = clique_cactus(g, rep)
        assert len(got) == len(max_clique_bruteforce(g))
        assert_clique(g, got)


def test_clique_cactus_on_identity_cycle():
    pat = SubdividedPattern(cycle_pattern(5), (0,) * 5)
    sets = {
        v: frozenset({branch(v), branch((v + 1) % 5)}) for v in range(5)
    }
    g = cycle_graph(5)
    rep = HRepresentation(pat, sets)
    assert len(clique_cactus(g, rep)) == 2


def test_clique_cactus_on_empty_graph():
    rep = HRepresentation(SubdividedPattern(cycle_pattern(5), (0,) * 5), {})
    assert clique_cactus(empty_graph(0), rep) == ()


def test_clique_cactus_random_representations():
    rng = random.Random(26)
    for _ in range(60):
        h = random_cactus(rng.randint(1, 7), rng)
        pat = random_subdivision(h, rng, 2)
        g, rep = random_representation(pat, rng.randint(1, 14), rng, 5)
        got = clique_cactus(g, rep)
        assert len(got) == len(max_clique_bruteforce(g))
        assert_clique(g, got)


def _cactus_clique_like_inputs(rng: random.Random):
    # the benchmark's three classes: representations on random subdivided
    # cacti, circular-arc models on a subdivided triangle, and caterpillars
    for _ in range(40):
        size = rng.randint(60, 150)
        pat = random_subdivision(random_cactus(size // 3, rng), rng)
        yield random_representation(pat, size, rng, 6)
    for _ in range(40):
        size = rng.randint(30, 50)
        rep = representation_from_cycle_arcs(random_arc_model(size, size, rng))
        yield intersection_graph(rep), rep
    for _ in range(10):
        yield _caterpillar_intervals(rng.randint(150, 200), rng)


def _tied_rings(rng: random.Random):
    # rings hung on one another, each carrying the sets of its consecutive
    # node pairs (an induced cycle: inner degree 2, clique number 2) or
    # random arcs, plus pendant nodes each held by two sets (a clique atom
    # of 2): many atoms tie on size, and the vertices are numbered at random
    edges, sets, n = [], [], 0
    for j in range(rng.randint(2, 6)):
        size = rng.randint(4, 8)
        ring = list(range(n, n + size))
        n += size
        edges += zip(ring, ring[1:] + ring[:1])
        if j:
            edges.append((rng.randrange(ring[0]), ring[0]))
        if rng.random() < 0.5:
            sets += [frozenset({branch(x), branch(y)}) for x, y in zip(ring, ring[1:] + ring[:1])]
        else:
            for _ in range(rng.randint(size - 1, size + 2)):
                start, span = rng.randrange(size), rng.randint(1, 3)
                sets.append(frozenset(branch(ring[(start + i) % size]) for i in range(span)))
        for _ in range(rng.randint(0, 2)):
            edges.append((rng.choice(ring), n))
            sets += [frozenset({branch(n)})] * 2
            n += 1
    rng.shuffle(sets)
    pat = SubdividedPattern(Multigraph(n, tuple(edges)), (0,) * len(edges))
    rep = HRepresentation(pat, dict(enumerate(sets)))
    return intersection_graph(rep), rep


def test_clique_cactus_matches_reference_on_benchmark_like_inputs():
    # the atom skip must keep the answer, ties included: on the benchmark's
    # classes a skipped atom rarely ties the best clique, so tied rings are
    # added, on which a skip of every atom whose bound equals the best size
    # answers wrong 15 times in 200
    for g, rep in _cactus_clique_like_inputs(random.Random(33)):
        assert clique_cactus(g, rep) == clique_cactus_reference(g, rep), rep
    rng = random.Random(38)
    for _ in range(200):
        g, rep = _tied_rings(rng)
        assert clique_cactus(g, rep) == clique_cactus_reference(g, rep), rep


def test_clique_cactus_skips_most_arc_models(monkeypatch):
    # atoms whose degree bound cannot beat the best clique so far build no
    # arc model; on the benchmark's cactus class most of them are skipped
    built = []

    def counted(atom, rep):
        built.append(atom)
        return cactus_atom_arc_model(atom, rep)

    monkeypatch.setattr(clique_module, "cactus_atom_arc_model", counted)
    rng = random.Random(34)
    others = 0
    for _ in range(40):
        size = rng.randint(60, 150)
        pat = random_subdivision(random_cactus(size // 3, rng), rng)
        g, rep = random_representation(pat, size, rng, 6)
        clique_cactus(g, rep)
        for atom in clique_cutset_decomposition(g).atoms:
            vs = atom.vertices
            others += any(v not in g.adjacency[u] for u, v in combinations(vs, 2))
    assert others > 100
    assert len(built) < others / 2, (len(built), others)


def test_cactus_omega_reference_matches_bruteforce():
    rng = random.Random(35)
    beyond_load = 0
    for _ in range(300):
        h = random_cactus(rng.randint(1, 8), rng)
        pat = random_subdivision(h, rng, 3)
        g, rep = random_representation(pat, rng.randint(1, 16), rng, 6)
        omega = len(max_clique_bruteforce(g))
        assert cactus_omega_reference(rep) == omega, rep
        load = Counter(x for nodes in rep.sets.values() for x in nodes)
        beyond_load += omega > max(load.values(), default=0)
    assert beyond_load > 5


def _hub_representation(size: int, rng: random.Random):
    # a random subdivided cactus with a 12-node ring hung on node 0 that
    # carries 60 random arcs of 5 to 11 nodes among the grown sets: their
    # circular-arc cliques often beat every node's load
    h = random_cactus(size // 3, rng)
    ring = [0] + list(range(h.n, h.n + 11))
    edges = h.edges + tuple(zip(ring, ring[1:] + ring[:1]))
    counts = tuple(rng.randint(0, 3) for _ in h.edges) + (0,) * len(ring)
    g, rep = random_representation(
        SubdividedPattern(Multigraph(h.n + 11, edges), counts), size - 60, rng, 6
    )
    sets = dict(rep.sets)
    for v in range(size - 60, size):
        start, span = rng.randrange(12), rng.randint(5, 11)
        sets[v] = frozenset(branch(ring[(start + i) % 12]) for i in range(span))
    rep = HRepresentation(rep.pattern, sets)
    return intersection_graph(rep), rep


def test_clique_cactus_matches_cactus_omega_beyond_bruteforce():
    # omega from the construction: the most sets on one node, or a cycle
    # block's arc-model clique number
    rng = random.Random(36)
    beyond_load = 0
    for k in range(50):
        size = 200 + 1800 * k // 49
        if k % 2:
            g, rep = _hub_representation(size, rng)
        else:
            pat = random_subdivision(random_cactus(size // 3, rng), rng)
            g, rep = random_representation(pat, size, rng, 6)
        got = clique_cactus(g, rep)
        omega = cactus_omega_reference(rep)
        assert len(got) == omega, size
        assert_clique(g, got)
        load = Counter(x for nodes in rep.sets.values() for x in nodes)
        beyond_load += omega > max(load.values())
    assert beyond_load > 10


def _non_atom_fixtures():
    # (graph, representation, whether verify accepts it).  Two cycles at a shared branch node; the middle vertex holds the cut
    # node while its neighbors fill different cycles, so the union peels at
    # the cut node with carriers on both sides: a clique cutset in disguise
    h = Multigraph(3, ((0, 1), (0, 1), (0, 2), (0, 2)))
    pat = SubdividedPattern(h, (2, 2, 2, 2))
    cycle_one_rest = {sub(pat, 0, 1), sub(pat, 0, 2), branch(1), sub(pat, 1, 2), sub(pat, 1, 1)}
    cycle_two_rest = {sub(pat, 2, 1), sub(pat, 2, 2), branch(2), sub(pat, 3, 2), sub(pat, 3, 1)}
    sets = {
        0: frozenset(cycle_one_rest),
        1: frozenset({sub(pat, 0, 1), branch(0), sub(pat, 2, 1)}),
        2: frozenset(cycle_two_rest),
    }
    yield path_graph(3), HRepresentation(pat, sets), True
    # a union with no cut node that is neither a path nor a cycle: the four
    # branch nodes of K4, each pair held by one set
    pat = SubdividedPattern(complete_pattern(4), (0,) * 6)
    pairs = enumerate(combinations(range(4), 2))
    rep = HRepresentation(pat, {v: frozenset(map(branch, e)) for v, e in pairs})
    yield intersection_graph(rep), rep, True
    # sets that are not connected: two ends of a path, and two arcs of a cycle
    pat = SubdividedPattern(path_pattern(2), (3,))
    ends = {0: frozenset({branch(0), sub(pat, 0, 2)}), 1: frozenset({sub(pat, 0, 1)})}
    yield complete_graph(2), HRepresentation(pat, ends), False
    pat = SubdividedPattern(cycle_pattern(3), (1, 1, 1))
    ring = [branch(0), sub(pat, 0, 1), branch(1), sub(pat, 1, 1), branch(2), sub(pat, 2, 1)]
    arcs = [ring[:2] + ring[3:5], ring[1:3], ring[4:]]
    rep = HRepresentation(pat, dict(enumerate(map(frozenset, arcs))))
    yield complete_graph(3), rep, False


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)],  # two cycles
    [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)],  # a path and a cycle
])
def test_classify_shape_rejects_a_disconnected_union(edges):
    g = SimpleGraph.from_edges(7, edges)
    assert _classify_shape((1 << 7) - 1, g.masks) is None
    assert _classify_shape_reference(list(range(7)), g.adjacency) is None


def test_arc_model_rejects_non_atom():
    # where verify accepts the representation, the NotAnAtom comes from the
    # peel's cut logic and not from an invalid input
    for g, rep, valid in _non_atom_fixtures():
        assert verify_representation(g, rep).is_ok == valid
        with pytest.raises(NotAnAtom):
            cactus_atom_arc_model(Atom(tuple(range(g.n))), rep)


def test_arc_models_match_the_tuple_peel():
    # node-index masks peel as tuple sets did: the same smallest cut node,
    # the same part kept and the same walk, so every arc is where it was;
    # carc_max_clique breaks ties by arc position, so sizes alone would not
    # show a moved arc.  Clique atoms, which clique_cactus does not peel,
    # are compared too: only they peel to paths, and only a clique's union
    # can leave no set avoiding the cut node
    rng = random.Random(45)
    cases = list(_random_cactus_representations(24))
    cases += [_tied_rings(rng) for _ in range(200)]
    cases += [_hub_representation(size, rng) for size in range(200, 1201, 200)]
    kinds = Counter()
    for g, rep in cases:
        for atom in clique_cutset_decomposition(g).atoms:
            vs = atom.vertices
            clique = all(v in g.adjacency[u] for u, v in combinations(vs, 2))
            want = cactus_atom_arc_model_reference(atom, rep)
            assert cactus_atom_arc_model(atom, rep) == want, (atom, rep)
            kinds[clique, want.kind] += 1
    assert kinds[False, "cycle"] > 400 and kinds[True, "path"] > 400, kinds
    for g, rep, _ in _non_atom_fixtures():
        atom = Atom(tuple(range(g.n)))
        with pytest.raises(NotAnAtom) as want:
            cactus_atom_arc_model_reference(atom, rep)
        with pytest.raises(NotAnAtom) as got:
            cactus_atom_arc_model(atom, rep)
        assert str(got.value) == str(want.value)


def test_pattern_graph_keeps_no_masks():
    # int masks on a long path take about n²/2 bits, so verify, the peel, the
    # width certificate and the cycle re-encoding each build their own and
    # let them go: a pattern keeps only its graph's edges
    reps = []
    for g, rep in _random_cactus_representations(4):
        assert verify_representation(g, rep).is_ok
        for atom in clique_cutset_decomposition(g).atoms:
            cactus_atom_arc_model(atom, rep)
        td_from_representation(g, rep, PatternProfile.compute(rep.pattern.base))
        reps.append(rep)
    model = random_arc_model(12, 9, random.Random(3))
    reps.append(representation_from_cycle_arcs(model))
    for rep in reps:
        assert rep.pattern.graph.n and "masks" not in vars(rep.pattern.graph)


def _caterpillar_intervals(n: int, rng: random.Random):
    # a caterpillar on n vertices as intervals of one subdivided edge: each
    # spine vertex shares one node with each spine neighbour, and each of its
    # 0 to 2 leaves owns one node inside it
    positions: list[range] = []
    edges = []
    start = spine = 0
    while len(positions) < n:
        if positions:
            edges.append((spine, len(positions)))
        spine = len(positions)
        leaves = min(rng.randint(0, 2), n - spine - 1)
        positions.append(range(start, start + leaves + 2))
        for k in range(leaves):
            edges.append((spine, len(positions)))
            positions.append(range(start + 1 + k, start + 2 + k))
        start += leaves + 1
    pattern = SubdividedPattern(Multigraph(2, ((0, 1),)), (start - 1,))
    order = [branch(0)] + pattern.path_from(0, 0) + [branch(1)]
    sets = {v: frozenset(order[p] for p in ps) for v, ps in enumerate(positions)}
    return SimpleGraph.from_edges(n, edges), HRepresentation(pattern, sets)


def test_clique_cactus_long_caterpillar_in_time():
    # 5000 sets, about 12.5 million pairs: no step may test every pair
    g, rep = _caterpillar_intervals(5000, random.Random(12))
    assert intersection_graph(rep) == g
    start = time.perf_counter()
    best = clique_cactus(g, rep)
    elapsed = time.perf_counter() - start
    assert best == (0, 1)
    assert elapsed < 0.5, elapsed


def test_clique_cactus_rejects_non_cactus_pattern():
    pat = SubdividedPattern(double_triangle(), (0,) * 6)
    rep = HRepresentation(pat, {0: frozenset({branch(0)})})
    with pytest.raises(NotCactus):
        clique_cactus(SimpleGraph(1, frozenset()), rep)


def test_clique_cactus_propagates_verifier_failure():
    pat = SubdividedPattern(path_pattern(2), (0,))
    rep = HRepresentation(
        pat, {0: frozenset({branch(0)}), 1: frozenset({branch(1)})}
    )
    with pytest.raises(InvalidRepresentation):
        clique_cactus(complete_graph(2), rep)


def test_bipartite_max_independent_is_the_matching_formula():
    # the answer is A | (R - N(A)), A the left vertices u with nu(G - u) =
    # nu(G), so it depends on no matching order; nu comes from a brute force
    # over all matchings.  Rows may hold bits outside the right side, and
    # some vertices lie on neither side.
    rng = random.Random(31)
    for _ in range(3000):
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        size = a + b + 2
        vertices = rng.sample(range(size), size)
        lefts, rights = vertices[:a], vertices[a : a + b]
        p = rng.random()
        rows = [sum(1 << x for x in range(size) if rng.random() < p) for _ in range(size)]
        nbrs = {u: {w for w in rights if rows[u] >> w & 1} for u in lefts}
        nu = max_matching_size_bruteforce(nbrs)
        kept = [
            u for u in lefts
            if max_matching_size_bruteforce({x: r for x, r in nbrs.items() if x != u}) == nu
        ]
        covered = set().union(*[nbrs[u] for u in kept])
        expected = sum(1 << x for x in kept + [w for w in rights if w not in covered])
        left, right = sum(1 << u for u in lefts), sum(1 << w for w in rights)
        assert _bipartite_max_independent(left, right, rows) == expected, (lefts, rights, rows)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ArcModel("path", 4, {0: (3, 1)}).positions(0), "path arcs cannot wrap"),
        (lambda: carc_max_clique(ArcModel("path", 4, {0: (0, 2), 1: (3, 1)})),
         "path arcs cannot wrap"),
        (lambda: model_intersection_graph(ArcModel("path", 4, {0: (0, 1), 2: (1, 2)})),
         "arc model vertices must be dense 0-based"),
    ],
    ids=["positions", "carc", "intersection_graph"],
)
def test_arc_model_input_checks(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
