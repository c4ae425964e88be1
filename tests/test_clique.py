import inspect
import random
import sys
from itertools import combinations

import pytest

from helpers import assert_clique, has_clique_cutset, maximal_cliques_reference
from hgraphs.clique import (
    ArcModel,
    cactus_atom_arc_model,
    carc_max_clique,
    clique_cactus,
    clique_cutset_decomposition,
    clique_helly,
    maximal_cliques_capped,
    model_intersection_graph,
)
from hgraphs.core import (
    Multigraph,
    SimpleGraph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    max_clique_bruteforce,
    path_graph,
)
from hgraphs.errors import InvalidRepresentation, NotCactus
from hgraphs.pattern import complete_pattern, cycle_pattern, double_triangle, path_pattern
from hgraphs.representation import (
    HRepresentation,
    SubdividedPattern,
    branch,
    sub,
    verify_representation,
)
from hgraphs.randgen import (
    gnp,
    random_arc_model,
    random_cactus,
    random_representation,
    random_subdivision,
    random_tree_pattern,
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
    with pytest.raises(ValueError):
        maximal_cliques_capped(path_graph(2), 0)


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


def test_atoms_two_triangles():
    g = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    atoms = clique_cutset_decomposition(g).atoms
    assert [a.vertices for a in atoms] == [(0, 1, 2), (2, 3, 4)]


def test_atoms_path():
    atoms = clique_cutset_decomposition(path_graph(4)).atoms
    assert [a.vertices for a in atoms] == [(0, 1), (1, 2), (2, 3)]


def test_atoms_chordless_cycle():
    atoms = clique_cutset_decomposition(cycle_graph(5)).atoms
    assert [a.vertices for a in atoms] == [(0, 1, 2, 3, 4)]


def test_atom_decomposition_invariants():
    rng = random.Random(22)
    for _ in range(120):
        n = rng.randint(1, 12)
        g = gnp(n, rng.random(), rng)
        dec = clique_cutset_decomposition(g)
        assert len(dec.atoms) <= max(n, 1)
        covered_vertices = set()
        covered_edges = set()
        for atom in dec.atoms:
            covered_vertices.update(atom.vertices)
            back = dict(enumerate(atom.vertices))
            covered_edges.update(
                tuple(sorted((back[x], back[y]))) for x, y in atom.graph.edges
            )
            assert not has_clique_cutset(atom.graph)
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
            assert model_intersection_graph(_relabel(model)) == atom.graph


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
        branch(0), sub(0, 1), sub(0, 2), branch(1), sub(2, 1), sub(2, 2),
        branch(2), sub(1, 3), sub(1, 2), sub(1, 1),
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
    cycle_one = [branch(0), sub(0, 1), sub(0, 2), branch(1), sub(1, 2), sub(1, 1)]
    sets = {
        0: frozenset(cycle_one[0:3] + [sub(2, 1)]),  # pokes into the second cycle
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


def test_clique_cactus_random_representations():
    rng = random.Random(26)
    for _ in range(60):
        h = random_cactus(rng.randint(1, 7), rng)
        pat = random_subdivision(h, rng, 2)
        g, rep = random_representation(pat, rng.randint(1, 14), rng, 5)
        got = clique_cactus(g, rep)
        assert len(got) == len(max_clique_bruteforce(g))
        assert_clique(g, got)


def test_arc_model_rejects_non_atom():
    from hgraphs.clique import Atom
    from hgraphs.errors import NotAnAtom

    # two cycles at a shared branch node; the middle vertex holds the cut
    # node while its neighbors fill different cycles, so the union peels at
    # the cut node with carriers on both sides: a clique cutset in disguise
    h = Multigraph(3, ((0, 1), (0, 1), (0, 2), (0, 2)))
    pat = SubdividedPattern(h, (2, 2, 2, 2))
    cycle_one_rest = {sub(0, 1), sub(0, 2), branch(1), sub(1, 2), sub(1, 1)}
    cycle_two_rest = {sub(2, 1), sub(2, 2), branch(2), sub(3, 2), sub(3, 1)}
    sets = {
        0: frozenset(cycle_one_rest),
        1: frozenset({sub(0, 1), branch(0), sub(2, 1)}),
        2: frozenset(cycle_two_rest),
    }
    g = path_graph(3)
    rep = HRepresentation(pat, sets)
    assert verify_representation(g, rep).is_ok
    fake_atom = Atom((0, 1, 2), g)
    with pytest.raises(NotAnAtom):
        cactus_atom_arc_model(fake_atom, rep)


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
