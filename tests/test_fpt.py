import random
import time

import pytest
from hypothesis import given, settings

from conftest import simple_graphs
from helpers import assert_clique, coloring_is_proper, maximal_cliques_reference
from hgraphs.core import (
    SimpleGraph,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    full_lists,
    induced_subgraph,
    list_coloring_bruteforce,
    max_clique_bruteforce,
    path_graph,
    petersen_graph,
)
from hgraphs.errors import InvalidDecomposition, ListColorOutOfRange
from hgraphs.fpt import (
    TreeDecomposition,
    check_decomposition,
    decomposition_from_order,
    degeneracy,
    exact_decomposition,
    k_clique,
    k_clique_bounded,
    list_k_coloring,
    make_nice,
    max_clique_decomposed,
    minfill_order,
    tree_decomposition,
    validate_decomposition,
)
from hgraphs.pattern import double_triangle, find_tripartition, wheel
from hgraphs.randgen import gnm, gnp, random_lists
from hgraphs.representation import generate_hard_instance


def _covered_pairs(bags):
    pairs = set()
    for bag in bags:
        verts = sorted(bag)
        pairs.update(
            (u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]
        )
    return pairs


def test_validator_rejects_bad_decompositions():
    g = path_graph(3)
    ok = TreeDecomposition((frozenset({0, 1}), frozenset({1, 2})), ((0, 1),))
    assert check_decomposition(g, ok) == []
    missing_vertex = TreeDecomposition((frozenset({0, 1}),), ())
    assert check_decomposition(g, missing_vertex) == [
        "vertex 2 in no bag",
        "edge (1,2) not covered by any bag",
    ]
    uncovered_edge = TreeDecomposition(
        (frozenset({0, 1}), frozenset({2})), ((0, 1),)
    )
    assert check_decomposition(g, uncovered_edge) == [
        "edge (1,2) not covered by any bag"
    ]
    disconnected_vertex = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
        ((0, 1), (1, 2)),
    )
    assert check_decomposition(g, disconnected_vertex) == [
        "bags of vertex 0 are not connected in the tree"
    ]
    not_a_tree = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2})), ()
    )
    assert check_decomposition(g, not_a_tree) == [
        "0 tree edges for 2 bags",
        "bag tree is disconnected",
    ]
    out_of_range = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2, 5})), ((0, 1),)
    )
    assert check_decomposition(g, out_of_range) == ["bag vertex 5 outside graph"]
    bad_tree_edge = TreeDecomposition(
        (frozenset({0, 1, 7}), frozenset({1, 2})), ((0, 3),)
    )
    assert check_decomposition(g, bad_tree_edge) == [
        "bag vertex 7 outside graph",
        "tree edge (0,3) out of range",
    ]
    assert check_decomposition(g, TreeDecomposition((), ())) == [
        "decomposition has no bags"
    ]
    with pytest.raises(InvalidDecomposition):
        validate_decomposition(g, not_a_tree)


@given(simple_graphs(max_n=8))
def test_decomposition_from_any_order_is_valid(g):
    for order in (list(range(g.n)), list(range(g.n - 1, -1, -1))):
        d = decomposition_from_order(g, order)
        assert check_decomposition(g, d) == []


def test_exact_treewidth_known_values():
    assert exact_decomposition(empty_graph(0))[0] == -1
    assert exact_decomposition(empty_graph(1))[0] == 0
    assert exact_decomposition(path_graph(6))[0] == 1
    assert exact_decomposition(cycle_graph(6))[0] == 2
    assert exact_decomposition(complete_graph(6))[0] == 5
    assert exact_decomposition(petersen_graph())[0] == 4


def test_exact_treewidth_is_minimum_over_minfill():
    rng = random.Random(30)
    for _ in range(40):
        g = gnp(rng.randint(1, 9), rng.random(), rng)
        width, d = exact_decomposition(g)
        assert check_decomposition(g, d) == []
        assert d.width == width
        heur = decomposition_from_order(g, minfill_order(g))
        assert width <= heur.width
        assert degeneracy(g) <= width


def test_tree_decomposition_attempts():
    tree = path_graph(7)
    attempt = tree_decomposition(tree, 1)
    assert attempt.found and attempt.decomposition.width == 1
    assert not attempt.over_target

    attempt = tree_decomposition(cycle_graph(5), 2)
    assert attempt.found and attempt.decomposition.width == 2

    attempt = tree_decomposition(complete_graph(5), 2)
    assert not attempt.found
    assert attempt.lower_bound == 4 and attempt.lower_bound_method == "degeneracy"

    with pytest.raises(ValueError):
        tree_decomposition(tree, -1)


def test_tree_decomposition_heuristic_path():
    rng = random.Random(31)
    g = gnp(16, 0.3, rng)
    attempt = tree_decomposition(g, max(g.n - 1, 0))
    assert attempt.found
    assert check_decomposition(g, attempt.decomposition) == []


def test_tree_decomposition_flags_width_over_accepted_factor():
    # 5x5 grid: degeneracy 2 never certifies width > 2, but the exact width 5
    # misses an accepted factor of 1 over target 2
    edges = []
    for r in range(5):
        for c in range(5):
            if c + 1 < 5:
                edges.append((5 * r + c, 5 * r + c + 1))
            if r + 1 < 5:
                edges.append((5 * r + c, 5 * r + c + 5))
    grid = SimpleGraph.from_edges(25, edges)
    assert degeneracy(grid) == 2
    attempt = tree_decomposition(grid, 2, approx_factor=1)
    assert attempt.found and attempt.over_target
    assert check_decomposition(grid, attempt.decomposition) == []


def test_make_nice_single_bag():
    d = TreeDecomposition((frozenset({0, 1, 2}),), ())
    nice = make_nice(d)
    assert nice.width == 2
    kinds = [nd.kind for nd in nice.nodes]
    assert kinds.count("introduce") == 3 and kinds.count("forget") == 3
    assert nice.nodes[nice.root].bag == ()


def test_make_nice_star_becomes_binary():
    center = frozenset({0})
    d = TreeDecomposition(
        (center, frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})),
        ((0, 1), (0, 2), (0, 3)),
    )
    nice = make_nice(d)
    joins = [nd for nd in nice.nodes if nd.kind == "join"]
    assert len(joins) == 2
    for nd in nice.nodes:
        assert len(nd.children) <= 2


@given(simple_graphs(max_n=8))
@settings(max_examples=60)
def test_make_nice_preserves_width_and_coverage(g):
    d = decomposition_from_order(g, minfill_order(g))
    nice = make_nice(d)
    assert nice.width == d.width
    assert _covered_pairs(nd.bag for nd in nice.nodes) == _covered_pairs(d.bags)
    for idx, nd in enumerate(nice.nodes):
        if nd.kind == "leaf":
            assert nd.bag == () and nd.children == ()
        elif nd.kind == "join":
            a, b = nd.children
            assert nice.nodes[a].bag == nd.bag == nice.nodes[b].bag
        elif nd.kind == "introduce":
            (c,) = nd.children
            assert set(nd.bag) == set(nice.nodes[c].bag) | {nd.vertex}
            assert nd.vertex not in nice.nodes[c].bag
        else:
            (c,) = nd.children
            assert set(nd.bag) == set(nice.nodes[c].bag) - {nd.vertex}
    assert nice.nodes[nice.root].bag == ()


def test_k_clique_single_bag_complete_graph():
    g = complete_graph(5)
    d = TreeDecomposition((frozenset(range(5)),), ())
    assert k_clique(g, 5, d) == (0, 1, 2, 3, 4)


def test_k_clique_petersen_has_no_triangle():
    g = petersen_graph()
    d = decomposition_from_order(g, minfill_order(g))
    assert k_clique(g, 3, d) is None
    assert k_clique(g, 2, d) is not None


def test_k_clique_rejects_invalid_decomposition():
    g = path_graph(3)
    with pytest.raises(InvalidDecomposition):
        k_clique(g, 1, TreeDecomposition((frozenset({0}),), ()))


def test_k_clique_matches_oracle():
    rng = random.Random(32)
    for _ in range(120):
        g = gnp(rng.randint(1, 11), rng.random(), rng)
        d = decomposition_from_order(g, minfill_order(g))
        omega = len(max_clique_bruteforce(g))
        assert len(max_clique_decomposed(g, d)) == omega
        for k in (2, 3, 4):
            witness = k_clique(g, k, d)
            assert (witness is not None) == (omega >= k)
            if witness is not None:
                assert len(witness) >= k
                assert_clique(g, witness)


def _bag_scan_reference(g, d):
    """Brute-force maximum clique of the earliest bag holding a maximum clique."""
    omega = len(max_clique_bruteforce(g))
    for bag in d.bags:
        verts = sorted(bag)
        local = max_clique_bruteforce(induced_subgraph(g, verts))
        if len(local) == omega:
            return tuple(verts[i] for i in local)
    raise AssertionError("no bag holds a maximum clique")


def test_bag_scan_matches_reference_tuple():
    rng = random.Random(36)
    for _ in range(300):
        g = gnp(rng.randint(0, 14), rng.random(), rng)
        order = list(range(g.n))
        rng.shuffle(order)
        d = decomposition_from_order(g, order)
        assert max_clique_decomposed(g, d) == _bag_scan_reference(g, d)


@pytest.mark.parametrize("pattern", [wheel(4), double_triangle()])
def test_bag_scan_meets_poljak_identity_on_hard_targets(pattern):
    # omega(co-S2(G)) = alpha(G) + |E(G)| (Poljak 1974), targets of 60-80 vertices
    rng = random.Random(37)
    part = find_tripartition(pattern)
    for n in (12, 14, 16):
        g = gnm(n, 2 * n, rng)
        target, _ = generate_hard_instance(g, pattern, part)
        d = tree_decomposition(target, target.n - 1).decomposition
        clique = max_clique_decomposed(target, d)
        assert_clique(target, clique)
        assert len(clique) == len(max_clique_bruteforce(complement(g))) + g.m


def test_bag_scan_sees_every_maximal_clique():
    rng = random.Random(33)
    for _ in range(80):
        g = gnp(rng.randint(1, 9), rng.random(), rng)
        order = list(range(g.n))
        rng.shuffle(order)
        d = decomposition_from_order(g, order)
        assert check_decomposition(g, d) == []
        for clique in maximal_cliques_reference(g):
            assert any(set(clique) <= bag for bag in d.bags)


def test_k_clique_bounded_promise_flag():
    g = complete_graph(6)
    outcome = k_clique_bounded(g, 3, target_width=2, promise=True)
    assert outcome.has_clique and outcome.by_promise and outcome.witness is None
    outcome = k_clique_bounded(g, 3, target_width=2, promise=False)
    assert outcome.has_clique and not outcome.by_promise
    assert outcome.witness is not None and len(outcome.witness) >= 3
    outcome = k_clique_bounded(path_graph(5), 2, target_width=3)
    assert outcome.has_clique and outcome.witness is not None


def test_nice_form_and_coloring_on_long_path():
    n = 5000
    g = path_graph(n)
    d = decomposition_from_order(g, range(n))
    # one pass over the bags, not one per vertex and per edge (seconds here)
    start = time.perf_counter()
    assert check_decomposition(g, d) == []
    assert time.perf_counter() - start < 1.0
    nice = make_nice(d)
    assert nice.width == 1 and len(nice.nodes) == 2 * n + 1
    coloring = list_k_coloring(g, full_lists(n, 2), 2, d)
    assert coloring is not None
    assert all(coloring[v] != coloring[v + 1] for v in range(n - 1))


def test_make_nice_rejects_cyclic_bag_tree():
    bags = (frozenset({0}), frozenset({0, 1}), frozenset({1}))
    with pytest.raises(InvalidDecomposition):
        make_nice(TreeDecomposition(bags, ((0, 1), (1, 2), (2, 0))))


def test_list_coloring_triangle():
    g = complete_graph(3)
    lists = full_lists(3, 3)
    d = decomposition_from_order(g, minfill_order(g))
    got = list_k_coloring(g, lists, 3, d)
    assert got is not None and coloring_is_proper(g, lists, got)


def test_list_coloring_pinned_path_unsat():
    g = path_graph(4)
    lists = {
        0: frozenset({1}),
        1: frozenset({1, 2}),
        2: frozenset({1, 2}),
        3: frozenset({1}),
    }
    d = decomposition_from_order(g, minfill_order(g))
    assert list_k_coloring(g, lists, 2, d) is None
    assert list_coloring_bruteforce(g, lists) is None


def test_list_coloring_singleton_lists_identity():
    g = path_graph(4)
    lists = {0: frozenset({1}), 1: frozenset({2}), 2: frozenset({1}), 3: frozenset({3})}
    d = decomposition_from_order(g, minfill_order(g))
    got = list_k_coloring(g, lists, 3, d)
    assert got == {0: 1, 1: 2, 2: 1, 3: 3}


def test_list_coloring_validation():
    g = path_graph(2)
    d = decomposition_from_order(g, minfill_order(g))
    with pytest.raises(ListColorOutOfRange):
        list_k_coloring(g, {0: frozenset({1}), 1: frozenset({3})}, 2, d)
    with pytest.raises(ListColorOutOfRange):
        list_k_coloring(g, {0: frozenset({1})}, 2, d)
    with pytest.raises(InvalidDecomposition):
        list_k_coloring(g, full_lists(2, 2), 2, TreeDecomposition((frozenset({0}),), ()))


def test_list_coloring_matches_oracle():
    rng = random.Random(34)
    for _ in range(120):
        n = rng.randint(1, 10)
        k = rng.randint(1, 4)
        g = gnp(n, rng.random() * 0.7, rng)
        lists = random_lists(n, k, rng, singleton_fraction=0.25)
        d = decomposition_from_order(g, minfill_order(g))
        got = list_k_coloring(g, lists, k, d)
        want = list_coloring_bruteforce(g, lists)
        assert (got is None) == (want is None)
        if got is not None:
            assert coloring_is_proper(g, lists, got)


def test_empty_graph_decomposition_and_solvers():
    g = empty_graph(0)
    d = decomposition_from_order(g, [])
    assert check_decomposition(g, d) == []
    assert max_clique_decomposed(g, d) == ()
    assert list_k_coloring(g, {}, 1, d) == {}
