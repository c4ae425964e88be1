import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import simple_graphs
from helpers import (
    assert_clique,
    caterpillar_graph,
    check_decomposition_reference,
    coloring_is_proper,
    decomposition_from_order_reference,
    degeneracy_bruteforce,
    degeneracy_reference,
    exact_decomposition_reference,
    grid_graph,
    list_coloring_bruteforce_reference,
    list_k_coloring_reference,
    maximal_cliques_reference,
    minfill_heap_reference,
    minfill_order_reference,
    random_chordal,
    random_tree,
)
from hgraphs.core import (
    SimpleGraph,
    complement,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    full_lists,
    induced_subgraph,
    max_clique_bruteforce,
    path_graph,
    petersen_graph,
)
from hgraphs import fpt
from hgraphs.errors import InvalidDecomposition, ListColorOutOfRange, SearchLimitExceeded
from hgraphs.fpt import (
    TreeDecomposition,
    check_decomposition,
    decomposition_from_order,
    degeneracy,
    exact_decomposition,
    forced_coloring,
    k_clique,
    list_k_coloring,
    make_nice,
    minfill_order,
    narrow_lists,
    tree_decomposition,
    validate_decomposition,
)
from hgraphs.pattern import double_triangle, find_tripartition, wheel
from hgraphs.randgen import (
    gnm,
    gnp,
    random_lists,
    random_representation,
    random_subdivision,
    random_tree_pattern,
)
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


def test_validator_counts_like_the_bfs_reference():
    # on a bag tree, counting bags and tree edges that hold a vertex gives
    # the problem list of one BFS per vertex, for valid and corrupted bags;
    # a bag graph that is not a tree is rejected by both
    rng = random.Random(49)
    shaped = other = 0
    for g in _differential_graphs(random.Random(50)):
        order = list(range(g.n))
        rng.shuffle(order)
        d = decomposition_from_order(g, order)
        bags, edges = list(d.bags), list(d.tree_edges)
        b = len(bags)
        trees = [edges, [(i, rng.randrange(i)) for i in range(1, b)]]
        for _ in range(3):  # move, drop or add a vertex, or one outside g
            bags = list(bags)
            i = rng.randrange(b)
            v = rng.randrange(-1, g.n + 2)
            bags[i] = bags[i] ^ {v} if rng.random() < 0.7 else bags[i] - {v}
            for tree in trees:
                corrupted = TreeDecomposition(tuple(bags), tuple(tree))
                got = check_decomposition(g, corrupted)
                assert got == check_decomposition_reference(g, corrupted)
                shaped += bool(got)
        assert check_decomposition(g, d) == check_decomposition_reference(g, d) == []
        if b > 1:
            for bad in (edges[1:], edges + [edges[0]], edges + [(0, b - 1)]):
                d = TreeDecomposition(d.bags, tuple(bad))
                assert check_decomposition(g, d) and check_decomposition_reference(g, d)
                other += 1
    assert shaped > 500 and other > 500, (shaped, other)


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


def _differential_graphs(rng: random.Random):
    yield from (empty_graph(0), empty_graph(1), empty_graph(7), grid_graph(4, 5))
    for _ in range(80):
        yield gnp(rng.randint(2, 30), rng.uniform(0.05, 0.2), rng)
    for _ in range(60):
        yield gnp(rng.randint(2, 18), rng.uniform(0.5, 0.9), rng)
    for _ in range(100):
        yield random_chordal(rng.randint(1, 40), rng)
    for _ in range(60):  # two or more components side by side
        a, b = gnp(rng.randint(1, 12), rng.random(), rng), random_chordal(10, rng)
        shifted = [(u + a.n, v + a.n) for u, v in b.edges]
        yield SimpleGraph.from_edges(a.n + b.n + 1, sorted(a.edges) + shifted)


def test_minfill_and_degeneracy_match_reference():
    # the set-based versions they replaced give the same order, also with
    # an rng drawing among tied vertices, and the same degeneracy
    count = 0
    for g in _differential_graphs(random.Random(41)):
        assert minfill_order(g) == minfill_order_reference(g)
        for s in range(3):
            assert minfill_order(g, random.Random(s)) == minfill_order_reference(
                g, random.Random(s)
            )
        assert degeneracy(g) == degeneracy_reference(g)
        count += 1
    assert count == 304


def test_minfill_matches_reference_on_dense_and_long_inputs():
    # fills kept by deltas stay exact where the graphs above do not reach:
    # gen-hard targets (25-40 vertices, about 92% of pairs, many ties),
    # sparse graphs of up to 150 vertices, where fill edges pile up over
    # many steps, and graphs whose every step is simplicial, with long tie
    # lists: random trees, caterpillars with many leaves, and chordal graphs
    # of subtrees of a subdivided tree (list-color's inputs); each with and
    # without an rng drawing among tied vertices
    rng = random.Random(45)
    graphs = []
    for pattern in (wheel(4), double_triangle()):
        part = find_tripartition(pattern)
        for n in (5, 6, 7, 8):
            graphs.append(generate_hard_instance(gnm(n, 2 * n, rng), pattern, part)[0])
    for n, p in ((60, 0.15), (100, 0.06), (150, 0.05)):
        graphs.append(gnp(n, p, rng))
    for n in (150, 200):
        graphs.append(random_tree(n, rng))
    graphs += [caterpillar_graph(30, 5), caterpillar_graph(8, 20)]
    for n in (100, 150):
        tree = random_subdivision(random_tree_pattern(n, rng), rng)
        graphs.append(random_representation(tree, n, rng)[0])
    for g in graphs:
        assert minfill_order(g) == minfill_order_reference(g)
        for s in range(3):
            assert minfill_order(g, random.Random(s)) == minfill_order_reference(
                g, random.Random(s)
            )
    assert [g.n for g in graphs[:4]] == [25, 30, 35, 40]


def test_minfill_paths_match_heap_reference():
    # both min-fill paths, bit planes and heap, give the heap they replaced
    # the same order and elimination masks, with and without an rng drawing
    # among tied vertices: G(n, p) up to 200 vertices from sparse to nearly
    # complete, G(n, m) just below, at and just above the density rule,
    # gen-hard targets, and complete, complete multipartite and empty graphs
    rng = random.Random(49)
    graphs = [empty_graph(0), empty_graph(1), empty_graph(30), complete_graph(40)]
    for sizes in ((1, 1), (3, 4, 5), (2,) * 12, (10, 1, 7, 1)):
        graphs.append(complete_multipartite(sizes))
    for n in (40, 200):
        graphs += [gnp(n, p, rng) for p in (0.05, 0.1, 0.3, 0.5, 0.9, 0.97)]
    for n in (30, 41):
        at = -(-n * n // 4)  # the fewest edges the density rule calls dense
        graphs += [gnm(n, m, rng) for m in (at - 1, at, at + 1)]
        assert [fpt._dense_fill(g) for g in graphs[-3:]] == [False, True, True]
    for pattern in (wheel(4), double_triangle()):
        part = find_tripartition(pattern)
        for n in (5, 6, 7, 8):
            graphs.append(generate_hard_instance(gnm(n, 2 * n, rng), pattern, part)[0])
    for g in graphs:
        for seed in (None, 0, 1):
            rngs = [None if seed is None else random.Random(seed) for _ in range(3)]
            expected = minfill_heap_reference(g, rngs[0])
            assert fpt._minfill_planes(g, rngs[1]) == expected
            assert fpt._minfill_heap(g, rngs[2]) == expected


def test_tree_decomposition_is_the_minfill_elimination():
    # the decomposition read off min-fill's own elimination equals the set-based
    # elimination game replayed on the reference order, with and without an
    # rng drawing among tied vertices, on random graphs past the exact limit
    # and on gen-hard targets; the order itself stays the reference's
    rng = random.Random(47)
    graphs = [g for g in _differential_graphs(random.Random(48)) if g.n > 12]
    for pattern in (wheel(4), double_triangle()):
        part = find_tripartition(pattern)
        for n in (5, 6, 7, 8):
            graphs.append(generate_hard_instance(gnm(n, 2 * n, rng), pattern, part)[0])
    assert len(graphs) > 100
    for g in graphs:
        for seed in (None, 0, 1):
            rngs = [None if seed is None else random.Random(seed) for _ in range(3)]
            order = minfill_order_reference(g, rngs[0])
            d = tree_decomposition(g, g.n - 1, rng=rngs[1]).decomposition
            assert d == decomposition_from_order_reference(g, order)
            assert minfill_order(g, rngs[2]) == order


def test_elimination_matches_reference():
    # the set-based elimination game and the subset DP with inline bit loops
    # give the same bags and tree edges, so the same widths; g.masks holds
    # the same graph as g.adjacency
    rng = random.Random(43)
    count = 0
    for g in _differential_graphs(random.Random(44)):
        assert g.masks == tuple(sum(1 << u for u in a) for a in g.adjacency)
        order = list(range(g.n))
        rng.shuffle(order)
        for o in (order, order[::-1], minfill_order(g)):
            d = decomposition_from_order(g, o)
            assert d == decomposition_from_order_reference(g, o)
        count += 1
    assert count == 304
    small = [empty_graph(0), empty_graph(1), complete_graph(7), petersen_graph()]
    small += [gnp(rng.randint(2, 10), rng.random(), rng) for _ in range(150)]
    small += [random_chordal(rng.randint(1, 10), rng) for _ in range(50)]
    for g in small:
        width, d = exact_decomposition(g)
        assert (width, d) == exact_decomposition_reference(g)
        assert d.width == width


def test_degeneracy_matches_subset_oracle():
    rng = random.Random(42)
    graphs = [empty_graph(0), empty_graph(1), complete_graph(6), cycle_graph(7)]
    graphs += [gnp(rng.randint(1, 10), rng.random(), rng) for _ in range(120)]
    graphs += [random_chordal(rng.randint(1, 10), rng) for _ in range(40)]
    for g in graphs:
        assert degeneracy(g) == degeneracy_bruteforce(g)


def test_minfill_and_degeneracy_on_long_path():
    g = path_graph(5000)
    assert minfill_order(g) == list(range(5000))
    assert degeneracy(g) == 1


def test_minfill_on_a_long_random_tree_in_time():
    # most leaves tie at fill 0 at every step: a pick that scans the tie
    # list each step takes seconds here
    g = random_tree(16000, random.Random(46))
    start = time.perf_counter()
    order = minfill_order(g)
    elapsed = time.perf_counter() - start
    assert sorted(order) == list(range(16000))
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize(
    "n, p, seed, bound", [(400, 0.1, 3, 1.0), (500, 0.9, 4, 0.5)]
)
def test_minfill_on_large_random_graphs_in_time(n, p, seed, bound):
    # a fill step that walks each fill edge's common neighbours one by one
    # takes about 1.6 s on G(400, 0.1), with 51 368 fill edges, and fills
    # kept in a heap take about 1.4 s on G(500, 0.9)
    g = gnp(n, p, random.Random(seed))
    start = time.perf_counter()
    order = minfill_order(g)
    elapsed = time.perf_counter() - start
    assert sorted(order) == list(range(n))
    assert elapsed < bound, elapsed


def test_tree_decomposition_attempts():
    tree = path_graph(7)
    attempt = tree_decomposition(tree, 1)
    assert attempt.found and attempt.decomposition.width == 1
    assert not attempt.over_target

    attempt = tree_decomposition(cycle_graph(5), 2)
    assert attempt.found and attempt.decomposition.width == 2

    attempt = tree_decomposition(complete_graph(5), 2)
    assert not attempt.found
    assert attempt.lower_bound == 4

    with pytest.raises(ValueError):
        tree_decomposition(tree, -1)


def test_tree_decomposition_skips_degeneracy_it_cannot_use(monkeypatch):
    # the degeneracy is at most n - 1, so from that target on it cannot
    # certify a width above the target and is not computed
    calls = []

    def spy(g):
        calls.append(g.n)
        return degeneracy(g)

    monkeypatch.setattr(fpt, "degeneracy", spy)
    for g in (complete_graph(5), path_graph(7), empty_graph(0), empty_graph(1)):
        for target in (max(g.n - 1, 0), g.n + 3):
            assert tree_decomposition(g, target).found
    assert calls == []
    attempt = tree_decomposition(complete_graph(5), 3)
    assert not attempt.found and attempt.lower_bound == 4
    assert calls == [5]


def test_tree_decomposition_heuristic_path():
    rng = random.Random(31)
    g = gnp(16, 0.3, rng)
    attempt = tree_decomposition(g, max(g.n - 1, 0))
    assert attempt.found
    assert check_decomposition(g, attempt.decomposition) == []


def test_tree_decomposition_flags_width_over_accepted_factor():
    # 5x5 grid: degeneracy 2 never certifies width > 2, but the exact width 5
    # misses an accepted factor of 1 over target 2
    grid = grid_graph(5, 5)
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
        # list_k_coloring evaluates nodes in index order
        assert all(c < idx for c in nd.children)
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
        assert len(k_clique(g, 0, d)) == omega
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
        assert k_clique(g, 0, d) == _bag_scan_reference(g, d)


@pytest.mark.parametrize("pattern", [wheel(4), double_triangle()])
def test_bag_scan_meets_poljak_identity_on_hard_targets(pattern):
    # omega(co-S2(G)) = alpha(G) + |E(G)| (Poljak 1974), targets of 60-120
    # vertices, beyond what brute force reaches on the target itself
    rng = random.Random(37)
    part = find_tripartition(pattern)
    for n in (12, 14, 16, 20, 24):
        g = gnm(n, 2 * n, rng)
        target, _ = generate_hard_instance(g, pattern, part)
        d = tree_decomposition(target, target.n - 1).decomposition
        clique = k_clique(target, 0, d)
        assert_clique(target, clique)
        alpha = len(max_clique_bruteforce(complement(g), limit=24))
        assert len(clique) == alpha + g.m


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
    assert list_coloring_bruteforce_reference(g, lists) is None


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
        want = list_coloring_bruteforce_reference(g, lists)
        assert (got is None) == (want is None)
        if got is not None:
            assert coloring_is_proper(g, lists, got)


def _coloring_triples(rng):
    """(graph, lists, k, decomposition) triples, SAT and UNSAT alike."""
    graphs = [empty_graph(0), empty_graph(1), path_graph(300)]
    graphs += [gnp(rng.randint(0, 14), rng.random() * 0.6, rng) for _ in range(250)]
    graphs += [random_chordal(rng.randint(1, 14), rng) for _ in range(100)]
    for _ in range(50):  # two components side by side
        a, b = gnp(rng.randint(1, 7), rng.random(), rng), random_chordal(7, rng)
        shifted = [(u + a.n, v + a.n) for u, v in b.edges]
        graphs.append(SimpleGraph.from_edges(a.n + b.n, sorted(a.edges) + shifted))
    for g in graphs:
        shuffled = list(range(g.n))
        rng.shuffle(shuffled)
        decomps = [decomposition_from_order(g, o) for o in (minfill_order(g), shuffled)]
        if g.n <= 10:
            decomps.append(exact_decomposition(g)[1])
        for d in decomps:
            k = rng.randint(1, 4)
            fraction = rng.choice((0.0, 0.1, 0.3))
            yield g, random_lists(g.n, k, rng, singleton_fraction=fraction), k, d


def test_list_coloring_matches_reference():
    # the DP that stored every predecessor gives the same witness (so the
    # same color stdout) and the same None, including where it stopped early
    outcomes = {True: 0, False: 0}
    for g, lists, k, d in _coloring_triples(random.Random(36)):
        got = list_k_coloring(g, lists, k, d)
        assert got == list_k_coloring_reference(g, lists, k, d)
        outcomes[got is not None] += 1
    assert sum(outcomes.values()) >= 1000
    assert min(outcomes.values()) >= 300, outcomes
    g = path_graph(300)
    d = decomposition_from_order(g, range(300))
    got = list_k_coloring(g, full_lists(300, 3), 3, d)
    assert got == list_k_coloring_reference(g, full_lists(300, 3), 3, d)


def test_list_coloring_unsat_only_at_join():
    # C5 with lists {1, 2}: no list is a single color, so narrowing decides
    # nothing.  The center bag {0, 2} joins the path 0-1-2, which needs
    # 0 and 2 alike, and the path 2-3-4-0, which needs them apart; each
    # branch of the bag tree alone is colorable, so the first empty table
    # is the join's
    g = cycle_graph(5)
    lists = full_lists(5, 2)
    assert narrow_lists(g, lists) == lists
    bags = (frozenset({0, 2}), frozenset({0, 1, 2}), frozenset({0, 2, 3, 4}))
    d = TreeDecomposition(bags, ((0, 1), (0, 2)))
    assert any(nd.kind == "join" for nd in make_nice(d).nodes)
    assert list_k_coloring(g, lists, 2, d) is None
    assert list_coloring_bruteforce_reference(g, lists) is None
    for cut in g.edges:  # dropping any edge leaves a colorable path
        path = SimpleGraph.from_edges(5, [e for e in g.edges if e != cut])
        assert list_k_coloring(path, lists, 2, d) is not None


def test_narrowing_conflicting_pins_is_unsat():
    # 0 and 2 are pinned to 1 and 2; their common neighbour 1 has nothing left
    g = path_graph(3)
    lists = {0: frozenset({1}), 1: frozenset({1, 2}), 2: frozenset({2})}
    assert narrow_lists(g, lists) is None
    d = decomposition_from_order(g, minfill_order(g))
    assert list_k_coloring(g, lists, 2, d) is None
    assert list_k_coloring_reference(g, lists, 2, d) is None


def test_narrowing_cascades_along_a_path():
    # one pin forces every two-color list of the path in turn
    n = 40
    g = path_graph(n)
    lists = {**full_lists(n, 2), 0: frozenset({1})}
    narrowed = narrow_lists(g, lists)
    assert narrowed == {v: frozenset({1 + v % 2}) for v in range(n)}
    assert lists[1] == frozenset({1, 2})  # the caller's lists are left as they were
    d = decomposition_from_order(g, minfill_order(g))
    assert list_k_coloring(g, lists, 2, d) == {v: 1 + v % 2 for v in range(n)}


def test_forced_coloring_checks_its_witness():
    # the colors of narrowed lists are proper; lists that were not narrowed
    # may clash, and the check says so even under python -O
    g = path_graph(3)
    narrowed = narrow_lists(g, {0: frozenset({1}), 1: frozenset({1, 2}), 2: frozenset({1, 2})})
    assert forced_coloring(g, narrowed) == {0: 1, 1: 2, 2: 1}
    with pytest.raises(AssertionError, match="same color"):
        forced_coloring(g, {0: frozenset({1}), 1: frozenset({1}), 2: frozenset({2})})


def _narrowing_triples(rng):
    """(graph, lists, k, decomposition) with lists of one or two colors."""
    for _ in range(800):
        n = rng.randint(1, 12)
        g = gnp(n, rng.random() * 0.5, rng) if rng.random() < 0.6 else random_chordal(n, rng)
        k = rng.randint(2, 4)
        palette = range(1, k + 1)
        lists = {v: frozenset(rng.sample(palette, rng.randint(1, 2))) for v in range(n)}
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        decomps = [decomposition_from_order(g, o) for o in (minfill_order(g), shuffled)]
        if n <= 9:
            decomps.append(exact_decomposition(g)[1])
        for d in decomps:
            yield g, lists, k, d


def test_list_coloring_with_cascades_matches_reference():
    # many pins and forced lists: narrowing and the forced vertices leaving
    # the bags give the stored-predecessor DP's witness and None
    outcomes = {True: 0, False: 0}
    cascades = 0
    for g, lists, k, d in _narrowing_triples(random.Random(41)):
        got = list_k_coloring(g, lists, k, d)
        assert got == list_k_coloring_reference(g, lists, k, d)
        outcomes[got is not None] += 1
        narrowed = narrow_lists(g, lists)
        forced = sum(len(c) == 1 for c in lists.values())
        if narrowed is None or sum(len(c) == 1 for c in narrowed.values()) > forced:
            cascades += 1
    assert sum(outcomes.values()) >= 2000
    assert min(outcomes.values()) >= 500, outcomes
    assert cascades >= 1000, cascades


def test_list_coloring_stops_at_the_state_budget(monkeypatch):
    g = grid_graph(4, 4)
    d = decomposition_from_order(g, minfill_order(g))
    assert list_k_coloring(g, full_lists(16, 3), 3, d) is not None
    monkeypatch.setattr(fpt, "STATE_BUDGET", 100)
    with pytest.raises(SearchLimitExceeded, match="more than 100 DP states"):
        list_k_coloring(g, full_lists(16, 3), 3, d)


def test_k_clique_stops_at_the_branch_budget(monkeypatch):
    # bags K1, K2, ..., K5, each beating the last: each search adds its
    # clique's vertices, one path down, so the call adds 1 + 2 + ... + 5
    # branch nodes, and the bags share the budget although none needs more
    # than 5 of it
    edges, bags, start = [], [], 0
    for k in range(1, 6):
        bag = range(start, start + k)
        edges += combinations(bag, 2)
        bags.append(frozenset(bag))
        start += k
    g = SimpleGraph.from_edges(start, edges)
    d = TreeDecomposition(tuple(bags), tuple((i, i + 1) for i in range(4)))
    monkeypatch.setattr(fpt, "BRANCH_BUDGET", 15)
    assert k_clique(g, 0, d) == tuple(range(10, 15))
    monkeypatch.setattr(fpt, "BRANCH_BUDGET", 14)
    with pytest.raises(SearchLimitExceeded, match="^bag scan added more than 14 branch nodes$"):
        k_clique(g, 0, d)


def test_forgotten_vertices_take_only_their_first_completion(monkeypatch):
    # the root's forget run leaves out every vertex of the one bag, so the
    # empty state needs one completion: 12 states, not all 4096 colorings
    monkeypatch.setattr(fpt, "STATE_BUDGET", 100)
    n = 12
    d = TreeDecomposition((frozenset(range(n)),), ())
    got = list_k_coloring(empty_graph(n), full_lists(n, 2), 2, d)
    assert got == dict.fromkeys(range(n), 1)


def test_list_coloring_on_a_bag_wider_than_the_recursion_limit():
    # one bag holds every vertex, so one run introduces 1101 vertices and
    # the root's run forgets them all: 2 colors close the odd cycle at the
    # last vertex, and the path takes its first completion
    n = 1101
    d = TreeDecomposition((frozenset(range(n)),), ())
    assert list_k_coloring(cycle_graph(n), full_lists(n, 2), 2, d) is None
    got = list_k_coloring(path_graph(n), full_lists(n, 2), 2, d)
    assert got == {v: 1 + v % 2 for v in range(n)}


def test_empty_graph_decomposition_and_solvers():
    g = empty_graph(0)
    d = decomposition_from_order(g, [])
    assert check_decomposition(g, d) == []
    assert k_clique(g, 0, d) == ()
    assert list_k_coloring(g, {}, 1, d) == {}
