import random

import pytest
from hypothesis import given

from conftest import simple_graphs
from helpers import assert_clique, coloring_is_proper
from hgraphs.core import (
    SimpleGraph,
    complement,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    list_coloring_bruteforce,
    max_clique_bruteforce,
    path_graph,
    petersen_graph,
    two_subdivision,
)
from hgraphs.core import _components
from hgraphs.errors import OracleLimitExceeded
from hgraphs.pattern import cycle_pattern
from hgraphs.representation import SubdividedPattern, branch, sub


def test_complement_of_complete_is_edgeless():
    assert complement(complete_graph(3)) == empty_graph(3)


def test_complement_of_p4_is_a_path():
    got = complement(path_graph(4))
    assert got.edges == frozenset({(0, 2), (1, 3), (0, 3)})
    degrees = sorted(len(a) for a in got.adjacency)
    assert degrees == [1, 1, 2, 2]


@given(simple_graphs(max_n=12))
def test_complement_is_involution(g):
    assert complement(complement(g)) == g


def test_complement_is_involution_exhaustive_small():
    for n in range(6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = SimpleGraph.from_edges(
                n, [p for i, p in enumerate(pairs) if mask >> i & 1]
            )
            assert complement(complement(g)) == g


def test_simple_graph_rejects_loops_and_bad_edges():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(2, frozenset({(0, 2)}))


def test_two_subdivision_of_k2_is_a_path():
    sub = two_subdivision(complete_graph(2))
    # edge 0 becomes the path (0, sub1, sub2, 1)
    assert sub.result.edges == frozenset({(0, 2), (2, 3), (1, 3)})
    assert sub.left(0) == 0 and sub.right(0) == 1
    assert sub.sub1(0) == 2 and sub.sub2(0) == 3


def test_two_subdivision_of_triangle_is_nine_cycle():
    sub = two_subdivision(complete_graph(3))
    g = sub.result
    assert g.n == 9 and g.m == 9
    assert all(len(a) == 2 for a in g.adjacency)
    # connected 2-regular on 9 vertices is a single 9-cycle
    seen = {0}
    stack = [0]
    while stack:
        for y in g.adjacency[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    assert len(seen) == 9


def test_two_subdivision_of_edgeless_graph_is_identity():
    sub = two_subdivision(empty_graph(4))
    assert sub.result == empty_graph(4)
    assert sub.edge_order == ()


@given(simple_graphs(max_n=8))
def test_two_subdivision_structure(g):
    sub = two_subdivision(g)
    assert sub.result.n == g.n + 2 * g.m
    assert sub.result.m == 3 * g.m
    for k in range(g.m):
        a = sub.sub1(k)
        assert sub.result.adjacency[a] == frozenset({sub.left(k), sub.sub2(k)})
        assert sub.left(k) < sub.right(k)
    # dropping the new vertices leaves the original vertices edgeless
    assert all(
        u >= g.n or v >= g.n for u, v in sub.result.edges
    )


@given(simple_graphs(max_n=7))
def test_complement_of_two_subdivision_has_three_clique_cover(g):
    sub = two_subdivision(g)
    comp = complement(sub.result)
    n, m = g.n, g.m
    classes = [range(n), range(n, n + m), range(n + m, n + 2 * m)]
    for cls in classes:
        assert_clique(comp, cls)


def test_max_clique_bruteforce_known_graphs():
    assert max_clique_bruteforce(complete_graph(4)) == (0, 1, 2, 3)
    assert len(max_clique_bruteforce(cycle_graph(5))) == 2
    assert len(max_clique_bruteforce(petersen_graph())) == 2


def test_max_clique_bruteforce_lexicographic_tiebreak():
    g = SimpleGraph.from_edges(4, [(1, 3), (0, 2)])
    assert max_clique_bruteforce(g) == (0, 2)


def test_max_clique_bruteforce_is_deterministic():
    rng = random.Random(5)
    from hgraphs.randgen import gnp

    for _ in range(20):
        g = gnp(rng.randint(1, 9), rng.random(), rng)
        first = max_clique_bruteforce(g)
        assert first == max_clique_bruteforce(g)
        assert_clique(g, first)


def test_max_clique_bruteforce_limit():
    with pytest.raises(OracleLimitExceeded):
        max_clique_bruteforce(empty_graph(21))
    assert max_clique_bruteforce(empty_graph(21), limit=21) == (0,)


def test_list_coloring_bruteforce_triangle_unsat():
    lists = {v: frozenset({1, 2}) for v in range(3)}
    assert list_coloring_bruteforce(complete_graph(3), lists) is None


def test_list_coloring_bruteforce_forced_edge():
    lists = {0: frozenset({1}), 1: frozenset({1, 2})}
    got = list_coloring_bruteforce(complete_graph(2), lists)
    assert got == {0: 1, 1: 2}


def test_list_coloring_bruteforce_cycle():
    g = cycle_graph(5)
    lists = {v: frozenset({1, 2, 3}) for v in range(5)}
    got = list_coloring_bruteforce(g, lists)
    assert got is not None and coloring_is_proper(g, lists, got)


def test_list_coloring_bruteforce_limit_and_validation():
    with pytest.raises(OracleLimitExceeded):
        list_coloring_bruteforce(empty_graph(13), {v: frozenset({1}) for v in range(13)})
    with pytest.raises(ValueError):
        list_coloring_bruteforce(empty_graph(2), {0: frozenset({1})})


def test_octahedron_clique_number():
    assert len(max_clique_bruteforce(complete_multipartite([2, 2, 2]))) == 3


def test_components_on_pattern_nodes():
    # a triangle pattern with one node per edge is a 6-cycle of nodes
    pattern = SubdividedPattern(cycle_pattern(3), (1, 1, 1))
    adjacency = pattern.adjacency
    nodes = set(pattern.nodes())
    assert _components(adjacency, nodes - {branch(0)}) == [
        tuple(sorted(nodes - {branch(0)}))
    ]
    assert _components(adjacency, nodes - {branch(0), branch(1)}) == [
        (branch(2), sub(1, 1), sub(2, 1)),
        (sub(0, 1),),
    ]
