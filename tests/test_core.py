import inspect
import random
import sys

import pytest
from hypothesis import given

from conftest import simple_graphs
from helpers import (
    assert_clique,
    coloring_is_proper,
    list_coloring_bruteforce_reference,
    max_clique_bruteforce_reference,
    sub,
)
from hgraphs.core import (
    Multigraph,
    SimpleGraph,
    complement,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    max_clique_bruteforce,
    path_graph,
    petersen_graph,
    two_subdivision,
)
from hgraphs.core import _bits, _check_clique, _components, _grow, _reach
from hgraphs.errors import OracleLimitExceeded
from hgraphs.pattern import cycle_pattern
from hgraphs.randgen import gnp
from hgraphs.representation import SubdividedPattern, branch


def test_check_clique_reads_the_edge_set():
    g = cycle_graph(4)
    _check_clique(g, (2, 1))
    with pytest.raises(AssertionError, match="not a clique: 0,2"):
        _check_clique(g, (2, 1, 0))
    assert "adjacency" not in vars(g) and "masks" not in vars(g)


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
    assert sub.edge_order == ((0, 1),)
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
        left, right = sub.edge_order[k]
        assert sub.result.adjacency[a] == frozenset({left, sub.sub2(k)})
        assert left < right
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


def test_max_clique_bruteforce_matches_recursive_reference():
    from hgraphs.randgen import gnp

    rng = random.Random(16)
    for _ in range(300):
        g = gnp(rng.randint(0, 14), rng.random(), rng)
        assert max_clique_bruteforce(g) == max_clique_bruteforce_reference(g)


def test_max_clique_bruteforce_needs_no_recursion_depth():
    # a raised --oracle-limit must not turn a dense graph into a RecursionError
    g = complete_graph(16)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 10)
    try:
        got = max_clique_bruteforce(g)
    finally:
        sys.setrecursionlimit(limit)
    assert got == tuple(range(16))


def test_list_coloring_bruteforce_triangle_unsat():
    lists = {v: frozenset({1, 2}) for v in range(3)}
    assert list_coloring_bruteforce_reference(complete_graph(3), lists) is None


def test_list_coloring_bruteforce_forced_edge():
    lists = {0: frozenset({1}), 1: frozenset({1, 2})}
    got = list_coloring_bruteforce_reference(complete_graph(2), lists)
    assert got == {0: 1, 1: 2}


def test_list_coloring_bruteforce_cycle():
    g = cycle_graph(5)
    lists = {v: frozenset({1, 2, 3}) for v in range(5)}
    got = list_coloring_bruteforce_reference(g, lists)
    assert got is not None and coloring_is_proper(g, lists, got)


def test_list_coloring_bruteforce_limit_and_validation():
    lists = {v: frozenset({1}) for v in range(13)}
    with pytest.raises(OracleLimitExceeded):
        list_coloring_bruteforce_reference(empty_graph(13), lists)
    with pytest.raises(ValueError):
        list_coloring_bruteforce_reference(empty_graph(2), {0: frozenset({1})})


def test_octahedron_clique_number():
    assert len(max_clique_bruteforce(complete_multipartite([2, 2, 2]))) == 3


def test_components_on_pattern_nodes():
    # a triangle pattern with one node per edge is a 6-cycle of nodes
    pattern = SubdividedPattern(cycle_pattern(3), (1, 1, 1))
    adjacency = pattern.adjacency
    nodes = set(adjacency)
    assert _components(adjacency, nodes - {branch(0)}) == [
        tuple(sorted(nodes - {branch(0)}))
    ]
    assert _components(adjacency, nodes - {branch(0), branch(1)}) == [
        (branch(2), sub(pattern, 1, 1), sub(pattern, 2, 1)),
        (sub(pattern, 0, 1),),
    ]


def test_grow_reaches_what_reach_reaches():
    # _grow on masks against the set search _reach, from every bit of start
    # (start is always in both), with an empty allowed and starts outside it
    rng = random.Random(44)
    for i in range(600):
        n = rng.randint(1, 14)
        g = gnp(n, rng.choice((0.1, 0.25, 0.5)), rng)
        full = (1 << n) - 1
        allowed = (0, full, rng.getrandbits(n))[i % 3]
        if rng.random() < 0.5:  # start inside allowed
            start = rng.getrandbits(n) & allowed or (allowed & -allowed)
        else:
            start = rng.getrandbits(n) or 1
        members = set(_bits(allowed))
        want = set()
        for v in _bits(start):
            want |= _reach(g.adjacency, v, members)
        assert set(_bits(_grow(g.masks, start, allowed))) == want, (g, start, allowed)
    assert _grow((), 0, 0) == 0 and _grow((0,), 1, 0) == 1


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: SimpleGraph(-1, frozenset()), "vertex count must be non-negative"),
        (lambda: Multigraph(2, ((0, 1), (1, 2))), "edge (1,2) out of range for n=2"),
        (lambda: cycle_graph(2), "cycle needs at least 3 vertices"),
    ],
    ids=["negative_vertex_count", "multigraph_edge_out_of_range", "two_cycle"],
)
def test_core_constructors_reject_bad_input(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
