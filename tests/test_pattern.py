import random
import tracemalloc

import pytest

from helpers import canonical_labelings_reference, find_tripartition_reference

from hgraphs import fpt, pattern
from hgraphs.core import Multigraph
from hgraphs.errors import InvalidPartition, SearchLimitExceeded
from hgraphs.fpt import (
    decomposition_from_order,
    exact_decomposition,
    validate_decomposition,
)
from hgraphs.pattern import (
    PatternProfile,
    TriPartition,
    complete_pattern,
    cycle_pattern,
    double_triangle,
    find_tripartition,
    is_cactus,
    path_pattern,
    validate_tripartition,
    wheel,
)
from hgraphs.randgen import random_cactus, random_tree_pattern


def diamond() -> Multigraph:
    return Multigraph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))


def test_trees_are_cacti():
    rng = random.Random(0)
    for _ in range(25):
        assert is_cactus(random_tree_pattern(rng.randint(1, 9), rng))


def test_cycles_and_digons_are_cacti():
    assert is_cactus(cycle_pattern(3))
    assert is_cactus(cycle_pattern(2))  # parallel pair counts as a 2-cycle
    assert is_cactus(Multigraph(3, ((0, 1), (0, 1), (1, 2))))


def test_diamond_is_not_cactus():
    assert not is_cactus(diamond())


def test_double_triangle_is_not_cactus():
    assert not is_cactus(double_triangle())


def test_triple_edge_is_not_cactus():
    assert not is_cactus(Multigraph(2, ((0, 1), (0, 1), (0, 1))))


def test_figure_eight_is_cactus():
    # two cycles sharing one node
    assert is_cactus(Multigraph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0))))


def test_loops_are_ignored_by_cactus_check():
    assert is_cactus(Multigraph(2, ((0, 0), (0, 1))))


def test_random_cacti_recognized():
    rng = random.Random(1)
    for _ in range(50):
        assert is_cactus(random_cactus(rng.randint(1, 10), rng))


def test_treewidth_known_families():
    rng = random.Random(2)
    for _ in range(10):
        tree = random_tree_pattern(rng.randint(2, 9), rng)
        assert PatternProfile.compute(tree).tw == 1
    for k in range(3, 9):
        assert PatternProfile.compute(cycle_pattern(k)).tw == 2
    for k in range(2, 8):
        assert PatternProfile.compute(complete_pattern(k)).tw == k - 1


def test_treewidth_witness_validates():
    for h in [cycle_pattern(5), complete_pattern(4), double_triangle(), wheel(4)]:
        profile = PatternProfile.compute(h)
        d = decomposition_from_order(h.simple_graph(), profile.order)
        validate_decomposition(h.simple_graph(), d)
        assert d.width == profile.tw


def test_treewidth_collapses_parallel_edges():
    # the simple graph's width counts each parallel pair once; the profile
    # counts a pair as the cycle it becomes once subdivided
    assert exact_decomposition(double_triangle().simple_graph())[0] == 2
    assert exact_decomposition(cycle_pattern(2).simple_graph())[0] == 1
    assert PatternProfile.compute(cycle_pattern(2)).tw == 2


def test_treewidth_limit(monkeypatch):
    with pytest.raises(SearchLimitExceeded, match="^n=13 exceeds exact treewidth limit 12$"):
        PatternProfile.compute(path_pattern(13))
    monkeypatch.setattr(fpt, "EXACT_LIMIT", 13)
    assert PatternProfile.compute(path_pattern(13)).tw == 1


def test_tripartition_double_triangle():
    part = find_tripartition(double_triangle())
    assert part is not None
    assert part.parts == ((0,), (1,), (2,))
    assert all(len(c) == 2 for c in part.connecting)
    validate_tripartition(double_triangle(), part)


def test_tripartition_four_wheel():
    h = wheel(4)
    part = find_tripartition(h)
    assert part is not None
    assert part.parts == ((0,), (1, 2), (3, 4))
    validate_tripartition(h, part)


def test_tripartition_k4_has_none():
    assert find_tripartition(complete_pattern(4)) is None


def test_tripartition_search_limit():
    # 16 nodes of cycle rank 15, in one component that must be searched
    with pytest.raises(SearchLimitExceeded, match="n=16 exceeds"):
        find_tripartition(wheel(15))


def test_tripartition_limit_applies_only_to_searched_components(monkeypatch):
    # no search is needed on a path (a cactus) or on a component of rank
    # below 4, whatever its size
    assert find_tripartition(path_pattern(16)) is None
    low_rank = Multigraph(17, tuple((i, i + 1) for i in range(16)) + ((0, 16), (3, 9)))
    assert find_tripartition(low_rank) is None
    # a far-away long path leaves the double triangle's partition in reach
    dt = double_triangle()
    h = Multigraph(19, dt.edges + tuple((i, i + 1) for i in range(3, 18)))
    assert find_tripartition(h).parts == ((0,), (1,), (2,))
    monkeypatch.setattr(pattern, "TRIPARTITION_LIMIT", 2)
    with pytest.raises(SearchLimitExceeded, match="n=3 exceeds .* limit 2"):
        find_tripartition(h)


def test_tripartition_search_does_not_grow_traced_memory():
    # parts built by tuple(generator) for each labeling tried left resized
    # tuples in CPython's free lists: about 310 KiB over these 600 calls
    patterns = (wheel(4), double_triangle())
    tracemalloc.start()
    try:
        for i in range(20):
            find_tripartition(patterns[i % 2])
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            for h in patterns:
                find_tripartition(h)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 128 * 1024, grown


def test_tripartition_matches_reference_on_random_multigraphs():
    # the rank cut skips only components that cannot hold a tripartition, so
    # answers equal those of the search that tries every labeling
    rng = random.Random(17)
    found = 0
    for _ in range(3000):
        n = rng.randint(1, 8)
        edges = tuple(
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 14))
        )
        h = Multigraph(n, edges)
        want = find_tripartition_reference(h)
        assert find_tripartition(h) == want, h
        found += want is not None
    assert found > 300


def test_tripartition_is_validated_independently():
    rng = random.Random(3)
    found = 0
    for _ in range(40):
        edges = tuple(
            (rng.randrange(6), rng.randrange(6)) for _ in range(rng.randint(4, 12))
        )
        h = Multigraph(6, edges)
        part = find_tripartition(h)
        if part is not None:
            validate_tripartition(h, part)
            found += 1
    assert found > 0


def test_validate_tripartition_rejects_bad_partitions():
    h = double_triangle()
    good = find_tripartition(h)
    bad = TriPartition(((0, 1), (2,), (0,)), good.connecting)
    with pytest.raises(InvalidPartition):
        validate_tripartition(h, bad)
    with pytest.raises(InvalidPartition):
        # disconnected part
        validate_tripartition(
            wheel(4), TriPartition(((1, 3), (0,), (2, 4)), good.connecting)
        )


def _all_simple_connected_cacti(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
        h = Multigraph(n, edges)
        if is_cactus(h):
            yield h


# find_tripartition answers None on a cactus without searching; the reference
# tries every labeling, so these tests still check the claim behind that
def test_cacti_admit_no_tripartition_exhaustive_small():
    for n in range(1, 6):
        for h in _all_simple_connected_cacti(n):
            assert find_tripartition(h) is None
            assert find_tripartition_reference(h) is None


def test_cacti_admit_no_tripartition_random():
    rng = random.Random(4)
    for _ in range(60):
        h = random_cactus(rng.randint(1, 8), rng)
        assert find_tripartition(h) is None
        assert find_tripartition_reference(h) is None


def _is_cactus_reference(h: Multigraph) -> bool:
    # a multigraph is a cactus iff no edge lies on two distinct simple cycles,
    # i.e. for every non-loop edge (u,v) at most one simple u-v path avoids it
    def count_paths(avoid: int, start: int, goal: int) -> int:
        total = 0
        stack = [(start, frozenset({start}))]
        while stack:
            x, seen = stack.pop()
            for k, (a, b) in enumerate(h.edges):
                if k == avoid or a == b:
                    continue
                if a == x:
                    y = b
                elif b == x:
                    y = a
                else:
                    continue
                if y == goal:
                    total += 1
                elif y not in seen:
                    stack.append((y, seen | {y}))
        return total

    return all(
        count_paths(k, u, v) <= 1
        for k, (u, v) in enumerate(h.edges)
        if u != v
    )


def test_cactus_recognition_matches_reference():
    # exhaustive over simple graphs on up to 5 vertices
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            h = Multigraph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))
            assert is_cactus(h) == _is_cactus_reference(h), h
    # random multigraphs with parallel edges, loops and several components
    rng = random.Random(5)
    for _ in range(600):
        n = rng.randint(1, 8)
        edges = tuple(
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))
        )
        h = Multigraph(n, edges)
        assert is_cactus(h) == _is_cactus_reference(h), h
    # cacti one edge away from a cactus, mostly not cacti any more
    for _ in range(300):
        h = random_cactus(rng.randint(1, 10), rng)
        extra = (rng.randrange(h.n), rng.randrange(h.n))
        h = Multigraph(h.n, h.edges + (extra,))
        assert is_cactus(h) == _is_cactus_reference(h), h


def test_pattern_profile_bound_increases():
    profile = PatternProfile.compute(double_triangle())
    assert profile.tw == 2
    values = [profile.bound(w) for w in range(1, 6)]
    assert values == sorted(set(values))
    assert profile.bound(1) == profile.tw


def test_tripartition_on_disconnected_pattern_uses_one_component():
    # double triangle plus a far-away component: the partition covers only
    # the component that carries it
    dt = double_triangle()
    h = Multigraph(5, dt.edges + ((3, 4),))
    part = find_tripartition(h)
    assert part is not None
    assert part.parts == ((0,), (1,), (2,))
    validate_tripartition(h, part)


def test_loops_excluded_from_tripartition_edge_counts():
    # two real edges plus loops between each pair: loops must not count
    h = Multigraph(
        3, ((0, 1), (0, 2), (1, 2), (0, 0), (1, 1), (2, 2))
    )
    assert find_tripartition(h) is None


def test_canonical_labelings_match_the_recursive_reference():
    for k in range(11):
        assert list(pattern._canonical_labelings(k)) == list(
            canonical_labelings_reference(k)
        ), k


# three nodes with two parallel edges per pair but one between 1 and 2
SHORT_PAIR = Multigraph(3, ((0, 1), (0, 1), (0, 2), (0, 2), (1, 2)))


@pytest.mark.parametrize(
    "h,parts,message",
    [
        (double_triangle(), ((0,), (), (1, 2)), "empty part"),
        (double_triangle(), ((0,), (1,), (5,)), "node 5 out of range"),
        (SHORT_PAIR, ((0,), (1,), (2,)),
         "fewer than two connecting edges for some pair"),
    ],
    ids=["empty_part", "node_out_of_range", "one_connecting_edge"],
)
def test_validate_tripartition_messages(h, parts, message):
    connecting = ((0, 1), (2, 3), (4, 5))
    with pytest.raises(InvalidPartition) as err:
        validate_tripartition(h, TriPartition(parts, connecting))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: wheel(2), "wheel rim needs at least 3 nodes"),
        (lambda: cycle_pattern(1), "cycle pattern needs at least 2 nodes"),
    ],
    ids=["wheel_2", "cycle_pattern_1"],
)
def test_named_patterns_reject_small_sizes(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
