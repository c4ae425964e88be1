"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every check is exact; each criterion also carries a wall-clock budget that is
asserted at the end of the run.
"""

import os
import random
import time
from itertools import combinations

from helpers import (
    assert_clique,
    carc_reference,
    coloring_is_proper,
    has_clique_cutset,
    list_coloring_bruteforce_reference,
    maximal_cliques_reference,
    parse_td_reference,
)
from hgraphs.clique import (
    carc_max_clique,
    clique_cactus,
    clique_cutset_decomposition,
    clique_helly,
    maximal_cliques_capped,
    model_intersection_graph,
)
from hgraphs.cli import main
from hgraphs.core import (
    Multigraph,
    SimpleGraph,
    complete_multipartite,
    induced_subgraph,
    max_clique_bruteforce,
)
from hgraphs.fpt import (
    check_decomposition,
    decomposition_from_order,
    k_clique,
    list_k_coloring,
    tree_decomposition,
    validate_decomposition,
)
from hgraphs.pattern import (
    PatternProfile,
    complete_pattern,
    double_triangle,
    find_tripartition,
    wheel,
)
from hgraphs.representation import (
    generate_hard_instance,
    td_from_representation,
    verify_representation,
)
from hgraphs.randgen import (
    gnm,
    gnp,
    random_arc_model,
    random_cactus,
    random_lists,
    random_representation,
    random_subdivision,
    random_tree_pattern,
)
from hgraphs import formats, fpt

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def finish(self):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if elapsed < self.seconds else "FAIL (over budget)"
        print(f"{self.name}: {status} ({elapsed:.1f}s / budget {self.seconds:.0f}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"


def test_ac1_hard_instance_construction_verifies():
    budget = _Budget("AC1 hard-instance generator verified", 10)
    rng = random.Random(101)
    patterns = [double_triangle(), wheel(4)]
    parts = [find_tripartition(h) for h in patterns]
    for _ in range(50):
        n = rng.randint(2, 10)
        m = rng.randint(0, min(20, n * (n - 1) // 2))
        g = gnm(n, m, rng)
        for h, part in zip(patterns, parts):
            target, rep = generate_hard_instance(g, h, part)
            assert verify_representation(target, rep).is_ok
    budget.finish()


def test_ac2_helly_clique_bound():
    budget = _Budget("AC2 Helly maximal-clique bound", 30)
    rng = random.Random(102)
    for _ in range(100):
        h = random_tree_pattern(rng.randint(2, 7), rng)
        pattern = random_subdivision(h, rng, 3)
        n = rng.randint(1, 30)
        g, _ = random_representation(pattern, n, rng, 6)
        bound = h.n + h.m * g.n
        enum = maximal_cliques_capped(g, bound)
        assert enum.complete, "Helly graph exceeded its maximal-clique bound"
    for _ in range(40):
        h = random_tree_pattern(rng.randint(2, 6), rng)
        pattern = random_subdivision(h, rng, 3)
        g, _ = random_representation(pattern, rng.randint(1, 18), rng, 5)
        result = clique_helly(g, h)
        assert not result.exceeded
        assert len(result.clique) == len(max_clique_bruteforce(g))
    budget.finish()


def test_ac3_non_helly_certificate():
    budget = _Budget("AC3 non-Helly rejection certificate", 5)
    g = complete_multipartite([2] * 12)
    result = clique_helly(g, complete_pattern(3))
    assert result.bound == 3 + 3 * 24 == 75
    assert result.exceeded
    assert result.count == result.bound + 1
    budget.finish()


def test_ac4_circular_arc_clique_matches_bruteforce():
    budget = _Budget("AC4 circular-arc clique vs brute force", 20)
    rng = random.Random(104)
    for _ in range(200):
        model = random_arc_model(
            rng.randint(1, 14), rng.randint(3, 28), rng, kind="cycle",
            full_fraction=0.1,
        )
        got = carc_max_clique(model)
        graph = model_intersection_graph(model)
        assert len(got) == len(max_clique_bruteforce(graph))
        assert_clique(graph, got)
    for _ in range(60):
        model = random_arc_model(
            rng.randint(1, 14), rng.randint(2, 28), rng, kind="path"
        )
        got = carc_max_clique(model)
        graph = model_intersection_graph(model)
        assert len(got) == len(max_clique_bruteforce(graph))
    budget.finish()


def test_ac4b_circular_arc_clique_at_scale():
    budget = _Budget("AC4b circular-arc clique on 80 and 150 arcs", 1)
    got = {}
    for size in (80, 150):
        model = random_arc_model(
            size, 2 * size, random.Random(size), full_fraction=0.05
        )
        got[size] = (model, carc_max_clique(model))
    budget.finish()
    for model, clique in got.values():
        assert_clique(model_intersection_graph(model), clique)
    model, clique = got[80]
    assert clique == carc_reference(model)


def test_ac5_cactus_pipeline():
    budget = _Budget("AC5 cactus clique pipeline", 60)
    rng = random.Random(105)
    for trial in range(100):
        h = random_cactus(rng.randint(1, 8), rng)
        pattern = random_subdivision(h, rng, 2)
        n = rng.randint(1, 18)
        g, rep = random_representation(pattern, n, rng, 5)
        got = clique_cactus(g, rep)
        assert len(got) == len(max_clique_bruteforce(g))
        assert_clique(g, got)
        if n <= 12:
            for atom in clique_cutset_decomposition(g).atoms:
                assert not has_clique_cutset(induced_subgraph(g, atom.vertices))
    budget.finish()


def test_ac6_width_bound_from_representations():
    budget = _Budget("AC6 representation width bound", 30)
    rng = random.Random(106)
    patterns = [
        Multigraph(2, ((0, 1),)),
        complete_pattern(3),
        double_triangle(),
    ]
    profiles = [PatternProfile.compute(h) for h in patterns]
    per_pattern = (34, 33, 33)
    for h, profile, count in zip(patterns, profiles, per_pattern):
        for _ in range(count):
            pattern = random_subdivision(h, rng, 3)
            g, rep = random_representation(pattern, rng.randint(1, 13), rng, 5)
            d = td_from_representation(g, rep, profile)
            validate_decomposition(g, d)
            omega = len(max_clique_bruteforce(g))
            assert d.width <= profile.bound(omega)
    budget.finish()


def test_ac7_fpt_solvers_match_oracles(monkeypatch):
    monkeypatch.setattr(fpt, "EXACT_LIMIT", 8)
    budget = _Budget("AC7 decomposition solvers vs oracles", 60)
    rng = random.Random(107)
    for _ in range(300):
        n = rng.randint(1, 14)
        g = gnp(n, rng.uniform(0.1, 0.7), rng)
        attempt = tree_decomposition(g, max(n - 1, 0))
        d = attempt.decomposition
        k = rng.randint(1, 6)
        witness = k_clique(g, k, d)
        omega = len(max_clique_bruteforce(g))
        assert (witness is not None) == (omega >= k)
        if witness is not None:
            assert len(witness) >= k
            assert_clique(g, witness)
    for trial in range(300):
        n = rng.randint(1, 12)
        k = rng.randint(1, 4)
        g = gnp(n, rng.uniform(0.05, 0.55 - 0.05 * k), rng)
        if trial % 3 == 0:
            # pre-coloring extension: some vertices pinned, the rest free
            palette = frozenset(range(1, k + 1))
            lists = {
                v: frozenset([rng.randint(1, k)]) if rng.random() < 0.4 else palette
                for v in range(n)
            }
        else:
            lists = random_lists(n, k, rng, singleton_fraction=0.2)
        d = tree_decomposition(g, max(n - 1, 0)).decomposition
        got = list_k_coloring(g, lists, k, d)
        want = list_coloring_bruteforce_reference(g, lists)
        assert (got is None) == (want is None)
        if got is not None:
            assert coloring_is_proper(g, lists, got)
    budget.finish()


def _bag_check_small(n: int, rng: random.Random) -> None:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        g = SimpleGraph.from_edges(n, edges)
        order = list(range(n))
        rng.shuffle(order)
        d = decomposition_from_order(g, order)
        assert check_decomposition(g, d) == []
        for clique in maximal_cliques_reference(g):
            assert any(set(clique) <= bag for bag in d.bags)


def _bag_check_vectorized(n: int, rng: random.Random, batch_bits: int) -> None:
    import numpy as np

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edge_bit = {p: 1 << i for i, p in enumerate(pairs)}
    total = 1 << len(pairs)
    subsets = list(range(1, 1 << n))
    clique_mask = {
        s: sum(
            edge_bit[(u, v)]
            for u, v in combinations([b for b in range(n) if s >> b & 1], 2)
        )
        for s in subsets
    }
    ext_mask = {
        s: {
            v: sum(
                edge_bit[tuple(sorted((v, u)))]
                for u in range(n)
                if s >> u & 1
            )
            for v in range(n)
            if not s >> v & 1
        }
        for s in subsets
    }
    batch = 1 << batch_bits
    for start in range(0, total, batch):
        gmask = np.arange(start, min(start + batch, total), dtype=np.uint32)
        order = rng.sample(range(n), n)
        adj = np.zeros((n, len(gmask)), dtype=np.uint8)
        for b, (i, j) in enumerate(pairs):
            has = ((gmask >> np.uint32(b)) & 1).astype(np.uint8)
            adj[i] |= has << np.uint8(j)
            adj[j] |= has << np.uint8(i)
        bags = np.zeros((n, len(gmask)), dtype=np.uint8)
        alive = set(range(n))
        for step, v in enumerate(order):
            nb = adj[v].copy()
            bags[step] = nb | np.uint8(1 << v)
            alive.discard(v)
            for u in alive:
                sel = (nb >> np.uint8(u)) & np.uint8(1)
                adj[u] |= (nb & np.uint8(0xFF ^ (1 << u))) * sel
                adj[u] &= np.uint8(0xFF ^ (1 << v))
        for s in subsets:
            cm = np.uint32(clique_mask[s])
            is_clique = (gmask & cm) == cm
            if not is_clique.any():
                continue
            extendable = np.zeros(len(gmask), dtype=bool)
            for v, em in ext_mask[s].items():
                extendable |= (gmask & np.uint32(em)) == np.uint32(em)
            maximal = is_clique & ~extendable
            if not maximal.any():
                continue
            contained = np.zeros(len(gmask), dtype=bool)
            for step in range(n):
                contained |= (bags[step] & np.uint8(s)) == np.uint8(s)
            assert not (maximal & ~contained).any(), (n, s, start)
        # tie the vectorized bags to the library construction on samples
        for _ in range(3):
            idx = rng.randrange(len(gmask))
            g = SimpleGraph.from_edges(
                n, [p for b, p in enumerate(pairs) if int(gmask[idx]) >> b & 1]
            )
            d = decomposition_from_order(g, order)
            assert check_decomposition(g, d) == []
            got = [set(b) for b in d.bags]
            want = [
                {b for b in range(n) if int(bags[step][idx]) >> b & 1}
                for step in range(n)
            ]
            assert got == want


def test_ac8_every_maximal_clique_lies_in_a_bag():
    budget = _Budget("AC8 bag-clique completeness (all graphs n<=7)", 60)
    rng = random.Random(108)
    for n in range(1, 6):
        _bag_check_small(n, rng)
    _bag_check_vectorized(6, rng, batch_bits=15)
    _bag_check_vectorized(7, rng, batch_bits=18)
    budget.finish()


def test_ac9_cli_round_trips_and_pipeline(tmp_path, capsys):
    budget = _Budget("AC9 file round trips and CLI pipeline", 5)
    fixture_cases = [
        ("p3.gr", formats.parse_gr, formats.emit_gr),
        ("k3.gr", formats.parse_gr, formats.emit_gr),
        ("path4.gr", formats.parse_gr, formats.emit_gr),
        ("c5.gr", formats.parse_gr, formats.emit_gr),
        ("double_triangle.hgr", formats.parse_hgr, formats.emit_hgr),
        ("wheel4.hgr", formats.parse_hgr, formats.emit_hgr),
        ("edge.hgr", formats.parse_hgr, formats.emit_hgr),
        ("c5_cycle.hgr", formats.parse_hgr, formats.emit_hgr),
    ]
    for name, parse, emit in fixture_cases:
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            text = fh.read()
        assert emit(parse(text, name)) == text
    with open(os.path.join(FIXTURES, "p3.td"), encoding="utf-8") as fh:
        text = fh.read()
    d, n = parse_td_reference(text, "p3.td")
    assert formats.emit_td(d, n) == text
    with open(os.path.join(FIXTURES, "path4.lists"), encoding="utf-8") as fh:
        text = fh.read()
    assert formats.emit_lists(formats.parse_lists(text)) == text
    for rep_name, pat_name in (("p3.rep", "edge.hgr"), ("c5.rep", "c5_cycle.hgr")):
        with open(os.path.join(FIXTURES, rep_name), encoding="utf-8") as fh:
            rep_text = fh.read()
        with open(os.path.join(FIXTURES, pat_name), encoding="utf-8") as fh:
            pat_text = fh.read()
        rep = formats.parse_rep(rep_text, pat_text, rep_name, pat_name)
        ref = formats._rep_header(enumerate(rep_text.splitlines(), start=1), rep_name)
        assert ref == pat_name and formats.emit_rep(rep, ref) == rep_text

    out_graph = str(tmp_path / "target.gr")
    out_rep = str(tmp_path / "inst.rep")
    assert (
        main(
            [
                "gen-hard",
                "--graph", os.path.join(FIXTURES, "k3.gr"),
                "--pattern", os.path.join(FIXTURES, "wheel4.hgr"),
                "--out-graph", out_graph,
                "--out-rep", out_rep,
            ]
        )
        == 0
    )
    assert main(["verify", "--graph", out_graph, "--rep", out_rep]) == 0
    capsys.readouterr()
    budget.finish()
