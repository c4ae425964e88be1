import argparse
import os
import random
import re
import sys
import time
import tracemalloc

import pytest

from helpers import (
    cocktail_party_representation,
    emit_rep_reference,
    grid_graph,
    interval_path_representation,
    minfill_order_reference,
    random_tree,
    parse_gr_reference,
    parse_hgr_reference,
    parse_rep_reference,
    parse_td_reference,
    sub,
)
from hgraphs import cli
from hgraphs import core
from hgraphs import formats
from hgraphs import fpt
from hgraphs import pattern as pattern_module
from hgraphs.cli import main
from hgraphs.core import (
    Multigraph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    path_graph,
)
from hgraphs.errors import ParseError
from hgraphs.fpt import (
    check_decomposition,
    decomposition_from_order,
    exact_decomposition,
    tree_decomposition,
)
from hgraphs.pattern import (
    complete_pattern,
    double_triangle,
    find_tripartition,
    path_pattern,
    wheel,
)
from hgraphs.randgen import (
    gnm,
    random_arc_model,
    random_cactus,
    random_representation,
    random_subdivision,
    random_tree_pattern,
    representation_from_cycle_arcs,
)
from hgraphs.representation import (
    HRepresentation,
    SubdividedPattern,
    branch,
    generate_hard_instance,
    intersection_graph,
    verify_representation,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def rep_header(text: str, path: str = "<rep>") -> str:
    """The pattern reference that a .rep file's header names."""
    return formats._rep_header(enumerate(text.splitlines(), start=1), path)


def parse_rep_and_header(text: str, pattern_text: str, path: str = "<rep>"):
    """parse_rep's representation with the header's pattern reference, the
    pair that parse_rep_reference returns."""
    return formats.parse_rep(text, pattern_text, path), rep_header(text, path)


# -- parse/emit round trips ------------------------------------------------

def test_gr_round_trip_on_fixtures():
    for name in ("p3.gr", "k3.gr", "path4.gr", "c5.gr"):
        text = read(fixture(name))
        assert formats.emit_gr(formats.parse_gr(text, name)) == text


def test_hgr_round_trip_on_fixtures():
    for name in ("double_triangle.hgr", "wheel4.hgr", "edge.hgr", "c5_cycle.hgr"):
        text = read(fixture(name))
        assert formats.emit_hgr(formats.parse_hgr(text, name)) == text


def test_rep_round_trip_on_fixtures():
    for name, pattern in (("p3.rep", "edge.hgr"), ("c5.rep", "c5_cycle.hgr")):
        text = read(fixture(name))
        rep = formats.parse_rep(text, read(fixture(pattern)), name, pattern)
        assert rep_header(text, name) == pattern
        assert formats.emit_rep(rep, pattern) == text


def test_td_round_trip_on_fixtures():
    text = read(fixture("p3.td"))
    d, n = parse_td_reference(text, "p3.td")
    assert formats.emit_td(d, n) == text


def test_lists_round_trip_on_fixtures():
    text = read(fixture("path4.lists"))
    assert formats.emit_lists(formats.parse_lists(text)) == text


def test_gr_parser_accepts_comments_and_1_based_ids():
    g = formats.parse_gr("c a comment\np tw 3 2\n1 2\n2 3\n")
    assert g == path_graph(3)


def test_parse_gr_of_a_long_path_keeps_traced_memory_small():
    # the parser builds the edge set and nothing quadratic: neighbour masks
    # filled while parsing hold n^2/8 bytes, 31 MiB traced on this path
    text = formats.emit_gr(path_graph(20_000))
    tracemalloc.start()
    try:
        g = formats.parse_gr(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 19_999
    assert peak < 12 * 1024 * 1024, peak


def test_gr_parser_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        formats.parse_gr("p tw 3 2\n1 2\n2 4\n", "bad.gr")
    assert err.value.line == 3 and "outside" in err.value.message
    with pytest.raises(ParseError) as err:
        formats.parse_gr("1 2\n", "bad.gr")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        formats.parse_gr("p tw 2 1\n1 1\n", "bad.gr")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        formats.parse_gr("p tw 3 2\n1 2\n", "bad.gr")
    assert "declared 2 edges" in err.value.message
    with pytest.raises(ParseError) as err:
        formats.parse_gr("p tw 3 3\n1 2\n2 3\nc note\n2 1\n", "bad.gr")
    assert err.value.line == 5 and err.value.message == "duplicate edge 2 1"


def test_hgr_parser_keeps_parallel_edges_and_order():
    h = formats.parse_hgr("h 3 4\n1 2\n1 2\n2 3\n1 3\n")
    assert h == Multigraph(3, ((0, 1), (0, 1), (1, 2), (0, 2)))


def test_rep_parser_rejects_undeclared_subdivision_node():
    pattern_text = read(fixture("edge.hgr"))
    bad = "r edge.hgr\nsubdiv 1 1\nmap 1 b:1 s:1.2\nmap 2 b:2\nmap 3 b:2\n"
    with pytest.raises(ParseError) as err:
        formats.parse_rep(bad, pattern_text, "bad.rep")
    assert err.value.line == 3
    assert "subdivision" in err.value.message


def test_rep_parser_rejects_subdividing_a_loop():
    pattern_text = "h 2 2\n1 2\n2 2\n"
    bad = "r loop.hgr\nsubdiv 2 1\nmap 1 b:1\n"
    with pytest.raises(ParseError) as err:
        formats.parse_rep(bad, pattern_text, "bad.rep", "loop.hgr")
    assert err.value.line == 2 and "loop" in err.value.message


def test_rep_parser_rejects_missing_vertex():
    pattern_text = read(fixture("edge.hgr"))
    bad = "r edge.hgr\nmap 1 b:1\nmap 3 b:2\n"
    with pytest.raises(ParseError) as err:
        formats.parse_rep(bad, pattern_text, "bad.rep")
    assert "no map line" in err.value.message


def test_rep_emitter_names_a_node_outside_the_pattern():
    # a node that the pattern lacks is refused when the representation is
    # built, so emit_rep never meets one; the error names it, not a KeyError
    # (the pattern's nodes are 0, 1 and 2)
    pattern = SubdividedPattern(Multigraph(2, ((0, 1),)), (1,))
    sets = {0: frozenset({branch(0)}), 1: frozenset({3})}
    with pytest.raises(ValueError, match=r"^vertex 1 uses unknown pattern node 3$"):
        HRepresentation(pattern, sets)


def _cactus_representations(count: int):
    rng = random.Random(28)
    for _ in range(count):
        h = random_cactus(rng.randint(2, 8), rng)
        pat = random_subdivision(h, rng, 3)
        yield random_representation(pat, rng.randint(20, 40), rng, 6)


def test_rep_emitter_matches_the_node_tuple_reference():
    # emit_rep writes each vertex's sorted node numbers by name; number order
    # is the nodes' sorted order, so its files equal the node-tuple
    # emitter's byte for byte, for a representation built from node sets,
    # built by the generator, or parsed
    rng = random.Random(35)
    reps = [rep for _, rep in _cactus_representations(24)]
    for i in range(40):
        h = (wheel(4), double_triangle())[i % 2]
        g = gnm(rng.randint(5, 8), rng.randint(5, 16), rng)
        reps.append(generate_hard_instance(g, h, find_tripartition(h))[1])
    for rep in reps:
        text = formats.emit_rep(rep, "p.hgr")
        assert text == emit_rep_reference(rep, "p.hgr")
        parsed = formats.parse_rep(text, formats.emit_hgr(rep.pattern.base))
        assert parsed == rep
        assert formats.emit_rep(parsed, "p.hgr") == emit_rep_reference(parsed, "p.hgr")


def test_td_parser_validates_header():
    with pytest.raises(ParseError):
        parse_td_reference("s td 1 2 3\nb 1 1 2\nb 2 3\n", "bad.td")
    with pytest.raises(ParseError) as err:
        parse_td_reference("s td 1 5 3\nb 1 1 2\n", "bad.td")
    assert "width" in err.value.message


@pytest.mark.parametrize(
    "parse,tag,before,header,body",
    [
        (formats.parse_gr, "p", "edge line before p line", "p tw 2 1", "1 2"),
        (formats.parse_hgr, "h", "edge line before h line", "h 2 1", "1 2"),
        (parse_td_reference, "s", "content before s line", "s td 1 1 1", "b 1 1"),
        (
            lambda text, path: formats.parse_rep(text, "h 2 1\n1 2\n", path),
            "r", "content before r line", "r edge.hgr", "map 1 b:1",
        ),
    ],
    ids=["gr", "hgr", "td", "rep"],
)
def test_headed_formats_share_header_errors(parse, tag, before, header, body):
    cases = [
        ("c only a comment\n\nc and another\n", 1, f"missing {tag} line"),
        (f"c note\n{body}\n{header}\n", 2, before),
        (f"{header}\nc note\n{header}\n{body}\n", 3, f"duplicate {tag} line"),
    ]
    for text, line, message in cases:
        with pytest.raises(ParseError) as err:
            parse(text, "f")
        assert (err.value.line, err.value.message) == (line, message), text


def test_rep_parser_keeps_unrecognized_line_spacing():
    with pytest.raises(ParseError) as err:
        formats.parse_rep("r edge.hgr\n  what  now \n", "h 2 1\n1 2\n", "f")
    assert (err.value.line, err.value.message) == (2, "unrecognized line 'what  now'")


def test_td_parser_rejects_bag_line_without_id():
    with pytest.raises(ParseError) as err:
        parse_td_reference("s td 1 0 1\nb\n", "f")
    assert (err.value.line, err.value.message) == (2, "expected 'b <id> <vertices...>'")


FUZZ_TOKENS = ("p", "h", "s", "r", "c", "0", "-1", "x", "b:0", "s:1.0")


# lines every format skips; "c1 2" and "cc 3 4" are comments, not edges
SKIPPED_LINES = ("", "   ", "\t", "c", "c note", "c1 2", "cc 3 4")


def _mutate(text: str, rng: random.Random) -> str:
    """Drop, duplicate or swap lines; replace or insert a token; widen a gap;
    insert a blank, whitespace-only or comment line anywhere."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        kind = rng.randrange(7)
        if kind == 6:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(SKIPPED_LINES))
            continue
        tokens = lines[i].split()
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif kind == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 3 and tokens:
            tokens[rng.randrange(len(tokens))] = rng.choice(FUZZ_TOKENS)
            lines[i] = " ".join(tokens)
        elif kind == 4:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
        else:
            lines[i] = lines[i].replace(" ", "  ", 1)
    return "\n".join(lines) + "\n"


def _outcome(parse, text: str):
    try:
        return "value", parse(text, "f")
    except ParseError as exc:
        return "error", (exc.line, exc.message)


def _fuzz_corpus():
    """(file, parse, reference parse or None, emit) for each fuzzed file: the
    fixtures, each headed format's empty file, gen-hard targets and
    representations, and td output."""
    def rep_format(pattern_text):
        return (
            lambda text, path: parse_rep_and_header(text, pattern_text, path),
            lambda text, path: parse_rep_reference(text, pattern_text, path),
            lambda parsed: formats.emit_rep(*parsed),
        )

    # the package writes .td files and reads none: their rows check that
    # emit_td's output reads back, through the test reader, to itself
    by_suffix = {
        ".gr": (formats.parse_gr, parse_gr_reference, formats.emit_gr),
        ".hgr": (formats.parse_hgr, parse_hgr_reference, formats.emit_hgr),
        ".td": (parse_td_reference, None, lambda dn: formats.emit_td(*dn)),
        ".lists": (formats.parse_lists, None, formats.emit_lists),
    }
    corpus = []
    for name in sorted(os.listdir(FIXTURES)):
        text = read(fixture(name))
        if name.endswith(".rep"):
            ref = text.split()[1]
            corpus.append((text, *rep_format(read(fixture(ref)))))
        else:
            corpus.append((text, *by_suffix[os.path.splitext(name)[1]]))
    corpus += [
        ("p tw 0 0\n", *by_suffix[".gr"]),
        ("h 0 0\n", *by_suffix[".hgr"]),
        ("s td 0 0 0\n", *by_suffix[".td"]),
        ("r edge.hgr\n", *rep_format(read(fixture("edge.hgr")))),
    ]
    graph = formats.parse_gr(read(fixture("k3.gr")))
    for name in ("wheel4.hgr", "double_triangle.hgr"):
        pattern_text = read(fixture(name))
        pattern = formats.parse_hgr(pattern_text)
        target, rep = generate_hard_instance(graph, pattern, find_tripartition(pattern))
        d = tree_decomposition(target, target.n - 1, rng=random.Random(0)).decomposition
        corpus.append((formats.emit_gr(target), *by_suffix[".gr"]))
        corpus.append((formats.emit_rep(rep, name), *rep_format(pattern_text)))
        corpus.append((formats.emit_td(d, target.n), *by_suffix[".td"]))
    return corpus


def test_headed_parsers_match_reference_on_mutated_files():
    # every case: the parser agrees with its reference (value, or ParseError
    # line and message), errors name a line of the file, and a parsed file's
    # canonical emission parses back to itself
    rng = random.Random(11)
    corpus = _fuzz_corpus()
    formats_seen = set()
    cases = 0
    for text, parse, reference, emit in corpus:
        for _ in range(300):
            mutated = _mutate(text, rng)
            got = _outcome(parse, mutated)
            if reference is not None:
                assert got == _outcome(reference, mutated), mutated
                formats_seen.add(text.split()[0])
            if got[0] == "error":
                assert 1 <= got[1][0] <= max(1, len(mutated.splitlines())), mutated
            else:
                canonical = emit(got[1])
                assert emit(parse(canonical, "f")) == canonical, mutated
            cases += 1
    assert cases >= 5000 and formats_seen == {"p", "h", "r"}


# ids that int() reads but emission never writes, then ids out of range (the
# gen-hard targets below have 40 vertices)
FALLBACK_TOKENS = (
    "b:01", "s:01.1", "s:1.01", "b:+1", "+1", "1_0", "０", "99", "41", "s:1.99", "b:0",
)


def _noncanonical(tok: str, rng: random.Random) -> str:
    """tok with a '0' or '+' put before one of its numbers."""
    starts = [
        k for k, ch in enumerate(tok) if ch.isdigit() and (k == 0 or tok[k - 1] in ":.")
    ]
    if not starts:
        return tok
    k = rng.choice(starts)
    return tok[:k] + rng.choice("0+") + tok[k:]


def test_parsers_match_reference_on_noncanonical_and_out_of_range_ids():
    # such ids miss the lookup fast paths of parse_gr and parse_rep; the full
    # checks behind them must give the reference's value or (line, message)
    # on gen-hard targets of benchmark size (40 vertices, about 730 edges)
    rng = random.Random(12)
    corpus = []
    for name in ("wheel4.hgr", "double_triangle.hgr"):
        pattern_text = read(fixture(name))
        pattern = formats.parse_hgr(pattern_text)
        graph = gnm(8, 16, rng)
        target, rep = generate_hard_instance(graph, pattern, find_tripartition(pattern))
        corpus.append((formats.emit_gr(target), formats.parse_gr, parse_gr_reference))
        corpus.append((
            formats.emit_rep(rep, name),
            lambda text, path, pt=pattern_text: parse_rep_and_header(text, pt, path),
            lambda text, path, pt=pattern_text: parse_rep_reference(text, pt, path),
        ))
    seen = set()
    for text, parse, reference in corpus:
        lines = text.splitlines()
        for _ in range(100):
            mutated = list(lines)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(1, len(mutated))  # keep the header
                tokens = mutated[i].split()
                j = rng.randrange(len(tokens))
                kind = rng.randrange(3)
                if kind == 0:
                    tokens[j] = rng.choice(FALLBACK_TOKENS)
                elif kind == 1:
                    tokens[j] = _noncanonical(tokens[j], rng)
                else:  # a loop in a .gr edge line
                    tokens[j] = tokens[-1 - j]
                mutated[i] = " ".join(tokens)
            mutated_text = "\n".join(mutated) + "\n"
            got = _outcome(parse, mutated_text)
            assert got == _outcome(reference, mutated_text), mutated_text
            seen.add((text.split()[0], got[0]))
    assert seen == {("p", "value"), ("p", "error"), ("r", "value"), ("r", "error")}


def _gate_cases(text: str) -> list[str]:
    """text, a canonical .gr or .hgr file whose first edge is not a loop,
    and files just past the edge of the canonical id-table gate: each other
    case leaves it to the checked line loop."""
    header, first, *rest = text.splitlines()
    tag, *counts = header.split()
    head = " ".join([tag] + counts[:-2])
    n, m = int(counts[-2]), int(counts[-1])
    u, v = first.split()

    def with_header(n_, m_, edges):
        return "\n".join([f"{head} {n_} {m_}", *edges]) + "\n"

    cases = [
        text,
        text.replace("\n", "\r\n"),
        text[:-1],
        "c before\n" + text,
        "\n" + text,
        with_header(n, m, [first, "c inside", *rest]),
        with_header(n, m, [first, "", *rest]),
        with_header(n, m, [f"{u}\t{v}", *rest]),
        with_header(n, m, [f"{u}  {v}", *rest]),
        with_header(n, m - 1, [first, *rest]),
        with_header(n, m + 1, [first, *rest]),
        with_header(n, m + 1, [first, first, *rest]),
        with_header(n, m + 1, [first, f"{v} {u}", *rest]),
        with_header(n, m, [f"{u} {u}", *rest]),
        with_header(2 * m, m, [first, *rest]),
        with_header(2 * m + 1, m, [first, *rest]),
        # counts past the header regex's 18 digits: a valid one with leading
        # zeros, and ones past Python's int() digit limit
        with_header("0" * 18 + str(n), m, [first, *rest]),
        with_header("9" * 4301, m, [first, *rest]),
        with_header(n, "9" * 4301, [first, *rest]),
    ]
    for tok in ("01", "+1", "0", str(n + 1)):
        cases.append(with_header(n, m, [f"{tok} {v}", *rest]))
    return cases


def test_parsers_match_reference_at_the_canonical_gate_boundary():
    # canonical bodies take the id table, the cases around them the line
    # loop: both give the reference's value, or its (line, message)
    rng = random.Random(13)
    pattern = wheel(4)
    graph = gnm(6, 12, rng)
    target, _ = generate_hard_instance(graph, pattern, find_tripartition(pattern))
    corpus = [
        (formats.emit_gr(target), formats.parse_gr, parse_gr_reference),
        (formats.emit_gr(path_graph(3)), formats.parse_gr, parse_gr_reference),
        ("h 3 4\n1 2\n2 2\n1 2\n3 1\n", formats.parse_hgr, parse_hgr_reference),
        (formats.emit_hgr(pattern), formats.parse_hgr, parse_hgr_reference),
    ]
    seen = set()
    for text, parse, reference in corpus:
        for case in _gate_cases(text):
            got = _outcome(parse, case)
            assert got == _outcome(reference, case), case
            seen.add((text[0], got[0]))
    assert seen == {("p", "value"), ("p", "error"), ("h", "value"), ("h", "error")}


@pytest.mark.parametrize(
    "parse, text, n, m",
    [
        (formats.parse_gr, "p tw 1000000000 0\n", 10**9, 0),
        (formats.parse_hgr, "h 1000000000 0\n", 10**9, 0),
        (formats.parse_gr, "p tw 1000000000 1\n1 2\n", 10**9, 1),
        (formats.parse_hgr, "h 1000000000 1\n1 2\n", 10**9, 1),
    ],
)
def test_a_large_header_alone_never_sizes_the_id_table(parse, text, n, m):
    # the gate builds its table of n ids only when n <= 2m and the body has
    # m lines; a table sized by this header would take minutes
    start = time.perf_counter()
    g = parse(text)
    assert (g.n, g.m) == (n, m)
    with pytest.raises(ParseError, match="declared 500000000 edges but found 0"):
        parse(text.split("\n")[0].rsplit(" ", 1)[0] + " 500000000\n")
    if parse is formats.parse_gr:
        assert formats.emit_gr(g) == text
    assert time.perf_counter() - start < 0.25


def _chain_representation(legs: list[int]) -> HRepresentation:
    """A caterpillar whose spine vertex j has legs[j] leaves, a path when
    none has any, as intervals of one subdivided edge (pattern `h 2 1`), as
    the benchmark's chains are: spine vertex j covers its leaves' nodes and
    one node shared with each spine neighbour, and each leaf owns one node."""
    spans, start = [], 0
    for k in legs:
        spans.append(range(start, start + k + 2))
        spans += [range(start + 1 + i, start + 2 + i) for i in range(k)]
        start += k + 1
    pattern = SubdividedPattern(Multigraph(2, ((0, 1),)), (start - 1,))
    order = [branch(0), *pattern.path_from(0, 0), branch(1)]
    return HRepresentation(
        pattern, {v: frozenset(order[p] for p in ps) for v, ps in enumerate(spans)}
    )


def _workload_representations(rng: random.Random):
    """A representation of each shape the benchmark workloads write, at the
    low end of their sizes: on a subdivided random cactus and random tree,
    from a circular-arc model on a subdivided triangle, and a path and a
    caterpillar on one subdivided edge."""
    cactus = random_subdivision(random_cactus(20, rng), rng)
    yield random_representation(cactus, 60, rng, 6)[1]
    tree = random_subdivision(random_tree_pattern(112, rng), rng)
    yield random_representation(tree, 100, rng, 6)[1]
    yield representation_from_cycle_arcs(random_arc_model(30, 30, rng))
    yield _chain_representation([0] * 150)
    yield _chain_representation([rng.randint(0, 2) for _ in range(80)])


def test_canonical_files_never_enter_the_line_loop(monkeypatch):
    # every file the workloads write takes the id table, and every id of
    # their .rep files the name table: gen-hard's inputs, targets and
    # patterns, and the graph, pattern and .rep of each workload shape.  The
    # checked line loop and id path are the slow paths, so a shape that fell
    # out of either would cost every op.  One comment line sends a target to
    # the line loop, and one non-canonical id to the id path: both read the
    # same values.
    headers, refs = [], []
    line_loop_header = formats._header
    checked_ref = formats._parse_node_ref

    def spy(rows, tag, before, path):
        headers.append(tag)
        return line_loop_header(rows, tag, before, path)

    def ref_spy(tok, pattern, path, no):
        refs.append(tok)
        return checked_ref(tok, pattern, path, no)

    monkeypatch.setattr(formats, "_header", spy)
    monkeypatch.setattr(formats, "_parse_node_ref", ref_spy)
    rng = random.Random(11)
    targets = []
    for name in ("wheel4.hgr", "double_triangle.hgr"):
        pattern_text = read(fixture(name))
        pattern = formats.parse_hgr(pattern_text)
        for n in range(5, 9):
            g = gnm(n, 2 * n, rng)
            assert formats.parse_gr(formats.emit_gr(g)) == g
            target, rep = generate_hard_instance(g, pattern, find_tripartition(pattern))
            text = formats.emit_gr(target)
            assert formats.parse_gr(text) == target
            parsed = formats.parse_rep(formats.emit_rep(rep, name), pattern_text)
            assert parsed == rep
            targets.append((text, target))
    for rep in _workload_representations(rng):
        g = intersection_graph(rep)
        assert formats.parse_gr(formats.emit_gr(g)) == g
        pattern_text = formats.emit_hgr(rep.pattern.base)
        assert formats.parse_hgr(pattern_text) == rep.pattern.base
        parsed = formats.parse_rep(formats.emit_rep(rep, "p.hgr"), pattern_text)
        assert parsed == rep
    assert set(headers) <= {"r"} and not refs, (headers, refs)
    for text, target in targets:
        header, body = text.split("\n", 1)
        assert formats.parse_gr(f"{header}\nc a comment\n{body}") == target
    assert headers.count("p") == len(targets)
    parsed = formats.parse_rep("r p.hgr\nmap 1 b:01\n", "h 2 1\n1 2\n")
    assert refs == ["b:01"] and parsed.sets == {0: frozenset([0])}


def _rep_texts(rng: random.Random):
    """(rep text, pattern text) pairs: random representations, on patterns
    with loops, parallel pairs and zero counts, emitted; and each .rep
    fixture with non-canonical ids and a repeated id on some map lines."""
    for i in range(150):
        n = rng.randint(1, 6)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 7))]
        if i % 3 == 0:
            edges += [(0, 0)] + edges[:1] * 2
        h = Multigraph(n, tuple(edges))
        _, rep = random_representation(random_subdivision(h, rng, 3), rng.randint(1, 12), rng, 5)
        yield formats.emit_rep(rep, "p.hgr"), formats.emit_hgr(h)
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".rep"):
            text = read(fixture(name))
            for _ in range(20):
                lines = []
                for line in text.splitlines():
                    tokens = line.split()
                    if tokens[0] == "map":
                        tokens[2:] = [
                            _noncanonical(tok, rng) if rng.random() < 0.5 else tok
                            for tok in tokens[2:]
                        ]
                        tokens += tokens[-1:] * rng.randint(0, 1)
                    lines.append(" ".join(tokens))
                yield "\n".join(lines) + "\n", read(fixture(text.split()[1]))


def test_parsed_numbers_match_the_node_sets():
    # a parsed representation's node numbers equal those of the reference
    # parser, which reads node tuples and numbers them in their own sorted
    # order, in the same key order, whether an id took the fast path or the
    # full checks; a repeated id is one node, so verify and the intersection
    # graph agree
    rng = random.Random(30)
    seen = 0
    for text, pattern_text in _rep_texts(rng):
        rep, ref = parse_rep_and_header(text, pattern_text)
        expected, expected_ref = parse_rep_reference(text, pattern_text)
        assert ref == expected_ref
        assert list(rep.sets) == list(expected.sets)
        assert rep.sets == expected.sets and rep == expected
        assert all(type(ids) is frozenset for ids in rep.sets.values())
        g = intersection_graph(expected)
        assert intersection_graph(rep) == g and verify_representation(g, rep).is_ok
        emitted = formats.emit_rep(rep, ref)
        assert emitted == formats.emit_rep(expected, ref)
        assert formats.emit_rep(formats.parse_rep(emitted, pattern_text), ref) == emitted
        seen += text != emitted
    assert seen >= 30  # the fixtures' variants took the full checks


# -- CLI -------------------------------------------------------------------

def test_cli_gen_hard_verify_pipeline(tmp_path, capsys):
    out_graph = str(tmp_path / "target.gr")
    out_rep = str(tmp_path / "inst.rep")
    code = main(
        [
            "gen-hard",
            "--graph", fixture("k3.gr"),
            "--pattern", fixture("wheel4.hgr"),
            "--out-graph", out_graph,
            "--out-rep", out_rep,
        ]
    )
    assert code == 0
    code = main(["verify", "--graph", out_graph, "--rep", out_rep])
    assert code == 0
    out = capsys.readouterr().out
    assert "ok" in out
    # emitted artifacts re-verify through the library as well
    instance = formats.load_instance(graph_path=out_graph, rep_path=out_rep)
    assert verify_representation(instance.graph, instance.representation).is_ok


def test_cli_gen_hard_reports_missing_tripartition(tmp_path):
    k2 = tmp_path / "k2.hgr"
    k2.write_text(formats.emit_hgr(Multigraph(2, ((0, 1),))))
    code = main(
        [
            "gen-hard",
            "--graph", fixture("k3.gr"),
            "--pattern", str(k2),
            "--out-graph", str(tmp_path / "t.gr"),
            "--out-rep", str(tmp_path / "t.rep"),
        ]
    )
    assert code == 1


def test_cli_clique_auto_prefers_cactus(capsys):
    code = main(
        ["clique", "--graph", fixture("c5.gr"), "--rep", fixture("c5.rep")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "strategy: cactus" in out
    assert "size: 2" in out


def test_cli_clique_rep_tests_the_cactus_once(monkeypatch, capsys):
    # the strategy choice and the cactus route read the pattern's one cached
    # answer, so a clique --rep op runs is_cactus once
    calls = []
    real = pattern_module.is_cactus

    def spy(h):
        calls.append(h)
        return real(h)

    for name, module in list(sys.modules.items()):  # every module's binding
        if name.startswith("hgraphs") and getattr(module, "is_cactus", None) is real:
            monkeypatch.setattr(module, "is_cactus", spy)
    for _ in range(3):
        argv = ["clique", "--graph", fixture("c5.gr"), "--rep", fixture("c5.rep")]
        assert main(argv) == 0
        assert "strategy: cactus" in capsys.readouterr().out
    assert len(calls) == 3


def test_cli_clique_helly_and_brute_agree(capsys):
    code = main(
        ["clique", "--graph", fixture("c5.gr"), "--pattern", fixture("c5_cycle.hgr")]
    )
    assert code == 0
    helly_out = capsys.readouterr().out
    assert "strategy: helly" in helly_out and "size: 2" in helly_out
    code = main(["clique", "--graph", fixture("c5.gr"), "--mode", "brute"])
    assert code == 0
    assert "size: 2" in capsys.readouterr().out


def _clique_size(capsys, argv) -> str | None:
    code = main(argv)
    out = capsys.readouterr().out
    if code != 0:
        assert code == 3 and "not helly" in out, (argv, code, out)
        return None
    return next(line for line in out.splitlines() if line.startswith("size: "))


def test_cli_clique_modes_agree_on_cactus_inputs(tmp_path, capsys):
    cases = [(fixture("p3.gr"), fixture("p3.rep")), (fixture("c5.gr"), fixture("c5.rep"))]
    rng = random.Random(18)
    for i in range(20):
        pat = random_subdivision(random_cactus(rng.randint(1, 7), rng), rng, 3)
        g, rep = random_representation(pat, rng.randint(1, 12), rng, 5)
        (tmp_path / f"r{i}.hgr").write_text(formats.emit_hgr(pat.base))
        (tmp_path / f"r{i}.rep").write_text(formats.emit_rep(rep, f"r{i}.hgr"))
        (tmp_path / f"r{i}.gr").write_text(formats.emit_gr(g))
        cases.append((str(tmp_path / f"r{i}.gr"), str(tmp_path / f"r{i}.rep")))
    for graph, rep in cases:
        sizes = {
            mode: _clique_size(
                capsys, ["clique", "--graph", graph, "--rep", rep, "--mode", mode]
            )
            for mode in ("cactus", "treewidth", "brute", "helly")
        }
        brute = sizes["brute"]
        assert brute is not None, (graph, sizes)
        assert sizes["cactus"] == sizes["treewidth"] == brute, (graph, sizes)
        assert sizes["helly"] in (brute, None), (graph, sizes)


def test_cli_clique_helly_certificate_exit_code(tmp_path):
    big = tmp_path / "cocktail.gr"
    big.write_text(formats.emit_gr(complete_multipartite([2] * 12)))
    code = main(
        [
            "clique",
            "--graph", str(big),
            "--pattern", fixture("c5_cycle.hgr"),
            "--mode", "helly",
        ]
    )
    assert code == 3


@pytest.mark.parametrize("mode", ["auto", "helly"])
def test_cli_clique_helly_on_a_pattern_without_nodes(tmp_path, capsys, mode):
    (tmp_path / "empty.hgr").write_text("h 0 0\n")
    (tmp_path / "k3.gr").write_text(formats.emit_gr(complete_graph(3)))
    (tmp_path / "none.gr").write_text("p tw 0 0\n")
    argv = ["clique", "--pattern", str(tmp_path / "empty.hgr"), "--mode", mode]
    assert main(argv + ["--graph", str(tmp_path / "k3.gr")]) == 3
    assert "not helly: more than 0 maximal cliques" in capsys.readouterr().out
    assert main(argv + ["--graph", str(tmp_path / "none.gr")]) == 0
    assert "size: 0" in capsys.readouterr().out


def test_cli_clique_without_pattern_or_rep_picks_treewidth(capsys):
    assert main(["clique", "--graph", fixture("c5.gr")]) == 0
    assert capsys.readouterr().out == (
        "strategy: treewidth (no usable representation or pattern)\n"
        "clique: 1 5\nsize: 2\n"
    )


@pytest.mark.parametrize(
    "mode,message",
    [("cactus", "needs --rep"), ("helly", "needs --pattern or --rep")],
    ids=["cactus", "helly"],
)
def test_cli_clique_mode_without_its_input_exit_code(capsys, mode, message):
    argv = ["clique", "--graph", fixture("c5.gr"), "--mode", mode]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        f"strategy: {mode} (requested explicitly)\n",
        f"error: {mode} mode {message}\n",
    )


def test_cli_helly_reports_violation(tmp_path, capsys):
    # three arcs of a subdivided triangle meet pairwise but share no node
    pat = SubdividedPattern(complete_pattern(3), (1, 1, 1))
    arcs = [(0, 0, 1), (1, 1, 2), (2, 2, 0)]
    sets = {k: frozenset({branch(a), sub(pat, k, 1), branch(b)}) for k, a, b in arcs}
    (tmp_path / "tri.hgr").write_text(formats.emit_hgr(pat.base))
    rep = formats.emit_rep(HRepresentation(pat, sets), "tri.hgr")
    (tmp_path / "tri.rep").write_text(rep)
    assert main(["helly", "--rep", str(tmp_path / "tri.rep")]) == 1
    assert capsys.readouterr().out == "violation: 1 2 3\n"


def test_cli_helly_has_no_cap_option(capsys):
    # the pattern's node count bounds the enumeration, so no flag sets it
    with pytest.raises(SystemExit) as exc:
        main(["helly", "--rep", fixture("p3.rep"), "--cap", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hgraphs ")
    assert "unrecognized arguments: --cap 5" in err


def test_cli_helly_bounds_by_pattern_nodes(tmp_path, capsys):
    # a 1500-vertex interval path has 1499 maximal cliques on 1501 nodes:
    # Helly; K_{2x10} on a 20-node cycle has 1024: the 21st certifies it is not
    for name, rep, code, out in (
        ("path", interval_path_representation(1500), 0, "helly\n"),
        ("party", cocktail_party_representation(10), 1,
         "not helly: more than 20 maximal cliques "
         "(a Helly representation has at most one per pattern node)\n"),
    ):
        (tmp_path / f"{name}.hgr").write_text(formats.emit_hgr(rep.pattern.base))
        (tmp_path / f"{name}.rep").write_text(formats.emit_rep(rep, f"{name}.hgr"))
        assert main(["helly", "--rep", str(tmp_path / f"{name}.rep")]) == code
        assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "rep_text,lists_text,line,message",
    [
        ("r edge.hgr\nmap 1\n", None, 2, "expected 'map <v> <node>...'"),
        ("r edge.hgr\nmap 1 s:1\n", None, 2, "expected s:<edge>.<i>, got 's:1'"),
        (None, "1: 1\n0: 1\n", 2, "vertex 0 must be positive"),
        (None, "c none\n1:\n", 2, "empty color list for vertex 1"),
    ],
    ids=["map-without-nodes", "sub-id-without-dot", "lists-vertex-0", "lists-no-colors"],
)
def test_cli_input_line_errors(tmp_path, capsys, rep_text, lists_text, line, message):
    if rep_text is not None:
        (tmp_path / "edge.hgr").write_text(read(fixture("edge.hgr")))
        bad = tmp_path / "bad.rep"
        bad.write_text(rep_text)
        argv = ["verify", "--graph", fixture("p3.gr"), "--rep", str(bad)]
    else:
        bad = tmp_path / "bad.lists"
        bad.write_text(lists_text)
        argv = ["color", "--graph", fixture("p3.gr"), "--lists", str(bad), "--k", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{bad}:{line}: {message}\n"


def test_cli_rep_pattern_must_match_pattern_file(capsys):
    rep = fixture("c5.rep")
    argv = ["clique", "--graph", fixture("c5.gr"), "--rep", rep,
            "--pattern", fixture("wheel4.hgr")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"{rep}:1: representation pattern differs from --pattern file\n"
    )


def test_cli_color_unsat_exit_code(capsys):
    code = main(
        [
            "color",
            "--graph", fixture("path4.gr"),
            "--lists", fixture("path4.lists"),
            "--k", "2",
        ]
    )
    assert code == 1
    assert "UNSAT" in capsys.readouterr().out


def test_cli_color_answers_pinned_conflict_before_decomposing(monkeypatch, capsys):
    # path4.lists pins the path's ends to 1; the pins force the middle in
    # turn, and the last forced color empties an end's list
    def spy(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"color called fpt.{name} on a decided instance")
        return refuse

    for name in ("tree_decomposition", "make_nice", "list_k_coloring"):
        monkeypatch.setattr(fpt, name, spy(name))
    argv = ["color", "--graph", fixture("path4.gr"), "--lists", fixture("path4.lists")]
    assert main(argv + ["--k", "2"]) == 1
    assert capsys.readouterr().out == "UNSAT\n"


def test_cli_color_prints_a_fully_forced_coloring_without_decomposing(
    tmp_path, monkeypatch, capsys
):
    # lists {1, 2} on a tree with one vertex pinned to 1: narrowing forces
    # every vertex, so the coloring is determined and is the DP's
    g = random_tree(60, random.Random(37))
    lists = {v: frozenset({1, 2}) for v in range(g.n)}
    lists[17] = frozenset({1})
    (tmp_path / "t.gr").write_text(formats.emit_gr(g))
    (tmp_path / "t.lists").write_text(formats.emit_lists(lists))
    d = tree_decomposition(g, g.n - 1).decomposition
    want = fpt.list_k_coloring(g, dict(lists), 3, d)

    def refuse(*args, **kwargs):
        raise AssertionError("color decomposed a fully forced instance")

    monkeypatch.setattr(fpt, "tree_decomposition", refuse)
    argv = ["color", "--graph", str(tmp_path / "t.gr"), "--lists", str(tmp_path / "t.lists")]
    assert main(argv + ["--k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["coloring:"] + [f"{v + 1} {want[v]}" for v in range(g.n)]
    assert len(set(want.values())) == 2


def test_cli_color_stops_at_the_state_budget(tmp_path, capsys):
    # 3-coloring a 12x12 grid runs the DP through bags of a dozen vertices
    graph = tmp_path / "grid.gr"
    graph.write_text(formats.emit_gr(grid_graph(12, 12)))
    start = time.perf_counter()
    assert main(["color", "--graph", str(graph), "--k", "3"]) == 3
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"limit exceeded: list coloring built more than {fpt.STATE_BUDGET} DP states\n"
    )


def test_cli_clique_stops_at_the_branch_budget(tmp_path, monkeypatch, capsys):
    # the bag scan of K6 adds six branch nodes, one path down to the clique
    graph = tmp_path / "k6.gr"
    graph.write_text(formats.emit_gr(complete_graph(6)))
    argv = ["clique", "--graph", str(graph), "--mode", "treewidth"]
    monkeypatch.setattr(fpt, "BRANCH_BUDGET", 6)
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("clique: 1 2 3 4 5 6\nsize: 6\n")
    monkeypatch.setattr(fpt, "BRANCH_BUDGET", 5)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "strategy: treewidth (requested explicitly)\n"
    assert captured.err == "limit exceeded: bag scan added more than 5 branch nodes\n"


def test_cli_color_sat_prints_coloring(capsys):
    code = main(["color", "--graph", fixture("k3.gr"), "--k", "3"])
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    coloring = {int(a): int(b) for a, b in (l.split() for l in lines)}
    assert sorted(coloring) == [1, 2, 3]
    assert len(set(coloring.values())) == 3


def test_cli_color_long_path(tmp_path, capsys):
    graph = tmp_path / "path.gr"
    graph.write_text(formats.emit_gr(path_graph(600)))
    assert main(["color", "--graph", str(graph), "--k", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 601


def test_cli_td_writes_valid_file(tmp_path, capsys):
    out = str(tmp_path / "out.td")
    code = main(["td", "--graph", fixture("c5.gr"), "--out", out])
    assert code == 0
    d, n = parse_td_reference(read(out), out)
    g = formats.parse_gr(read(fixture("c5.gr")))
    assert n == g.n
    assert check_decomposition(g, d) == []


def test_cli_td_seed_draws_tied_vertices_as_before(tmp_path, capsys):
    # --seed draws among tied min-fill vertices; the files must match the
    # set-based min-fill order drawing from the same seed, also on a dense
    # gen-hard target (30 vertices, 92% of pairs present)
    pattern = wheel(4)
    target, _ = generate_hard_instance(
        gnm(6, 12, random.Random(5)), pattern, find_tripartition(pattern)
    )
    assert target.n == 30
    cases = {"grid": grid_graph(6, 6), "cycle": cycle_graph(15), "hard": target}
    for name, g in cases.items():
        graph = tmp_path / f"{name}.gr"
        graph.write_text(formats.emit_gr(g))
        out = str(tmp_path / f"{name}.td")
        assert main(["td", "--graph", str(graph), "--seed", "3", "--out", out]) == 0
        drawn = minfill_order_reference(g, random.Random(3))
        assert drawn != minfill_order_reference(g)
        assert read(out) == formats.emit_td(decomposition_from_order(g, drawn), g.n)
    # at most 12 vertices the exact subset DP decides, and the seed is unused
    out = str(tmp_path / "c5.td")
    assert main(["td", "--graph", fixture("c5.gr"), "--seed", "3", "--out", out]) == 0
    g = formats.parse_gr(read(fixture("c5.gr")))
    assert read(out) == formats.emit_td(exact_decomposition(g)[1], g.n)
    capsys.readouterr()


def test_cli_td_on_long_path(tmp_path, capsys):
    g = path_graph(5000)
    graph = tmp_path / "path.gr"
    graph.write_text(formats.emit_gr(g))
    out = str(tmp_path / "path.td")
    assert main(["td", "--graph", str(graph), "--out", out]) == 0
    assert capsys.readouterr().out == f"width: 1 -> {out}\n"
    d, n = parse_td_reference(read(out), out)
    assert n == g.n and d.width == 1
    assert check_decomposition(g, d) == []


def test_cli_td_width_exceeded(tmp_path):
    k5 = tmp_path / "k5.gr"
    k5.write_text(formats.emit_gr(complete_graph(5)))
    code = main(
        ["td", "--graph", str(k5), "--target", "2", "--out", str(tmp_path / "o.td")]
    )
    assert code == 1


def test_cli_subdivide_and_complement(tmp_path):
    out1 = str(tmp_path / "sub.gr")
    assert main(["subdivide", "--graph", fixture("k3.gr"), "--out", out1]) == 0
    sub_graph = formats.parse_gr(read(out1))
    assert sub_graph.n == 9 and sub_graph.m == 9
    out2 = str(tmp_path / "comp.gr")
    assert main(["complement", "--graph", fixture("p3.gr"), "--out", out2]) == 0
    assert formats.parse_gr(read(out2)).edges == frozenset({(0, 2)})


def test_cli_helly_reports(capsys):
    assert main(["helly", "--rep", fixture("p3.rep")]) == 0
    assert "helly" in capsys.readouterr().out


def test_cli_atoms(capsys):
    assert main(["atoms", "--graph", fixture("path4.gr")]) == 0
    out = capsys.readouterr().out
    assert "atoms: 3" in out


def _commands() -> set[str]:
    """The parser's command names."""
    subs = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return set(subs.choices)


def test_cli_each_subcommand_has_one_cmd_function():
    # main runs cmd_<command>, so a renamed command or function would end in a
    # KeyError traceback
    names = {"cmd_" + name.replace("-", "_") for name in _commands()}
    functions = {name for name in vars(cli) if name.startswith("cmd_")}
    assert names == functions
    assert all(callable(getattr(cli, name)) for name in names)


def test_cli_runs_rebound_cmd_function_without_rebuilding_parser(capsys, monkeypatch):
    argv = ["atoms", "--graph", fixture("path4.gr")]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    calls = {"build_parser": 0, "cmd_atoms": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
    assert calls == {"build_parser": 0, "cmd_atoms": 2}


def test_cli_each_flag_only_on_the_command_that_reads_it(tmp_path, capsys):
    grid = tmp_path / "grid.gr"
    grid.write_text(formats.emit_gr(grid_graph(3, 3)))
    out = str(tmp_path / "o.td")
    argvs = {  # a call of each command that runs
        "clique": ["clique", "--graph", fixture("c5.gr")],
        "color": ["color", "--graph", fixture("c5.gr"), "--k", "3"],
        "gen-hard": ["gen-hard", "--graph", fixture("k3.gr"),
                     "--pattern", fixture("wheel4.hgr"),
                     "--out-graph", str(tmp_path / "t.gr"),
                     "--out-rep", str(tmp_path / "t.rep")],
        "verify": ["verify", "--graph", fixture("c5.gr"), "--rep", fixture("c5.rep")],
        "helly": ["helly", "--rep", fixture("c5.rep")],
        "atoms": ["atoms", "--graph", fixture("c5.gr")],
        "td": ["td", "--graph", str(grid), "--target", "2", "--out", out],
        "subdivide": ["subdivide", "--graph", fixture("c5.gr"),
                      "--out", str(tmp_path / "s.gr")],
        "complement": ["complement", "--graph", fixture("c5.gr"),
                       "--out", str(tmp_path / "c.gr")],
    }
    assert set(argvs) == _commands()
    for argv in argvs.values():
        assert main(argv) == 0
    capsys.readouterr()
    # on its own command, each flag's value reaches the call
    assert main(argvs["td"] + ["--approx-factor", "1"]) == 0
    assert capsys.readouterr().out == f"width: 3 (over accepted factor) -> {out}\n"
    for extra in ([], ["--seed", "3"]):
        assert main(argvs["td"] + extra) == 0
        assert capsys.readouterr().out == f"width: 3 -> {out}\n"
    # on any other command, and before the command, each flag exits 2
    # --oracle-limit is on no command: the brute-force limit is a constant
    homes = {"--oracle-limit": None, "--seed": "td", "--approx-factor": "td"}
    for flag, home in homes.items():
        for command, argv in argvs.items():
            misplaced = [[flag, "1", *argv]]
            if command != home:
                misplaced.append([*argv, flag, "1"])
            for bad in misplaced:
                with pytest.raises(SystemExit) as exc:
                    main(bad)
                assert exc.value.code == 2, bad
                assert capsys.readouterr().err.startswith("usage: hgraphs "), bad


def test_cli_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p tw 2 1\n1 5\n")
    code = main(["clique", "--graph", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.gr:2" in err


@pytest.mark.parametrize("first,second", [(3, 0), (0, 3)])
def test_cli_duplicate_subdiv_line_exit_code(tmp_path, capsys, first, second):
    # a second subdiv line for the same edge must not silently replace the first
    (tmp_path / "edge.hgr").write_text(read(fixture("edge.hgr")))
    graph = tmp_path / "two.gr"
    graph.write_text("p tw 2 0\n")
    rep = tmp_path / "dup.rep"
    rep.write_text(
        f"r edge.hgr\nsubdiv 1 {first}\nsubdiv 1 {second}\nmap 1 b:1\nmap 2 b:2\n"
    )
    assert main(["verify", "--graph", str(graph), "--rep", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err == f"{rep}:3: duplicate subdiv line for edge 1\n"


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("map 1 b:1\nr edge.hgr\n", 1, "content before r line"),
        ("c a note\nr\n", 2, "expected 'r <pattern-file>'"),
        ("c only a comment\n", 1, "missing r line"),
    ],
    ids=["before-header", "header-arity", "missing-header"],
)
def test_cli_rep_header_errors(tmp_path, capsys, text, line, message):
    # the CLI reads a .rep's pattern reference with parse_rep's own header rules
    rep = tmp_path / "bad.rep"
    rep.write_text(text)
    assert main(["verify", "--graph", fixture("p3.gr"), "--rep", str(rep)]) == 2
    assert capsys.readouterr().err == f"{rep}:{line}: {message}\n"


@pytest.mark.parametrize(
    "graph_text,line",
    [("p tw 1 0\n", 4), ("p tw 2 1\n1 2\n", 5), ("p tw 4 2\n1 2\n2 3\n", 1)],
    ids=["rep-beyond-graph-by-two", "rep-beyond-graph-by-one", "graph-beyond-rep"],
)
def test_cli_rep_vertex_count_mismatch_names_its_line(tmp_path, capsys, graph_text, line):
    # the first map line of a vertex the graph lacks, else the header line
    graph = tmp_path / "g.gr"
    graph.write_text(graph_text)
    rep = fixture("p3.rep")
    assert main(["verify", "--graph", str(graph), "--rep", rep]) == 2
    assert capsys.readouterr().err == (
        f"{rep}:{line}: representation does not map exactly the graph vertices\n"
    )


@pytest.mark.parametrize(
    "graph_text,rep_text,report",
    [
        ("p tw 3 1\n1 2\n", None, "mismatch: (2,3) expected non-edge, got edge"),
        (
            None,
            "r edge.hgr\nsubdiv 1 1\nmap 1 b:1 s:1.1\nmap 2 b:2 s:1.1\nmap 3 b:1 b:2\n",
            "disconnected: vertex 3",
        ),
    ],
    ids=["mismatch", "disconnected"],
)
def test_cli_clique_reports_failed_verification_as_verify(
    tmp_path, capsys, graph_text, rep_text, report
):
    graph, rep = fixture("p3.gr"), fixture("p3.rep")
    if graph_text is not None:
        graph = str(tmp_path / "g.gr")
        (tmp_path / "g.gr").write_text(graph_text)
    if rep_text is not None:
        rep = str(tmp_path / "r.rep")
        (tmp_path / "r.rep").write_text(rep_text)
        (tmp_path / "edge.hgr").write_text(read(fixture("edge.hgr")))
    assert main(["verify", "--graph", graph, "--rep", rep]) == 1
    assert capsys.readouterr().out == report + "\n"
    assert main(["clique", "--graph", graph, "--rep", rep]) == 2
    out, err = capsys.readouterr()
    assert out == "strategy: cactus (representation on a cactus pattern given)\n"
    assert err == f"error: representation failed verification\n{report}\n"


def test_cli_gen_hard_tripartition_search_limit_exit_code(tmp_path, capsys):
    # 16 nodes of cycle rank 15: the one component must be searched
    pattern = tmp_path / "wheel15.hgr"
    pattern.write_text(formats.emit_hgr(wheel(15)))
    out_graph, out_rep = tmp_path / "t.gr", tmp_path / "t.rep"
    argv = ["gen-hard", "--graph", fixture("k3.gr"), "--pattern", str(pattern),
            "--out-graph", str(out_graph), "--out-rep", str(out_rep)]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "limit exceeded: n=16 exceeds tripartition search limit 15\n"
    )
    assert not out_graph.exists() and not out_rep.exists()


def test_cli_gen_hard_without_tripartition_answers_at_search_limit(tmp_path, capsys):
    # a path has cycle rank 0, so the search skips it without trying labelings
    pattern = tmp_path / "path15.hgr"
    pattern.write_text(formats.emit_hgr(path_pattern(15)))
    out_graph, out_rep = tmp_path / "t.gr", tmp_path / "t.rep"
    argv = ["gen-hard", "--graph", fixture("k3.gr"), "--pattern", str(pattern),
            "--out-graph", str(out_graph), "--out-rep", str(out_rep)]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == (
        "pattern admits no tripartition with doubled connections\n"
    )
    assert not out_graph.exists() and not out_rep.exists()


def test_cli_gen_hard_on_a_path_above_the_search_limit_answers_no(tmp_path, capsys):
    # a path is a cactus, so no search and no search limit applies
    pattern = tmp_path / "path16.hgr"
    pattern.write_text(formats.emit_hgr(path_pattern(16)))
    out_graph, out_rep = tmp_path / "t.gr", tmp_path / "t.rep"
    argv = ["gen-hard", "--graph", fixture("k3.gr"), "--pattern", str(pattern),
            "--out-graph", str(out_graph), "--out-rep", str(out_rep)]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "pattern admits no tripartition with doubled connections\n", ""
    )
    assert not out_graph.exists() and not out_rep.exists()


def test_cli_gen_hard_on_cactus_pattern_answers_at_once(tmp_path, capsys):
    # a chain of seven triangles (15 nodes, cycle rank 7): no cactus has a
    # tripartition, so no labeling is tried
    pattern = tmp_path / "triangles.hgr"
    chain = Multigraph(15, tuple(
        e for i in range(0, 14, 2) for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))
    ))
    pattern.write_text(formats.emit_hgr(chain))
    out_graph, out_rep = tmp_path / "t.gr", tmp_path / "t.rep"
    argv = ["gen-hard", "--graph", fixture("k3.gr"), "--pattern", str(pattern),
            "--out-graph", str(out_graph), "--out-rep", str(out_rep)]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == (
        "pattern admits no tripartition with doubled connections\n"
    )
    assert not out_graph.exists() and not out_rep.exists()


def test_cli_gen_hard_rejects_pattern_path_with_whitespace(tmp_path, capsys):
    # the .rep header `r <pattern-file>` holds one token, so such a file could
    # not be read back
    (tmp_path / "my dir").mkdir()
    pattern = tmp_path / "my dir" / "wheel4.hgr"
    pattern.write_text(read(fixture("wheel4.hgr")))
    out_graph, out_rep = tmp_path / "t.gr", tmp_path / "t.rep"
    argv = ["gen-hard", "--graph", fixture("k3.gr"), "--pattern", str(pattern),
            "--out-graph", str(out_graph), "--out-rep", str(out_rep)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{pattern}:0: pattern path contains whitespace\n"
    assert not out_graph.exists() and not out_rep.exists()


def test_cli_clique_brute_oracle_limit_exit_code(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "p21.gr"
    graph.write_text(formats.emit_gr(path_graph(21)))
    argv = ["clique", "--graph", str(graph), "--mode", "brute"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "limit exceeded: n=21 exceeds oracle limit 20\n"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--oracle-limit", "21"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: hgraphs ")
    monkeypatch.setattr(core, "ORACLE_LIMIT", 21)
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("clique: 1 2\nsize: 2\n")


def test_cli_negative_vertex_count_exit_code(tmp_path, capsys):
    bad = tmp_path / "neg.gr"
    bad.write_text("c header below\np tw -1 0\n")
    assert main(["clique", "--graph", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "neg.gr:2: vertex count must be non-negative, got -1" in err


@pytest.mark.parametrize("argv,text", [
    (["color", "--graph", fixture("k3.gr"), "--k", "abc"], "abc"),
    (["td", "--graph", fixture("p3.gr"), "--target", "x", "--out", "o.td"], "x"),
])
def test_cli_non_integer_flag_exit_code(capsys, argv, text):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"expected an integer, got {text!r}" in capsys.readouterr().err


def test_cli_negative_target_exit_code(tmp_path, capsys):
    out = str(tmp_path / "o.td")
    with pytest.raises(SystemExit) as exc:
        main(["td", "--graph", fixture("p3.gr"), "--target", "-1", "--out", out])
    assert exc.value.code == 2
    assert "argument --target: must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["td", "gen-hard", "subdivide", "complement"])
def test_cli_unwritable_output_exit_code(tmp_path, capsys, command):
    bad = str(tmp_path / "missing" / "out")
    argv = [command, "--graph", fixture("k3.gr")]
    if command == "gen-hard":
        argv += ["--pattern", fixture("wheel4.hgr"), "--out-graph", bad,
                 "--out-rep", str(tmp_path / "t.rep")]
    else:
        argv += ["--out", bad]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}:0: cannot write file: ")
    assert "Traceback" not in err


def test_cli_gen_hard_leaves_no_graph_when_rep_unwritable(tmp_path, capsys):
    out_graph = tmp_path / "t.gr"
    bad = str(tmp_path / "missing" / "t.rep")
    argv = ["gen-hard", "--graph", fixture("k3.gr"),
            "--pattern", fixture("wheel4.hgr"),
            "--out-graph", str(out_graph), "--out-rep", bad]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"{bad}:0: cannot write file: ")
    assert not out_graph.exists()


@pytest.mark.parametrize("kind", ["gr", "lists"])
def test_cli_input_not_utf8_exit_code(tmp_path, capsys, kind):
    bad = tmp_path / f"bad.{kind}"
    if kind == "gr":
        bad.write_bytes(b"p tw 2 1\n1 2\n\xff\n")
        argv = ["atoms", "--graph", str(bad)]
    else:
        bad.write_bytes(b"1: 1\n\xff\n")
        argv = ["color", "--graph", fixture("k3.gr"), "--lists", str(bad), "--k", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}:0: cannot read file: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_color_list_outside_palette_names_file_vertex(tmp_path, capsys):
    lists = tmp_path / "bad.lists"
    lists.write_text("1: 5\n")
    argv = ["color", "--graph", fixture("k3.gr"), "--lists", str(lists), "--k", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"{lists}:1: vertex 1 lists color 5 outside 1..3\n"
    )


def test_cli_color_list_outside_palette_names_its_line(tmp_path, capsys):
    lists = tmp_path / "big.lists"
    lists.write_text("c x\n1: 1\n3: 5\n")
    argv = ["color", "--graph", fixture("p3.gr"), "--lists", str(lists), "--k", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"{lists}:3: vertex 3 lists color 5 outside 1..2\n"
    )


def test_cli_color_list_vertex_outside_graph_names_its_line(tmp_path, capsys):
    lists = tmp_path / "far.lists"
    lists.write_text("c comment\n1: 1\n2: 1 2\n7: 1\n")
    argv = ["color", "--graph", fixture("p3.gr"), "--lists", str(lists), "--k", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{lists}:4: list vertex 7 outside graph\n"


@pytest.mark.parametrize("k", ["0", "-2"])
def test_cli_color_nonpositive_k_exit_code(capsys, k):
    with pytest.raises(SystemExit) as exc:
        main(["color", "--graph", fixture("k3.gr"), "--k", k])
    assert exc.value.code == 2
    assert f"argument --k: must be at least 1, got {k}" in capsys.readouterr().err


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    def run():
        out_graph = str(tmp_path / "t.gr")
        out_rep = str(tmp_path / "t.rep")
        main(
            [
                "gen-hard",
                "--graph", fixture("k3.gr"),
                "--pattern", fixture("double_triangle.hgr"),
                "--out-graph", out_graph,
                "--out-rep", out_rep,
            ]
        )
        return capsys.readouterr().out + read(out_graph) + read(out_rep)

    assert run() == run()


# (argv, the pattern files its .rep names): argv names its inputs by fixture
# name, copied afresh into a directory per case, and its outputs out.*
CLI_FUZZ_RUNS = (
    (["verify", "--graph", "p3.gr", "--rep", "p3.rep"], ("edge.hgr",)),
    (["clique", "--graph", "c5.gr", "--rep", "c5.rep"], ("c5_cycle.hgr",)),
    (["clique", "--graph", "p3.gr", "--rep", "p3.rep", "--mode", "helly"],
     ("edge.hgr",)),
    (["clique", "--graph", "k3.gr", "--mode", "treewidth"], ()),
    (["clique", "--graph", "k3.gr", "--mode", "brute"], ()),  # ORACLE_LIMIT 2
    (["helly", "--rep", "c5.rep"], ("c5_cycle.hgr",)),
    (["color", "--graph", "path4.gr", "--lists", "path4.lists", "--k", "2"], ()),
    (["atoms", "--graph", "c5.gr"], ()),
    (["gen-hard", "--graph", "k3.gr", "--pattern", "wheel4.hgr",
      "--out-graph", "out.gr", "--out-rep", "out.rep"], ()),
)


def test_cli_exit_codes_on_mutated_inputs(tmp_path, capsys, monkeypatch):
    # no exception escapes main; exit 2 names an input file and a line of it
    # (line 0 only for a file that cannot be read) or is an 'error:' report
    # such as a representation that fails verification
    monkeypatch.setattr(core, "ORACLE_LIMIT", 2)
    rng = random.Random(13)
    codes = set()
    for case in range(1600):
        argv, referenced = CLI_FUZZ_RUNS[case % len(CLI_FUZZ_RUNS)]
        inputs = [a for a in argv if "." in a and not a.startswith("out.")]
        texts = {name: read(fixture(name)) for name in inputs + list(referenced)}
        for name in rng.sample(sorted(texts), rng.randint(1, len(texts))):
            texts[name] = _mutate(texts[name], rng)
        case_dir = tmp_path / str(case)
        case_dir.mkdir()
        for name, text in texts.items():
            (case_dir / name).write_text(text, encoding="utf-8")
        code = main([str(case_dir / a) if "." in a else a for a in argv])
        err = capsys.readouterr().err
        codes.add(code)
        assert code in (0, 1, 2, 3), (argv, texts)
        if code != 2 or err.startswith("error: "):
            continue
        # a .rep header may name a pattern file with ':' in its name
        path, line, message = re.match(r"(.*?):(\d+): (.*)", err, re.S).groups()
        assert os.path.dirname(path) == str(case_dir), err
        name, line = os.path.basename(path), int(line)
        if line == 0:
            assert message.startswith("cannot read file: ") and name not in texts, err
        else:
            assert 1 <= line <= max(1, len(texts[name].splitlines())), (err, texts)
    assert codes == {0, 1, 2, 3}
