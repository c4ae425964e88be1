import os

import pytest

from hgraphs import formats
from hgraphs.cli import main
from hgraphs.core import Multigraph, complete_graph, path_graph
from hgraphs.errors import ParseError
from hgraphs.fpt import check_decomposition
from hgraphs.representation import verify_representation

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


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
        rep, ref = formats.parse_rep(text, read(fixture(pattern)), name, pattern)
        assert ref == pattern
        assert formats.emit_rep(rep, ref) == text


def test_td_round_trip_on_fixtures():
    text = read(fixture("p3.td"))
    d, n = formats.parse_td(text, "p3.td")
    assert formats.emit_td(d, n) == text


def test_lists_round_trip_on_fixtures():
    text = read(fixture("path4.lists"))
    assert formats.emit_lists(formats.parse_lists(text)) == text


def test_gr_parser_accepts_comments_and_1_based_ids():
    g = formats.parse_gr("c a comment\np tw 3 2\n1 2\n2 3\n")
    assert g == path_graph(3)


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


def test_td_parser_validates_header():
    with pytest.raises(ParseError):
        formats.parse_td("s td 1 2 3\nb 1 1 2\nb 2 3\n", "bad.td")
    with pytest.raises(ParseError) as err:
        formats.parse_td("s td 1 5 3\nb 1 1 2\n", "bad.td")
    assert "width" in err.value.message


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


def test_cli_clique_helly_certificate_exit_code(tmp_path):
    from hgraphs.core import complete_multipartite

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
    d, n = formats.parse_td(read(out), out)
    g = formats.parse_gr(read(fixture("c5.gr")))
    assert n == g.n
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


def test_cli_global_flags_accepted_in_both_positions(capsys):
    assert main(["helly", "--rep", fixture("p3.rep"), "--cap", "5"]) == 0
    assert main(["--cap", "5", "helly", "--rep", fixture("p3.rep")]) == 0
    assert main(["clique", "--graph", fixture("c5.gr"), "--mode", "brute",
                 "--oracle-limit", "5"]) == 0
    capsys.readouterr()


def test_cli_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p tw 2 1\n1 5\n")
    code = main(["clique", "--graph", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.gr:2" in err


def test_cli_negative_vertex_count_exit_code(tmp_path, capsys):
    bad = tmp_path / "neg.gr"
    bad.write_text("c header below\np tw -1 0\n")
    assert main(["clique", "--graph", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "neg.gr:2: vertex count must be non-negative, got -1" in err


def test_cli_zero_cap_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--cap", "0", "helly", "--rep", fixture("p3.rep")])
    assert exc.value.code == 2
    assert "argument --cap: must be at least 1, got 0" in capsys.readouterr().err


def test_cli_negative_target_exit_code(tmp_path, capsys):
    out = str(tmp_path / "o.td")
    with pytest.raises(SystemExit) as exc:
        main(["td", "--graph", fixture("p3.gr"), "--target", "-1", "--out", out])
    assert exc.value.code == 2
    assert "argument --target: must be at least 0, got -1" in capsys.readouterr().err


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
