"""Command-line front end.

Exit codes: 0 success / answer yes; 1 answer no or UNSAT; 2 malformed or
inconsistent input, or a file that cannot be read or written; 3 a search
limit was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from dataclasses import dataclass

from . import clique as cliquemod
from . import fpt
from .core import full_lists, max_clique_bruteforce
from .errors import (
    ExactLimitExceeded,
    HgraphsError,
    InvalidRepresentation,
    OracleLimitExceeded,
    ParseError,
    SearchLimitExceeded,
)
from .formats import (
    _list_line,
    emit_gr,
    emit_rep,
    emit_td,
    load_instance,
)
from .pattern import find_tripartition
from .representation import generate_hard_instance, verify_representation
from .core import complement as complement_graph
from .core import two_subdivision

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


@dataclass(frozen=True)
class StrategyChoice:
    name: str  # "cactus" | "helly" | "treewidth" | "brute"
    reason: str


def _available_pattern(instance):
    if instance.pattern is not None:
        return instance.pattern
    if instance.representation is not None:
        return instance.representation.pattern.base
    return None


def choose_strategy(mode: str, instance) -> StrategyChoice:
    """Dispatch rule: cactus, then helly, then treewidth.

    Brute force runs only when requested explicitly.
    """
    if mode != "auto":
        return StrategyChoice(mode, "requested explicitly")
    rep = instance.representation
    if rep is not None and rep.pattern.cactus:
        return StrategyChoice("cactus", "representation on a cactus pattern given")
    if _available_pattern(instance) is not None:
        return StrategyChoice("helly", "pattern given, trying the Helly clique bound")
    return StrategyChoice("treewidth", "no usable representation or pattern")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(path, 0, f"cannot write file: {exc}")


def _print_vertices(label: str, verts) -> None:
    print(f"{label}: " + " ".join(str(v + 1) for v in verts))


def cmd_clique(args) -> int:
    instance = load_instance(args.graph, args.pattern, args.rep)
    g = instance.graph
    choice = choose_strategy(args.mode, instance)
    print(f"strategy: {choice.name} ({choice.reason})")
    if choice.name == "cactus":
        if instance.representation is None:
            print("error: cactus mode needs --rep", file=sys.stderr)
            return EXIT_INPUT
        best = cliquemod.clique_cactus(g, instance.representation)
    elif choice.name == "helly":
        pattern = _available_pattern(instance)
        if pattern is None:
            print("error: helly mode needs --pattern or --rep", file=sys.stderr)
            return EXIT_INPUT
        result = cliquemod.clique_helly(g, pattern)
        if result.exceeded:
            print(
                f"not helly: more than {result.bound} maximal cliques "
                f"(no Helly representation on this pattern exists)"
            )
            return EXIT_LIMIT
        best = result.clique
    elif choice.name == "treewidth":
        attempt = fpt.tree_decomposition(g, max(g.n - 1, 0))
        best = fpt.k_clique(g, 0, attempt.decomposition)
    else:
        best = max_clique_bruteforce(g, limit=args.oracle_limit)
    _print_vertices("clique", best)
    print(f"size: {len(best)}")
    return EXIT_OK


def cmd_color(args) -> int:
    instance = load_instance(args.graph, lists_path=args.lists)
    g = instance.graph
    k = args.k
    lists = dict(full_lists(g.n, k))
    if instance.lists:
        for v in sorted(instance.lists):
            worst = max(instance.lists[v])
            if worst > k:
                no = _list_line(args.lists, v)
                msg = f"vertex {v + 1} lists color {worst} outside 1..{k}"
                raise ParseError(args.lists, no, msg)
        lists.update(instance.lists)
    # forced colors alone may empty a list, or leave every vertex one
    # color; then no decomposition is needed
    lists = fpt.narrow_lists(g, lists)
    coloring = None
    if lists is not None and all(len(lists[v]) == 1 for v in range(g.n)):
        coloring = fpt.forced_coloring(g, lists)
    elif lists is not None:
        attempt = fpt.tree_decomposition(g, max(g.n - 1, 0))
        coloring = fpt.list_k_coloring(g, lists, k, attempt.decomposition)
    if coloring is None:
        print("UNSAT")
        return EXIT_NO
    print("\n".join(["coloring:"] + [f"{v + 1} {coloring[v]}" for v in range(g.n)]))
    return EXIT_OK


def cmd_gen_hard(args) -> int:
    ref = os.path.relpath(args.pattern, os.path.dirname(args.out_rep) or ".")
    if ref.split() != [ref]:  # the .rep header `r <pattern-file>` is one token
        raise ParseError(args.pattern, 0, "pattern path contains whitespace")
    instance = load_instance(args.graph, args.pattern)
    part = find_tripartition(instance.pattern)
    if part is None:
        print("pattern admits no tripartition with doubled connections")
        return EXIT_NO
    target, rep = generate_hard_instance(instance.graph, instance.pattern, part)
    _write(args.out_graph, emit_gr(target))
    try:
        _write(args.out_rep, emit_rep(rep, ref))
    except ParseError:
        os.remove(args.out_graph)  # leave no target without its representation
        raise
    print(f"target: {target.n} vertices, {target.m} edges -> {args.out_graph}")
    print(f"representation -> {args.out_rep}")
    return EXIT_OK


def _verdict_lines(verdict) -> list[str]:
    """A verification verdict as verify prints it, with 1-based ids."""
    if verdict.is_ok:
        return ["ok"]
    if verdict.kind == "disconnected":
        return [f"disconnected: vertex {verdict.vertex + 1}"]
    lines = []
    for u, v, expected in verdict.mismatches:
        want, got = ("edge", "non-edge") if expected else ("non-edge", "edge")
        lines.append(f"mismatch: ({u + 1},{v + 1}) expected {want}, got {got}")
    return lines


def cmd_verify(args) -> int:
    instance = load_instance(args.graph, rep_path=args.rep)
    verdict = verify_representation(instance.graph, instance.representation)
    print("\n".join(_verdict_lines(verdict)))
    return EXIT_OK if verdict.is_ok else EXIT_NO


def cmd_helly(args) -> int:
    instance = load_instance(rep_path=args.rep)
    report = cliquemod.helly_check(instance.representation)
    if report.kind == "helly":
        print("helly")
        return EXIT_OK
    if report.kind == "violation":
        _print_vertices("violation", report.witness)
    else:
        print(
            f"not helly: more than {report.bound} maximal cliques "
            "(a Helly representation has at most one per pattern node)"
        )
    return EXIT_NO


def cmd_atoms(args) -> int:
    instance = load_instance(args.graph)
    decomposition = cliquemod.clique_cutset_decomposition(instance.graph)
    print(f"atoms: {len(decomposition.atoms)}")
    for atom in decomposition.atoms:
        _print_vertices("atom", atom.vertices)
    return EXIT_OK


def cmd_td(args) -> int:
    instance = load_instance(args.graph)
    g = instance.graph
    target = args.target if args.target is not None else max(g.n - 1, 0)
    rng = random.Random(args.seed)
    attempt = fpt.tree_decomposition(
        g, target, approx_factor=args.approx_factor, rng=rng
    )
    if not attempt.found:
        print(
            "width exceeded: degeneracy lower bound "
            f"{attempt.lower_bound} > target {target}"
        )
        return EXIT_NO
    d = attempt.decomposition
    _write(args.out, emit_td(d, g.n))
    note = " (over accepted factor)" if attempt.over_target else ""
    print(f"width: {d.width}{note} -> {args.out}")
    return EXIT_OK


def cmd_subdivide(args) -> int:
    instance = load_instance(args.graph)
    labeled = two_subdivision(instance.graph)
    _write(args.out, emit_gr(labeled.result))
    for k, (u, v) in enumerate(labeled.edge_order):
        print(
            f"edge {u + 1}-{v + 1} -> path {u + 1} "
            f"{labeled.sub1(k) + 1} {labeled.sub2(k) + 1} {v + 1}"
        )
    return EXIT_OK


def cmd_complement(args) -> int:
    instance = load_instance(args.graph)
    result = complement_graph(instance.graph)
    _write(args.out, emit_gr(result))
    print(f"complement: {result.n} vertices, {result.m} edges -> {args.out}")
    return EXIT_OK


# the default of each tuning flag, each defined on the one command that reads
# it.  perfbench/run.py's tracer self-check reads GLOBAL_DEFAULTS["approx_factor"]
# to build the decomposition `td` would, so the dict keeps this name and form
GLOBAL_DEFAULTS = {"seed": 0, "oracle_limit": 20, "approx_factor": 5}


def _int_at_least(low: int):
    """argparse type: an integer of at least low, else exit 2 with a message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgraphs",
        description="Clique and coloring algorithms on intersection graphs "
        "of subdivided patterns.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("clique", help="maximum clique with strategy auto-selection")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern")
    p.add_argument("--rep")
    p.add_argument(
        "--mode",
        choices=["auto", "cactus", "helly", "treewidth", "brute"],
        default="auto",
    )
    p.add_argument("--oracle-limit", type=_int_at_least(0),
                   default=GLOBAL_DEFAULTS["oracle_limit"],
                   help="brute-force size limit")

    p = subs.add_parser("color", help="list coloring via tree-decomposition DP")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", help="color lists file; unlisted vertices get 1..k")
    p.add_argument("--k", type=_int_at_least(1), required=True)

    p = subs.add_parser(
        "gen-hard",
        help="represent the complement of the graph's 2-subdivision on the pattern",
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-rep", required=True)

    p = subs.add_parser("verify", help="verify a representation against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--rep", required=True)

    p = subs.add_parser("helly", help="check the Helly property of a representation")
    p.add_argument("--rep", required=True)

    p = subs.add_parser("atoms", help="clique-cutset decomposition into atoms")
    p.add_argument("--graph", required=True)

    p = subs.add_parser("td", help="width-targeted tree decomposition")
    p.add_argument("--graph", required=True)
    p.add_argument("--target", type=_int_at_least(0))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=GLOBAL_DEFAULTS["seed"],
                   help="seed for heuristic tie-breaks")
    p.add_argument("--approx-factor", type=_int_at_least(1),
                   default=GLOBAL_DEFAULTS["approx_factor"],
                   help="accepted width factor over the target")

    p = subs.add_parser("subdivide", help="2-subdivision of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)

    p = subs.add_parser("complement", help="complement of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a rebound cmd_* function is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ParseError as exc:
        print(f"{exc.path}:{exc.line}: {exc.message}", file=sys.stderr)
        return EXIT_INPUT
    except (OracleLimitExceeded, SearchLimitExceeded, ExactLimitExceeded) as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except HgraphsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InvalidRepresentation):
            print("\n".join(_verdict_lines(exc.verdict)), file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
