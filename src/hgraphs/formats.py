"""File formats and instance loading.

Graphs use the PACE-style .gr dialect, decompositions PACE .td; patterns,
representations, and color lists use small line-oriented formats of the same
flavor.  Files carry 1-based ids, the in-memory objects 0-based ones.
Emission is canonical: parse then emit reproduces a canonical file byte for
byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .core import ColorLists, Multigraph, SimpleGraph
from .errors import ParseError
from .fpt import TreeDecomposition
from .representation import HRepresentation, SubdividedPattern, branch, sub


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield no, line


def _int(tok: str, path: str, no: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(path, no, f"expected integer {what}, got {tok!r}")


def _count(tok: str, path: str, no: int, what: str) -> int:
    value = _int(tok, path, no, what)
    if value < 0:
        raise ParseError(path, no, f"{what} must be non-negative, got {value}")
    return value


def parse_gr(text: str, path: str = "<gr>") -> SimpleGraph:
    n = m = None
    edges = set()
    header_line = 0
    for no, line in _lines(text):
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(path, no, "duplicate p line")
            if len(parts) != 4 or parts[1] != "tw":
                raise ParseError(path, no, "expected 'p tw <n> <m>'")
            n = _count(parts[2], path, no, "vertex count")
            m = _count(parts[3], path, no, "edge count")
            header_line = no
            continue
        if n is None:
            raise ParseError(path, no, "edge line before p line")
        if len(parts) != 2:
            raise ParseError(path, no, "expected '<u> <v>'")
        u = _int(parts[0], path, no, "endpoint")
        v = _int(parts[1], path, no, "endpoint")
        for x in (u, v):
            if not (1 <= x <= n):
                raise ParseError(path, no, f"vertex {x} outside 1..{n}")
        if u == v:
            raise ParseError(path, no, "loops are not allowed in .gr files")
        key = (min(u, v) - 1, max(u, v) - 1)
        if key in edges:
            raise ParseError(path, no, f"duplicate edge {u} {v}")
        edges.add(key)
    if n is None:
        raise ParseError(path, 1, "missing p line")
    if len(edges) != m:
        raise ParseError(
            path, header_line, f"declared {m} edges but found {len(edges)}"
        )
    return SimpleGraph.from_edges(n, edges)


def emit_gr(g: SimpleGraph) -> str:
    out = [f"p tw {g.n} {g.m}"]
    out.extend(f"{u + 1} {v + 1}" for u, v in g.sorted_edges())
    return "\n".join(out) + "\n"


def parse_hgr(text: str, path: str = "<hgr>") -> Multigraph:
    n = m = None
    edges = []
    header_line = 0
    for no, line in _lines(text):
        parts = line.split()
        if parts[0] == "h":
            if n is not None:
                raise ParseError(path, no, "duplicate h line")
            if len(parts) != 3:
                raise ParseError(path, no, "expected 'h <n> <m>'")
            n = _count(parts[1], path, no, "node count")
            m = _count(parts[2], path, no, "edge count")
            header_line = no
            continue
        if n is None:
            raise ParseError(path, no, "edge line before h line")
        if len(parts) != 2:
            raise ParseError(path, no, "expected '<u> <v>'")
        u = _int(parts[0], path, no, "endpoint")
        v = _int(parts[1], path, no, "endpoint")
        for x in (u, v):
            if not (1 <= x <= n):
                raise ParseError(path, no, f"node {x} outside 1..{n}")
        edges.append((u - 1, v - 1))
    if n is None:
        raise ParseError(path, 1, "missing h line")
    if len(edges) != m:
        raise ParseError(
            path, header_line, f"declared {m} edges but found {len(edges)}"
        )
    return Multigraph(n, tuple(edges))


def emit_hgr(h: Multigraph) -> str:
    out = [f"h {h.n} {h.m}"]
    out.extend(f"{u + 1} {v + 1}" for u, v in h.edges)
    return "\n".join(out) + "\n"


def parse_td(text: str, path: str = "<td>") -> tuple[TreeDecomposition, int]:
    """Parse a .td file; returns the decomposition and the declared graph size."""
    header = None
    bags: dict[int, frozenset[int]] = {}
    tree_edges = []
    header_line = 0
    for no, line in _lines(text):
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise ParseError(path, no, "duplicate s line")
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(path, no, "expected 's td <bags> <width+1> <n>'")
            header = tuple(_count(p, path, no, "header field") for p in parts[2:])
            header_line = no
            continue
        if header is None:
            raise ParseError(path, no, "content before s line")
        if parts[0] == "b":
            idx = _int(parts[1], path, no, "bag id")
            if not (1 <= idx <= header[0]):
                raise ParseError(path, no, f"bag id {idx} outside 1..{header[0]}")
            if idx in bags:
                raise ParseError(path, no, f"duplicate bag {idx}")
            verts = [_int(p, path, no, "bag vertex") for p in parts[2:]]
            for v in verts:
                if not (1 <= v <= header[2]):
                    raise ParseError(path, no, f"vertex {v} outside 1..{header[2]}")
            bags[idx] = frozenset(v - 1 for v in verts)
            continue
        if len(parts) != 2:
            raise ParseError(path, no, "expected tree edge '<i> <j>'")
        i = _int(parts[0], path, no, "bag id")
        j = _int(parts[1], path, no, "bag id")
        for x in (i, j):
            if not (1 <= x <= header[0]):
                raise ParseError(path, no, f"bag id {x} outside 1..{header[0]}")
        tree_edges.append((i - 1, j - 1))
    if header is None:
        raise ParseError(path, 1, "missing s line")
    if len(bags) != header[0]:
        raise ParseError(
            path, header_line, f"declared {header[0]} bags but found {len(bags)}"
        )
    ordered = tuple(bags[i + 1] for i in range(header[0]))
    d = TreeDecomposition(ordered, tuple(tree_edges))
    if max((len(b) for b in ordered), default=0) != header[1]:
        raise ParseError(path, header_line, "declared width+1 disagrees with bags")
    return d, header[2]


def emit_td(d: TreeDecomposition, n: int) -> str:
    width_plus = max((len(b) for b in d.bags), default=0)
    out = [f"s td {len(d.bags)} {width_plus} {n}"]
    for i, bag in enumerate(d.bags):
        entry = " ".join(str(v + 1) for v in sorted(bag))
        out.append(f"b {i + 1} {entry}".rstrip())
    out.extend(f"{i + 1} {j + 1}" for i, j in sorted(d.tree_edges))
    return "\n".join(out) + "\n"


def _parse_node_ref(tok: str, pattern: SubdividedPattern, path: str, no: int):
    if tok.startswith("b:"):
        h = _int(tok[2:], path, no, "branch node")
        if not (1 <= h <= pattern.base.n):
            raise ParseError(path, no, f"branch node {h} outside 1..{pattern.base.n}")
        return branch(h - 1)
    if tok.startswith("s:"):
        body = tok[2:]
        if "." not in body:
            raise ParseError(path, no, f"expected s:<edge>.<i>, got {tok!r}")
        e_str, i_str = body.split(".", 1)
        e = _int(e_str, path, no, "edge index")
        i = _int(i_str, path, no, "subdivision position")
        if not (1 <= e <= pattern.base.m):
            raise ParseError(path, no, f"edge index {e} outside 1..{pattern.base.m}")
        if not (1 <= i <= pattern.counts[e - 1]):
            raise ParseError(
                path,
                no,
                f"edge {e} has {pattern.counts[e - 1]} subdivision nodes, not {i}",
            )
        return sub(e - 1, i)
    raise ParseError(path, no, f"expected b:<node> or s:<edge>.<i>, got {tok!r}")


def parse_rep(
    text: str, pattern_text: str, path: str = "<rep>", pattern_path: str = "<hgr>"
) -> tuple[HRepresentation, str]:
    """Parse a .rep file given the text of the pattern file it references.

    Returns the representation and the pattern reference recorded in the
    header (the caller resolves that reference to load ``pattern_text``).
    """
    pattern_base = parse_hgr(pattern_text, pattern_path)
    ref = None
    counts = [0] * pattern_base.m
    sets: dict[int, frozenset] = {}
    pattern: SubdividedPattern | None = None
    for no, line in _lines(text):
        parts = line.split()
        if parts[0] == "r":
            if ref is not None:
                raise ParseError(path, no, "duplicate r line")
            if len(parts) != 2:
                raise ParseError(path, no, "expected 'r <pattern-file>'")
            ref = parts[1]
            continue
        if ref is None:
            raise ParseError(path, no, "content before r line")
        if parts[0] == "subdiv":
            if pattern is not None:
                raise ParseError(path, no, "subdiv line after map lines")
            if len(parts) != 3:
                raise ParseError(path, no, "expected 'subdiv <edge> <count>'")
            e = _int(parts[1], path, no, "edge index")
            t = _int(parts[2], path, no, "subdivision count")
            if not (1 <= e <= pattern_base.m):
                raise ParseError(
                    path, no, f"edge index {e} outside 1..{pattern_base.m}"
                )
            if t < 0:
                raise ParseError(path, no, "subdivision count must be >= 0")
            a, b = pattern_base.edges[e - 1]
            if a == b and t > 0:
                raise ParseError(path, no, f"edge {e} is a loop and cannot be subdivided")
            counts[e - 1] = t
            continue
        if parts[0] == "map":
            if pattern is None:
                pattern = SubdividedPattern(pattern_base, tuple(counts))
            if len(parts) < 3:
                raise ParseError(path, no, "expected 'map <v> <node>...'")
            v = _int(parts[1], path, no, "vertex")
            if v < 1:
                raise ParseError(path, no, f"vertex {v} must be positive")
            if v - 1 in sets:
                raise ParseError(path, no, f"duplicate map line for vertex {v}")
            sets[v - 1] = frozenset(
                _parse_node_ref(tok, pattern, path, no) for tok in parts[2:]
            )
            continue
        raise ParseError(path, no, f"unrecognized line {line!r}")
    if ref is None:
        raise ParseError(path, 1, "missing r line")
    if pattern is None:
        pattern = SubdividedPattern(pattern_base, tuple(counts))
    if sorted(sets) != list(range(len(sets))):
        missing = next(i for i in range(len(sets) + 1) if i not in sets)
        raise ParseError(path, 1, f"no map line for vertex {missing + 1}")
    return HRepresentation(pattern, sets), ref


def _node_ref(node) -> str:
    if node[0] == "b":
        return f"b:{node[1] + 1}"
    return f"s:{node[1] + 1}.{node[2]}"


def emit_rep(r: HRepresentation, pattern_ref: str) -> str:
    out = [f"r {pattern_ref}"]
    for k, t in enumerate(r.pattern.counts):
        if t > 0:
            out.append(f"subdiv {k + 1} {t}")
    for v in sorted(r.sets):
        refs = " ".join(_node_ref(nd) for nd in sorted(r.sets[v]))
        out.append(f"map {v + 1} {refs}")
    return "\n".join(out) + "\n"


def parse_lists(text: str, path: str = "<lists>") -> dict[int, frozenset[int]]:
    lists: dict[int, frozenset[int]] = {}
    for no, line in _lines(text):
        if ":" not in line:
            raise ParseError(path, no, "expected '<v>: <colors>'")
        head, tail = line.split(":", 1)
        v = _int(head.strip(), path, no, "vertex")
        if v < 1:
            raise ParseError(path, no, f"vertex {v} must be positive")
        if v - 1 in lists:
            raise ParseError(path, no, f"duplicate list for vertex {v}")
        colors = [_int(tok, path, no, "color") for tok in tail.split()]
        if not colors:
            raise ParseError(path, no, f"empty color list for vertex {v}")
        if any(c < 1 for c in colors):
            raise ParseError(path, no, "colors must be positive")
        lists[v - 1] = frozenset(colors)
    return lists


def emit_lists(lists: ColorLists) -> str:
    out = [
        f"{v + 1}: " + " ".join(str(c) for c in sorted(lists[v]))
        for v in sorted(lists)
    ]
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Instance:
    """A parsed problem instance with resolved cross-references."""

    graph: SimpleGraph | None = None
    pattern: Multigraph | None = None
    representation: HRepresentation | None = None
    lists: dict[int, frozenset[int]] | None = None


def load_instance(
    graph_path: str | None = None,
    pattern_path: str | None = None,
    rep_path: str | None = None,
    lists_path: str | None = None,
) -> Instance:
    """Load and cross-validate the given instance files."""
    graph = pattern = rep = lists = None
    if graph_path is not None:
        graph = parse_gr(_read(graph_path), graph_path)
    if pattern_path is not None:
        pattern = parse_hgr(_read(pattern_path), pattern_path)
    if rep_path is not None:
        text = _read(rep_path)
        ref = _rep_pattern_ref(text, rep_path)
        resolved = os.path.join(os.path.dirname(rep_path) or ".", ref)
        rep, _ = parse_rep(text, _read(resolved), rep_path, resolved)
        if pattern is not None and rep.pattern.base != pattern:
            raise ParseError(
                rep_path, 1, "representation pattern differs from --pattern file"
            )
    if lists_path is not None:
        lists = parse_lists(_read(lists_path), lists_path)
    if rep is not None and graph is not None:
        if sorted(rep.sets) != list(range(graph.n)):
            raise ParseError(
                rep_path, 1, "representation does not map exactly the graph vertices"
            )
    if lists is not None and graph is not None:
        for v in lists:
            if v >= graph.n:
                raise ParseError(
                    lists_path, 1, f"list vertex {v + 1} outside graph"
                )
    return Instance(graph, pattern, rep, lists)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}")


def _rep_pattern_ref(text: str, path: str) -> str:
    for no, line in _lines(text):
        parts = line.split()
        if parts[0] == "r" and len(parts) == 2:
            return parts[1]
        raise ParseError(path, no, "first content line must be 'r <pattern-file>'")
    raise ParseError(path, 1, "missing r line")
