"""File formats and instance loading.

Graphs use the PACE-style .gr dialect, decompositions PACE .td; patterns,
representations, and color lists use small line-oriented formats of the same
flavor.  Files carry 1-based ids, the in-memory objects 0-based ones.
Emission is canonical: parse then emit reproduces a canonical file byte for
byte.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from .core import ColorLists, Multigraph, SimpleGraph
from .errors import ParseError
from .fpt import TreeDecomposition
from .representation import HRepresentation, SubdividedPattern


def _skipped(parts: list[str]) -> bool:
    """Blank lines and lines starting with c are skipped in every format."""
    return not parts or parts[0][0] == "c"


def _header(rows, tag: str, before: str, path: str) -> tuple[int, list[str]]:
    """Line number and tokens of the header, the first line of rows (line
    number, line) not skipped; before is the message when it is not one."""
    for no, raw in rows:
        parts = raw.split()
        if not _skipped(parts):
            if parts[0] != tag:
                raise ParseError(path, no, before)
            return no, parts
    raise ParseError(path, 1, f"missing {tag} line")


def _content(parts: list[str], tag: str, path: str, no: int) -> bool:
    """Whether the tokens of line no are content: a skipped line is not, and
    a second header line is a fault."""
    if _skipped(parts):
        return False
    if parts[0] == tag:
        raise ParseError(path, no, f"duplicate {tag} line")
    return True


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


def _within(x: int, high: int, noun: str, path: str, no: int) -> int:
    if not (1 <= x <= high):
        raise ParseError(path, no, f"{noun} {x} outside 1..{high}")
    return x


def _pair(parts: list[str], path: str, no: int, high: int, noun: str) -> tuple[int, int]:
    """The two 1-based ids of an edge line, checked in the documented order:
    token count, both integers, then both ranges."""
    if len(parts) != 2:
        raise ParseError(path, no, "expected '<u> <v>'")
    u = _int(parts[0], path, no, "endpoint")
    v = _int(parts[1], path, no, "endpoint")
    return _within(u, high, noun, path, no), _within(v, high, noun, path, no)


def _declared(found: int, declared: int, what: str, path: str, no: int) -> None:
    if found != declared:
        raise ParseError(path, no, f"declared {declared} {what} but found {found}")


# a canonical edge body: emission's lines and nothing else; header counts
# of at most 18 digits, so int() always converts them (a longer count, such
# as one past Python's digit limit, is left to the line loop's checks)
_EDGE_LINES = re.compile(r"(?:[0-9]+ [0-9]+\n)*")
_GR_HEADER = re.compile(r"p tw ([0-9]{1,18}) ([0-9]{1,18})")
_HGR_HEADER = re.compile(r"h ([0-9]{1,18}) ([0-9]{1,18})")


def _canonical_ids(text: str, header: re.Pattern) -> tuple[int, int, list[int]] | None:
    """n, m and the 0-based ids of a canonical file, in file order, read by
    whole-body string operations rather than line by line; None when the
    file is not canonical.

    Canonical: the first line is the header, the body is exactly m lines of
    two ids in 1..n written as emission writes them, and n <= 2m.  Each id is
    looked up in a table of the strings "1".."n", which stands in for int()
    and the range test.  n <= 2m keeps that table no longer than the 2m ids
    it serves, and it is built only once the m lines are known to be there,
    so a header alone never sizes it (`p tw 5000000 0` would take seconds).
    Every other file, valid or not, is left to the checked line loop, the
    one source of values and errors for it.
    """
    first, _, body = text.partition("\n")
    head = header.fullmatch(first)
    if head is None:
        return None
    n, m = int(head[1]), int(head[2])
    if n > 2 * m or body.count("\n") != m or not _EDGE_LINES.fullmatch(body):
        return None
    table = dict(zip(map(str, range(1, n + 1)), range(n)))
    try:
        return n, m, list(map(table.__getitem__, body.split()))
    except KeyError:  # 0, n + 1 or a leading zero
        return None


def parse_gr(text: str, path: str = "<gr>") -> SimpleGraph:
    canonical = _canonical_ids(text, _GR_HEADER)
    if canonical is not None:
        n, m, ids = canonical
        ends = iter(ids)
        edges = {(a, b) if a < b else (b, a) for a, b in zip(ends, ends) if a != b}
        # fewer than m: a loop or a repeated pair, which the line loop names
        if len(edges) == m:
            return SimpleGraph(n, frozenset(edges))
    rows = enumerate(text.splitlines(), start=1)
    header_line, parts = _header(rows, "p", "edge line before p line", path)
    if len(parts) != 4 or parts[1] != "tw":
        raise ParseError(path, header_line, "expected 'p tw <n> <m>'")
    n = _count(parts[2], path, header_line, "vertex count")
    m = _count(parts[3], path, header_line, "edge count")
    edges = set()
    for no, raw in rows:
        parts = raw.split()
        if _content(parts, "p", path, no):
            u, v = _pair(parts, path, no, n, "vertex")
            if u == v:
                raise ParseError(path, no, "loops are not allowed in .gr files")
            edge = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if edge in edges:
                raise ParseError(path, no, f"duplicate edge {u} {v}")
            edges.add(edge)
    _declared(len(edges), m, "edges", path, header_line)
    return SimpleGraph(n, frozenset(edges))


def emit_gr(g: SimpleGraph) -> str:
    n = g.n
    out = [f"p tw {n} {g.m}"]
    # edge (u, v), u < v, sorts as the int u*n + v
    keys = sorted([u * n + v for u, v in g.edges])
    out += [f"{k // n + 1} {k % n + 1}" for k in keys]
    return "\n".join(out) + "\n"


def parse_hgr(text: str, path: str = "<hgr>") -> Multigraph:
    canonical = _canonical_ids(text, _HGR_HEADER)
    if canonical is not None:  # loops and parallel edges are kept
        n, _, ids = canonical
        ends = iter(ids)
        return Multigraph(n, tuple(zip(ends, ends)))
    rows = enumerate(text.splitlines(), start=1)
    header_line, parts = _header(rows, "h", "edge line before h line", path)
    if len(parts) != 3:
        raise ParseError(path, header_line, "expected 'h <n> <m>'")
    n = _count(parts[1], path, header_line, "node count")
    m = _count(parts[2], path, header_line, "edge count")
    edges = []
    for no, raw in rows:
        parts = raw.split()
        if _content(parts, "h", path, no):
            u, v = _pair(parts, path, no, n, "node")
            edges.append((u - 1, v - 1))
    _declared(len(edges), m, "edges", path, header_line)
    return Multigraph(n, tuple(edges))


def emit_hgr(h: Multigraph) -> str:
    out = [f"h {h.n} {h.m}"]
    out.extend(f"{u + 1} {v + 1}" for u, v in h.edges)
    return "\n".join(out) + "\n"


def emit_td(d: TreeDecomposition, n: int) -> str:
    width_plus = max((len(b) for b in d.bags), default=0)
    out = [f"s td {len(d.bags)} {width_plus} {n}"]
    for i, bag in enumerate(d.bags):
        entry = " ".join(str(v + 1) for v in sorted(bag))
        out.append(f"b {i + 1} {entry}".rstrip())
    out.extend(f"{i + 1} {j + 1}" for i, j in sorted(d.tree_edges))
    return "\n".join(out) + "\n"


def _parse_node_ref(tok: str, pattern: SubdividedPattern, path: str, no: int) -> int:
    """The number of the node that id tok names, after the full checks; the
    number is looked up by the node's canonical id, as the fast path does."""
    if tok.startswith("b:"):
        h = _int(tok[2:], path, no, "branch node")
        _within(h, pattern.base.n, "branch node", path, no)
        return pattern.name_index[f"b:{h}"]
    if tok.startswith("s:"):
        body = tok[2:]
        if "." not in body:
            raise ParseError(path, no, f"expected s:<edge>.<i>, got {tok!r}")
        e_str, i_str = body.split(".", 1)
        e = _int(e_str, path, no, "edge index")
        i = _int(i_str, path, no, "subdivision position")
        _within(e, pattern.base.m, "edge index", path, no)
        if not (1 <= i <= pattern.counts[e - 1]):
            raise ParseError(
                path,
                no,
                f"edge {e} has {pattern.counts[e - 1]} subdivision nodes, not {i}",
            )
        return pattern.name_index[f"s:{e}.{i}"]
    raise ParseError(path, no, f"expected b:<node> or s:<edge>.<i>, got {tok!r}")


def parse_rep(
    text: str, pattern_text: str, path: str = "<rep>", pattern_path: str = "<hgr>"
) -> HRepresentation:
    """Parse a .rep file given the text of the pattern file it references.

    The caller reads that reference from the header (``_rep_header``) and
    resolves it to load ``pattern_text``.
    """
    base = parse_hgr(pattern_text, pattern_path)
    rows = enumerate(text.splitlines(), start=1)
    _rep_header(rows, path)
    counts: list[int | None] = [None] * base.m  # None: no subdiv line
    numbers: dict[int, frozenset[int]] = {}  # each vertex's node numbers
    pattern: SubdividedPattern | None = None  # fixed by the first map line
    for no, raw in rows:
        parts = raw.split()
        if parts and parts[0] == "map":
            if pattern is None:
                pattern = SubdividedPattern(base, tuple(c or 0 for c in counts))
                known = pattern.name_index
            try:
                v = int(parts[1]) - 1
            except (IndexError, ValueError):
                v = -1
            # one test accepts a well-formed map line; else the first fault
            if v < 0 or v in numbers or len(parts) < 3:
                if len(parts) < 3:
                    raise ParseError(path, no, "expected 'map <v> <node>...'")
                v = _int(parts[1], path, no, "vertex")
                if v < 1:
                    raise ParseError(path, no, f"vertex {v} must be positive")
                raise ParseError(path, no, f"duplicate map line for vertex {v}")
            try:
                numbers[v] = frozenset(map(known.__getitem__, parts[2:]))
            except KeyError:  # a bad or non-canonical id: the full checks
                numbers[v] = frozenset([
                    _parse_node_ref(tok, pattern, path, no) for tok in parts[2:]
                ])
        elif _content(parts, "r", path, no):
            if parts[0] != "subdiv":
                raise ParseError(path, no, f"unrecognized line {raw.strip()!r}")
            if pattern is not None:
                raise ParseError(path, no, "subdiv line after map lines")
            if len(parts) != 3:
                raise ParseError(path, no, "expected 'subdiv <edge> <count>'")
            e = _int(parts[1], path, no, "edge index")
            t = _int(parts[2], path, no, "subdivision count")
            _within(e, base.m, "edge index", path, no)
            if t < 0:
                raise ParseError(path, no, "subdivision count must be >= 0")
            a, b = base.edges[e - 1]
            if a == b and t > 0:
                raise ParseError(path, no, f"edge {e} is a loop and cannot be subdivided")
            if counts[e - 1] is not None:
                raise ParseError(path, no, f"duplicate subdiv line for edge {e}")
            counts[e - 1] = t
    if pattern is None:
        pattern = SubdividedPattern(base, tuple(c or 0 for c in counts))
    if sorted(numbers) != list(range(len(numbers))):
        missing = next(i for i in range(len(numbers) + 1) if i not in numbers)
        raise ParseError(path, 1, f"no map line for vertex {missing + 1}")
    return HRepresentation(pattern, numbers)


def _rep_header(rows, path: str) -> str:
    """The pattern file that a .rep header names; rows is left after it."""
    no, parts = _header(rows, "r", "content before r line", path)
    if len(parts) != 2:
        raise ParseError(path, no, "expected 'r <pattern-file>'")
    return parts[1]


def emit_rep(r: HRepresentation, pattern_ref: str) -> str:
    out = [f"r {pattern_ref}"]
    out += [f"subdiv {k + 1} {t}" for k, t in enumerate(r.pattern.counts) if t > 0]
    names, numbers = r.pattern.names(), r.sets
    for v in sorted(numbers):
        refs = " ".join([names[i] for i in sorted(numbers[v])])
        out.append(f"map {v + 1} {refs}")
    return "\n".join(out) + "\n"


def parse_lists(text: str, path: str = "<lists>") -> dict[int, frozenset[int]]:
    lists: dict[int, frozenset[int]] = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        if _skipped(raw.split()):
            continue
        head, colon, tail = raw.partition(":")
        if not colon:
            raise ParseError(path, no, "expected '<v>: <colors>'")
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
        ref = _rep_header(enumerate(text.splitlines(), start=1), rep_path)
        resolved = os.path.join(os.path.dirname(rep_path) or ".", ref)
        rep = parse_rep(text, _read(resolved), rep_path, resolved)
        if pattern is not None and rep.pattern.base != pattern:
            raise ParseError(
                rep_path, 1, "representation pattern differs from --pattern file"
            )
    if lists_path is not None:
        lists = parse_lists(_read(lists_path), lists_path)
    if rep is not None and graph is not None:
        if sorted(rep.sets) != list(range(graph.n)):
            # the first map line beyond the graph, else line 1
            rows = enumerate(map(str.split, text.splitlines()), start=1)
            beyond = (no for no, p in rows if p[:1] == ["map"] and int(p[1]) > graph.n)
            msg = "representation does not map exactly the graph vertices"
            raise ParseError(rep_path, next(beyond, 1), msg)
    if lists is not None and graph is not None:
        for v in lists:
            if v >= graph.n:
                no = _list_line(lists_path, v)
                raise ParseError(lists_path, no, f"list vertex {v + 1} outside graph")
    return Instance(graph, pattern, rep, lists)


def _list_line(path: str, v: int) -> int:
    """Line of vertex v's entry in a lists file that parse_lists accepted."""
    rows = enumerate(_read(path).splitlines(), start=1)
    heads = ((no, raw.split(":")[0]) for no, raw in rows if not _skipped(raw.split()))
    return next(no for no, head in heads if int(head) == v + 1)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}")
