"""Spans around the public functions of every hgraphs module, from outside.

`Tracer.install` wraps each public function of the layer modules and rebinds
the name in every hgraphs namespace that holds it, so calls between modules
(for example `clique_cactus` -> `clique_cutset_decomposition`) are caught as
well as calls from the CLI.  A span is [name, start, end, parent, op, error];
spans stay in memory until the run writes them out.  Work counts come from
the arguments and return values of the wrapped calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "formats", "representation", "pattern", "clique", "fpt", "core")

# Node-name constructors, called once per node reference a parser reads: a
# span there would cost more than the work it times.
UNTRACED = frozenset({"representation.branch", "representation.sub"})

NAME, START, END, PARENT, OP, ERROR = range(6)


def _k_clique(tr, span, args, result):
    bags = args[2].bags
    tr.counts["fpt.bags"] += len(bags)
    tr.counts["fpt.bag_size_sum"] += sum(len(b) for b in bags)


def _maximal_cliques(tr, span, args, result):
    tr.counts["clique.cliques_emitted"] += len(result.cliques)


def _clique_helly(tr, span, args, result):
    tr.counts["clique.helly_overflows"] += result.exceeded
    tr.records["clique.clique_helly"].append(
        (tr.op, result.count, result.bound, result.exceeded)
    )


def _atoms(tr, span, args, result):
    tr.counts["clique.atoms"] += len(result.atoms)
    biggest = max((len(a.vertices) for a in result.atoms), default=0)
    tr.counts["clique.atom_max_n"] = max(tr.counts["clique.atom_max_n"], biggest)


def _carc(tr, span, args, result):
    model = args[0]
    ends = {p for arc in model.arcs.values() if arc is not None for p in arc}
    tr.counts["clique.carc_endpoint_pairs"] += len(ends) * (len(ends) + 1) // 2
    tr.counts["clique.arc_model_length"] += model.length


def _degeneracy(tr, span, args, result):
    # the caller's span is on top of the stack again
    if tr.stack:
        tr.lower_bounds[tr.stack[-1]] = result


def _tree_decomposition(tr, span, args, result):
    lb = tr.lower_bounds.pop(span, None)
    if result.decomposition is not None:
        tr.records["fpt.tree_decomposition"].append(
            (tr.op, result.decomposition.width, lb)
        )


def _make_nice(tr, span, args, result):
    tr.counts["fpt.nice_nodes"] += len(result.nodes)


def _verify(tr, span, args, result):
    n = args[0].n
    tr.counts["representation.verify_pairs"] += n * (n - 1) // 2


HOOKS = {
    "fpt.k_clique": _k_clique,
    "clique.maximal_cliques_capped": _maximal_cliques,
    "clique.clique_helly": _clique_helly,
    "clique.clique_cutset_decomposition": _atoms,
    "clique.carc_max_clique": _carc,
    "fpt.degeneracy": _degeneracy,
    "fpt.tree_decomposition": _tree_decomposition,
    "fpt.make_nice": _make_nice,
    "representation.verify_representation": _verify,
}

COUNTS = (
    "fpt.bags",
    "fpt.bag_size_sum",
    "fpt.nice_nodes",
    "clique.cliques_emitted",
    "clique.helly_overflows",
    "clique.atoms",
    "clique.atom_max_n",
    "clique.carc_endpoint_pairs",
    "clique.arc_model_length",
    "representation.verify_pairs",
    "formats.bytes_read",
)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: Counter = Counter(dict.fromkeys(COUNTS, 0))
        self.records: dict[str, list] = {
            "clique.clique_helly": [],
            "fpt.tree_decomposition": [],
        }
        self.lower_bounds: dict[int, int] = {}
        self.names: list[str] = []
        self._wrappers: dict = {}  # original function -> its traced wrapper
        self._saved: list[tuple] = []

    def install(self) -> None:
        """Wrap every public function of the layers; undo with `uninstall`."""
        if not self._wrappers:
            for layer in LAYERS:
                module = sys.modules["hgraphs." + layer]
                for attr, obj in vars(module).items():
                    name = f"{layer}.{attr}"
                    if (
                        attr.startswith("_")
                        or name in UNTRACED
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                    ):
                        continue
                    self._wrappers[obj] = self._wrap(name, obj)
                    self.names.append(name)
        for modname, module in list(sys.modules.items()):
            if modname != "hgraphs" and not modname.startswith("hgraphs."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._rebind(module, attr, self._wrappers[obj])
        formats = sys.modules["hgraphs.formats"]
        read = formats._read

        def counting_read(path):
            text = read(path)
            self.counts["formats.bytes_read"] += len(text.encode("utf-8"))
            return text

        self._rebind(formats, "_read", counting_read)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _rebind(self, module, attr, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def self_time_by_op(self) -> dict[int, float]:
        totals: dict[int, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span[OP]] = totals.get(span[OP], 0.0) + own
        return totals

    def metrics(self, paper_bounds: dict[int, int]) -> dict[str, float]:
        """Per-function, per-layer and work-count metrics of all spans.

        paper_bounds maps an op to (tw(H)+1)*omega - 1 where that is known.
        """
        per = {name: [0.0, 0, 0] for name in self.names}
        for span, own in zip(self.spans, self.self_times()):
            entry = per[span[NAME]]
            entry[0] += own
            entry[1] += 1
            entry[2] += span[ERROR]
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        out["formats.emit.self_s"] = 0.0
        for name, (own, calls, errors) in per.items():
            out[name + ".self_s"] = own
            out[name + ".calls"] = calls
            out[name + ".errors"] = errors
            layer_self[name.split(".")[0]] += own
            if name.startswith("formats.emit_"):
                out["formats.emit.self_s"] += own
        for layer, own in layer_self.items():
            out[layer + ".self_s"] = own
        out.update(self.counts)
        helly = self.records["clique.clique_helly"]
        bound_sum = sum(r[2] for r in helly)
        out["clique.helly_fill"] = sum(r[1] for r in helly) / bound_sum if bound_sum else 0.0
        widths = self.records["fpt.tree_decomposition"]
        out["fpt.width"] = _mean([w for _, w, _ in widths])
        out["fpt.width_over_lb"] = _mean([w / lb for _, w, lb in widths if lb])
        out["fpt.width_over_paper_bound"] = _mean(
            [w / paper_bounds[op] for op, w, _ in widths if paper_bounds.get(op)]
        )
        return out
