import ast
import json
import os
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_assert_statements_in_package():
    # checks written as assert vanish under python -O, in the package, the
    # scripts and the test helpers alike (pytest rewrites asserts only in test
    # modules and conftest)
    paths = (
        sorted(ROOT.glob("src/hgraphs/*.py"))
        + sorted(ROOT.glob("scripts/*.py"))
        + [ROOT / "tests" / "helpers.py"]
    )
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert paths and not found, f"assert statements: {found}"


def test_package_init_reexports_nothing():
    # every public name has one import path, its module: the package
    # imports nothing and declares no __all__
    init = ROOT / "src" / "hgraphs" / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        or (isinstance(node, ast.Name) and node.id == "__all__")
    ]
    assert not found, f"__init__.py imports or names __all__ at lines {found}"


def test_package_imports_only_at_module_level():
    # an import inside a function hides a module's dependencies and an
    # import cycle until that function first runs
    found = []
    for path in sorted(ROOT.glob("src/hgraphs/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert not found, f"imports below module level: {found}"


# Definitions kept with no caller in the package, the benchmark or the
# scripts: the constructors that build a library user's inputs, and the
# paper's width bound (tw(H)+1)·ω−1 with the profile it is read from and the
# decomposition that certifies it from a representation, which no command
# reads yet.
LIVE_WITHOUT_CALLER = frozenset({
    "core.empty_graph", "core.path_graph", "core.cycle_graph", "core.complete_graph",
    "core.complete_multipartite", "core.petersen_graph", "core.induced_subgraph",
    "pattern.path_pattern", "pattern.cycle_pattern", "pattern.complete_pattern",
    "randgen.gnp", "randgen.random_lists",
    "pattern.PatternProfile", "pattern.PatternProfile.compute",
    "representation.td_from_representation",
})


def _reads(tree) -> tuple[set[str], set[str]]:
    """The identifiers tree reads (names, attributes and imported names),
    and the attribute names alone."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names | attrs, attrs


def _unreached_definitions(sources: dict[str, str]) -> list[str]:
    """The definitions of the package modules in sources (module name ->
    text) that no root reaches: top-level functions and classes, and each
    class's methods and properties other than dunders.

    A reached definition reaches every top-level definition of a name it
    reads, and every member of a reached class whose name it reads as an
    attribute; a bare name never reaches a member, as a local variable may
    share its name.  A class's own code, apart from those members, is read
    with the class.  The roots are module-level code, the cli commands
    (cmd_*, run by name), cli.main and cli.entry (the console script), every
    name read in perfbench/ and scripts/, every function a per_layer metric
    names (the harness report looks each one up) and LIVE_WITHOUT_CALLER."""
    defs, members, roots = {}, {}, set(LIVE_WITHOUT_CALLER)
    names, attrs = set(), set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                key = f"{module}.{node.name}"
                defs[key] = node
                if module == "cli" and (
                    node.name.startswith("cmd_") or node.name in ("main", "entry")
                ):
                    roots.add(key)
                if isinstance(node, ast.ClassDef):
                    body = []
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                            defs[f"{key}.{item.name}"] = item
                            members[f"{key}.{item.name}"] = key
                        else:
                            body.append(item)
                    node.body = body
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                read, read_attrs = _reads(node)
                names |= read
                attrs |= read_attrs
    for path in sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("scripts/*.py")):
        read, read_attrs = _reads(ast.parse(path.read_text(encoding="utf-8")))
        names |= read
        attrs |= read_attrs
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    roots.update(m["name"].rpartition(".")[0] for m in spec["per_layer"])

    def live(key):
        if key in roots:
            return True
        if key in members:
            return members[key] in reached and key.rpartition(".")[2] in attrs
        return key.partition(".")[2] in names

    reached: set[str] = set()
    while new := [key for key in defs if key not in reached and live(key)]:
        for key in new:
            reached.add(key)
            read, read_attrs = _reads(defs[key])
            names |= read
            attrs |= read_attrs
    return sorted(set(defs) - reached)


def test_package_holds_no_tests_only_code():
    # a definition that only tests call is a second copy of what a test
    # reference already holds, or an answer no command gives; it belongs in
    # tests/helpers.py.  The check must also see a planted function, a
    # planted method and a planted cli helper.
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(ROOT.glob("src/hgraphs/*.py"))
    }
    found = _unreached_definitions(sources)
    assert not found, f"src/hgraphs definitions that only tests reach: {found}"
    sources["core"] += "\n\ndef tests_only_helper(g):\n    return g.n\n"
    sources["core"] = sources["core"].replace(
        "    def sorted_edges(self)",
        "    def tests_only_method(self):\n        return self.n\n\n    def sorted_edges(self)",
    )
    sources["cli"] += "\n\ndef _dead_helper():\n    return EXIT_OK\n"
    assert _unreached_definitions(sources) == [
        "cli._dead_helper",
        "core.SimpleGraph.tests_only_method", "core.tests_only_helper",
    ]


def _private_imports(module: str) -> list[str]:
    """The private names tests/helpers.py imports from module."""
    tree = ast.parse((ROOT / "tests" / "helpers.py").read_text(encoding="utf-8"))
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == module
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_reference_helpers_share_no_private_code_with_formats():
    # a reference parser built on the parsers' own private helpers agrees with
    # them wherever those helpers are wrong, so the differential fuzz would
    # compare code against itself
    shared = _private_imports("hgraphs.formats")
    assert not shared, f"tests/helpers.py imports from hgraphs.formats: {shared}"


def test_reference_helpers_share_no_private_code_with_clique():
    # the same rule for the clique references: the arc-model peel reference
    # reads arcs with its own copy of the old position reader.  The endpoint
    # scan reference calls the bitset matching on purpose, to pin the scan's
    # order and not the matching
    shared = set(_private_imports("hgraphs.clique")) - {"_bipartite_max_independent"}
    assert not shared, f"tests/helpers.py imports from hgraphs.clique: {shared}"


def _node_identity_faults(tree) -> list[int]:
    """Lines that give a pattern node an identity besides its number, or
    number the nodes' names: a tuple literal whose first element is "b" or
    "s", a definition or call of nodes(), an enumerate() of a names() call
    or of a name bound to one, or a zip() of one with a range()."""
    def is_names(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "names"

    named = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and is_names(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def numbers(call):
        name = getattr(call.func, "id", None)
        listed = any(is_names(a) or getattr(a, "id", None) in named for a in call.args)
        counted = any(getattr(getattr(a, "func", None), "id", None) == "range" for a in call.args)
        return listed and (name == "enumerate" or name == "zip" and counted)

    def faulty(node):
        if isinstance(node, ast.Tuple):
            first = node.elts[0] if node.elts else None
            return isinstance(first, ast.Constant) and first.value in ("b", "s")
        if isinstance(node, ast.FunctionDef):
            return node.name == "nodes"
        if isinstance(node, ast.Call):
            called = getattr(node.func, "attr", getattr(node.func, "id", None))
            return called == "nodes" or numbers(node)
        return False

    return [node.lineno for node in ast.walk(tree) if faulty(node)]


def test_only_the_pattern_numbers_its_nodes():
    # a pattern node is its number and nothing else, and
    # SubdividedPattern.name_index alone reads .rep ids to numbers: a node
    # tuple or a nodes() listing is a second identity that code would
    # translate back and forth, and a second id table could number the ids
    # another way, so masks read through two numberings disagree silently
    found = []
    for path in sorted(ROOT.glob("src/hgraphs/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "SubdividedPattern":
                cls.body = [f for f in cls.body if getattr(f, "name", None) != "name_index"]
        found += [f"{path.relative_to(ROOT)}:{no}" for no in _node_identity_faults(tree)]
    assert not found, f"pattern node identities besides the number: {found}"


def test_node_numbering_check_sees_each_form():
    # the check above must see node tuples, nodes() and the forms that
    # numbered nodes or their names before the pattern owned its tables, and
    # pass reads of names() that number nothing and tuples of other strings
    flagged = [
        "index = {nd: i for i, nd in enumerate(r.pattern.nodes())}",
        "nodes = pattern.nodes()\nindex = {nd: i for i, nd in enumerate(nodes)}",
        "known = {name: i for i, name in enumerate(p.names())}",
        "names = p.names()\nknown = dict(zip(names, range(len(names))))",
        "known = dict(zip(range(n), p.names()))",
        "name = dict(zip(r.pattern.nodes(), r.pattern.names()))",
        "known = dict(zip(p.names(), p.nodes()))",
        "nodes = pattern.nodes()\nfirst = nodes[0]",
        "def nodes(self):\n    return ()",
        "def branch(h):\n    return ('b', h)",
        "forward = [('s', k, i) for i in range(1, t + 1)]",
    ]
    passed = [
        "at = {x: i for i, x in enumerate(order)}",
        "pairs = zip(order, range(n))",
        "names = p.names()\nref = names[3]",
        "count = len(nice.nodes)",
        "ok = tok.startswith(('b:', 's:'))",
        "kind = ('path', 'b')",
    ]
    assert all(_node_identity_faults(ast.parse(src)) for src in flagged)
    assert not any(_node_identity_faults(ast.parse(src)) for src in passed)


@pytest.mark.parametrize("script", sorted(p.name for p in ROOT.glob("scripts/*.py")))
def test_script_help_runs(script):
    # a script whose imports broke in a refactor of the package fails here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


# The digest of the CLI stdout of one seed-1 pass, which run.py prints: a
# change that moves one byte of an answer fails here.  A change of output
# made on purpose updates the pin and says why.
PINNED_STDOUT_SHA256 = {
    "hard-clique": "85419c4282e1a1ab453dc8c00f17a79204a12a000378c8546dceeac1a862ef14",
    "cactus-clique": "03d8414680d790ff2bbf846d8c5cecca68a7fb53c9c2a63a525a0c916d8fa446",
    "list-color": "992c10a3f8707545af76c42866df9dae6a2effb4513a18a21d5d104dc91fee46",
}


@pytest.fixture(scope="module")
def harness_runs():
    """One short seed-1 pass of each workload, untraced and traced, keyed by
    (workload, trace).  The six runs share the processors, one per available
    CPU at a time: more at once would stall a traced run inside its ops, and
    its self-check would then find the self times off by more than 10%."""
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        futures = {
            (workload, trace): pool.submit(
                subprocess.run,
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            for trace in (0, 1)
            for workload in PINNED_STDOUT_SHA256
        }
        return {key: future.result() for key, future in futures.items()}


def _check_pinned_run(harness_runs, workload):
    done = harness_runs[workload, 0]
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True, summary
    digests = [ln.split()[1] for ln in lines if ln.startswith("stdout_sha256 ")]
    assert digests == [PINNED_STDOUT_SHA256[workload]], done.stdout


def test_benchmark_harness_runs(harness_runs):
    # one short pass of a benchmark workload, its answers checked against the
    # harness's oracles: a refactor that breaks the harness fails here
    _check_pinned_run(harness_runs, "hard-clique")


def test_benchmark_harness_pins_cactus_clique_output(harness_runs):
    # the cactus route's tie-breaks (the smallest of equal cliques across
    # atoms, the first endpoint pair reaching omega) show in its printed
    # cliques; MCS-M+'s numbering cannot, as the atoms do not depend on it
    _check_pinned_run(harness_runs, "cactus-clique")


def test_benchmark_harness_pins_list_color_output(harness_runs):
    # the printed colorings are the DP's first witness, so a change in the
    # narrowing, the nice form or the order states are kept in shows here
    _check_pinned_run(harness_runs, "list-color")


def _check_traced_run(harness_runs, workload):
    done = harness_runs[workload, 1]
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert any(ln.startswith("tracer self-check: ok") for ln in lines), done.stdout
    summary = json.loads(lines[-1])
    assert summary["correct"] is True, summary


def test_benchmark_harness_traces_list_color(harness_runs):
    # a traced pass of list-color: the tracer's self-check pins the nice-node
    # count it reads off make_nice calls, which list_k_coloring must make by
    # the public name, and the harness's oracles check every SAT/UNSAT answer
    _check_traced_run(harness_runs, "list-color")


def test_benchmark_harness_traces_cactus_clique(harness_runs):
    # a traced pass of cactus-clique: its branch-and-bound clique oracle and
    # the tracer's pinned atom count catch a wrong peel or a wrong arc model
    _check_traced_run(harness_runs, "cactus-clique")


def test_benchmark_harness_traces_hard_clique(harness_runs):
    # a traced pass of hard-clique: only the traced run checks that the Helly
    # route stops at exactly bound + 1 maximal cliques
    _check_traced_run(harness_runs, "hard-clique")
