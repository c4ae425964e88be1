import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_assert_statements_in_package():
    # checks written as assert vanish under python -O, in the package and in
    # the scripts alike
    paths = sorted(ROOT.glob("src/hgraphs/*.py")) + sorted(ROOT.glob("scripts/*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert paths and not found, f"assert statements: {found}"
