import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hgraphs"


def test_no_assert_statements_in_package():
    # checks written as assert vanish under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
