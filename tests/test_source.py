import ast
import os
import pathlib
import subprocess
import sys

import pytest

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


@pytest.mark.parametrize("script", sorted(p.name for p in ROOT.glob("scripts/*.py")))
def test_script_help_runs(script):
    # a script whose imports broke in a refactor of the package fails here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
