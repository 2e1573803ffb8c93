"""Checks on the package source itself."""

import ast
from pathlib import Path

import betti4


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently stop holding; invariants raise typed errors instead
    found = []
    for path in sorted(Path(betti4.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
