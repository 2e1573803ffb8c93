"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import betti4


def _modules():
    """(file name, syntax tree) of every module of the package."""
    for path in sorted(Path(betti4.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently stop holding; invariants raise typed errors instead
    found = []
    for name, tree in _modules():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_the_standard_library():
    # the runtime has no dependencies: every import is relative or stdlib
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{name}:{node.lineno}: {module}" for module in modules
                      if module.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []
