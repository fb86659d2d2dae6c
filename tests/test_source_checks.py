"""Checks on the package source.

``-O`` strips ``assert`` statements, so a construction check written as
one would silently stop checking.  The package raises AssertionError
explicitly instead; a test parses every module and fails on any
``assert`` statement.  Another keeps the export list ``fgz.__all__``
honest: each name once, each one there.
"""

import ast
from collections import Counter
from pathlib import Path

import fgz

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fgz"


def test_no_assert_statements_in_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements, which python -O strips: {found}"


def test_every_exported_name_resolves_once():
    repeated = [name for name, count in Counter(fgz.__all__).items() if count > 1]
    missing = [name for name in fgz.__all__ if not hasattr(fgz, name)]
    assert not repeated and not missing, f"repeated: {repeated}, missing: {missing}"
