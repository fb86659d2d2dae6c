"""Runtime checks in the package survive ``python -O``.

``-O`` strips ``assert`` statements, so a construction check written as
one would silently stop checking.  The package raises AssertionError
explicitly instead; this test parses every module and fails on any
``assert`` statement.
"""

import ast
from pathlib import Path

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
