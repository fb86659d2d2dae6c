"""Checks on the package source.

``-O`` strips ``assert`` statements, so a construction check written as
one would silently stop checking.  The package raises AssertionError
explicitly instead; a test parses every module and fails on any
``assert`` statement, and another on any ``tuple`` of a generator.  Others keep the export list ``fgz.__all__``
honest: each name once, each one there, and no name beyond those README's
quickstart imports from the package root.  One more holds every name a
dataclass sets with ``object.__setattr__`` to its declared fields, so that
state kept beside them is declared, and out of equality and repr.  A table
names the package modules that each layer may import, as they stand: the
set algebra rests on the word kernel alone, the witnesses on it and the
folded graphs of ``algset``, and the solver on the set algebra and the
equation layer of ``onevar``.  Every cache decorator names an int
``maxsize``, so what the package keeps between calls stays bounded.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import fgz

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fgz"


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


def test_no_tuple_of_a_generator_in_the_package():
    # tuple() of a generator allocates ten slots and resizes, which drains
    # CPython's size-10 tuple free list into larger ones that hold memory
    # until a full collection; the package builds its tuples from lists
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "tuple"
        and len(node.args) == 1 and isinstance(node.args[0], ast.GeneratorExp)
    ]
    assert not found, f"tuple() of a generator expression: {found}"


def test_dataclasses_set_only_declared_fields():
    # state kept beside the fields is declared field(init=False, repr=False,
    # compare=False), like the coset's root split
    checked, found = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef) or not any(
                ast.unparse(d).startswith("dataclass") for d in cls.decorator_list
            ):
                continue
            fields = {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)}
            for node in ast.walk(cls):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
                    checked += 1
                    name = node.args[1]
                    if not (isinstance(name, ast.Constant) and name.value in fields):
                        found.append(f"{path.name}:{node.lineno} {cls.name} sets {ast.unparse(name)}")
    assert checked and not found, f"undeclared dataclass state: {found}"


def test_cache_decorators_have_an_int_maxsize():
    # a decorator's cache lives as long as the process, so each names its
    # bound, a literal or a module constant; a cache built by a call inside
    # a function, like _quotient_buckets' lru_cache(maxsize=None)(_compose),
    # is dropped with that call and is no decorator
    checked, found = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("fgz" if path.stem == "__init__" else f"fgz.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            for d in getattr(node, "decorator_list", ()):
                func = d.func if isinstance(d, ast.Call) else d
                if ast.unparse(func).removeprefix("functools.") not in ("lru_cache", "cache"):
                    continue
                checked += 1
                given = [k.value for k in getattr(d, "keywords", ()) if k.arg == "maxsize"] + getattr(d, "args", [])[:1]
                bound = given[0] if given else None
                value = getattr(module, bound.id, None) if isinstance(bound, ast.Name) else getattr(bound, "value", None)
                if type(value) is not int:
                    found.append(f"{path.name}:{d.lineno} {ast.unparse(d)}")
    assert checked and not found, f"cache decorators without an int maxsize: {found}"


#: the package modules each module may import: the set algebra and the
#: witnesses rest on the word kernel, with no equation layer under them
IMPORT_LAYERS = {
    "errors": set(),
    "words": {"errors"},
    "algset": {"errors", "words"},
    "embed": {"errors", "words"},
    "residual": {"algset", "errors", "words"},
    "onevar": {"errors", "residual", "words"},
    "solver": {"algset", "errors", "onevar", "words"},
}


def test_modules_import_only_their_layers():
    found = {}
    for name, allowed in IMPORT_LAYERS.items():
        imported = set()
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("fgz")):
                module = (node.module or "").removeprefix("fgz").strip(".")
                imported |= {module} if module else {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.name.removeprefix("fgz.") for alias in node.names if alias.name.startswith("fgz")}
        if imported != allowed:
            found[name] = sorted(imported)
    assert not found, f"modules importing outside their layers: {found}"


def test_every_exported_name_resolves_once():
    repeated = [name for name, count in Counter(fgz.__all__).items() if count > 1]
    missing = [name for name in fgz.__all__ if not hasattr(fgz, name)]
    assert not repeated and not missing, f"repeated: {repeated}, missing: {missing}"


def test_root_exports_exactly_the_quickstart_names():
    imports = re.findall(r"^from fgz import (.+)$", (ROOT / "README.md").read_text(), re.M)
    quickstart = {name.strip() for line in imports for name in line.split(",")}
    assert quickstart and set(fgz.__all__) == quickstart
