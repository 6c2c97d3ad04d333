"""Every name a module imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "propnet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.value.id for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_finds_an_unused_import():
    src = "import os\nfrom sys import argv, path\nprint(path)\n"
    assert unused_imports(src) == [(1, "os"), (2, "argv")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


TESTS = pathlib.Path(__file__).resolve().parent


def identifiers(path):
    """Every name a module reads, imports or looks up as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_is_used():
    """A name the package exports is referenced by a test or by a module
    other than the one defining it; otherwise it is dead API."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom)
               for alias in node.names]
    in_tests = set().union(*(identifiers(p) for p in TESTS.glob("*.py")))
    in_src = {p.stem: identifiers(p) for p in MODULES}
    unused = [f"{module}.{name}" for module, name in exports
              if name not in in_tests
              and not any(name in names for stem, names in in_src.items()
                          if stem != module)]
    assert unused == []
