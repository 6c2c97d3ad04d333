"""Every name a module imports is used in that module, and every public
name it defines is used somewhere else."""

import ast
import pathlib
from collections import Counter

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
PERFBENCH = TESTS.parent / "perfbench"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def identifiers(tree):
    """How often a tree reads, imports or looks up each name as an
    attribute."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def test_every_export_is_used():
    """A name the package exports is referenced by a test or by a module
    other than the one defining it; otherwise it is dead API."""
    tree = parse(SRC / "__init__.py")
    exports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom)
               for alias in node.names]
    in_tests = set().union(*(identifiers(parse(p))
                             for p in TESTS.glob("*.py")))
    in_src = {p.stem: identifiers(parse(p)) for p in MODULES}
    unused = [f"{module}.{name}" for module, name in exports
              if name not in in_tests
              and not any(name in names for stem, names in in_src.items()
                          if stem != module)]
    assert unused == []


def public_definitions(tree):
    """The public top-level functions and classes of a module, and the
    public methods of its classes, each with its qualified name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef))


def lookups_by_owner(tree):
    """How often a tree looks up each attribute, by (owner, attribute):
    the owner is the bare name looked up on, or None."""
    return Counter((n.value.id if isinstance(n.value, ast.Name) else None,
                    n.attr)
                   for n in ast.walk(tree) if isinstance(n, ast.Attribute))


def unreferenced(defining, counts, lookups=None, classes=frozenset()):
    """Public names defined in the tree ``defining`` that the name counts
    ``counts`` (of every tree, ``defining`` included) hold only inside
    their own definitions.  Given ``lookups``, the ``lookups_by_owner`` of
    every tree, a classmethod is used only by a lookup of its name that is
    not on another class of ``classes``: ``Poly.const``, or a variable
    named ``const``, does not use ``RatFunc.const``."""
    found = []
    for qualified, d in public_definitions(defining):
        owner, _, name = qualified.rpartition(".")
        if name.startswith("_"):
            continue
        if lookups is not None and owner and any(
                isinstance(x, ast.Name) and x.id == "classmethod"
                for x in d.decorator_list):
            def uses(looked):
                return sum(k for (on, attr), k in looked.items()
                           if attr == name and on not in classes - {owner})
            used = uses(lookups) > uses(lookups_by_owner(d))
        else:
            used = counts[name] > identifiers(d)[name]
        if not used:
            found.append(qualified)
    return found


def test_finds_an_unreferenced_definition():
    src = ast.parse("def used():\n    return 1\n\n"
                    "def recursive(n):\n    return recursive(n - 1)\n\n"
                    "class Box:\n    def get(self):\n        return used()\n"
                    "    def _hidden(self):\n        pass\n")
    counts = identifiers(src) + identifiers(ast.parse("Box()"))
    assert unreferenced(src, counts) == ["recursive", "Box.get"]


def test_finds_a_classmethod_used_only_through_another_class():
    src = ast.parse("class Poly:\n    @classmethod\n"
                    "    def const(cls, c):\n        return cls()\n\n"
                    "class RatFunc:\n    @classmethod\n"
                    "    def const(cls, c):\n"
                    "        return RatFunc(Poly.const(c))\n\n"
                    "    def inv(self):\n        return self\n\n"
                    "HALF = RatFunc(Poly.const(2)).inv()\n")
    counts, lookups = identifiers(src), lookups_by_owner(src)
    classes = {"Poly", "RatFunc"}
    assert unreferenced(src, counts, lookups, classes) == ["RatFunc.const"]
    # bare names alone take Poly.const for a use of RatFunc.const
    assert unreferenced(src, counts) == []
    # so does a variable of its name; a lookup on its own class, or on
    # anything that is not a class, is a use
    for use, dead in (("const = 2\n", ["RatFunc.const"]),
                      ("RatFunc.const(2)\n", []),
                      ("x = RatFunc\nx.const(2)\n", [])):
        more = ast.parse(use)
        assert unreferenced(src, counts + identifiers(more),
                            lookups + lookups_by_owner(more), classes) == dead


def test_every_public_definition_is_used():
    """A public function, class or method of ``src/propnet`` is referenced
    by name outside its own definition: by the engine, by a package export
    or by the benchmark.  A reference from a test does not count: code
    that only tests call belongs in ``tests/helpers.py``.  Names are
    matched bare, so a method counts as used whenever any attribute of
    its name is looked up, a same-named method of another class included:
    a test-only method that shares its name with a used one passes.  A
    classmethod is the exception: only a lookup of its name that is not
    on another class's name uses it."""
    trees = {p: parse(p) for p in [*SRC.glob("*.py"),
                                   *PERFBENCH.glob("*.py")]}
    counts = sum((identifiers(t) for t in trees.values()), Counter())
    lookups = sum((lookups_by_owner(t) for t in trees.values()), Counter())
    classes = {n.name for t in trees.values() for n in ast.walk(t)
               if isinstance(n, ast.ClassDef)}
    unused = [f"{path.stem}.{name}" for path in MODULES
              for name in unreferenced(trees[path], counts, lookups,
                                       classes)]
    assert unused == []


# Functions that may name themselves in their own body, each with what
# bounds its depth; every other walk keeps its own stack.
SELF_NAMING = {
    "scalar._parse_factor": "a literal nests at most MAX_NESTING deep",
    "scalar._size": "one level: the coefficients of a RatFunc",
}


def self_naming(tree):
    """The functions of a tree that name themselves in their own body.  A
    method calling a same-named method of another object names an
    attribute, not itself, and is not counted."""
    return [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            and any(isinstance(n, ast.Name) and n.id == f.name
                    for stmt in f.body for n in ast.walk(stmt))]


def test_finds_a_self_naming_function():
    src = ast.parse("def walk(t):\n    return [walk(c) for c in t]\n\n"
                    "def outer():\n    def inner(n):\n        return inner\n"
                    "    return inner\n\n"
                    "class Box:\n    def get(self):\n"
                    "        return self.get\n")
    assert self_naming(src) == ["walk", "inner"]


def test_no_function_names_itself():
    """Recursion only where its depth is bounded, so that no input meets
    the interpreter's recursion limit."""
    found = [f"{path.stem}.{name}" for path in MODULES
             for name in self_naming(parse(path))]
    assert sorted(found) == sorted(SELF_NAMING)


# Functions that may hold a true division, each with why it stays exact:
# ``int / int`` is a float, so a field value is divided only by way of
# ``Field.inv`` or ``Fraction``.  There are none: the literal parser
# divides by ``QS.inv`` too, since two of its Q(s) values, demoted to
# constants, can both be ints.
TRUE_DIVISION = {}


def true_divisions(tree):
    """The innermost function, or ``<module>``, around each ``/`` and
    ``/=`` of a tree, with its line."""
    found = []
    stack = [(tree, "<module>")]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.Div):
            found.append((where, node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        stack += [(child, where) for child in ast.iter_child_nodes(node)]
    return sorted(found, key=lambda f: f[1])


def test_finds_a_true_division():
    src = ast.parse("x = 1 / 2\ny = 7 // 2\n\n"
                    "def f(a):\n    def g(b):\n        return b / 3\n"
                    "    a /= 3\n    return a % 2\n")
    assert true_divisions(src) == [("<module>", 1), ("g", 6), ("f", 7)]


def test_no_true_division():
    """No ``/`` on field values, so that no float can enter an exact
    computation."""
    found = {f"{path.stem}.{where}" for path in MODULES
             for where, _line in true_divisions(parse(path))}
    assert sorted(found) == sorted(TRUE_DIVISION)


def ratfunc_constructions(tree):
    """The lines of a tree that call the ``RatFunc`` constructor or
    ``RatFunc.const``, directly or through a module."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (ast.unparse(node.func).split(".")[-1] == "RatFunc"
                 or ast.unparse(node.func).endswith("RatFunc.const"))]


def test_finds_a_ratfunc_construction():
    src = ast.parse("a = RatFunc(1)\nb = RatFunc.const(2)\nc = RatFunc.s()\n"
                    "d = QS.coerce(3)\ne = scalar.RatFunc(Poly.s(), 2)\n"
                    "f = isinstance(a, RatFunc)\n")
    assert ratfunc_constructions(src) == [1, 2, 5]


def test_constants_enter_qs_only_through_scalar():
    """Only ``scalar`` builds a RatFunc with its constructor or
    ``RatFunc.const``, which can make a constant one; every other module
    gets its Q(s) values from ``QS``, which stores a constant as a
    rational."""
    found = {f"{path.stem}:{line}" for path in MODULES
             if path.stem != "scalar"
             for line in ratfunc_constructions(parse(path))}
    assert sorted(found) == []
