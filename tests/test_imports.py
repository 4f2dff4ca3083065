"""Every name a module of the package imports at top level is used,
and every function or class it defines at top level is named somewhere.

No linter is part of the toolchain, so the checks read syntax trees
themselves.  A name bound by a top-level ``import`` or ``from ...
import`` must occur as a name somewhere in the module, or be listed in
its ``__all__``; ``__init__.py`` re-exports by design and is left out
of that check.  A top-level ``def`` or ``class`` must be named outside
its own definition by some file of ``src/``, ``tests/``, ``scripts/``
or ``bench/``: as a name, an attribute, an imported name or a string
(the benchmark's tracer looks functions up by name)."""

import ast
import functools
import pathlib

import pytest

from normlog.syntax import Expr

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "normlog"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(p for d in ("src", "tests", "scripts", "bench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "from typing import Optional, Sequence\nimport os\n\nx: Sequence[int] = []\n"
    assert unused_imports(source) == ["line 1: Optional", "line 2: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _named(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def unnamed_definitions(defining: str, named_elsewhere: set[str]) -> list[str]:
    """The top-level functions and classes of the module `defining`
    named neither in the rest of it nor in `named_elsewhere`."""
    tree = ast.parse(defining)
    per_statement = [(top, _named(top)) for top in tree.body]
    out = []
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if top.name in named_elsewhere:
            continue
        if not any(top.name in names for other, names in per_statement if other is not top):
            out.append(f"line {top.lineno}: {top.name}")
    return out


@functools.cache
def _named_in(path: pathlib.Path) -> frozenset[str]:
    return frozenset(_named(ast.parse(path.read_text(encoding="utf-8"))))


def test_the_scan_finds_an_unnamed_definition():
    module = (
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Lonely:\n    pass\n\n"
        "def called_elsewhere():\n    pass\n\n"
        "x = used()\n"
    )
    assert unnamed_definitions(module, _named(ast.parse("called_elsewhere()\n"))) == [
        "line 4: recursive",
        "line 7: Lonely",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_definition_is_named(path):
    named_elsewhere = set().union(*(_named_in(p) for p in SOURCES if p != path))
    assert unnamed_definitions(path.read_text(encoding="utf-8"), named_elsewhere) == []


# A function that names this many expression classes dispatches on the
# node kind.  Only the per-kind algebras may; a structural walk goes
# through syntax.children, rebuild and fold.
KIND_DISPATCH = 6
PER_KIND_ALGEBRAS = {
    "syntax.py:_print_node",
    "typecheck.py:_type_of",
    "transform.py:_Simplifier.go",
    "smtlib.py:_form",
    "closures.py:FormulaCompiler._comp",
    "models.py:_guard.guard",
}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_names(fn: ast.AST) -> set[str]:
    """The names in a function's body, not counting nested definitions."""
    out = set()
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif not isinstance(n, _SCOPES):
            stack.extend(ast.iter_child_nodes(n))
    return out


def kind_dispatchers(source: str, classes: set[str]) -> list[str]:
    """The functions of `source`, by dotted path, whose own body names
    at least KIND_DISPATCH of `classes`."""
    out = []

    def visit(node: ast.AST, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, _SCOPES):
                visit(child, path)
                continue
            inner = f"{path}.{child.name}" if path else child.name
            if not isinstance(child, ast.ClassDef) and len(_own_names(child) & classes) >= KIND_DISPATCH:
                out.append(inner)
            visit(child, inner)

    visit(ast.parse(source), "")
    return out


def test_the_scan_finds_a_kind_dispatcher():
    module = (
        "def walk(e):\n"
        "    def inner(e):\n"
        "        return isinstance(e, (A, B, C, D, E, F))\n"
        "    return isinstance(e, (A, B))\n"
        "class K:\n"
        "    def method(self, e):\n"
        "        return type(e) in (A, B, C, D, E, F, G)\n"
    )
    assert kind_dispatchers(module, set("ABCDEFG")) == ["walk.inner", "K.method"]


def test_no_structural_walker_dispatches_on_node_kinds():
    classes = {cls.__name__ for cls in Expr.__subclasses__()}
    found = {
        f"{path.name}:{name}"
        for path in MODULES
        for name in kind_dispatchers(path.read_text(encoding="utf-8"), classes)
    }
    assert found <= PER_KIND_ALGEBRAS, sorted(found - PER_KIND_ALGEBRAS)
