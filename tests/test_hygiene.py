"""Source hygiene checks that need no linter: stdlib `ast` only."""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "puzznic"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.  Names read in annotations
    (string ones included) or listed in `__all__` count as read;
    `__future__` imports are exempt."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant))
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source,unused",
    [
        ("import os\n", ["os (line 1)"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nc()\n", []),
        ("from __future__ import annotations\n", []),
        ("from typing import Iterable\ndef f(x: 'Iterable[int]'): pass\n", []),
        ("from a import B\ndef f() -> 'list[B]': pass\n", []),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from a import b\nx = 'b is unused'\n", ["b (line 1)"]),
    ],
)
def test_unused_import_detection(source, unused):
    assert unused_imports(source) == unused


ROOT = PACKAGE.parent.parent
SCANNED = ("src", "tests", "benchmarks")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _references(tree: ast.AST) -> set[str]:
    """Every name a module reads outside the body of a definition of that
    name: names, attributes, imported names, and identifiers inside string
    constants (`getattr`, `mock.patch` and the benchmark tracer name
    functions in strings).  Docstrings are skipped: a name that is only
    written about is not read."""
    found: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        docstring = None
        if isinstance(node, (ast.Module, *DEFINITIONS)) and ast.get_docstring(node) is not None:
            docstring = node.body[0]
        if isinstance(node, DEFINITIONS):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = IDENTIFIER.findall(node.value)
        else:
            names = []
        found.update(name for name in names if name not in enclosing)
        for child in ast.iter_child_nodes(node):
            if child is not docstring:
                visit(child, enclosing)

    visit(tree, frozenset())
    return found


def unreferenced(package: dict[str, str], others: list[str]) -> list[str]:
    """Functions and classes (methods included) defined in the `package`
    sources (file name -> text) whose name no source reads, theirs or
    `others`.  Dunder methods are called by the language, not by name."""
    trees = {name: ast.parse(text) for name, text in package.items()}
    read: set[str] = set()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        read |= _references(tree)
    return [
        f"{name}: {node.name} (line {node.lineno})"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    ]


def test_no_unreferenced_definitions():
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    others = [
        p.read_text(encoding="utf-8")
        for top in SCANNED
        for p in sorted((ROOT / top).rglob("*.py"))
        if p.parent != PACKAGE
    ]
    assert unreferenced(package, others) == []


@pytest.mark.parametrize(
    "source,other,unused",
    [
        ("def f(): pass\n", "", ["m.py: f (line 1)"]),
        ("def f(): pass\nf()\n", "", []),
        ("def f(): pass\n", "from m import f\n", []),
        ("def f(n): return f(n - 1)\n", "", ["m.py: f (line 1)"]),
        ("class A:\n    def g(self): pass\n", "A().g()\n", []),
        ("class A:\n    def g(self): pass\n", "A()\n", ["m.py: g (line 2)"]),
        ("class A:\n    def __len__(self): return 0\n", "A()\n", []),
        ("def f(): pass\n", "getattr(m, 'f')\n", []),
        ("def f(): pass\n", '"""f is only written about."""\n', ["m.py: f (line 1)"]),
        ("def f(): pass\nclass A:\n    'See f.'\nA()\n", "", ["m.py: f (line 1)"]),
        ("def f(): pass\ndef g():\n    'See f.'\n    return 'f'\ng()\n", "", []),
    ],
)
def test_unreferenced_detection(source, other, unused):
    assert unreferenced({"m.py": source}, [other]) == unused


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[str]:
    """`_`-prefixed names a module reads from another `puzznic` module:
    imported by name, or read as an attribute of a name the module imports
    from the package (`engine._x`, `Grid._y`, `engine.Grid._y`).  Dunder
    names are public, and other packages are not checked."""
    tree = ast.parse(source)
    imported: set[str] = set()
    found: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "puzznic"
        ):
            for alias in node.names:
                imported.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append(f"{alias.name} (line {node.lineno})")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "puzznic":
                    imported.add(alias.asname or parts[0])
                    if any(map(_private, parts)):
                        found.append(f"{alias.name} (line {node.lineno})")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_reads_across_modules(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source,reads",
    [
        ("from puzznic.engine import _resolve\n", ["_resolve (line 1)"]),
        ("from .engine import _resolve as r\n", ["_resolve (line 1)"]),
        ("from puzznic import engine\nengine._resolve\n", ["engine._resolve (line 2)"]),
        ("from puzznic.engine import Grid\nGrid._trusted(())\n", ["Grid._trusted (line 2)"]),
        ("import puzznic.engine as e\ne.Grid._trusted\n", ["e.Grid._trusted (line 2)"]),
        ("import puzznic.engine\npuzznic.engine._settle\n", ["puzznic.engine._settle (line 2)"]),
        ("import puzznic._impl\n", ["puzznic._impl (line 1)"]),
        ("from puzznic import engine\nengine.__name__\n", []),
        ("from puzznic import engine\ngetattr(engine, 'settle')\n", []),
        ("class A:\n    def f(self):\n        return self._x\n", []),
        ("_x = 1\nprint(_x)\n", []),
        ("import os\nos._exit(0)\n", []),
    ],
)
def test_private_read_detection(source, reads):
    assert private_reads(source) == reads
