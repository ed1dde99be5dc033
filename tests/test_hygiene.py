"""Source hygiene checks that need no linter: stdlib `ast` only."""

from __future__ import annotations

import ast
import pathlib

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
