"""Source hygiene: every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "invperm").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads; names
    listed in __all__ count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_flags_leftovers():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Dict, List\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: List[int]) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(3, "Dict")]
