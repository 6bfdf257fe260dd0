"""Source hygiene: every module of the package uses each name it imports,
reads no private name of another module, reads each private name it
defines and exports only names that the package, a demo or perfbench
reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "invperm").glob("*.py"))


def _listed(tree) -> list:
    """The names in the module's __all__, or [] without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


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
    used |= set(_listed(tree))
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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_privates(source: str) -> list:
    """(line, name) of each private name the module reaches into another
    module for: an x._name read whose _name the module neither defines nor
    assigns (reads on self and cls and dunder names are exempt), and any
    "from .m import _name"."""
    tree = ast.parse(source)
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [(node.lineno, a.name) for a in node.names if _private(a.name)]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and _private(node.attr)
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            and node.attr not in own
        ):
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_foreign_private_names(path):
    assert foreign_privates(path.read_text()) == []


def test_foreign_private_check_flags_reach_ins():
    source = (
        "from . import __version__\n"
        "from .linmap import _helper, public\n"
        "def f(l1, l2, args):\n"
        "    args._argv = []\n"
        "    l1._same_ctx(l2)\n"
        "    return args._argv, self._x, cls._y, l1.__class__\n"
    )
    assert foreign_privates(source) == [(2, "_helper"), (5, "_same_ctx")]


def orphaned_privates(source: str) -> list:
    """(line, name) of each module-level private function, class or
    assigned name that the module never reads, as a name or as an
    attribute."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return sorted((line, name) for name, line in defined.items() if _private(name) and name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_orphaned_private_names(path):
    assert orphaned_privates(path.read_text()) == []


def test_orphaned_private_check_flags_unread_helpers():
    source = (
        "import numpy as np\n"
        "_CACHE = {}\n"
        "_A, _B = 1, 2\n"
        "__version__ = '1'\n"
        "def _words(rows):\n"
        "    return rows\n"
        "def _all_in(rows):\n"
        "    return rows\n"
        "class _Helper:\n"
        "    def _method(self):\n"
        "        return _A\n"
        "def public(x):\n"
        "    return _all_in(x), np._helper_attr, x._Helper\n"
    )
    assert orphaned_privates(source) == [(2, "_CACHE"), (3, "_B"), (5, "_words")]


def all_mismatches(source: str) -> list:
    """Names that break the module's __all__ (empty without one): each
    public top-level function or class left out, marked "unlisted", and
    each listed name the module never binds, marked "undefined"."""
    tree = ast.parse(source)
    listed, public, bound = None, set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                public.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names = {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
                bound |= names
                if "__all__" in names:
                    listed = ast.literal_eval(node.value)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
    if listed is None:
        return []
    return sorted(
        [("unlisted", name) for name in public - set(listed)]
        + [("undefined", name) for name in set(listed) - bound]
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_lists_public_names(path):
    assert all_mismatches(path.read_text()) == []


def test_all_check_flags_unlisted_and_undefined_names():
    source = (
        "from .x import exported\n"
        "__all__ = ['exported', 'Listed', 'CONSTANT', 'gone']\n"
        "CONSTANT = 1\n"
        "class Listed:\n"
        "    def method(self):\n"
        "        pass\n"
        "def forgotten():\n"
        "    def inner():\n"
        "        pass\n"
        "def _private():\n"
        "    pass\n"
    )
    assert all_mismatches(source) == [("undefined", "gone"), ("unlisted", "forgotten")]
    assert all_mismatches("def public():\n    pass\n") == []


def unread_exports(modules: dict, readers: list) -> list:
    """"module.name" of each name in the __all__ of a module (a dict of
    module name to source) that no reader source reads as a name, as an
    attribute or in a from-import; the strings in __all__ do not count."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    return sorted(
        f"{module}.{name}"
        for module, source in modules.items()
        for name in _listed(ast.parse(source))
        if name not in read
    )


# exports kept without a reader, each for a planned or test caller
KEPT = {
    "search.canonical_key",  # the orbit key that ROADMAP items 1 and 3 close witnesses under
    "vbf.ea_to_ccz",  # ROADMAP item 5 reads EA-equivalence through it
    "gf2mat.random_invertible",  # tests draw invertible matrices with it
}


def test_every_export_is_read():
    readers = [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    modules = {path.stem: path.read_text() for path in MODULES}
    unread = unread_exports(modules, [path.read_text() for path in readers])
    # an unread name outside KEPT, or a kept name that has found a reader
    assert sorted(set(unread) ^ KEPT) == []


def test_unread_export_check_flags_unread_names():
    modules = {
        "m": (
            "__all__ = ['called', 'imported', 'attribute', 'unread']\n"
            "def called():\n"
            "    pass\n"
            "def imported():\n"
            "    pass\n"
            "def attribute():\n"
            "    pass\n"
            "def unread():\n"
            "    return called()\n"
        ),
        "n": "def private():\n    pass\n",
    }
    readers = [modules["m"], "from .m import imported\nimport m\nm.attribute\n", "x = 'unread'\n"]
    assert unread_exports(modules, readers) == ["m.unread"]
