"""Every module-level import of the package is used by its module, and
every private module-level name is read by some module of the package.

No linter ships with the project, so this parses each module with ``ast``
and fails on an imported name that the module never reads, and on a
function, class or constant whose name starts with an underscore that no
module reads outside its own definition.  ``__init__.py`` is skipped by the
import check: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "thermalent"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_unused_names():
    src = "import os\nimport numpy as np\nfrom math import inf, pi\nx = np.zeros(1) + pi\n"
    assert unused_imports(src) == [(1, "os"), (3, "inf")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def _defined(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _reads(stmt) -> set:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each module-level private name (one leading
    underscore) that no statement of any module reads, its own definition
    aside."""
    stmts = [(module, stmt) for module, source in sources.items()
             for stmt in ast.parse(source).body]
    unread = []
    for module, stmt in stmts:
        for name in _defined(stmt):
            if (name.startswith("_") and not name.startswith("__")
                    and not any(name in _reads(other) for _, other in stmts
                                if other is not stmt)):
                unread.append((module, stmt.lineno, name))
    return sorted(unread)


def test_finds_unread_private_names():
    a = "_A = 1\n_B = 2\ndef _f(n):\n    return _f(n - 1)\nclass _C:\n    pass\nx = _A\n"
    b = "from a import _B\n"
    assert unread_private_names({"a": a, "b": b}) == [("a", 3, "_f"), ("a", 5, "_C")]


def test_private_names_are_read():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
