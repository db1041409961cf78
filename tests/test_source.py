"""Source checks that need no linter: every module uses what it imports, and
the package exports exactly the names its ``__init__`` imports."""

import ast
import pathlib

import pytest

import symbreak

MODULES = sorted(
    path for path in pathlib.Path(symbreak.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads; ``__future__`` is exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import itertools\nimport os.path\nimport json as j\n"
        "from .graphs import Graph, build_graph\n"
        "def f(g: Graph) -> int:\n    return os.sep\n"
    )
    assert unused_imports(source) == ["build_graph", "itertools", "j"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_all_lists_each_imported_name_once():
    init = pathlib.Path(symbreak.__file__)
    tree = ast.parse(init.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert len(symbreak.__all__) == len(set(symbreak.__all__))
    assert set(symbreak.__all__) == imported
