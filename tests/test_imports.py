"""Every name a library module imports is used in that module, and the
package exports exactly the public names it imports.

The check parses each module of ``src/gencluster`` with the standard
``ast`` module.  ``__init__.py`` is left out: it imports names to
re-export them, and ``__all__`` must list each of those once.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gencluster"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Sorted names bound by imports in ``source`` and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = "import heapq\nfrom operator import add, sub as minus\nadd(1, 2)\n"
    assert unused_imports(source) == ["heapq", "minus"]


def test_all_lists_every_reexported_name_once():
    import gencluster
    names = gencluster.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(gencluster, n)] == []
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert set(names) == {n for n in imported if not n.startswith("_")}
