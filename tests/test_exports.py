"""The package's public names: __all__ and the names __init__ binds agree,
and every other module uses each name it imports."""

import ast
import types
from pathlib import Path

import pytest

import slowlight

MODULES = sorted(p for p in Path(slowlight.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from slowlight import *", namespace)
    assert [name for name in slowlight.__all__ if name not in namespace] == []
    assert len(set(slowlight.__all__)) == len(slowlight.__all__)


def test_every_public_name_bound_in_init_is_exported():
    tree = ast.parse(Path(slowlight.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {
        name for name in bound
        if not name.startswith("_")
        and not isinstance(getattr(slowlight, name), types.ModuleType)
    }
    assert sorted(public - set(slowlight.__all__)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
