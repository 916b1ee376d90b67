"""The package's public names: __all__ and the names __init__ binds agree."""

import ast
import types
from pathlib import Path

import slowlight


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
