"""The slowlight names the benchmark in perfbench/ calls must exist.

Scans perfbench/*.py with ast for the library names it uses: attribute
chains on a name bound to slowlight or one of its modules (`sl.PulseSpec`,
`sio.write_transmission_csv`, `slowlight.cli.main`) and `from slowlight
import` names.  Deleting one of them then fails this test instead of the
benchmark.  This test only reads perfbench/.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _chain(node: ast.Attribute) -> list[str] | None:
    """["sl", "Channel", "analytic"] for sl.Channel.analytic; None unless the
    chain starts at a bare name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def _used_names(tree: ast.AST) -> set[str]:
    """Dotted slowlight names the module uses, e.g. "slowlight.io.read_ascii_text"."""
    aliases, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("slowlight"):
                    aliases[alias.asname] = alias.name  # import slowlight.io as sio
                elif alias.name.split(".")[0] == "slowlight":
                    aliases["slowlight"] = "slowlight"  # import slowlight.cli
        elif isinstance(node, ast.ImportFrom) and node.module == "slowlight":
            used.update(f"slowlight.{alias.name}" for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _chain(node)
            if chain and chain[0] in aliases:
                used.add(".".join([aliases[chain[0]], *chain[1:]]))
    return used


def _resolve(dotted: str):
    """The object a dotted name denotes, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


USED = sorted(set().union(*(
    _used_names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    for path in sorted(BENCH.glob("*.py"))
)))


def test_the_scan_finds_the_benchmark_calls():
    # one name of each form, so a scan that finds nothing cannot pass
    for name in ("slowlight.run_scenario", "slowlight.io.write_transmission_csv",
                 "slowlight.cli.main", "slowlight.EdgeEnergyWarning"):
        assert name in USED


@pytest.mark.parametrize("name", USED)
def test_benchmark_name_resolves(name):
    _resolve(name)
