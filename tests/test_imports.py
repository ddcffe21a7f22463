"""The package's modules import one another without a cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import gaussnm

PACKAGE = Path(gaussnm.__file__).parent


def _siblings(path: Path) -> set[str]:
    """Modules of the package that the module at ``path`` imports, through
    every relative import, those inside functions included."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:  # from . import name
                out.update(alias.name for alias in node.names)
    return out


def test_intra_package_imports_form_a_dag():
    graph = {path.stem: _siblings(path) for path in PACKAGE.glob("*.py")}
    assert {"_spline", "spectral", "states"} <= graph["channels"]  # the walk sees them
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))
