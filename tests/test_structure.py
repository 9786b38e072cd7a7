"""Structure guards: each module keeps its private names and the sector
mixture's fields to itself, and none imports `dataclasses`.

A `_`-prefixed name is private to its module, so no module of the package
imports one from another (or reads one off an imported module).  The
`SectorMixture` format is known by `collective` alone: no other module reads
its sector fields.  Values are plain read-only classes or NamedTuples: a
dataclass's generated methods are compiled at every import.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mesoparity"
MODULES = sorted(PACKAGE.glob("*.py"))
MIXTURE_FIELDS = {"weight_odd", "weight_even", "cross", "cross_flipped"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _package_modules(tree: ast.Module) -> set:
    """The names this module binds to modules of the package (``from . import x``)."""
    return {alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None
            for alias in node.names}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    tree = _tree(path)
    siblings = _package_modules(tree)
    crossing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("mesoparity")):
            crossing += [alias.name for alias in node.names if _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in siblings and _private(node.attr)):
            crossing.append(f"{node.value.id}.{node.attr}")
    assert crossing == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "collective.py"],
                         ids=lambda p: p.name)
def test_only_collective_reads_the_mixture_fields(path):
    read = sorted({node.attr for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Attribute) and node.attr in MIXTURE_FIELDS})
    assert read == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    nodes = list(ast.walk(_tree(path)))
    imported = {alias.name for node in nodes if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in nodes
                 if isinstance(node, ast.ImportFrom) and not node.level}
    assert "dataclasses" not in imported
