"""Every package name the demos use must resolve (the demos themselves are
too slow for the test run)."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
PACKAGE = "schwarzian_sl"


def package_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) for each ``alias.<name>`` of ``import schwarzian_sl as
    alias`` and each ``from schwarzian_sl[.<mod>] import <name>``."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == PACKAGE
    }
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == PACKAGE or node.module.startswith(PACKAGE + ".")
        ):
            used += [(node.module, alias.name) for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            used.append((PACKAGE, node.attr))
    return used


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_names_resolve(path):
    used = package_names(ast.parse(path.read_text(), filename=str(path)))
    assert used, f"{path.name} uses nothing from {PACKAGE}"
    missing = [
        f"{module}.{name}"
        for module, name in used
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name}: {missing}"
