"""Every demo runs to exit 0, and every package name the demos, the
benchmark scripts and the README's library quick start use must resolve
(the benchmark scripts and the quick start are only read)."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = "schwarzian_sl"


def imports_package(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == PACKAGE for name in names):
            return True
    return False


BENCH_SCRIPTS = [
    p for p in sorted((ROOT / "perfbench").glob("*.py")) if imports_package(p)
]


def readme_quick_start() -> str:
    """The Python block of the README section "Library quick start"."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


SOURCES = {p.name: p.read_text() for p in DEMOS + BENCH_SCRIPTS}
SOURCES["README.md"] = readme_quick_start()


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


def resolves(module: str, name: str) -> bool:
    """``name`` is an attribute of ``module`` or one of its submodules."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_demos_found():
    assert len(DEMOS) >= 6
    assert len(BENCH_SCRIPTS) >= 3


@pytest.mark.parametrize("source", list(SOURCES))
def test_demo_names_resolve(source):
    used = package_names(ast.parse(SOURCES[source], filename=source))
    assert used, f"{source} uses nothing from {PACKAGE}"
    missing = [
        f"{module}.{name}" for module, name in used if not resolves(module, name)
    ]
    assert not missing, f"{source}: {missing}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # each demo writes its CSVs into the working directory
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
