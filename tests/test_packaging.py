"""Declared dependencies match what the package imports, and its modules
meet only through public names."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "codeq").glob("*.py"))


def _declared() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = set()
    for req in project.get("dependencies", []):
        name = re.match(r"[A-Za-z0-9_.-]+", req).group(0)
        names.add(name.lower().replace("-", "_").replace(".", "_"))
    return names


def _imported(path: pathlib.Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imports_are_stdlib_codeq_or_declared():
    allowed = set(sys.stdlib_module_names) | {"codeq"} | _declared()
    assert SOURCES
    stray = {f"{path.name}: {name}"
             for path in SOURCES for name in _imported(path)
             if name not in allowed}
    assert not stray, f"undeclared imports: {sorted(stray)}"


def _private_codeq_imports(path: pathlib.Path) -> list[str]:
    """Underscore names ``path`` imports from another codeq module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.level > 0 or node.module.split(".")[0] == "codeq")):
            found += [f"{path.name}: {node.module}.{alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_modules_import_no_private_names_from_each_other():
    assert SOURCES
    private = [hit for path in SOURCES for hit in _private_codeq_imports(path)]
    assert not private, f"private cross-module imports: {private}"
