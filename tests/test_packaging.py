"""Declared dependencies match what the package imports."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _declared() -> set[str]:
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
    sources = sorted((ROOT / "src" / "codeq").glob("*.py"))
    assert sources
    stray = {f"{path.name}: {name}"
             for path in sources for name in _imported(path)
             if name not in allowed}
    assert not stray, f"undeclared imports: {sorted(stray)}"
