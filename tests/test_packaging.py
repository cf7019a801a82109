"""Declared dependencies match what the package imports, and its modules
meet only through public names."""

import ast
import os
import pathlib
import re
import subprocess
import sys
import textwrap

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


def test_numpy_floor_has_bitwise_count():
    # linear weighs bit planes with np.bitwise_count, new in NumPy 2.0
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    floors = [re.fullmatch(r"numpy\s*>=\s*(\d+)(?:\.(\d+))?.*", req)
              for req in project["dependencies"]
              if re.match(r"numpy\b", req)]
    assert floors and all(floors), f"no numpy floor in {floors}"
    assert all((int(f.group(1)), int(f.group(2) or 0)) >= (2, 0)
               for f in floors)


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


# codeq modules from the bottom layer up: a module imports only from the
# modules before it
LAYERS = ("fields", "cosets", "linear", "cyclic", "constacyclic", "quantum",
          "search", "cli")


def _codeq_imports(path: pathlib.Path) -> list[tuple[str | None, str]]:
    """(enclosing function or None, codeq module) for each import in path."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom):
                parts = child.module.split(".")
                if child.level > 0:
                    found.append((func, parts[0]))
                elif parts[0] == "codeq":
                    found.append((func, parts[1]))
            elif isinstance(child, ast.Import):
                found.extend((func, alias.name.split(".")[1])
                             for alias in child.names
                             if alias.name.startswith("codeq."))
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_modules_import_only_lower_layers():
    assert {path.stem for path in SOURCES} == {*LAYERS, "__init__"}
    rank = {name: i for i, name in enumerate(LAYERS)}
    upward = [f"{path.name}: {func or 'module level'} imports {module}"
              for path in SOURCES if path.stem != "__init__"
              for func, module in _codeq_imports(path)
              if rank[module] >= rank[path.stem]]
    assert not upward, f"imports against the layer order: {upward}"


def _referenced(path: pathlib.Path) -> set[str]:
    """Every name and attribute ``path`` reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_reader():
    # an export earns its place by a reader in the package, the benchmark
    # or the acceptance suite; one that only unit tests call goes
    import codeq

    readers = [path for path in SOURCES if path.stem != "__init__"]
    readers += sorted((ROOT / "bench").glob("*.py"))
    readers.append(ROOT / "tests" / "test_acceptance.py")
    read = set().union(*map(_referenced, readers))
    unread = sorted(set(codeq.__all__) - read)
    assert not unread, f"exports nothing reads: {unread}"


def _definitions(path: pathlib.Path) -> list[str]:
    """The module-level functions and classes in path and the public
    methods of those classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [item.name for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("_")]
    return found


def _named_outside_definitions(path: pathlib.Path) -> set[str]:
    """Every name, attribute and imported name in path, leaving out a
    definition's own name inside its body."""
    names = set()

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, enclosing | {child.name})
                continue
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = child.name.split(".")[-1]
            else:
                name = None
            if name is not None and name not in enclosing:
                names.add(name)
            visit(child, enclosing)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return names


def test_every_definition_has_a_reader():
    # a function, class or public method that nothing in the package, the
    # benchmark or the tests names is dead code
    files = [path for top in ("src", "bench", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))]
    named = set().union(*map(_named_outside_definitions, files))
    unread = [f"{path.name}: {name}" for path in SOURCES
              for name in _definitions(path) if name not in named]
    assert not unread, f"definitions nothing names: {unread}"


def test_cold_pass_imports_no_numpy_ma():
    # np.unique, np.setdiff1d and other set routines import numpy.ma on
    # first use, about 10 ms in a fresh process (NumPy 2.4, 2-core Xeon);
    # a search pass, the exhaustive engine and the ladder, with and without
    # a subcode filter, must not pay it
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import codeq
        from codeq.fields import gf4
        from codeq.linear import LinearCode, min_distance, min_weight_outside
        from codeq.search import SearchJob, search
        search(SearchJob("constacyclic", 5, distance_budget=1 << 24))
        rows = np.random.default_rng(1).integers(0, 4, size=(6, 12))
        C = LinearCode.from_rows(gf4(), rows)
        min_distance(C, strategy="exhaustive")
        min_distance(C, strategy="information_set")
        S = LinearCode.from_rows(gf4(), C.generator[:3])
        min_weight_outside(C, S, strategy="information_set")
        print("numpy.ma" in sys.modules)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
