"""emalg has no runtime dependencies: the project declares none, and the
package imports nothing but itself and the standard library."""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_the_project_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def imported_modules(tree: ast.AST):
    """The top-level name of every module an ``import`` statement names,
    or None for a relative import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield None if node.level else node.module.split(".")[0]


def test_the_package_imports_only_itself_and_the_standard_library():
    sources = sorted((ROOT / "src" / "emalg").rglob("*.py"))
    assert len(sources) > 10
    for path in sources:
        for name in imported_modules(ast.parse(path.read_text(), str(path))):
            assert name in (None, "emalg") or name in sys.stdlib_module_names, (path.name, name)
