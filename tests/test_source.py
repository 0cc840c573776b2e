"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import oldsets

PACKAGE = Path(oldsets.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no invariant may rest on one
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_exported_name_exists():
    # a name removed from a module must leave its __all__ too
    modules = [
        importlib.import_module(f"oldsets.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if not path.stem.startswith("_")
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 6
    stale = [f"{m.__name__}.{name}" for m in exporting for name in m.__all__ if not hasattr(m, name)]
    assert stale == []
