"""Checks on the package source itself."""

import ast
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
