"""Static checks over the package source."""

import ast
import pathlib

import henonlocus

PACKAGE = pathlib.Path(henonlocus.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so every check must raise a typed error.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {found}"
