"""Static checks over the package source."""

import ast
import pathlib

import henonlocus

PACKAGE = pathlib.Path(henonlocus.__file__).resolve().parent


def _find(predicate):
    """`file:line` of every AST node in the package that satisfies predicate."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if predicate(node)
        ]
    return found


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so every check must raise a typed error.
    found = _find(lambda node: isinstance(node, ast.Assert))
    assert not found, f"assert statements in the package: {found}"


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _reads_environment(node):
    """`os.environ`, `os.getenv`, and the same names used bare or imported."""
    if isinstance(node, ast.Attribute):
        return node.attr in _ENVIRONMENT
    if isinstance(node, ast.Name):
        return node.id in _ENVIRONMENT
    return isinstance(node, ast.alias) and node.name in _ENVIRONMENT


def test_package_reads_no_environment_variables():
    # Behaviour comes from arguments (CLI flags, config keys) only.
    found = _find(_reads_environment)
    assert not found, f"environment reads in the package: {found}"
