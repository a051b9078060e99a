"""Program paths raise typed errors, never ``assert``.

``python -O`` strips assert statements, so an invariant checked with one
silently stops being checked. This keeps every module of the package free
of them.
"""

import ast
from pathlib import Path

import treedoc

PACKAGE = Path(treedoc.__file__).resolve().parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == [], f"assert statements on program paths: {found}"
