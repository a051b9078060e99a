"""Every name a module of the package imports is used in that module, and
every private function the package defines is used in the package.

Deleting code tends to leave its imports and helpers behind. ``__init__.py``
is skipped for imports, since it imports to re-export, and so is
``from __future__``. Quoted annotations (``Optional["TID"]``) count as uses
of the names in them. A private function or method (one leading underscore)
counts as used when its name appears as a name or an attribute anywhere in
the package outside its own definition.
"""

import ast
from pathlib import Path

import treedoc

PACKAGE = Path(treedoc.__file__).resolve().parent


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            yield from (a.annotation for a in every if a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def _imported_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_package_has_no_unused_imports():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        found += [
            f"{path.relative_to(PACKAGE)}:{line} {name}"
            for line, name in _imported_names(tree)
            if name not in used
        ]
    assert found == [], f"unused imports: {found}"


def _private_defs(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
            if name.startswith("_") and not name.startswith("__"):
                yield node


def _references(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def test_package_private_functions_are_all_used():
    modules = sorted(PACKAGE.rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in modules}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    found = []
    for path, tree in trees.items():
        for node in _private_defs(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            used = any(
                name == node.name and (other is not path or line not in inside)
                for other, lines in refs.items()
                for line, name in lines
            )
            if not used:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}")
    assert found == [], f"unused private functions: {found}"
