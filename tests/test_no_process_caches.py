"""Program paths keep no process-wide ``functools`` caches.

An ``lru_cache`` or ``cache`` decorator holds strong references to every
argument and result it keeps, for the life of the process: it pins
operations, nodes and strings after the replica that made them is gone.
State that is worth caching lives on the object it belongs to.
"""

import ast
from pathlib import Path

import treedoc

PACKAGE = Path(treedoc.__file__).resolve().parent
CACHES = {"lru_cache", "cache"}


def cache_decorators(source: str) -> list[int]:
    """Line numbers of ``functools`` cache decorators in ``source``."""
    tree = ast.parse(source)
    modules = {"functools"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "functools"} - {None}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in CACHES}
    found = []
    for node in ast.walk(tree):
        for dec in getattr(node, "decorator_list", ()):
            target = dec.func if isinstance(dec, ast.Call) else dec
            if isinstance(target, ast.Name) and target.id in names:
                found.append(dec.lineno)
            elif (
                isinstance(target, ast.Attribute)
                and target.attr in CACHES
                and isinstance(target.value, ast.Name)
                and target.value.id in modules
            ):
                found.append(dec.lineno)
    return found


def test_the_check_sees_every_spelling():
    source = """
import functools
import functools as ft
from functools import lru_cache, cache as memo, partial

@functools.lru_cache(maxsize=8)
def a(x): return x

@ft.cache
def b(x): return x

@lru_cache
def c(x): return x

class K:
    @memo
    def d(self): return 1

@partial
def e(x): return x
"""
    assert cache_decorators(source) == [6, 9, 12, 16]


def test_package_has_no_process_caches():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in modules
        for line in cache_decorators(path.read_text())
    ]
    assert found == [], f"functools caches on program paths: {found}"
