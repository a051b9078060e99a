"""Importing treedoc stays cheap.

Every CLI call and every benchmark repetition starts with ``import
treedoc``. ``dataclasses`` alone loads ``inspect``, ``dis``, ``ast`` and
``tokenize``, so the package's value types are named tuples and slots
classes instead.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import treedoc

PACKAGE = Path(treedoc.__file__).resolve().parent


def test_import_loads_no_dataclass_machinery():
    # -S: only what treedoc imports counts, not the site hooks of this Python.
    probe = (
        "import sys, treedoc, treedoc.cli; "
        "print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.split() == []


def test_package_does_not_import_dataclasses():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == [], f"dataclasses imported at {found}"
