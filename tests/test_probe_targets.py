"""Every function the benchmark's tracer patches still exists under its name.

``perfbench/run.py --trace 1`` wraps treedoc's entry points by name; a
rename in ``src/`` would otherwise only show up there, as a KeyError.
"""

import importlib.util
from pathlib import Path

import pytest

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def _load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


probes = _load_probes()
TARGETS = [target for targets in probes.SPANS.values() for target in targets]


@pytest.mark.parametrize("target", TARGETS)
def test_span_target_resolves(target):
    owner, attr = probes._resolve(target)
    assert attr in owner.__dict__, f"{target} is patched but not defined there"


def test_post_hooks_ride_on_span_targets():
    assert set(probes.Tracer()._post_hooks()) <= set(TARGETS)
