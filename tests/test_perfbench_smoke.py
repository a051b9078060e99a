"""The benchmark's workloads run clean at one seed, traced.

``perfbench/rep.py --mode traced`` runs a workload's set-up, its timed
region and its oracle, with spans around every entry point the tracer
patches. A broken oracle, a renamed entry point or a span that escapes its
parent shows up here before a full ``perfbench/run.py`` does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("random-edit", "typing-replay", "cluster-sim", "nebula-rejoin")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean_traced(workload):
    cmd = [sys.executable, "perfbench/rep.py", "--workload", workload]
    cmd += ["--seed", "11", "--mode", "traced"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    assert result["broken_spans"] == {"clipped": 0, "negative": 0}
