"""Layered benchmark for treedoc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) for about ``--seconds`` seconds,
one repetition at a time, each in a fresh interpreter (``rep.py``). GC stays
enabled at default thresholds throughout. Prints every metric with its unit
and the direction that counts as better, then, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``. Each
timed repetition runs another input seed derived from ``--seed`` (the
first is ``--seed`` itself), and the second seed runs once more at the end,
so that its counts are checked for repeatability too. Many inputs per run
keep the figures from hanging on one input's quirks, such as which edits
and pauses a GC collection lands in. The number of seeds follows from
``--seconds`` and the workload's nominal repetition time (``plan``), never
from the clock, so it does not depend on how fast the code under test is.
Each seed contributes one reading of each unit of work, the median over
its repetitions (see ``typical``): each edit, each pause and each lap, a
slice of the timed region of 5-150 ms. Latency and pause percentiles pool
those readings over the seeds; throughput is their total edits over their
total lap time. Set-up time is the median over all repetitions. The
overhead metrics (mean TID bytes, tombstone fraction) are exact for a seed
and averaged over the seeds. An untimed ``tracemalloc`` repetition of
``--seed`` gives memory; it repeats that seed, so its counts must match the
timed ones.

The host is shared: other tenants slow everything down by up to 1.8x, in
phases that last from seconds to minutes, so two runs of the same code can
differ by that much. To take that out, every timed repetition also times a
fixed kernel (``probes.kernel_s``), which shares no code with treedoc,
between each two laps, and every time metric of the run is multiplied by
``host_scale``: the reference kernel time over the run's mean kernel time.
Times are thus reported as they would read on the reference host in its
fast state; the result file and the printout also give them as measured.

``--trace 1`` reports the per-layer metrics. Plain timed and traced
repetitions of ``--seed`` alternate, a fixed number of each; the traced ones
give each layer's calls and self time (medians), and the median traced
over the median plain wall time is the tracing overhead. The self times
of all spans, the benchmark's own ``bench`` span included, add up to the
traced wall time only if no child span reaches outside its parent and no
self time is negative; every traced repetition must show neither. The
``bench`` span's self time is time no layer accounts for (the harness's
own loop), and its share of the traced wall must stay within
``BENCH_SHARE_BOUND``.

Every repetition runs its workload's oracle. The counts a workload records
must repeat exactly across repetitions of a seed. Any mismatch, oracle or
determinism, makes ``correct`` false and the exit code 1. A checkout without
``src/treedoc`` exits with code 2 before running anything.

Results, with the Python version, CPU count and source revision, are also
written to ``perfbench/out/``; spans of the last traced repetition go to
``perfbench/out/<workload>-seed<n>.spans``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SEED_STRIDE = 1_000_003
MIN_TRACE_PAIRS = 2
# A traced repetition costs about this many plain ones (see tracing.overhead).
TRACED_COST = 1.3
# Distinct samples needed so that each reported percentile has at least ten
# samples beyond it: p99 of edit latency, p90 of pauses.
MIN_LATENCIES = 1000
MIN_PAUSES = 100
REP_TIMEOUT_S = 45.0
# Median of probes.kernel_s() on the reference host, a 2-vCPU Xeon at
# 2.1 GHz shared with other tenants, in its fast state. See host_scale.
REFERENCE_KERNEL_S = 0.0016
# Largest share of the traced wall that the harness's own time (the bench
# span's self time) may take. Measured shares are 0-4%, highest where the
# harness does most besides calling treedoc: random-edit samples the mean TID
# size every 100 edits, nebula-rejoin wire-encodes and delivers every op.
BENCH_SHARE_BOUND = 0.10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` for ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_rep(workload: str, seed: int, mode: str) -> dict:
    """Run one repetition in a fresh interpreter and parse its result."""
    cmd = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "seed": seed, "crashed": f"timed out after {REP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"mode": mode, "seed": seed, "crashed": " | ".join(tail) or "no output"}
    return json.loads(lines[-1])


def check_determinism(reps: list[dict]) -> list[str]:
    """Counts (and traced counters) must repeat exactly within a seed."""
    problems = []
    groups: dict[int, list[dict]] = {}
    for rep in reps:
        groups.setdefault(rep["seed"], []).append(rep)
    for seed, group in groups.items():
        for field in ("counts", "counters"):
            seen: dict[str, object] = {}
            for rep in group:
                for key, value in rep.get(field, {}).items():
                    if key in seen and seen[key] != value:
                        problems.append(
                            f"seed {seed}: {key} not repeatable ({seen[key]!r} vs {value!r})"
                        )
                    seen.setdefault(key, value)
    return problems


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def git_sha() -> str | None:
    """HEAD's commit from ``.git`` without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def typical(timed: list[dict]) -> dict[int, dict]:
    """Per seed, one reading of each unit of work: the median over the
    seed's repetitions (the plan runs one seed twice, the others once).

    A seed's repetitions do the same work in the same order, so the i-th
    edit (pause, lap) of one repetition is the i-th of every other; GC is
    deterministic for a seed and stays in every reading. The minimum is not
    used: on a shared host, other tenants slow everything down by up to
    1.8x in phases of seconds to minutes, and a minimum jumps whenever one
    repetition lands in a fast phase, and falls as repetitions are added.
    """
    groups: dict[int, list[dict]] = {}
    for rep in timed:
        groups.setdefault(rep["seed"], []).append(rep)
    median = statistics.median
    return {
        seed: {
            "run_s": sum(median(xs) for xs in zip(*(r["laps"] for r in group))),
            "ops": group[0]["ops"],
            "lat": [median(xs) for xs in zip(*(r["lat"] for r in group))],
            "pauses": [median(xs) for xs in zip(*(r["pauses"] for r in group))],
            "counts": group[0]["counts"],
        }
        for seed, group in groups.items()
    }


def plan(cls, seed: int, seconds: float, trace: bool) -> list[tuple[int, str]]:
    """The repetitions of one run of workload class ``cls``, in order.

    The timed ones fill about ``seconds`` at the workload's nominal
    repetition time, and are never fewer than the reported percentiles
    need. The memory repetition comes on top: ``tracemalloc`` makes it
    3-6 times slower than a plain one.
    """
    if trace:
        pairs = max(MIN_TRACE_PAIRS, round(seconds / (cls.REP_S * (1 + TRACED_COST))))
        return [(seed, "timed"), (seed, "traced")] * pairs + [(seed, "memory")]
    count = max(cls.MIN_SEEDS, round(seconds / cls.REP_S))
    seeds = [seed + k * SEED_STRIDE for k in range(count)]
    return [(s, "timed") for s in seeds] + [(seeds[1], "timed"), (seed, "memory")]


def measure(workload: str, steps: list[tuple[int, str]]) -> list[dict]:
    """Run the planned repetitions one at a time; stop at the first crash."""
    reps: list[dict] = []
    for rep_seed, mode in steps:
        reps.append(run_rep(workload, rep_seed, mode))
        if "crashed" in reps[-1]:
            break
    return reps


def sampling_problems(timed: list[dict], trace: bool) -> list[str]:
    """Units of work must line up across a seed's repetitions, and suffice
    for the reported percentiles (which a traced run does not report)."""
    problems = []
    groups: dict[int, list[dict]] = {}
    for rep in timed:
        groups.setdefault(rep["seed"], []).append(rep)
    for seed, group in groups.items():
        for field in ("lat", "pauses", "laps"):
            if len({len(r[field]) for r in group}) != 1:
                problems.append(f"seed {seed}: repetitions differ in the number of {field}")
    if trace:
        return problems
    best = typical(timed).values()
    if sum(len(b["lat"]) for b in best) < MIN_LATENCIES:
        problems.append(f"fewer than {MIN_LATENCIES} distinct edit latencies")
    if sum(len(b["pauses"]) for b in best) < MIN_PAUSES:
        problems.append(f"fewer than {MIN_PAUSES} distinct pauses")
    return problems


def host_scale(timed: list[dict]) -> float:
    """Reference kernel time over this run's mean kernel time.

    Multiplying a time measured in this run by it gives the time on the
    reference host (see ``REFERENCE_KERNEL_S``).
    """
    kernel = [k for r in timed for k in r["kernel"]]
    return REFERENCE_KERNEL_S * len(kernel) / sum(kernel)


def end_to_end(reps: list[dict], scale: float) -> dict[str, float]:
    """The end-to-end metrics; times are multiplied by ``scale``."""
    timed = [r for r in reps if r["mode"] == "timed"]
    best = typical(timed).values()
    memory = next(r for r in reps if r["mode"] == "memory")
    lat = [x for b in best for x in b["lat"]]
    pauses = [x for b in best for x in b["pauses"]]
    replica_bytes = sum(memory["mem"][m] for m in ("tid", "core", "flatten", "protocol"))
    return {
        "setup_s": statistics.median(r["setup_s"] for r in timed) * scale,
        "ops_per_s": sum(b["ops"] for b in best) / sum(b["run_s"] for b in best) / scale,
        "op_p50_us": percentile(lat, 0.50) * 1e6 * scale,
        "op_p99_us": percentile(lat, 0.99) * 1e6 * scale,
        "pause_p50_ms": percentile(pauses, 0.50) * 1e3 * scale,
        "pause_p90_ms": percentile(pauses, 0.90) * 1e3 * scale,
        "mem_bytes_per_live_atom": replica_bytes / memory["live_atoms"],
        "mean_tid_bytes": statistics.fmean(b["counts"]["mean_tid_bytes"] for b in best),
        "tombstone_fraction": statistics.fmean(
            b["counts"]["tombstone_fraction"] for b in best
        ),
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    timed = [r for r in reps if r["mode"] == "timed"]
    traced = [r for r in reps if r["mode"] == "traced"]
    memory = next(r for r in reps if r["mode"] == "memory")
    out: dict[str, float] = {}
    for name in traced[0]["layers"]:
        for field in ("calls", "self_s"):
            out[f"{name}.{field}"] = statistics.median(
                r["layers"][name][field] for r in traced
            )
    counters = traced[0]["counters"]
    out.update(counters)
    delivered = sum(v for k, v in counters.items() if k.startswith("protocol.deliver."))
    out["protocol.deliver.useful_ratio"] = (
        counters["protocol.deliver.applied"] / delivered if delivered else 0.0
    )
    counts = traced[0]["counts"]
    for key in ("core.nodes", "core.max_depth", "sim.events", "sim.messages"):
        out[key] = counts.get(key, 0)
    for key in timed[0]["gc"]:
        out[key] = statistics.median(r["gc"][key] for r in timed)
    for module, size in memory["mem"].items():
        out[f"{module}.mem_bytes"] = size
    wall = statistics.median(r["prepare_s"] + sum(r["laps"]) for r in timed)
    out["tracing.overhead"] = statistics.median(r["traced_wall_s"] for r in traced) / wall
    out["bench.share"] = statistics.median(
        r["layers"]["bench"]["self_s"] / r["traced_wall_s"] for r in traced
    )
    return out


def extras(reps: list[dict]) -> dict[str, float]:
    timed = [r for r in reps if r["mode"] == "timed"]
    keys = sorted({k for r in timed for k in r["extras"]})
    return {k: statistics.median(r["extras"][k] for r in timed) for k in keys}


def accounting_problems(traced: list[dict]) -> list[str]:
    problems = []
    for rep in traced:
        for kind, count in rep["broken_spans"].items():
            if count:
                problems.append(f"traced rep: {count} {kind} spans")
        share = rep["layers"]["bench"]["self_s"] / rep["traced_wall_s"]
        if share > BENCH_SHARE_BOUND:
            problems.append(
                f"traced rep: harness's own time is {share:.1%} of the traced wall,"
                f" bound {BENCH_SHARE_BOUND:.0%}"
            )
    return problems


def main() -> int:
    if not (ROOT / "src" / "treedoc" / "__init__.py").is_file():
        print(f"error: no treedoc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    steps = plan(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    reps = measure(args.workload, steps)
    problems = [f"{r['mode']} rep, seed {r['seed']}: {r['crashed']}" for r in reps if "crashed" in r]
    for rep in reps:
        problems.extend(f"{rep['mode']} rep, seed {rep['seed']}: {f}" for f in rep.get("failures", ()))
    problems.extend(check_determinism([r for r in reps if "crashed" not in r]))
    mismatches = len(problems)
    timed = [r for r in reps if r.get("mode") == "timed" and "crashed" not in r]
    if not problems:
        problems.extend(sampling_problems(timed, bool(args.trace)))

    values: dict[str, float] = {}
    unscaled: dict[str, float] = {}
    scale = None
    if not problems:
        if args.trace:
            problems.extend(
                accounting_problems([r for r in reps if r["mode"] == "traced"])
            )
            values = per_layer(reps)
        else:
            scale = host_scale(timed)
            values = end_to_end(reps, scale)
            unscaled = end_to_end(reps, 1.0)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            problems.append(f"metrics not produced: {missing}")

    attempted = sum(r.get("ops", 0) for r in reps)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seeds": sorted({r["seed"] for r in reps}),
        "trace": args.trace,
        "gc": "enabled, default thresholds",
        "provenance": provenance(),
        "repetitions": {
            mode: sum(1 for r in reps if r["mode"] == mode)
            for mode in ("timed", "traced", "memory")
        },
        "distinct_samples": {
            field: sum(len(b[field]) for b in typical(timed).values())
            for field in ("lat", "pauses")
        },
        "ops_failed": mismatches / attempted if attempted else 1.0,
        "host_scale": scale,
        "unscaled": unscaled,
        "extras": extras(reps) if not problems else {},
        "problems": problems,
    }
    summary = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": mismatches,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in values
        },
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"summary": summary, "info": info}, indent=1)
    )

    print(f"treedoc benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    for key in ("provenance", "repetitions", "distinct_samples", "gc"):
        print(f"  {key}: {info[key]}")
    for m in wanted:
        if m["name"] in values:
            print(f"  {m['name']:<34} {values[m['name']]:>16.6g} {m['unit']:<6} ({m['better']} is better)")
    for key, value in info["extras"].items():
        print(f"  extra {key:<28} {value:>16.6g}")
    if scale is not None:
        print(f"  host scale {scale:.4g}; as measured, before scaling:")
        for key, value in unscaled.items():
            if values[key] != value:
                print(f"    {key:<32} {value:>16.6g}")
    if args.trace and "bench.share" in values:
        print(
            f"  harness's own share of the traced wall {values['bench.share']:.1%},"
            f" bound {BENCH_SHARE_BOUND:.0%}"
        )
    print(f"  ops_failed {info['ops_failed']:.6g} ({mismatches} of {attempted})")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
