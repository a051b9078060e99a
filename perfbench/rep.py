"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --mode timed|traced|memory

``run.py`` starts this once per repetition and reads the JSON object on the
last line of its standard output. Modes:

``timed``   no instrumentation beyond the clock around each edit and pause,
            the GC accounting hook, and ``probes.kernel_s`` between laps
``traced``  spans around every entry point in ``probes.SPANS``; the root
            span covers treedoc's set-up and the timed region
``memory``  untimed; ``tracemalloc`` traces the timed region and the bytes
            still held at its end are attributed to treedoc's modules
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "treedoc"
OUT = HERE / "out"
TRACEMALLOC_FRAMES = 1  # see probes.memory_by_module; each frame slows the pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "memory"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import treedoc

    import_s = time.perf_counter() - started
    if Path(treedoc.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"imported treedoc from {treedoc.__file__}, not {PACKAGE}")
    import probes
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    rec = workloads.Recorder(calibrate=args.mode == "timed")
    workload.generate(rec)
    tracer = None
    if args.mode == "traced":
        tracer = probes.Tracer()
        tracer.install()
    gcw = probes.GcWatch(tracer)

    if tracer is not None:
        tracer.open_root()
    t_prepare = time.perf_counter()
    workload.prepare(rec)
    t_ready = time.perf_counter()
    if args.mode == "memory":
        tracemalloc.start(TRACEMALLOC_FRAMES)
    gcw.active = True
    t_run = time.perf_counter()
    workload.execute(rec)
    t_end = time.perf_counter()
    gcw.active = False
    result: dict[str, object] = {}
    if args.mode == "memory":
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        by_module = probes.memory_by_module(snapshot, PACKAGE)
        del snapshot
        result["mem"] = by_module
        result["live_atoms"] = sum(site.replica.live_count for site in rec.sites)
    if tracer is not None:
        result["traced_wall_s"] = tracer.close_root()

    workload.verify(rec)
    rec.counts["ops"] = rec.ops
    rec.counts["pauses"] = len(rec.pauses)

    if tracer is not None:
        table, broken = tracer.aggregate()
        result["layers"] = table
        result["broken_spans"] = broken
        result["counters"] = tracer.counters
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans")
    result.update(
        mode=args.mode,
        seed=args.seed,
        setup_s=import_s + (t_ready - t_prepare),
        prepare_s=t_ready - t_prepare,
        run_s=t_end - t_run,
        laps=rec.laps,
        ops=rec.ops,
        failures=rec.failures,
        counts=rec.counts,
        extras=rec.extras,
        gc=gcw.report(),
    )
    if args.mode == "timed":
        result["lat"] = rec.lat
        result["pauses"] = rec.pauses
        result["kernel"] = rec.kernel
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
