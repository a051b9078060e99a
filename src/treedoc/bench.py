"""Synthetic single-site workload for throughput and latency numbers."""

from __future__ import annotations

import gc
import time
from random import Random
from typing import NamedTuple

from .errors import InvariantViolation
from .protocol import OpKind, Role, Site, initiate_flatten

DELETE_RATIO = 0.3  # share of edits that delete, while anything is live


class BenchResult(NamedTuple):
    op_count: int
    wall_seconds: float
    ops_per_sec: float
    max_op_seconds: float
    p999_op_seconds: float
    mean_op_seconds: float
    flatten_count: int
    max_flatten_seconds: float
    final_live: int
    final_nodes: int
    final_depth: int

    def summary(self) -> str:
        lines = [
            f"ops               {self.op_count}",
            f"wall time         {self.wall_seconds:.3f} s (flattens included)",
            f"throughput        {self.ops_per_sec:,.0f} ops/sec",
            f"max op latency    {self.max_op_seconds * 1e6:.1f} us"
            f" (p99.9 {self.p999_op_seconds * 1e6:.1f} us)",
            f"mean op latency   {self.mean_op_seconds * 1e6:.2f} us",
            f"flattens          {self.flatten_count}"
            + (
                f" (slowest {self.max_flatten_seconds * 1e3:.1f} ms)"
                if self.flatten_count
                else ""
            ),
            f"final tree        {self.final_nodes} nodes, {self.final_live} live,"
            f" depth {self.final_depth}",
        ]
        return "\n".join(lines)


def run_bench(
    op_count: int,
    flatten_every: int = 0,
    seed: int = 0,
) -> BenchResult:
    """Run ``op_count`` random edits, flattening every ``flatten_every`` ops.

    Per-op latency covers the update operations only; flatten pauses are
    timed separately and counted in the wall clock.
    """
    if op_count < 0 or flatten_every < 0:
        raise ValueError("op_count and flatten_every must be non-negative")
    site = Site(b"bench", Role.CORE)
    rng = Random(seed)
    durations = [0.0] * op_count
    max_flatten = 0.0
    flattens = 0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        wall_start = time.perf_counter()
        for i in range(op_count):
            live = site.replica.live_count
            if live > 0 and rng.random() < DELETE_RATIO:
                kind, pos, atom = OpKind.DELETE, rng.randrange(live), None
            else:
                kind, pos, atom = (
                    OpKind.INSERT,
                    rng.randint(0, live),
                    b"%d;" % i,
                )
            started = time.perf_counter()
            if kind is OpKind.INSERT:
                site.submit_local(kind, position=pos, atom=atom)
            else:
                site.submit_local(kind, position=pos)
            durations[i] = time.perf_counter() - started
            site.outbox.clear()
            if flatten_every > 0 and (i + 1) % flatten_every == 0:
                f_start = time.perf_counter()
                outcome = initiate_flatten(site, [site])
                f_elapsed = time.perf_counter() - f_start
                if not outcome.committed:
                    raise InvariantViolation(
                        f"single-site flatten after op {i} aborted: {outcome.reason}"
                    )
                flattens += 1
                if f_elapsed > max_flatten:
                    max_flatten = f_elapsed
        wall = time.perf_counter() - wall_start
    finally:
        if gc_was_enabled:
            gc.enable()
    stats = site.replica.stats()
    ordered = sorted(durations)
    p999 = ordered[min(op_count - 1, int(op_count * 0.999))] if op_count else 0.0
    return BenchResult(
        op_count=op_count,
        wall_seconds=wall,
        ops_per_sec=op_count / wall if wall > 0 else float("inf"),
        max_op_seconds=ordered[-1] if ordered else 0.0,
        p999_op_seconds=p999,
        mean_op_seconds=sum(durations) / op_count if op_count else 0.0,
        flatten_count=flattens,
        max_flatten_seconds=max_flatten,
        final_live=stats.live_count,
        final_nodes=stats.live_count + stats.tombstone_count,
        final_depth=stats.max_depth,
    )
