"""Instrumentation installed from the benchmark's side of the API.

* ``Tracer`` wraps treedoc's entry points in spans. Each name is patched
  where its caller looks it up, so a function imported by name into another
  module is wrapped there too, and can carry a different span name there.
  Spans (name, start, end, parent) are kept in flat arrays in memory and
  written out at exit. A span's self time is its duration minus the part
  of it that its child spans cover. ``Tracer.aggregate`` also reports the
  spans whose accounting cannot be right: a child that reaches outside its
  parent, and a negative self time.
* ``GcWatch`` accounts collections and pause time through ``gc.callbacks``.
  GC stays enabled at the interpreter's default thresholds.
* ``memory_by_module`` attributes the bytes that ``tracemalloc`` still
  traces to the treedoc module that allocated them.
* ``kernel_s`` times a fixed piece of Python work that shares no code with
  treedoc, to follow the host's speed during a timed repetition.

Which end-to-end metric each layer should move, and on which workload (a
change to a layer that moves none of these does not show end to end):

=================  ===========================================================
tid                op_p50_us on typing-replay
core               op_p50_us, op_p99_us, ops_per_s on typing-replay; less so
                   on random-edit
flatten            pause_* and ops_per_s on random-edit; pause_* on
                   typing-replay and cluster-sim, not their ops_per_s
protocol           deliver, drain: ops_per_s on cluster-sim;
                   catchup.*: pause_* and ops_per_s on nebula-rejoin;
                   vote, commit: pause_* on random-edit
sim                ops_per_s on cluster-sim only
trace              diff, io: setup_s on typing-replay only
gc                 ops_per_s and pause_* on random-edit
*.mem_bytes        mem_bytes_per_live_atom on random-edit
=================  ===========================================================
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

clock = time.perf_counter

# Span name -> the attributes that carry it, as "module:qualified.name".
# A generator (walk, iter_nodes) gets one span from its first item to its
# end; its self time counts only the time spent inside the generator, so the
# consumer's loop body between items stays with the consumer. Each stretch
# inside the generator is covered time of the span that resumed it, which
# need not be the span that started it.
SPANS: dict[str, tuple[str, ...]] = {
    "tid.encoded_size": ("treedoc.tid:TID.encoded_size",),
    "tid.encode": ("treedoc.tid:TID.encode",),
    "tid.decode": ("treedoc.tid:TID.decode",),
    "tid.compare": (
        "treedoc.tid:TID.__lt__",
        "treedoc.tid:TID.__le__",
        "treedoc.tid:TID.__gt__",
        "treedoc.tid:TID.__ge__",
        "treedoc.tid:compare_tid",
    ),
    "core.alloc": (
        "treedoc.core:Treedoc.alloc_tid_at_position",
        "treedoc.core:Treedoc.alloc_tid_after",
    ),
    "core.index": ("treedoc.core:Treedoc.tid_of_live_index",),
    "core.insert": ("treedoc.core:Treedoc.insert",),
    "core.delete": ("treedoc.core:Treedoc.delete",),
    "core.resolve": (
        "treedoc.core:Treedoc._resolve",
        "treedoc.core:Treedoc.ancestors_exist",
    ),
    "core.traverse": (
        "treedoc.core:Treedoc.walk",
        "treedoc.core:Treedoc.iter_nodes",
        "treedoc.core:Treedoc.atoms",
        "treedoc.core:Treedoc.stats",
        "treedoc.core:Treedoc.recompute_counters",
    ),
    "core.digest": ("treedoc.core:Treedoc.state_digest",),
    # flatten_for_commit is left with live_entries inlined, so its self
    # time is the collect step; build and digest are child spans.
    "flatten.collect": ("treedoc.protocol:flatten_for_commit",),
    "flatten.build": ("treedoc.flatten:build_balanced",),
    "flatten.digest": ("treedoc.flatten:flat_digest",),
    "protocol.submit": ("treedoc.protocol:Site.submit_local",),
    "protocol.deliver": ("treedoc.protocol:Site.deliver",),
    "protocol.drain": (
        "treedoc.protocol:Site._drain_pending",
        "treedoc.protocol:Site._drain_epoch_buffer",
    ),
    "protocol.vote": ("treedoc.protocol:Site.vote_on_prepare",),
    "protocol.commit": (
        "treedoc.protocol:initiate_flatten",
        "treedoc.sim:initiate_flatten",
        "treedoc.trace:initiate_flatten",
        "treedoc.protocol:Site._commit_flatten",
    ),
    "protocol.catchup.color": ("treedoc.protocol:Site.mark_colors",),
    "protocol.catchup.collect": ("treedoc.protocol:Site._collect_catch_up",),
    # catch_up looks build_balanced up in protocol: that is its rebuild.
    "protocol.catchup.rebuild": ("treedoc.protocol:build_balanced",),
    "protocol.catchup.emit": (
        "treedoc.protocol:Site.catch_up",
        "treedoc.protocol:Site.maybe_catch_up",
    ),
    "protocol.ids_digest": ("treedoc.protocol:ids_digest",),
    "sim.run": ("treedoc.sim:Network.run",),
    "sim.log": ("treedoc.sim:Network._log",),
    "sim.convergence": ("treedoc.sim:check_convergence",),
    "trace.diff": ("treedoc.trace:diff_to_ops",),
    "trace.io": ("treedoc.trace:write_trace", "treedoc.trace:read_trace"),
    "trace.replay": ("treedoc.trace:replay",),
}

GC_SPAN = "gc"
BENCH_SPAN = "bench"

# Counts taken at the same boundaries as the spans.
COUNTERS = (
    "protocol.deliver.applied",
    "protocol.deliver.buffered",
    "protocol.deliver.duplicate",
    "protocol.deliver.wrong_epoch",
    "protocol.flatten.commits",
    "protocol.flatten.aborts",
    "protocol.catchup.emitted_ops",
    "protocol.pending.max",
    "flatten.atoms_rebuilt",
)


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder over patched entry points."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")  # time inside a generator span; -1 otherwise
        self.cover = array("d")  # time of generator stretches this span resumed
        self.stack: list[int] = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._root = -1
        self._last = 0

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, nid: int, busy: float = -1.0) -> int:
        idx = len(self.end)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.busy.append(busy)
        self.cover.append(0.0)
        self.start.append(clock())
        return idx

    def _wrap(self, fn, nid: int, post=None):
        name_append = self.name_of.append
        parent_append = self.parent.append
        start_append = self.start.append
        end_append = self.end.append
        busy_append = self.busy.append
        cover_append = self.cover.append
        ends = self.end
        stack = self.stack
        push = stack.append
        pop = stack.pop

        def wrapper(*args, **kwargs):
            idx = len(ends)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            busy_append(-1.0)
            cover_append(0.0)
            push(idx)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(args, result)
                return result
            finally:
                ends[idx] = clock()
                pop()

        return wrapper

    def _wrap_gen(self, fn, nid: int):
        tracer = self
        stack = self.stack
        cover = self.cover

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            idx = tracer._open(nid, 0.0)
            busy = 0.0
            try:
                while True:
                    resumer = stack[-1]
                    stack.append(idx)
                    resumed = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        stretch = clock() - resumed
                        busy += stretch
                        stack.pop()
                        if resumer >= 0:
                            cover[resumer] += stretch
                    yield item
            finally:
                tracer.busy[idx] = busy
                tracer.end[idx] = clock()

        return wrapper

    def _post_hooks(self) -> dict[str, object]:
        counters = self.counters

        def deliver(args, result):
            counters[f"protocol.deliver.{result.value}"] += 1
            pending = len(args[0].pending)
            if pending > counters["protocol.pending.max"]:
                counters["protocol.pending.max"] = pending

        def flatten_round(args, outcome):
            key = "commits" if outcome.committed else "aborts"
            counters[f"protocol.flatten.{key}"] += 1

        def emitted(args, batch):
            counters["protocol.catchup.emitted_ops"] += len(batch)

        def rebuilt(args, doc):
            counters["flatten.atoms_rebuilt"] += len(args[0])

        return {
            "treedoc.protocol:Site.deliver": deliver,
            "treedoc.protocol:initiate_flatten": flatten_round,
            "treedoc.sim:initiate_flatten": flatten_round,
            "treedoc.trace:initiate_flatten": flatten_round,
            "treedoc.protocol:Site.maybe_catch_up": emitted,
            "treedoc.flatten:build_balanced": rebuilt,
        }

    def install(self) -> None:
        posts = self._post_hooks()
        for name, targets in SPANS.items():
            nid = self._name_id(name)
            for target in targets:
                owner, attr = _resolve(target)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(raw.__func__, nid)))
                elif inspect.isgeneratorfunction(raw):
                    setattr(owner, attr, self._wrap_gen(raw, nid))
                else:
                    setattr(owner, attr, self._wrap(raw, nid, posts.get(target)))
        self._gc_id = self._name_id(GC_SPAN)
        self._bench_id = self._name_id(BENCH_SPAN)

    def gc_span(self, started: float, ended: float) -> None:
        """Record a collection as a leaf span under whatever was running."""
        self.name_of.append(self._gc_id)
        self.parent.append(self.stack[-1])
        self.busy.append(-1.0)
        self.cover.append(0.0)
        self.start.append(started)
        self.end.append(ended)

    def open_root(self) -> None:
        self._root = self._open(self._bench_id)
        self.stack.append(self._root)

    def close_root(self) -> float:
        self.end[self._root] = clock()
        self.stack.pop()
        self._last = len(self.end)
        return self.end[self._root] - self.start[self._root]

    def aggregate(self) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
        """Calls and self seconds per span name, over the root's spans.

        Also counts the spans that break the accounting: ``clipped``, a
        child span that starts before or ends after its parent (for a
        generator, one that is unfinished or ran past the root), and
        ``negative``, a span whose children cover more than its duration.
        When both are 0 the self times add up to the root's duration, and
        the root's own self time is the time no layer accounts for.
        """
        first, last = self._root, self._last
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        busy = self.busy
        covered = list(self.cover[first:last])
        clipped = 0
        for i in range(first + 1, last):
            if busy[i] >= 0.0:
                # A generator: its resumers hold its time in cover. It must
                # have finished, and within the root.
                if end[i] < start[i] or end[i] > end[first]:
                    clipped += 1
                continue
            p = parent[i]
            if p < first:  # started under a generator that began before the root
                clipped += 1
                continue
            if start[i] < start[p] or end[i] > end[p]:
                clipped += 1
            covered[p - first] += end[i] - start[i]
        table = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        negative = 0
        for i in range(first, last):
            span = busy[i] if busy[i] >= 0.0 else end[i] - start[i]
            own = span - covered[i - first]
            if own < -1e-9:
                negative += 1
            row = table[self.names[name_of[i]]]
            row["calls"] += 1
            row["self_s"] += own
        return table, {"clipped": clipped, "negative": negative}

    def dump(self, path: Path) -> None:
        """Write the root's spans: a JSON header line, then raw columns."""
        first, last = self._root, self._last
        header = {
            "names": self.names,
            "count": last - first,
            "columns": ["name:i4", "parent:i4", "start:f8", "end:f8", "busy:f8", "cover:f8"],
            "clock": "time.perf_counter seconds",
            "busy": "seconds inside a generator span, -1 for other spans",
            "cover": "seconds inside generator spans that this span resumed",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (
                self.name_of, self.parent, self.start, self.end, self.busy, self.cover
            ):
                column[first:last].tofile(fh)


class GcWatch:
    """Collections per generation and total pause, via ``gc.callbacks``."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.active = False
        self.pause_s = 0.0
        self.collections = [0, 0, 0]
        self._started = 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = clock()
            return
        ended = clock()
        if self.tracer is not None:
            self.tracer.gc_span(self._started, ended)
        if self.active:
            self.pause_s += ended - self._started
            self.collections[info["generation"]] += 1

    def report(self) -> dict[str, float]:
        return {
            "gc.pause_s": self.pause_s,
            "gc.collections.gen0": self.collections[0],
            "gc.collections.gen1": self.collections[1],
            "gc.collections.gen2": self.collections[2],
        }


class _KernelNode:
    __slots__ = ("key", "left", "right", "size", "atom")

    def __init__(self, key: int, atom: bytes) -> None:
        self.key = key
        self.left = None
        self.right = None
        self.size = 1
        self.atom = atom


def _kernel_atoms(node):
    stack = []
    while stack or node is not None:
        while node is not None:
            stack.append(node)
            node = node.left
        node = stack.pop()
        yield node.atom
        node = node.right


def kernel_s(nodes: int = 1200) -> float:
    """Seconds to build, walk and drop a random binary tree of small objects.

    The work resembles treedoc's (slotted nodes, size counters updated on
    the way down, a generator walk, short ``bytes`` atoms) but shares no
    code with it, so a change to treedoc never changes this time; only the
    host's speed does. GC is off while it runs and every object it makes is
    freed before it returns, so it leaves the collector's schedule as it was.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        x = 7
        root = _KernelNode(1 << 30, b"r")
        for i in range(nodes):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            node = root
            while True:
                node.size += 1
                if x < node.key:
                    if node.left is None:
                        node.left = _KernelNode(x, b"%d;" % i)
                        break
                    node = node.left
                else:
                    if node.right is None:
                        node.right = _KernelNode(x, b"%d;" % i)
                        break
                    node = node.right
        b"".join(_kernel_atoms(root))
        del root
        return clock() - started
    finally:
        if enabled:
            gc.enable()


MEMORY_MODULES = ("tid", "core", "flatten", "protocol", "sim", "trace")


def memory_by_module(snapshot, package_dir: Path) -> dict[str, int]:
    """Traced bytes per treedoc module that allocated them (innermost frame).

    Generated code has no module file: a namedtuple's ``__new__`` runs as
    ``<string>``. The only one on treedoc's paths that keeps its result is
    ``PathElement``'s, so those bytes count as ``tid``. Blocks from other
    files (the benchmark's own inputs, such as atom payloads) are not
    counted.
    """
    prefix = str(package_dir) + "/"
    out = dict.fromkeys(MEMORY_MODULES, 0)
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename
        if filename == "<string>":
            out["tid"] += stat.size
        elif filename.startswith(prefix):
            module = filename[len(prefix) :].removesuffix(".py")
            if module in out:
                out[module] += stat.size
    return out
