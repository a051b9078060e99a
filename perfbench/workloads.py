"""The benchmark's workloads: inputs from a seed, a closed timed loop, an oracle.

Every workload drives treedoc's public API from one loop with no threads.
The loop is closed: the next edit is issued only after the previous call has
returned. A workload runs in three steps, which ``rep.py`` calls in order:

``generate(rec)``
    Untimed: make the inputs from the seed and install the benchmark's own
    timing hooks. This is the harness's work, not treedoc's.
``prepare(rec)``
    Set-up: treedoc's work to get ready, such as building the initial
    state. Timed; ``setup_s`` is this plus the import of treedoc.
``execute(rec)``
    The timed region. Appends per-edit latencies to ``rec.lat`` and
    restructuring pauses to ``rec.pauses``, calls ``rec.lap()`` at its start,
    its end and between equal units of work, and sets ``rec.ops``.
``verify(rec)``
    Untimed. Runs the oracle (each mismatch goes to ``rec.fail``) and fills
    ``rec.counts`` with the values that must repeat exactly for a seed.

Sizes are fixed per repetition, never derived from the clock, so a seed
always produces the same operations and the same counts.
"""

from __future__ import annotations

import bisect
import itertools
import os
import time
from pathlib import Path
from random import Random

from probes import kernel_s
from treedoc import protocol, sim, trace
from treedoc.protocol import DeliverResult, Operation, OpKind, Role, Site
from treedoc.tid import TID

clock = time.perf_counter

DELETE_RATIO = 0.3


class Recorder:
    """What one repetition measured and checked.

    With ``calibrate``, every ``lap()`` also times ``probes.kernel_s`` in the
    gap between two units of work, so that the kernel samples the host's
    speed all through the timed region without being part of any lap.
    """

    def __init__(self, calibrate: bool = False) -> None:
        self.ops = 0
        self.lat: list[float] = []  # seconds per local edit (Site.submit_local)
        self.pauses: list[float] = []  # seconds per restructuring pause
        self.laps: list[float] = []  # seconds per unit of work, see lap()
        self.kernel: list[float] = []  # kernel_s() readings between laps
        self._calibrate = calibrate
        self._lap_start: float | None = None
        self.failures: list[str] = []
        self.counts: dict[str, object] = {}  # must repeat exactly for a seed
        self.extras: dict[str, float] = {}  # reported, not gated
        self.sites: list[Site] = []  # every replica, for the memory pass
        self.tid_bytes: list[float] = []  # overhead samples, see sample()
        self.tomb_frac: list[float] = []

    def lap(self) -> None:
        now = clock()
        if self._lap_start is not None:
            self.laps.append(now - self._lap_start)
        if self._calibrate:
            self.kernel.append(kernel_s())
        self._lap_start = clock()

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def sample(self, doc) -> None:
        """Record the paper's overhead metrics for one replica state."""
        nodes = doc.node_count
        if nodes:
            self.tid_bytes.append(doc.mean_tid_encoded_bytes())
            self.tomb_frac.append(doc.tombstone_count / nodes)

    def finish_samples(self) -> None:
        if not self.tid_bytes:
            self.fail("no overhead samples were taken")
            return
        self.counts["mean_tid_bytes"] = sum(self.tid_bytes) / len(self.tid_bytes)
        self.counts["tombstone_fraction"] = sum(self.tomb_frac) / len(self.tomb_frac)

    def replica_counts(self, doc) -> None:
        stats = doc.stats()
        self.counts["core.nodes"] = stats.live_count + stats.tombstone_count
        self.counts["core.max_depth"] = stats.max_depth
        if not doc.counters_consistent():
            self.fail("incremental counters disagree with a full recount")


def _timed(fn, sink: list[float]):
    """Wrap ``fn`` so that each call's duration is appended to ``sink``."""

    def wrapper(*args, **kwargs):
        started = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(clock() - started)

    return wrapper


class Workload:
    """A seed, a directory for scratch files, and how ``run.py`` sizes a run.

    ``REP_S`` is the nominal wall time of one repetition, interpreter start
    to exit, on a shared 2-vCPU Xeon host at 2.1 GHz; ``run.py`` turns
    ``--seconds`` into a number of input seeds with it, so the count never
    depends on how fast the code under test runs. ``MIN_SEEDS`` is the
    fewest seeds a run needs: for enough samples beyond the reported
    percentiles, or for enough timed work.
    """

    MIN_SEEDS = 2
    REP_S = 2.5

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def generate(self, rec: Recorder) -> None:
        pass

    def prepare(self, rec: Recorder) -> None:
        pass


class RandomEdit(Workload):
    """One core site, uniform-random positions, a flatten every 1000 ops.

    Pause: one ``initiate_flatten`` commit round. Oracle: every edit is
    replayed on a plain list after the loop and the texts must match.
    """

    OPS = 25_000
    FLATTEN_EVERY = 1000
    SAMPLE_EVERY = 100
    LAP_EVERY = 250
    MIN_SEEDS = 4  # 25 pauses each; pause p90 needs 100
    REP_S = 2.6

    def generate(self, rec: Recorder) -> None:
        rng = Random(f"random-edit:{self.seed}")
        script: list[tuple[int, bytes | None]] = []
        live = 0
        for i in range(self.OPS):
            if live and rng.random() < DELETE_RATIO:
                script.append((rng.randrange(live), None))
                live -= 1
            else:
                script.append((rng.randint(0, live), b"%d;" % i))
                live += 1
        self.script = script

    def prepare(self, rec: Recorder) -> None:
        self.site = Site(b"re", Role.CORE)
        rec.sites = [self.site]

    def execute(self, rec: Recorder) -> None:
        site = self.site
        submit = site.submit_local
        lat = rec.lat
        rec.lap()
        for i, (pos, atom) in enumerate(self.script, 1):
            if atom is None:
                started = clock()
                submit(OpKind.DELETE, position=pos)
            else:
                started = clock()
                submit(OpKind.INSERT, position=pos, atom=atom)
            lat.append(clock() - started)
            site.outbox.clear()
            if i % self.SAMPLE_EVERY == 0:
                rec.sample(site.replica)
            if i % self.FLATTEN_EVERY == 0:
                started = clock()
                outcome = protocol.initiate_flatten(site, [site])
                rec.pauses.append(clock() - started)
                if not outcome.committed:
                    rec.fail(f"flatten after op {i} aborted: {outcome.reason}")
            if i % self.LAP_EVERY == 0:
                rec.lap()
        rec.ops = len(self.script)

    def verify(self, rec: Recorder) -> None:
        oracle: list[bytes] = []
        for pos, atom in self.script:
            if atom is None:
                del oracle[pos]
            else:
                oracle.insert(pos, atom)
        if b"".join(self.site.replica.atoms()) != b"".join(oracle):
            rec.fail("final text differs from the list oracle")
        rec.replica_counts(self.site.replica)
        rec.finish_samples()


class TypingReplay(Workload):
    """Typed revision histories, diffed at word granularity and replayed.

    A repetition holds ``DOCUMENTS`` independent documents. Words come from a
    Zipf vocabulary and are typed in bursts at a cursor that mostly stays
    put, with periodic jumps, backspace runs and deleted phrases. Set-up
    ingests each history: ``events_from_revisions`` plus a trace-file round
    trip. The timed region is ``trace.replay`` of every document at 2 sites,
    flattening every ``FLATTEN_EVERY`` revisions. Pause: one member's
    flatten commit (``Site._commit_flatten``); real members commit at the
    same time, while replay runs them one after another.
    """

    DOCUMENTS = 6
    REVISIONS = 120  # per document
    VOCAB = 3000
    SITES = 2
    FLATTEN_EVERY = 10  # revisions
    REP_S = 1.8
    # A repetition times only about 0.6 s of replay; its set-up (the diff)
    # takes longer. More seeds give a run more timed work.
    MIN_SEEDS = 6

    def revisions(self, document: int) -> list[str]:
        rng = Random(f"typing-replay:{self.seed}:{document}")
        letters = "etaoinshrdlucmfwypvbgkjqxz"
        vocab = [
            "".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
            for _ in range(self.VOCAB)
        ]
        weights = list(itertools.accumulate(1.0 / (k + 1) for k in range(self.VOCAB)))
        total = weights[-1]

        def token() -> str:
            word = vocab[bisect.bisect(weights, rng.random() * total)]
            return word + ("\n" if rng.random() < 0.05 else " ")

        # The schedule of actions is fixed, so that seeds differ in words and
        # positions but not in how much is typed or deleted.
        doc: list[str] = []
        cursor = 0
        revs: list[str] = []
        for r in range(self.REVISIONS):
            if r % 10 == 9:
                cursor = rng.randint(0, len(doc))
            if r % 20 == 14:
                start = rng.randrange(len(doc) - 6)  # select a phrase, delete it
                del doc[start : start + 6]
                cursor = start
            if r % 4 == 3 and cursor >= 3:
                del doc[cursor - 3 : cursor]
                cursor -= 3
            else:
                burst = [token() for _ in range(6 + r % 5)]
                doc[cursor:cursor] = burst
                cursor += len(burst)
            revs.append("".join(doc))
        return revs

    def generate(self, rec: Recorder) -> None:
        self.histories = [self.revisions(document) for document in range(self.DOCUMENTS)]
        self.finals = [revs[-1] for revs in self.histories]
        # replay() builds its sites internally; keep them for the oracle.
        self.sites: list[Site] = []
        sites = self.sites

        def site_factory(*args, **kwargs):
            site = Site(*args, **kwargs)
            sites.append(site)
            return site

        trace.Site = site_factory
        Site._commit_flatten = _timed(Site._commit_flatten, rec.pauses)

    def prepare(self, rec: Recorder) -> None:
        self.traces = []
        self.round_trip_ok = True
        diff_s = 0.0
        for revs in self.histories:
            started = clock()
            events = trace.events_from_revisions(revs, trace.Granularity.WORD)
            diff_s += clock() - started
            path = self.out_dir / f"typing-replay-{os.getpid()}.trace"
            try:
                trace.write_trace(events, path)
                self.traces.append(trace.read_trace(path))
            finally:
                path.unlink(missing_ok=True)
            self.round_trip_ok &= self.traces[-1] == events
        rec.extras["ingest_events_per_s"] = sum(map(len, self.traces)) / diff_s
        rec.sites = self.sites

    def execute(self, rec: Recorder) -> None:
        self.rows = []
        rec.lap()
        for events in self.traces:
            self.rows.append(
                trace.replay(events, flatten_interval=self.FLATTEN_EVERY, site_count=self.SITES)
            )
            rec.lap()
        rec.ops = sum(map(len, self.rows))

    def verify(self, rec: Recorder) -> None:
        if not self.round_trip_ok:
            rec.fail("write_trace/read_trace round trip changed the events")
        if len(rec.sites) != self.SITES * self.DOCUMENTS:
            rec.fail(f"replay built {len(rec.sites)} sites, expected {self.SITES * self.DOCUMENTS}")
        for i, site in enumerate(rec.sites):
            if site.replica.text() != self.finals[i // self.SITES]:
                rec.fail(f"site {site.id!r} text differs from its last revision")
        for rows in self.rows:
            for row in rows:
                rec.lat.append(row.op_duration)
                rec.tid_bytes.append(row.mean_tid_encoded_bytes)
                rec.tomb_frac.append(row.tombstone_fraction)
        self.rows = None
        rec.counts["trace.events"] = sum(map(len, self.traces))
        rec.replica_counts(rec.sites[0].replica)
        rec.finish_samples()


class ClusterSim(Workload):
    """``sim`` with 4 core and 3 nebula sites under duplication and retries.

    Pause: one core member's flatten commit (``Site._commit_flatten``);
    real members commit at the same time, while the simulator runs them one
    after another in one process. Edit latency: ``Site.submit_local`` as the
    simulator calls it. Oracle: convergence and equal text at every site.
    """

    OPS = 3000
    LAP_EVERY = 100  # local edits

    def generate(self, rec: Recorder) -> None:
        self.config = sim.SimConfig(
            seed=self.seed,
            core_count=4,
            nebula_count=3,
            op_count=self.OPS,
            delete_ratio=DELETE_RATIO,
            duplicate_prob=0.1,
            drop_retry_prob=0.05,
            flatten_interval=200,
        )
        Site._commit_flatten = _timed(Site._commit_flatten, rec.pauses)
        submit = _timed(Site.submit_local, rec.lat)
        calls = itertools.count()
        every = self.LAP_EVERY

        def submit_local(*args, **kwargs):
            if next(calls) % every == 0:
                rec.lap()
            return submit(*args, **kwargs)

        Site.submit_local = submit_local

    def execute(self, rec: Recorder) -> None:
        rec.lap()
        self.result = sim.run(self.config)
        rec.lap()
        rec.ops = self.config.op_count
        rec.sites = self.result.sites

    def verify(self, rec: Recorder) -> None:
        result = self.result
        if not result.converged:
            rec.fail(f"simulation did not converge: {result.diff}")
        texts = {b"".join(site.replica.atoms()) for site in result.sites}
        if len(texts) != 1:
            rec.fail(f"sites hold {len(texts)} different texts")
        kinds: dict[str, int] = {}
        for _, _, kind, _ in result.event_log:
            kinds[kind] = kinds.get(kind, 0) + 1
        rec.counts["sim.events"] = len(result.event_log)
        rec.counts["sim.messages"] = sum(
            n for kind, n in kinds.items() if kind.startswith("recv_")
        )
        for kind in ("recv_applied", "recv_buffered", "recv_duplicate", "recv_wrong_epoch"):
            rec.counts[f"sim.{kind}"] = kinds.get(kind, 0)
        rec.counts["sim.flatten_commits"] = kinds.get("flatten_commit", 0)
        rec.counts["sim.final_digest"] = result.final_digest
        for _, nodes, tombs, mean, _ in result.metrics:
            if nodes:
                rec.tid_bytes.append(mean)
                rec.tomb_frac.append(tombs / nodes)
        rec.replica_counts(result.sites[0].replica)
        rec.finish_samples()


class NebulaRejoin(Workload):
    """One core and 3 nebula sites; the core flattens alone each round.

    A round: every site makes ``SYNCED`` edits that reach everyone (the core
    relays nebula edits), then ``LOCAL`` more edits of which only the core's
    reach the others. The core flattens alone; each nebula then runs
    ``maybe_catch_up`` and its emitted batch is delivered to the core and
    the other nebulas. Every delivered operation crosses in wire form, its
    TID encoded by the sender and decoded by the receiver. Pause: one
    nebula's ``maybe_catch_up``.

    Oracle: every round, each nebula emits exactly its edits the core had
    not seen (a local delete of a node the core had itself tombstoned by
    the flatten is redundant and emits nothing, as the catch-up translation
    specifies); at the end all replicas hold equal text in one epoch.
    """

    PRELOAD = 1000
    ROUNDS = 12
    SYNCED = 20
    LOCAL = 20
    NEBULAS = 3
    # 36 pauses each, and pause p90 needs 100. More than that: edit p99 is
    # set by which edits a GC collection lands in, which varies by input.
    MIN_SEEDS = 7

    def generate(self, rec: Recorder) -> None:
        self.rng = Random(f"nebula-rejoin:{self.seed}")
        # Preload positions: the document holds i atoms before insert i.
        self.preload = [self.rng.randint(0, i) for i in range(self.PRELOAD)]

    def prepare(self, rec: Recorder) -> None:
        self.core = Site(b"core", Role.CORE)
        self.nebulas = [Site(b"neb%d" % i, Role.NEBULA) for i in range(self.NEBULAS)]
        rec.sites = [self.core, *self.nebulas]
        self.outcomes: dict[str, int] = {}
        self.emitted = 0
        for i, pos in enumerate(self.preload):
            op = self.core.submit_local(OpKind.INSERT, position=pos, atom=b"p%d;" % i)
            self.core.outbox.clear()
            wire = self._wire(op)
            for nb in self.nebulas:
                self._deliver(nb, wire)
        self._epoch_change(rec, None)
        self.outcomes.clear()
        self.emitted = 0
        rec.pauses.clear()
        rec.tid_bytes.clear()
        rec.tomb_frac.clear()

    @staticmethod
    def _wire(op: Operation) -> tuple:
        """An operation as it crosses the network: its TID wire-encoded."""
        return (op.epoch, op.kind, op.tid.encode(), op.atom, op.origin, op.origin_seq)

    def _deliver(self, site: Site, wire: tuple) -> None:
        epoch, kind, tid, atom, origin, seq = wire
        op = Operation(epoch, kind, TID.decode(tid), atom, origin, seq)
        result = site.deliver(op).value
        self.outcomes[result] = self.outcomes.get(result, 0) + 1

    def _edit(self, rec: Recorder, site: Site) -> Operation:
        live = site.replica.live_count
        if live and self.rng.random() < DELETE_RATIO:
            pos = self.rng.randrange(live)
            started = clock()
            op = site.submit_local(OpKind.DELETE, position=pos)
        else:
            pos = self.rng.randint(0, live)
            atom = b"%s%d;" % (site.id, site.next_seq)
            started = clock()
            op = site.submit_local(OpKind.INSERT, position=pos, atom=atom)
        rec.lat.append(clock() - started)
        site.outbox.clear()
        rec.ops += 1
        return op

    def _epoch_change(self, rec: Recorder, local: dict[bytes, list] | None) -> None:
        core = self.core
        expected = {}
        for nb in self.nebulas:
            # What the catch-up must emit: every unseen edit, except a delete
            # whose target the core already tombstoned.
            count = 0
            for op in (local or {}).get(nb.id, ()):
                if op.kind is OpKind.DELETE:
                    node = core.replica.find(op.tid)
                    if node is not None and node.tombstone:
                        continue
                count += 1
            expected[nb.id] = count
        rec.sample(core.replica)
        outcome = protocol.initiate_flatten(core, [core])
        if not outcome.committed:
            rec.fail(f"core flatten aborted: {outcome.reason}")
            return
        core.take_delivered()
        for nb in self.nebulas:
            nb.receive_decision(outcome.announcement)
        for nb in self.nebulas:
            started = clock()
            batch = nb.maybe_catch_up()
            rec.pauses.append(clock() - started)
            nb.take_delivered()
            self.emitted += len(batch)
            if len(batch) != expected[nb.id]:
                rec.fail(
                    f"{nb.id!r} emitted {len(batch)} ops, expected {expected[nb.id]}"
                )
            for op in batch:
                wire = self._wire(op)
                self._deliver(core, wire)
                for other in self.nebulas:
                    if other is not nb:
                        self._deliver(other, wire)
            core.take_delivered()

    def execute(self, rec: Recorder) -> None:
        core, nebulas = self.core, self.nebulas
        rec.lap()
        for _ in range(self.ROUNDS):
            for _ in range(self.SYNCED):
                wire = self._wire(self._edit(rec, core))
                for nb in nebulas:
                    self._deliver(nb, wire)
                for nb in nebulas:
                    wire = self._wire(self._edit(rec, nb))
                    self._deliver(core, wire)
                    for other in nebulas:
                        if other is not nb:
                            self._deliver(other, wire)
                    core.take_delivered()
            local: dict[bytes, list] = {nb.id: [] for nb in nebulas}
            for _ in range(self.LOCAL):
                wire = self._wire(self._edit(rec, core))
                for nb in nebulas:
                    self._deliver(nb, wire)
                for nb in nebulas:
                    local[nb.id].append(self._edit(rec, nb))
            self._epoch_change(rec, local)
            rec.lap()

    def verify(self, rec: Recorder) -> None:
        text = self.core.replica.text()
        for nb in self.nebulas:
            if nb.replica.text() != text:
                rec.fail(f"{nb.id!r} text differs from the core's")
        epochs = {site.replica.epoch for site in rec.sites}
        if len(epochs) != 1:
            rec.fail(f"replicas end in epochs {sorted(epochs)}")
        for kind in DeliverResult:
            rec.counts[f"deliver.{kind.value}"] = self.outcomes.get(kind.value, 0)
        rec.counts["catchup.emitted_ops"] = self.emitted
        rec.replica_counts(self.core.replica)
        rec.finish_samples()


WORKLOADS = {
    "random-edit": RandomEdit,
    "typing-replay": TypingReplay,
    "cluster-sim": ClusterSim,
    "nebula-rejoin": NebulaRejoin,
}
