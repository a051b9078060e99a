"""Deterministic discrete-event simulator for multi-site runs.

Time is integer ticks with a single global queue ordered by (tick, seq);
every random draw comes from one seeded generator, so a (seed, config)
pair reproduces the event log bit for bit. The transport delays, may
duplicate, and may "lose then retransmit" messages (modelled as extra
delay), but always delivers eventually: that is the reliable-broadcast
contract the convergence argument needs. Reordering is legal because
causal readiness is enforced at delivery, not by the transport.

Topology: a site in the core gossips with everyone; a nebula site
exchanges operations with core sites only. Each nebula site has a home
core site (nebula k's is core k mod ``core_count``), and only that site
relays the nebula's ops to the other nebula sites, however they reach it:
delivered, drained from pending, or in a catch-up batch. A home core that
is down relays them when it recovers.
This keeps every not-yet-committed operation held by exactly one site
ahead of a flatten, so catch-up translation happens once per operation.

Crashed sites queue inbound messages and process them on recovery
(crash-recovery, no amnesia).

Messages are the protocol's own values (an ``Operation``, a decision's
``FlattenAnnouncement``, a ``CatchUpBatch``; prepares and votes reach the
log through ``initiate_flatten``'s observer). ``_text`` writes a message's
log text once per send and the message travels with the text's digest, so
the digest too is taken once per send, not once per receipt. The log is
stored packed (``EventLog``), and its readers count kinds on the packed
columns or iterate it one row at a time; no list of rows is built.
"""

from __future__ import annotations

import hashlib
import heapq
from array import array
from collections import Counter
from random import Random
from typing import Iterable, Iterator, NamedTuple, Optional

from . import protocol
from .errors import IntentViolation, NonConvergenceError
from .protocol import (
    DeliverResult,
    FlattenAnnouncement,
    OpKind,
    Operation,
    PrepareMessage,
    Role,
    Site,
    initiate_flatten,
)
from .tid import Disambiguator
from .trace import write_csv

EventLogEntry = tuple[int, str, str, str]  # tick, site, kind, payload digest
MetricsRow = tuple[int, int, int, float, int]  # tick, nodes, tombstones, mean, epoch

# Every kind of log entry; the packed log keeps an entry's index here.
KINDS = (
    "submit", "gen_skipped", "fault_drop", "crash", "recover", "send_prepare",
    "send_votemsg", "flatten_commit", "flatten_abort", "flatten_skipped",
    *(f"recv_{r.value}" for r in DeliverResult), "recv_decision", "recv_catchup",
    "catchup_emit", "converged", "diverged",
)
_KIND_INDEX = {kind: i for i, kind in enumerate(KINDS)}
_RECV_KIND = {result: f"recv_{result.value}" for result in DeliverResult}
NET = -1  # the log's site index of the network itself


class CrashWindow(NamedTuple):
    site_index: int
    tick_down: int
    tick_up: int


class SimConfig(NamedTuple):
    seed: int = 0
    core_count: int = 3
    nebula_count: int = 0
    op_count: int = 100
    delete_ratio: float = 0.3
    max_delay: int = 5
    duplicate_prob: float = 0.0
    drop_retry_prob: float = 0.0
    flatten_interval: int = 0  # generated ops between flatten attempts; 0 = never
    crash_schedule: tuple[CrashWindow, ...] = ()
    fault_drop_message: Optional[int] = None  # test hook: drop the Nth send forever

    def validate(self) -> None:
        names = ("core_count", "nebula_count", "op_count", "max_delay", "flatten_interval")
        ints = [(name, getattr(self, name)) for name in names]
        if self.fault_drop_message is not None:
            ints.append(("fault_drop_message", self.fault_drop_message))
        schedule = self.crash_schedule
        if not isinstance(schedule, (tuple, list)) or not all(
            isinstance(window, CrashWindow) for window in schedule
        ):
            raise ValueError(f"crash_schedule must hold CrashWindows, got {schedule!r}")
        for window in schedule:
            ints += [(f"crash window {k}", v) for k, v in window._asdict().items()]
        for name, value in ints:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.core_count < 1 or self.nebula_count < 0 or self.op_count < 0:
            raise ValueError("counts must be non-negative (and at least one core)")
        for name in ("delete_ratio", "duplicate_prob", "drop_retry_prob"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.max_delay < 1:
            raise ValueError("max_delay must be at least 1 tick")
        if self.flatten_interval < 0:
            raise ValueError("flatten_interval must be non-negative")
        if self.fault_drop_message is not None and self.fault_drop_message < 1:
            raise ValueError("fault_drop_message counts sends from 1")
        total = self.core_count + self.nebula_count
        for window in self.crash_schedule:
            if not 0 <= window.site_index < total:
                raise ValueError(f"crash window names unknown site {window.site_index}")
            if not 0 <= window.tick_down < window.tick_up:
                raise ValueError("crash windows need tick_down < tick_up")


class EventLog:
    """The event log, packed: per entry a tick, a site (index into ``labels``),
    a kind (index into ``KINDS``) and 6 bytes of its payload text's sha256.
    Iterating yields (tick, site label, kind, digest hex) rows one at a time."""

    def __init__(self, labels: list[str]):
        self.labels = labels
        self.ticks = array("q")
        self.sites = array("i")
        self.kinds = bytearray()
        self.digests = bytearray()

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[EventLogEntry]:
        labels, hexes = self.labels, self.digests.hex()
        for i, (tick, site, kind) in enumerate(zip(self.ticks, self.sites, self.kinds)):
            yield tick, labels[site], KINDS[kind], hexes[12 * i : 12 * i + 12]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        mine = (self.labels, self.ticks, self.sites, self.kinds, self.digests)
        return mine == (other.labels, other.ticks, other.sites, other.kinds, other.digests)

    def count(self, kind: str) -> int:
        """How many entries are of ``kind``."""
        return self.kinds.count(_KIND_INDEX[kind])


class SimResult(NamedTuple):
    converged: bool
    final_digest: str
    metrics: list[MetricsRow]
    event_log: EventLog
    diff: str  # what differs, when not converged
    sites: list[Site]
    intent: str  # "" or the atoms a replica misses or holds beyond the ops' intent


def check_convergence(sites: list[Site]) -> tuple[bool, str, str]:
    """Compare every replica's ``state_digest`` with the first site's.

    Equal digests mean equal epoch, text, tombstones and tree shape. Returns
    (converged, what differs, the first site's digest).
    """
    ref = sites[0].replica
    ref_digest = ref.state_digest()
    for site in sites[1:]:
        doc = site.replica
        if doc.state_digest() != ref_digest:
            if doc.epoch != ref.epoch:
                what = f"epoch {doc.epoch} against {ref.epoch}"
            elif doc.atoms() != ref.atoms():
                what = f"text {doc.text()!r} against {ref.text()!r}"
            else:
                what = "tombstones or tree shape, with equal text"
            return False, f"{site.id!r} differs from {sites[0].id!r}: {what}", ref_digest
    return True, "", ref_digest


class CatchUpBatch(NamedTuple):
    """A nebula's catch-up emissions, sent to every core site at once."""

    sender: Disambiguator
    ops: tuple[Operation, ...]


def _op_text(op: Operation) -> str:
    atom = "" if op.atom is None else op.atom.hex()
    return (
        f"{op.epoch}:{op.kind.value}:{op.tid.encode().hex()}"
        f":{atom}:{op.origin.hex()}:{op.origin_seq}"
    )


def _text(kind: str, msg) -> str:
    """The log text of a message of ``kind``: every field that reaches the
    receiver, an op's TID wire-encoded and a committed set as its digest."""
    if kind == "op":
        return f"op|{_op_text(msg)}"
    if kind == "catchup":
        return f"catchup|{msg.sender.hex()}|{';'.join(map(_op_text, msg.ops))}"
    if kind == "decision":
        ids = protocol.ids_digest(msg.committed_ids)
        return f"decision|committed|{msg.new_epoch}|{msg.doc_digest}|{ids}"
    if kind == "prepare":
        return f"prepare|{msg.coordinator.hex()}|{msg.old_epoch}|{msg.op_set_digest}"
    return f"vote|{msg.voter.hex()}|{msg.decision.value}"  # kind "votemsg"


def _digest(payload: str) -> bytes:
    return hashlib.sha256(payload.encode()).digest()[:6]


class Network:
    """One simulation instance: sites, transport, scheduler, log. A site is
    named by its index in ``sites``, where the core comes first."""

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        self.rng = Random(config.seed)
        n = config.core_count
        self.sites = [Site(b"c%02d" % i, Role.CORE) for i in range(n)]
        self.sites += [Site(b"n%02d" % i, Role.NEBULA) for i in range(config.nebula_count)]
        self.core_sites, self.nebula_sites = self.sites[:n], self.sites[n:]
        cores = self._cores = range(n)
        nebulas = self._nebulas = range(n, len(self.sites))
        # Where a site's own ops go (a core site gossips with everyone, a nebula
        # site with the core); per core site, the nebula sites whose ops it
        # relays, by id, and where to.
        self._targets = [[j for j in range(len(self.sites)) if j != i] for i in cores]
        self._targets += [list(cores) for _ in nebulas]
        self._relay: list[dict[bytes, list[int]]] = [{} for _ in cores]
        for k, i in enumerate(nebulas):
            self._relay[k % n][self.sites[i].id] = [j for j in nebulas if j != i]
        self._index = {site.id: i for i, site in enumerate(self.sites)}
        # (tick, seq, kind, payload); a message's payload is (destination
        # index, message, log digest), its kind "op", "decision" or "catchup".
        self.heap: list[tuple[int, int, str, object]] = []
        self._seq = 0
        self.log = EventLog([site.id.decode() for site in self.sites] + ["net"])
        self.metrics: list[MetricsRow] = []
        self._held: list[list[tuple]] = [[] for _ in self.sites]
        self._sent = 0
        self._last_sample: Optional[tuple[int, int, int]] = None
        self._intended: dict[bytes, bool] = {}  # generated atom -> should be live

    # -- scheduling -------------------------------------------------------

    def _push(self, tick: int, kind: str, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (tick, self._seq, kind, payload))

    def _send(self, dst: int, kind: str, msg, digest: bytes, now: int) -> None:
        cfg, rng = self.config, self.rng
        self._sent += 1
        if self._sent == cfg.fault_drop_message:
            self._log(now, NET, "fault_drop", digest)
            return
        delay = rng.randint(1, cfg.max_delay)
        if cfg.drop_retry_prob > 0 and rng.random() < cfg.drop_retry_prob:
            # Lost once, retransmitted later: same message, longer wait.
            delay += rng.randint(1, cfg.max_delay)
        delivery = (dst, msg, digest)
        self._push(now + delay, kind, delivery)
        if cfg.duplicate_prob > 0 and rng.random() < cfg.duplicate_prob:
            self._push(now + rng.randint(1, cfg.max_delay), kind, delivery)

    def _log(self, tick: int, site: int, kind: str, digest: bytes) -> None:
        log = self.log
        log.ticks.append(tick)
        log.sites.append(site)
        log.kinds.append(_KIND_INDEX[kind])
        log.digests += digest

    def _maybe_sample(self, now: int) -> None:
        doc = self.sites[0].replica
        state = (doc.node_count, doc.tombstone_count, doc.epoch)
        if state != self._last_sample:
            self._last_sample = state
            nodes, tombstones, epoch = state
            row = (now, nodes, tombstones, doc.mean_tid_encoded_bytes(), epoch)
            self.metrics.append(row)

    # -- event handlers -----------------------------------------------------

    def _handle_gen(self, now: int) -> None:
        alive = [i for i, s in enumerate(self.sites) if not s.crashed]
        if not alive:
            self._log(now, NET, "gen_skipped", _digest("all sites down"))
            return
        origin = self.rng.choice(alive)
        site = self.sites[origin]
        live = site.replica.live_count
        if live > 0 and self.rng.random() < self.config.delete_ratio:
            op = site.submit_local(OpKind.DELETE, position=self.rng.randrange(live))
            self._intended[site.replica.find(op.tid).atom] = False
        else:
            atom = f"[{site.id.decode()}#{site.next_seq}]".encode()
            op = site.submit_local(
                OpKind.INSERT, position=self.rng.randint(0, live), atom=atom
            )
            self._intended[atom] = True
        site.outbox.clear()  # dispatched right here
        text = _op_text(op)
        self._log(now, origin, "submit", _digest(text))
        digest = _digest(f"op|{text}")
        for dst in self._targets[origin]:
            self._send(dst, "op", op, digest, now)

    def _handle_flatten(self, attempt: int, now: int) -> None:
        coordinator = attempt % len(self._cores)
        if self.sites[coordinator].crashed:
            alive = [i for i in self._cores if not self.sites[i].crashed]
            if not alive:
                self._log(now, NET, "flatten_skipped", _digest("no live core site"))
                return
            coordinator = alive[0]

        def observe(src: bytes, dst: bytes, msg) -> None:
            kind = "prepare" if isinstance(msg, PrepareMessage) else "votemsg"
            self._log(now, self._index[src], f"send_{kind}", _digest(_text(kind, msg)))

        site = self.sites[coordinator]
        outcome = initiate_flatten(site, self.core_sites, observer=observe)
        if outcome.committed:
            ann = outcome.announcement
            text = f"epoch {outcome.new_epoch} {ann.doc_digest}"
            self._log(now, coordinator, "flatten_commit", _digest(text))
            if self.nebula_sites:
                digest = _digest(_text("decision", ann))
                for nb in self._nebulas:
                    self._send(nb, "decision", ann, digest, now)
        else:
            self._log(now, coordinator, "flatten_abort", _digest(outcome.reason.value))

    def _recv_decision(
        self, dst: int, ann: FlattenAnnouncement, digest: bytes, now: int
    ) -> None:
        self.sites[dst].receive_decision(ann)
        self._log(now, dst, "recv_decision", digest)
        self._after_delivery(dst, now)

    def _recv_catchup(self, dst: int, batch: CatchUpBatch, _: bytes, now: int) -> None:
        site = self.sites[dst]
        results = [site.deliver(op) for op in batch.ops]
        applied = sum(1 for r in results if r is DeliverResult.APPLIED)
        # What the batch did here is part of the text: a digest per receipt.
        text = f"{_text('catchup', batch)}|applied={applied}"
        self._log(now, dst, "recv_catchup", _digest(text))
        self._after_delivery(dst, now)

    def _after_delivery(
        self, dst: int, now: int, op: Optional[Operation] = None, digest: bytes = b""
    ) -> None:
        """Relay or catch up after a delivery; ``op`` came with log ``digest``."""
        site = self.sites[dst]
        delivered = site.take_delivered()
        if site.role is Role.CORE:
            # A home core relays its nebula sites' ops to the other nebula
            # sites. An op drained from pending or taken from a batch needs
            # its own digest.
            relay = self._relay[dst]
            for relayed in delivered:
                targets = relay.get(relayed.origin)
                if targets:
                    d = digest if relayed is op else _digest(_text("op", relayed))
                    for nb in targets:
                        self._send(nb, "op", relayed, d, now)
        elif site.announcements:  # without one there is no epoch to catch up to
            emissions = site.maybe_catch_up()
            site.take_delivered()  # buffer drains inside catch-up are local
            if emissions:
                batch = CatchUpBatch(site.id, tuple(emissions))
                batch_digest = _digest(_text("catchup", batch))
                self._log(now, dst, "catchup_emit", batch_digest)
                for core in self._cores:
                    self._send(core, "catchup", batch, batch_digest, now)

    def _handle_crash(self, site_index: int, up: bool, now: int) -> None:
        self.sites[site_index].crashed = not up
        self._log(now, site_index, "recover" if up else "crash", _digest(str(now)))
        held = self._held[site_index]
        if up and held:
            self._held[site_index] = []
            for kind, delivery in held:
                self._push(now, kind, delivery)

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimResult:
        cfg = self.config
        tick = 0
        attempt = 0
        # A flatten stands a chance only in a quiet moment: after every
        # flatten_interval generated ops the workload pauses long enough for
        # in-flight messages (including one retry) to settle, the attempt
        # fires inside that window, then generation resumes. Update-wins
        # safety never depends on this; the window only lets commits happen.
        quiet = 3 * cfg.max_delay + 2
        for i in range(1, cfg.op_count + 1):
            tick += self.rng.randint(0, 2)
            self._push(tick, "gen", None)
            if cfg.flatten_interval > 0 and i % cfg.flatten_interval == 0:
                self._push(tick + quiet, "flatten", attempt)
                attempt += 1
                tick += 2 * quiet
        for window in cfg.crash_schedule:
            self._push(window.tick_down, "crash_down", window.site_index)
            self._push(window.tick_up, "crash_up", window.site_index)

        sites, held, heap, pop = self.sites, self._held, self.heap, heapq.heappop
        last_tick = 0
        # A nebula site can complete a catch-up only on a delivery, and every
        # delivery ends in _after_delivery, which makes it at once: nothing
        # is left to catch up when the heap runs dry.
        while heap:
            now, _, kind, payload = pop(heap)
            last_tick = now
            if kind == "op":  # most events are op deliveries
                dst, op, digest = payload
                if sites[dst].crashed:
                    held[dst].append((kind, payload))  # until dst recovers
                    continue
                self._log(now, dst, _RECV_KIND[sites[dst].deliver(op)], digest)
                self._after_delivery(dst, now, op, digest)
                if dst:
                    continue  # it changed site dst; only site 0 is sampled
            elif kind == "gen":
                self._handle_gen(now)
            elif kind == "flatten":
                self._handle_flatten(payload, now)
            elif kind == "crash_down":
                self._handle_crash(payload, False, now)
            elif kind == "crash_up":
                self._handle_crash(payload, True, now)
            elif sites[payload[0]].crashed:
                held[payload[0]].append((kind, payload))
            elif kind == "decision":
                self._recv_decision(*payload, now)
            elif kind == "catchup":
                self._recv_catchup(*payload, now)
            self._maybe_sample(now)

        converged, diff, final = check_convergence(self.sites)
        outcome = "converged" if converged else "diverged"
        self._log(last_tick, NET, outcome, _digest(final))
        # Converged replicas hold one text, so the first site speaks for all.
        intent = self._check_intent(self.sites if diff else self.sites[:1])
        return SimResult(converged, final, self.metrics, self.log, diff, self.sites, intent)

    def _check_intent(self, sites: list[Site]) -> str:
        """What the first of ``sites`` off the ops' intent misses and holds beyond it."""
        want = Counter(atom for atom, live in self._intended.items() if live)
        for site in sites:
            have = Counter(site.replica.atoms())
            if have != want:
                missing, extra = sorted(want - have), sorted(have - want)
                return f"{site.id!r} misses {missing} and holds {extra} beyond"
        return ""


def run(config: SimConfig, *, strict: bool = False) -> SimResult:
    """Run one simulation; with ``strict`` a divergence or an intent failure raises."""
    result = Network(config).run()
    if strict and not result.converged:
        raise NonConvergenceError(result.diff)
    if strict and result.intent:
        raise IntentViolation(result.intent)
    return result


def write_metrics_csv(metrics: list[MetricsRow], path: str) -> None:
    write_csv(
        path,
        "tick,total_nodes,tombstones,mean_tid_bytes,epoch\n",
        (
            f"{tick},{nodes},{tombs},{mean:.3f},{epoch}\n"
            for tick, nodes, tombs, mean, epoch in metrics
        ),
    )


def write_event_log(log: Iterable[EventLogEntry], path: str) -> None:
    write_csv(path, "", (f"{t}\t{site}\t{kind}\t{d}\n" for t, site, kind, d in log))
