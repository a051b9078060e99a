"""Deterministic discrete-event simulator for multi-site runs.

Time is integer ticks with a single global queue ordered by (tick, seq);
every random draw comes from one seeded generator, so a (seed, config)
pair reproduces the event log bit for bit. The transport delays, may
duplicate, and may "lose then retransmit" messages (modelled as extra
delay), but always delivers eventually: that is the reliable-broadcast
contract the convergence argument needs. Reordering is legal because
causal readiness is enforced at delivery, not by the transport.

Topology: a site in the core gossips with everyone; a nebula site
exchanges operations with core sites only, and the core relays nebula
content onward. This keeps every not-yet-committed operation held by
exactly one site ahead of a flatten, so catch-up translation happens once
per operation.

Crashed sites queue inbound messages and process them on recovery
(crash-recovery, no amnesia).

Messages are the protocol's own values (an ``Operation``, a decision's
``FlattenAnnouncement``, a ``CatchUpBatch``; prepares and votes reach the
log through ``initiate_flatten``'s observer). ``_text`` writes a message's
log text once per send, the text travels with it, and the log keeps its
digest.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from random import Random
from typing import NamedTuple, Optional

from . import protocol
from .errors import NonConvergenceError
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

EventLogEntry = tuple[int, str, str, str]
MetricsRow = tuple[int, int, int, float, int]  # tick, nodes, tombstones, mean, epoch


@dataclass(frozen=True)
class CrashWindow:
    site_index: int
    tick_down: int
    tick_up: int


@dataclass
class SimConfig:
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
        if self.core_count < 1 or self.nebula_count < 0 or self.op_count < 0:
            raise ValueError("counts must be non-negative (and at least one core)")
        for name in ("delete_ratio", "duplicate_prob", "drop_retry_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
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


@dataclass
class SimResult:
    converged: bool
    final_digest: str
    metrics: list[MetricsRow]
    event_log: list[EventLogEntry]
    diff: str = ""
    sites: list[Site] = field(default_factory=list, repr=False)


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


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


class Network:
    """One simulation instance: sites, transport, scheduler, log."""

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        self.rng = Random(config.seed)
        self.sites: list[Site] = []
        for i in range(config.core_count):
            self.sites.append(Site(f"c{i:02d}".encode(), Role.CORE))
        for i in range(config.nebula_count):
            self.sites.append(Site(f"n{i:02d}".encode(), Role.NEBULA))
        self.core_sites = self.sites[: config.core_count]
        self.nebula_sites = self.sites[config.core_count :]
        self._roles = {site.id: site.role for site in self.sites}
        # (tick, seq, kind, payload); a message's payload is (destination
        # site, message, log text), and its kind is "op", "decision" or "catchup".
        self.heap: list[tuple[int, int, str, object]] = []
        self._seq = 0
        self.event_log: list[EventLogEntry] = []
        self.metrics: list[MetricsRow] = []
        self._held: dict[Site, list[tuple]] = {site: [] for site in self.sites}
        self._sent = 0
        self._last_sample: Optional[tuple[int, int, int]] = None

    # -- scheduling -------------------------------------------------------

    def _push(self, tick: int, kind: str, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (tick, self._seq, kind, payload))

    def _send(self, dst: Site, kind: str, msg, text: str, now: int) -> None:
        self._sent += 1
        if (
            self.config.fault_drop_message is not None
            and self._sent == self.config.fault_drop_message
        ):
            self._log(now, "net", "fault_drop", text)
            return
        delay = self.rng.randint(1, self.config.max_delay)
        if (
            self.config.drop_retry_prob > 0
            and self.rng.random() < self.config.drop_retry_prob
        ):
            # Lost once, retransmitted later: same message, longer wait.
            delay += self.rng.randint(1, self.config.max_delay)
        delivery = (dst, msg, text)
        self._push(now + delay, kind, delivery)
        if (
            self.config.duplicate_prob > 0
            and self.rng.random() < self.config.duplicate_prob
        ):
            dup_delay = self.rng.randint(1, self.config.max_delay)
            self._push(now + dup_delay, kind, delivery)

    def _broadcast_op(self, origin: Site, op: Operation, text: str, now: int) -> None:
        if origin.role is Role.CORE:
            targets = [s for s in self.sites if s is not origin]
        else:
            targets = list(self.core_sites)
        for dst in targets:
            self._send(dst, "op", op, text, now)

    def _log(self, tick: int, site: object, kind: str, payload: str) -> None:
        label = site if isinstance(site, str) else site.id.decode()
        self.event_log.append((tick, label, kind, _digest(payload)))

    def _maybe_sample(self, now: int) -> None:
        doc = self.sites[0].replica
        state = (doc.node_count, doc.tombstone_count, doc.epoch)
        if state != self._last_sample:
            self._last_sample = state
            self.metrics.append(
                (
                    now,
                    doc.node_count,
                    doc.tombstone_count,
                    doc.mean_tid_encoded_bytes(),
                    doc.epoch,
                )
            )

    # -- event handlers -----------------------------------------------------

    def _handle_gen(self, now: int) -> None:
        alive = [s for s in self.sites if not s.crashed]
        if not alive:
            self._log(now, "net", "gen_skipped", "all sites down")
            return
        site = self.rng.choice(alive)
        live = site.replica.live_count
        if live > 0 and self.rng.random() < self.config.delete_ratio:
            op = site.submit_local(OpKind.DELETE, position=self.rng.randrange(live))
        else:
            atom = f"[{site.id.decode()}#{site.next_seq}]".encode()
            op = site.submit_local(
                OpKind.INSERT, position=self.rng.randint(0, live), atom=atom
            )
        site.outbox.clear()  # dispatched right here
        text = _op_text(op)
        self._log(now, site, "submit", text)
        self._broadcast_op(site, op, f"op|{text}", now)

    def _handle_flatten(self, attempt: int, now: int) -> None:
        coordinator = self.core_sites[attempt % len(self.core_sites)]
        if coordinator.crashed:
            alive = [s for s in self.core_sites if not s.crashed]
            if not alive:
                self._log(now, "net", "flatten_skipped", "no live core site")
                return
            coordinator = alive[0]

        def observe(src: bytes, dst: bytes, msg) -> None:
            kind = "prepare" if isinstance(msg, PrepareMessage) else "votemsg"
            self._log(now, src.decode(), f"send_{kind}", _text(kind, msg))

        outcome = initiate_flatten(coordinator, self.core_sites, observer=observe)
        if outcome.committed:
            self._log(
                now,
                coordinator,
                "flatten_commit",
                f"epoch {outcome.new_epoch} {outcome.announcement.doc_digest}",
            )
            if self.nebula_sites:
                ann = outcome.announcement
                text = _text("decision", ann)
                for nb in self.nebula_sites:
                    self._send(nb, "decision", ann, text, now)
        else:
            self._log(now, coordinator, "flatten_abort", outcome.reason.value)

    def _recv_op(self, site: Site, op: Operation, text: str, now: int) -> None:
        result = site.deliver(op)
        self._log(now, site, f"recv_{result.value}", text)
        self._after_delivery(site, now, op, text)

    def _recv_decision(
        self, site: Site, ann: FlattenAnnouncement, text: str, now: int
    ) -> None:
        site.receive_decision(ann)
        self._log(now, site, "recv_decision", text)
        self._after_delivery(site, now)

    def _recv_catchup(
        self, site: Site, batch: CatchUpBatch, text: str, now: int
    ) -> None:
        results = [site.deliver(op) for op in batch.ops]
        applied = sum(1 for r in results if r is DeliverResult.APPLIED)
        self._log(now, site, "recv_catchup", f"{text}|applied={applied}")
        self._after_delivery(site, now)

    def _after_delivery(
        self, site: Site, now: int, op: Optional[Operation] = None, text: str = ""
    ) -> None:
        """Relay or catch up after a delivery; ``op`` came with log text ``text``."""
        delivered = site.take_delivered()
        if site.role is Role.CORE:
            # The core relays nebula content to the rest of the nebula. An op
            # drained from pending or taken from a batch needs its own text.
            for relayed in delivered:
                origin = relayed.origin
                if self._roles.get(origin) is Role.NEBULA:
                    msg_text = text if relayed is op else _text("op", relayed)
                    for nb in self.nebula_sites:
                        if nb.id != origin:
                            self._send(nb, "op", relayed, msg_text, now)
        else:
            emissions = site.maybe_catch_up()
            site.take_delivered()  # buffer drains inside catch-up are local
            if emissions:
                batch = CatchUpBatch(site.id, tuple(emissions))
                batch_text = _text("catchup", batch)
                self._log(now, site, "catchup_emit", batch_text)
                for core in self.core_sites:
                    self._send(core, "catchup", batch, batch_text, now)

    def _handle_crash(self, site_index: int, up: bool, now: int) -> None:
        site = self.sites[site_index]
        site.crashed = not up
        self._log(now, site, "recover" if up else "crash", str(now))
        if up and self._held[site]:
            held = self._held[site]
            self._held[site] = []
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

        last_tick = 0
        while True:
            while self.heap:
                now, _, kind, payload = heapq.heappop(self.heap)
                last_tick = now
                if kind == "gen":
                    self._handle_gen(now)
                elif kind == "flatten":
                    self._handle_flatten(payload, now)
                elif kind == "crash_down":
                    self._handle_crash(payload, False, now)
                elif kind == "crash_up":
                    self._handle_crash(payload, True, now)
                elif payload[0].crashed:
                    # A message, held until its destination recovers.
                    self._held[payload[0]].append((kind, payload))
                elif kind == "op":
                    self._recv_op(*payload, now)
                elif kind == "decision":
                    self._recv_decision(*payload, now)
                elif kind == "catchup":
                    self._recv_catchup(*payload, now)
                self._maybe_sample(now)
            # Safety sweep: any catch-up that became possible right at the end.
            extra = False
            for nb in self.nebula_sites:
                emissions = nb.maybe_catch_up()
                nb.take_delivered()
                if emissions:
                    batch = CatchUpBatch(nb.id, tuple(emissions))
                    text = _text("catchup", batch)
                    for core in self.core_sites:
                        self._send(core, "catchup", batch, text, last_tick)
                    extra = True
            if not extra:
                break

        converged, diff, final = check_convergence(self.sites)
        self._log(last_tick, "net", "converged" if converged else "diverged", final)
        return SimResult(
            converged=converged,
            final_digest=final,
            metrics=self.metrics,
            event_log=self.event_log,
            diff=diff,
            sites=self.sites,
        )


def run(config: SimConfig, *, strict: bool = False) -> SimResult:
    """Run one simulation; with ``strict`` a divergence raises."""
    result = Network(config).run()
    if strict and not result.converged:
        raise NonConvergenceError(result.diff)
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


def write_event_log(log: list[EventLogEntry], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tick, site, kind, digest in log:
            fh.write(f"{tick}\t{site}\t{kind}\t{digest}\n")
