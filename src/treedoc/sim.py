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
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from random import Random
from typing import Optional

from .errors import NonConvergenceError
from .protocol import (
    CatchUpBatch,
    Decision,
    DeliverResult,
    OpKind,
    OpMessage,
    Operation,
    Role,
    Site,
    initiate_flatten,
)
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
        self._index = {site.id: i for i, site in enumerate(self.sites)}
        self._roles = {site.id: site.role for site in self.sites}
        self.heap: list[tuple[int, int, str, object]] = []
        self._seq = 0
        self.event_log: list[EventLogEntry] = []
        self.metrics: list[MetricsRow] = []
        self._held: dict[int, list[object]] = {i: [] for i in range(len(self.sites))}
        self._sent = 0
        self._last_sample: Optional[tuple[int, int, int]] = None

    # -- scheduling -------------------------------------------------------

    def _push(self, tick: int, kind: str, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (tick, self._seq, kind, payload))

    def _send(self, dst_index: int, msg, now: int) -> None:
        self._sent += 1
        if (
            self.config.fault_drop_message is not None
            and self._sent == self.config.fault_drop_message
        ):
            self._log(now, "net", "fault_drop", msg.canonical())
            return
        delay = self.rng.randint(1, self.config.max_delay)
        if (
            self.config.drop_retry_prob > 0
            and self.rng.random() < self.config.drop_retry_prob
        ):
            # Lost once, retransmitted later: same message, longer wait.
            delay += self.rng.randint(1, self.config.max_delay)
        self._push(now + delay, "msg", (dst_index, msg))
        if (
            self.config.duplicate_prob > 0
            and self.rng.random() < self.config.duplicate_prob
        ):
            dup_delay = self.rng.randint(1, self.config.max_delay)
            self._push(now + dup_delay, "msg", (dst_index, msg))

    def _broadcast_op(self, origin: Site, op: Operation, now: int) -> None:
        if origin.role is Role.CORE:
            targets = [s for s in self.sites if s is not origin]
        else:
            targets = list(self.core_sites)
        msg = OpMessage(op)
        for dst in targets:
            self._send(self._index[dst.id], msg, now)

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
        self._log(now, site, "submit", op.canonical())
        self._broadcast_op(site, op, now)

    def _handle_flatten(self, attempt: int, now: int) -> None:
        coordinator = self.core_sites[attempt % len(self.core_sites)]
        if coordinator.crashed:
            alive = [s for s in self.core_sites if not s.crashed]
            if not alive:
                self._log(now, "net", "flatten_skipped", "no live core site")
                return
            coordinator = alive[0]

        def observe(src: bytes, dst: bytes, msg) -> None:
            self._log(now, src.decode(), f"send_{type(msg).__name__.lower()}", msg.canonical())

        outcome = initiate_flatten(coordinator, self.core_sites, observer=observe)
        if outcome.committed:
            self._log(
                now,
                coordinator,
                "flatten_commit",
                f"epoch {outcome.new_epoch} {outcome.announcement.doc_digest}",
            )
            decision = Decision(outcome.announcement)
            for nb in self.nebula_sites:
                self._send(self._index[nb.id], decision, now)
        else:
            self._log(now, coordinator, "flatten_abort", outcome.reason.value)

    def _handle_msg(self, dst_index: int, msg, now: int) -> None:
        site = self.sites[dst_index]
        if site.crashed:
            self._held[dst_index].append(msg)
            return
        if isinstance(msg, OpMessage):
            result = site.deliver(msg.op)
            self._log(now, site, f"recv_{result.value}", msg.canonical())
            self._after_delivery(site, now)
        elif isinstance(msg, Decision):
            site.receive_decision(msg.announcement)
            self._log(now, site, "recv_decision", msg.canonical())
            self._after_delivery(site, now)
        elif isinstance(msg, CatchUpBatch):
            results = [site.deliver(op) for op in msg.ops]
            applied = sum(1 for r in results if r is DeliverResult.APPLIED)
            self._log(now, site, "recv_catchup", f"{msg.canonical()}|applied={applied}")
            self._after_delivery(site, now)
        else:  # pragma: no cover - unknown message kinds are a bug
            raise TypeError(f"unroutable message {msg!r}")

    def _after_delivery(self, site: Site, now: int) -> None:
        delivered = site.take_delivered()
        if site.role is Role.CORE:
            # The core relays nebula content to the rest of the nebula.
            for op in delivered:
                if self._roles.get(op.origin) is Role.NEBULA:
                    msg = OpMessage(op)
                    for nb in self.nebula_sites:
                        if nb.id != op.origin:
                            self._send(self._index[nb.id], msg, now)
        else:
            emissions = site.maybe_catch_up()
            site.take_delivered()  # buffer drains inside catch-up are local
            if emissions:
                batch = CatchUpBatch(site.id, tuple(emissions))
                self._log(now, site, "catchup_emit", batch.canonical())
                for core in self.core_sites:
                    self._send(self._index[core.id], batch, now)

    def _handle_crash(self, site_index: int, up: bool, now: int) -> None:
        site = self.sites[site_index]
        site.crashed = not up
        self._log(now, site, "recover" if up else "crash", str(now))
        if up and self._held[site_index]:
            held = self._held[site_index]
            self._held[site_index] = []
            for msg in held:
                self._push(now, "msg", (site_index, msg))

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
                elif kind == "msg":
                    dst_index, msg = payload
                    self._handle_msg(dst_index, msg, now)
                elif kind == "flatten":
                    self._handle_flatten(payload, now)
                elif kind == "crash_down":
                    self._handle_crash(payload, False, now)
                elif kind == "crash_up":
                    self._handle_crash(payload, True, now)
                self._maybe_sample(now)
            # Safety sweep: any catch-up that became possible right at the end.
            extra = False
            for nb in self.nebula_sites:
                emissions = nb.maybe_catch_up()
                nb.take_delivered()
                if emissions:
                    batch = CatchUpBatch(nb.id, tuple(emissions))
                    for core in self.core_sites:
                        self._send(self._index[core.id], batch, last_tick)
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
