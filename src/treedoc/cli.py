"""Command-line entry point: replay, simulate, bench, demo-catchup."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import bench, sim, trace
from .errors import TreedocError
from .protocol import DeliverResult, OpKind, Role, Site, initiate_flatten


class _Parser(argparse.ArgumentParser):
    # Bad flags exit 1, not argparse's default 2: 2 marks a failed simulation.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="treedoc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_replay = sub.add_parser("replay", help="replay a trace and write metrics")
    p_replay.add_argument("--trace", help="trace file (one event per line)")
    p_replay.add_argument("--revisions", help="directory of revision files to diff")
    p_replay.add_argument(
        "--granularity",
        choices=["paragraph", "word"],
        default="paragraph",
    )
    p_replay.add_argument("--flatten-every", type=int, default=0, metavar="N")
    p_replay.add_argument("--sites", type=int, default=1, metavar="K")
    p_replay.add_argument("--out", required=True, metavar="CSV")

    p_sim = sub.add_parser("simulate", help="run the multi-site simulator")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--core", type=int, default=3)
    p_sim.add_argument("--nebula", type=int, default=0)
    p_sim.add_argument("--ops", type=int, default=500)
    p_sim.add_argument("--delete-ratio", type=float, default=0.3)
    p_sim.add_argument("--flatten-every", type=int, default=0)
    p_sim.add_argument("--max-delay", type=int, default=5)
    p_sim.add_argument("--duplicate-prob", type=float, default=0.1)
    p_sim.add_argument("--drop-retry-prob", type=float, default=0.05)
    p_sim.add_argument("--out", required=True, metavar="CSV")
    p_sim.add_argument("--events", metavar="FILE", help="also write the event log")
    p_sim.add_argument(
        "--inject-drop",
        type=int,
        default=None,
        metavar="N",
        help="test hook: permanently drop the Nth message",
    )

    p_bench = sub.add_parser("bench", help="synthetic throughput/latency run")
    p_bench.add_argument("--ops", type=int, default=100_000)
    p_bench.add_argument("--flatten-every", type=int, default=1000)
    p_bench.add_argument("--seed", type=int, default=0)

    sub.add_parser("demo-catchup", help="walk through the catch-up translation")
    return parser


def _cmd_replay(args) -> int:
    if args.flatten_every < 0 or args.sites < 1:
        print("replay: N must be >= 0 and K >= 1", file=sys.stderr)
        return 1
    if args.revisions:
        revisions = trace.read_revisions_dir(args.revisions)
        events = trace.events_from_revisions(
            revisions, trace.Granularity(args.granularity)
        )
    elif args.trace:
        events = trace.read_trace(args.trace)
    else:
        print("replay: need --trace or --revisions", file=sys.stderr)
        return 1
    rows = trace.replay(events, args.flatten_every, args.sites)
    trace.write_metrics_csv(rows, args.out)
    print(f"replayed {len(rows)} operations across {args.sites} site(s)")
    if rows:
        last = rows[-1]
        print(
            f"final tree: {last.tree_size_nodes} nodes, "
            f"{last.tombstone_fraction:.1%} tombstones, epoch {last.epoch}"
        )
    print(f"metrics written to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    config = sim.SimConfig(
        seed=args.seed,
        core_count=args.core,
        nebula_count=args.nebula,
        op_count=args.ops,
        delete_ratio=args.delete_ratio,
        max_delay=args.max_delay,
        duplicate_prob=args.duplicate_prob,
        drop_retry_prob=args.drop_retry_prob,
        flatten_interval=args.flatten_every,
        fault_drop_message=args.inject_drop,
    )
    result = sim.run(config)
    sim.write_metrics_csv(result.metrics, args.out)
    if args.events:
        sim.write_event_log(result.event_log, args.events)
    log = result.event_log
    commits, aborts = log.count("flatten_commit"), log.count("flatten_abort")
    print(
        f"{args.ops} ops over {args.core} core / {args.nebula} nebula sites; "
        f"{commits} flatten commit(s), {aborts} abort(s)"
    )
    outcomes = (f"{log.count(f'recv_{r.value}')} {r.value.replace('_', ' ')}"
                for r in DeliverResult)
    print(f"deliveries: {', '.join(outcomes)}")
    if not result.converged:
        print(f"DIVERGED: {result.diff}", file=sys.stderr)
        return 2
    if result.intent:
        print(f"INTENT: {result.intent}", file=sys.stderr)
        return 2
    print(f"converged; final digest {result.final_digest[:16]}")
    return 0


def _cmd_bench(args) -> int:
    result = bench.run_bench(args.ops, args.flatten_every, args.seed)
    print(result.summary())
    return 0


def _cmd_demo_catchup() -> int:
    """The single-nebula walkthrough: insert between, delete concurrently."""
    core = Site(b"A", Role.CORE)
    nebula = Site(b"N", Role.NEBULA)

    def ship(ops):
        for op in ops:
            nebula.deliver(op)

    print("== setup ==")
    op_a = core.submit_local(OpKind.INSERT, position=0, atom=b"a")
    op_c = core.submit_local(OpKind.INSERT, position=1, atom=b"c")
    ship(core.outbox)
    core.outbox.clear()
    print(f"core inserts 'a' then 'c'; both reach the nebula: {nebula.replica.text()!r}")
    nebula.submit_local(OpKind.INSERT, position=1, atom=b"b")
    nebula.submit_local(OpKind.DELETE, position=2)
    print(f"nebula inserts 'b' between them and deletes 'c': {nebula.replica.text()!r}")
    print("\nnebula tree before the flatten:")
    print(nebula.replica.pretty())

    outcome = initiate_flatten(core, [core])
    ann = outcome.announcement
    nebula.receive_decision(ann)
    print(f"\ncore flattens alone (it never saw the nebula ops); core text "
          f"{core.replica.text()!r}, epoch {core.replica.epoch}")
    print("core tree after the flatten:")
    print(core.replica.pretty())

    black = nebula.mark_colors(ann.committed_ids)
    print("\nblack table (nebula effects the core did not commit):")
    for mini, (insert, _) in black.items():
        what = "insert" if insert is not None else "tombstone only"
        print(f"  {mini.atom.decode()!r}: {what}")
    skeleton, _, edits = nebula._collect_catch_up(black)
    listing = ", ".join(
        f"{m.atom.decode()}{' (black tombstone)' if m.tombstone else ''}"
        for m in skeleton
    )
    print(f"\ncyan list: [{listing}]")
    for index, mini in edits:
        what = "delete" if black[mini][0] is None else "insert"
        print(f"black edit at index {index}: {what} {mini.atom.decode()!r}")

    emissions = nebula.catch_up()
    print(f"\nnebula re-enters epoch {nebula.replica.epoch}; emitted operations:")
    for op in emissions:
        atom = f" atom={op.atom!r}" if op.atom is not None else ""
        print(f"  {op.kind.value} tid={op.tid.pretty()}{atom} "
              f"identity=({op.origin.decode()},{op.origin_seq})")
    for op in emissions:
        core.deliver(op)
    print("\nafter the core replays the batch:")
    print(f"  core text   {core.replica.text()!r}")
    print(f"  nebula text {nebula.replica.text()!r}")
    match = core.replica.state_digest() == nebula.replica.state_digest()
    print(f"  replicas structurally equal: {match}")
    return 0 if match else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "demo-catchup":
            return _cmd_demo_catchup()
    except (TreedocError, OSError, ValueError) as exc:
        print(f"treedoc: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
