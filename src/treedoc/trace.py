"""Revision-history ingestion, replay, and measurement.

A trace is a flat list of position-addressed insert/delete events derived
from successive document revisions. Tokenization attaches each separator
run to the unit before it, so concatenating the units reproduces the
source text exactly; that is what makes replay byte-faithful.
"""

from __future__ import annotations

import base64
import re
import time
from difflib import SequenceMatcher
from enum import Enum
from itertools import compress, count
from operator import ne
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, TextIO

from .errors import IndexOutOfRange, MalformedTrace, PositionOutOfRange
from .protocol import OpKind, Role, Site, initiate_flatten

_PARAGRAPH_SPLIT = re.compile(r"(\n{2,})")
_WORD_UNIT = re.compile(r"\S+\s*|\s+")


class Granularity(Enum):
    PARAGRAPH = "paragraph"
    WORD = "word"


class TraceEvent(NamedTuple):
    revision: int
    kind: OpKind
    position: int  # index into the live document at application time
    atom: Optional[bytes]  # present for inserts


class MetricsRow:
    """The replica's structure after one replayed op.

    A slots class, not a named tuple: replay keeps one per op, and
    ``tracemalloc`` books a named tuple's instances to its generated
    ``__new__`` (file ``<string>``), not to this module.
    """

    __slots__ = (
        "op_index", "tree_size_nodes", "tombstone_fraction",
        "mean_tid_encoded_bytes", "op_duration", "epoch",
    )

    def __init__(
        self,
        op_index: int,
        tree_size_nodes: int,
        tombstone_fraction: float,
        mean_tid_encoded_bytes: float,
        op_duration: float,
        epoch: int,
    ):
        self.op_index = op_index
        self.tree_size_nodes = tree_size_nodes
        self.tombstone_fraction = tombstone_fraction
        self.mean_tid_encoded_bytes = mean_tid_encoded_bytes
        self.op_duration = op_duration
        self.epoch = epoch


def tokenize(text: str, granularity: Granularity | str) -> list[str]:
    """Split into atoms whose concatenation is exactly ``text``.

    ``granularity`` is a ``Granularity`` or its value string; anything else
    raises ``ValueError``.
    """
    if Granularity(granularity) is Granularity.WORD:
        return _WORD_UNIT.findall(text)
    parts = _PARAGRAPH_SPLIT.split(text)
    units: list[str] = []
    for i in range(0, len(parts), 2):
        unit = parts[i]
        if i + 1 < len(parts):
            unit += parts[i + 1]
        if unit:
            units.append(unit)
    return units


def _common_run(a: Iterable[str], b: Iterable[str], limit: int) -> int:
    """Length of the equal leading run of ``a`` and ``b``, compared in C."""
    return next(compress(count(), map(ne, a, b)), limit)


def diff_to_ops(
    old_rev: str,
    new_rev: str,
    granularity: Granularity | str = Granularity.PARAGRAPH,
    revision: int = 0,
    *,
    units: Optional[list[str]] = None,
) -> list[TraceEvent]:
    """Common-subsequence diff over atom units.

    Positions are live-document indices at the moment each event applies,
    walking the edit script left to right; replaying the events on
    ``old_rev`` reproduces ``new_rev`` exactly.

    Only the window between the revisions' common unit prefix and suffix
    goes to ``SequenceMatcher``: a typed revision differs from the last in
    one short run, so the matcher no longer scans the whole document. When
    prefix and suffix overlap (a unit repeats at the edge of the edit), the
    longer keeps its full length and the other is cut; ties go to the
    prefix. Where units repeat, this may pick another matching copy than a
    whole-document match would: the script is as valid, its positions may
    differ.

    ``units``, when given, holds ``old_rev``'s units as ``tokenize`` splits
    them; they stand in for splitting ``old_rev`` again, and the list is
    refilled with ``new_rev``'s units. Along a chain of revisions each text
    is then tokenized once.
    """
    new_units = tokenize(new_rev, granularity)
    if units is None:
        old_units = tokenize(old_rev, granularity)
    else:
        old_units = units.copy()
        units[:] = new_units
    shorter = min(len(old_units), len(new_units))
    prefix = _common_run(old_units, new_units, shorter)
    suffix = _common_run(reversed(old_units), reversed(new_units), shorter)
    if prefix + suffix > shorter:
        if suffix > prefix:
            prefix = shorter - suffix
        else:
            suffix = shorter - prefix
    old_window = old_units[prefix : len(old_units) - suffix]
    new_window = new_units[prefix : len(new_units) - suffix]
    matcher = SequenceMatcher(a=old_window, b=new_window, autojunk=False)
    events: list[TraceEvent] = []
    offset = prefix  # live position of the next unmatched old unit
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            offset += i2 - i1
            continue
        if tag in ("delete", "replace"):
            for _ in range(i2 - i1):
                events.append(TraceEvent(revision, OpKind.DELETE, offset, None))
        if tag in ("insert", "replace"):
            for j in range(j1, j2):
                atom = new_window[j].encode("utf-8")
                events.append(TraceEvent(revision, OpKind.INSERT, offset, atom))
                offset += 1
    return events


def events_from_revisions(
    revisions: Iterable[str], granularity: Granularity | str = Granularity.PARAGRAPH
) -> list[TraceEvent]:
    """Diff each revision against the previous one; revision 0 starts empty.

    One ``units`` list goes along the chain, so each revision is tokenized
    once: its units are the new side of one diff and the old side of the
    next. Every pair still goes through ``diff_to_ops``, so a profile of it
    holds all of the ingest work.
    """
    granularity = Granularity(granularity)
    events: list[TraceEvent] = []
    previous = ""
    units: list[str] = []
    for rev_index, text in enumerate(revisions):
        events.extend(diff_to_ops(previous, text, granularity, rev_index, units=units))
        previous = text
    return events


def read_revisions_dir(path: str | Path) -> list[str]:
    """Revision texts from a directory, one file per revision, sorted by name."""
    files = sorted(p for p in Path(path).iterdir() if p.is_file())
    texts: list[str] = []
    for p in files:
        try:
            texts.append(p.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise MalformedTrace(f"{p}: revision is not UTF-8: {exc}") from exc
    return texts


# -- trace file format: one line per event ---------------------------------
# revision<TAB>kind<TAB>position<TAB>base64-atom (empty for deletes)


def write_trace(events: Iterable[TraceEvent], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            atom = base64.b64encode(ev.atom).decode() if ev.atom is not None else ""
            fh.write(f"{ev.revision}\t{ev.kind.value}\t{ev.position}\t{atom}\n")


def _decimal(field: str) -> int:
    # int() also takes signs, spaces, underscores and non-ASCII digits.
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"expected a decimal count, got {field!r}")
    return int(field)


def read_trace(path: str | Path) -> list[TraceEvent]:
    events: list[TraceEvent] = []
    # Bytes, decoded inside the try: a line that is not UTF-8 gets its location.
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
                if not line:
                    continue
                rev, kind, pos, atom64 = line.split("\t")
                op_kind = OpKind(kind)
                if (op_kind is OpKind.INSERT) != bool(atom64):
                    raise ValueError("an insert needs an atom, a delete takes none")
                event = TraceEvent(
                    _decimal(rev),
                    op_kind,
                    _decimal(pos),
                    base64.b64decode(atom64, validate=True) if atom64 else None,
                )
            except (ValueError, KeyError) as exc:
                raise MalformedTrace(
                    f"{path}:{line_no}: malformed trace line: {exc}"
                ) from exc
            events.append(event)
    return events


def replay(
    events: list[TraceEvent],
    flatten_interval: int = 0,
    site_count: int = 1,
) -> list[MetricsRow]:
    """Apply a trace and measure the structure after every operation.

    ``flatten_interval`` counts revisions between flatten commits (0 never
    flattens). With ``site_count`` > 1, events go round-robin to the sites
    and every message is flushed before the next event, so trace positions
    stay valid at every replica.
    """
    if flatten_interval < 0:
        raise ValueError("flatten_interval must be at least 0")
    if site_count < 1:
        raise ValueError("site_count must be at least 1")
    sites = [Site(f"s{i:02d}".encode(), Role.CORE) for i in range(site_count)]
    rows: list[MetricsRow] = []
    flattened_through = 0
    for op_index, ev in enumerate(events):
        if flatten_interval > 0:
            boundary = (ev.revision // flatten_interval) * flatten_interval
            if boundary > flattened_through:
                # In lockstep replay every site is synchronized, so the
                # commit succeeds; an abort just retries at the next boundary.
                if initiate_flatten(sites[0], sites).committed:
                    flattened_through = boundary
        site = sites[op_index % site_count]
        started = time.perf_counter()
        try:
            op = site.submit_local(ev.kind, position=ev.position, atom=ev.atom)
        except IndexOutOfRange:
            raise PositionOutOfRange(
                ev.revision, ev.position, site.replica.live_count
            ) from None
        duration = time.perf_counter() - started
        site.outbox.clear()
        for other in sites:
            if other is not site:
                other.deliver(op)
                other.take_delivered()  # lockstep: nothing is relayed
        doc = site.replica
        rows.append(
            MetricsRow(
                op_index,
                doc.node_count,
                doc.tombstone_count / doc.node_count if doc.node_count else 0.0,
                doc.mean_tid_encoded_bytes(),
                duration,
                doc.epoch,
            )
        )
    return rows


def write_metrics_csv(rows: Iterable[MetricsRow], out: str | Path | TextIO) -> None:
    write_csv(
        out,
        "op_index,tree_size_nodes,tombstone_fraction,"
        "mean_tid_encoded_bytes,op_duration,epoch\n",
        (
            f"{row.op_index},{row.tree_size_nodes},{row.tombstone_fraction:.6f},"
            f"{row.mean_tid_encoded_bytes:.3f},{row.op_duration:.9f},{row.epoch}\n"
            for row in rows
        ),
    )


def write_csv(out: str | Path | TextIO, header: str, lines: Iterable[str]) -> None:
    """Write ``header`` and the newline-terminated ``lines`` to a path or file."""
    if hasattr(out, "write"):
        out.write(header)
        out.writelines(lines)
        return
    with open(out, "w", encoding="utf-8") as fh:
        write_csv(fh, header, lines)
