"""Treedoc: an ordered-sequence CRDT with flatten, epochs, and catch-up.

The replica (`Treedoc`) stores atoms in a tree of major/mini nodes whose
path identifiers (TIDs) give a dense total order, so concurrent inserts
and deletes commute and replicas converge without concurrency control.
`flatten` rebuilds a replica as a balanced, tombstone-free tree behind an
update-wins two-phase commit, and lagging (nebula) sites rejoin the new
epoch through the cyan/black catch-up translation. A deterministic
simulator, a trace-replay harness, and a CLI sit on top.
"""

from .core import EffectReport, Treedoc
from .errors import (
    EpochMismatch,
    IndexOutOfRange,
    IntentViolation,
    InvariantViolation,
    MalformedTID,
    MalformedTrace,
    MissingAncestor,
    MissingTarget,
    NonConvergenceError,
    PositionOutOfRange,
    ProtocolError,
    TreedocError,
    UnknownTID,
)
from .flatten import build_balanced
from .protocol import (
    AbortReason,
    DeliverResult,
    OpKind,
    Operation,
    Role,
    Site,
    VoteDecision,
    ids_digest,
    initiate_flatten,
)
from .sim import CrashWindow, SimConfig
from .tid import LEFT, RIGHT, PathElement, TID, compare_tid
from .trace import (
    Granularity,
    TraceEvent,
    diff_to_ops,
    events_from_revisions,
    read_trace,
    tokenize,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AbortReason",
    "CrashWindow",
    "DeliverResult",
    "EffectReport",
    "EpochMismatch",
    "Granularity",
    "IndexOutOfRange",
    "IntentViolation",
    "InvariantViolation",
    "LEFT",
    "MalformedTID",
    "MalformedTrace",
    "MissingAncestor",
    "MissingTarget",
    "NonConvergenceError",
    "OpKind",
    "Operation",
    "PathElement",
    "PositionOutOfRange",
    "ProtocolError",
    "RIGHT",
    "Role",
    "SimConfig",
    "Site",
    "TID",
    "TraceEvent",
    "Treedoc",
    "TreedocError",
    "UnknownTID",
    "VoteDecision",
    "build_balanced",
    "compare_tid",
    "diff_to_ops",
    "events_from_revisions",
    "ids_digest",
    "initiate_flatten",
    "read_trace",
    "tokenize",
    "write_trace",
]
