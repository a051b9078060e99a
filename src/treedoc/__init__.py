"""Treedoc: an ordered-sequence CRDT with flatten, epochs, and catch-up.

The replica (`Treedoc`) stores atoms in a tree of major/mini nodes whose
path identifiers (TIDs) give a dense total order, so concurrent inserts
and deletes commute and replicas converge without concurrency control.
`flatten` rebuilds a replica as a balanced, tombstone-free tree behind an
update-wins two-phase commit, and lagging (nebula) sites rejoin the new
epoch through the cyan/black catch-up translation. A deterministic
simulator, a trace-replay harness, and a CLI sit on top.
"""

from .core import DocStats, EffectReport, MajorNode, MiniNode, Treedoc
from .errors import (
    EpochMismatch,
    IndexOutOfRange,
    InvariantViolation,
    MalformedTID,
    MissingAncestor,
    MissingTarget,
    NonConvergenceError,
    PositionOutOfRange,
    ProtocolError,
    TreedocError,
    UnknownTID,
)
from .flatten import FlattenResult, build_balanced, flatten_local
from .protocol import (
    AbortReason,
    CatchUpBatch,
    Decision,
    DeliverResult,
    FlattenAnnouncement,
    FlattenOutcome,
    OpKind,
    OpMessage,
    Operation,
    Prepare,
    PrepareMessage,
    Role,
    Site,
    Vote,
    VoteDecision,
    VoteMsg,
    causal_ready,
    ids_digest,
    initiate_flatten,
)
from .sim import CrashWindow, Network, SimConfig, SimResult, check_convergence, run
from .tid import LEFT, RIGHT, Disambiguator, PathElement, TID, compare_tid
from .trace import (
    Granularity,
    MetricsRow,
    TraceEvent,
    diff_to_ops,
    events_from_revisions,
    read_trace,
    replay,
    tokenize,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AbortReason",
    "CatchUpBatch",
    "CrashWindow",
    "Decision",
    "DeliverResult",
    "Disambiguator",
    "DocStats",
    "EffectReport",
    "EpochMismatch",
    "FlattenAnnouncement",
    "FlattenOutcome",
    "FlattenResult",
    "Granularity",
    "IndexOutOfRange",
    "InvariantViolation",
    "LEFT",
    "MajorNode",
    "MalformedTID",
    "MetricsRow",
    "MiniNode",
    "MissingAncestor",
    "MissingTarget",
    "Network",
    "NonConvergenceError",
    "OpKind",
    "OpMessage",
    "Operation",
    "PathElement",
    "PositionOutOfRange",
    "Prepare",
    "PrepareMessage",
    "ProtocolError",
    "RIGHT",
    "Role",
    "SimConfig",
    "SimResult",
    "Site",
    "TID",
    "TraceEvent",
    "Treedoc",
    "TreedocError",
    "UnknownTID",
    "Vote",
    "VoteDecision",
    "VoteMsg",
    "build_balanced",
    "causal_ready",
    "check_convergence",
    "compare_tid",
    "diff_to_ops",
    "events_from_revisions",
    "flatten_local",
    "ids_digest",
    "initiate_flatten",
    "read_trace",
    "replay",
    "run",
    "tokenize",
    "write_trace",
]
