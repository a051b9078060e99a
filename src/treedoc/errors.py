"""Exception types shared across the package."""


class TreedocError(Exception):
    """Base class for all package errors."""


class MalformedTID(TreedocError):
    """A TID value violates its structural invariants."""


class MissingAncestor(TreedocError):
    """An insert's path crosses a mini-node that does not exist.

    At the replica layer this is a hard error: it means an operation was
    applied before its causal predecessors. Buffering until ready is the
    delivery layer's job.
    """


class MissingTarget(TreedocError):
    """A delete names a mini-node that does not exist."""


class UnknownTID(TreedocError):
    """A TID passed as an allocation anchor resolves to nothing."""


class IndexOutOfRange(TreedocError):
    """A live-atom index is outside [0, live_count]."""


class ProtocolError(TreedocError):
    """A site was driven outside the legal protocol state machine."""


class EpochMismatch(ProtocolError):
    """An epoch-tagged step was attempted against the wrong replica epoch."""


class InvariantViolation(ProtocolError):
    """An internal invariant broke: replicas or bookkeeping disagree.

    Raised, for example, when catch-up coloring produces an impossible
    combination, or when a flatten's document digest differs between the
    members of a commit or from the announcement a nebula site catches up to.
    """


class NonConvergenceError(TreedocError):
    """Replicas disagreed after a run reached quiescence. Always a bug."""

    def __init__(self, diff: str):
        super().__init__(f"replicas diverged: {diff}")
        self.diff = diff


class IntentViolation(InvariantViolation):
    """A replica's live atoms are not the inserted minus the deleted ones."""


class MalformedTrace(TreedocError, ValueError):
    """A trace file line or a revision file cannot be read."""


class PositionOutOfRange(TreedocError):
    """A trace event addressed a position outside the live document."""

    def __init__(self, revision: int, position: int, live_count: int):
        super().__init__(
            f"revision {revision}: position {position} outside live document "
            f"of {live_count} atoms"
        )
        self.revision = revision
        self.position = position
        self.live_count = live_count
