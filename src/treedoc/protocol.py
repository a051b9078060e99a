"""Operation envelopes, delivery, the flatten commit round, and catch-up.

Sites are isolated actors: each owns its replica and talks to the others
only through messages. Delivery tolerates duplication and reordering:
causal readiness is read off the tree itself (an insert is ready once its
ancestors exist, a delete once its target exists), unready operations wait
in a pending buffer, and duplicates are suppressed by operation identity
``(origin, origin_seq)`` plus the idempotence of the replica operations.

Flattening is coordinated update-wins two-phase commit over the core
sites: any site that detects an update concurrent with the prepare (a
delivered-set digest mismatch, or a non-empty outbox/pending buffer)
votes no and the flatten aborts with no effect.

Epochs: each committed flatten opens a new epoch and invalidates old
TIDs. Operations carry their epoch and apply only in it: a replica buffers
those of a later epoch and drops those of an earlier one. A lagging nebula
site re-enters the current epoch through the cyan/black catch-up below,
which sends its uncommitted operations again under new TIDs.

Messages are the protocol's own values (``Operation``, ``PrepareMessage``,
``Vote``, ``FlattenAnnouncement``); how they travel, and the text a log
keeps of them, belong to the transport (``treedoc.sim``).
"""

from __future__ import annotations

import hashlib
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Optional

from .core import EffectReport, MajorNode, MiniNode, Treedoc
from .errors import (
    EpochMismatch, InvariantViolation, MissingAncestor, MissingTarget, ProtocolError
)
from .flatten import balanced_tid, build_balanced, flat_digest, flatten_for_commit
from .tid import ELEMENTS, LEFT, RIGHT, Disambiguator, TID, _check_disambiguator

Identity = tuple[Disambiguator, int]
# Catch-up's black effects: node -> (uncommitted insert, delete to emit).
BlackTable = dict[MiniNode, tuple[Optional[Identity], Optional[Identity]]]


class OpKind(Enum):
    INSERT = "insert"
    DELETE = "delete"


class Role(Enum):
    CORE = "core"
    NEBULA = "nebula"


class DeliverResult(Enum):
    APPLIED = "applied"
    BUFFERED = "buffered"
    DUPLICATE = "duplicate"
    WRONG_EPOCH = "wrong_epoch"


class VoteDecision(Enum):
    YES = "yes"
    NO = "no"


class AbortReason(Enum):
    NO_VOTE = "no_vote"
    CRASHED_MEMBER = "crashed_member"
    TIMEOUT = "timeout"


class Operation(NamedTuple):
    """An epoch-tagged insert or delete exchanged between sites.

    ``(origin, origin_seq)`` identifies the operation for its whole life:
    catch-up translation renames the TID but keeps the identity. A plain
    tuple, so it is immutable and cheap to build; equality and hash are the
    fields'.
    """

    epoch: int
    kind: OpKind
    tid: TID
    atom: Optional[bytes]
    origin: Disambiguator
    origin_seq: int

    @property
    def identity(self) -> Identity:
        return (self.origin, self.origin_seq)


class PrepareMessage(NamedTuple):
    coordinator: Disambiguator
    old_epoch: int
    op_set_digest: str


class Vote(NamedTuple):
    voter: Disambiguator
    decision: VoteDecision


class FlattenAnnouncement(NamedTuple):
    """What a committed flatten tells the rest of the system.

    ``committed_ids`` is the identity set every core site had delivered in
    the old epoch; a nebula site needs it both to know when it has caught
    up on old core updates and to tell its cyan effects from its black ones.
    """

    old_epoch: int
    new_epoch: int
    committed_ids: frozenset[Identity]
    doc_digest: str


class FlattenOutcome(NamedTuple):
    committed: bool
    new_epoch: Optional[int] = None
    reason: Optional[AbortReason] = None
    announcement: Optional[FlattenAnnouncement] = None


def ids_digest(ids: Iterable[Identity]) -> str:
    """Order-insensitive canonical digest over operation identities."""
    h = hashlib.sha256()
    for origin, seq in sorted(ids):
        h.update(origin)
        h.update(f":{seq};".encode())
    return h.hexdigest()


class Site:
    """A replica plus its buffers, counters, and role."""

    def __init__(self, site_id: Disambiguator, role: Role):
        _check_disambiguator(site_id)
        self.id = site_id
        self.role = role
        self.replica = Treedoc()
        self.next_seq = 1
        self.outbox: list[Operation] = []
        # Causally unready ops, in arrival order (the order they are retried).
        self.pending: dict[Identity, Operation] = {}
        # Per-epoch state for this site's epoch and later ones only; entries
        # below it are dropped when the site changes epoch. The buffers hold
        # ops of later epochs, deduplicated, until the site enters them.
        # ``epoch_ids`` holds the identities recorded in the current epoch: a
        # site records only ops of its own epoch, so this set and ``pending``
        # are the whole duplicate filter (``deliver`` argues why it is safe).
        self.epoch_buffers: dict[int, dict[Identity, Operation]] = {}
        self.epoch_ids: set[Identity] = set()
        self.announcements: dict[int, FlattenAnnouncement] = {}
        self._digest_memo: tuple[tuple[int, int], str] = ((-1, -1), "")
        # Nebula only, read by catch-up: TID -> identities of the ops that
        # created/tombstoned it this epoch. Several sites may race to delete
        # one node, so deletes are a list.
        self.applied_inserts: dict[TID, Identity] = {}
        self.applied_deletes: dict[TID, list[Identity]] = {}
        self.crashed = False
        self.unreachable = False
        self._delivered_since_take: list[Operation] = []

    def __repr__(self):
        return f"Site({self.id!r}, {self.role.value}, epoch={self.replica.epoch})"

    # -- local updates ------------------------------------------------------

    def submit_local(
        self,
        kind: OpKind,
        *,
        position: Optional[int] = None,
        atom: Optional[bytes] = None,
    ) -> Operation:
        """Initiate an update here: allocate, apply, stamp, queue for dispatch."""
        if kind is OpKind.INSERT and atom is None:
            raise ProtocolError("insert needs an atom")
        if kind is OpKind.DELETE and atom is not None:
            raise ProtocolError("delete carries no atom")
        if position is None:
            raise ProtocolError(f"local {kind.value} needs a position")
        if kind is OpKind.INSERT:
            tid = self.replica.insert_at(position, self.id, atom)
        else:
            tid = self.replica.delete_at(position)
        op = Operation(self.replica.epoch, kind, tid, atom, self.id, self.next_seq)
        self.next_seq += 1
        self._record(op)
        self.outbox.append(op)
        return op

    def _apply(self, op: Operation) -> EffectReport:
        # Only ops of the replica's epoch get here: ``deliver`` admits no
        # other into the replica or ``pending``, ``catch_up`` clears
        # ``pending``, and a commit requires it to be empty.
        if op.kind is OpKind.INSERT:
            return self.replica.insert(op.tid, op.atom)
        return self.replica.delete(op.tid)

    def _record(self, op: Operation) -> None:
        ident = op.identity
        self.epoch_ids.add(ident)
        if self.role is Role.NEBULA:
            if op.kind is OpKind.INSERT:
                self.applied_inserts[op.tid] = ident
            else:
                idents = self.applied_deletes.setdefault(op.tid, [])
                if ident not in idents:
                    idents.append(ident)

    # -- remote delivery ----------------------------------------------------

    def deliver(self, op: Operation) -> DeliverResult:
        """Replay a remote operation, buffering until causally ready.

        Any number of redeliveries leaves the replica unchanged. Operations
        of a later epoch wait in ``epoch_buffers`` until this site reaches
        it; those of an earlier one are dropped, since catch-up sends again
        what the core did not commit. In the epoch, an identity in
        ``epoch_ids`` or ``pending`` is a duplicate. An identity recorded in
        an earlier epoch comes back only as a catch-up re-emission, so:

        (a) a committed one is cyan at every nebula, and none re-emits it;
        (b) an uncommitted insert, and the first uncommitted delete of a node
            the core kept, are re-emitted by each nebula that holds them,
            each recording them in its new ``epoch_ids`` before
            ``_drain_epoch_buffer`` runs;
        (c) any other uncommitted delete is re-emitted by no nebula (none
            whose node has a committed delete: a nebula holds every committed
            identity before it catches up), or it lands on a node tombstoned
            here: ``ALREADY_TOMBSTONE``, answered ``DUPLICATE``.
        """
        ident = op.identity
        if op.epoch != self.replica.epoch:
            if op.epoch > self.replica.epoch:
                self.epoch_buffers.setdefault(op.epoch, {}).setdefault(ident, op)
            return DeliverResult.WRONG_EPOCH
        if ident in self.epoch_ids or ident in self.pending:
            return DeliverResult.DUPLICATE
        # The replica raises, unchanged, on an op that is not causally ready.
        try:
            result = self._apply(op)
        except (MissingAncestor, MissingTarget):
            self.pending[ident] = op
            return DeliverResult.BUFFERED
        self._record(op)
        # Even when the effect already existed (a concurrent delete beat
        # this one to the same node), the identity is news and must keep
        # propagating, or other sites would wait on it forever.
        self._delivered_since_take.append(op)
        if self.pending:
            self._drain_pending()
        if result is not EffectReport.APPLIED:
            return DeliverResult.DUPLICATE
        return DeliverResult.APPLIED

    def _drain_pending(self) -> None:
        pending = self.pending
        progress = True
        while progress:
            progress = False
            for ident, op in list(pending.items()):
                try:
                    self._apply(op)
                except (MissingAncestor, MissingTarget):
                    continue
                del pending[ident]
                self._record(op)
                self._delivered_since_take.append(op)
                progress = True

    def take_delivered(self) -> list[Operation]:
        """Operations newly recorded since the last call (what relays forward)."""
        out = self._delivered_since_take
        self._delivered_since_take = []
        return out

    # -- flatten voting and commit -------------------------------------------

    def epoch_ids_digest(self) -> str:
        """``ids_digest`` of the identities delivered in this site's epoch.

        Memoized by (epoch, set size): an epoch's set only grows, so an
        unchanged size means an unchanged set.
        """
        ids = self.epoch_ids
        key = (self.replica.epoch, len(ids))
        if self._digest_memo[0] != key:
            self._digest_memo = (key, ids_digest(ids))
        return self._digest_memo[1]

    def vote_on_prepare(self, msg: PrepareMessage) -> Vote:
        """Yes only when this site has seen exactly the coordinator's ops
        and has nothing of its own in flight."""
        if self.role is not Role.CORE:
            raise ProtocolError("only core sites vote")
        ok = (
            self.replica.epoch == msg.old_epoch
            and not self.outbox
            and not self.pending
            and self.epoch_ids_digest() == msg.op_set_digest
        )
        return Vote(self.id, VoteDecision.YES if ok else VoteDecision.NO)

    def _commit_flatten(self) -> str:
        """Flatten this member's replica (consumed) and return its digest."""
        if self.outbox or self.pending:
            raise InvariantViolation(
                f"{self.id!r} commits a flatten with {len(self.outbox)} ops in"
                f" its outbox and {len(self.pending)} pending"
            )
        self.replica, digest = flatten_for_commit(self.replica)
        self._forget_before(self.replica.epoch)
        return digest

    def _forget_before(self, epoch: int) -> None:
        """Empty ``epoch_ids``; drop state for epochs below ``epoch``, just entered.

        Every reader of this state asks for the site's own epoch: voting,
        the commit's identity set, catch-up and the buffer drain after it.
        """
        self.epoch_ids = set()
        for table in (self.announcements, self.epoch_buffers):
            for old in [e for e in table if e < epoch]:
                del table[old]

    def receive_decision(self, ann: FlattenAnnouncement) -> None:
        # A site past the announced epoch (every core member, once it has
        # committed) has no catch-up left to do with it.
        if ann.old_epoch >= self.replica.epoch:
            self.announcements.setdefault(ann.old_epoch, ann)

    # -- catch-up -------------------------------------------------------------

    def mark_colors(self, core_op_identities: Iterable[Identity]) -> BlackTable:
        """The black table: this epoch's effects the core did not commit.

        Maps each mini-node with a black effect to ``(insert, delete)``: the
        identity of its uncommitted insert, or None when the core has the
        node, and the identity of the delete to emit for its tombstone, or
        None. Nodes absent from the table are cyan. Only the TIDs this site
        recorded in the epoch are resolved; the tree is not traversed.

        A node may be a cyan node with a black tombstone (core inserted it,
        this side deleted it). The converse cannot happen honestly: the core
        cannot have committed a delete for a node it never saw.
        """
        if self.role is not Role.NEBULA:
            raise ProtocolError("coloring is a nebula-side step")
        ids = frozenset(core_op_identities)
        doc = self.replica

        def node_at(tid: TID) -> MiniNode:
            mini = doc.find(tid)
            if mini is None:
                raise InvariantViolation(f"recorded effect at {tid!r} is not found")
            return mini

        black: BlackTable = {}
        for tid, ident in self.applied_inserts.items():
            if ident not in ids:
                black[node_at(tid)] = (ident, None)
        tombstones = 0
        for tid, idents in self.applied_deletes.items():
            mini = node_at(tid)
            tombstones += mini.tombstone
            ins = black.get(mini, (None, None))[0]
            # Cyan as soon as any delete of this node committed: the core
            # dropped the node, so it must leave the flattened list too.
            if any(d in ids for d in idents):
                if ins is not None:
                    raise InvariantViolation(
                        f"black node with cyan tombstone at {tid!r}"
                    )
            else:
                # One delete is enough to kill the node at the core;
                # redundant racing deletes stay local.
                black[mini] = (ins, min(idents))
        # Flatten leaves no tombstones, so every tombstone in the tree was
        # made this epoch and must carry a recorded delete.
        if tombstones != doc.tombstone_count:
            raise ProtocolError(
                f"{doc.tombstone_count} tombstones, {tombstones} of them with a"
                " recorded delete"
            )
        return black

    def _collect_catch_up(
        self, black: BlackTable
    ) -> tuple[
        list[MiniNode], list[Optional[MajorNode]], list[int], dict[int, list[MiniNode]]
    ]:
        """Step one: the cyan skeleton in order, its major nodes, the indices
        of its black tombstones, and the black subtrees per gap.

        The skeleton is the replica's own mini-nodes for the cyan atoms the
        core's flatten kept: the live ones, and the tombstones whose delete
        is black. ``owners[i]`` is the major node holding ``skeleton[i]``
        when it holds nothing else, as ``live_nodes`` gives it. Black nodes
        only ever hang below the cyan skeleton (a cyan node's ancestors are
        all cyan, because the core applied it only after its ancestors
        existed there), so a maximal black subtree is intact and its whole
        span falls in a single gap between consecutive skeleton entries. Its
        root is the black insert whose parent is not one; gap 0 is the
        virtual sentinel before the first entry, and the gaps come in
        ascending order. A cyan tombstone drops out; its subtrees stay in
        document order. With nothing black, it is the commit path's ``live_nodes``.
        """
        if not black:
            return (*self.replica.live_nodes(), [], {})
        skeleton: list[MiniNode] = []
        owners: list[Optional[MajorNode]] = []
        deleted: list[int] = []
        groups: dict[int, list[MiniNode]] = {}
        get = black.get
        for mini, depth, _, path in self.replica.iter_nodes():
            entry = get(mini)
            if entry is None:
                if mini.tombstone:
                    continue
            elif entry[0] is None:
                deleted.append(len(skeleton))
            else:
                if depth:
                    frame = path[-2]
                    above = get(frame[0][frame[1]])
                    if above is not None and above[0] is not None:
                        continue  # inside a black subtree
                groups.setdefault(len(skeleton), []).append(mini)
                continue
            major = path[-1][0]
            owners.append(major if len(major) == 1 else None)
            skeleton.append(mini)
        return skeleton, owners, deleted, groups

    def catch_up(
        self, buffered_old_core_ops: Iterable[Operation], new_epoch: int
    ) -> list[Operation]:
        """Translate this site's black operations into the new epoch.

        Applies any remaining old core updates, builds the black table
        (``mark_colors``), relinks the replica's cyan skeleton and its major
        nodes exactly as the core's flatten did, and then touches only what
        is black:

        * each black tombstone of the skeleton is deleted at its new TID,
          which the midpoint rule gives (``balanced_tid``);
        * each black subtree is inserted again, node by node in pre-order,
          at an order-preserving free slot (``_gap_slot``, ``_slot_after``),
          its tombstones deleted there too;
        * the translated operations (original identities, new TIDs) are
          emitted as those deletes and inserts are applied.

        They are ordered by depth, inserts before deletes, then document
        order, so a receiver applies each one without buffering. The emitted
        set covers every black operation in the tree, not only the ones this
        site originated.
        """
        if self.role is not Role.NEBULA:
            raise ProtocolError("catch-up is a nebula-side step")
        if self.replica.epoch != new_epoch - 1:
            raise EpochMismatch(
                f"replica at epoch {self.replica.epoch}, cannot enter {new_epoch}"
            )
        old_epoch = new_epoch - 1
        ann = self.announcements.get(old_epoch)
        if ann is None or ann.new_epoch != new_epoch:
            raise EpochMismatch(f"no commit announcement for epoch {old_epoch}")
        for op in buffered_old_core_ops:
            self.deliver(op)
        missing = ann.committed_ids - self.epoch_ids
        if missing:
            raise ProtocolError(
                f"catch-up started before {len(missing)} committed ops arrived"
            )
        black = self.mark_colors(ann.committed_ids)
        skeleton, owners, deleted, groups = self._collect_catch_up(black)
        # Checked before the skeleton is relinked: on a mismatch the replica
        # is left as it was.
        if flat_digest(new_epoch, skeleton) != ann.doc_digest:
            raise InvariantViolation(
                f"cyan skeleton of {len(skeleton)} atoms does not match the"
                f" digest the core announced for epoch {new_epoch}"
            )
        new_doc = build_balanced(skeleton, owners)
        new_doc.epoch = new_epoch
        emissions: list[Operation] = []
        for i in deleted:
            # build_balanced counted the entry live: delete it as every
            # receiver of the emitted delete will.
            mini = skeleton[i]
            tid = balanced_tid(skeleton, i)
            mini.tombstone = False
            new_doc.delete(tid)
            emissions.append(
                Operation(new_epoch, OpKind.DELETE, tid, None, *black[mini][1])
            )
        for gap, roots in groups.items():
            first = roots[0]
            if skeleton:
                index, direction = _gap_slot(skeleton, gap)
                tid = balanced_tid(skeleton, index).child(
                    direction, first.disambiguator
                )
                # insert would put the root beside a node already there.
                parent = skeleton[index]
                if (parent.right if direction else parent.left) is not None:
                    raise InvariantViolation(f"black root slot {tid!r} is taken")
            else:
                # Only gap 0, in an empty tree.
                tid = TID(first.disambiguator)
            # Pre-order, parents first; a later root hangs below the right
            # spine of the one before it, so each root's subtree goes first.
            todo = [(first, tid)]
            for above, root in zip(roots, roots[1:]):
                tid = _slot_after(above, tid, root.disambiguator)
                todo.append((root, tid))
            todo.reverse()
            while todo:
                mini, tid = todo.pop()
                # A black subtree holds black inserts only.
                ins, dele = black[mini]
                new_doc.insert(tid, mini.atom)
                emissions.append(
                    Operation(new_epoch, OpKind.INSERT, tid, mini.atom, *ins)
                )
                if dele is not None:
                    new_doc.delete(tid)
                    emissions.append(
                        Operation(new_epoch, OpKind.DELETE, tid, None, *dele)
                    )
                for side, major in ((LEFT, mini.left), (RIGHT, mini.right)):
                    if major is not None:
                        for child in major:
                            todo.append((child, tid.child(side, child.disambiguator)))
        # TID order is document order.
        emissions.sort(
            key=lambda op: (op.tid.depth, op.kind is OpKind.DELETE, op.tid)
        )

        new_ins: dict[TID, Identity] = {}
        new_del: dict[TID, list[Identity]] = {}
        for op in emissions:
            if op.kind is OpKind.INSERT:
                new_ins[op.tid] = op.identity
            else:
                new_del[op.tid] = [op.identity]
        self.replica = new_doc
        self.applied_inserts = new_ins
        self.applied_deletes = new_del
        self._forget_before(new_epoch)
        self.epoch_ids.update(op.identity for op in emissions)
        self.pending.clear()
        self.outbox = [op for op in self.outbox if op.epoch >= new_epoch]
        return emissions

    def maybe_catch_up(self) -> list[Operation]:
        """Chain catch-ups for every completed announcement.

        Returns the emissions of the last epoch entered: anything the core
        still has not seen is re-translated into the following epoch under
        its original identity, so earlier batches are superseded.
        """
        emissions: list[Operation] = []
        while self.role is Role.NEBULA:
            ann = self.announcements.get(self.replica.epoch)
            if ann is None:
                break
            have = self.epoch_ids
            # len() guard keeps the hot path cheap: a subset needs at least
            # as many delivered identities as the committed set holds.
            if len(have) < len(ann.committed_ids) or not ann.committed_ids <= have:
                break
            emissions = self.catch_up([], ann.new_epoch)
            self._drain_epoch_buffer()
        return emissions

    def _drain_epoch_buffer(self) -> None:
        ops = self.epoch_buffers.pop(self.replica.epoch, None)
        if ops:
            for op in ops.values():
                self.deliver(op)


def _gap_slot(skeleton: list[MiniNode], gap: int) -> tuple[int, int]:
    """The free slot whose infix position is gap ``gap`` of the new tree, as
    (skeleton index, direction).

    Between consecutive infix neighbours one of (left.right, right.left) is
    always absent in a freshly built tree, so a black root inserted there
    never joins a cyan node's major node.
    """
    if gap == 0:
        return 0, LEFT
    if gap == len(skeleton):
        return gap - 1, RIGHT
    if skeleton[gap - 1].right is None:
        return gap - 1, RIGHT
    return gap, LEFT


def _slot_after(mini: MiniNode, tid: TID, dis: Disambiguator) -> TID:
    """TID for a node with disambiguator ``dis`` at the free slot right of
    everything under ``mini``, whose TID is ``tid``. Catch-up passes the
    replica's old node: its re-inserted copy has the same shape."""
    path = list(tid.path)
    while mini.right is not None:
        mini = mini.right[-1]
        path.append(ELEMENTS[mini.disambiguator][RIGHT])
    path.append(ELEMENTS[dis][RIGHT])
    return TID._make(tid.root_disambiguator, tuple(path))


Observer = Callable[[Disambiguator, Disambiguator, object], None]


def initiate_flatten(
    coordinator: Site,
    core_members: Iterable[Site],
    observer: Optional[Observer] = None,
) -> FlattenOutcome:
    """Run one update-wins two-phase-commit flatten round.

    The round aborts if any member is crashed or unreachable or votes no;
    in that case no replica changes. On commit every member flattens
    locally (deterministic, so the replicas stay equal) and enters the next
    epoch.
    """
    if coordinator.role is not Role.CORE:
        raise ProtocolError("only a core site may coordinate a flatten")
    members = list(core_members)
    if coordinator not in members:
        members.insert(0, coordinator)
    old_epoch = coordinator.replica.epoch
    prepare = PrepareMessage(coordinator.id, old_epoch, coordinator.epoch_ids_digest())
    for member in members:
        if observer is not None:
            observer(coordinator.id, member.id, prepare)
        if member.crashed:
            return FlattenOutcome(False, reason=AbortReason.CRASHED_MEMBER)
        if member.unreachable:
            return FlattenOutcome(False, reason=AbortReason.TIMEOUT)
        vote = member.vote_on_prepare(prepare)
        if observer is not None:
            observer(member.id, coordinator.id, vote)
        if vote.decision is VoteDecision.NO:
            return FlattenOutcome(False, reason=AbortReason.NO_VOTE)
    committed_ids = frozenset(coordinator.epoch_ids)
    digests = {member.id: member._commit_flatten() for member in members}
    doc_digest = digests[coordinator.id]
    diverged = sorted(sid for sid, digest in digests.items() if digest != doc_digest)
    if diverged:
        raise InvariantViolation(
            f"flatten to epoch {old_epoch + 1}: members {diverged!r} disagree"
            f" with coordinator {coordinator.id!r} on the document"
        )
    announcement = FlattenAnnouncement(
        old_epoch,
        old_epoch + 1,
        committed_ids,
        doc_digest,
    )
    for member in members:
        member.receive_decision(announcement)
    return FlattenOutcome(True, old_epoch + 1, None, announcement)
