"""The replica: a tree of major nodes holding per-site mini-nodes.

A major node is one tree position, and it is itself the list of the
mini-nodes there, sorted by disambiguator; it holds more than one only where
sites inserted at one position concurrently. Each mini-node owns its atom
slot, its tombstone flag and its own left/right child major nodes. The
document is the infix traversal of the live mini-nodes. Every node carries
``live_size``, the number of live atoms in its subtree.

Three descents from the root address one node, each in O(depth):

* ``_chain`` follows a TID, for ``find``, ``ancestors_exist``, ``insert``
  and ``delete``; the last two update ``live_size`` along it. Below the
  root it tries a major node's first entry before a search.
* ``_locate`` follows a live position, for ``tid_of_live_index``,
  ``alloc_tid_at_position`` and the position-addressed edits ``insert_at``
  and ``delete_at``, which update the nodes it passed without a second walk.
* ``_free_slot`` extends a descent to the nearest free slot on one side of
  its last node, for both allocators and ``insert_at``. Paths take their
  elements from ``tid.ELEMENTS``, one table shared by every replica.

A node enters a replica only through ``_link`` (``insert``, ``insert_at``),
which counts its live size along the path and its TID's cached wire size;
``flatten``'s balanced builder counts a whole new tree at once.

All traversals are iterative: degenerate trees (right spines thousands of
nodes deep) are a normal workload here and would blow the recursion limit.
Three passes cover the whole tree:

* ``iter_nodes``, document (infix, i.e. TID) order, builds a TID only on
  request (``path_tid``). ``walk``, ``pretty``, ``state_digest``, the
  simulator's convergence check and catch-up's collect step (``protocol``)
  with something black read it.
* ``live_nodes``, the live nodes only, serves flatten's commit path, an
  all-cyan catch-up's collect and ``atoms``/``text``, with no bookkeeping.
* ``_count``, a pre-order recount, serves ``stats``. ``recompute_counters``
  reads it too; nothing in the package calls that, and the tests use it as
  their full recount.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import insort
from enum import Enum
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import (
    IndexOutOfRange,
    InvariantViolation,
    MalformedTID,
    MissingAncestor,
    MissingTarget,
    UnknownTID,
)
from .tid import (
    ELEMENTS,
    LEFT,
    RIGHT,
    Disambiguator,
    PathElement,
    TID,
    _check_disambiguator,
    header_cost,
    selector_cost,
)


class EffectReport(Enum):
    APPLIED = "applied"
    ALREADY_PRESENT = "already_present"
    ALREADY_TOMBSTONE = "already_tombstone"


class MiniNode:
    __slots__ = (
        "disambiguator",
        "atom",
        "tombstone",
        "left",
        "right",
        "live_size",
    )

    def __init__(self, disambiguator: Disambiguator, atom: bytes):
        self.disambiguator = disambiguator
        self.atom = atom
        self.tombstone = False
        self.left: Optional[MajorNode] = None
        self.right: Optional[MajorNode] = None
        self.live_size = 1

    def __repr__(self):
        flag = "+tomb" if self.tombstone else ""
        return f"MiniNode({self.disambiguator!r}, {self.atom!r}{flag})"


class MajorNode(list):
    """One tree position: the list of its mini-nodes, sorted by disambiguator.
    Whoever links it sets ``live_size``. A node is not a value, so equality
    and hashing are by identity."""

    __slots__ = ("live_size",)
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def find(self, dis: Disambiguator) -> Optional[MiniNode]:
        for mini in self:
            if mini.disambiguator == dis:
                return mini
        return None

    def add(self, mini: MiniNode) -> None:
        insort(self, mini, key=lambda m: m.disambiguator)


class DocStats(NamedTuple):
    live_count: int
    tombstone_count: int
    max_depth: int
    mean_tid_encoded_bytes: float


class Treedoc:
    """One replica of the shared sequence.

    Single-writer: a Treedoc instance is never mutated concurrently. The
    counters (``live_count``, ``tombstone_count``, ``tid_bytes_total``) are
    maintained incrementally and must always equal a full recount; the test
    suite checks that.
    """

    __slots__ = ("root", "epoch", "live_count", "tombstone_count", "tid_bytes_total")

    def __init__(self, epoch: int = 0):
        self.root = MajorNode()
        self.root.live_size = 0
        self.epoch = epoch
        self.live_count = 0
        self.tombstone_count = 0
        self.tid_bytes_total = 0

    @property
    def node_count(self) -> int:
        return self.live_count + self.tombstone_count

    # -- resolution -------------------------------------------------------

    def _chain(self, tid: TID) -> list[MiniNode]:
        """The mini-nodes along ``tid``, root entry first, up to the first
        absent one: all ``tid.depth + 1`` of them when ``tid`` is present."""
        mini = self.root.find(tid.root_disambiguator)
        if mini is None:
            return []
        chain = [mini]
        for direction, dis in tid.path:
            major = mini.right if direction else mini.left
            if major is None:
                break
            # Most major nodes hold one mini-node.
            mini = major[0]
            if mini.disambiguator != dis:
                mini = major.find(dis)
                if mini is None:
                    break
            chain.append(mini)
        return chain

    def _resolve(self, tid: TID) -> Optional[MiniNode]:
        chain = self._chain(tid)
        return chain[-1] if len(chain) > len(tid.path) else None

    def find(self, tid: TID) -> Optional[MiniNode]:
        """The mini-node at ``tid`` (live or tombstone), or None."""
        return self._resolve(tid)

    def ancestors_exist(self, tid: TID) -> bool:
        """True when every proper ancestor of ``tid`` is present."""
        return (
            tid.root_disambiguator is not None
            and len(self._chain(tid)) >= len(tid.path)
        )

    # -- updates ----------------------------------------------------------

    def _add_live(self, chain: list[MiniNode], path: Sequence, delta: int) -> None:
        """Add ``delta`` to the root's live_size and, along ``path``, to each
        mini of ``chain`` and the major node it leads into."""
        self.root.live_size += delta
        for mini, (direction, _) in zip(chain, path):
            mini.live_size += delta
            (mini.right if direction else mini.left).live_size += delta

    def _link(self, tid: TID, chain: list[MiniNode], atom: bytes) -> None:
        """Link and count a live mini-node at the free slot ``tid``; ``chain``
        holds the mini each element of its path steps out of."""
        if tid.path:
            parent = chain[-1]
            direction, dis = tid.path[-1]
            major = parent.right if direction else parent.left
        else:
            major, dis = self.root, tid.root_disambiguator
        if major is None:
            # A fresh child slot gets exact storage, not append's four slots,
            # since flatten may reuse this major node for the document's life.
            major = MajorNode((MiniNode(dis, atom),))
            major.live_size = 0
            if direction:
                parent.right = major
            else:
                parent.left = major
        else:
            major.add(MiniNode(dis, atom))
        self._add_live(chain, tid.path, 1)
        self.tid_bytes_total += tid.encoded_size()
        self.live_count += 1

    def _tombstone(self, chain: list[MiniNode], path: Sequence) -> EffectReport:
        mini = chain[-1]
        if mini.tombstone:
            return EffectReport.ALREADY_TOMBSTONE
        mini.tombstone = True
        mini.live_size -= 1
        self._add_live(chain, path, -1)
        self.live_count -= 1
        self.tombstone_count += 1
        return EffectReport.APPLIED

    def insert(self, tid: TID, atom: bytes) -> EffectReport:
        """Create the mini-node at ``tid``; idempotent by TID.

        Raises MissingAncestor when an interior path element is absent,
        which signals a causal-delivery violation upstream.
        """
        if tid.root_disambiguator is None:
            raise MalformedTID("cannot insert at a TID without a root disambiguator")
        chain = self._chain(tid)
        depth = len(tid.path)
        if len(chain) > depth:
            return EffectReport.ALREADY_PRESENT
        if len(chain) < depth:
            raise MissingAncestor(f"{tid!r} crosses an absent mini-node")
        self._link(tid, chain, atom)
        return EffectReport.APPLIED

    def delete(self, tid: TID) -> EffectReport:
        """Tombstone the mini-node at ``tid``; structure is retained."""
        chain = self._chain(tid)
        if len(chain) <= len(tid.path):
            raise MissingTarget(f"no mini-node at {tid!r}")
        return self._tombstone(chain, tid.path)

    def insert_at(self, index: int, site: Disambiguator, atom: bytes) -> TID:
        """``insert(alloc_tid_at_position(index, site), atom)`` in one descent."""
        tid, chain = self._position_slot(index, site)
        self._link(tid, chain, atom)
        return tid

    def delete_at(self, index: int) -> TID:
        """``delete(tid_of_live_index(index))`` in one descent."""
        chain, path = self._locate(index)
        self._tombstone(chain, path)
        return TID._make(chain[0].disambiguator, tuple(path))

    # -- allocation -------------------------------------------------------

    def _free_slot(self, chain: list, path: list, direction: int, site: bytes) -> TID:
        """Fresh TID at the free slot beside ``chain[-1]`` on side ``direction``;
        extends ``chain`` and ``path`` (``chain[-1]``'s TID) down to it."""
        _check_disambiguator(site)
        elements = ELEMENTS
        major = chain[-1].right if direction else chain[-1].left
        while major is not None:
            mini = major[0]
            chain.append(mini)
            path.append(elements[mini.disambiguator][direction])
            major = mini.left
            direction = LEFT
        path.append(elements[site][direction])
        return TID._make(chain[0].disambiguator, tuple(path))

    def alloc_tid_after(self, left: TID, site: Disambiguator) -> TID:
        """Fresh TID sorting immediately after ``left``."""
        chain = self._chain(left)
        if len(chain) <= len(left.path):
            raise UnknownTID(f"{left!r} not present")
        return self._free_slot(chain, list(left.path), RIGHT, site)

    def _position_slot(self, index: int, site: Disambiguator) -> tuple[TID, list]:
        """Fresh TID between live atoms ``index - 1`` and ``index``, and the
        chain its path steps out of. Index 0 is left of the first root entry."""
        if index < 0 or index > self.live_count:
            raise IndexOutOfRange(f"position {index} outside 0..{self.live_count}")
        if index:
            chain, path = self._locate(index - 1)
            return self._free_slot(chain, path, RIGHT, site), chain
        if not self.root:
            return TID(site, ()), []
        chain = [self.root[0]]
        return self._free_slot(chain, [], LEFT, site), chain

    def alloc_tid_at_position(self, index: int, site: Disambiguator) -> TID:
        """Fresh TID between live atoms ``index - 1`` and ``index``."""
        return self._position_slot(index, site)[0]

    def _locate(self, index: int) -> tuple[list[MiniNode], list[PathElement]]:
        """The mini-nodes from the root entry down to the ``index``-th live
        atom, and the path elements below the root entry that lead to them."""
        if index < 0 or index >= self.live_count:
            raise IndexOutOfRange(f"index {index} outside {self.live_count} live atoms")
        major = self.root
        chain: list[MiniNode] = []
        path: list[PathElement] = []
        elements = ELEMENTS
        k, direction = index, None
        while True:
            for mini in major:
                left_size = mini.left.live_size if mini.left is not None else 0
                if k < left_size:
                    side = LEFT
                    break
                k -= left_size
                if not mini.tombstone:
                    if k == 0:
                        side = None
                        break
                    k -= 1
                right_size = mini.right.live_size if mini.right is not None else 0
                if k < right_size:
                    side = RIGHT
                    break
                k -= right_size
            else:
                raise InvariantViolation("live_size bookkeeping out of sync")
            if chain:
                path.append(elements[mini.disambiguator][direction])
            chain.append(mini)
            if side is None:
                return chain, path
            major = mini.right if side else mini.left
            direction = side

    def tid_of_live_index(self, index: int) -> TID:
        """TID of the ``index``-th live atom (0-based)."""
        chain, path = self._locate(index)
        return TID._make(chain[0].disambiguator, tuple(path))

    # -- traversal --------------------------------------------------------

    def iter_nodes(self) -> Iterator[tuple[MiniNode, int, Optional[int], list]]:
        """Infix traversal yielding (mini, depth, direction, path).

        ``depth`` is the path length (root entries are depth 0) and
        ``direction`` the mini's own selector direction (None at root level).
        ``path`` is the traversal's stack: ``path_tid(path)`` gives the
        mini's TID until the iteration moves on. No TID is built otherwise.
        ``path[-1][0]`` is the major node holding the mini.
        """
        if not self.root:
            return
        # Frame: [major node, index of the mini in it, direction into the
        # major node, TID prefix (root disambiguator, path elements) or None
        # until path_tid asks]. len(stack) - 1 is the depth.
        frame = [self.root, 0, None, (None, ())]
        stack: list[list] = [frame]
        push = stack.append
        pop = stack.pop
        major = frame[0][0].left
        direction: Optional[int] = LEFT
        while True:
            while major is not None:
                frame = [major, 0, direction, None]
                push(frame)
                major = major[0].left
                direction = LEFT
            mini = frame[0][frame[1]]
            yield mini, len(stack) - 1, frame[2], stack
            major = mini.right
            if major is not None:
                direction = RIGHT
                continue
            # The mini and both its subtrees are done: climb to the next one.
            while True:
                i = frame[1] + 1
                if i < len(frame[0]):
                    frame[1] = i
                    major = frame[0][i].left
                    direction = LEFT
                    break
                pop()
                if not stack:
                    return
                came_from = frame[2]
                frame = stack[-1]
                if came_from == LEFT:
                    break  # the parent's own mini is next

    def walk(self) -> Iterator[tuple[TID, MiniNode]]:
        """Infix traversal yielding (TID, mini) for every node."""
        for mini, _, _, path in self.iter_nodes():
            yield path_tid(path), mini

    def live_nodes(self) -> tuple[list[MiniNode], list[Optional[MajorNode]]]:
        """The live mini-nodes in document order, with their major nodes.

        ``owners[i]`` is the major node holding ``minis[i]`` when it holds
        nothing else, otherwise None. One pass over the tree; this is the
        collect step of flatten, so the common case (a single-mini major
        node) takes the short branch and allocates nothing.
        """
        minis: list[MiniNode] = []
        owners: list[Optional[MajorNode]] = []
        if not self.root:
            return minis, owners
        add_mini = minis.append
        add_owner = owners.append
        # Work left to do on the way back up: a single-mini MajorNode or a
        # MiniNode is ready to emit (its left subtree is done); a
        # (major, index) pair is a later mini of a shared major node, whose
        # left subtree is still to walk.
        stack: list = []
        push = stack.append
        pop = stack.pop
        major: Optional[MajorNode] = self.root
        while True:
            while major is not None:
                if len(major) == 1:
                    push(major)
                else:
                    for i in range(len(major) - 1, 0, -1):
                        push((major, i))
                    push(major[0])
                major = major[0].left
            if not stack:
                return minis, owners
            item = pop()
            cls = item.__class__
            if cls is MajorNode:
                mini = item[0]
                if not mini.tombstone:
                    add_mini(mini)
                    add_owner(item)
                major = mini.right
            elif cls is MiniNode:
                if not item.tombstone:
                    add_mini(item)
                    add_owner(None)
                major = item.right
            else:
                shared, i = item
                mini = shared[i]
                push(mini)
                major = mini.left

    def atoms(self) -> list[bytes]:
        """Live atoms in document order."""
        return [mini.atom for mini in self.live_nodes()[0]]

    def text(self) -> str:
        """The document as UTF-8 text."""
        return b"".join(self.atoms()).decode("utf-8", errors="replace")

    # -- measurement ------------------------------------------------------

    def _count(
        self, order: Optional[list[MajorNode]] = None
    ) -> tuple[int, int, int, int]:
        """(live, tombstones, max depth, TID bytes) from one pre-order pass.

        Appends every major node to ``order``, parents first, when given.
        Reads the tree and writes nothing to it.
        """
        live = tombs = max_depth = total_bytes = 0
        # Each frame carries the depth and disambiguator cost of its major
        # node's path.
        stack: list[tuple[MajorNode, int, int]] = [(self.root, 0, 0)]
        while stack:
            major, depth, cost_above = stack.pop()
            if order is not None:
                order.append(major)
            if depth > max_depth:
                max_depth = depth
            header = header_cost(depth + 1)
            for mini in major:
                if mini.tombstone:
                    tombs += 1
                else:
                    live += 1
                cost = cost_above + selector_cost(mini.disambiguator)
                total_bytes += header + cost
                if mini.left is not None:
                    stack.append((mini.left, depth + 1, cost))
                if mini.right is not None:
                    stack.append((mini.right, depth + 1, cost))
        return live, tombs, max_depth, total_bytes

    def stats(self) -> DocStats:
        """Counts from a full traversal (the honest recount)."""
        live, tombs, max_depth, total_bytes = self._count()
        count = live + tombs
        mean = total_bytes / count if count else 0.0
        return DocStats(live, tombs, max_depth, mean)

    def mean_tid_encoded_bytes(self) -> float:
        """O(1) mean from the incremental counters."""
        count = self.node_count
        return self.tid_bytes_total / count if count else 0.0

    def recompute_counters(self) -> None:
        """Rebuild live_size fields and document counters from the tree."""
        order: list[MajorNode] = []
        self.live_count, self.tombstone_count, _, self.tid_bytes_total = self._count(
            order
        )
        # Children before parents.
        for major in reversed(order):
            total = 0
            for mini in major:
                size = 0 if mini.tombstone else 1
                if mini.left is not None:
                    size += mini.left.live_size
                if mini.right is not None:
                    size += mini.right.live_size
                mini.live_size = size
                total += size
            major.live_size = total

    def counters_consistent(self) -> bool:
        s = self.stats()
        return (
            s.live_count == self.live_count
            and s.tombstone_count == self.tombstone_count
            and abs(s.mean_tid_encoded_bytes - self.mean_tid_encoded_bytes()) < 1e-9
        )

    # -- digests ----------------------------------------------------------

    def state_digest(self) -> str:
        """Digest of the epoch and the whole tree: every node's
        (disambiguator, atom) in document order, as the commit digest hashes
        them, plus one shape code per node (depth, direction, tombstone)."""
        minis: list[MiniNode] = []
        shape: list[int] = []
        for mini, depth, direction, _ in self.iter_nodes():
            minis.append(mini)
            shape.append(depth << 2 | (2 if direction else 0) | mini.tombstone)
        return flat_digest(self.epoch, minis, shape)

    def pretty(self) -> str:
        """Rendering for demos and debugging: one line per node in document
        order, indented by depth and labelled with its direction (``*`` for
        root entries)."""
        lines: list[str] = []
        for mini, depth, direction, _ in self.iter_nodes():
            label = "*" if direction is None else direction
            tag = mini.atom.decode("utf-8", errors="replace")
            marks = " tombstone" if mini.tombstone else ""
            dis = mini.disambiguator.decode("latin-1")
            lines.append(f"{'  ' * depth}{label} {tag!r} ({dis}){marks}")
        return "\n".join(lines) or "(empty)"


def path_tid(path: list) -> TID:
    """TID of the mini-node that ``iter_nodes`` yielded with ``path``.

    Each frame's prefix is filled in once, on first use, from the nearest
    frame above it that already has one.
    """
    top = len(path) - 1
    k = top
    while path[k][3] is None:
        k -= 1
    root_dis, elems = path[k][3]
    while k < top:
        parent = path[k]
        k += 1
        dis = parent[0][parent[1]].disambiguator
        if root_dis is None:
            root_dis = dis
        else:
            elems += (ELEMENTS[dis][parent[2]],)
        path[k][3] = (root_dis, elems)
    frame = path[top]
    dis = frame[0][frame[1]].disambiguator
    if root_dis is None:
        return TID._make(dis, ())
    return TID._make(root_dis, elems + (ELEMENTS[dis][frame[2]],))


def flat_digest(
    epoch: int, minis: Sequence[MiniNode], shape: Optional[Sequence[int]] = None
) -> str:
    """Digest of the epoch and the (disambiguator, atom) sequence of ``minis``,
    and of one code per node when ``shape`` is given."""
    n = len(minis)
    diss = [mini.disambiguator for mini in minis]
    atoms = [mini.atom for mini in minis]
    h = hashlib.sha256(f"flat:{epoch};{n};".encode())
    # Struct objects, not struct.pack: the module's format cache would keep
    # a compiled format alive for every document length it has seen.
    h.update(struct.Struct(f">{n}H").pack(*map(len, diss)))
    h.update(b"".join(diss))
    words = struct.Struct(f">{n}I")
    h.update(words.pack(*map(len, atoms)))
    h.update(b"".join(atoms))
    if shape is not None:
        h.update(words.pack(*shape))
    return h.hexdigest()

