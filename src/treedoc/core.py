"""The replica: a tree of major nodes holding per-site mini-nodes.

A major node groups the mini-nodes that share one tree position; inside it
they are kept sorted by disambiguator. Each mini-node owns its atom slot,
its tombstone flag and its own left/right child major nodes. The document
is the infix traversal of the live mini-nodes.

All traversals are iterative: degenerate trees (right spines thousands of
nodes deep) are a normal workload here and would blow the recursion limit.

Every mini-node and major node carries ``live_size``, the number of live
atoms in its subtree, so position lookups and allocations run in O(depth).
"""

from __future__ import annotations

import hashlib
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .errors import (
    IndexOutOfRange,
    InvariantViolation,
    MalformedTID,
    MissingAncestor,
    MissingTarget,
    UnknownTID,
)
from .tid import (
    LEFT,
    RIGHT,
    Disambiguator,
    PathElement,
    TID,
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

    def child(self, direction: int) -> Optional["MajorNode"]:
        return self.right if direction else self.left

    def set_child(self, direction: int, major: "MajorNode") -> None:
        if direction:
            self.right = major
        else:
            self.left = major

    def __repr__(self):
        flag = "+tomb" if self.tombstone else ""
        return f"MiniNode({self.disambiguator!r}, {self.atom!r}{flag})"


class MajorNode:
    __slots__ = ("minis", "live_size")

    def __init__(self, minis: Optional[list[MiniNode]] = None):
        # live_size is maintained by whoever mutates the tree, not here.
        self.minis: list[MiniNode] = minis if minis is not None else []
        self.live_size = 0

    def find(self, dis: Disambiguator) -> Optional[MiniNode]:
        for mini in self.minis:
            if mini.disambiguator == dis:
                return mini
        return None

    def add(self, mini: MiniNode) -> None:
        insort(self.minis, mini, key=lambda m: m.disambiguator)


@dataclass(frozen=True)
class DocStats:
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
        self.epoch = epoch
        self.live_count = 0
        self.tombstone_count = 0
        self.tid_bytes_total = 0

    @property
    def node_count(self) -> int:
        return self.live_count + self.tombstone_count

    # -- resolution -------------------------------------------------------

    def _resolve(self, tid: TID) -> Optional[MiniNode]:
        if tid.root_disambiguator is None:
            return None
        mini = self.root.find(tid.root_disambiguator)
        if mini is None:
            return None
        for direction, dis in tid.path:
            major = mini.child(direction)
            if major is None:
                return None
            mini = major.find(dis)
            if mini is None:
                return None
        return mini

    def find(self, tid: TID) -> Optional[MiniNode]:
        """The mini-node at ``tid`` (live or tombstone), or None."""
        return self._resolve(tid)

    def ancestors_exist(self, tid: TID) -> bool:
        """True when every proper ancestor of ``tid`` is present."""
        if tid.root_disambiguator is None:
            return False
        if not tid.path:
            return True
        mini = self.root.find(tid.root_disambiguator)
        if mini is None:
            return False
        for direction, dis in tid.path[:-1]:
            major = mini.child(direction)
            if major is None:
                return False
            mini = major.find(dis)
            if mini is None:
                return False
        return True

    # -- updates ----------------------------------------------------------

    def insert(self, tid: TID, atom: bytes) -> EffectReport:
        """Create the mini-node at ``tid``; idempotent by TID.

        Raises MissingAncestor when an interior path element is absent,
        which signals a causal-delivery violation upstream.
        """
        if tid.root_disambiguator is None:
            raise MalformedTID("cannot insert at a TID without a root disambiguator")
        chain_minis: list[MiniNode] = []
        chain_majors: list[MajorNode] = [self.root]
        major = self.root
        mini = major.find(tid.root_disambiguator)
        if tid.path:
            if mini is None:
                raise MissingAncestor(f"no mini-node for root entry of {tid!r}")
            chain_minis.append(mini)
            for direction, dis in tid.path[:-1]:
                major = mini.child(direction)
                if major is None:
                    raise MissingAncestor(f"{tid!r} crosses an absent subtree")
                mini = major.find(dis)
                if mini is None:
                    raise MissingAncestor(f"{tid!r} crosses an absent mini-node")
                chain_minis.append(mini)
                chain_majors.append(major)
            direction, dis = tid.path[-1]
            major = mini.child(direction)
            chain_majors.append(major)
            target_dis = dis
        else:
            target_dis = tid.root_disambiguator
        if major is None:
            # A fresh child slot: an exact-size list, since flatten may reuse
            # this major node for the lifetime of the document.
            node = MiniNode(target_dis, atom)
            major = MajorNode([node])
            mini.set_child(direction, major)
            chain_majors[-1] = major
        elif major.find(target_dis) is not None:
            return EffectReport.ALREADY_PRESENT
        else:
            node = MiniNode(target_dis, atom)
            major.add(node)
        for m in chain_minis:
            m.live_size += 1
        for mj in chain_majors:
            mj.live_size += 1
        self.live_count += 1
        self.tid_bytes_total += tid.encoded_size()
        return EffectReport.APPLIED

    def delete(self, tid: TID) -> EffectReport:
        """Tombstone the mini-node at ``tid``; structure is retained."""
        if tid.root_disambiguator is None:
            raise MissingTarget(f"{tid!r} has no root disambiguator")
        chain_minis: list[MiniNode] = []
        chain_majors: list[MajorNode] = [self.root]
        major = self.root
        mini = major.find(tid.root_disambiguator)
        if mini is None:
            raise MissingTarget(f"no mini-node at {tid!r}")
        chain_minis.append(mini)
        for direction, dis in tid.path:
            major = mini.child(direction)
            if major is None:
                raise MissingTarget(f"no mini-node at {tid!r}")
            mini = major.find(dis)
            if mini is None:
                raise MissingTarget(f"no mini-node at {tid!r}")
            chain_minis.append(mini)
            chain_majors.append(major)
        if mini.tombstone:
            return EffectReport.ALREADY_TOMBSTONE
        mini.tombstone = True
        for m in chain_minis:
            m.live_size -= 1
        for mj in chain_majors:
            mj.live_size -= 1
        self.live_count -= 1
        self.tombstone_count += 1
        return EffectReport.APPLIED

    # -- allocation -------------------------------------------------------

    def alloc_tid_after(self, left: TID, site: Disambiguator) -> TID:
        """Fresh TID sorting immediately after ``left``.

        The right-insert rule: extend ``left`` with a right step when it has
        no right child, otherwise take the leftmost free slot of its right
        subtree.
        """
        mini = self._resolve(left)
        if mini is None:
            raise UnknownTID(f"{left!r} not present")
        if mini.right is None:
            return left.child(RIGHT, site)
        elems = list(left.path)
        major = mini.right
        direction = RIGHT
        while True:
            first = major.minis[0]
            elems.append(PathElement(direction, first.disambiguator))
            if first.left is None:
                elems.append(PathElement(LEFT, site))
                return TID._make(left.root_disambiguator, tuple(elems))
            major = first.left
            direction = LEFT

    def alloc_tid_at_position(self, index: int, site: Disambiguator) -> TID:
        """Fresh TID between live atoms ``index - 1`` and ``index``.

        Index 0 allocates before everything: the leftmost free slot of the
        whole tree (mirror image of the right-insert rule).
        """
        if index < 0 or index > self.live_count:
            raise IndexOutOfRange(
                f"position {index} outside live document of {self.live_count}"
            )
        if index == 0:
            if not self.root.minis:
                return TID(site, ())
            major = self.root
            root_dis: Optional[Disambiguator] = None
            elems: list[PathElement] = []
            direction = LEFT
            while True:
                first = major.minis[0]
                if root_dis is None:
                    root_dis = first.disambiguator
                else:
                    elems.append(PathElement(direction, first.disambiguator))
                if first.left is None:
                    elems.append(PathElement(LEFT, site))
                    return TID._make(root_dis, tuple(elems))
                major = first.left
        return self.alloc_tid_after(self.tid_of_live_index(index - 1), site)

    def tid_of_live_index(self, index: int) -> TID:
        """TID of the ``index``-th live atom (0-based)."""
        if index < 0 or index >= self.live_count:
            raise IndexOutOfRange(
                f"index {index} outside live document of {self.live_count}"
            )
        major = self.root
        root_dis: Optional[Disambiguator] = None
        elems: list[PathElement] = []
        direction: Optional[int] = None
        k = index
        while True:
            descended = False
            for mini in major.minis:
                left_size = mini.left.live_size if mini.left is not None else 0
                if k < left_size:
                    root_dis = _select(elems, root_dis, direction, mini.disambiguator)
                    major = mini.left
                    direction = LEFT
                    descended = True
                    break
                k -= left_size
                if not mini.tombstone:
                    if k == 0:
                        if root_dis is None:
                            return TID._make(mini.disambiguator, ())
                        elems.append(PathElement(direction, mini.disambiguator))
                        return TID._make(root_dis, tuple(elems))
                    k -= 1
                right_size = mini.right.live_size if mini.right is not None else 0
                if k < right_size:
                    root_dis = _select(elems, root_dis, direction, mini.disambiguator)
                    major = mini.right
                    direction = RIGHT
                    descended = True
                    break
                k -= right_size
            if not descended:
                raise InvariantViolation("live_size bookkeeping out of sync")

    # -- traversal --------------------------------------------------------

    def iter_nodes(self) -> Iterator[tuple[MiniNode, int, Optional[int], int]]:
        """Infix traversal yielding (mini, depth, direction, dis_cost).

        ``depth`` is the path length (root entries are depth 0), ``direction``
        the mini's own selector direction (None at root level), ``dis_cost``
        the encoded cost of all disambiguators on its TID. No TID objects are
        built, which keeps full-tree passes cheap.
        """
        if not self.root.minis:
            return
        # Frame: [major, mini_index, stage, entry_direction, cost_above].
        stack: list[list] = [[self.root, 0, 0, None, 0]]
        while stack:
            frame = stack[-1]
            major, idx, stage = frame[0], frame[1], frame[2]
            if idx >= len(major.minis):
                stack.pop()
                continue
            mini = major.minis[idx]
            cost = frame[4] + selector_cost(mini.disambiguator)
            if stage == 0:
                frame[2] = 1
                if mini.left is not None:
                    stack.append([mini.left, 0, 0, LEFT, cost])
                    continue
            if frame[2] == 1:
                frame[2] = 2
                yield mini, len(stack) - 1, frame[3], cost
                if mini.right is not None:
                    stack.append([mini.right, 0, 0, RIGHT, cost])
                    continue
            frame[1] += 1
            frame[2] = 0

    def walk(self) -> Iterator[tuple[TID, MiniNode]]:
        """Infix traversal yielding (TID, mini) for every node."""
        if not self.root.minis:
            return
        # Frame: [major, mini_index, stage, direction, root_dis, elems_tuple].
        stack: list[list] = [[self.root, 0, 0, None, None, ()]]
        while stack:
            frame = stack[-1]
            major, idx = frame[0], frame[1]
            if idx >= len(major.minis):
                stack.pop()
                continue
            mini = major.minis[idx]
            if frame[2] == 0:
                frame[2] = 1
                if mini.left is not None:
                    root_dis, elems = _extend(frame, mini)
                    stack.append([mini.left, 0, 0, LEFT, root_dis, elems])
                    continue
            if frame[2] == 1:
                frame[2] = 2
                root_dis, elems = _extend(frame, mini)
                yield TID._make(root_dis, elems), mini
                if mini.right is not None:
                    stack.append([mini.right, 0, 0, RIGHT, root_dis, elems])
                    continue
            frame[1] += 1
            frame[2] = 0

    def live_nodes(self) -> tuple[list[MiniNode], list[Optional[MajorNode]]]:
        """The live mini-nodes in document order, with their major nodes.

        ``owners[i]`` is the major node holding ``minis[i]`` when it holds
        nothing else, otherwise None. One pass over the tree; this is the
        collect step of flatten, so the common case (a single-mini major
        node) takes the short branch and allocates nothing.
        """
        minis: list[MiniNode] = []
        owners: list[Optional[MajorNode]] = []
        if not self.root.minis:
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
                ms = major.minis
                if len(ms) == 1:
                    push(major)
                else:
                    for i in range(len(ms) - 1, 0, -1):
                        push((major, i))
                    push(ms[0])
                major = ms[0].left
            if not stack:
                return minis, owners
            item = pop()
            cls = item.__class__
            if cls is MajorNode:
                mini = item.minis[0]
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
                mini = shared.minis[i]
                push(mini)
                major = mini.left

    def atoms(self) -> list[bytes]:
        """Live atoms in document order."""
        return [mini.atom for mini in self.live_nodes()[0]]

    def text(self) -> str:
        """The document as UTF-8 text."""
        return b"".join(self.atoms()).decode("utf-8", errors="replace")

    # -- measurement ------------------------------------------------------

    def stats(self) -> DocStats:
        """Counts from a full traversal (the honest recount)."""
        live = 0
        tombs = 0
        max_depth = 0
        total_bytes = 0
        for mini, depth, _, dis_cost in self.iter_nodes():
            if mini.tombstone:
                tombs += 1
            else:
                live += 1
            if depth > max_depth:
                max_depth = depth
            total_bytes += header_cost(depth + 1) + dis_cost
        count = live + tombs
        mean = total_bytes / count if count else 0.0
        return DocStats(live, tombs, max_depth, mean)

    def mean_tid_encoded_bytes(self) -> float:
        """O(1) mean from the incremental counters."""
        count = self.node_count
        return self.tid_bytes_total / count if count else 0.0

    def recompute_counters(self) -> None:
        """Rebuild live_size fields and document counters from the tree."""
        live = 0
        tombs = 0
        total_bytes = 0
        # One pre-order pass counts nodes and TID bytes; each frame carries
        # the depth and disambiguator cost of its major node's path. Live
        # sizes are then summed over the major nodes in reverse, children
        # before parents.
        stack: list[tuple[MajorNode, int, int]] = [(self.root, 0, 0)]
        order: list[MajorNode] = []
        while stack:
            major, depth, cost_above = stack.pop()
            order.append(major)
            header = header_cost(depth + 1)
            for mini in major.minis:
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
        for major in reversed(order):
            total = 0
            for mini in major.minis:
                size = 0 if mini.tombstone else 1
                if mini.left is not None:
                    size += mini.left.live_size
                if mini.right is not None:
                    size += mini.right.live_size
                mini.live_size = size
                total += size
            major.live_size = total
        self.live_count = live
        self.tombstone_count = tombs
        self.tid_bytes_total = total_bytes

    def counters_consistent(self) -> bool:
        s = self.stats()
        return (
            s.live_count == self.live_count
            and s.tombstone_count == self.tombstone_count
            and abs(s.mean_tid_encoded_bytes - self.mean_tid_encoded_bytes()) < 1e-9
        )

    # -- equality and digests ----------------------------------------------

    def _canonical_records(self) -> Iterator[tuple]:
        for mini, depth, direction, _ in self.iter_nodes():
            yield (
                depth,
                -1 if direction is None else direction,
                mini.disambiguator,
                mini.tombstone,
                mini.atom,
            )

    def structurally_equal(self, other: "Treedoc") -> bool:
        """Same epoch and identical tree values."""
        if self.epoch != other.epoch:
            return False
        a = self._canonical_records()
        b = other._canonical_records()
        for ra, rb in zip(a, b):
            if ra != rb:
                return False
        return next(a, None) is None and next(b, None) is None

    def state_digest(self) -> str:
        """Deterministic digest of epoch plus the full tree contents."""
        h = hashlib.sha256()
        h.update(f"epoch:{self.epoch};".encode())
        for depth, direction, dis, tomb, atom in self._canonical_records():
            h.update(f"{depth}:{direction}:".encode())
            h.update(dis)
            h.update(b"\x01" if tomb else b"\x00")
            h.update(len(atom).to_bytes(4, "big"))
            h.update(atom)
        return h.hexdigest()

    def pretty(self) -> str:
        """Indented rendering for demos and debugging."""
        if not self.root.minis:
            return "(empty)"
        lines: list[str] = []
        # Pre-order with explicit stack; children labeled by direction.
        stack: list[tuple[MajorNode, int, str]] = [(self.root, 0, "*")]
        while stack:
            major, indent, label = stack.pop()
            for mini in reversed(major.minis):
                tag = mini.atom.decode("utf-8", errors="replace")
                marks = " tombstone" if mini.tombstone else ""
                dis = mini.disambiguator.decode("latin-1")
                lines.append(f"{'  ' * indent}{label} {tag!r} ({dis}){marks}")
                if mini.right is not None:
                    stack.append((mini.right, indent + 1, "1"))
                if mini.left is not None:
                    stack.append((mini.left, indent + 1, "0"))
        return "\n".join(lines)


def _select(
    elems: list[PathElement],
    root_dis: Optional[Disambiguator],
    direction: Optional[int],
    dis: Disambiguator,
) -> Disambiguator:
    # Record the selector for a mini we are descending through.
    if root_dis is None:
        return dis
    elems.append(PathElement(direction, dis))
    return root_dis


def _extend(frame: list, mini: MiniNode) -> tuple[Disambiguator, tuple]:
    # Selector list for `mini` given its major's frame.
    if frame[4] is None:
        return mini.disambiguator, ()
    return frame[4], frame[5] + (PathElement(frame[3], mini.disambiguator),)
