"""Local restructuring: tree -> flat document -> canonical balanced tree.

Flattening collects the live atoms in document order, rebuilds them as a
deterministic balanced tree (midpoint rule, the element at index
``(lo + hi) // 2`` becomes each subtree root) and bumps the epoch.
Tombstones are dropped: an old-epoch delete aimed at one of them translates
to a no-op. The renaming of the surviving atoms needs no table: the new TID
of the ``i``-th live atom is ``balanced_tid(live, i)``, a function of ``i``
and the disambiguators alone.

There is one builder, ``build_balanced``, and it takes mini-nodes, which it
relinks in place. ``flatten_for_commit`` (the commit path) consumes its
replica: one walk gathers the live mini-nodes, and the builder relinks
those same nodes. A major node, the list of a position's minis, is reused
when it holds one; the old tree is unusable afterwards. A nebula site's catch-up
(``protocol``) relinks its replica's own cyan skeleton the same way, major
nodes included, and finds the new TID of any skeleton entry with
``balanced_tid``, which walks no tree; its black subtrees then go back in
through ``insert``.

The commit digest (``flat_digest``) is verified: the commit round compares
every member's digest with the coordinator's, and a nebula site's catch-up
compares its rebuilt cyan skeleton with the announced digest.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import MajorNode, MiniNode, Treedoc, flat_digest
from .errors import IndexOutOfRange
from .tid import ELEMENTS, LEFT, RIGHT, Disambiguator, TID, header_cost, selector_cost


def build_balanced(
    minis: list[MiniNode], owners: Optional[list[Optional[MajorNode]]] = None
) -> Treedoc:
    """Balanced tree over ``minis``, in infix order; depth floor(log2(n)).

    The mini-nodes are relinked in place: their children and live sizes are
    overwritten. ``owners[i]``, when given and not None, is a major node
    holding only ``minis[i]``; it is reused. Every other mini-node gets a
    major node of its own. Each node keeps its original disambiguator, so
    provenance and uniqueness arguments survive the rebuild.
    """
    n = len(minis)
    doc = Treedoc()
    doc.live_count = n
    if n == 0:
        return doc
    if owners is None:
        owners = [None] * n
    majors = [
        major if major is not None else MajorNode((mini,))
        for mini, major in zip(minis, owners)
    ]
    costs: dict[Disambiguator, int] = {}
    total = 0
    doc.root = majors[n // 2]
    # One tree level at a time: ``level`` holds the (lo, hi) bounds of its
    # subtrees, flattened, and the root of each is minis[(lo + hi) // 2].
    # TID bytes: every node of a level has the same header, and each node's
    # selector cost counts once per node of its subtree (all carry it).
    level = [0, n]
    pairs = 1
    while level:
        header = header_cost(pairs)
        below: list[int] = []
        add = below.append
        bounds = iter(level)
        for lo, hi in zip(bounds, bounds):
            mid = (lo + hi) // 2
            mini = minis[mid]
            size = hi - lo
            dis = mini.disambiguator
            cost = costs.get(dis)
            if cost is None:
                cost = costs[dis] = selector_cost(dis)
            total += header + cost * size
            mini.live_size = size
            majors[mid].live_size = size
            if lo < mid:
                mini.left = majors[(lo + mid) // 2]
                add(lo)
                add(mid)
            else:
                mini.left = None
            if mid + 1 < hi:
                mini.right = majors[(mid + 1 + hi) // 2]
                add(mid + 1)
                add(hi)
            else:
                mini.right = None
        level = below
        pairs += 1
    doc.tid_bytes_total = total
    return doc


def balanced_tid(minis: Sequence[MiniNode], index: int) -> TID:
    """TID of ``minis[index]`` in the tree ``build_balanced(minis)`` builds.

    The midpoint rule makes the path a function of ``index`` and
    ``len(minis)`` alone; the minis give its disambiguators.
    """
    if not 0 <= index < len(minis):
        raise IndexOutOfRange(f"index {index} outside {len(minis)} entries")
    lo, hi = 0, len(minis)
    mid = hi // 2
    root = minis[mid].disambiguator
    path = []
    while mid != index:
        if index < mid:
            hi, direction = mid, LEFT
        else:
            lo, direction = mid + 1, RIGHT
        mid = (lo + hi) // 2
        path.append(ELEMENTS[minis[mid].disambiguator][direction])
    return TID._make(root, tuple(path))


def flatten_for_commit(doc: Treedoc) -> tuple[Treedoc, str]:
    """Flatten ``doc`` into the next epoch, and the new tree's digest.

    Consumes ``doc``: its live nodes are relinked into the result. The
    digest is ``state_digest`` without the shape buffer: the balanced shape
    is a pure function of the live sequence's length, so hashing (epoch,
    sequence) pins the whole tree without a second traversal.
    """
    minis, owners = doc.live_nodes()
    new_doc = build_balanced(minis, owners)
    new_doc.epoch = doc.epoch + 1
    return new_doc, flat_digest(new_doc.epoch, minis)

