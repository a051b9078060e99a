"""Local restructuring: tree -> flat document -> canonical balanced tree.

Flattening collects the live atoms in document order, rebuilds them as a
deterministic balanced tree (midpoint rule, the element at index
``(lo + hi) // 2`` becomes each subtree root), bumps the epoch, and reports
the old-TID to new-TID renaming for the surviving atoms. Tombstones are
dropped: an old-epoch delete aimed at one of them translates to a no-op.

There is one builder, ``build_balanced``, and two ways in:

* ``flatten_for_commit`` (the commit path) consumes its replica: one walk
  gathers the live mini-nodes, and the builder relinks those same nodes,
  reusing each one's major node when it holds nothing else. The old tree
  is unusable afterwards. A nebula site's catch-up (``protocol``) relinks
  its replica's own cyan skeleton the same way, major nodes included, and
  finds the new TID of any skeleton entry with ``balanced_tid``, which
  walks no tree; its black subtrees then go back in through ``insert``.
* ``flatten_local`` and ``build_balanced`` over ``(atom, disambiguator)``
  entries leave their input untouched: they relink fresh mini-nodes.

The commit digest (``flat_digest``) is verified: the commit round compares
every member's digest with the coordinator's, and a nebula site's catch-up
compares its rebuilt cyan skeleton with the announced digest.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Union

from .core import MajorNode, MiniNode, Treedoc, flat_digest, path_tid
from .errors import IndexOutOfRange
from .tid import ELEMENTS, LEFT, RIGHT, Disambiguator, TID, header_cost, selector_cost

Entry = tuple[bytes, Disambiguator]


class FlattenResult(NamedTuple):
    new_doc: Treedoc
    mapping: dict[TID, TID]  # old live TID -> new TID, order-preserving


def build_balanced(
    entries: Union[Sequence[Entry], list[MiniNode]],
    owners: Optional[list[Optional[MajorNode]]] = None,
) -> Treedoc:
    """Balanced tree over ``entries``, in infix order; depth floor(log2(n)).

    ``entries`` are either (atom, disambiguator) pairs, which get fresh
    mini-nodes, or mini-nodes, which are relinked in place: their children
    and live sizes are overwritten. ``owners[i]``, when given and not None,
    is a major node holding only ``entries[i]``; it is reused. Every other
    mini-node gets a major node of its own. Each node keeps its original
    disambiguator, so provenance and uniqueness arguments survive the
    rebuild.
    """
    if entries and isinstance(entries[0], MiniNode):
        minis = entries
    else:
        minis = [MiniNode(dis, atom) for atom, dis in entries]
    n = len(minis)
    doc = Treedoc()
    doc.live_count = n
    if n == 0:
        return doc
    if owners is None:
        owners = [None] * n
    majors = [
        major if major is not None else MajorNode([mini])
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


def flatten_local(doc: Treedoc) -> FlattenResult:
    """Flatten one replica and report the live-TID renaming.

    ``doc`` is left as it was. Deterministic: structurally equal replicas
    produce structurally equal results, which is what lets every core site
    flatten independently after a commit without exchanging state.
    """
    live = [(path_tid(p), m) for m, _, _, p in doc.iter_nodes() if not m.tombstone]
    new_doc = build_balanced([(m.atom, m.disambiguator) for _, m in live])
    new_doc.epoch = doc.epoch + 1
    new_tids = (tid for tid, _ in new_doc.walk())
    return FlattenResult(new_doc, {old: new for (old, _), new in zip(live, new_tids)})


def flatten_for_commit(doc: Treedoc) -> tuple[Treedoc, str]:
    """The flatten_local rebuild without the mapping, plus its digest.

    Consumes ``doc``: its live nodes are relinked into the result. The
    digest is ``state_digest`` without the shape buffer: the balanced shape
    is a pure function of the live sequence's length, so hashing (epoch,
    sequence) pins the whole tree without a second traversal.
    """
    minis, owners = doc.live_nodes()
    new_doc = build_balanced(minis, owners)
    new_doc.epoch = doc.epoch + 1
    return new_doc, flat_digest(new_doc.epoch, minis)

