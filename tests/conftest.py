from random import Random

import pytest

from treedoc import LEFT, RIGHT, TID, PathElement, Treedoc
from treedoc.core import MajorNode, MiniNode

A = b"A"

# The running example: a six-atom document reading "abcdef" whose TIDs are
# bare bit paths under one site. "c" sits at the root (empty path), "b" at 0,
# "d" at 10.
ABCDEF_PATHS = {
    "c": (),
    "b": (0,),
    "e": (1,),
    "a": (0, 0),
    "d": (1, 0),
    "f": (1, 1),
}
ABCDEF_INSERT_ORDER = ["c", "b", "e", "a", "d", "f"]


def tid(bits, root=A, dis=A) -> TID:
    """TID from bare direction bits with one shared disambiguator."""
    return TID(root, tuple(PathElement(b, dis) for b in bits))


def build_abcdef() -> Treedoc:
    doc = Treedoc()
    for atom in ABCDEF_INSERT_ORDER:
        doc.insert(tid(ABCDEF_PATHS[atom]), atom.encode())
    return doc


@pytest.fixture
def abcdef_doc() -> Treedoc:
    return build_abcdef()


SITES = (b"A", b"B", b"C")


def random_doc(rng: Random, n_ops: int, delete_ratio: float = 0.3) -> Treedoc:
    """A document grown by random position-based edits from several sites."""
    doc = Treedoc()
    for _ in range(n_ops):
        live = doc.live_count
        if live > 0 and rng.random() < delete_ratio:
            doc.delete(doc.tid_of_live_index(rng.randrange(live)))
        else:
            site = SITES[rng.randrange(len(SITES))]
            t = doc.alloc_tid_at_position(rng.randint(0, live), site)
            doc.insert(t, bytes([97 + rng.randrange(26)]))
    return doc


MULTISITE_SITES = (b"A", b"B", b"C", b"long-site")


def multisite_doc(rng: Random, n_ops: int, delete_ratio: float = 0.3) -> Treedoc:
    """Random inserts at free child slots from several sites, so that many
    major nodes hold several mini-nodes (as concurrent inserts leave them)."""
    doc = Treedoc()
    tids = []
    for _ in range(n_ops):
        if tids and rng.random() < delete_ratio:
            doc.delete(tids[rng.randrange(len(tids))])
            continue
        site = MULTISITE_SITES[rng.randrange(len(MULTISITE_SITES))]
        if not tids or rng.random() < 0.05:
            new = TID(site)
        else:
            new = tids[rng.randrange(len(tids))].child(rng.choice((LEFT, RIGHT)), site)
        doc.insert(new, bytes([97 + rng.randrange(26)]) * rng.randint(1, 3))
        tids.append(new)
    return doc


def deep_spine_doc(n: int) -> Treedoc:
    doc = Treedoc()
    cur = TID(b"A")
    doc.insert(cur, b"x")
    for i in range(n - 1):
        cur = doc.alloc_tid_after(cur, b"A")
        doc.insert(cur, b"%d" % i)
    return doc


def clone(doc: Treedoc) -> Treedoc:
    """A copy of ``doc``'s tree and counters, node for node, built without
    recursion (``copy.deepcopy`` recurses once per tree level)."""
    new = Treedoc(doc.epoch)
    new.live_count = doc.live_count
    new.tombstone_count = doc.tombstone_count
    new.tid_bytes_total = doc.tid_bytes_total
    stack = [(doc.root, new.root)]
    while stack:
        old, copy = stack.pop()
        copy.live_size = old.live_size
        for mini in old:
            twin = MiniNode(mini.disambiguator, mini.atom)
            twin.tombstone = mini.tombstone
            twin.live_size = mini.live_size
            if mini.left is not None:
                twin.left = MajorNode()
                stack.append((mini.left, twin.left))
            if mini.right is not None:
                twin.right = MajorNode()
                stack.append((mini.right, twin.right))
            copy.append(twin)
    return new
