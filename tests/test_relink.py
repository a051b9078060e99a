"""The relinking flatten against a reference rebuild.

``reference_flatten`` is the straightforward builder: it copies the live
(atom, disambiguator) sequence into fresh nodes by midpoint recursion and
sums the TID bytes node by node. The commit path relinks the old tree's own
nodes instead; both must give the same tree, digest and counters.
"""

import gc
import sys
import tracemalloc
from random import Random

import pytest

from treedoc import TID, Treedoc
from treedoc.core import MajorNode, MiniNode
from treedoc.flatten import build_balanced, flat_digest, flatten_for_commit
from treedoc.tid import RIGHT, _varint_len, selector_cost

from conftest import clone, deep_spine_doc, multisite_doc, random_doc


def reference_flatten(doc: Treedoc) -> Treedoc:
    entries = [
        (mini.atom, mini.disambiguator)
        for _, mini in doc.walk()
        if not mini.tombstone
    ]
    out = Treedoc(doc.epoch + 1)
    total = [0]
    major = _build_major(entries, 0, len(entries), 1, 0, total)
    if major is not None:
        out.root = major
    out.live_count = len(entries)
    out.tid_bytes_total = total[0]
    return out


def _build_major(entries, lo, hi, pairs, base_cost, total):
    if lo >= hi:
        return None
    mid = (lo + hi) // 2
    atom, dis = entries[mid]
    cost = base_cost + selector_cost(dis)
    total[0] += _varint_len(pairs) + (pairs + 7) // 8 + cost
    mini = MiniNode(dis, atom)
    mini.left = _build_major(entries, lo, mid, pairs + 1, cost, total)
    mini.right = _build_major(entries, mid + 1, hi, pairs + 1, cost, total)
    mini.live_size = hi - lo
    major = MajorNode([mini])
    major.live_size = hi - lo
    return major


def _sizes(doc: Treedoc) -> list:
    """live_size of every major and mini node, in a fixed pre-order."""
    out = []
    stack = [doc.root]
    while stack:
        major = stack.pop()
        out.append(("major", major.live_size, len(major)))
        for mini in major:
            out.append(("mini", mini.live_size))
            for child in (mini.left, mini.right):
                if child is not None:
                    stack.append(child)
    return out


def _one_atom() -> Treedoc:
    doc = Treedoc()
    doc.insert(TID(b"A"), b"x")
    return doc


def _all_dead() -> Treedoc:
    doc = random_doc(Random(4), 40, delete_ratio=0.0)
    while doc.live_count:
        doc.delete(doc.tid_of_live_index(0))
    return doc


def _random(seed: int) -> Treedoc:
    rng = Random(seed)
    return random_doc(rng, rng.randint(0, 200), delete_ratio=rng.random() * 0.6)


def _multisite(seed: int) -> Treedoc:
    rng = Random(seed)
    return multisite_doc(rng, rng.randint(1, 250), delete_ratio=rng.random() * 0.5)


# Each case builds its document afresh: the commit path consumes it.
CASES = (
    [("empty", Treedoc), ("one-atom", _one_atom), ("all-dead", _all_dead)]
    + [("deep-spine", lambda: deep_spine_doc(1500))]
    + [(f"random-{s}", lambda s=s: _random(s)) for s in range(20)]
    + [(f"multisite-{s}", lambda s=s: _multisite(s)) for s in range(20)]
)
CASE_IDS = [name for name, _ in CASES]


def test_multisite_docs_share_major_nodes():
    doc = multisite_doc(Random(3), 200)
    counts = []
    stack = [doc.root]
    while stack:
        major = stack.pop()
        counts.append(len(major))
        for mini in major:
            stack.extend(c for c in (mini.left, mini.right) if c is not None)
    assert max(counts) >= 3


@pytest.mark.parametrize("make", [make for _, make in CASES], ids=CASE_IDS)
def test_commit_flatten_matches_reference(make):
    doc = make()
    expected = reference_flatten(doc)
    text = doc.text()
    new_doc, digest = flatten_for_commit(doc)  # consumes doc
    assert new_doc.text() == text
    assert new_doc.state_digest() == expected.state_digest()
    assert new_doc.tid_bytes_total == expected.tid_bytes_total
    assert new_doc.live_count == expected.live_count
    assert new_doc.tombstone_count == 0
    assert new_doc.counters_consistent()
    assert _sizes(new_doc) == _sizes(expected)
    fresh = [m for m, _, _, _ in expected.iter_nodes()]
    assert digest == flat_digest(expected.epoch, fresh)


def test_build_balanced_entries_match_reference():
    rng = Random(12)
    for _ in range(20):
        doc = multisite_doc(rng, rng.randint(0, 120))
        live = [m for _, m in doc.walk() if not m.tombstone]
        built = build_balanced([MiniNode(m.disambiguator, m.atom) for m in live])
        built.epoch = doc.epoch + 1
        expected = reference_flatten(doc)
        assert built.state_digest() == expected.state_digest()
        assert built.tid_bytes_total == expected.tid_bytes_total
        assert _sizes(built) == _sizes(expected)


def test_commit_flatten_reuses_single_mini_majors():
    doc = random_doc(Random(5), 300, delete_ratio=0.2)
    owners = {id(m): mj for m, mj in zip(*doc.live_nodes()) if mj is not None}
    live = {id(m) for m in doc.live_nodes()[0]}
    new_doc, _ = flatten_for_commit(doc)
    stack = [new_doc.root]
    reused = 0
    while stack:
        major = stack.pop()
        (mini,) = major
        assert id(mini) in live  # the old node, relinked
        if owners.get(id(mini)) is major:
            reused += 1
        stack.extend(c for c in (mini.left, mini.right) if c is not None)
    assert reused == len(owners) > 0


@pytest.mark.parametrize("make", [make for _, make in CASES], ids=CASE_IDS)
def test_flatten_local_leaves_its_input_alone(make):
    # The commit flatten of a copy touches nothing of the original.
    doc = make()
    before = doc.state_digest()
    sizes = _sizes(doc)
    new_doc, _ = flatten_for_commit(clone(doc))
    assert doc.state_digest() == before
    assert _sizes(doc) == sizes
    assert doc.counters_consistent()
    assert new_doc.state_digest() == reference_flatten(doc).state_digest()


def test_build_balanced_leaves_entries_alone():
    # Relinking rewrites the minis' links, never their values.
    entries = [(b"x", b"A"), (b"y", b"B"), (b"z", b"C")]
    minis = [MiniNode(dis, atom) for atom, dis in entries]
    a = build_balanced(minis)
    assert [(m.atom, m.disambiguator, m.tombstone) for m in minis] == [
        (atom, dis, False) for atom, dis in entries
    ]
    b = build_balanced([MiniNode(dis, atom) for atom, dis in entries])
    assert a.state_digest() == b.state_digest()
    assert a.root[0] is minis[1] is not b.root[0]


def test_live_nodes_orders_shared_majors():
    doc = multisite_doc(Random(9), 150)
    minis, owners = doc.live_nodes()
    walked = [m for _, m in doc.walk() if not m.tombstone]
    assert [id(m) for m in minis] == [id(m) for m in walked]
    for mini, owner in zip(minis, owners):
        if owner is not None:
            assert list(owner) == [mini]
    assert doc.atoms() == [m.atom for m in walked]


def test_insert_gives_new_major_an_exact_list():
    doc = Treedoc()
    doc.insert(TID(b"A"), b"a")
    child = TID(b"A").child(RIGHT, b"A")
    doc.insert(child, b"b")
    major = doc.root[0].right
    assert list(major) == [doc.find(child)]
    # Exact storage, which list() rounds up to two item pointers (one
    # 16-byte allocator class); append or insort would allocate four.
    item = sys.getsizeof([None]) - sys.getsizeof([])
    assert sys.getsizeof(major) - sys.getsizeof(MajorNode()) <= 2 * item
    assert major.live_size == 1
    assert doc.root.live_size == 2
    assert doc.counters_consistent()


def test_a_position_costs_one_mini_and_one_major_node():
    # The layout guard: a tree position holds a MiniNode and a MajorNode that
    # is itself the list of its minis, and nothing else. The bound comes from
    # the running interpreter's object sizes, plus 16 B of slack. A full
    # collection empties the free lists, which would hold freed path tuples.
    atoms = [bytes([97 + i]) for i in range(26)]
    rng = Random(7)
    doc = Treedoc()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(4000):
            live = doc.live_count
            if live and rng.random() < 0.3:
                doc.delete_at(rng.randrange(live))
            else:
                site = (b"A", b"B", b"C")[rng.randrange(3)]
                doc.insert_at(rng.randint(0, live), site, atoms[rng.randrange(26)])
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    mini = MiniNode(b"A", b"a")
    bound = sys.getsizeof(mini) + sys.getsizeof(MajorNode((mini,))) + 16
    assert used / doc.node_count <= bound
