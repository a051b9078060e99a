import copy
import math
from random import Random

from treedoc import TID, Treedoc, build_balanced
from treedoc.core import MiniNode
from treedoc.flatten import balanced_tid, flatten_for_commit

from conftest import random_doc, tid


def _minis(text: str, dis=b"A"):
    return [MiniNode(dis, ch.encode()) for ch in text]


def test_build_balanced_empty():
    doc = build_balanced([])
    assert doc.text() == ""
    assert doc.live_count == 0


def test_build_balanced_abcdef_shape():
    doc = build_balanced(_minis("abcdef"))
    assert doc.text() == "abcdef"
    root_mini = doc.root[0]
    assert root_mini.atom == b"d"  # midpoint at index n // 2
    stats = doc.stats()
    # three node levels for six atoms: ceil(log2(7)); paths are two deep
    assert stats.max_depth == 2
    assert stats.max_depth + 1 == math.ceil(math.log2(7))


def test_build_balanced_properties():
    rng = Random(5)
    for n in range(1, 65):
        text = "".join(chr(97 + rng.randrange(26)) for _ in range(n))
        doc = build_balanced(_minis(text))
        assert doc.text() == text
        levels = doc.stats().max_depth + 1
        assert levels <= math.ceil(math.log2(n + 1))
        assert doc.counters_consistent()


def test_build_balanced_keeps_disambiguators():
    entries = [(b"x", b"A"), (b"y", b"B"), (b"z", b"C")]
    doc = build_balanced([MiniNode(dis, atom) for atom, dis in entries])
    got = [(m.atom, m.disambiguator) for m, _, _, _ in doc.iter_nodes()]
    assert got == entries


def test_flatten_drops_tombstones(abcdef_doc):
    abcdef_doc.delete(tid((0,)))  # b
    abcdef_doc.delete(tid((1, 0)))  # d
    epoch = abcdef_doc.epoch
    new_doc, _ = flatten_for_commit(abcdef_doc)
    assert new_doc.text() == "acef"
    stats = new_doc.stats()
    assert stats.live_count == 4
    assert stats.tombstone_count == 0
    assert new_doc.epoch == epoch + 1


def test_flatten_single_atom_doc():
    doc = Treedoc()
    doc.insert(TID(b"A"), b"x")
    new_doc, _ = flatten_for_commit(doc)
    assert new_doc.epoch == 1
    assert new_doc.text() == "x"
    # same shape as before, one level up in epoch
    assert [m.atom for m, _, _, _ in new_doc.iter_nodes()] == [b"x"]


def test_flatten_deep_spine_compacts():
    doc = Treedoc()
    cur = TID(b"A")
    doc.insert(cur, b"x")
    for _ in range(999):
        cur = doc.alloc_tid_after(cur, b"A")
        doc.insert(cur, b"x")
    new_doc, _ = flatten_for_commit(doc)
    assert new_doc.stats().max_depth <= 10
    assert new_doc.live_count == 1000


def test_mapping_is_an_order_preserving_bijection(abcdef_doc):
    # The renaming takes the i-th old live TID to balanced_tid(live, i).
    abcdef_doc.delete(tid((0, 0)))  # drop "a"; the renaming covers live atoms only
    old_live = [t for t, m in abcdef_doc.walk() if not m.tombstone]
    twin = copy.deepcopy(abcdef_doc)
    live = twin.live_nodes()[0]
    new_doc, _ = flatten_for_commit(twin)
    new_live = [balanced_tid(live, i) for i in range(len(live))]
    assert len(old_live) == len(new_live) == 5
    for old, new in zip(old_live, new_live):
        assert new_doc.find(new).atom == abcdef_doc.find(old).atom
    assert old_live == sorted(old_live)
    assert new_live == sorted(new_live) == [t for t, _ in new_doc.walk()]
    assert len(set(new_live)) == len(new_live)


def test_flatten_preserves_content():
    rng = Random(13)
    for _ in range(20):
        doc = random_doc(rng, rng.randint(0, 120), delete_ratio=0.4)
        text = doc.text()
        new_doc, _ = flatten_for_commit(doc)
        assert new_doc.text() == text
        assert new_doc.counters_consistent()


def test_flatten_is_deterministic():
    rng = Random(19)
    doc = random_doc(rng, 70, delete_ratio=0.3)
    twin = copy.deepcopy(doc)
    a, a_digest = flatten_for_commit(doc)
    b, b_digest = flatten_for_commit(twin)
    assert a_digest == b_digest
    assert a.state_digest() == b.state_digest()
    assert [t for t, _ in a.walk()] == [t for t, _ in b.walk()]


def test_flatten_compacts_tid_encoding():
    # Uniform one-byte site ids: mean encoded TID size never grows across a
    # flatten of a tree that has tombstones or is deeper than balanced.
    rng = Random(37)
    checked = 0
    while checked < 30:
        doc = random_doc(rng, rng.randint(2, 150), delete_ratio=0.4)
        stats = doc.stats()
        n = stats.live_count
        unbalanced = stats.max_depth + 1 > math.ceil(math.log2(n + 1)) if n else False
        if stats.tombstone_count == 0 and not unbalanced:
            continue
        new_doc, _ = flatten_for_commit(doc)
        assert new_doc.stats().mean_tid_encoded_bytes <= stats.mean_tid_encoded_bytes
        checked += 1
