import copy
import pickle
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from treedoc import (
    LEFT, RIGHT, TID, DeliverResult, MalformedTID, OpKind, PathElement, Role, Site,
    Treedoc, compare_tid, sim,
)
from treedoc import tid as tid_module
from treedoc.flatten import balanced_tid, flatten_for_commit
from treedoc.tid import ELEMENTS, ELEMENTS_CAP, MAX_DISAMBIGUATOR, _encode_varint

from conftest import build_abcdef, random_doc, tid

DIS = st.sampled_from([b"A", b"B", b"C", b"AB", b"\x00", b"site-9"])
ELEMS = st.lists(st.tuples(st.integers(0, 1), DIS), max_size=6)
TIDS = st.one_of(
    st.just(TID()),
    st.builds(
        lambda root, elems: TID(root, tuple(PathElement(d, s) for d, s in elems)),
        DIS,
        ELEMS,
    ),
)

# Replicas grown by random position edits from three sites.
DOCS = st.builds(
    lambda seed, n: random_doc(Random(seed), n), st.integers(0, 2**16), st.integers(1, 60)
)


def test_left_child_sorts_before_root():
    # "b" at path 0 comes before "c" at the empty path
    assert compare_tid(tid((0,)), tid(())) == -1
    assert tid((0,)) < tid(())


def test_root_sorts_before_right_descendant():
    # "c" at the empty path comes before "d" at path 10
    assert compare_tid(tid(()), tid((1, 0))) == -1
    assert tid(()) < tid((1, 0))


def test_compare_is_reflexive():
    for bits in [(), (0,), (1, 0), (1, 1, 0)]:
        assert compare_tid(tid(bits), tid(bits)) == 0


def test_equality_includes_disambiguators():
    assert tid((0,), dis=b"A") != tid((0,), dis=b"B")
    assert tid((0,)) == tid((0,))
    assert hash(tid((1, 0))) == hash(tid((1, 0)))


def test_same_position_orders_by_disambiguator():
    a = TID(b"A", (PathElement(RIGHT, b"A"),))
    b = TID(b"A", (PathElement(RIGHT, b"B"),))
    assert a < b
    # the subtree below the smaller disambiguator stays before the sibling
    deep = a.child(RIGHT, b"Z")
    assert deep < b


def test_missing_root_disambiguator_sorts_first():
    assert TID() < TID(b"A")
    assert TID() < tid((0,))


def test_sorted_tids_match_infix_walk():
    from functools import cmp_to_key

    doc = build_abcdef()
    walk_order = [t for t, _ in doc.walk()]
    shuffled = list(walk_order)
    Random(7).shuffle(shuffled)
    assert sorted(shuffled) == walk_order
    assert sorted(shuffled, key=cmp_to_key(compare_tid)) == walk_order


def test_sorted_tids_match_infix_walk_random_docs():
    rng = Random(42)
    for _ in range(25):
        doc = random_doc(rng, 60)
        walk_order = [t for t, _ in doc.walk()]
        shuffled = list(walk_order)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == walk_order


@given(TIDS, TIDS)
def test_total_order_exactly_one_relation(a, b):
    relations = [a < b, a == b, b < a]
    assert sum(relations) == 1


@given(TIDS, TIDS)
def test_antisymmetry(a, b):
    if a <= b and b <= a:
        assert a == b


@given(TIDS, TIDS, TIDS)
def test_transitivity(a, b, c):
    if a <= b and b <= c:
        assert a <= c


@given(TIDS)
def test_compare_agrees_with_rich_comparisons(a):
    b = TID(a.root_disambiguator, a.path)
    assert compare_tid(a, b) == 0
    assert a == b


@given(TIDS)
def test_encode_decode_round_trip(t):
    assert TID.decode(t.encode()) == t


def _reference_encode(t: TID) -> bytes:
    """The per-element encoder ``TID.encode`` replaced: the wire format's
    reference, one varint call and one bit at a time."""
    pairs = []
    if t.root_disambiguator is not None:
        pairs.append((0, t.root_disambiguator))
        pairs.extend(t.path)
    out = bytearray(_encode_varint(len(pairs)))
    bits = bytearray((len(pairs) + 7) // 8)
    for i, (direction, _) in enumerate(pairs):
        if direction:
            bits[i // 8] |= 1 << (i % 8)
    out += bits
    for _, dis in pairs:
        out += _encode_varint(len(dis))
        out += dis
    return bytes(out)


@st.composite
def _edge_tids(draw) -> TID:
    """Depths at the direction-bit byte boundaries and past 127 pairs, with
    disambiguators whose length takes one varint byte or two."""
    depth = draw(st.sampled_from([0, 7, 8, 9, 16, 200]))
    dis = st.sampled_from([b"A", b"a" * 127, b"b" * 128, b"c" * 300])
    diss = draw(st.lists(dis, min_size=depth + 1, max_size=depth + 1))
    dirs = draw(st.lists(st.integers(0, 1), min_size=depth, max_size=depth))
    return TID(diss[0], tuple(map(PathElement, dirs, diss[1:])))


@given(st.one_of(TIDS, _edge_tids()))
@example(TID())
@example(TID(b"c" * 300, tuple(PathElement(i % 2, b"b" * 128) for i in range(200))))
def test_encode_matches_the_reference_encoder(t):
    encoded = t.encode()
    assert encoded == _reference_encode(t)
    assert TID.decode(encoded) == t


@given(TIDS)
def test_encoded_size_matches_encoding(t):
    assert t.encoded_size() == len(t.encode())


def test_child_and_parent():
    t = tid((1, 0))
    assert t.child(LEFT, b"B").path[-1] == PathElement(LEFT, b"B")
    assert t.child(LEFT, b"B").path[:-1] == t.path


def test_decode_rejects_truncated_and_padded_input():
    encoded = tid((1, 0)).encode()
    with pytest.raises(MalformedTID):
        TID.decode(encoded[:-1])
    with pytest.raises(MalformedTID):
        TID.decode(encoded + b"\x00")


@pytest.mark.parametrize("data", [3, [1, 65, 0], "\x01\x01A", None])
def test_decode_rejects_input_that_is_not_bytes(data):
    with pytest.raises(MalformedTID, match="must be bytes"):
        TID.decode(data)


def test_decode_accepts_any_bytes_like_input():
    t = tid((1, 0))
    encoded = t.encode()
    for data in (encoded, bytearray(encoded), memoryview(encoded)):
        assert TID.decode(data) == t


def test_malformed_tids_rejected():
    with pytest.raises(MalformedTID):
        TID(b"")  # empty disambiguator
    with pytest.raises(MalformedTID):
        TID(None, (PathElement(0, b"A"),))  # path without a root entry
    with pytest.raises(MalformedTID):
        TID(b"A", ((2, b"A"),))  # direction out of range
    with pytest.raises(MalformedTID):
        TID(b"A", ((0, b""),))
    with pytest.raises(MalformedTID):
        TID().child(RIGHT, b"A")


def test_tid_is_immutable():
    t = tid((0,))
    with pytest.raises(AttributeError):
        t.path = ()


def _corrupt(data: bytes, i: int, bit: int, overlong: bool) -> bytes:
    """Flip one bit of ``data``, or spell one of its bytes as a two-byte
    varint of the same value."""
    out = bytearray(data)
    i %= len(out)
    if overlong:
        out[i : i + 1] = bytes([out[i] | 0x80, 0])
    else:
        out[i] ^= 1 << bit
    return bytes(out)


ENCODINGS = st.one_of(
    st.binary(max_size=24),
    st.builds(
        _corrupt,
        TIDS.map(TID.encode),
        st.integers(0, 63),
        st.integers(0, 7),
        st.booleans(),
    ),
)


@given(ENCODINGS)
def test_decode_accepts_only_what_encode_produces(data):
    try:
        decoded = TID.decode(data)
    except MalformedTID:
        return
    assert decoded.encode() == data


def test_disambiguator_longer_than_the_commit_digest_allows_is_rejected():
    # flat_digest packs each disambiguator's length in two bytes.
    edge = b"x" * MAX_DISAMBIGUATOR
    long = edge + b"x"
    at_edge = TID(b"A", ((RIGHT, edge),))
    assert TID.decode(at_edge.encode()) == at_edge
    with pytest.raises(MalformedTID):
        TID(long)
    with pytest.raises(MalformedTID):
        TID(b"A", ((RIGHT, long),))
    with pytest.raises(MalformedTID):
        TID(b"A").child(RIGHT, long)
    # The encoding can spell one; decoding refuses it.
    for bad in (TID._make(long, ()), TID._make(b"A", (PathElement(RIGHT, long),))):
        with pytest.raises(MalformedTID, match="65536-byte disambiguator"):
            TID.decode(bad.encode())


@given(TIDS)
def test_decode_round_trips_to_an_equal_tid(t):
    decoded = TID.decode(t.encode())
    assert decoded == t and hash(decoded) == hash(t)
    assert all(type(e) is PathElement for e in decoded.path)


@pytest.mark.parametrize(
    "hex_bytes",
    [
        "01010161",  # the root pair's direction bit is set
        "01800161",  # a padding bit is set
        "0100810061",  # the disambiguator's length is an overlong varint
        "800001",  # an overlong pair count
        "0100" "00",  # an empty disambiguator
    ],
)
def test_decode_rejects_non_canonical_spellings(hex_bytes):
    with pytest.raises(MalformedTID):
        TID.decode(bytes.fromhex(hex_bytes))
    assert TID.decode(bytes.fromhex("01000161")) == TID(b"a")


# -- value semantics and the shared element table -----------------------------


def _same_value(a: TID, b: TID) -> None:
    assert a == b and hash(a) == hash(b) and compare_tid(a, b) == 0


def _copied(t: TID) -> TID:
    """An equal TID through ``__init__``, from fresh copies of its bytes."""
    root = t.root_disambiguator
    return TID(
        None if root is None else bytes(bytearray(root)),
        tuple((d, bytes(bytearray(dis))) for d, dis in t.path),
    )


@given(TIDS, st.integers(0, 1), DIS)
def test_equal_tids_hash_equal_however_made(t, direction, dis):
    _same_value(TID.decode(t.encode()), t)
    _same_value(_copied(t), t)
    if t.root_disambiguator is not None:
        child = t.child(direction, dis)
        _same_value(TID.decode(child.encode()), _copied(child))
        _same_value(child, TID(t.root_disambiguator, (*t.path, (direction, dis))))


@given(DOCS, st.integers(0, 2**16), st.sampled_from([b"A", b"B", b"new-site"]))
def test_allocated_walked_and_balanced_tids_hash_equal(doc, pick, site):
    walked = [t for t, _ in doc.walk()]
    live = [t for t, mini in doc.walk() if not mini.tombstone]
    for i, t in enumerate(live):
        _same_value(doc.tid_of_live_index(i), t)
    for t in walked:
        _same_value(TID.decode(t.encode()), t)
    position = pick % (doc.live_count + 1)
    allocated = doc.alloc_tid_at_position(position, site)
    inserted = doc.insert_at(position, site, b"x")
    _same_value(inserted, allocated)
    _same_value(doc.tid_of_live_index(position), inserted)
    _same_value(TID.decode(inserted.encode()), _copied(inserted))
    assert inserted in {t for t, _ in doc.walk()}
    flat = flatten_for_commit(doc)[0]
    minis = flat.live_nodes()[0]
    for i, (t, _) in enumerate(flat.walk()):
        _same_value(balanced_tid(minis, i), t)


def test_decoded_elements_come_from_the_table():
    path = ((LEFT, b"site-1"), (RIGHT, b"site-2"), (RIGHT, b"site-1"))
    data = TID(b"root-site", path).encode()
    ELEMENTS.clear()
    a, b = TID.decode(data), TID.decode(data)
    assert all(x is y for x, y in zip(a.path, b.path))
    assert a.path[0] is ELEMENTS[b"site-1"][LEFT]
    assert a.path[2] is ELEMENTS[b"site-1"][RIGHT]
    assert a.path[0].disambiguator is a.path[2].disambiguator
    assert a.root_disambiguator is ELEMENTS[b"root-site"][LEFT].disambiguator
    assert b.root_disambiguator is a.root_disambiguator


def test_the_table_stays_bounded_and_survives_emptying():
    ELEMENTS.clear()
    doc = Treedoc()
    first = doc.insert_at(0, b"writer", b"a")
    early = TID.decode(first.encode())
    sizes = []
    for n in range(2 * ELEMENTS_CAP + 10):
        # Two pairs, the second stepping right: root "writer", then "dNNNNN".
        data = b"\x02\x02\x06writer\x06" + b"d%05d" % n
        decoded = TID.decode(data)
        assert decoded.encode() == data
        assert decoded.path[0].disambiguator == b"d%05d" % n
        sizes.append(len(ELEMENTS))
    assert max(sizes) == ELEMENTS_CAP and min(sizes) <= 2
    _same_value(TID.decode(first.encode()), early)
    second = doc.insert_at(1, b"writer", b"b")
    _same_value(TID.decode(second.encode()), second)
    _same_value(doc.alloc_tid_at_position(2, b"other"), doc.insert_at(2, b"other", b"c"))
    assert doc.atoms() == [b"a", b"b", b"c"]


# -- copying and the cached wire size -----------------------------------------


@given(TIDS)
def test_copy_deepcopy_and_pickle_round_trip(t):
    t.encoded_size()
    t._sort_key()
    assert copy.copy(t) is t and copy.deepcopy(t) is t
    # Rebuilt through the validating constructor, without either cache.
    assert t.__reduce__() == (TID, (t.root_disambiguator, t.path))
    loaded = pickle.loads(pickle.dumps(t))
    assert loaded._size is None and loaded._key is None
    _same_value(loaded, t)
    assert loaded.encoded_size() == len(t.encode())


def test_a_nebula_site_holding_a_tid_deep_copies():
    core, nebula = Site(b"A", Role.CORE), Site(b"N", Role.NEBULA)
    op = core.submit_local(OpKind.INSERT, position=0, atom=b"x")
    nebula.deliver(op)
    nebula.submit_local(OpKind.INSERT, position=1, atom=b"y")
    clone = copy.deepcopy(nebula)
    assert clone.replica is not nebula.replica
    assert clone.replica.state_digest() == nebula.replica.state_digest()
    assert clone.applied_inserts == nebula.applied_inserts
    clone.submit_local(OpKind.DELETE, position=0)
    assert (clone.replica.text(), nebula.replica.text()) == ("y", "xy")


def _sized_twice(t: TID) -> None:
    assert t.encoded_size() == len(t.encode())
    assert t.encoded_size() == len(t.encode())


@given(TIDS, st.integers(0, 1), DIS)
def test_encoded_size_is_exact_on_first_and_second_call(t, direction, dis):
    for made in (TID.decode(t.encode()), _copied(t), t):
        _sized_twice(made)
    if t.root_disambiguator is not None:
        _sized_twice(t.child(direction, dis))


@given(DOCS, st.integers(0, 2**16), st.sampled_from([b"A", b"B", b"new-site"]))
def test_allocated_walked_and_balanced_tids_size_exactly(doc, pick, site):
    for t, _ in doc.walk():
        _sized_twice(t)
    for i in range(doc.live_count):
        _sized_twice(doc.tid_of_live_index(i))
    position = pick % (doc.live_count + 1)
    _sized_twice(doc.alloc_tid_at_position(position, site))
    _sized_twice(doc.insert_at(position, site, b"x"))
    minis = flatten_for_commit(doc)[0].live_nodes()[0]
    for i in range(len(minis)):
        _sized_twice(balanced_tid(minis, i))


def test_one_insert_is_sized_once_across_its_replicas(monkeypatch):
    origin = Site(b"origin", Role.CORE)
    replicas = [Site(b"r%d" % i, Role.CORE) for i in range(6)]
    for position in (0, 1, 1, 2):
        op = origin.submit_local(OpKind.INSERT, position=position, atom=b"a")
        for replica in replicas:
            replica.deliver(op)
    calls = []
    cost = tid_module.selector_cost
    monkeypatch.setattr(tid_module, "selector_cost", lambda d: calls.append(d) or cost(d))
    op = origin.submit_local(OpKind.INSERT, position=2, atom=b"b")
    for replica in replicas:
        assert replica.deliver(op) is DeliverResult.APPLIED
    assert op.tid.depth >= 2
    # One TID's worth: its root entry and each path element, once.
    assert len(calls) == op.tid.depth + 1
    for site in (origin, *replicas):
        assert site.replica.tid_bytes_total == origin.replica.tid_bytes_total


def test_counters_hold_on_every_site_after_a_cluster_sized_run():
    result = sim.run(sim.SimConfig(
        seed=11, core_count=4, nebula_count=3, op_count=3000, duplicate_prob=0.1,
        drop_retry_prob=0.05, flatten_interval=200,
    ))
    assert result.converged and not result.intent
    for site in result.sites:
        assert site.replica.counters_consistent(), site.id
