from random import Random

import pytest

from treedoc import (
    LEFT,
    RIGHT,
    EffectReport,
    IndexOutOfRange,
    MissingAncestor,
    MissingTarget,
    PathElement,
    TID,
    Treedoc,
    UnknownTID,
)
from treedoc.core import path_tid

from conftest import (
    ABCDEF_PATHS,
    build_abcdef,
    deep_spine_doc,
    multisite_doc,
    random_doc,
    tid,
)


def test_sample_doc_reads_abcdef(abcdef_doc):
    assert abcdef_doc.text() == "abcdef"


def test_single_atom_document():
    doc = Treedoc()
    assert doc.insert(TID(b"A"), b"x") is EffectReport.APPLIED
    assert doc.text() == "x"


def test_insert_is_idempotent(abcdef_doc):
    before = abcdef_doc.state_digest()
    report = abcdef_doc.insert(tid(ABCDEF_PATHS["d"]), b"d")
    assert report is EffectReport.ALREADY_PRESENT
    assert abcdef_doc.state_digest() == before


def test_insert_missing_ancestor():
    doc = Treedoc()
    doc.insert(TID(b"A"), b"c")
    with pytest.raises(MissingAncestor):
        doc.insert(tid((1, 0)), b"d")  # path 10 needs the node at 1 first


def test_delete_b_leaves_acdef(abcdef_doc):
    assert abcdef_doc.delete(tid((0,))) is EffectReport.APPLIED
    assert abcdef_doc.text() == "acdef"


def test_delete_is_idempotent(abcdef_doc):
    abcdef_doc.delete(tid((0,)))
    before = abcdef_doc.state_digest()
    assert abcdef_doc.delete(tid((0,))) is EffectReport.ALREADY_TOMBSTONE
    assert abcdef_doc.state_digest() == before


def test_delete_all_six(abcdef_doc):
    for bits in ABCDEF_PATHS.values():
        abcdef_doc.delete(tid(bits))
    assert abcdef_doc.text() == ""
    stats = abcdef_doc.stats()
    assert stats.live_count == 0
    assert stats.tombstone_count == 6


def test_delete_missing_target(abcdef_doc):
    with pytest.raises(MissingTarget):
        abcdef_doc.delete(tid((1, 1, 1)))


def test_delete_d_leaves_abcef(abcdef_doc):
    abcdef_doc.delete(tid((1, 0)))
    assert abcdef_doc.text() == "abcef"


def test_tombstone_keeps_structure(abcdef_doc):
    abcdef_doc.delete(tid((1,)))  # "e" has children "d" and "f"
    assert abcdef_doc.text() == "abcdf"
    assert abcdef_doc.find(tid((1, 0))) is not None
    assert abcdef_doc.find(tid((1, 1))) is not None


# -- allocation -------------------------------------------------------------


def test_alloc_after_c_descends_to_leftmost_free(abcdef_doc):
    # "c" has a right child, so the slot is the leftmost free position of
    # that subtree: below "d", giving bit path 100.
    t = abcdef_doc.alloc_tid_after(tid(()), b"S")
    want = tid((1, 0)).child(0, b"S")
    assert t == want
    assert tid(()) < t < tid((1, 0))


def test_alloc_after_f_appends_right(abcdef_doc):
    t = abcdef_doc.alloc_tid_after(tid((1, 1)), b"S")
    assert t == tid((1, 1)).child(1, b"S")


def test_alloc_after_unknown_tid(abcdef_doc):
    with pytest.raises(UnknownTID):
        abcdef_doc.alloc_tid_after(tid((0, 1, 0)), b"S")


def test_concurrent_allocations_differ_only_in_disambiguator(abcdef_doc):
    other = build_abcdef()
    at_a = abcdef_doc.alloc_tid_after(tid(()), b"X")
    at_b = other.alloc_tid_after(tid(()), b"Y")
    assert at_a != at_b
    assert at_a.path[:-1] == at_b.path[:-1]
    assert at_a.path[-1].direction == at_b.path[-1].direction
    assert at_a.path[-1].disambiguator != at_b.path[-1].disambiguator


def test_alloc_at_position_empty_doc():
    doc = Treedoc()
    assert doc.alloc_tid_at_position(0, b"S") == TID(b"S")


def test_alloc_at_position_end_matches_alloc_after_last(abcdef_doc):
    after_f = abcdef_doc.alloc_tid_after(tid((1, 1)), b"S")
    assert abcdef_doc.alloc_tid_at_position(6, b"S") == after_f


def test_alloc_at_position_between_c_and_d(abcdef_doc):
    t = abcdef_doc.alloc_tid_at_position(3, b"S")
    assert tid(()) < t < tid((1, 0))


def test_alloc_at_position_zero_sorts_before_everything(abcdef_doc):
    t = abcdef_doc.alloc_tid_at_position(0, b"S")
    first = next(iter(abcdef_doc.walk()))[0]
    assert t < first


def test_alloc_at_position_out_of_range(abcdef_doc):
    with pytest.raises(IndexOutOfRange):
        abcdef_doc.alloc_tid_at_position(7, b"S")
    with pytest.raises(IndexOutOfRange):
        abcdef_doc.alloc_tid_at_position(-1, b"S")


def test_density_between_adjacent_pairs():
    rng = Random(3)
    doc = random_doc(rng, 80)
    live = [t for t, m in doc.walk() if not m.tombstone]
    for i in range(1, len(live)):
        fresh = doc.alloc_tid_at_position(i, b"Z")
        assert live[i - 1] < fresh < live[i]
        assert doc.find(fresh) is None


def test_allocations_are_fresh():
    rng = Random(11)
    doc = random_doc(rng, 120, delete_ratio=0.4)
    for i in range(doc.live_count + 1):
        t = doc.alloc_tid_at_position(i, b"Z")
        assert doc.find(t) is None


def test_tid_of_live_index_round_trip():
    rng = Random(9)
    doc = random_doc(rng, 100, delete_ratio=0.35)
    live = [t for t, m in doc.walk() if not m.tombstone]
    for i, t in enumerate(live):
        assert doc.tid_of_live_index(i) == t


# -- measurement -------------------------------------------------------------


def test_stats_abcdef(abcdef_doc):
    stats = abcdef_doc.stats()
    assert stats.live_count == 6
    assert stats.tombstone_count == 0
    assert stats.max_depth == 2  # "a", "d", "f" sit two levels below "c"


def test_stats_empty_doc():
    stats = Treedoc().stats()
    assert stats == type(stats)(0, 0, 0, 0.0)


def test_stats_after_deleting_five(abcdef_doc):
    for atom in ["a", "b", "c", "d", "e"]:
        abcdef_doc.delete(tid(ABCDEF_PATHS[atom]))
    assert abcdef_doc.stats().tombstone_count == 5


def test_cached_counters_match_recount():
    rng = Random(17)
    for _ in range(10):
        doc = random_doc(rng, 150, delete_ratio=0.45)
        assert doc.counters_consistent()


def test_mean_tid_bytes_matches_encoding(abcdef_doc):
    total = sum(t.encoded_size() for t, _ in abcdef_doc.walk())
    assert abcdef_doc.stats().mean_tid_encoded_bytes == pytest.approx(total / 6)
    assert abcdef_doc.mean_tid_encoded_bytes() == pytest.approx(total / 6)


# -- algebraic properties -----------------------------------------------------


def _independent_op_pair(rng, doc):
    """Two operations whose causal preconditions hold in the base document."""
    ops = []
    for site in (b"X", b"Y"):
        live = doc.live_count
        if live > 0 and rng.random() < 0.4:
            ops.append(("delete", doc.tid_of_live_index(rng.randrange(live)), None))
        else:
            t = doc.alloc_tid_at_position(rng.randint(0, live), site)
            ops.append(("insert", t, bytes([65 + rng.randrange(26)])))
    if ops[0][0] == "delete" and ops[1][0] == "delete" and ops[0][1] == ops[1][1]:
        return None  # same target: not two distinct operations
    return ops


def _apply(doc, op):
    kind, t, atom = op
    if kind == "insert":
        doc.insert(t, atom)
    else:
        doc.delete(t)


def test_independent_operations_commute():
    rng = Random(23)
    checked = 0
    while checked < 200:
        base = random_doc(rng, rng.randint(0, 40))
        pair = _independent_op_pair(rng, base)
        if pair is None:
            continue
        one, two = _clone_pair(base)
        _apply(one, pair[0])
        _apply(one, pair[1])
        _apply(two, pair[1])
        _apply(two, pair[0])
        assert one.state_digest() == two.state_digest()
        assert one.stats() == two.stats()
        checked += 1


def test_double_application_equals_single():
    rng = Random(29)
    for _ in range(50):
        base = random_doc(rng, rng.randint(1, 40))
        pair = _independent_op_pair(rng, base)
        if pair is None:
            continue
        one, two = _clone_pair(base)
        _apply(one, pair[0])
        _apply(two, pair[0])
        _apply(two, pair[0])
        assert one.state_digest() == two.state_digest()


def _clone_pair(base):
    import copy

    return copy.deepcopy(base), copy.deepcopy(base)


# -- degenerate shapes --------------------------------------------------------


def test_deep_right_spine_has_no_recursion_trouble():
    doc = Treedoc()
    cur = TID(b"A")
    doc.insert(cur, b"0")
    for i in range(1, 1200):
        cur = doc.alloc_tid_after(cur, b"A")
        doc.insert(cur, b"%d" % (i % 10))
    assert doc.live_count == 1200
    assert doc.stats().max_depth == 1199
    assert len(list(doc.walk())) == 1200
    assert len(doc.text()) == 1200


def test_walk_and_iter_nodes_agree():
    rng = Random(31)
    doc = random_doc(rng, 90, delete_ratio=0.3)
    tids = [(m.disambiguator, m.atom, m.tombstone) for _, m in doc.walk()]
    lean = [(m.disambiguator, m.atom, m.tombstone) for m, _, _, _ in doc.iter_nodes()]
    assert tids == lean


TID_DOCS = (
    [("empty", Treedoc), ("spine-1200", lambda: deep_spine_doc(1200))]
    + [(f"multisite-{s}", lambda s=s: multisite_doc(Random(s), 60 + 20 * s)) for s in range(8)]
    + [(f"random-{s}", lambda s=s: random_doc(Random(s), 150)) for s in range(4)]
)


@pytest.mark.parametrize("make", [m for _, m in TID_DOCS], ids=[n for n, _ in TID_DOCS])
def test_walk_tids_match_find_and_index_descent(make):
    doc = make()
    live = 0
    for t, mini in doc.walk():
        assert doc.find(t) is mini
        if not mini.tombstone:
            assert t == doc.tid_of_live_index(live)
            live += 1
    assert live == doc.live_count


@pytest.mark.parametrize("make", [m for _, m in TID_DOCS], ids=[n for n, _ in TID_DOCS])
def test_path_tid_on_demand_matches_walk(make):
    # Ask for every seventh node only, as catch-up asks for its black nodes:
    # a frame's prefix is then filled in from an ancestor several levels up.
    doc = make()
    expected = [t for t, _ in doc.walk()][::7]
    picked = [path_tid(p) for i, (_, _, _, p) in enumerate(doc.iter_nodes()) if i % 7 == 0]
    assert picked == expected


def _shared_root_doc() -> Treedoc:
    # The root major node holds A (dis a) and B (dis b); aL hangs left of A
    # and bR right of B.
    doc = Treedoc()
    doc.insert(TID(b"a"), b"A")
    doc.insert(TID(b"b"), b"B")
    doc.insert(TID(b"a", (PathElement(LEFT, b"x"),)), b"aL")
    doc.insert(TID(b"b", (PathElement(RIGHT, b"x"),)), b"bR")
    return doc


def test_pretty_renders_shared_major_nodes_in_document_order():
    doc = _shared_root_doc()
    assert doc.text() == "aLABbR"
    assert doc.pretty().splitlines() == [
        "  0 'aL' (x)",
        "* 'A' (a)",
        "* 'B' (b)",
        "  1 'bR' (x)",
    ]
    assert Treedoc().pretty() == "(empty)"


def test_structural_equality_and_digest():
    a = build_abcdef()
    b = build_abcdef()
    assert a.structurally_equal(b)
    assert a.state_digest() == b.state_digest()
    b.delete(tid((0,)))
    assert not a.structurally_equal(b)
    assert a.state_digest() != b.state_digest()
