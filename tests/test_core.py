from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from treedoc import (
    LEFT,
    RIGHT,
    EffectReport,
    IndexOutOfRange,
    MalformedTID,
    MissingAncestor,
    MissingTarget,
    OpKind,
    PathElement,
    Role,
    Site,
    TID,
    Treedoc,
    UnknownTID,
)
from treedoc.core import path_tid
from treedoc.flatten import flatten_for_commit

from conftest import (
    ABCDEF_PATHS,
    MULTISITE_SITES,
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


def test_allocation_rejects_an_empty_site(abcdef_doc):
    for doc in (abcdef_doc, Treedoc()):
        for i in range(doc.live_count + 1):
            with pytest.raises(MalformedTID):
                doc.alloc_tid_at_position(i, b"")
    for bits in ((), (1, 1)):  # "c" has a right subtree, "f" an empty slot
        with pytest.raises(MalformedTID):
            abcdef_doc.alloc_tid_after(tid(bits), b"")


def concurrent_edits(doc: Treedoc, rng: Random, n_ops: int) -> Treedoc:
    """Random edits where up to three sites insert at one position at once,
    each allocating before any inserts, so their nodes share a major node."""
    for _ in range(n_ops):
        live = doc.live_count
        if live and rng.random() < 0.3:
            doc.delete(doc.tid_of_live_index(rng.randrange(live)))
            continue
        pos = rng.randint(0, live)
        sites = rng.sample(MULTISITE_SITES, rng.randint(1, 3))
        for t in [doc.alloc_tid_at_position(pos, site) for site in sites]:
            doc.insert(t, b"x")
    return doc


ALLOC_DOCS = {
    "random": random_doc,
    "multisite": multisite_doc,
    "concurrent": lambda rng, n: concurrent_edits(Treedoc(), rng, n),
    "flattened": lambda rng, n: concurrent_edits(
        flatten_for_commit(concurrent_edits(Treedoc(), rng, n))[0], rng, n // 3
    ),
}


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from(sorted(ALLOC_DOCS)),
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(0, 120),
)
def test_position_allocation_is_allocation_after_the_left_neighbour(shape, seed, n_ops):
    doc = ALLOC_DOCS[shape](Random(seed), n_ops)
    everything = [t for t, _ in doc.walk()]
    live = [t for t, m in doc.walk() if not m.tombstone]
    first = doc.alloc_tid_at_position(0, b"Z")
    assert not everything or first < everything[0]
    for i in range(1, len(live) + 1):
        fresh = doc.alloc_tid_at_position(i, b"Z")
        assert fresh == doc.alloc_tid_after(doc.tid_of_live_index(i - 1), b"Z")
        assert live[i - 1] < fresh
        assert i == len(live) or fresh < live[i]


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


def assert_live_sizes_recount(doc: Treedoc) -> None:
    """Every node's ``live_size`` equals a count of its subtree."""
    order, stack = [], [doc.root]
    while stack:
        major = stack.pop()
        order.append(major)
        stack.extend(c for m in major for c in (m.left, m.right) if c)
    sizes = {}
    for major in reversed(order):  # children before parents
        total = 0
        for mini in major:
            below = [sizes[id(c)] for c in (mini.left, mini.right) if c]
            size = (not mini.tombstone) + sum(below)
            assert mini.live_size == size
            total += size
        sizes[id(major)] = total
        assert major.live_size == total
    assert doc.root.live_size == doc.live_count


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from(["edit", "deliver", "duplicate"]),
            st.integers(0, 2**16),
        ),
        max_size=120,
    )
)
def test_live_sizes_match_a_recount_through_a_multisite_history(steps):
    # Remote ops arrive in random order (so some wait in ``pending``) and
    # are redelivered at random, from three sites editing concurrently.
    sites = [Site(dis, Role.CORE) for dis in MULTISITE_SITES[:3]]
    inbox = [[] for _ in sites]
    seen = [[] for _ in sites]
    for who, action, r in steps:
        site = sites[who]
        if action == "edit":
            live = site.replica.live_count
            if live and r % 3 == 0:
                op = site.submit_local(OpKind.DELETE, position=r % live)
            else:
                pos = r % (live + 1)
                op = site.submit_local(OpKind.INSERT, position=pos, atom=b"x")
            site.outbox.clear()
            for k in range(len(sites)):
                if k != who:
                    inbox[k].append(op)
        elif action == "deliver" and inbox[who]:
            op = inbox[who].pop(r % len(inbox[who]))
            site.deliver(op)
            seen[who].append(op)
        elif action == "duplicate" and seen[who]:
            site.deliver(seen[who][r % len(seen[who])])
        for other in sites:
            assert_live_sizes_recount(other.replica)


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
    assert a.state_digest() == b.state_digest()
    b.epoch = 1
    assert a.state_digest() != b.state_digest()
    b.epoch = 0
    b.delete(tid((0,)))
    assert a.state_digest() != b.state_digest()


# -- _chain's first-entry fast path --------------------------------------------


def _reference_chain(doc: Treedoc, t: TID) -> tuple[list, int]:
    """The mini-nodes along ``t``, searched with ``MajorNode.find`` at every
    level, and how many of them are not the first entry of their major node."""
    mini = doc.root.find(t.root_disambiguator)
    if mini is None:
        return [], 0
    chain, later = [mini], 0
    for direction, dis in t.path:
        major = mini.right if direction else mini.left
        mini = None if major is None else major.find(dis)
        if mini is None:
            break
        chain.append(mini)
        later += mini is not major[0]
    return chain, later


def _concurrent_doc(rng: Random, rounds: int) -> Treedoc:
    """Two to four sites insert at one position from the same state, so
    their entries share a major node, at every depth."""
    doc = Treedoc()
    for _ in range(rounds):
        live = doc.live_count
        if live and rng.random() < 0.2:
            doc.delete(doc.tid_of_live_index(rng.randrange(live)))
            continue
        position = rng.randint(0, live)
        sites = rng.sample([b"A", b"B", b"C", b"D"], rng.randint(2, 4))
        for t in [doc.alloc_tid_at_position(position, site) for site in sites]:
            doc.insert(t, b"x")
    return doc


def test_chain_fast_path_agrees_with_a_find_at_every_level():
    rng = Random(41)
    doc = _concurrent_doc(rng, 120)
    probes = [TID(b"E")]
    for t, _ in doc.walk():
        probes.append(t)
        probes += [t.child(d, dis) for d in (LEFT, RIGHT) for dis in (b"B", b"E")]
        probes.append(t.child(RIGHT, b"F").child(LEFT, b"A"))  # below an absent node
        if t.path:  # other entries of the major node at the last level
            *above, (d, _) = t.path
            probes += [TID(t.root_disambiguator, (*above, (d, dis))) for dis in (b"C", b"F")]
    seen = {"later": 0, "missing_ancestor": 0, "missing_target": 0, "present": 0}
    for t in probes:
        depth = len(t.path)
        ref, later = _reference_chain(doc, t)
        chain = doc._chain(t)
        assert len(chain) == len(ref) and all(a is b for a, b in zip(chain, ref))
        seen["later"] += later
        assert doc.find(t) is (ref[-1] if len(ref) > depth else None)
        assert doc.ancestors_exist(t) == (len(ref) >= depth)
        if len(ref) < depth:
            seen["missing_ancestor"] += 1
            with pytest.raises(MissingAncestor):
                doc.insert(t, b"y")
        elif len(ref) > depth:
            seen["present"] += 1
            assert doc.insert(t, b"y") is EffectReport.ALREADY_PRESENT
        else:
            assert doc.insert(t, b"y") is EffectReport.APPLIED
        if rng.random() < 0.5:
            continue
        ref, _ = _reference_chain(doc, t)
        if len(ref) <= depth:
            seen["missing_target"] += 1
            with pytest.raises(MissingTarget):
                doc.delete(t)
        else:
            gone = ref[-1].tombstone
            expected = EffectReport.ALREADY_TOMBSTONE if gone else EffectReport.APPLIED
            assert doc.delete(t) is expected
    assert min(seen.values()) >= 20, seen
    assert doc.counters_consistent()
