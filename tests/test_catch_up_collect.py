"""Catch-up's collect step against a reference walk.

``reference_collect`` is the collect step as a tree walk of its own: it
copies every cyan atom it keeps into a fresh mini-node, and it gives each
black edit the number of atoms live in the nebula's replica before the
edit's node. That is the index catch-up replays the edit at, because
replaying the earlier edits in document order makes exactly those atoms
live in the new epoch. ``Site._collect_catch_up`` reads the shared
document-order traversal instead, counts as it goes, and returns the
replica's own nodes. On the same nebula histories both must give the same
skeleton and the same ``(index, node)`` edits.

The rest of the catch-up touches only what is black. After it, the text
must be unchanged, every ``live_size`` and document counter must equal a
full recount, the TID bytes counter must equal the wire bytes of every
TID, and the emitted operations must equal ``reference_emission``: one walk
of the whole rebuilt tree and a stable sort.
"""

import copy
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from treedoc import DeliverResult, OpKind, Operation, Role, Site, Treedoc, initiate_flatten
from treedoc.core import MiniNode, path_tid

NEBULAS = (b"N1", b"N2", b"N3")


def _infix(major):
    for mini in major:
        if mini.left is not None:
            yield from _infix(mini.left)
        yield mini
        if mini.right is not None:
            yield from _infix(mini.right)


def reference_collect(doc, black):
    """The skeleton (fresh nodes) and the black edits as ``(index, node)``."""
    skeleton = []
    edits = []
    live = 0
    for mini in _infix(doc.root):
        entry = black.get(mini)
        if entry is not None:
            edits.append((live, mini))
        # The core kept its live atoms, and those only the nebula deleted.
        if entry is None and not mini.tombstone or entry is not None and entry[0] is None:
            node = MiniNode(mini.disambiguator, mini.atom)
            node.tombstone = entry is not None
            skeleton.append(node)
        live += not mini.tombstone
    return skeleton, edits


def run_history(n_nebulas, history):
    """One core site and ``n_nebulas`` nebula sites play ``history``; then
    every nebula gets every core op, and the core flattens alone.

    Steps: ``("core", delete, r)`` and ``("edit", i, delete, r)`` edit at
    position ``r`` modulo the document (an insert when nothing is live);
    ``("ship", i)`` delivers every core op so far to nebula ``i``;
    ``("share", i, j)`` delivers every op nebula ``i`` has to nebula ``j``.
    """
    core = Site(b"A", Role.CORE)
    nebulas = [Site(dis, Role.NEBULA) for dis in NEBULAS[:n_nebulas]]
    core_ops = []
    has = {site.id: [] for site in nebulas}

    def edit(site, delete, r, log):
        live = site.replica.live_count
        if delete and live:
            op = site.submit_local(OpKind.DELETE, position=r % live)
        else:
            atom = b"%s%d" % (site.id, site.next_seq)
            op = site.submit_local(OpKind.INSERT, position=r % (live + 1), atom=atom)
        site.outbox.clear()
        log.append(op)

    def deliver(site, ops):
        for op in ops:
            site.deliver(op)
        has[site.id].extend(site.take_delivered())

    for step in history:
        if step[0] == "core":
            edit(core, step[1], step[2], core_ops)
        elif step[0] == "edit":
            site = nebulas[step[1] % n_nebulas]
            edit(site, step[2], step[3], has[site.id])
        elif step[0] == "ship":
            deliver(nebulas[step[1] % n_nebulas], core_ops)
        else:
            source = nebulas[step[1] % n_nebulas]
            deliver(nebulas[step[2] % n_nebulas], list(has[source.id]))
    for site in nebulas:
        deliver(site, core_ops)
    ann = initiate_flatten(core, [core]).announcement
    for site in nebulas:
        site.receive_decision(ann)
    return core, nebulas, ann


def reference_emission(doc, black, epoch):
    """The black table's operations at their TIDs in ``doc``, read off one
    walk of the whole tree in document order and stably sorted by depth,
    inserts before deletes.

    Catch-up inserts the black nodes as fresh nodes, so the table is
    matched by (disambiguator, atom), which is unique per (site, seq) here.
    """
    by_value = {(m.disambiguator, m.atom): entry for m, entry in black.items()}
    ops = []
    for mini, _, _, path in doc.iter_nodes():
        entry = by_value.get((mini.disambiguator, mini.atom))
        if entry is None:
            continue
        tid = path_tid(path)
        ins, dele = entry
        if ins is not None:
            ops.append(Operation(epoch, OpKind.INSERT, tid, mini.atom, *ins))
        if dele is not None:
            ops.append(Operation(epoch, OpKind.DELETE, tid, None, *dele))
    ops.sort(key=lambda op: (op.tid.depth, 0 if op.kind is OpKind.INSERT else 1))
    return ops


def counts(doc):
    """The document counters and every node's ``live_size``, major nodes
    parents first."""
    order = []
    doc._count(order)
    sizes = [(major.live_size, [m.live_size for m in major]) for major in order]
    return doc.live_count, doc.tombstone_count, doc.tid_bytes_total, sizes


def check_collect(site, ann):
    """Compare the collect step with the reference, then finish the catch-up
    and compare its text, counters and emissions with the replica before, a
    recount and a reference."""
    black = site.mark_colors(ann.committed_ids)
    skeleton, _, edits = site._collect_catch_up(black)
    want_skeleton, want_edits = reference_collect(site.replica, black)
    entries = [(m.disambiguator, m.atom, m.tombstone) for m in skeleton]
    assert entries == [(m.disambiguator, m.atom, m.tombstone) for m in want_skeleton]
    assert [(i, id(m)) for i, m in edits] == [(i, id(m)) for i, m in want_edits]
    features = _features(site, black, skeleton, edits)
    text = site.replica.text()
    # The rebuilt skeleton matches the digest, or this raises.
    emitted = site.catch_up()
    doc = site.replica
    assert doc.text() == text
    kept = counts(doc)
    doc.recompute_counters()
    assert kept == counts(doc)
    assert doc.tid_bytes_total == sum(len(t.encode()) for t, _ in doc.walk())
    assert emitted == reference_emission(doc, black, ann.new_epoch)
    inserted = {op.tid for op in emitted if op.kind is OpKind.INSERT}
    deleted = [op.tid for op in emitted if op.kind is OpKind.DELETE]
    for a, b in zip(deleted, deleted[1:]):
        if a.depth == b.depth and a in inserted and b not in inserted:
            features.add("subtree delete, then skeleton delete, at one depth")
    return features


def _features(site, black, skeleton, edits):
    """Which of the shapes the collect step must handle this replica shows.

    A black root is a black insert whose parent is not one; its gap is the
    number of skeleton entries before it.
    """
    found = set()
    gaps = {}
    kept = 0
    for mini, depth, _, path in site.replica.iter_nodes():
        entry = black.get(mini)
        if entry is None or entry[0] is None:
            kept += entry is not None or not mini.tombstone
            continue
        major = path[-1][0]
        if sum(black.get(m, (None,))[0] is not None for m in major) > 1:
            found.add("black roots share a major node")
        if depth:
            frame = path[-2]
            parent = frame[0][frame[1]]
            above = black.get(parent, (None,))[0]
            if above is not None:
                continue
            if parent.tombstone and parent not in black:
                found.add("black subtree under a cyan tombstone")
        gaps[kept] = gaps.get(kept, 0) + 1
    if not skeleton and edits:
        found.add("empty skeleton")
        if sum(gaps.values()) > 1:
            found.add("empty skeleton, several roots")
    if any(n > 1 for n in gaps.values()):
        found.add("several black roots in one gap")
    if skeleton and 0 in gaps and len(skeleton) in gaps:
        found.add("black roots in gap 0 and gap n")
    if skeleton and skeleton[len(skeleton) // 2].tombstone:
        found.add("black tombstone on the root entry")
    if any(len(idents) > 1 for idents in site.applied_deletes.values()):
        found.add("racing deletes")
    if any(a[0] == b[0] for a, b in zip(edits, edits[1:])):
        found.add("several black edits at one index")
    return found


STEP = st.one_of(
    st.tuples(st.just("core"), st.booleans(), st.integers(0, 7)),
    st.tuples(st.just("edit"), st.integers(0, 2), st.booleans(), st.integers(0, 7)),
    st.tuples(st.just("ship"), st.integers(0, 2)),
    st.tuples(st.just("share"), st.integers(0, 2), st.integers(0, 2)),
)


@settings(max_examples=150, deadline=None)
@given(n_nebulas=st.integers(2, 3), history=st.lists(STEP, max_size=40))
def test_collect_matches_the_reference_walk(n_nebulas, history):
    _, nebulas, ann = run_history(n_nebulas, history)
    for site in nebulas:
        check_collect(site, ann)


def _inserts(who, *positions):
    if who == "core":
        return [("core", False, p) for p in positions]
    return [("edit", who, False, p) for p in positions]


CASES = {
    # Two nebulas delete the same core atom, one of them twice over: once
    # itself, once through the other's share; the core deletes another atom
    # that a nebula deleted too.
    "racing deletes": (
        3,
        _inserts("core", 0, 1, 2)
        + [("ship", 0), ("ship", 1), ("ship", 2)]
        + [("edit", 0, True, 0), ("edit", 1, True, 0), ("share", 0, 1)]
        + [("edit", 2, True, 1), ("core", True, 1)],
    ),
    # Nebula atoms hang below a core atom the core then deletes.
    "black subtree under a cyan tombstone": (
        2,
        _inserts("core", 0, 1, 2)
        + [("ship", 0)]
        + _inserts(0, 3, 4, 3)
        + [("core", True, 2), ("ship", 0)],
    ),
    # Two nebulas insert at the same slot and swap their atoms.
    "black roots share a major node": (
        2,
        _inserts("core", 0) + [("ship", 0), ("ship", 1)]
        + _inserts(0, 1) + _inserts(1, 1)
        + [("share", 0, 1), ("share", 1, 0)],
    ),
    # The core keeps no atom; the nebulas' atoms are all black.
    "empty skeleton": (
        3,
        _inserts("core", 0) + [("ship", 0), ("core", True, 0)]
        + _inserts(0, 0, 1) + _inserts(1, 0) + [("share", 1, 0), ("share", 0, 2)],
    ),
    # No core atom at all; two nebulas' atoms share the root major node.
    "empty skeleton, several roots": (
        2, _inserts(0, 0, 0, 1) + _inserts(1, 0) + [("share", 1, 0)],
    ),
    # Nebula atoms on both sides of a core atom the core then deletes: the
    # tombstone drops out and both subtrees fall in the gap it leaves.
    "several black roots in one gap": (
        1,
        _inserts("core", 0, 1, 2, 3)
        + [("ship", 0)]
        + _inserts(0, 2, 4)
        + [("core", True, 2), ("ship", 0)],
    ),
    # Nebula atoms before the first core atom and after the last.
    "black roots in gap 0 and gap n": (
        1, _inserts("core", 0, 1) + [("ship", 0)] + _inserts(0, 0, 3),
    ),
    # The nebula inserts and deletes an atom in the gap between core atoms 1
    # and 2, then deletes core atom 3: two deletes at depth 2 of the rebuilt
    # tree, one in a black subtree, one on the skeleton, in document order.
    "subtree delete, then skeleton delete, at one depth": (
        1,
        _inserts("core", 0, 1, 2, 3, 4)
        + [("ship", 0)]
        + _inserts(0, 2)
        + [("edit", 0, True, 2), ("edit", 0, True, 3)],
    ),
    # The nebula deletes the middle core atom, the rebuilt tree's root.
    "black tombstone on the root entry": (
        1, _inserts("core", 0, 1, 2) + [("ship", 0), ("edit", 0, True, 1)],
    ),
    # The nebula inserts right after core atom 1, then deletes that atom:
    # both edits replay at index 1, the delete first.
    "several black edits at one index": (
        1, _inserts("core", 0, 1, 2) + [("ship", 0)] + _inserts(0, 2)
        + [("edit", 0, True, 1)],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_collect_matches_the_reference_walk_on_each_case(case):
    n_nebulas, history = CASES[case]
    _, nebulas, ann = run_history(n_nebulas, history)
    found = set()
    for site in nebulas:
        found |= check_collect(site, ann)
    assert case in found


# -- a nebula with nothing black ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(n_nebulas=st.integers(1, 3), history=st.lists(STEP, max_size=40))
def test_an_all_cyan_collect_is_live_nodes(n_nebulas, history):
    _, nebulas, _ = run_history(n_nebulas, history)
    for site in nebulas:
        minis, owners = site.replica.live_nodes()
        skeleton, got_owners, edits = site._collect_catch_up({})
        assert [id(m) for m in skeleton] == [id(m) for m in minis]
        assert [id(o) for o in got_owners] == [id(o) for o in owners]
        assert edits == []
        # The document-order walk, made to run by a black entry for a node
        # outside the tree, collects the same.
        walked = site._collect_catch_up({MiniNode(b"Z", b"z"): (None, None)})
        assert [id(m) for m in walked[0]] == [id(m) for m in minis]
        assert [id(o) for o in walked[1]] == [id(o) for o in owners]
        assert walked[2] == []


def _committed_nebula(seed):
    """A core site and a nebula site that edited together, exchanged every
    op and saw the core flatten alone: everything the nebula holds is cyan."""
    rng = Random(seed)
    core, nebula = Site(b"A", Role.CORE), Site(b"N", Role.NEBULA)
    for _ in range(40):
        site = rng.choice((core, nebula))
        live = site.replica.live_count
        if live and rng.random() < 0.3:
            op = site.submit_local(OpKind.DELETE, position=rng.randrange(live))
        else:
            atom = b"%s%d" % (site.id, site.next_seq)
            op = site.submit_local(OpKind.INSERT, position=rng.randint(0, live), atom=atom)
        site.outbox.clear()
        (nebula if site is core else core).deliver(op)
    ann = initiate_flatten(core, [core]).announcement
    nebula.receive_decision(ann)
    return core, nebula, ann


@pytest.mark.parametrize("seed", range(8))
def test_a_committed_nebula_catches_up_to_the_core_replica(monkeypatch, seed):
    core, nebula, ann = _committed_nebula(seed)
    assert nebula.mark_colors(ann.committed_ids) == {}
    walks = []
    iter_nodes = Treedoc.iter_nodes
    monkeypatch.setattr(Treedoc, "iter_nodes", lambda doc: walks.append(doc) or iter_nodes(doc))
    assert nebula.catch_up() == []
    assert walks == []
    assert nebula.replica.state_digest() == core.replica.state_digest()
    assert nebula.replica.text() == core.replica.text()


def test_one_black_op_still_takes_the_document_order_walk(monkeypatch):
    core, nebula, ann = _committed_nebula(0)
    # An edit the core never saw, made before the nebula enters the new epoch.
    nebula.submit_local(OpKind.INSERT, position=0, atom=b"late")
    nebula.outbox.clear()
    walks = []
    iter_nodes = Treedoc.iter_nodes
    monkeypatch.setattr(Treedoc, "iter_nodes", lambda doc: walks.append(doc) or iter_nodes(doc))
    emitted = nebula.catch_up()
    assert len(walks) == 1
    assert [(op.kind, op.atom) for op in emitted] == [(OpKind.INSERT, b"late")]
    assert nebula.replica.text() == "late" + core.replica.text()


# -- black edits replayed on a core replica -----------------------------------


@settings(max_examples=150, deadline=None)
@given(
    core_atoms=st.integers(0, 8),
    core_deletes=st.lists(st.integers(0, 7), max_size=3),
    edits=st.lists(st.tuples(st.sampled_from("itx"), st.integers(0, 15)), max_size=14),
)
def test_black_edits_replay_on_the_core_in_emitted_order(core_atoms, core_deletes, edits):
    """A nebula interleaves black inserts (``i``), black inserts it deletes
    at once (``t``) and black tombstones of the core's atoms (``x``); the
    core's own deletes reach it after that, then the core flattens alone."""
    core, nebula = Site(b"A", Role.CORE), Site(b"N", Role.NEBULA)
    for i in range(core_atoms):
        nebula.deliver(core.submit_local(OpKind.INSERT, position=i, atom=b"a%d" % i))
    core.outbox.clear()
    for r in core_deletes:
        if core.replica.live_count:
            core.submit_local(OpKind.DELETE, position=r % core.replica.live_count)
    cyan = {mini.atom for mini in nebula.replica.live_nodes()[0]}
    for kind, r in edits:
        live = nebula.replica.live_nodes()[0]
        if kind == "x":
            targets = [i for i, mini in enumerate(live) if mini.atom in cyan]
            if targets:
                nebula.submit_local(OpKind.DELETE, position=targets[r % len(targets)])
            continue
        position = r % (len(live) + 1)
        nebula.submit_local(OpKind.INSERT, position=position, atom=b"n%d" % nebula.next_seq)
        if kind == "t":
            nebula.submit_local(OpKind.DELETE, position=position)
    nebula.outbox.clear()
    # The core's deletes arrive last: they may race the nebula's.
    for op in core.outbox:
        nebula.deliver(op)
    core.outbox.clear()
    ann = initiate_flatten(core, [core]).announcement
    nebula.receive_decision(ann)
    text = nebula.replica.text()

    emitted = nebula.catch_up()
    doc = nebula.replica
    assert doc.text() == text
    kept = counts(doc)
    doc.recompute_counters()
    assert kept == counts(doc)
    assert doc.counters_consistent()
    receiver = copy.deepcopy(core)
    assert [receiver.deliver(op) for op in emitted] == [DeliverResult.APPLIED] * len(emitted)
    assert receiver.replica.state_digest() == doc.state_digest()
