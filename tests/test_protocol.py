from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from treedoc import protocol
from treedoc import (
    AbortReason,
    DeliverResult,
    EffectReport,
    InvariantViolation,
    MalformedTID,
    OpKind,
    Operation,
    ProtocolError,
    Role,
    Site,
    TID,
    VoteDecision,
    ids_digest,
    initiate_flatten,
)
from treedoc.protocol import PrepareMessage

from conftest import build_abcdef, tid


def gossip(sites):
    """Flush every outbox to every other site until the system is quiet."""
    progress = True
    while progress:
        progress = False
        for site in sites:
            ops, site.outbox = site.outbox, []
            for op in ops:
                progress = True
                for other in sites:
                    if other is not site:
                        other.deliver(op)


def make_cores(n=3):
    return [Site(f"c{i}".encode(), Role.CORE) for i in range(n)]


# -- submit ------------------------------------------------------------------


def test_submit_insert_on_empty_site():
    site = Site(b"A", Role.CORE)
    op = site.submit_local(OpKind.INSERT, position=0, atom=b"x")
    assert op.kind is OpKind.INSERT
    assert op.epoch == 0
    assert op.origin_seq == 1
    assert site.replica.text() == "x"
    assert site.outbox == [op]


def test_submit_counter_increments():
    site = Site(b"A", Role.CORE)
    one = site.submit_local(OpKind.INSERT, position=0, atom=b"x")
    two = site.submit_local(OpKind.INSERT, position=1, atom=b"y")
    assert (one.origin_seq, two.origin_seq) == (1, 2)


def test_concurrent_submits_get_distinct_tids():
    a, b = Site(b"A", Role.CORE), Site(b"B", Role.CORE)
    seed = a.submit_local(OpKind.INSERT, position=0, atom=b"s")
    gossip([a, b])
    op_a = a.submit_local(OpKind.INSERT, position=1, atom=b"1")
    op_b = b.submit_local(OpKind.INSERT, position=1, atom=b"2")
    assert op_a.tid != op_b.tid
    assert seed.tid < op_a.tid and seed.tid < op_b.tid


def test_submit_validates_arguments():
    site = Site(b"A", Role.CORE)
    with pytest.raises(ProtocolError):
        site.submit_local(OpKind.INSERT, position=0)  # no atom
    with pytest.raises(ProtocolError):
        site.submit_local(OpKind.DELETE, position=0, atom=b"x")
    with pytest.raises(ProtocolError):
        site.submit_local(OpKind.INSERT, position=0, atom="x")  # text, not bytes
    assert site.next_seq == 1 and site.replica.live_count == 0 and not site.outbox


def test_deliver_rejects_a_malformed_payload_and_changes_nothing():
    site = Site(b"B", Role.NEBULA)
    source = Site(b"A", Role.CORE)
    first = source.submit_local(OpKind.INSERT, position=0, atom=b"a")
    second = source.submit_local(OpKind.INSERT, position=1, atom=b"b")
    site.deliver(first)
    site.deliver(source.submit_local(OpKind.INSERT, position=2, atom=b"c"))  # pending
    site.deliver(second._replace(epoch=3))  # buffered for a later epoch
    bad = [
        second._replace(atom=None),
        second._replace(atom="b"),
        second._replace(atom=bytearray(b"b")),
        first._replace(kind=OpKind.DELETE, origin_seq=9),  # a delete with an atom
        first._replace(kind="delete", atom=None, origin_seq=9),
        second._replace(tid=second.tid.encode()),
        second._replace(tid=None, kind=OpKind.DELETE, atom=None),
    ]
    state = (site.replica.state_digest(), dict(site.pending), set(site.epoch_ids),
             {e: dict(ops) for e, ops in site.epoch_buffers.items()})
    for op in bad + [op._replace(epoch=2) for op in bad]:
        with pytest.raises(ProtocolError):
            site.deliver(op)
        assert state == (site.replica.state_digest(), dict(site.pending),
                         set(site.epoch_ids),
                         {e: dict(ops) for e, ops in site.epoch_buffers.items()})
    assert site.replica.text() == "a"
    assert site.deliver(second) is DeliverResult.APPLIED
    assert site.replica.text() == "abc"


# -- causal readiness ----------------------------------------------------------


def causal_ready(replica, op):
    """Structural delivery condition; no vector clocks involved."""
    if op.kind is OpKind.DELETE:
        return replica.find(op.tid) is not None
    return replica.ancestors_exist(op.tid)


def test_causal_ready_cases():
    site = Site(b"A", Role.CORE)
    root_insert = Operation(0, OpKind.INSERT, TID(b"X"), b"x", b"X", 1)
    assert causal_ready(site.replica, root_insert)
    orphan = Operation(0, OpKind.INSERT, tid((1, 0), root=b"X", dis=b"X"), b"d", b"X", 2)
    assert not causal_ready(site.replica, orphan)
    abcdef = build_abcdef()
    site.replica = abcdef
    assert causal_ready(site.replica, Operation(0, OpKind.DELETE, tid((0,)), None, b"X", 3))


def test_delivered_wire_ops_share_one_disambiguator_per_site():
    # Ids of more than one byte: CPython keeps one object per one-byte bytes.
    writers = [Site(name, Role.CORE) for name in (b"site-a", b"site-b", b"site-c")]
    rng = Random(5)
    wire = []
    for _ in range(90):
        site = rng.choice(writers)
        position = rng.randint(0, site.replica.live_count)
        op = site.submit_local(OpKind.INSERT, position=position, atom=b"x")
        wire.append((op.epoch, op.kind, op.tid.encode(), op.atom, op.origin, op.origin_seq))
        for other in writers:
            if other is not site:
                other.deliver(op)
    nebula = Site(b"site-n", Role.NEBULA)
    for epoch, kind, data, atom, origin, seq in wire:
        op = Operation(epoch, kind, TID.decode(data), atom, origin, seq)
        assert nebula.deliver(op) is DeliverResult.APPLIED
    minis = [mini for mini, *_ in nebula.replica.iter_nodes()]
    assert len(minis) == 90
    assert len({id(mini.disambiguator) for mini in minis}) <= 3
    keys = list(nebula.applied_inserts)
    steps = [elem for t in keys for elem in t.path]
    assert len(steps) > 90
    # One left and one right element per site, shared by every key.
    assert len({id(elem) for elem in steps}) <= 6
    assert len({id(t.root_disambiguator) for t in keys}) <= 3


# -- deliver -------------------------------------------------------------------


def _chain_ops():
    origin = Site(b"O", Role.CORE)
    first = origin.submit_local(OpKind.INSERT, position=0, atom=b"p")
    second = origin.submit_local(OpKind.INSERT, position=1, atom=b"q")
    return origin, first, second


def test_deliver_buffers_until_causally_ready():
    origin, first, second = _chain_ops()
    assert first.tid.child(*second.tid.path[-1]) == second.tid  # a real descendant
    site = Site(b"R", Role.CORE)
    assert site.deliver(second) is DeliverResult.BUFFERED
    assert site.replica.text() == ""
    assert site.deliver(first) is DeliverResult.APPLIED
    assert site.replica.text() == "pq"
    assert not site.pending
    in_order = Site(b"S", Role.CORE)
    in_order.deliver(first)
    in_order.deliver(second)
    assert site.replica.state_digest() == in_order.replica.state_digest()


def test_deliver_duplicate_reports_duplicate():
    origin, first, _ = _chain_ops()
    site = Site(b"R", Role.CORE)
    assert site.deliver(first) is DeliverResult.APPLIED
    before = site.replica.state_digest()
    assert site.deliver(first) is DeliverResult.DUPLICATE
    assert site.replica.state_digest() == before


def test_deliver_duplicate_while_buffered():
    _, _, second = _chain_ops()
    site = Site(b"R", Role.CORE)
    assert site.deliver(second) is DeliverResult.BUFFERED
    assert site.deliver(second) is DeliverResult.DUPLICATE
    assert len(site.pending) == 1


def test_deliver_from_an_earlier_epoch_is_dropped():
    site = Site(b"B", Role.CORE)
    site.submit_local(OpKind.INSERT, position=0, atom=b"b")
    site.outbox.clear()
    initiate_flatten(site, [site])
    assert site.replica.epoch == 1
    before = site.replica.state_digest()
    stale = Operation(0, OpKind.INSERT, TID(b"X"), b"x", b"X", 1)
    assert site.deliver(stale) is DeliverResult.WRONG_EPOCH
    assert site.epoch_buffers == {}
    assert site.replica.state_digest() == before
    assert site.replica.text() == "b"


def test_any_delivery_order_converges():
    # Fresh replicas fed the same operation set in unrelated shuffled
    # orders (buffering sorts out causal readiness) end up identical.
    rng = Random(5150)
    for _ in range(30):
        origins = [Site(bytes([65 + i]), Role.CORE) for i in range(3)]
        ops = []
        for i in range(25):
            site = origins[rng.randrange(3)]
            live = site.replica.live_count
            if live and rng.random() < 0.35:
                op = site.submit_local(OpKind.DELETE, position=rng.randrange(live))
            else:
                op = site.submit_local(
                    OpKind.INSERT, position=rng.randint(0, live), atom=b"%d" % i
                )
            site.outbox.clear()
            for other in origins:
                if other is not site:
                    other.deliver(op)
            ops.append(op)
        replica_a = Site(b"RA", Role.CORE)
        replica_b = Site(b"RB", Role.CORE)
        order_a, order_b = ops[:], ops[:]
        rng.shuffle(order_a)
        rng.shuffle(order_b)
        for op in order_a:
            replica_a.deliver(op)
        for op in order_b:
            replica_b.deliver(op)
        assert replica_a.replica.state_digest() == origins[0].replica.state_digest()
        assert replica_a.replica.state_digest() == replica_b.replica.state_digest()
        assert not replica_a.pending and not replica_b.pending


def test_duplicate_tolerance_any_redelivery_count():
    origin = Site(b"O", Role.CORE)
    ops = []
    rng = Random(4)
    for i in range(30):
        live = origin.replica.live_count
        if live and rng.random() < 0.3:
            ops.append(origin.submit_local(OpKind.DELETE, position=rng.randrange(live)))
        else:
            ops.append(
                origin.submit_local(
                    OpKind.INSERT, position=rng.randint(0, live), atom=b"%d" % i
                )
            )
    baseline = Site(b"B", Role.CORE)
    for op in ops:
        baseline.deliver(op)
    noisy = Site(b"N", Role.CORE)
    scrambled = ops * 3
    rng.shuffle(scrambled)
    for op in scrambled:
        noisy.deliver(op)
    assert noisy.replica.state_digest() == baseline.replica.state_digest()
    assert not noisy.pending


# -- votes and the flatten round ------------------------------------------------


def test_vote_yes_when_synchronized_and_idle():
    a, b, c = make_cores()
    a.submit_local(OpKind.INSERT, position=0, atom=b"x")
    gossip([a, b, c])
    prepare = PrepareMessage(a.id, 0, ids_digest(a.epoch_ids))
    assert b.vote_on_prepare(prepare).decision is VoteDecision.YES


def test_vote_no_on_undelivered_local_op():
    a, b, c = make_cores()
    a.submit_local(OpKind.INSERT, position=0, atom=b"x")
    gossip([a, b, c])
    b.submit_local(OpKind.INSERT, position=1, atom=b"y")  # stays in b's outbox
    prepare = PrepareMessage(a.id, 0, ids_digest(a.epoch_ids))
    assert b.vote_on_prepare(prepare).decision is VoteDecision.NO


def test_vote_no_on_buffered_pending_op():
    a, b, c = make_cores()
    orphan = Operation(0, OpKind.INSERT, tid((0,), root=b"X", dis=b"X"), b"x", b"X", 7)
    assert b.deliver(orphan) is DeliverResult.BUFFERED
    prepare = PrepareMessage(a.id, 0, ids_digest(a.epoch_ids))
    assert b.vote_on_prepare(prepare).decision is VoteDecision.NO


def test_flatten_commits_on_synchronized_idle_cores():
    cores = make_cores()
    rng = Random(8)
    for i in range(40):
        site = cores[rng.randrange(3)]
        live = site.replica.live_count
        if live and rng.random() < 0.4:
            site.submit_local(OpKind.DELETE, position=rng.randrange(live))
        else:
            site.submit_local(OpKind.INSERT, position=rng.randint(0, live), atom=b"%d" % i)
        gossip(cores)
    outcome = initiate_flatten(cores[0], cores)
    assert outcome.committed
    assert outcome.new_epoch == 1
    for site in cores:
        assert site.replica.epoch == 1
        assert site.replica.tombstone_count == 0
        assert site.replica.state_digest() == cores[0].replica.state_digest()


def test_update_wins_aborts_and_preserves_state():
    cores = make_cores()
    cores[0].submit_local(OpKind.INSERT, position=0, atom=b"x")
    gossip(cores)
    survivor = cores[1].submit_local(OpKind.INSERT, position=1, atom=b"y")
    snapshots = [s.replica.state_digest() for s in cores]
    outcome = initiate_flatten(cores[0], cores)
    assert not outcome.committed
    assert outcome.reason is AbortReason.NO_VOTE
    assert [s.replica.state_digest() for s in cores] == snapshots
    # the concurrent update survives and the next round can commit
    gossip(cores)
    assert all(s.replica.text() == "xy" for s in cores)
    retry = initiate_flatten(cores[0], cores)
    assert retry.committed
    assert survivor.identity in retry.announcement.committed_ids


def test_flatten_aborts_on_crashed_member():
    cores = make_cores()
    gossip(cores)
    cores[2].crashed = True
    outcome = initiate_flatten(cores[0], cores)
    assert not outcome.committed
    assert outcome.reason is AbortReason.CRASHED_MEMBER


def test_flatten_aborts_on_unreachable_member():
    cores = make_cores()
    cores[1].unreachable = True
    outcome = initiate_flatten(cores[0], cores)
    assert not outcome.committed
    assert outcome.reason is AbortReason.TIMEOUT


def test_epoch_isolation_never_applies_across_epochs():
    site = Site(b"B", Role.CORE)
    initiate_flatten(site, [site])
    newer = Operation(4, OpKind.INSERT, TID(b"X"), b"x", b"X", 1)
    before = site.replica.state_digest()
    assert site.deliver(newer) is DeliverResult.WRONG_EPOCH
    assert site.replica.state_digest() == before


# -- colors ---------------------------------------------------------------------


def _core_and_nebula():
    core = Site(b"A", Role.CORE)
    nebula = Site(b"N", Role.NEBULA)
    return core, nebula


def _ship(core, nebula):
    ops, core.outbox = core.outbox, []
    for op in ops:
        nebula.deliver(op)


def test_all_core_ops_color_cyan_and_emit_nothing():
    core, nebula = _core_and_nebula()
    core.submit_local(OpKind.INSERT, position=0, atom=b"a")
    core.submit_local(OpKind.INSERT, position=1, atom=b"b")
    core.submit_local(OpKind.DELETE, position=0)
    _ship(core, nebula)
    outcome = initiate_flatten(core, [core])
    nebula.receive_decision(outcome.announcement)
    emissions = nebula.catch_up()
    assert emissions == []
    assert nebula.replica.state_digest() == core.replica.state_digest()


def test_core_insert_nebula_delete_is_cyan_node_black_tombstone():
    core, nebula = _core_and_nebula()
    core.submit_local(OpKind.INSERT, position=0, atom=b"a")
    _ship(core, nebula)
    delete = nebula.submit_local(OpKind.DELETE, position=0)

    black = nebula.mark_colors({op for op in core.epoch_ids})
    (t, mini), = list(nebula.replica.walk())
    assert mini.tombstone
    # Cyan node (no uncommitted insert), black tombstone (its delete to emit).
    assert black == {mini: (None, delete.identity)}


def test_nebula_only_insert_is_black():
    core, nebula = _core_and_nebula()
    insert = nebula.submit_local(OpKind.INSERT, position=0, atom=b"n")
    black = nebula.mark_colors(set())
    (_, mini), = list(nebula.replica.walk())
    assert black == {mini: (insert.identity, None)}


def test_black_node_with_cyan_tombstone_is_rejected():
    _, nebula = _core_and_nebula()
    nebula.submit_local(OpKind.INSERT, position=0, atom=b"x")
    delete = nebula.submit_local(OpKind.DELETE, position=0)
    with pytest.raises(InvariantViolation):
        nebula.mark_colors({delete.identity})


def test_mark_colors_is_nebula_only():
    core, _ = _core_and_nebula()
    with pytest.raises(ProtocolError):
        core.mark_colors(set())


# -- catch-up ---------------------------------------------------------------------


def test_catch_up_walkthrough_insert_between_and_delete():
    core, nebula = _core_and_nebula()
    core.submit_local(OpKind.INSERT, position=0, atom=b"a")
    core.submit_local(OpKind.INSERT, position=1, atom=b"c")
    _ship(core, nebula)
    insert_b = nebula.submit_local(OpKind.INSERT, position=1, atom=b"b")
    delete_c = nebula.submit_local(OpKind.DELETE, position=2)
    outcome = initiate_flatten(core, [core])
    nebula.receive_decision(outcome.announcement)

    emissions = nebula.catch_up()
    kinds = sorted(op.kind.value for op in emissions)
    assert kinds == ["delete", "insert"]
    sent_insert = next(op for op in emissions if op.kind is OpKind.INSERT)
    sent_delete = next(op for op in emissions if op.kind is OpKind.DELETE)
    assert sent_insert.atom == b"b"
    assert sent_insert.epoch == 1 and sent_delete.epoch == 1
    assert sent_insert.identity == insert_b.identity
    assert sent_delete.identity == delete_c.identity

    for op in emissions:
        assert core.deliver(op) is DeliverResult.APPLIED
    assert core.replica.text() == "ab"
    assert nebula.replica.text() == "ab"
    assert core.replica.state_digest() == nebula.replica.state_digest()
    core_live = {t for t, m in core.replica.walk() if not m.tombstone}
    neb_live = {t for t, m in nebula.replica.walk() if not m.tombstone}
    assert core_live == neb_live


def test_catch_up_insert_lands_right_after_anchor():
    core, nebula = _core_and_nebula()
    core.submit_local(OpKind.INSERT, position=0, atom=b"a")
    core.submit_local(OpKind.INSERT, position=1, atom=b"z")
    _ship(core, nebula)
    nebula.submit_local(OpKind.INSERT, position=1, atom=b"x")
    outcome = initiate_flatten(core, [core])
    nebula.receive_decision(outcome.announcement)
    emissions = nebula.catch_up()
    assert len(emissions) == 1
    for op in emissions:
        core.deliver(op)
    assert core.replica.text() == "axz"
    assert core.replica.state_digest() == nebula.replica.state_digest()


def test_catch_up_translates_delete_of_core_atom():
    core, nebula = _core_and_nebula()
    core.submit_local(OpKind.INSERT, position=0, atom=b"c")
    _ship(core, nebula)
    nebula.submit_local(OpKind.DELETE, position=0)
    outcome = initiate_flatten(core, [core])
    nebula.receive_decision(outcome.announcement)
    emissions = nebula.catch_up()
    assert [op.kind for op in emissions] == [OpKind.DELETE]
    assert core.replica.text() == "c"  # core still has it live
    core.deliver(emissions[0])
    assert core.replica.text() == ""
    assert core.replica.state_digest() == nebula.replica.state_digest()


def test_catch_up_requires_all_committed_ops():
    core, nebula = _core_and_nebula()
    stranded = core.submit_local(OpKind.INSERT, position=0, atom=b"a")
    core.outbox.clear()  # never reaches the nebula
    outcome = initiate_flatten(core, [core])
    nebula.receive_decision(outcome.announcement)
    with pytest.raises(ProtocolError):
        nebula.catch_up()
    # delivering the missing op first is enough
    assert nebula.deliver(stranded) is DeliverResult.APPLIED
    emissions = nebula.catch_up()
    assert emissions == []
    assert nebula.replica.state_digest() == core.replica.state_digest()


def test_catch_up_emits_ops_received_from_other_nebula_sites():
    core = Site(b"A", Role.CORE)
    n1 = Site(b"N1", Role.NEBULA)
    n2 = Site(b"N2", Role.NEBULA)
    core.submit_local(OpKind.INSERT, position=0, atom=b"a")
    ops, core.outbox = core.outbox, []
    for op in ops:
        n1.deliver(op)
        n2.deliver(op)
    foreign = n1.submit_local(OpKind.INSERT, position=1, atom=b"x")
    n2.deliver(foreign)  # nebula-to-nebula exchange, then n1 goes dark
    outcome = initiate_flatten(core, [core])
    n2.receive_decision(outcome.announcement)
    emissions = n2.catch_up()
    assert [op.identity for op in emissions] == [foreign.identity]
    for op in emissions:
        core.deliver(op)
    assert core.replica.text() == "ax"
    assert core.replica.state_digest() == n2.replica.state_digest()


def test_multi_epoch_lag_chains_catch_ups():
    core, nebula = _core_and_nebula()
    first = core.submit_local(OpKind.INSERT, position=0, atom=b"a")
    _ship(core, nebula)
    mine = nebula.submit_local(OpKind.INSERT, position=1, atom=b"n")
    nebula.outbox.clear()  # cut off from the core for two epochs

    one = initiate_flatten(core, [core])
    second = core.submit_local(OpKind.INSERT, position=1, atom=b"b")
    core.outbox.clear()
    two = initiate_flatten(core, [core])
    assert core.replica.epoch == 2

    nebula.receive_decision(one.announcement)
    nebula.receive_decision(two.announcement)
    assert nebula.deliver(second) is DeliverResult.WRONG_EPOCH
    emissions = nebula.maybe_catch_up()
    assert nebula.replica.epoch == 2
    assert [op.identity for op in emissions] == [mine.identity]
    assert all(op.epoch == 2 for op in emissions)
    for op in emissions:
        core.deliver(op)
    assert core.replica.text() == nebula.replica.text() == "abn"
    assert core.replica.state_digest() == nebula.replica.state_digest()


def test_catch_up_checks_epoch_and_announcement():
    from treedoc import EpochMismatch

    core, nebula = _core_and_nebula()
    with pytest.raises(EpochMismatch):
        nebula.catch_up()  # no announcement stored
    ann = initiate_flatten(core, [core]).announcement
    nebula.receive_decision(ann._replace(new_epoch=2))
    with pytest.raises(EpochMismatch):
        nebula.catch_up()  # the stored one skips an epoch
    assert nebula.replica.epoch == 0


def test_failed_digest_check_leaves_the_replica_intact():
    core, nebula = _core_and_nebula()
    for i, atom in enumerate(b"abcd"):
        core.submit_local(OpKind.INSERT, position=i, atom=bytes([atom]))
    _ship(core, nebula)
    nebula.submit_local(OpKind.INSERT, position=2, atom=b"x")
    nebula.submit_local(OpKind.DELETE, position=0)
    ann = initiate_flatten(core, [core]).announcement
    digest, text = nebula.replica.state_digest(), nebula.replica.text()
    nebula.announcements[0] = ann._replace(doc_digest="0" * 64)
    with pytest.raises(InvariantViolation):
        nebula.catch_up()
    assert nebula.replica.state_digest() == digest
    assert nebula.replica.text() == text == "bxcd"
    assert nebula.replica.epoch == 0
    nebula.announcements[0] = ann
    emissions = nebula.catch_up()
    for op in emissions:
        core.deliver(op)
    assert core.replica.state_digest() == nebula.replica.state_digest()


def test_black_subtree_under_cyan_tombstone_reattaches_in_order():
    core, nebula = _core_and_nebula()
    core.submit_local(OpKind.INSERT, position=0, atom=b"a")
    core.submit_local(OpKind.INSERT, position=1, atom=b"k")
    core.submit_local(OpKind.INSERT, position=2, atom=b"z")
    delete_k = core.submit_local(OpKind.DELETE, position=1)
    _ship(core, nebula)
    # nebula hangs two atoms around the now-dead "k": order must survive
    nebula.submit_local(OpKind.INSERT, position=1, atom=b"p")
    nebula.submit_local(OpKind.INSERT, position=2, atom=b"q")
    assert nebula.replica.text() == "apqz"
    outcome = initiate_flatten(core, [core])
    nebula.receive_decision(outcome.announcement)
    emissions = nebula.catch_up()
    assert len(emissions) == 2
    for op in emissions:
        core.deliver(op)
    assert core.replica.text() == "apqz"
    assert core.replica.state_digest() == nebula.replica.state_digest()
    assert delete_k.identity in outcome.announcement.committed_ids


def test_catch_up_matches_single_site_oracle():
    # The converged text must equal what a site that applied every old-epoch
    # operation and then flattened would read.
    from treedoc.flatten import flatten_for_commit

    rng = Random(77)
    for _ in range(30):
        core = Site(b"A", Role.CORE)
        nebula = Site(b"N", Role.NEBULA)
        oracle = Site(b"O", Role.CORE)
        for _ in range(rng.randint(1, 12)):
            live = core.replica.live_count
            if live and rng.random() < 0.3:
                core.submit_local(OpKind.DELETE, position=rng.randrange(live))
            else:
                core.submit_local(
                    OpKind.INSERT,
                    position=rng.randint(0, live),
                    atom=bytes([97 + rng.randrange(26)]),
                )
        ops, core.outbox = core.outbox, []
        for op in ops:
            nebula.deliver(op)
            oracle.deliver(op)
        for _ in range(rng.randint(0, 10)):
            live = nebula.replica.live_count
            if live and rng.random() < 0.4:
                nebula.submit_local(OpKind.DELETE, position=rng.randrange(live))
            else:
                nebula.submit_local(
                    OpKind.INSERT,
                    position=rng.randint(0, live),
                    atom=bytes([65 + rng.randrange(26)]),
                )
        for op in nebula.outbox:
            oracle.deliver(op)
        expected = flatten_for_commit(oracle.replica)[0].text()

        outcome = initiate_flatten(core, [core])
        nebula.receive_decision(outcome.announcement)
        emissions = nebula.maybe_catch_up()
        for op in emissions:
            core.deliver(op)
        assert core.replica.text() == expected
        assert core.replica.state_digest() == nebula.replica.state_digest()


def test_catch_up_stress_interleaved_rounds():
    # Multiple rounds of core edits shipped to the nebula with local nebula
    # edits in between: black subtrees end up nested under cyan nodes that
    # later rounds tombstone, deletes race from both sides, and black
    # chains stack. The single-site oracle still has to predict the text.
    from treedoc.flatten import flatten_for_commit

    rng = Random(1234)
    for _ in range(40):
        core = Site(b"A", Role.CORE)
        nebula = Site(b"N", Role.NEBULA)
        oracle = Site(b"O", Role.CORE)
        for _ in range(3):
            for _ in range(rng.randint(0, 6)):
                live = core.replica.live_count
                if live and rng.random() < 0.35:
                    core.submit_local(OpKind.DELETE, position=rng.randrange(live))
                else:
                    core.submit_local(
                        OpKind.INSERT,
                        position=rng.randint(0, live),
                        atom=bytes([97 + rng.randrange(26)]),
                    )
            ops, core.outbox = core.outbox, []
            for op in ops:
                nebula.deliver(op)
                oracle.deliver(op)
            for _ in range(rng.randint(0, 6)):
                live = nebula.replica.live_count
                if live and rng.random() < 0.35:
                    op = nebula.submit_local(OpKind.DELETE, position=rng.randrange(live))
                else:
                    op = nebula.submit_local(
                        OpKind.INSERT,
                        position=rng.randint(0, live),
                        atom=bytes([65 + rng.randrange(26)]),
                    )
                oracle.deliver(op)
        expected = flatten_for_commit(oracle.replica)[0].text()

        outcome = initiate_flatten(core, [core])
        assert outcome.committed
        nebula.receive_decision(outcome.announcement)
        emissions = nebula.maybe_catch_up()
        assert nebula.replica.epoch == 1
        for op in emissions:
            core.deliver(op)
        assert core.replica.text() == expected
        assert core.replica.state_digest() == nebula.replica.state_digest()
        assert nebula.replica.counters_consistent()


def test_catch_up_batch_applies_in_order_without_buffering():
    # The schedule of test_catch_up_stress_interleaved_rounds, with a second,
    # passive nebula. The batch is ordered by depth, inserts before deletes,
    # so the core and the other nebula apply it in order: nothing waits.
    rng = Random(1234)
    for _ in range(40):
        core = Site(b"A", Role.CORE)
        nebula = Site(b"N", Role.NEBULA)
        other = Site(b"M", Role.NEBULA)
        for _ in range(3):
            for _ in range(rng.randint(0, 6)):
                live = core.replica.live_count
                if live and rng.random() < 0.35:
                    core.submit_local(OpKind.DELETE, position=rng.randrange(live))
                else:
                    core.submit_local(
                        OpKind.INSERT,
                        position=rng.randint(0, live),
                        atom=bytes([97 + rng.randrange(26)]),
                    )
            ops, core.outbox = core.outbox, []
            for op in ops:
                nebula.deliver(op)
                other.deliver(op)
            for _ in range(rng.randint(0, 6)):
                live = nebula.replica.live_count
                if live and rng.random() < 0.35:
                    nebula.submit_local(OpKind.DELETE, position=rng.randrange(live))
                else:
                    nebula.submit_local(
                        OpKind.INSERT,
                        position=rng.randint(0, live),
                        atom=bytes([65 + rng.randrange(26)]),
                    )

        outcome = initiate_flatten(core, [core])
        for site in (nebula, other):
            site.receive_decision(outcome.announcement)
        assert other.maybe_catch_up() == []
        emissions = nebula.maybe_catch_up()
        for site in (core, other):
            results = [site.deliver(op) for op in emissions]
            assert DeliverResult.BUFFERED not in results
            assert site.replica.state_digest() == nebula.replica.state_digest()


def test_racing_deletes_count_as_cyan_and_stay_local():
    # The nebula tombstones an atom, then the core's concurrent delete of
    # the same atom arrives (ALREADY_TOMBSTONE). One committed delete is
    # enough: the node drops out of the flattened list and the redundant
    # local delete identity is not re-sent.
    core, nebula = _core_and_nebula()
    core.submit_local(OpKind.INSERT, position=0, atom=b"x")
    _ship(core, nebula)
    nebula.submit_local(OpKind.DELETE, position=0)
    core.submit_local(OpKind.DELETE, position=0)
    _ship(core, nebula)
    outcome = initiate_flatten(core, [core])
    nebula.receive_decision(outcome.announcement)
    emissions = nebula.maybe_catch_up()
    assert emissions == []
    assert core.replica.text() == "" == nebula.replica.text()
    assert nebula.replica.state_digest() == core.replica.state_digest()


def test_emitted_tombstoned_black_nodes_round_trip():
    # A nebula atom inserted and deleted in the same epoch still crosses the
    # epoch boundary as an insert+delete pair so structures stay identical.
    core, nebula = _core_and_nebula()
    core.submit_local(OpKind.INSERT, position=0, atom=b"a")
    _ship(core, nebula)
    nebula.submit_local(OpKind.INSERT, position=1, atom=b"x")
    nebula.submit_local(OpKind.DELETE, position=1)
    outcome = initiate_flatten(core, [core])
    nebula.receive_decision(outcome.announcement)
    emissions = nebula.catch_up()
    assert [op.kind for op in emissions] == [OpKind.INSERT, OpKind.DELETE]
    for op in emissions:
        core.deliver(op)
    assert core.replica.text() == "a"
    assert core.replica.state_digest() == nebula.replica.state_digest()
    assert core.replica.tombstone_count == 1


# -- site metadata ----------------------------------------------------------------


def _count_ids_digest(monkeypatch):
    calls = []
    real = protocol.ids_digest

    def counting(ids):
        calls.append(ids)
        return real(ids)

    monkeypatch.setattr(protocol, "ids_digest", counting)
    return calls


def test_flatten_round_digests_each_members_epoch_set_once(monkeypatch):
    solo = Site(b"A", Role.CORE)
    solo.submit_local(OpKind.INSERT, position=0, atom=b"x")
    solo.outbox.clear()
    cores = make_cores()
    cores[0].submit_local(OpKind.INSERT, position=0, atom=b"y")
    gossip(cores)
    calls = _count_ids_digest(monkeypatch)
    assert initiate_flatten(solo, [solo]).committed
    assert len(calls) == 1
    calls.clear()
    assert initiate_flatten(cores[0], cores).committed
    assert len(calls) == 3


def test_delivery_between_prepare_and_vote_gives_a_no_vote():
    a, b, c = make_cores()
    a.submit_local(OpKind.INSERT, position=0, atom=b"x")
    gossip([a, b, c])
    prepare = PrepareMessage(a.id, 0, a.epoch_ids_digest())
    assert b.vote_on_prepare(prepare).decision is VoteDecision.YES
    late = c.submit_local(OpKind.INSERT, position=1, atom=b"y")
    c.outbox.clear()
    assert b.deliver(late) is DeliverResult.APPLIED
    assert b.vote_on_prepare(prepare).decision is VoteDecision.NO


def test_only_nebula_sites_fill_the_applied_tables():
    core = Site(b"A", Role.CORE)
    nebula = Site(b"N", Role.NEBULA)
    other = Site(b"B", Role.CORE)
    ops = [
        core.submit_local(OpKind.INSERT, position=0, atom=b"a"),
        core.submit_local(OpKind.INSERT, position=1, atom=b"b"),
        core.submit_local(OpKind.DELETE, position=0),
        other.submit_local(OpKind.INSERT, position=0, atom=b"c"),
        other.submit_local(OpKind.DELETE, position=0),
    ]
    for op in ops:
        if op.origin != core.id:
            assert core.deliver(op) is DeliverResult.APPLIED
        assert nebula.deliver(op) is DeliverResult.APPLIED
    nebula.submit_local(OpKind.INSERT, position=0, atom=b"n")
    assert core.applied_inserts == {} and core.applied_deletes == {}
    assert len(nebula.applied_inserts) == 4 and len(nebula.applied_deletes) == 2


def test_epoch_change_drops_older_per_epoch_state():
    core = Site(b"A", Role.CORE)
    nebula = Site(b"N", Role.NEBULA)
    nebula.deliver(core.submit_local(OpKind.INSERT, position=0, atom=b"a"))
    core.outbox.clear()
    first = initiate_flatten(core, [core]).announcement
    # Committed members are past the announced epoch and store nothing.
    assert core.announcements == {} and core.epoch_ids == set()
    stale = Operation(0, OpKind.INSERT, TID(b"X"), b"x", b"X", 1)
    assert core.deliver(stale) is DeliverResult.WRONG_EPOCH
    ahead = core.submit_local(OpKind.INSERT, position=1, atom=b"b")
    core.outbox.clear()
    second = initiate_flatten(core, [core]).announcement
    assert core.epoch_buffers == {}
    assert nebula.deliver(ahead) is DeliverResult.WRONG_EPOCH
    nebula.receive_decision(second)
    nebula.receive_decision(first)
    assert sorted(nebula.announcements) == [0, 1]
    assert nebula.maybe_catch_up() == []
    assert nebula.replica.epoch == 2
    assert nebula.announcements == {} and nebula.epoch_buffers == {}
    assert nebula.epoch_ids == set()
    nebula.receive_decision(first)  # a late duplicate
    assert nebula.announcements == {}
    assert nebula.replica.state_digest() == core.replica.state_digest()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_duplicate_filter_matches_a_plain_identity_set(data):
    counts = data.draw(st.lists(st.integers(1, 10), min_size=2, max_size=3))
    origins = [b"O%d" % i for i in range(len(counts))]
    ops = [
        Operation(0, OpKind.INSERT, TID(origin + b"#%d" % seq), b"a", origin, seq)
        for origin, count in zip(origins, counts)
        for seq in range(1, count + 1)
    ]
    repeats = data.draw(st.lists(st.sampled_from(ops), max_size=len(ops)))
    order = data.draw(st.permutations(ops + repeats))
    site = Site(b"R", Role.CORE)
    delivered: set = set()  # the model: every identity recorded so far
    for op in order:
        fresh = op.identity not in delivered
        expected = DeliverResult.APPLIED if fresh else DeliverResult.DUPLICATE
        assert site.deliver(op) is expected
        delivered.add(op.identity)


def _container_total(site: Site) -> int:
    return sum(
        len(value)
        for value in vars(site).values()
        if isinstance(value, (set, dict, list))
    )


def test_dropped_racing_delete_leaves_no_identity_state_behind():
    # Each round the nebula deletes an atom the core deletes too, and its
    # delete never reaches the core: the core flattens alone, and catch-up
    # drops the racing delete as redundant. The nebula then goes on editing.
    # No site may keep identity state that grows with the rounds.
    core, nebula = _core_and_nebula()
    totals = {}
    for round_no in range(1, 41):
        core.submit_local(OpKind.INSERT, position=0, atom=b"x")
        _ship(core, nebula)
        nebula.submit_local(OpKind.DELETE, position=0)
        nebula.outbox.clear()
        core.submit_local(OpKind.DELETE, position=0)
        _ship(core, nebula)
        outcome = initiate_flatten(core, [core])
        nebula.receive_decision(outcome.announcement)
        assert nebula.maybe_catch_up() == []
        nebula.submit_local(OpKind.INSERT, position=0, atom=b"n")
        _ship(nebula, core)
        for site in (core, nebula):
            site.take_delivered()
        if round_no in (10, 40):
            totals[round_no] = [_container_total(s) for s in (core, nebula)]
    assert core.replica.state_digest() == nebula.replica.state_digest()
    assert totals[10] == totals[40]


def test_re_emitted_delete_of_a_node_the_receiver_tombstoned_is_a_duplicate():
    # N1 receives N2's delete of an atom both deleted; the core kept the
    # atom and flattens alone. Each nebula re-emits its own delete, and each
    # one reaches the other nebula in the new epoch (argument (c) of
    # ``Site.deliver``).
    core = Site(b"A", Role.CORE)
    n1 = Site(b"N1", Role.NEBULA)
    n2 = Site(b"N2", Role.NEBULA)
    core.submit_local(OpKind.INSERT, position=0, atom=b"a")
    core.submit_local(OpKind.INSERT, position=1, atom=b"b")
    ops, core.outbox = core.outbox, []
    for op in ops:
        n1.deliver(op)
        n2.deliver(op)
    d1 = n1.submit_local(OpKind.DELETE, position=0)
    d2 = n2.submit_local(OpKind.DELETE, position=0)
    n1.outbox.clear()
    n2.outbox.clear()
    assert n1.deliver(d2) is DeliverResult.DUPLICATE
    outcome = initiate_flatten(core, [core])
    for site in (n1, n2):
        site.receive_decision(outcome.announcement)
    e1 = n1.maybe_catch_up()
    e2 = n2.maybe_catch_up()
    assert [op.identity for op in e1] == [d1.identity]
    assert [op.identity for op in e2] == [d2.identity]
    for receiver, emitted in ((n2, e1), (n1, e2)):
        before = receiver.replica.state_digest()
        for op in emitted:
            assert receiver.deliver(op) is DeliverResult.DUPLICATE
        assert receiver.replica.state_digest() == before
    for op in e1 + e2:
        core.deliver(op)
    assert core.replica.text() == n1.replica.text() == n2.replica.text() == "b"
    assert core.replica.state_digest() == n1.replica.state_digest()
    assert core.replica.state_digest() == n2.replica.state_digest()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_redelivery_after_flattens_is_a_wrong_epoch(data):
    a, b = make_cores(2)
    nebula = Site(b"N", Role.NEBULA)
    sites = [a, b, nebula]
    rng = Random(data.draw(st.integers(0, 2**16)))
    delivered = []
    for _ in range(data.draw(st.integers(1, 3))):
        for _ in range(data.draw(st.integers(1, 8))):
            site = rng.choice(sites)
            live = site.replica.live_count
            if live and rng.random() < 0.3:
                site.submit_local(OpKind.DELETE, position=rng.randrange(live))
            else:
                site.submit_local(
                    OpKind.INSERT, position=rng.randint(0, live), atom=b"e"
                )
            delivered.extend(site.outbox)
            gossip(sites)
        outcome = initiate_flatten(a, [a, b])
        assert outcome.committed
        nebula.receive_decision(outcome.announcement)
        assert nebula.maybe_catch_up() == []
    op = data.draw(st.sampled_from(delivered))
    for site in sites:
        before = site.replica.state_digest()
        assert site.deliver(op) is DeliverResult.WRONG_EPOCH
        assert site.replica.state_digest() == before
        assert site.epoch_buffers == {}


def test_operation_is_a_plain_immutable_tuple():
    op = Operation(0, OpKind.INSERT, TID(b"X"), b"x", b"X", 1)
    twin = Operation(0, OpKind.INSERT, TID(b"X"), b"x", b"X", 1)
    assert op == twin and hash(op) == hash(twin)
    assert not hasattr(op, "__dict__")
    with pytest.raises(AttributeError):
        op.tid = TID(b"Y")
    assert op.tid == TID(b"X")


def test_submit_needs_a_position_or_a_tid():
    site = Site(b"A", Role.CORE)
    site.submit_local(OpKind.INSERT, position=0, atom=b"x")
    for kind, atom in ((OpKind.INSERT, b"y"), (OpKind.DELETE, None)):
        with pytest.raises(ProtocolError, match="needs a position"):
            site.submit_local(kind, atom=atom)
    assert site.next_seq == 2
    assert site.replica.text() == "x"


def test_deliver_rejects_a_rootless_insert_instead_of_buffering_it():
    site = Site(b"A", Role.CORE)
    site.submit_local(OpKind.INSERT, position=0, atom=b"a")
    site.outbox.clear()
    with pytest.raises(MalformedTID):
        site.deliver(Operation(0, OpKind.INSERT, TID(None, ()), b"x", b"b", 1))
    assert not site.pending
    assert site.replica.text() == "a"
    # Nothing is left waiting that could block the next commit round.
    assert initiate_flatten(site, [site]).committed


def test_deliver_walks_each_remote_op_once_per_attempt(monkeypatch):
    origin, first, second = _chain_ops()
    site = Site(b"R", Role.CORE)
    walks = []
    chain = type(site.replica)._chain
    monkeypatch.setattr(
        type(site.replica), "_chain", lambda doc, t: walks.append(t) or chain(doc, t)
    )
    assert site.deliver(second) is DeliverResult.BUFFERED
    assert walks == [second.tid]
    assert site.deliver(first) is DeliverResult.APPLIED
    assert walks == [second.tid, first.tid, second.tid]
    assert site.replica.text() == "pq"


# -- several sites at one tree position -------------------------------------------


def _deliver_scrambled(data, site, ops):
    """Deliver ``ops`` to ``site`` in a drawn order, some of them again."""
    again = data.draw(st.lists(st.sampled_from(ops), max_size=len(ops))) if ops else []
    for op in data.draw(st.permutations(ops + again)):
        site.deliver(op)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sites_inserting_at_one_position_converge_through_flatten_and_catch_up(data):
    # Three or more of three cores and two nebulas insert at one position of
    # equal replicas, so their first atoms share a major node; a second atom
    # right after a site's first hangs below it. The nebulas may then insert
    # at one position of their own again. Every op reaches its readers in
    # any order, some twice, before a flatten and both nebulas' catch-ups.
    cores = [Site(b"C%d" % i, Role.CORE) for i in range(3)]
    nebulas = [Site(b"N%d" % i, Role.NEBULA) for i in range(2)]
    sites = cores + nebulas
    expected = [b"s0", b"s1"]
    for i, atom in enumerate(expected):
        cores[0].submit_local(OpKind.INSERT, position=i, atom=atom)
    seed_ops, cores[0].outbox = cores[0].outbox, []
    for site in sites[1:]:
        for op in seed_ops:
            site.deliver(op)

    writers = data.draw(st.lists(st.sampled_from(sites), min_size=3, unique=True))
    position = data.draw(st.integers(0, len(expected)))
    for site in writers:
        for j in range(data.draw(st.integers(1, 2))):
            atom = site.id + b"-%d" % j
            site.submit_local(OpKind.INSERT, position=position + j, atom=atom)
            expected.append(atom)
    if data.draw(st.booleans()):
        site = data.draw(st.sampled_from(sites))
        index = data.draw(st.integers(0, site.replica.live_count - 1))
        expected.remove(site.replica.atoms()[index])
        site.submit_local(OpKind.DELETE, position=index)
    core_ops = [op for site in cores for op in site.outbox]
    nebula_ops = [op for site in nebulas for op in site.outbox]
    for site in sites:
        site.outbox = []
        _deliver_scrambled(data, site, core_ops + nebula_ops * (site.role is Role.NEBULA))
    assert len({site.replica.state_digest() for site in cores}) == 1
    assert nebulas[0].replica.state_digest() == nebulas[1].replica.state_digest()

    if data.draw(st.booleans()):
        # Most often right after a nebula's atom: a shared major node below a
        # black root, which a later root in its gap must pass on the right.
        atoms = nebulas[0].replica.atoms()
        mine = [i + 1 for i, atom in enumerate(atoms) if atom.startswith(b"N")]
        position = data.draw(
            st.sampled_from(mine) if mine else st.integers(0, len(atoms))
        )
        for site in nebulas:
            atom = site.id + b"-again"
            site.submit_local(OpKind.INSERT, position=position, atom=atom)
            expected.append(atom)
        nebula_ops = [op for site in nebulas for op in site.outbox]
        for site in nebulas:
            site.outbox = []
            _deliver_scrambled(data, site, nebula_ops)

    outcome = initiate_flatten(cores[0], cores)
    assert outcome.committed
    batches = []
    for site in nebulas:
        before = site.replica.atoms()
        site.receive_decision(outcome.announcement)
        batches.extend(site.maybe_catch_up())
        assert site.replica.epoch == 1
        assert site.replica.atoms() == before  # catch-up renames, in order
    for site in sites:
        _deliver_scrambled(data, site, batches)
    assert len({site.replica.state_digest() for site in sites}) == 1
    for site in sites:
        assert sorted(site.replica.atoms()) == sorted(expected)
        assert site.replica.counters_consistent()
        assert not site.pending
