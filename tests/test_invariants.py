"""Broken invariants raise InvariantViolation, and commit digests are checked."""

import pytest

from treedoc import (
    InvariantViolation,
    MalformedTID,
    OpKind,
    Operation,
    ProtocolError,
    Role,
    Site,
    TID,
    initiate_flatten,
)
from treedoc import bench
from treedoc.protocol import AbortReason, FlattenOutcome
from treedoc.tid import RIGHT, PathElement

from conftest import build_abcdef


def _synced_cores(n=3):
    cores = [Site(f"c{i}".encode(), Role.CORE) for i in range(n)]
    for i, atom in enumerate((b"a", b"b", b"c", b"d")):
        op = cores[i % n].submit_local(OpKind.INSERT, position=i, atom=atom)
        for site in cores:
            site.outbox.clear()
            if site.id != op.origin:
                site.deliver(op)
    return cores


def test_synced_cores_commit_with_one_digest():
    cores = _synced_cores()
    outcome = initiate_flatten(cores[0], cores)
    assert outcome.committed
    assert len(outcome.announcement.doc_digest) == 64


def test_commit_rejects_a_member_with_altered_atoms():
    cores = _synced_cores()
    tid_b = cores[2].replica.tid_of_live_index(1)
    cores[2].replica.find(tid_b).atom = b"B"  # same shape, other bytes
    with pytest.raises(InvariantViolation, match="disagree"):
        initiate_flatten(cores[0], cores)


def test_a_disambiguator_too_long_for_the_commit_digest_never_reaches_a_replica():
    # Once applied, such a node broke the next commit half-way: the digest
    # could not pack its length after the tree had been relinked.
    core = Site(b"A", Role.CORE)
    for i in range(5):
        core.submit_local(OpKind.INSERT, position=i, atom=b"%d" % i)
    core.outbox.clear()
    long = b"z" * 70000
    last = core.replica.tid_of_live_index(4)
    wire = TID._make(last.root_disambiguator, (*last.path, PathElement(RIGHT, long)))
    with pytest.raises(MalformedTID):
        TID.decode(wire.encode())
    with pytest.raises(MalformedTID):
        Operation(0, OpKind.INSERT, last.child(RIGHT, long), b"Z", long, 1)
    with pytest.raises(MalformedTID):
        core.replica.insert_at(5, long, b"Z")
    with pytest.raises(MalformedTID):
        Site(long, Role.CORE)
    assert core.replica.text() == "01234"
    assert initiate_flatten(core, [core]).committed
    assert core.replica.text() == "01234"
    assert core.replica.counters_consistent()
    core.replica.state_digest()


def _nebula_and_announcement():
    """A nebula site holding one unseen insert after the core flattened alone."""
    core = Site(b"A", Role.CORE)
    nebula = Site(b"N", Role.NEBULA)
    for i, atom in enumerate((b"a", b"b", b"c")):
        nebula.deliver(core.submit_local(OpKind.INSERT, position=i, atom=atom))
    core.outbox.clear()
    nebula.submit_local(OpKind.INSERT, position=3, atom=b"x")
    return nebula, initiate_flatten(core, [core]).announcement


def test_catch_up_rejects_a_tampered_announcement():
    nebula, announcement = _nebula_and_announcement()
    nebula.receive_decision(announcement._replace(doc_digest="0" * 64))
    with pytest.raises(InvariantViolation, match="digest"):
        nebula.catch_up()


def test_catch_up_accepts_the_real_announcement():
    nebula, announcement = _nebula_and_announcement()
    nebula.receive_decision(announcement)
    assert [op.atom for op in nebula.catch_up()] == [b"x"]


def test_catch_up_rejects_a_tombstone_without_a_recorded_delete():
    nebula = Site(b"N", Role.NEBULA)
    op = nebula.submit_local(OpKind.INSERT, position=0, atom=b"x")
    nebula.replica.delete(op.tid)  # tombstoned behind the site's back
    with pytest.raises(ProtocolError, match="recorded delete"):
        nebula.mark_colors(set())


def test_commit_flatten_with_an_op_in_the_outbox():
    site = Site(b"A", Role.CORE)
    site.submit_local(OpKind.INSERT, position=0, atom=b"a")
    with pytest.raises(InvariantViolation, match="outbox"):
        site._commit_flatten()


def test_commit_flatten_with_a_pending_op():
    source = Site(b"A", Role.CORE)
    source.submit_local(OpKind.INSERT, position=0, atom=b"a")
    second = source.submit_local(OpKind.INSERT, position=1, atom=b"b")
    site = Site(b"B", Role.CORE)
    site.deliver(second)  # its ancestor has not arrived
    assert site.pending
    with pytest.raises(InvariantViolation, match="pending"):
        site._commit_flatten()


def test_bench_rejects_an_aborted_flatten(monkeypatch):
    def aborted(*args, **kwargs):
        return FlattenOutcome(False, reason=AbortReason.NO_VOTE)

    monkeypatch.setattr(bench, "initiate_flatten", aborted)
    with pytest.raises(InvariantViolation, match="aborted"):
        bench.run_bench(20, flatten_every=10)


def test_tid_of_live_index_with_broken_live_sizes():
    doc = build_abcdef()
    assert doc.tid_of_live_index(5) == TID(b"A", ((1, b"A"), (1, b"A")))
    doc.root[0].right.live_size = 0  # "d", "e", "f" vanish from the counts
    with pytest.raises(InvariantViolation, match="live_size"):
        doc.tid_of_live_index(5)
