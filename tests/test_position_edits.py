"""The position-addressed edits against the two-step reference.

``Treedoc.insert_at`` and ``delete_at`` find, update and count in one
descent. Each must leave a replica exactly as ``alloc_tid_at_position`` +
``insert`` (``tid_of_live_index`` + ``delete``) leaves an identical copy.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from treedoc import (
    IndexOutOfRange,
    MalformedTID,
    OpKind,
    Role,
    Site,
    Treedoc,
    initiate_flatten,
)
from treedoc.flatten import flatten_for_commit

from conftest import MULTISITE_SITES, build_abcdef, clone, multisite_doc, random_doc


def live_sizes(doc: Treedoc) -> list[int]:
    """Every major and mini node's ``live_size``, in a fixed pre-order."""
    sizes, stack = [], [doc.root]
    while stack:
        major = stack.pop()
        sizes.append(major.live_size)
        for mini in major:
            sizes.append(mini.live_size)
            stack.extend(c for c in (mini.left, mini.right) if c is not None)
    return sizes


def assert_same_replica(got: Treedoc, want: Treedoc) -> None:
    assert got.state_digest() == want.state_digest()
    counters = ("live_count", "tombstone_count", "tid_bytes_total")
    assert [getattr(got, c) for c in counters] == [getattr(want, c) for c in counters]
    recount = clone(got)
    recount.recompute_counters()
    assert live_sizes(got) == live_sizes(recount)
    assert got.counters_consistent()


def remote_doc(rng: Random, n_ops: int) -> Treedoc:
    """Three sites edit at random positions and exchange their ops in
    batches, so that concurrent inserts at one position share a major node
    in every replica."""
    sites = [Site(dis, Role.CORE) for dis in MULTISITE_SITES[:3]]
    for _ in range(n_ops):
        site = rng.choice(sites)
        live = site.replica.live_count
        if live and rng.random() < 0.3:
            site.submit_local(OpKind.DELETE, position=rng.randrange(live))
        else:
            pos = rng.randint(0, live)
            site.submit_local(OpKind.INSERT, position=pos, atom=b"r")
        if rng.random() < 0.3:
            for origin in sites:
                ops, origin.outbox = origin.outbox, []
                for op in ops:
                    for other in sites:
                        if other is not origin:
                            other.deliver(op)
    return rng.choice(sites).replica


def flattened_then_remote(rng: Random, n_ops: int) -> Treedoc:
    """A committed flatten, then more concurrent edits on top of it."""
    sites = [Site(dis, Role.CORE) for dis in MULTISITE_SITES[:2]]
    for i in range(n_ops // 2):
        sites[0].submit_local(OpKind.INSERT, position=i, atom=b"f")
    for op in sites[0].outbox:
        sites[1].deliver(op)
    sites[0].outbox.clear()
    assert initiate_flatten(sites[0], sites).committed
    for _ in range(n_ops // 2):
        for site in sites:
            pos = rng.randint(0, site.replica.live_count)
            site.submit_local(OpKind.INSERT, position=pos, atom=b"g")
        for site, other in (sites, sites[::-1]):
            for op in site.outbox:
                other.deliver(op)
            site.outbox.clear()
    return sites[1].replica


DOCS = {
    "single-site": lambda rng, n: random_doc(rng, n),
    "multisite": multisite_doc,
    "flattened": lambda rng, n: flatten_for_commit(random_doc(rng, n))[0],
    "remote": remote_doc,
    "flattened-remote": flattened_then_remote,
}
NEW_SITES = (b"A", b"Z", b"\x00", b"long-site")


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(sorted(DOCS)),
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(0, 60),
    site=st.sampled_from(NEW_SITES),
)
def test_one_descent_edits_match_the_two_step_reference(shape, seed, n_ops, site):
    doc = DOCS[shape](Random(seed), n_ops)
    for i in range(doc.live_count + 1):
        got, want = clone(doc), clone(doc)
        tid = got.insert_at(i, site, b"n")
        assert tid == want.alloc_tid_at_position(i, site)
        want.insert(tid, b"n")
        assert_same_replica(got, want)
    for i in range(doc.live_count):
        got, want = clone(doc), clone(doc)
        tid = got.delete_at(i)
        assert tid == want.tid_of_live_index(i)
        want.delete(tid)
        assert_same_replica(got, want)


def test_clone_is_an_identical_replica():
    doc = multisite_doc(Random(3), 80)
    assert_same_replica(clone(doc), doc)


def test_insert_at_an_empty_site_is_malformed():
    for doc in (build_abcdef(), Treedoc()):
        digest = doc.state_digest()
        for i in range(doc.live_count + 1):
            with pytest.raises(MalformedTID):
                doc.insert_at(i, b"", b"x")
        assert doc.state_digest() == digest
        assert doc.counters_consistent()
    # A site refuses an id it could never insert under, and an insert under
    # one leaves no trace.
    with pytest.raises(MalformedTID):
        Site(b"", Role.CORE)
    site = Site(b"A", Role.CORE)
    site.id = b""
    with pytest.raises(MalformedTID):
        site.submit_local(OpKind.INSERT, position=0, atom=b"x")
    assert site.next_seq == 1 and not site.outbox


def test_out_of_range_positions_are_rejected():
    for doc in (build_abcdef(), Treedoc()):
        digest = doc.state_digest()
        live = doc.live_count
        for i in (-1, live + 1, live + 7):
            with pytest.raises(IndexOutOfRange):
                doc.insert_at(i, b"A", b"x")
        for i in (-1, live, live + 1):
            with pytest.raises(IndexOutOfRange):
                doc.delete_at(i)
        assert doc.state_digest() == digest
        assert doc.counters_consistent()
