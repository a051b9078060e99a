"""A replica against a model that shares none of its representation.

The model is a plain list of ``[tid, atom, tombstone]`` entries in TID
order, with an epoch. It knows nothing of major nodes, mini-nodes or
subtree sizes, and it renames at a flatten by the midpoint rule, computed
here from its own list. The replica under test is driven and read through
public methods only, so a change of its node layout keeps this test as it
is.

A second replica (site ``B``) allocates the remote edits. It receives every
edit of the first at once, and its own edits reach the first in order,
through a queue: so a remote insert lands among local inserts it never saw,
and its ancestors are always present. A flatten waits until the queue is
empty, when both replicas hold the same tree, and flattens both.
"""

from bisect import bisect_left

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from treedoc import LEFT, RIGHT, TID, EffectReport, Treedoc
from treedoc.flatten import flatten_for_commit

POSITIONS = st.integers(0, 2**16)


def midpoint_tids(diss: list[bytes]) -> list[TID]:
    """The TID of each of ``len(diss)`` atoms in a balanced rebuild: the
    atom at ``(lo + hi) // 2`` roots the subtree over ``lo..hi``, and each
    keeps its disambiguator."""
    out: list[TID] = [None] * len(diss)
    stack = [(0, len(diss), None, ())] if diss else []
    while stack:
        lo, hi, root, path = stack.pop()
        mid = (lo + hi) // 2
        out[mid] = TID(diss[mid]) if root is None else TID(root, path)
        root = root or diss[mid]
        for sub_lo, sub_hi, side in ((lo, mid, LEFT), (mid + 1, hi, RIGHT)):
            if sub_lo < sub_hi:
                step = (side, diss[(sub_lo + sub_hi) // 2])
                stack.append((sub_lo, sub_hi, root, path + (step,)))
    return out


def own_disambiguator(tid: TID) -> bytes:
    return tid.path[-1].disambiguator if tid.path else tid.root_disambiguator


class ReplicaAgainstModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.doc = Treedoc()
        self.other = Treedoc()
        self.entries: list[list] = []  # [tid, atom, tombstone], in TID order
        self.epoch = 0
        self.queue: list[tuple] = []  # the second replica's edits, not yet delivered
        self.delivered: list[tuple] = []  # this epoch's delivered edits
        self.made = 0

    def _atom(self) -> bytes:
        self.made += 1
        return b"<%d>" % self.made

    def _live(self) -> list[list]:
        return [e for e in self.entries if not e[2]]

    def _index(self, tid: TID) -> int:
        return bisect_left([e[0] for e in self.entries], tid)

    def _model_insert(self, tid: TID, atom: bytes) -> EffectReport:
        i = self._index(tid)
        if i < len(self.entries) and self.entries[i][0] == tid:
            return EffectReport.ALREADY_PRESENT
        self.entries.insert(i, [tid, atom, False])
        return EffectReport.APPLIED

    def _model_delete(self, tid: TID) -> EffectReport:
        entry = self.entries[self._index(tid)]
        assert entry[0] == tid
        if entry[2]:
            return EffectReport.ALREADY_TOMBSTONE
        entry[2] = True
        return EffectReport.APPLIED

    # -- local edits --------------------------------------------------------

    @rule(pick=POSITIONS)
    def insert_at(self, pick):
        live = self._live()
        index = pick % (len(live) + 1)
        atom = self._atom()
        tid = self.doc.insert_at(index, b"A", atom)
        assert index == 0 or live[index - 1][0] < tid
        assert index == len(live) or tid < live[index][0]
        assert self._model_insert(tid, atom) is EffectReport.APPLIED
        self.other.insert(tid, atom)

    @precondition(lambda self: self.doc.live_count)
    @rule(pick=POSITIONS)
    def delete_at(self, pick):
        live = self._live()
        index = pick % len(live)
        tid = self.doc.delete_at(index)
        assert tid == live[index][0]
        assert self._model_delete(tid) is EffectReport.APPLIED
        self.other.delete(tid)

    # -- remote edits -------------------------------------------------------

    @rule(pick=POSITIONS)
    def remote_insert(self, pick):
        atom = self._atom()
        tid = self.other.insert_at(pick % (self.other.live_count + 1), b"B", atom)
        self.queue.append(("insert", tid, atom))

    @precondition(lambda self: self.other.live_count)
    @rule(pick=POSITIONS)
    def remote_delete(self, pick):
        tid = self.other.delete_at(pick % self.other.live_count)
        self.queue.append(("delete", tid, None))

    def _apply(self, edit: tuple) -> None:
        kind, tid, atom = edit
        if kind == "insert":
            assert self.doc.insert(tid, atom) is self._model_insert(tid, atom)
        else:
            assert self.doc.delete(tid) is self._model_delete(tid)

    @precondition(lambda self: self.queue)
    @rule()
    def deliver(self):
        edit = self.queue.pop(0)
        self._apply(edit)
        self.delivered.append(edit)

    @precondition(lambda self: self.delivered)
    @rule(pick=POSITIONS)
    def redeliver(self, pick):
        self._apply(self.delivered[pick % len(self.delivered)])

    # -- flatten ------------------------------------------------------------

    @precondition(lambda self: not self.queue)
    @rule()
    def flatten(self):
        self.doc, digest = flatten_for_commit(self.doc)
        self.other, other_digest = flatten_for_commit(self.other)
        assert digest == other_digest
        live = self._live()
        renamed = midpoint_tids([own_disambiguator(tid) for tid, _, _ in live])
        self.entries = [[tid, atom, False] for tid, (_, atom, _) in zip(renamed, live)]
        self.epoch += 1
        self.delivered.clear()

    # -- agreement ----------------------------------------------------------

    @invariant()
    def agrees_with_the_model(self):
        doc, live = self.doc, self._live()
        assert doc.epoch == self.epoch
        assert doc.atoms() == [atom for _, atom, _ in live]
        assert doc.text() == b"".join(atom for _, atom, _ in live).decode()
        assert [doc.tid_of_live_index(i) for i in range(len(live))] == [
            tid for tid, _, _ in live
        ]
        tombs = len(self.entries) - len(live)
        assert (doc.live_count, doc.tombstone_count) == (len(live), tombs)
        assert doc.stats()[:2] == (len(live), tombs)
        assert all(doc.find(tid) is not None for tid, _, _ in self.entries)
        sizes = [len(tid.encode()) for tid, _, _ in self.entries]
        mean = sum(sizes) / len(sizes) if sizes else 0.0
        assert abs(doc.mean_tid_encoded_bytes() - mean) < 1e-9


ReplicaAgainstModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None
)
test_replica_against_model = ReplicaAgainstModel.TestCase
