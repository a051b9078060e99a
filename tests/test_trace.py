from random import Random

import pytest

from treedoc import (
    Granularity,
    OpKind,
    PositionOutOfRange,
    Role,
    Site,
    TraceEvent,
    diff_to_ops,
    events_from_revisions,
    read_trace,
    tokenize,
    write_trace,
)
from treedoc import trace as trace_mod


# -- tokenization ---------------------------------------------------------------


def test_tokenize_concat_restores_text():
    samples = [
        "a\n\nb",
        "\n\nleading blank",
        "trailing\n\n",
        "one",
        "",
        "a\n\n\n\nb\n\nc",
        "word soup  with   runs\nand lines",
    ]
    for text in samples:
        for granularity in Granularity:
            assert "".join(tokenize(text, granularity)) == text


def test_tokenize_paragraphs():
    assert tokenize("a\n\nb\n\nc", Granularity.PARAGRAPH) == ["a\n\n", "b\n\n", "c"]


def test_tokenize_words():
    assert tokenize("to be  or", Granularity.WORD) == ["to ", "be  ", "or"]


# -- diff -----------------------------------------------------------------------


def test_diff_identical_revisions_is_empty():
    assert diff_to_ops("a\n\nb", "a\n\nb") == []


def test_diff_single_paragraph_insert():
    events = diff_to_ops("a\n\nc", "a\n\nb\n\nc", Granularity.PARAGRAPH)
    assert len(events) == 1
    (event,) = events
    assert event.kind is OpKind.INSERT
    assert event.position == 1
    assert event.atom.decode().strip() == "b"


def test_diff_delete_positions_walk_left_to_right():
    events = diff_to_ops("a\n\nb\n\nc\n\nd", "a\n\nd", Granularity.PARAGRAPH)
    assert [e.kind for e in events] == [OpKind.DELETE, OpKind.DELETE]
    assert [e.position for e in events] == [1, 1]


def _replay_text(events):
    """Replay against one site and return the document text."""
    site = Site(b"R", Role.CORE)
    for ev in events:
        if ev.kind is OpKind.INSERT:
            site.submit_local(OpKind.INSERT, position=ev.position, atom=ev.atom)
        else:
            site.submit_local(OpKind.DELETE, position=ev.position)
        site.outbox.clear()
    return site.replica.text()


def _random_paragraph_doc(rng):
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    paragraphs = []
    for _ in range(rng.randint(0, 8)):
        paragraphs.append(" ".join(rng.choice(words) for _ in range(rng.randint(1, 5))))
    return "\n\n".join(paragraphs)


def test_diff_round_trip_on_random_pairs():
    rng = Random(101)
    for _ in range(60):
        old = _random_paragraph_doc(rng)
        new = _random_paragraph_doc(rng)
        base = tokenize(old, Granularity.PARAGRAPH)
        prefix = [TraceEvent(0, OpKind.INSERT, i, unit.encode())
                  for i, unit in enumerate(base)]
        assert _replay_text(prefix + diff_to_ops(old, new)) == new


def test_replay_fidelity_through_revision_chain():
    rng = Random(55)
    for _ in range(10):
        revisions = [_random_paragraph_doc(rng) for _ in range(rng.randint(1, 8))]
        events = events_from_revisions(revisions)
        site = Site(b"R", Role.CORE)
        by_revision = {}
        for ev in events:
            by_revision.setdefault(ev.revision, []).append(ev)
        for rev_index, text in enumerate(revisions):
            for ev in by_revision.get(rev_index, []):
                if ev.kind is OpKind.INSERT:
                    site.submit_local(OpKind.INSERT, position=ev.position, atom=ev.atom)
                else:
                    site.submit_local(OpKind.DELETE, position=ev.position)
                site.outbox.clear()
            assert site.replica.text() == text


# -- trace files ------------------------------------------------------------------


def test_trace_file_round_trip(tmp_path):
    events = [
        TraceEvent(0, OpKind.INSERT, 0, b"hello\n\n"),
        TraceEvent(0, OpKind.INSERT, 1, b"world"),
        TraceEvent(1, OpKind.DELETE, 0, None),
    ]
    path = tmp_path / "edits.trace"
    write_trace(events, path)
    assert read_trace(path) == events


def test_read_trace_rejects_garbage(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("0\tinsert\tnot-a-number\t\n")
    with pytest.raises(ValueError):
        read_trace(path)


@pytest.mark.parametrize(
    "bad_line",
    [
        "1\tinsert\t0\tYQ==!",  # not valid base64 (a lax decode reads b"a")
        "1\tinsert\t0\t",  # an insert without its atom
        "1\tdelete\t0\tYQ==",  # a delete carrying an atom
        # int() reads these; write_trace never writes them.
        "1_0\tinsert\t0\tYQ==",
        "\u0663\tinsert\t0\tYQ==",
        " +2 \tinsert\t0\tYQ==",
        "-0\tinsert\t0\tYQ==",
        "1\tinsert\t1_0\tYQ==",
        "1\tinsert\t\u0663\tYQ==",
        "1\tinsert\t +2 \tYQ==",
        "1\tinsert\t-0\tYQ==",
    ],
)
def test_read_trace_rejects_malformed_line_with_its_number(tmp_path, bad_line):
    path = tmp_path / "bad.trace"
    path.write_text(f"0\tinsert\t0\tYQ==\n{bad_line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.trace:2: malformed trace line"):
        read_trace(path)


def test_read_trace_reports_a_line_that_is_not_utf8_with_its_number(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_bytes(b"0\tinsert\t0\tYQ==\n1\tinsert\t0\t\xffYQ==\n")
    with pytest.raises(ValueError, match=r"bad\.trace:2: malformed trace line"):
        read_trace(path)


def test_read_trace_accepts_crlf_line_ends(tmp_path):
    path = tmp_path / "crlf.trace"
    path.write_bytes(b"0\tinsert\t0\tYQ==\r\n\r\n1\tdelete\t0\t\r\n")
    assert read_trace(path) == [
        TraceEvent(0, OpKind.INSERT, 0, b"a"),
        TraceEvent(1, OpKind.DELETE, 0, None),
    ]


# -- replay metrics ----------------------------------------------------------------


def test_replay_empty_trace():
    assert trace_mod.replay([]) == []


def _synthetic_trace(inserts, deletes, ops_per_revision=10):
    """`inserts` inserts then `deletes` deletes of random survivors."""
    rng = Random(7)
    events = []
    live = 0
    for i in range(inserts):
        events.append(
            TraceEvent(i // ops_per_revision, OpKind.INSERT,
                       rng.randint(0, live), b"p%d\n\n" % i)
        )
        live += 1
    base = inserts
    for j in range(deletes):
        events.append(
            TraceEvent((base + j) // ops_per_revision, OpKind.DELETE,
                       rng.randrange(live), None)
        )
        live -= 1
    return events


def test_synthetic_trace_without_flattening_accumulates_tombstones():
    events = _synthetic_trace(5000, 4500)
    rows = trace_mod.replay(events, flatten_interval=0)
    last = rows[-1]
    # 5000 mini-nodes total, 90% of them dead: deletes never add nodes.
    assert last.tree_size_nodes == 5000
    assert last.tombstone_fraction == pytest.approx(0.9)
    assert last.epoch == 0


def test_flattening_resets_tombstones_and_shrinks_tids():
    events = _synthetic_trace(2000, 1800, ops_per_revision=10)
    interval = 100  # revisions; 10 ops per revision
    rows = trace_mod.replay(events, flatten_interval=interval)
    boundaries = [
        i
        for i in range(1, len(rows))
        if rows[i].epoch == rows[i - 1].epoch + 1
    ]
    assert boundaries, "expected at least one committed flatten"
    for i in boundaries:
        before, after = rows[i - 1], rows[i]
        assert after.mean_tid_encoded_bytes <= before.mean_tid_encoded_bytes
        # the row after the flatten has at most the one new tombstone
        assert after.tree_size_nodes <= before.tree_size_nodes + 1
        assert after.tombstone_fraction <= 1 / after.tree_size_nodes
    assert rows[-1].epoch == len(boundaries)


def test_replay_round_robin_multi_site():
    events = _synthetic_trace(300, 120)
    rows_multi = trace_mod.replay(events, flatten_interval=10, site_count=3)
    rows_single = trace_mod.replay(events, flatten_interval=10, site_count=1)
    assert len(rows_multi) == len(rows_single) == len(events)
    assert rows_multi[-1].epoch == rows_single[-1].epoch
    assert rows_multi[-1].tree_size_nodes == rows_single[-1].tree_size_nodes


def test_replay_position_out_of_range():
    events = [TraceEvent(0, OpKind.INSERT, 5, b"x")]
    with pytest.raises(PositionOutOfRange) as err:
        trace_mod.replay(events)
    assert err.value.revision == 0
    assert err.value.position == 5


def test_metrics_csv(tmp_path):
    events = _synthetic_trace(50, 10)
    rows = trace_mod.replay(events)
    out = tmp_path / "metrics.csv"
    trace_mod.write_metrics_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == [
        "op_index",
        "tree_size_nodes",
        "tombstone_fraction",
        "mean_tid_encoded_bytes",
        "op_duration",
        "epoch",
    ]
    assert len(lines) == len(rows) + 1
