import re
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from treedoc import (
    Granularity,
    MalformedTrace,
    OpKind,
    PositionOutOfRange,
    Role,
    Site,
    TraceEvent,
    TreedocError,
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


def _split_words(text):
    """The split-based word units: each whitespace run joins the word before it."""
    parts = re.split(r"(\s+)", text)
    units = []
    for i in range(0, len(parts), 2):
        unit = parts[i] + (parts[i + 1] if i + 1 < len(parts) else "")
        if unit:
            units.append(unit)
    return units


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="ab \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000\u200b\xe9"))
def test_word_units_match_the_split_definition(text):
    assert tokenize(text, Granularity.WORD) == _split_words(text)


def test_granularity_accepts_the_enum_and_its_value_string():
    text = "a b\n\nc"
    for granularity in Granularity:
        assert tokenize(text, granularity.value) == tokenize(text, granularity)
        assert diff_to_ops("", text, granularity.value) == diff_to_ops(
            "", text, granularity
        )
        assert events_from_revisions([text], granularity.value) == (
            events_from_revisions([text], granularity)
        )
    assert tokenize(text, "paragraph") == ["a b\n\n", "c"]


@pytest.mark.parametrize("granularity", ["Word", "sentence", None, 1])
def test_an_unknown_granularity_is_rejected(granularity):
    # Not silently the word branch: only the enum and its values are accepted.
    with pytest.raises(ValueError):
        tokenize("a b", granularity)
    with pytest.raises(ValueError):
        tokenize("", granularity)
    with pytest.raises(ValueError):
        diff_to_ops("a", "a b", granularity)
    with pytest.raises(ValueError):
        events_from_revisions([], granularity)


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


def _base_events(text, granularity):
    """Inserts that build ``text`` from an empty document."""
    return [TraceEvent(0, OpKind.INSERT, i, unit.encode())
            for i, unit in enumerate(tokenize(text, granularity))]


def test_diff_of_one_replaced_run_is_at_most_its_length():
    # A match over the whole unit lists pairs "x x" across the edit and
    # emits an insert and two deletes for this one-word delete.
    old, new = "x y x y ", "x x y "
    events = diff_to_ops(old, new, Granularity.WORD)
    assert events == [TraceEvent(0, OpKind.DELETE, 1, None)]
    assert _replay_text(_base_events(old, Granularity.WORD) + events) == new


@pytest.mark.parametrize(
    "old, new, event",
    [
        # prefix and suffix tie: the prefix stays whole
        ("x ", "x x ", TraceEvent(0, OpKind.INSERT, 1, b"x ")),
        # the suffix is longer and stays whole
        ("b b a ", "b b b a ", TraceEvent(0, OpKind.INSERT, 0, b"b ")),
        # the prefix is longer and stays whole
        ("a b b ", "a b b b ", TraceEvent(0, OpKind.INSERT, 3, b"b ")),
        # the suffix is longer and stays whole, on a delete
        ("a a b ", "a b ", TraceEvent(0, OpKind.DELETE, 0, None)),
    ],
)
def test_overlapping_prefix_and_suffix_keep_the_longer(old, new, event):
    events = diff_to_ops(old, new, Granularity.WORD)
    assert events[0] == event
    assert _replay_text(_base_events(old, Granularity.WORD) + events) == new


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(["x ", "y ", "z "]), max_size=12),
    st.lists(st.sampled_from(["x ", "y ", "z "]), max_size=4),
    st.data(),
)
def test_diff_of_one_replaced_run_bounds_its_events(old_units, inserted, data):
    start = data.draw(st.integers(0, len(old_units)))
    removed = data.draw(st.integers(0, len(old_units) - start))
    new_units = old_units[:start] + inserted + old_units[start + removed :]
    old, new = "".join(old_units), "".join(new_units)
    events = diff_to_ops(old, new, Granularity.WORD)
    assert len(events) <= removed + len(inserted)
    assert _replay_text(_base_events(old, Granularity.WORD) + events) == new


_SMALL_TEXT = st.text(alphabet="ab \n", max_size=24)


@settings(max_examples=300, deadline=None)
@given(_SMALL_TEXT, _SMALL_TEXT, st.sampled_from(Granularity))
def test_diff_replay_reproduces_new_over_repeated_units(old, new, granularity):
    events = diff_to_ops(old, new, granularity)
    assert _replay_text(_base_events(old, granularity) + events) == new


def test_diff_hands_the_matcher_only_the_changed_window(monkeypatch):
    seen = []

    class Recording(trace_mod.SequenceMatcher):
        def set_seqs(self, a, b):
            seen.append((list(a), list(b)))
            super().set_seqs(a, b)

    monkeypatch.setattr(trace_mod, "SequenceMatcher", Recording)
    units = [f"w{i} " for i in range(1000)]
    burst = [f"new{i} " for i in range(5)]
    old = "".join(units)
    new = "".join(units[:500] + burst + units[503:])
    events = diff_to_ops(old, new, Granularity.WORD)
    assert seen == [(units[500:503], burst)]
    assert len(events) == 3 + 5
    assert {e.position for e in events} <= set(range(500, 505))


# Revisions with leading whitespace and runs of blank lines; picks from a
# small pool (plus the empty text) repeat revisions and empty them.
_REVISION = st.lists(st.sampled_from(["a", "b ", " ", "\n", "\n\n", "\n\n\n"]), max_size=8).map(
    "".join
)


@settings(max_examples=300, deadline=None)
@example(["  a\n\nb", "\n\n\nb a "], [0, 0, 2, 1, 2, 1, 0], Granularity.PARAGRAPH)
@example(["  a\n\nb", "\n\n\nb a "], [0, 0, 2, 1, 2, 1, 0], Granularity.WORD)
@given(
    st.lists(_REVISION, min_size=1, max_size=4),
    st.lists(st.integers(0, 4), max_size=8),
    st.sampled_from(Granularity),
)
def test_events_from_revisions_concatenates_the_pairwise_diffs(pool, picks, granularity):
    choices = [*pool, ""]
    revisions = [choices[i % len(choices)] for i in picks]
    expected = []
    for i, (previous, text) in enumerate(zip(["", *revisions], revisions)):
        expected += diff_to_ops(previous, text, granularity, revision=i)
    assert events_from_revisions(revisions, granularity) == expected


def test_diff_to_ops_reuses_and_refills_the_units_it_is_given():
    old, new = "  a b\n\nc ", "a x b\n\n\nc"
    for granularity in Granularity:
        units = tokenize(old, granularity)
        events = diff_to_ops(old, new, granularity, 3, units=units)
        assert events == diff_to_ops(old, new, granularity, 3)
        assert units == tokenize(new, granularity)


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


def test_malformed_trace_and_revision_files_raise_a_typed_error(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("0\tinsert\t0\tYQ==\n1\tinsert\tx\tYQ==\n", encoding="utf-8")
    with pytest.raises(MalformedTrace, match=r"bad\.trace:2: malformed trace line"):
        read_trace(path)
    revisions = tmp_path / "revisions"
    revisions.mkdir()
    (revisions / "0001.txt").write_bytes(b"ok\xff")
    with pytest.raises(MalformedTrace, match=r"0001\.txt: revision is not UTF-8"):
        trace_mod.read_revisions_dir(revisions)
    assert issubclass(MalformedTrace, TreedocError)
    assert issubclass(MalformedTrace, ValueError)


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


@pytest.mark.parametrize(
    "kwargs", [{"flatten_interval": -3}, {"flatten_interval": -1}, {"site_count": 0}]
)
def test_replay_rejects_a_negative_interval_and_no_sites(kwargs):
    with pytest.raises(ValueError):
        trace_mod.replay(_synthetic_trace(20, 5), **kwargs)


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
