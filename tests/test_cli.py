import os
import subprocess
import sys
from pathlib import Path

import pytest

from treedoc import Site, sim
from treedoc.cli import main


def test_simulate_exit_zero_and_csv(tmp_path, capsys):
    out = tmp_path / "log.csv"
    code = main(
        [
            "simulate",
            "--seed", "1",
            "--core", "3",
            "--nebula", "1",
            "--ops", "300",
            "--delete-ratio", "0.3",
            "--flatten-every", "100",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tick,total_nodes,tombstones,mean_tid_bytes,epoch"
    assert len(lines) > 1
    assert "converged" in capsys.readouterr().out


def test_simulate_prints_delivery_outcomes_from_the_event_log(tmp_path, capsys):
    flags = ["--seed", "4", "--core", "3", "--nebula", "2", "--ops", "300",
             "--duplicate-prob", "0.2", "--flatten-every", "100"]
    assert main(["simulate", *flags, "--out", str(tmp_path / "m.csv")]) == 0
    log = sim.run(sim.SimConfig(seed=4, core_count=3, nebula_count=2, op_count=300,
                                duplicate_prob=0.2, drop_retry_prob=0.05,
                                flatten_interval=100)).event_log
    applied, buffered, duplicate, late = (
        log.count(f"recv_{r}") for r in ("applied", "buffered", "duplicate", "wrong_epoch")
    )
    assert applied and duplicate
    line = (f"deliveries: {applied} applied, {buffered} buffered, {duplicate} duplicate,"
            f" {late} wrong epoch")
    assert line in capsys.readouterr().out.splitlines()


def test_simulate_event_log_export(tmp_path):
    out = tmp_path / "log.csv"
    events = tmp_path / "events.log"
    code = main(
        ["simulate", "--ops", "50", "--out", str(out), "--events", str(events)]
    )
    assert code == 0
    assert events.read_text().count("\n") > 0


def test_simulate_injected_fault_exits_two(tmp_path, capsys):
    out = tmp_path / "log.csv"
    code = main(
        [
            "simulate",
            "--seed", "3",
            "--core", "2",
            "--nebula", "0",
            "--ops", "60",
            "--delete-ratio", "0",
            "--duplicate-prob", "0",
            "--drop-retry-prob", "0",
            "--inject-drop", "1",
            "--out", str(out),
        ]
    )
    assert code == 2
    assert "DIVERGED" in capsys.readouterr().err


def test_simulate_intent_failure_exits_two(tmp_path, capsys, monkeypatch):
    # The garbling fault of test_intent_oracle_catches_an_edit_garbled_at_every_site:
    # every replica agrees on the wrong text, so the run converges.
    flags = ["--seed", "7", "--core", "2", "--nebula", "1", "--ops", "60",
             "--flatten-every", "25", "--duplicate-prob", "0.1",
             "--drop-retry-prob", "0", "--out", str(tmp_path / "m.csv")]
    assert main(["simulate", *flags]) == 0
    submit = Site.submit_local

    def garbling(site, kind, *, position=None, atom=None):
        if atom == b"[c00#3]":
            atom = b"[garbled]"
        return submit(site, kind, position=position, atom=atom)

    monkeypatch.setattr(Site, "submit_local", garbling)
    capsys.readouterr()
    assert main(["simulate", *flags]) == 2
    out, err = capsys.readouterr()
    assert "converged" not in out
    assert err.startswith("INTENT: b'c00' misses [b'[c00#3]']")


def test_replay_empty_trace_writes_header_only(tmp_path):
    trace_file = tmp_path / "empty.trace"
    trace_file.write_text("")
    out = tmp_path / "metrics.csv"
    code = main(["replay", "--trace", str(trace_file), "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines() == [
        "op_index,tree_size_nodes,tombstone_fraction,"
        "mean_tid_encoded_bytes,op_duration,epoch"
    ]


def test_replay_from_revisions_dir(tmp_path):
    revs = tmp_path / "revs"
    revs.mkdir()
    (revs / "000.txt").write_text("alpha\n\nbeta")
    (revs / "001.txt").write_text("alpha\n\bgamma\n\nbeta")
    (revs / "002.txt").write_text("alpha")
    out = tmp_path / "metrics.csv"
    code = main(
        ["replay", "--revisions", str(revs), "--flatten-every", "2", "--sites", "2",
         "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) > 1


def test_replay_names_a_revision_file_that_is_not_utf8(tmp_path, capsys):
    revs = tmp_path / "revs"
    revs.mkdir()
    (revs / "000.txt").write_text("alpha", encoding="utf-8")
    (revs / "001.txt").write_bytes(b"alpha \xff")
    code = main(["replay", "--revisions", str(revs), "--out", str(tmp_path / "m.csv")])
    assert code == 1
    assert str(revs / "001.txt") in capsys.readouterr().err


def test_replay_requires_an_input(tmp_path, capsys):
    code = main(["replay", "--out", str(tmp_path / "m.csv")])
    assert code == 1
    assert "need --trace or --revisions" in capsys.readouterr().err


def test_replay_missing_file_is_io_error(tmp_path, capsys):
    code = main(["replay", "--trace", str(tmp_path / "nope"), "--out",
                 str(tmp_path / "m.csv")])
    assert code == 1


def test_bad_flags_exit_one(capsys):
    assert main(["simulate", "--ops"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["simulate"]) == 1  # missing --out
    capsys.readouterr()


def test_bench_small_run(capsys):
    code = main(["bench", "--ops", "2000", "--flatten-every", "500"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ops/sec" in out
    assert "flattens" in out


@pytest.mark.parametrize(
    "flags", [["--ops", "-5"], ["--ops", "10", "--flatten-every", "-1"]]
)
def test_bench_rejects_negative_counts(flags, capsys):
    assert main(["bench", *flags]) == 1
    assert "treedoc: op_count and flatten_every must be non-negative" in (
        capsys.readouterr().err
    )


def test_demo_catchup(capsys):
    code = main(["demo-catchup"])
    assert code == 0
    out = capsys.readouterr().out
    assert "'b': insert" in out
    assert "'c': tombstone only" in out
    assert "cyan list: [a, c (black tombstone)]" in out
    assert "structurally equal: True" in out
    assert "'ab'" in out


@pytest.mark.parametrize("drop", ["0", "-3"])
def test_simulate_rejects_an_injected_drop_below_one(tmp_path, capsys, drop):
    out = tmp_path / "log.csv"
    code = main(["simulate", "--ops", "20", "--inject-drop", drop, "--out", str(out)])
    assert code == 1
    assert "treedoc: fault_drop_message counts sends from 1" in capsys.readouterr().err
    assert not out.exists()


def test_python_m_treedoc_simulate_does_not_depend_on_the_hash_seed(tmp_path):
    # Run from a checkout, as the README does; set iteration order must not
    # reach the event log or the metrics.
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for hash_seed in ("1", "2"):
        out, events = tmp_path / f"m{hash_seed}.csv", tmp_path / f"e{hash_seed}.log"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
        subprocess.run(
            [sys.executable, "-m", "treedoc", "simulate", "--seed", "4", "--nebula", "2",
             "--ops", "400", "--flatten-every", "100", "--out", str(out),
             "--events", str(events)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outputs.append((out.read_bytes(), events.read_bytes()))
    assert outputs[0][1].count(b"\n") > 400
    assert outputs[0] == outputs[1]
