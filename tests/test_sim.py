import hashlib
from random import Random

import pytest

from treedoc import (
    CrashWindow,
    DeliverResult,
    IntentViolation,
    NonConvergenceError,
    OpKind,
    Operation,
    Role,
    SimConfig,
    Site,
    TID,
    initiate_flatten,
)
from treedoc import protocol, sim


def test_single_site_converges_trivially():
    result = sim.run(SimConfig(seed=1, core_count=1, nebula_count=0, op_count=100))
    assert result.converged
    assert result.sites[0].replica.live_count > 0


def test_mixed_cluster_with_flattens_converges():
    config = SimConfig(
        seed=42,
        core_count=3,
        nebula_count=2,
        op_count=2000,
        delete_ratio=0.4,
        flatten_interval=500,
        max_delay=6,
        duplicate_prob=0.1,
        drop_retry_prob=0.05,
    )
    result = sim.run(config)
    assert result.converged
    commits = [e for e in result.event_log if e[2] == "flatten_commit"]
    assert commits, "expected at least one committed flatten in 2000 ops"


def test_same_seed_reproduces_run_exactly():
    config = SimConfig(
        seed=7,
        core_count=2,
        nebula_count=1,
        op_count=300,
        delete_ratio=0.3,
        flatten_interval=100,
        duplicate_prob=0.2,
        drop_retry_prob=0.1,
    )
    a = sim.run(config)
    b = sim.run(config)
    assert a.final_digest == b.final_digest
    assert a.event_log == b.event_log
    assert a.metrics == b.metrics


def test_different_seeds_likely_differ():
    base = dict(core_count=2, nebula_count=0, op_count=120, flatten_interval=0)
    a = sim.run(SimConfig(seed=1, **base))
    b = sim.run(SimConfig(seed=2, **base))
    assert a.event_log != b.event_log


def test_crash_and_recovery_still_converges():
    config = SimConfig(
        seed=11,
        core_count=3,
        nebula_count=1,
        op_count=400,
        delete_ratio=0.3,
        flatten_interval=120,
        crash_schedule=(CrashWindow(2, 40, 160), CrashWindow(3, 100, 300)),
    )
    result = sim.run(config)
    assert result.converged
    kinds = {e[2] for e in result.event_log}
    assert "crash" in kinds and "recover" in kinds


def test_flatten_aborts_while_core_member_down():
    config = SimConfig(
        seed=13,
        core_count=3,
        nebula_count=0,
        op_count=300,
        flatten_interval=50,
        crash_schedule=(CrashWindow(1, 10, 10_000),),
    )
    result = sim.run(config)
    assert result.converged  # held messages apply after recovery
    aborts = [e for e in result.event_log if e[2] == "flatten_abort"]
    assert aborts, "a flatten attempt should abort while a core member is down"


def test_injected_message_drop_diverges():
    config = SimConfig(
        seed=3,
        core_count=2,
        nebula_count=0,
        op_count=60,
        delete_ratio=0.0,
        duplicate_prob=0.0,
        drop_retry_prob=0.0,
        fault_drop_message=1,
    )
    result = sim.run(config)
    assert not result.converged
    assert result.diff
    with pytest.raises(NonConvergenceError):
        sim.run(config, strict=True)


def test_convergence_check_sees_a_tombstone_the_text_hides():
    # Site A inserts an atom and deletes it; site B sees neither op. Text and
    # live TIDs agree, the trees do not.
    a = Site(b"A", Role.CORE)
    b = Site(b"B", Role.CORE)
    a.submit_local(OpKind.INSERT, position=0, atom=b"x")
    a.submit_local(OpKind.DELETE, position=0)
    assert a.replica.text() == b.replica.text() == ""
    result = sim.check_convergence([a, b])
    assert result[0] is False
    assert "tombstones" in result[1]
    assert result[2] == a.replica.state_digest()


def test_metrics_and_log_exports(tmp_path):
    config = SimConfig(seed=5, core_count=2, nebula_count=1, op_count=150,
                       flatten_interval=60)
    result = sim.run(config)
    metrics_path = tmp_path / "metrics.csv"
    log_path = tmp_path / "events.log"
    sim.write_metrics_csv(result.metrics, str(metrics_path))
    sim.write_event_log(result.event_log, str(log_path))
    lines = metrics_path.read_text().splitlines()
    assert lines[0] == "tick,total_nodes,tombstones,mean_tid_bytes,epoch"
    assert len(lines) == len(result.metrics) + 1
    ticks = [row[0] for row in result.metrics]
    assert ticks == sorted(ticks)
    assert len(log_path.read_text().splitlines()) == len(result.event_log)


def test_epochs_agree_everywhere_after_quiescence():
    config = SimConfig(
        seed=23,
        core_count=4,
        nebula_count=3,
        op_count=900,
        delete_ratio=0.5,
        flatten_interval=200,
        duplicate_prob=0.15,
    )
    result = sim.run(config)
    assert result.converged
    epochs = {site.replica.epoch for site in result.sites}
    assert len(epochs) == 1
    for site in result.sites:
        assert not site.pending
        assert site.replica.counters_consistent()


def test_soak_many_epochs_large_cluster():
    config = SimConfig(
        seed=4242,
        core_count=5,
        nebula_count=3,
        op_count=8000,
        delete_ratio=0.45,
        flatten_interval=400,
        max_delay=8,
        duplicate_prob=0.15,
        drop_retry_prob=0.1,
    )
    result = sim.run(config)
    assert result.converged
    commits = sum(1 for e in result.event_log if e[2] == "flatten_commit")
    assert commits >= 5
    assert result.sites[0].replica.epoch == commits


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(core_count=0).validate()
    with pytest.raises(ValueError):
        SimConfig(delete_ratio=1.5).validate()
    with pytest.raises(ValueError):
        SimConfig(crash_schedule=(CrashWindow(9, 0, 10),)).validate()
    with pytest.raises(ValueError):
        SimConfig(crash_schedule=(CrashWindow(0, 10, 5),)).validate()
    for drop in (0, -1):  # a drop that never fires
        with pytest.raises(ValueError, match="fault_drop_message"):
            SimConfig(fault_drop_message=drop).validate()


def test_soak_site_metadata_holds_the_current_epoch_only():
    # 30 committed epochs; at quiescence no site keeps anything of an older
    # epoch.
    config = SimConfig(
        seed=4242,
        core_count=5,
        nebula_count=3,
        op_count=12_000,
        delete_ratio=0.45,
        flatten_interval=400,
        max_delay=8,
        duplicate_prob=0.15,
        drop_retry_prob=0.1,
    )
    result = sim.run(config)
    assert result.converged
    epoch = result.sites[0].replica.epoch
    assert epoch >= 20
    for site in result.sites:
        assert site.replica.epoch == epoch
        assert site.announcements == {}
        assert all(e >= epoch for e in site.epoch_buffers)


def _metadata_sizes(site: Site) -> tuple[int, ...]:
    return (
        len(site.epoch_ids),
        len(site.announcements),
        len(site.epoch_buffers),
        len(site.applied_inserts),
        len(site.applied_deletes),
        len(site.pending),
        len(site.take_delivered()),
    )


def test_single_core_site_metadata_does_not_grow_with_history():
    site = Site(b"A", Role.CORE)
    rng = Random(3)
    sizes = {}
    for i in range(1, 20_001):
        live = site.replica.live_count
        if live and rng.random() < 0.3:
            site.submit_local(OpKind.DELETE, position=rng.randrange(live))
        else:
            site.submit_local(OpKind.INSERT, position=rng.randint(0, live), atom=b"a")
        site.outbox.clear()
        if i % 1000 == 0:
            assert initiate_flatten(site, [site]).committed
        if i in (5_000, 20_000):
            sizes[i] = _metadata_sizes(site)
    assert site.replica.epoch == 20
    assert sizes[5_000] == sizes[20_000]


@pytest.mark.parametrize("nebulas", [0, 2])
def test_decision_digests_the_committed_set_once_per_commit(monkeypatch, nebulas):
    # The digest goes into the decision's log text, built once per commit
    # for all its receipts; prepares digest the epoch's (mutable) set.
    real = protocol.ids_digest
    committed_sets = []

    def counted(ids):
        if isinstance(ids, frozenset):
            committed_sets.append(ids)
        return real(ids)

    monkeypatch.setattr(protocol, "ids_digest", counted)
    config = SimConfig(seed=9, core_count=3, nebula_count=nebulas, op_count=400,
                       flatten_interval=100, duplicate_prob=0.2)
    result = sim.run(config)
    assert result.converged
    kinds = [kind for _, _, kind, _ in result.event_log]
    commits = kinds.count("flatten_commit")
    assert commits >= 2
    assert len(committed_sets) == (commits if nebulas else 0)
    assert kinds.count("recv_decision") >= commits * nebulas


def test_op_log_text_lists_every_field_once():
    op = Operation(0, OpKind.INSERT, TID(b"X"), b"x", b"X", 1)
    text = f"0:insert:{TID(b'X').encode().hex()}:78:58:1"
    assert sim._op_text(op) == text
    assert sim._text("op", op) == f"op|{text}"
    batch = sim.CatchUpBatch(b"N", (op, op))
    assert sim._text("catchup", batch) == f"catchup|4e|{text};{text}"


def test_flatten_mid_stream_reaches_the_catch_up_batch_path():
    # A flatten fires while nebula edits are still in flight, so nebula
    # sites emit catch-up batches that the core sites then relay; generated
    # configs flatten only in quiet windows and never get here.
    emitting = 0
    for seed in range(5):
        for tick in range(20, 81, 3):
            net = sim.Network(SimConfig(seed=seed, core_count=2, nebula_count=2,
                                        op_count=150))
            net._push(tick, "flatten", 0)
            result = net.run()
            assert result.converged, (seed, tick, result.diff)
            assert not result.intent, (seed, tick, result.intent)
            kinds = [kind for _, _, kind, _ in result.event_log]
            emits = kinds.count("catchup_emit")
            assert kinds.count("recv_catchup") >= 2 * emits
            emitting += emits > 0
    assert emitting >= 3


def test_catch_up_under_faults_keeps_every_edit(monkeypatch):
    # The mid-stream flatten above, under duplication, retried drops and a
    # crash window on a nebula or a core site: every replica must converge
    # on exactly the atoms that were inserted and not deleted.
    inserted, deleted = set(), set()
    submit = Site.submit_local

    def recording(site, kind, *, position=None, atom=None):
        op = submit(site, kind, position=position, atom=atom)
        if kind is OpKind.INSERT:
            inserted.add(atom)
        else:
            deleted.add(site.replica.find(op.tid).atom)
        return op

    monkeypatch.setattr(Site, "submit_local", recording)
    emitting = 0
    for seed in range(4):
        for crashes in ((), (CrashWindow(3, 30, 70),), (CrashWindow(1, 25, 60),)):
            for tick in range(20, 81, 2):
                inserted.clear()
                deleted.clear()
                net = sim.Network(SimConfig(
                    seed=seed, core_count=2, nebula_count=2, op_count=150,
                    duplicate_prob=0.2, drop_retry_prob=0.1, crash_schedule=crashes,
                ))
                net._push(tick, "flatten", 0)
                result = net.run()
                case = (seed, crashes, tick)
                assert result.converged, (case, result.diff)
                assert not result.intent, (case, result.intent)
                # Converged: every replica holds the first one's atoms.
                atoms = result.sites[0].replica.atoms()
                assert sorted(atoms) == sorted(inserted - deleted), case
                # Quiescent: no nebula site is left a catch-up to make.
                for nb in net.nebula_sites:
                    epoch = nb.replica.epoch
                    assert nb.maybe_catch_up() == [], case
                    assert nb.replica.epoch == epoch, case
                kinds = [kind for _, _, kind, _ in result.event_log]
                emitting += "catchup_emit" in kinds
    assert emitting >= 15


# sha256 of write_event_log and write_metrics_csv output for fixed configs,
# as the simulator wrote them when it kept its log as tuples; a change to its
# draws, its messages or its log format moves them.
GOLDEN = {
    "nebulas": (
        SimConfig(seed=5, core_count=3, nebula_count=2, op_count=300,
                  flatten_interval=100, duplicate_prob=0.2, drop_retry_prob=0.1),
        None,
        "d2b70349a2f84378425df47f53f46faff09766c814bd72e9c3a36bb20d6d6fc6",
        "6638aa11545a8789bc51dc474035d998b594dd75b2d7a869b418c8b2f71d9de1",
    ),
    "crash_window": (
        SimConfig(seed=11, core_count=3, nebula_count=1, op_count=400,
                  flatten_interval=120,
                  crash_schedule=(CrashWindow(2, 40, 160), CrashWindow(3, 100, 300))),
        None,
        "9ac22dc88e059cc1f5951fb6923fe06d766e23d8fc5fa76f1d56c263ff1729c8",
        "174ba187da04dc14a511a6cd30029b2392c58677381364c78e89621e0a4a4821",
    ),
    "core_down_aborts": (
        SimConfig(seed=13, core_count=3, op_count=300, flatten_interval=50,
                  crash_schedule=(CrashWindow(1, 10, 10_000),)),
        None,
        "f818aefa76b9006c864458f6f0ecf325ad01e300cd61ece309fe777a9f444b7e",
        "3c1a4d325efc37e18d29581d3019a2383e978ce2c29a3512e47b5ce68de595c0",
    ),
    "fault_drop": (
        SimConfig(seed=3, core_count=2, nebula_count=1, op_count=80,
                  duplicate_prob=0.1, fault_drop_message=7),
        None,
        "99c9dd05ab48b6bc63d3707e4433f9f4658927d305c0bfc93eb2268fea056948",
        "24e4f9df0427a737cf0abfa16ffbc756db1550ae223cb64059bf15bd6e4e60c0",
    ),
    "cluster": (
        SimConfig(seed=11, core_count=4, nebula_count=3, op_count=600,
                  duplicate_prob=0.1, drop_retry_prob=0.05, flatten_interval=200),
        None,
        "5b2818876d5cec75c928daedc4dfe89e1a70a299bb3b676c4b36ba99fd284d8e",
        "a95687564e34b8c90dc383191aef13d271ff3f977775d92da0301b6ee8200caa",
    ),
    "mid_stream_flatten": (
        SimConfig(seed=2, core_count=2, nebula_count=2, op_count=150),
        # A flatten pushed at this tick, the first in 20..80 at which a
        # nebula of this config emits a catch-up batch.
        35,
        "026319e1e5c9f326c07cc977ba413443428bd3f3c68c713e2679729e6b7ff876",
        "2b41ae78aa1a0192dd9d98e7db89d7bcefa6d620b296a18e7b4c02f626ba7954",
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_exports_match_the_golden_digests(tmp_path, name):
    config, flatten_at, events_sha, metrics_sha = GOLDEN[name]
    net = sim.Network(config)
    if flatten_at is not None:
        net._push(flatten_at, "flatten", 0)
    result = net.run()
    assert (result.intent == "") == (config.fault_drop_message is None)
    kinds = {kind for _, _, kind, _ in result.event_log}
    assert ("fault_drop" in kinds) == (config.fault_drop_message is not None)
    assert ("catchup_emit" in kinds) == (flatten_at is not None)
    assert ("crash" in kinds) == bool(config.crash_schedule)
    sim.write_event_log(result.event_log, str(tmp_path / "events.log"))
    sim.write_metrics_csv(result.metrics, str(tmp_path / "metrics.csv"))
    assert hashlib.sha256((tmp_path / "events.log").read_bytes()).hexdigest() == events_sha
    assert hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() == metrics_sha


@pytest.mark.parametrize(
    "field",
    ["core_count", "nebula_count", "op_count", "max_delay", "flatten_interval",
     "fault_drop_message", "site_index", "tick_down", "tick_up"],
)
@pytest.mark.parametrize("value", [2.5, True])
def test_config_validation_rejects_a_non_int(field, value):
    # Each would otherwise fail mid-run, or run with a fractional interval.
    window = {"site_index": 0, "tick_down": 1, "tick_up": 4}
    if field in window:
        config = SimConfig(crash_schedule=(CrashWindow(**{**window, field: value}),))
    else:
        config = SimConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        sim.run(config)


@pytest.mark.parametrize("schedule", [((0, 1, 5),), "x", None])
def test_config_validation_rejects_a_crash_schedule_of_other_values(schedule):
    with pytest.raises(ValueError, match="crash_schedule"):
        SimConfig(crash_schedule=schedule).validate()


@pytest.mark.parametrize("field", ["delete_ratio", "duplicate_prob", "drop_retry_prob"])
def test_config_validation_rejects_a_probability_that_is_not_a_number(field):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: "0.3"}).validate()


def test_event_log_counts_and_rows_come_from_the_packed_columns():
    config = SimConfig(seed=5, core_count=3, nebula_count=2, op_count=200,
                       flatten_interval=60)
    log = sim.run(config).event_log
    rows = list(log)
    assert len(rows) == len(log)
    for kind in ("flatten_commit", "recv_applied", "converged", "diverged"):
        assert log.count(kind) == sum(1 for row in rows if row[2] == kind)
    assert log.count("flatten_commit") > 0
    assert rows[-1][1:3] == ("net", "converged")
    assert log == sim.run(config).event_log


def test_a_nebula_enters_the_epoch_when_the_last_committed_op_arrives():
    # The decision reaches the nebula before the core's last op does; the
    # op's delivery, not the end-of-run sweep, takes the nebula across.
    net = sim.Network(SimConfig(core_count=1, nebula_count=1, op_count=0))
    core, nebula = net.sites
    nebula.submit_local(OpKind.INSERT, position=0, atom=b"n")  # not committed
    nebula.outbox.clear()
    op = core.submit_local(OpKind.INSERT, position=0, atom=b"c")
    core.outbox.clear()
    ann = initiate_flatten(core, [core]).announcement
    net._recv_decision(1, ann, b"", 0)
    assert nebula.replica.epoch == 0 and nebula.announcements
    assert nebula.deliver(op) is DeliverResult.APPLIED
    net._after_delivery(1, 5, op)
    assert nebula.replica.epoch == 1 and not nebula.announcements
    assert [kind for _, _, kind, _ in net.log] == ["recv_decision", "catchup_emit"]


@pytest.mark.parametrize("seed", range(5))
def test_each_replica_receives_each_op_once_without_duplication(seed):
    # A core site's op goes to every other site, a nebula site's to the core
    # and, from its home core alone, to the other nebula sites.
    config = SimConfig(seed=seed, core_count=4, nebula_count=3, op_count=500,
                       drop_retry_prob=0.1)
    result = sim.run(config)
    assert result.converged
    receipts = sum(result.event_log.count(f"recv_{r.value}") for r in DeliverResult)
    assert receipts == config.op_count * (4 + 3 - 1)


# -- the intent oracle --------------------------------------------------------


def test_intent_oracle_catches_an_edit_garbled_at_every_site(monkeypatch):
    # The origin applies and sends another atom than the one it generated,
    # so every replica agrees on the wrong text: convergence alone passes.
    config = SimConfig(seed=7, core_count=2, nebula_count=1, op_count=60,
                       flatten_interval=25, duplicate_prob=0.1)
    assert sim.run(config, strict=True).intent == ""
    submit = Site.submit_local

    def garbling(site, kind, *, position=None, atom=None):
        if atom == b"[c00#3]":
            atom = b"[garbled]"
        return submit(site, kind, position=position, atom=atom)

    monkeypatch.setattr(Site, "submit_local", garbling)
    result = sim.run(config)
    assert result.converged
    assert "[c00#3]" in result.intent and result.intent.startswith("b'c00'")
    with pytest.raises(IntentViolation, match=r"\[c00#3\]"):
        sim.run(config, strict=True)


def test_intent_oracle_names_missing_and_extra_atoms():
    net = sim.Network(SimConfig(seed=3, core_count=2, op_count=40, delete_ratio=0.0))
    assert net.run().intent == ""
    intended = net._intended
    live = next(iter(intended))
    intended[live] = False
    intended[b"never-made"] = True
    report = net._check_intent(net.sites)
    assert report.startswith("b'c00' misses [b'never-made']")
    assert report.endswith(f"holds [{live!r}] beyond")
