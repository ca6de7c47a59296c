"""Trial journal tests: durability, corruption handling, crash/resume.

The flagship scenarios here are the ones the journal exists for: a campaign
killed mid-flight resumes from its journal and produces results
bit-identical to an uninterrupted serial run; a torn final line (the
residue of a crash mid-write) is tolerated; a journal from a *different*
campaign is rejected, never merged.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.analysis.fundamental import fundamental_diagram
from repro.analysis.montecarlo import monte_carlo
from repro.core.config import Scenario
from repro.core.journal import (
    SCHEMA_VERSION,
    TrialJournal,
    campaign_fingerprint,
    open_journal,
    read_completed,
    trial_key_id,
)
from repro.core.runner import TrialRunner, TrialSpec
from repro.core.sweep import sweep_scenario
from repro.metrics.collector import CampaignTelemetry
from repro.util.errors import ConfigError, JournalCorruptError
from repro.util.rng import RngStreams

FP = campaign_fingerprint(kind="test", n=3)


def _square(x):
    return x * x


def _specs(count):
    return [TrialSpec(key=(i, 0), fn=_square, args=(i,)) for i in range(count)]


# -- format basics ------------------------------------------------------------


def test_roundtrip(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_success((0.5, 3), {"pdr": 0.9}, attempts=2,
                               wall_clock_s=1.5)
    completed = read_completed(path, FP)
    entry = completed[trial_key_id((0.5, 3))]
    assert entry.value == {"pdr": 0.9}
    assert entry.attempts == 2
    assert entry.wall_clock_s == 1.5


def test_key_identity_survives_json_roundtrip():
    # Tuples and lists collapse to the same identity — exactly what a key
    # that crossed a JSON serialisation needs.
    assert trial_key_id((0.5, 3)) == trial_key_id([0.5, 3])
    assert trial_key_id("AODV") != trial_key_id("OLSR")


def test_fingerprint_sensitivity():
    base = campaign_fingerprint(kind="sweep", values=[1, 2], trials=5)
    assert base == campaign_fingerprint(kind="sweep", values=[1, 2], trials=5)
    assert base != campaign_fingerprint(kind="sweep", values=[1, 3], trials=5)
    assert base != campaign_fingerprint(kind="sweep", values=[1, 2], trials=6)


def test_failures_are_recorded_but_not_resumed(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_failure((1, 0), "boom", attempts=2)
        journal.record_success((2, 0), 42, attempts=1, wall_clock_s=0.1)
    completed = read_completed(path, FP)
    assert trial_key_id((1, 0)) not in completed
    assert completed[trial_key_id((2, 0))].value == 42


def test_torn_final_line_is_tolerated(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_success((0, 0), 0, 1, 0.0)
        journal.record_success((1, 0), 1, 1, 0.0)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-15])  # tear the tail mid-record
    completed = read_completed(path, FP)
    assert set(completed) == {trial_key_id((0, 0))}


def test_midfile_corruption_raises(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_success((0, 0), 0, 1, 0.0)
        journal.record_success((1, 0), 1, 1, 0.0)
    lines = open(path, "rb").read().splitlines(keepends=True)
    lines[1] = b'{"kind": "trial", garbage\n'
    open(path, "wb").write(b"".join(lines))
    with pytest.raises(JournalCorruptError, match="line 2"):
        read_completed(path, FP)


def test_fingerprint_mismatch_rejected(tmp_path):
    path = str(tmp_path / "j.jsonl")
    TrialJournal(path, FP).close()
    with pytest.raises(JournalCorruptError, match="different campaign"):
        read_completed(path, campaign_fingerprint(kind="other"))
    with pytest.raises(JournalCorruptError, match="different campaign"):
        TrialJournal(path, campaign_fingerprint(kind="other"), resume=True)


def test_unknown_schema_rejected(tmp_path):
    path = str(tmp_path / "j.jsonl")
    header = {"kind": "header", "schema": SCHEMA_VERSION + 1,
              "fingerprint": FP}
    open(path, "w").write(json.dumps(header) + "\n")
    with pytest.raises(JournalCorruptError, match="schema"):
        read_completed(path, FP)


def test_missing_header_rejected(tmp_path):
    path = str(tmp_path / "j.jsonl")
    open(path, "w").write('{"kind": "trial"}\n')
    with pytest.raises(JournalCorruptError, match="header"):
        read_completed(path, FP)


def test_resume_without_path_is_a_config_error():
    with pytest.raises(ConfigError, match="journal path"):
        open_journal(None, FP, resume=True)


def test_fresh_open_truncates_stale_journal(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_success((0, 0), 0, 1, 0.0)
    # resume=False: a fresh campaign starts over even if a journal exists.
    TrialJournal(path, FP, resume=False).close()
    assert read_completed(path, FP) == {}


# -- runner integration -------------------------------------------------------


def _poisoned(x, die_at):
    if x >= die_at:
        raise KeyboardInterrupt  # simulated SIGINT/kill mid-campaign
    return x * x


def test_crash_then_resume_matches_uninterrupted_serial(tmp_path):
    path = str(tmp_path / "j.jsonl")
    poisoned = [
        TrialSpec(key=(i, 0), fn=_poisoned, args=(i, 3)) for i in range(6)
    ]
    journal = TrialJournal(path, FP)
    with pytest.raises(KeyboardInterrupt):
        TrialRunner().run(poisoned, journal=journal)
    journal.close()
    assert len(read_completed(path, FP)) == 3

    telemetry = CampaignTelemetry()
    journal = TrialJournal(path, FP, resume=True)
    resumed = TrialRunner(telemetry=telemetry).run(_specs(6), journal=journal)
    journal.close()
    truth = TrialRunner().run(_specs(6))
    assert [o.value for o in resumed] == [o.value for o in truth]
    assert [o.key for o in resumed] == [o.key for o in truth]
    assert [o.index for o in resumed] == [o.index for o in truth]
    assert telemetry.trials_resumed == 3
    assert telemetry.trials_completed == 3
    assert telemetry.trials_failed == 0


def test_resume_after_torn_line_reruns_the_torn_trial(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = TrialJournal(path, FP)
    TrialRunner().run(_specs(4), journal=journal)
    journal.close()
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-10])  # crash tore the last record

    telemetry = CampaignTelemetry()
    journal = TrialJournal(path, FP, resume=True)
    resumed = TrialRunner(telemetry=telemetry).run(_specs(4), journal=journal)
    journal.close()
    assert [o.value for o in resumed] == [0, 1, 4, 9]
    assert telemetry.trials_resumed == 3  # the torn one re-ran
    assert telemetry.trials_completed == 1


def test_parallel_run_journals_and_resumes(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = TrialJournal(path, FP)
    parallel = TrialRunner(max_workers=3).run(_specs(6), journal=journal)
    journal.close()
    assert [o.value for o in parallel] == [0, 1, 4, 9, 16, 25]

    telemetry = CampaignTelemetry()
    journal = TrialJournal(path, FP, resume=True)
    resumed = TrialRunner(max_workers=3, telemetry=telemetry).run(
        _specs(6), journal=journal
    )
    journal.close()
    assert [o.value for o in resumed] == [0, 1, 4, 9, 16, 25]
    assert telemetry.trials_resumed == 6


# -- campaign entry points ----------------------------------------------------

SMALL = Scenario(
    num_nodes=10,
    road_length_m=900.0,
    sim_time_s=15.0,
    senders=(1, 2),
    traffic_start_s=2.0,
    traffic_stop_s=12.0,
    dawdle_p=0.0,
    seed=3,
)


def _sweep_kwargs():
    return dict(
        base=SMALL, field="num_nodes", values=[10, 12], trials=2
    )


def _point_tuples(result):
    return [
        (
            point.value,
            point.pdr_mean,
            point.pdr_std,
            point.delay_mean_s,
            point.control_packets_mean,
            [r.pdr() for r in point.results],
        )
        for point in result.points
    ]


def test_sweep_interrupted_and_resumed_is_bit_identical(
    tmp_path, monkeypatch
):
    import repro.core.sweep as sweep_mod

    truth = sweep_scenario(**_sweep_kwargs())

    path = str(tmp_path / "sweep.jsonl")
    real_trial = sweep_mod._run_scenario_trial
    calls = {"n": 0}

    def dying_trial(scenario):
        if calls["n"] >= 3:
            raise KeyboardInterrupt  # the simulated kill -9 at trial 4/4
        calls["n"] += 1
        return real_trial(scenario)

    monkeypatch.setattr(sweep_mod, "_run_scenario_trial", dying_trial)
    with pytest.raises(KeyboardInterrupt):
        sweep_scenario(**_sweep_kwargs(), journal_path=path)
    monkeypatch.setattr(sweep_mod, "_run_scenario_trial", real_trial)

    telemetry = CampaignTelemetry()
    resumed = sweep_scenario(
        **_sweep_kwargs(),
        journal_path=path,
        resume=True,
        telemetry=telemetry,
    )
    assert telemetry.trials_resumed == 3
    assert telemetry.trials_completed == 1
    # Bit-identical: every float of every point, including raw per-trial
    # results, matches the uninterrupted serial run.
    assert _point_tuples(resumed) == _point_tuples(truth)


def test_sweep_journal_rejects_changed_grid(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    sweep_scenario(**_sweep_kwargs(), journal_path=path)
    with pytest.raises(JournalCorruptError, match="different campaign"):
        sweep_scenario(
            base=SMALL,
            field="num_nodes",
            values=[10, 14],  # different grid -> different fingerprint
            trials=2,
            journal_path=path,
            resume=True,
        )


def test_sweep_resume_with_torn_tail(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    truth = sweep_scenario(**_sweep_kwargs(), journal_path=path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-25])

    telemetry = CampaignTelemetry()
    resumed = sweep_scenario(
        **_sweep_kwargs(),
        journal_path=path,
        resume=True,
        telemetry=telemetry,
    )
    assert telemetry.trials_resumed == 3
    assert telemetry.trials_completed == 1
    assert _point_tuples(resumed) == _point_tuples(truth)


def test_fundamental_resume_matches_fresh(tmp_path):
    path = str(tmp_path / "fd.jsonl")
    kwargs = dict(
        densities=[0.1, 0.3],
        p=0.3,
        num_cells=60,
        trials=3,
        steps=40,
    )
    truth = fundamental_diagram(rng=RngStreams(7), **kwargs)
    fundamental_diagram(rng=RngStreams(7), journal_path=path, **kwargs)
    telemetry = CampaignTelemetry()
    resumed = fundamental_diagram(
        rng=RngStreams(7),
        journal_path=path,
        resume=True,
        telemetry=telemetry,
        **kwargs,
    )
    assert telemetry.trials_resumed == 6
    assert telemetry.trials_completed == 0
    np.testing.assert_array_equal(resumed.flows, truth.flows)
    np.testing.assert_array_equal(resumed.flow_std, truth.flow_std)
    assert resumed.total_failed == 0


def _mc_experiment(generator):
    return generator.normal(size=3)


def test_monte_carlo_resume_matches_fresh(tmp_path):
    path = str(tmp_path / "mc.jsonl")
    truth = monte_carlo(_mc_experiment, trials=5, rng=RngStreams(11))
    monte_carlo(
        _mc_experiment, trials=5, rng=RngStreams(11), journal_path=path
    )
    telemetry = CampaignTelemetry()
    resumed = monte_carlo(
        _mc_experiment,
        trials=5,
        rng=RngStreams(11),
        journal_path=path,
        resume=True,
        telemetry=telemetry,
    )
    assert telemetry.trials_resumed == 5
    np.testing.assert_array_equal(resumed.samples, truth.samples)
    np.testing.assert_array_equal(resumed.mean, truth.mean)


# -- supervision records: leases, heartbeats, events --------------------------


def _legacy_heartbeat(journal, key, owner, seq):
    """Append a ``heartbeat`` record as pre-merge journals carry them.

    Nothing writes heartbeats any more; readers must still skip them.
    """
    journal._write_line(
        {"kind": "heartbeat", "key": trial_key_id(key), "owner": owner,
         "seq": seq, "t": 0.0},
        fsync=False,
    )


def test_lease_records_supersede_and_trials_release(tmp_path):
    from repro.core.journal import read_lease_state

    path = str(tmp_path / "lease.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_lease((0, 0), "owner-a", 1, ttl_s=60.0)
        journal.record_lease((0, 0), "owner-b", 2, ttl_s=60.0)  # supersedes
        journal.record_lease((1, 0), "owner-a", 1, ttl_s=60.0)
        journal.record_success((1, 0), 1, attempts=1, wall_clock_s=0.1)
    leases = read_lease_state(path, FP)
    # Trial (1,0) completed, so its lease is released; (0,0) holds the
    # *latest* claim only.
    assert set(leases) == {trial_key_id((0, 0))}
    lease = leases[trial_key_id((0, 0))]
    assert lease.owner == "owner-b"
    assert lease.attempt == 2
    assert not lease.expired()


def test_lease_expiry_is_wall_clock(tmp_path):
    path = str(tmp_path / "lease.jsonl")
    with TrialJournal(path, FP) as journal:
        lease = journal.record_lease((0, 0), "o", 1, ttl_s=0.05)
    assert not lease.expired(now=lease.deadline_unix - 0.01)
    assert lease.expired(now=lease.deadline_unix)


def test_supervision_records_are_invisible_to_read_completed(tmp_path):
    path = str(tmp_path / "mixed.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_lease((0, 0), "o", 1, ttl_s=60.0)
        _legacy_heartbeat(journal, (0, 0), "o", seq=1)
        journal.record_campaign_event("degraded", "supervised->process")
        journal.record_success((0, 0), 42, attempts=1, wall_clock_s=0.1)
    completed = read_completed(path, FP)
    assert completed[trial_key_id((0, 0))].value == 42
    assert len(completed) == 1


# -- inspect / compact --------------------------------------------------------


def _write_busy_journal(path):
    """A journal with superseded records worth compacting."""
    with TrialJournal(path, FP) as journal:
        journal.record_lease((0, 0), "a", 1, ttl_s=60.0)
        _legacy_heartbeat(journal, (0, 0), "a", seq=1)
        _legacy_heartbeat(journal, (0, 0), "a", seq=2)
        journal.record_failure((0, 0), "first try died", attempts=1)
        journal.record_lease((0, 0), "a", 2, ttl_s=60.0)
        journal.record_success((0, 0), 7, attempts=2, wall_clock_s=0.2)
        journal.record_lease((1, 0), "a", 1, ttl_s=3600.0)
        journal.record_campaign_event("breaker-open", "3 consecutive")


def test_inspect_journal_counts_every_record_kind(tmp_path):
    from repro.core.journal import inspect_journal

    path = str(tmp_path / "busy.jsonl")
    _write_busy_journal(path)
    stats = inspect_journal(path)
    assert stats.fingerprint == FP
    assert stats.schema == SCHEMA_VERSION
    assert stats.trials_ok == 1
    assert stats.trials_failed == 1
    assert stats.distinct_completed == 1
    assert stats.leases == 3
    assert stats.live_leases == 1  # (1,0) was never completed
    assert stats.heartbeats == 2
    assert stats.events == 1
    assert not stats.torn_tail
    assert stats.size_bytes > 0
    assert stats.superseded > 0


def test_compact_preserves_resume_state_and_shrinks(tmp_path):
    from repro.core.journal import compact_journal, read_lease_state

    path = str(tmp_path / "busy.jsonl")
    _write_busy_journal(path)
    before_completed = read_completed(path, FP)
    before_leases = read_lease_state(path, FP)

    bytes_before, bytes_after = compact_journal(path)
    assert bytes_after < bytes_before

    # Resume-relevant state is byte-for-byte what it was: completed
    # values, live leases, and the fingerprint all survive.
    assert read_completed(path, FP) == before_completed
    assert read_lease_state(path, FP) == before_leases
    from repro.core.journal import inspect_journal

    stats = inspect_journal(path)
    assert stats.heartbeats == 0  # heartbeats are always superseded
    assert stats.superseded == 0  # nothing left to drop: idempotent
    again_before, again_after = compact_journal(path)
    assert again_before == again_after


def test_compact_to_separate_output_leaves_original(tmp_path):
    from repro.core.journal import compact_journal

    path = str(tmp_path / "busy.jsonl")
    out = str(tmp_path / "compacted.jsonl")
    _write_busy_journal(path)
    original = open(path, "rb").read()
    compact_journal(path, output=out)
    assert open(path, "rb").read() == original
    assert read_completed(out, FP) == read_completed(path, FP)


def test_compacted_journal_resumes_a_real_campaign(tmp_path):
    """The flagship round-trip: run half, compact, resume — identical."""
    from repro.core.journal import compact_journal

    path = str(tmp_path / "campaign.jsonl")
    specs = _specs(6)
    truth = [o.value for o in TrialRunner().run(specs)]

    journal = open_journal(path, FP, resume=False)
    try:
        TrialRunner(max_workers=2, backend="local-supervised").run(
            specs[:3], journal=journal
        )
    finally:
        journal.close()
    compact_journal(path)

    journal = open_journal(path, FP, resume=True)
    telemetry = CampaignTelemetry()
    try:
        outcomes = TrialRunner(
            max_workers=2, backend="local-supervised", telemetry=telemetry
        ).run(specs, journal=journal)
    finally:
        journal.close()
    assert [o.value for o in outcomes] == truth
    assert telemetry.trials_resumed == 3  # the compacted half was kept


# -- quarantine and fencing records -------------------------------------------


def test_quarantine_record_roundtrips_and_releases_lease(tmp_path):
    from repro.core.journal import read_lease_state, read_quarantine

    path = str(tmp_path / "poison.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_lease((3, 0), "vm-a:11:1", 1, ttl_s=60.0)
        record = journal.record_quarantine(
            (3, 0),
            owners=["vm-a:11:1", "vm-b:22:2", "vm-a:11:1"],
            attempts=2,
            traceback_text="Fatal Python error: Segmentation fault",
        )
        # Duplicate owners collapse.
        assert record.owners == ("vm-a:11:1", "vm-b:22:2")
        assert journal.quarantined == {trial_key_id((3, 0)): record}
    assert read_lease_state(path, FP) == {}  # quarantine released it
    parked = read_quarantine(path, FP)
    assert parked == {trial_key_id((3, 0)): record}
    assert "Segmentation fault" in parked[trial_key_id((3, 0))].traceback


def test_ok_trial_record_lifts_a_quarantine(tmp_path):
    from repro.core.journal import read_quarantine

    path = str(tmp_path / "poison.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_quarantine((3, 0), owners=["a:1:1"], attempts=2)
        # An operator fixed the environment and re-ran the trial.
        journal.record_success((3, 0), 9, attempts=3, wall_clock_s=0.1)
    assert read_quarantine(path, FP) == {}


def test_resume_loads_quarantine_state(tmp_path):
    path = str(tmp_path / "poison.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_quarantine((5, 0), owners=["a:1:1"], attempts=2)
    with TrialJournal(path, FP, resume=True) as journal:
        assert trial_key_id((5, 0)) in journal.quarantined


def test_lease_records_carry_fencing_identity(tmp_path):
    from repro.core.journal import read_lease_state

    path = str(tmp_path / "fenced.jsonl")
    with TrialJournal(path, FP) as journal:
        journal.record_lease(
            (0, 0), "nfs-a:77:2", 2, ttl_s=60.0,
            host="nfs-a", pid=77, token=2,
        )
    lease = read_lease_state(path, FP)[trial_key_id((0, 0))]
    assert (lease.host, lease.pid, lease.token) == ("nfs-a", 77, 2)


def test_inspect_and_compact_preserve_quarantine(tmp_path):
    from repro.core.journal import (
        compact_journal,
        inspect_journal,
        read_quarantine,
    )

    path = str(tmp_path / "busy.jsonl")
    _write_busy_journal(path)
    with TrialJournal(path, FP, resume=True) as journal:
        journal.record_quarantine(
            (2, 0), owners=["a:1:1", "b:2:2"], attempts=2,
            traceback_text="boom",
        )
    assert inspect_journal(path).quarantined == 1
    before = read_quarantine(path, FP)
    compact_journal(path)
    assert read_quarantine(path, FP) == before
    assert inspect_journal(path).quarantined == 1


def test_journal_creation_fsyncs_parent_directory(tmp_path, monkeypatch):
    """Journal birth is durable: the parent dir is fsynced so the file's
    directory entry survives a power cut, not just its bytes."""
    import repro.core.journal as journal_mod

    synced = []
    monkeypatch.setattr(
        journal_mod, "fsync_directory", lambda p: synced.append(p)
    )
    path = str(tmp_path / "fresh.jsonl")
    TrialJournal(path, FP).close()
    assert synced == [str(tmp_path)]


# -- a journal written before the lease systems merged ------------------------

#: Written by the pre-merge ``local-supervised`` backend (its own lease,
#: heartbeat and event records): trials ("old", 0..2) completed through a
#: breaker trip and a degradation, then an open lease was left on
#: ("old", 3); ("old", 4) was never started.
OLD_JOURNAL = os.path.join(
    os.path.dirname(__file__), "fixtures", "supervised_journal.jsonl"
)
OLD_FP = campaign_fingerprint(kind="old-journal-fixture", trials=5)


def _fixture_trial(x):
    return (x, x * x, x / 7.0)


def _old_specs():
    return [
        TrialSpec(key=("old", i), fn=_fixture_trial, args=(i,))
        for i in range(5)
    ]


@pytest.fixture
def old_journal(tmp_path):
    path = tmp_path / "old.jsonl"
    shutil.copyfile(OLD_JOURNAL, path)
    return str(path)


def test_old_supervised_journal_resumes_bit_identically(old_journal):
    truth = [o.value for o in TrialRunner().run(_old_specs())]
    journal = open_journal(old_journal, OLD_FP, resume=True)
    telemetry = CampaignTelemetry()
    try:
        outcomes = TrialRunner(
            max_workers=2, backend="local-supervised", telemetry=telemetry
        ).run(_old_specs(), journal=journal)
    finally:
        journal.close()
    assert [o.value for o in outcomes] == truth
    assert telemetry.trials_resumed == 3
    assert telemetry.trials_completed == 2  # the open lease did not block


def test_old_supervised_journal_accepted_by_inspect_and_compact(
    old_journal, capsys
):
    from repro.cli import main

    assert main(["journal", "inspect", old_journal]) == 0
    out = capsys.readouterr().out
    assert "trials ok       : 3" in out
    assert "heartbeats      : 14" in out
    assert "events          : 2" in out
    assert '["old",3]: owner dead-runner' in out

    before = read_completed(old_journal, OLD_FP)
    assert main(["journal", "compact", old_journal]) == 0
    assert "compacted" in capsys.readouterr().out
    assert read_completed(old_journal, OLD_FP).keys() == before.keys()
    with open(old_journal, encoding="utf-8") as handle:
        kinds = [json.loads(line)["kind"] for line in handle]
    assert "heartbeat" not in kinds
    assert kinds.count("event") == 2 and kinds.count("lease") == 1
