"""Execution backends: registry wiring, supervision, and bit-identity.

The contract under test is the tentpole one: every backend returns the
exact values of an undisturbed serial run — supervision (claims,
fencing, reclaims, quarantine, degradation) changes *failure handling*,
never results.  Chaos sabotage (SIGKILL, hang, corrupt, heartbeat mute,
lease contention) is the adversary; serial execution is the ground
truth.  ``local-supervised`` is the dir-queue backend over a private
temporary directory, so these tests drive the queue protocol end to end.
"""

import json
import os
import tempfile
import time

import pytest

from repro.core import registry
from repro.core.backend import LocalSerialBackend
from repro.core.chaos import ChaosMonkey
from repro.core.config import Scenario
from repro.core.distq import (
    RESPAWN_BUDGET_PER_WORKER,
    DirQueueBackend,
    LocalSupervisedBackend,
)
from repro.core.journal import (
    campaign_fingerprint,
    open_journal,
    read_lease_state,
)
from repro.core.runner import TrialRunner, TrialSpec
from repro.metrics.collector import CampaignTelemetry
from repro.util.errors import ConfigError


def _square(x):
    return x * x


def _slow_square(x, delay_s):
    time.sleep(delay_s)
    return x * x


def _sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def _specs(n=6):
    return [TrialSpec(key=i, fn=_square, args=(i,)) for i in range(n)]


def _values(outcomes):
    return [o.value for o in outcomes]


TRUTH = [i * i for i in range(6)]


# -- registry wiring ----------------------------------------------------------


def test_backend_namespace_registered():
    names = set(registry.known("backend"))
    assert {
        "auto", "local-serial", "local-process", "local-supervised",
        "dir-queue",
    } <= names


def test_auto_picks_serial_for_one_worker_and_private_queue_otherwise():
    factory = registry.resolve("backend", "auto")
    assert isinstance(factory(TrialRunner(max_workers=1)), LocalSerialBackend)
    assert type(factory(TrialRunner(max_workers=3))) is LocalSupervisedBackend


def test_named_backends_resolve_to_their_classes():
    for name, cls in (
        ("local-serial", LocalSerialBackend),
        ("local-supervised", LocalSupervisedBackend),
        ("dir-queue", DirQueueBackend),
    ):
        backend = registry.resolve("backend", name)(TrialRunner())
        assert type(backend) is cls
        assert backend.name == name
    # The historical names are the queue over a private directory.
    assert issubclass(LocalSupervisedBackend, DirQueueBackend)
    assert LocalSupervisedBackend.private
    pool_name = registry.resolve("backend", "local-process")(TrialRunner())
    assert type(pool_name) is LocalSupervisedBackend


def test_local_process_scenario_keeps_its_spelling_and_fingerprint(tmp_path):
    """Scenarios and journals saved under the retired pool's name load
    byte-identically, so their campaign fingerprints do not move."""
    expected = dict(Scenario().to_dict(), backend="local-process")
    path = str(tmp_path / "pool.json")
    Scenario(backend="Local-Process").save(path)
    loaded = Scenario.load(path).to_dict()
    assert json.dumps(loaded) == json.dumps(expected)
    assert campaign_fingerprint(
        kind="sweep", scenario=loaded, trials=2
    ) == campaign_fingerprint(kind="sweep", scenario=expected, trials=2)


def test_unknown_backend_rejected_at_construction():
    with pytest.raises(ConfigError, match="unknown execution backend"):
        TrialRunner(backend="teleport")


def test_supervision_parameters_validated():
    with pytest.raises(ConfigError, match="lease_ttl_s"):
        TrialRunner(lease_ttl_s=0)
    with pytest.raises(ConfigError, match="heartbeat_interval_s"):
        TrialRunner(heartbeat_interval_s=-1)
    with pytest.raises(ConfigError, match="quarantine_after"):
        TrialRunner(quarantine_after=0)


# -- bit-identity across backends ---------------------------------------------


@pytest.mark.parametrize(
    "backend", ["local-serial", "local-process", "local-supervised", "dir-queue"]
)
def test_every_backend_matches_serial_truth(backend):
    outcomes = TrialRunner(
        max_workers=2, backend=backend, trial_timeout_s=30.0
    ).run(_specs())
    assert _values(outcomes) == TRUTH


def test_supervised_grants_one_lease_per_trial():
    telemetry = CampaignTelemetry()
    TrialRunner(
        max_workers=2, backend="local-supervised", telemetry=telemetry
    ).run(_specs())
    assert telemetry.claims_won == 6
    assert telemetry.leases_reclaimed == 0


def test_private_queue_dir_is_removed_after_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    TrialRunner(max_workers=2, backend="local-supervised").run(_specs())
    assert os.listdir(tmp_path) == []


# -- chaos: every sabotage mode recovers bit-identically ----------------------


def test_supervised_survives_sigkill_corrupt_and_hang():
    telemetry = CampaignTelemetry()
    chaos = ChaosMonkey(kill_on={0}, corrupt_on={1}, hang_on={2})
    started = time.monotonic()
    outcomes = TrialRunner(
        max_workers=2,
        backend="local-supervised",
        trial_timeout_s=1.0,
        lease_ttl_s=60.0,  # only the watchdog and instant reclaim are fast
        max_attempts=3,
        telemetry=telemetry,
        chaos=chaos,
    ).run(_specs())
    elapsed = time.monotonic() - started
    assert _values(outcomes) == TRUTH
    assert telemetry.leases_reclaimed >= 3  # one per sabotaged trial
    kinds = [e.kind for e in telemetry.events]
    assert kinds.count("worker-dead") == 2  # the SIGKILL and the hang
    assert "result-corrupt" in kinds
    assert elapsed < 30.0


def test_sigkilled_worker_reclaimed_well_inside_one_ttl():
    """Instant reclaim: the scheduler saw its worker exit, so the trial
    is handed on at once instead of after a 30 s frozen signature."""
    telemetry = CampaignTelemetry()
    started = time.monotonic()
    outcomes = TrialRunner(
        max_workers=2,
        backend="local-supervised",
        lease_ttl_s=30.0,
        telemetry=telemetry,
        chaos=ChaosMonkey(kill_on={0}),
    ).run(_specs())
    elapsed = time.monotonic() - started
    assert _values(outcomes) == TRUTH
    assert elapsed < 5.0
    assert any(
        e.kind == "lease-reclaimed" and e.key == 0 for e in telemetry.events
    )
    assert telemetry._count_events("worker-dead") == 1


def test_three_distinct_deaths_still_quarantine():
    telemetry = CampaignTelemetry()
    started = time.monotonic()
    outcomes = TrialRunner(
        max_workers=2,
        backend="local-supervised",
        lease_ttl_s=30.0,
        telemetry=telemetry,
        chaos=ChaosMonkey(kill_all_attempts_on={3}),
    ).run(_specs())
    assert time.monotonic() - started < 10.0  # three instant reclaims
    poisoned = outcomes[3]
    assert not poisoned.ok and poisoned.infrastructure
    assert poisoned.error.startswith("quarantined: killed 3 distinct")
    assert [o.value for o in outcomes if o.key != 3] == [
        v for i, v in enumerate(TRUTH) if i != 3
    ]
    assert telemetry.quarantined == 1


def test_supervised_kills_muted_worker_as_hung():
    """Alive but silent: after one lease TTL of frozen heartbeats the
    scheduler SIGKILLs its own worker and reclaims.  With one worker
    there is no peer, so only the scheduler can end the mute."""
    telemetry = CampaignTelemetry()
    started = time.monotonic()
    outcomes = TrialRunner(
        max_workers=1,
        backend="local-supervised",
        lease_ttl_s=1.0,
        heartbeat_interval_s=0.05,
        telemetry=telemetry,
        chaos=ChaosMonkey(mute_on={1}),
    ).run(_specs())
    elapsed = time.monotonic() - started
    assert _values(outcomes) == TRUTH
    assert telemetry.heartbeats_missed == 1
    assert telemetry.leases_reclaimed >= 1
    assert elapsed < 30.0


def test_supervised_extends_lease_for_slow_but_alive_worker():
    """Healthy heartbeats past the lease TTL mean *slow*, not hung."""
    telemetry = CampaignTelemetry()
    specs = [TrialSpec(key=0, fn=_slow_square, args=(3, 0.6))]
    outcomes = TrialRunner(
        max_workers=2,
        backend="local-supervised",
        lease_ttl_s=0.15,
        heartbeat_interval_s=0.03,
        telemetry=telemetry,
    ).run(specs)
    assert _values(outcomes) == [9]
    assert outcomes[0].attempts == 1
    assert telemetry.leases_reclaimed == 0  # never taken over
    assert telemetry.heartbeats_missed == 0  # never killed


def test_supervised_waits_out_and_reclaims_contended_lease():
    telemetry = CampaignTelemetry()
    chaos = ChaosMonkey(contend_on={2})
    outcomes = TrialRunner(
        max_workers=2,
        backend="local-supervised",
        lease_ttl_s=0.5,
        telemetry=telemetry,
        chaos=chaos,
    ).run(_specs())
    assert _values(outcomes) == TRUTH
    kinds = [e.kind for e in telemetry.events]
    assert "lease-contended" in kinds
    assert "lease-reclaimed" in kinds
    # Exactly one result for the contended trial: no double-count.
    assert sum(1 for o in outcomes if o.key == 2) == 1


# -- degradation ladder --------------------------------------------------------


def test_breaker_trip_completes_campaign_via_degradation():
    """Workers dying faster than the respawn budget trip the queue's
    breaker: the campaign finishes one rung down, chaos-free."""
    telemetry = CampaignTelemetry()
    chaos = ChaosMonkey(kill_all_attempts_on={0, 1, 2})
    outcomes = TrialRunner(
        max_workers=2,
        backend="local-supervised",
        lease_ttl_s=30.0,
        quarantine_after=100,  # keep quarantine out of this test
        telemetry=telemetry,
        chaos=chaos,
    ).run(_specs())
    assert _values(outcomes) == TRUTH
    degraded = [e for e in telemetry.events if e.kind == "degraded"]
    assert len(degraded) == 1
    assert degraded[0].detail.startswith("local-supervised->local-serial")
    assert "respawn budget" in degraded[0].detail


def test_timeout_is_a_failed_attempt_not_a_death():
    """An overrunning attempt is retried within ``max_attempts`` and
    never charged to the death ledger, even with ``quarantine_after=1``."""
    telemetry = CampaignTelemetry()
    outcomes = TrialRunner(
        max_workers=2,
        backend="local-supervised",
        trial_timeout_s=0.5,
        max_attempts=2,
        quarantine_after=1,
        telemetry=telemetry,
        chaos=ChaosMonkey(hang_on={1}),
    ).run(_specs())
    assert _values(outcomes) == TRUTH
    assert outcomes[1].attempts == 2
    assert telemetry.timeouts == 1 and telemetry.quarantined == 0


def test_timeouts_do_not_spend_the_respawn_budget():
    """Each timeout ends its worker; those respawns are free, so more
    timeouts than the budget covers still finish on the queue."""
    telemetry = CampaignTelemetry()
    # One respawn per timeout but the last: budget + 1 respawns.
    budget = RESPAWN_BUDGET_PER_WORKER  # for one worker
    specs = [
        TrialSpec(key=i, fn=_sleep_then_return, args=(5.0, i))
        for i in range(budget + 2)
    ]
    outcomes = TrialRunner(
        max_workers=1,
        backend="local-supervised",
        trial_timeout_s=0.2,
        max_attempts=1,
        telemetry=telemetry,
    ).run(specs)
    assert all(o.timed_out for o in outcomes)
    assert telemetry.timeouts == budget + 2
    assert telemetry.degradations == 0


# -- journal integration ------------------------------------------------------


def test_supervised_journals_leases_and_resumes_bit_identically(tmp_path):
    path = str(tmp_path / "sup.jsonl")
    fingerprint = campaign_fingerprint(kind="backend-test", n=6)
    journal = open_journal(path, fingerprint, resume=False)
    try:
        first = TrialRunner(
            max_workers=2,
            backend="local-supervised",
            lease_ttl_s=30.0,
            chaos=ChaosMonkey(kill_on={1}),
        ).run(_specs(), journal=journal)
    finally:
        journal.close()
    assert _values(first) == TRUTH
    with open(path, encoding="utf-8") as handle:
        leases = [line for line in handle if '"kind":"lease"' in line]
    assert len(leases) >= 7  # one per claim, plus the reclaim of trial 1
    assert read_lease_state(path, fingerprint) == {}  # all settled

    journal = open_journal(path, fingerprint, resume=True)
    telemetry = CampaignTelemetry()
    try:
        second = TrialRunner(
            max_workers=2, backend="local-supervised", telemetry=telemetry
        ).run(_specs(), journal=journal)
    finally:
        journal.close()
    assert _values(second) == TRUTH
    assert telemetry.trials_resumed == 6  # nothing re-ran


def test_expired_foreign_lease_is_reclaimed_not_double_run(tmp_path):
    """A lease left in the journal by a dead owner is a transcript, not
    a claim: the resume runs the trial exactly once, counted once."""
    path = str(tmp_path / "lease.jsonl")
    fingerprint = campaign_fingerprint(kind="backend-test", n=6)
    journal = open_journal(path, fingerprint, resume=False)
    journal.record_lease(2, "dead-owner", 1, ttl_s=0.2)
    journal.close()

    journal = open_journal(path, fingerprint, resume=True)
    telemetry = CampaignTelemetry()
    try:
        outcomes = TrialRunner(
            max_workers=2,
            backend="local-supervised",
            lease_ttl_s=5.0,
            telemetry=telemetry,
        ).run(_specs(), journal=journal)
    finally:
        journal.close()
    assert _values(outcomes) == TRUTH
    assert sum(1 for o in outcomes if o.key == 2) == 1
    assert sum(
        1 for e in telemetry.events if e.kind == "claim-won" and e.key == 2
    ) == 1
    assert read_lease_state(path, fingerprint) == {}  # superseded + settled
