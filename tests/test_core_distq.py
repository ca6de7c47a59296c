"""Shared-directory job queue: claims, fencing, quarantine, contention.

The protocol under test coordinates workers through nothing but a shared
directory, so the tests attack it the way reality does: concurrent
processes racing for claims, workers SIGKILLed between claim and
heartbeat, wall clocks skewed by ±30 s, filesystems whose fsync lies.
The invariants that must survive all of it: every trial commits exactly
once, a stale (fenced-out) worker can never overwrite a reclaimer's
result, and the dir-queue backend stays bit-identical to serial truth.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core import distq, registry
from repro.core.chaos import ChaosMonkey
from repro.core.distq import (
    CLAIM_IN_FLUX,
    DirQueue,
    DirQueueBackend,
    LeaseObserver,
    open_claims,
    run_worker_loop,
    worker_identity,
)
from repro.core.journal import (
    QUEUE_EVENT,
    campaign_fingerprint,
    inspect_journal,
    open_journal,
    read_quarantine,
    trial_key_id,
)
from repro.core.runner import TrialRunner, TrialSpec
from repro.metrics.collector import CampaignTelemetry
from repro.util.errors import ConfigError, StaleLeaseError

from helpers import make_queue, queue_task

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"trial {x} exploded")


def _slow_square(x, delay_s):
    time.sleep(delay_s)
    return x * x


def _specs(n=6):
    return [TrialSpec(key=i, fn=_square, args=(i,)) for i in range(n)]


def _values(outcomes):
    return [o.value for o in outcomes]


TRUTH = [i * i for i in range(6)]


# -- claim protocol -----------------------------------------------------------


def test_task_id_is_stable_and_filesystem_safe():
    tid = DirQueue.task_id(("rho", 3))
    assert tid == DirQueue.task_id(("rho", 3))
    assert tid != DirQueue.task_id(("rho", 4))
    assert len(tid) == 20 and tid.isalnum()


def test_fresh_claim_has_exactly_one_winner(tmp_path):
    queue = make_queue(tmp_path / "q")
    tid = queue.enqueue(queue_task(1))
    first = queue.try_claim_fresh(tid, "host-a:1:1")
    second = queue.try_claim_fresh(tid, "host-b:2:1")
    assert first is not None and first.token == 1
    assert first.owner == "host-a:1:1"
    assert second is None  # O_EXCL: the loser gets nothing


def test_claim_roundtrip_carries_host_pid_token(tmp_path):
    queue = make_queue(tmp_path / "q")
    tid = queue.enqueue(queue_task(1))
    queue.try_claim_fresh(tid, "nfs-host:4242:7")
    claim = queue.read_claim(tid)
    assert claim.host == "nfs-host"
    assert claim.pid == 4242
    assert claim.token == 1
    assert claim.attempt == 1
    assert not claim.released


def test_takeover_token_is_monotonic_and_exclusive(tmp_path):
    queue = make_queue(tmp_path / "q")
    tid = queue.enqueue(queue_task(1))
    queue.try_claim_fresh(tid, "a:1:1")
    current = queue.read_claim(tid)
    won = queue.try_takeover(tid, "b:2:1", current)
    lost = queue.try_takeover(tid, "c:3:1", current)
    assert won is not None and won.token == 2 and won.owner == "b:2:1"
    assert lost is None  # same generation marker: exactly one winner


def test_orphaned_takeover_marker_does_not_wedge_the_trial(tmp_path):
    """A reclaimer that dies between winning the generation marker and
    rewriting the claim used to wedge the trial forever: every later
    takeover computed ``claim.token + 1``, collided with the orphan
    marker, and returned None.  The worker loop must skip past the
    orphaned generation (after a full TTL of frozen signature) and
    finish the trial."""
    root = str(tmp_path / "q")
    queue = make_queue(root, ttl_s=0.2)
    tid = queue.enqueue(queue_task(4))
    queue.try_claim_fresh(tid, "corpse:1:1")
    # The half-finished takeover: marker g2 allocated, claim never rewritten.
    with open(os.path.join(root, "gen", f"{tid}.g2"), "wb") as handle:
        handle.write(b"half-dead:2:2")
    committed = run_worker_loop(root, poll_interval_s=0.02)
    assert committed == 1
    assert queue.read_result(tid)["value"] == 16
    assert queue.read_claim(tid).token == 3  # arbitrated past the orphan


def test_orphaned_takeover_of_released_claim_recovers(tmp_path):
    """The same mid-takeover death on the *released* path (clean failure,
    winner died before rewriting the claim) must also converge."""
    root = str(tmp_path / "q")
    queue = make_queue(root, ttl_s=0.2, max_attempts=3)
    tid = queue.enqueue(queue_task(5))
    claim = queue.try_claim_fresh(tid, "a:1:1")
    queue.release(tid, claim, "ValueError: transient")
    with open(os.path.join(root, "gen", f"{tid}.g2"), "wb") as handle:
        handle.write(b"half-dead:2:2")
    committed = run_worker_loop(root, poll_interval_s=0.02)
    assert committed == 1
    assert queue.read_result(tid)["value"] == 25
    assert queue.read_claim(tid).token == 3


def test_fresh_marker_restarts_the_orphan_skip_window(tmp_path):
    """A marker's appearance is part of the claim signature: an in-flight
    takeover (marker won, claim about to be rewritten) must restart the
    observer's TTL instead of being raced for the generation after."""
    queue = make_queue(tmp_path / "q", ttl_s=10.0)
    tid = queue.enqueue(queue_task(1))
    claim = queue.try_claim_fresh(tid, "a:1:1")
    before = queue.claim_signature(tid, claim)
    with open(os.path.join(str(tmp_path / "q"), "gen",
                           f"{tid}.g2"), "wb") as handle:
        handle.write(b"b:2:2")
    assert queue.claim_signature(tid, claim) != before


def test_release_bumps_attempt_and_keeps_token(tmp_path):
    queue = make_queue(tmp_path / "q")
    tid = queue.enqueue(queue_task(1))
    claim = queue.try_claim_fresh(tid, "a:1:1")
    queue.release(tid, claim, "ValueError: nope")
    after = queue.read_claim(tid)
    assert after.released
    assert after.attempt == 2
    assert after.token == claim.token
    assert "ValueError" in queue.last_traceback(tid)


def test_unparseable_claim_reads_as_in_flux(tmp_path):
    queue = make_queue(tmp_path / "q")
    tid = queue.enqueue(queue_task(1))
    with open(os.path.join(str(tmp_path / "q"), "claims",
                           f"{tid}.claim"), "wb") as handle:
        handle.write(b"{half a jso")
    assert queue.read_claim(tid) is CLAIM_IN_FLUX
    # In-flux means "present": a fresh claim must not steal it.
    assert queue.try_claim_fresh(tid, "b:2:1") is None


# -- fencing: the stale worker can never win ----------------------------------


def test_stale_commit_is_rejected_with_evidence(tmp_path):
    """The acceptance scenario: a resumed worker holding token 1 tries to
    commit after a reclaimer took token 2 — the fence must reject it."""
    queue = make_queue(tmp_path / "q")
    tid = queue.enqueue(queue_task(3))
    stale = queue.try_claim_fresh(tid, "paused:1:1")
    queue.try_takeover(tid, "reclaimer:2:1", stale)  # token 2 issued

    with pytest.raises(StaleLeaseError) as info:
        queue.commit_result(
            tid, "paused:1:1", stale.token,
            {"status": "ok", "value": 9, "attempts": 1, "wall_clock_s": 0.1},
        )
    assert info.value.token == 1
    assert info.value.current == 2
    assert not queue.has_result(tid)  # the late value was dropped

    # The rightful holder commits through the same fence unhindered.
    queue.commit_result(
        tid, "reclaimer:2:1", 2,
        {"status": "ok", "value": 9, "attempts": 1, "wall_clock_s": 0.1},
    )
    record = queue.read_result(tid)
    assert record["value"] == 9
    assert record["owner"] == "reclaimer:2:1"
    assert record["token"] == 2


def test_commit_requires_matching_owner_not_just_token(tmp_path):
    queue = make_queue(tmp_path / "q")
    tid = queue.enqueue(queue_task(1))
    queue.try_claim_fresh(tid, "a:1:1")
    with pytest.raises(StaleLeaseError):
        queue.commit_result(
            tid, "imposter:9:9", 1,
            {"status": "ok", "value": 1, "attempts": 1, "wall_clock_s": 0.0},
        )


def test_manifest_fingerprint_mismatch_refuses_to_mix(tmp_path):
    root = tmp_path / "q"
    make_queue(root)
    other = DirQueue(str(root))
    with pytest.raises(ConfigError, match="different campaign"):
        other.setup({"fingerprint": "other-fp"})


# -- lease expiry: local monotonic, immune to clock skew ----------------------


def test_observer_expires_only_frozen_signatures(tmp_path):
    observer = LeaseObserver(ttl_s=0.15)
    assert not observer.expired("t", ("a", 1, None))  # first sighting
    time.sleep(0.08)
    assert not observer.expired("t", ("a", 1, None))  # not frozen long enough
    time.sleep(0.1)
    assert observer.expired("t", ("a", 1, None))  # frozen a full TTL


def test_observer_restarts_on_any_signature_change(tmp_path):
    observer = LeaseObserver(ttl_s=0.1)
    observer.expired("t", ("a", 1, 1))
    time.sleep(0.12)
    # A new heartbeat seq arrives just in time: the window restarts.
    assert not observer.expired("t", ("a", 1, 2))
    time.sleep(0.06)
    assert not observer.expired("t", ("a", 1, 2))
    time.sleep(0.06)
    assert observer.expired("t", ("a", 1, 2))


@pytest.mark.parametrize("skew_s", [-30.0, 30.0])
def test_lease_expiry_unaffected_by_30s_clock_skew(tmp_path, monkeypatch,
                                                   skew_s):
    """A claimant whose wall clock is 30 s fast or slow writes a wildly
    wrong ``claimed_unix`` — and it must not matter: expiry watches the
    claim *signature* under the observer's own monotonic clock."""
    queue = make_queue(tmp_path / "q", ttl_s=0.2)
    tid = queue.enqueue(queue_task(1))
    real_time = time.time
    monkeypatch.setattr(
        distq.time, "time", lambda: real_time() + skew_s
    )
    claim = queue.try_claim_fresh(tid, "skewed:1:1")
    monkeypatch.undo()
    # The advisory wall-clock field really is skewed...
    assert abs(claim.claimed_unix - (real_time() + skew_s)) < 5.0

    observer = LeaseObserver(ttl_s=0.2)
    signature = queue.claim_signature(tid, claim)
    # ...yet expiry takes one full *local* TTL: not sooner (a fast
    # remote clock must not cause premature reclaim of a live lease)...
    assert not observer.expired(tid, signature)
    time.sleep(0.08)
    assert not observer.expired(tid, queue.claim_signature(tid, claim))
    # ...and not later (a slow remote clock must not pin a dead lease).
    time.sleep(0.18)
    assert observer.expired(tid, queue.claim_signature(tid, claim))


# -- quarantine: the poison trial is parked, not retried forever --------------


def test_quarantine_after_distinct_worker_deaths(tmp_path):
    queue = make_queue(tmp_path / "q", quarantine_after=3)
    tid = queue.enqueue(queue_task(5))
    claim = queue.try_claim_fresh(tid, "w:1:1")
    claim = queue.try_takeover(tid, "w:2:2", claim, dead_owner="w:1:1")
    assert claim is not None  # 1 death: keep going
    claim = queue.try_takeover(tid, "w:3:3", claim, dead_owner="w:2:2")
    assert claim is not None  # 2 deaths: keep going
    parked = queue.try_takeover(tid, "w:4:4", claim, dead_owner="w:3:3")
    assert parked is None  # 3 distinct deaths: parked, nothing to run
    record = queue.read_quarantine(tid)
    assert record["key_id"] == trial_key_id(5)
    assert sorted(record["owners"]) == ["w:1:1", "w:2:2", "w:3:3"]
    assert "traceback" in record


def test_same_owner_dying_twice_counts_once(tmp_path):
    queue = make_queue(tmp_path / "q", quarantine_after=2)
    tid = queue.enqueue(queue_task(1))
    queue.record_death(tid, "w:1:1")
    queue.record_death(tid, "w:1:1")
    assert queue.distinct_deaths(tid) == ["w:1:1"]


def test_worker_identity_is_unique_per_incarnation():
    a, b = worker_identity(1), worker_identity(2)
    assert a != b
    host, pid, epoch = a.rsplit(":", 2)
    assert int(pid) == os.getpid()
    assert int(epoch) == 1


# -- worker loop: claims SIGKILLed mid-flight are reclaimed exactly once ------


def _claim_and_hang(root, key):
    """Child-process helper: win a claim, then die without a heartbeat."""
    queue = DirQueue(root, ttl_s=0.4)
    tid = queue.task_id(key)
    queue.try_claim_fresh(tid, worker_identity())
    time.sleep(3600)


def test_worker_killed_between_claim_and_heartbeat_is_reclaimed(tmp_path):
    root = str(tmp_path / "q")
    queue = make_queue(root, ttl_s=0.4)
    for i in range(3):
        queue.enqueue(queue_task(i))
    context = multiprocessing.get_context("fork")
    victim = context.Process(target=_claim_and_hang, args=(root, 1))
    victim.start()
    tid = queue.task_id(1)
    deadline = time.monotonic() + 10.0
    claim = queue.read_claim(tid)
    while claim is None or claim is CLAIM_IN_FLUX or claim.pid != victim.pid:
        assert time.monotonic() < deadline, "victim never claimed"
        time.sleep(0.01)
        claim = queue.read_claim(tid)
    dead_owner = claim.owner
    os.kill(victim.pid, signal.SIGKILL)
    victim.join()

    committed = run_worker_loop(root, poll_interval_s=0.02)
    assert committed == 3
    assert queue.drained()
    for i in range(3):
        record = queue.read_result(queue.task_id(i))
        assert record["value"] == i * i
    reclaimed = queue.read_claim(tid)
    assert reclaimed.token == 2  # fenced past the corpse's generation
    assert queue.distinct_deaths(tid) == [dead_owner]


def _die_inside_claim(root, key, step):
    """Child-process helper: SIGKILL ourselves inside ``try_claim_fresh``.

    ``write``: before the claim's content is written; ``link``: with the
    content written, before it is published; ``unlink``: published, but
    before the temporary file is removed.
    """
    def die(*args):
        os.kill(os.getpid(), signal.SIGKILL)

    if step == "write":
        os.write = die
    elif step == "link":
        os.link = die
    else:
        real_link = os.link

        def link_then_die(src, dst):
            real_link(src, dst)
            die()

        os.link = link_then_die
    queue = DirQueue(root, ttl_s=0.4)
    queue.try_claim_fresh(queue.task_id(key), worker_identity())


@pytest.mark.parametrize("step", ["write", "link", "unlink"])
def test_worker_killed_inside_fresh_claim_does_not_wedge_the_queue(
    tmp_path, step
):
    """Wherever the claim step dies, the claim is absent or complete:
    the queue drains, within a bounded time."""
    root = str(tmp_path / "q")
    queue = make_queue(root, ttl_s=0.4)
    for i in range(3):
        queue.enqueue(queue_task(i))
    context = multiprocessing.get_context("fork")
    victim = context.Process(target=_die_inside_claim, args=(root, 1, step))
    victim.start()
    victim.join(10.0)
    assert victim.exitcode == -signal.SIGKILL
    tid = queue.task_id(1)
    claim = queue.read_claim(tid)
    assert claim is not CLAIM_IN_FLUX
    assert (claim is None) == (step != "unlink")

    drainer = context.Process(target=_drain, args=(root,))
    drainer.start()
    drainer.join(20.0)
    if drainer.is_alive():
        drainer.kill()
        drainer.join()
        pytest.fail(f"queue did not drain after a kill at {step!r}")
    assert drainer.exitcode == 0
    assert queue.drained()
    for i in range(3):
        assert queue.read_result(queue.task_id(i))["value"] == i * i


def _drain(root):
    run_worker_loop(root, poll_interval_s=0.01)


@pytest.fixture(params=["plain", "tmpfs", "fsync-lies"])
def contention_root(request, tmp_path, monkeypatch):
    """Queue roots across filesystems: the regular tmp dir, a tmpfs mount
    (RAM-backed, like the fastest shared scratch), and a filesystem whose
    fsync is a lie (acknowledges durability it never provides — the
    protocol's correctness must come from O_EXCL and rename alone)."""
    if request.param == "tmpfs":
        if not os.path.isdir("/dev/shm") or not os.access("/dev/shm", os.W_OK):
            pytest.skip("no writable tmpfs at /dev/shm")
        import tempfile

        root = tempfile.mkdtemp(prefix="repro-distq-", dir="/dev/shm")
        yield root
        import shutil

        shutil.rmtree(root, ignore_errors=True)
        return
    if request.param == "fsync-lies":
        # Forked workers inherit the monkeypatched module state, so the
        # lie reaches every process that touches the queue.
        monkeypatch.setattr(distq, "_fsync_file", lambda fd: None)
        monkeypatch.setattr(distq, "_fsync_dir", lambda path: None)
    yield str(tmp_path / "queue")


def test_contending_workers_commit_every_trial_exactly_once(contention_root):
    """N processes race one queue; every trial lands exactly one result,
    and the sum of per-worker commits equals the trial count (no trial is
    double-committed even when claims contend)."""
    queue = make_queue(contention_root, ttl_s=5.0)
    n = 10
    for i in range(n):
        queue.enqueue(queue_task(i))
    context = multiprocessing.get_context("fork")
    workers = [
        context.Process(target=_drain, args=(contention_root,))
        for _ in range(4)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0
    assert queue.drained()
    for i in range(n):
        record = queue.read_result(queue.task_id(i))
        assert record["status"] == "ok"
        assert record["value"] == i * i
    # One fencing generation per trial: nothing was ever reclaimed, so
    # nothing can have run twice.
    gens = os.listdir(os.path.join(contention_root, "gen"))
    assert gens == []


# -- the dir-queue execution backend ------------------------------------------


def test_dir_queue_backend_registered():
    assert "dir-queue" in registry.known("backend")
    backend = registry.resolve("backend", "dir-queue")(TrialRunner())
    assert isinstance(backend, DirQueueBackend)
    assert backend.name == "dir-queue"


def test_dir_queue_matches_serial_truth(tmp_path):
    outcomes = TrialRunner(
        max_workers=2,
        backend="dir-queue",
        queue_dir=str(tmp_path / "q"),
        lease_ttl_s=5.0,
    ).run(_specs())
    assert _values(outcomes) == TRUTH


def test_dir_queue_bit_identical_under_chaos(tmp_path):
    """SIGKILL one trial's worker, mute another's heartbeats, contend a
    third's lease — the values must still equal the serial truth."""
    telemetry = CampaignTelemetry()
    chaos = ChaosMonkey(kill_on={1}, mute_on={2}, contend_on={3})
    outcomes = TrialRunner(
        max_workers=2,
        backend="dir-queue",
        queue_dir=str(tmp_path / "q"),
        lease_ttl_s=0.6,
        max_attempts=3,
        telemetry=telemetry,
        chaos=chaos,
    ).run(_specs())
    assert _values(outcomes) == TRUTH
    kinds = {e.kind for e in telemetry.events}
    assert "claim-won" in kinds
    assert "lease-reclaimed" in kinds
    assert "lease-contended" in kinds
    assert telemetry.claims_won >= 6


def test_duplicate_trial_keys_complete_and_match_serial(tmp_path):
    """Duplicate keys hash to one task id; the single execution must fan
    out to every spec index instead of stranding the earlier slots as
    None and spinning the scheduling loop forever."""
    specs = [
        TrialSpec(key=i % 2, fn=_square, args=(i % 2,)) for i in range(4)
    ]
    serial = TrialRunner().run(specs)
    outcomes = TrialRunner(
        max_workers=2,
        backend="dir-queue",
        queue_dir=str(tmp_path / "q"),
        lease_ttl_s=5.0,
    ).run(specs)
    assert _values(outcomes) == _values(serial) == [0, 1, 0, 1]
    assert [o.key for o in outcomes] == [0, 1, 0, 1]


def test_corrupt_result_drop_releases_claim_without_charging_deaths(tmp_path):
    """Dropping a corrupt result must not leave the committer's claim
    live-but-heartbeatless: peers would reclaim it through the dead-owner
    path and charge a healthy worker to the death ledger — a few corrupt
    cycles could spuriously quarantine the trial.  The released claim
    routes the reclaim down the no-death path instead; the corrupt
    result counts as one failed attempt, like a raise."""
    root = str(tmp_path / "q")
    queue = make_queue(root)
    tid = queue.enqueue(queue_task(2))
    claim = queue.try_claim_fresh(tid, "w:1:1")
    queue.commit_result(
        tid, "w:1:1", 1,
        {"status": "ok", "value": 4, "attempts": 1, "wall_clock_s": 0.1},
    )
    with open(os.path.join(root, "results", f"{tid}.result"), "wb") as handle:
        handle.write(b"\x80torn page")  # corrupt it on disk
    with pytest.raises(Exception):
        queue.read_result(tid)
    queue.drop_result(tid, claim, "result could not be unpickled: torn")
    after = queue.read_claim(tid)
    assert after.released
    assert after.token == claim.token
    assert after.attempt == claim.attempt + 1
    assert [(f["attempt"], f["status"]) for f in queue.failures(tid)] == [
        (1, "error"),
    ]
    # The re-run takes the released path: no TTL wait, no death recorded.
    committed = run_worker_loop(root, poll_interval_s=0.02)
    assert committed == 1
    assert queue.read_result(tid)["value"] == 4
    assert queue.read_result(tid)["attempts"] == 2
    assert queue.distinct_deaths(tid) == []


def test_fenced_out_release_leaves_the_reclaimers_claim_alone(tmp_path):
    queue = make_queue(str(tmp_path / "q"))
    tid = queue.enqueue(queue_task(2))
    paused = queue.try_claim_fresh(tid, "paused:1:1")
    reclaim = queue.try_takeover(tid, "reclaimer:2:1", paused)
    queue.release(tid, paused, "ValueError: raised after the takeover")
    assert queue.read_claim(tid) == reclaim
    assert queue.failures(tid) == []
    queue.commit_result(
        tid, reclaim.owner, reclaim.token,
        {"status": "ok", "value": 4, "attempts": 1, "wall_clock_s": 0.1},
    )
    assert queue.read_result(tid)["value"] == 4


def test_clean_trial_errors_bounded_by_max_attempts(tmp_path):
    outcomes = TrialRunner(
        max_workers=2,
        backend="dir-queue",
        queue_dir=str(tmp_path / "q"),
        lease_ttl_s=5.0,
        max_attempts=2,
    ).run([TrialSpec(key=0, fn=_boom, args=(0,))])
    assert not outcomes[0].ok
    assert outcomes[0].attempts == 2
    assert "trial 0 exploded" in outcomes[0].error


def test_poison_trial_quarantined_and_skipped_on_resume(tmp_path):
    path = str(tmp_path / "campaign.jsonl")
    fingerprint = campaign_fingerprint(kind="distq-test", n=4)
    telemetry = CampaignTelemetry()
    chaos = ChaosMonkey(kill_all_attempts_on={1})
    journal = open_journal(path, fingerprint, resume=False)
    try:
        outcomes = TrialRunner(
            max_workers=2,
            backend="dir-queue",
            queue_dir=str(tmp_path / "q"),
            lease_ttl_s=0.5,
            quarantine_after=2,
            telemetry=telemetry,
            chaos=chaos,
        ).run(_specs(4), journal=journal)
    finally:
        journal.close()
    healthy = [o for o in outcomes if o.key != 1]
    assert _values(healthy) == [0, 4, 9]
    parked = next(o for o in outcomes if o.key == 1)
    assert not parked.ok
    assert parked.infrastructure
    assert parked.error.startswith("quarantined: killed 2 distinct")
    assert telemetry.quarantined == 1
    assert "quarantined" in telemetry.format_summary()

    # The journal carries the quarantine durably...
    parked_records = read_quarantine(path)
    assert trial_key_id(1) in parked_records
    assert len(parked_records[trial_key_id(1)].owners) == 2

    # ...and a resume does NOT re-run the poison trial (it would just
    # kill more workers): it surfaces as a terminal infra failure.
    journal = open_journal(path, fingerprint, resume=True)
    resumed_telemetry = CampaignTelemetry()
    try:
        second = TrialRunner(
            max_workers=2,
            backend="dir-queue",
            queue_dir=str(tmp_path / "q2"),
            lease_ttl_s=5.0,
            telemetry=resumed_telemetry,
        ).run(_specs(4), journal=journal)
    finally:
        journal.close()
    assert _values([o for o in second if o.key != 1]) == [0, 4, 9]
    assert not next(o for o in second if o.key == 1).ok
    assert resumed_telemetry.trials_resumed == 3
    assert not os.path.exists(
        os.path.join(str(tmp_path / "q2"), "tasks")
    ) or not any(
        name
        for name in os.listdir(os.path.join(str(tmp_path / "q2"), "tasks"))
    )  # nothing was enqueued for the second run at all


def test_journal_names_the_queue_dir_and_keeps_no_claims(tmp_path):
    """Claims live only in the queue directory: the journal holds one
    ``queue`` event naming it, then the trial records."""
    path = str(tmp_path / "campaign.jsonl")
    fingerprint = campaign_fingerprint(kind="distq-test", n=3)
    journal = open_journal(path, fingerprint, resume=False)
    try:
        TrialRunner(
            max_workers=2,
            backend="dir-queue",
            queue_dir=str(tmp_path / "q"),
            lease_ttl_s=5.0,
        ).run(_specs(3), journal=journal)
    finally:
        journal.close()
    with open(path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle][1:]
    assert [r["kind"] for r in records] == ["event"] + ["trial"] * 3
    assert records[0]["event"] == QUEUE_EVENT
    assert records[0]["detail"] == str(tmp_path / "q")
    assert inspect_journal(path).queue_dir == str(tmp_path / "q")
    # Every trial committed, so no claim is open; each one kept the
    # host, pid and fencing token of the worker that held it.
    assert open_claims(str(tmp_path / "q")) == {}
    queue = DirQueue(str(tmp_path / "q"))
    for tid in queue.task_ids():
        claim = queue.read_claim(tid)
        assert claim.token >= 1 and claim.pid > 0 and claim.host


# -- degradation: the shared directory stops cooperating ----------------------


def test_unwritable_queue_dir_degrades_to_supervised(tmp_path, monkeypatch):
    telemetry = CampaignTelemetry()
    monkeypatch.setattr(
        DirQueueBackend, "_probe_writable", staticmethod(lambda root: False)
    )
    outcomes = TrialRunner(
        max_workers=2,
        backend="dir-queue",
        queue_dir=str(tmp_path / "q"),
        lease_ttl_s=5.0,
        telemetry=telemetry,
    ).run(_specs())
    assert _values(outcomes) == TRUTH  # the campaign still completes
    degraded = [e for e in telemetry.events if e.kind == "degraded"]
    assert degraded and "no longer writable" in degraded[0].detail


def test_unpicklable_specs_degrade_instead_of_dying(tmp_path):
    telemetry = CampaignTelemetry()
    captured = 3
    specs = [TrialSpec(key=0, fn=lambda: captured * captured)]
    outcomes = TrialRunner(
        max_workers=2,
        backend="dir-queue",
        queue_dir=str(tmp_path / "q"),
        telemetry=telemetry,
    ).run(specs)
    assert _values(outcomes) == [9]  # the fork-based ladder handles it
    assert any(e.kind == "degraded" for e in telemetry.events)


def test_worker_loop_returns_when_nothing_to_serve(tmp_path):
    assert run_worker_loop(str(tmp_path), follow=False) == 0


def test_worker_loop_drains_the_queue_at_root(tmp_path):
    queue = make_queue(tmp_path / "direct")
    tid = queue.enqueue(queue_task(3))
    assert run_worker_loop(str(tmp_path)) == 0  # a queue below root is not
    assert run_worker_loop(str(tmp_path / "direct")) == 1
    assert queue.read_result(tid)["value"] == 9


def test_resume_reuses_the_same_queue_dir(tmp_path):
    """A crashed scheduler resumes over the *same* queue directory: the
    dense spec list is shorter the second time, so the manifest must be
    named by the campaign fingerprint, not the spec-set hash."""
    path = str(tmp_path / "campaign.jsonl")
    fingerprint = campaign_fingerprint(kind="distq-resume", n=6)
    queue_dir = str(tmp_path / "q")
    journal = open_journal(path, fingerprint, resume=False)
    try:
        TrialRunner(
            max_workers=2, backend="dir-queue", queue_dir=queue_dir,
            lease_ttl_s=5.0,
        ).run(_specs()[:3], journal=journal)
    finally:
        journal.close()

    telemetry = CampaignTelemetry()
    journal = open_journal(path, fingerprint, resume=True)
    try:
        outcomes = TrialRunner(
            max_workers=2, backend="dir-queue", queue_dir=queue_dir,
            lease_ttl_s=5.0, telemetry=telemetry,
        ).run(_specs(), journal=journal)
    finally:
        journal.close()
    assert _values(outcomes) == TRUTH
    assert telemetry.trials_resumed == 3
    # Crucially, the shrunken grid did NOT degrade off the queue.
    assert not any(e.kind == "degraded" for e in telemetry.events)
