#!/usr/bin/env python
"""Chaos harness: real failures must never change campaign results.

One parametrized end-to-end check of the campaign layer's crash-safety
guarantees.  Every leg runs a small fault-injected campaign through real
failures and requires the outcome to be *bit-identical* to the same
campaign run serially and undisturbed:

* on both queue backends (``local-supervised``, ``dir-queue``):
  ``sigkill`` — a worker SIGKILLed after computing; ``hang`` — a worker
  hanging past ``trial_timeout_s`` is timed out and retried;
  ``corrupt`` — a result payload that explodes while unpickling is
  retried; ``mute`` — a worker alive but silent (no heartbeats) is
  caught after one lease TTL; ``contention`` — a foreign claim is
  waited out and taken over, the trial runs exactly once;
* ``stale-fence`` — a fenced-out worker's late commit is rejected with
  evidence, the rightful holder's commit lands;
* ``campaign-kill`` — the scheduler process of a journalled
  ``dir-queue`` sweep SIGKILLed mid-campaign is rerun with ``resume`` and
  finishes from the queue and journal alone;
* ``read-only`` — a queue dir that stops being writable degrades the
  campaign down the ladder (a shared ``dir-queue`` to a private queue,
  a private queue to ``local-serial``);
* ``unwritable-dir`` — a shared queue dir that really starts refusing
  writes after the trials are enqueued (``EROFS``, as a read-only
  remount gives) degrades the campaign to a private queue instead of
  leaving every worker unable to claim;
* ``dead-on-start`` — workers that die before they claim anything are
  charged to no trial; the respawn budget degrades the campaign to
  ``local-serial`` instead of respawning them forever;
* ``torn-journal`` — a journalled sweep killed mid-flight, its last line
  torn, resumes; ``journalled-failure`` — a trial raising on every
  attempt is journalled as failed and re-run on resume;
* ``compaction`` — a journal with a reclaimed trial and a ``lease``
  line as older journals carry them is compacted (the lease line is
  dropped) and still resumes every trial;
* ``poison`` — a trial that SIGKILLs every worker that runs it is
  quarantined after ``quarantine_after`` distinct deaths; the campaign
  finishes the other trials, ``repro journal inspect`` exits 3, and a
  resume skips the poison trial.

Usage::

    PYTHONPATH=src python scripts/chaos_harness.py            # every leg
    PYTHONPATH=src python scripts/chaos_harness.py --leg mute --leg hang
    PYTHONPATH=src python scripts/chaos_harness.py --list

Exits 0 when every selected leg passes, 1 with a diagnostic otherwise.
"""

import argparse
import builtins
import contextlib
import dataclasses
import errno
import io
import json
import multiprocessing
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

import repro.core.sweep as sweep_mod
from repro.core.chaos import ChaosMonkey
from repro.cli import EXIT_QUARANTINED
from repro.cli import main as repro_main
from repro.core.config import Scenario
from repro.core import distq
from repro.core.distq import DirQueue, DirQueueBackend
from repro.core.journal import (
    campaign_fingerprint,
    compact_journal,
    inspect_journal,
    open_journal,
    read_completed,
    read_quarantine,
)
from repro.core.runner import TrialRunner, TrialSpec
from repro.core.sweep import sweep_scenario
from repro.metrics.collector import CampaignTelemetry
from repro.util.errors import StaleLeaseError

BASE = Scenario(
    num_nodes=10,
    road_length_m=900.0,
    sim_time_s=15.0,
    senders=(1, 2),
    traffic_start_s=2.0,
    traffic_stop_s=12.0,
    dawdle_p=0.0,
    seed=3,
    # Fault injection rides along so chaos also exercises the
    # fault-model code path through worker processes.
    faults=[{"kind": "node-crash", "nodes": [3], "at_s": 5.0, "down_s": 4.0}],
)
TRIALS = 5
SWEEP = dict(base=BASE, field="num_nodes", values=[10, 12], trials=2)
QUEUES = ("local-supervised", "dir-queue")
#: A leg still running after this long is wedged, not slow.
LEG_TIMEOUT_S = 120


class LegFailed(Exception):
    """A leg's guarantee did not hold; the message says which."""


def check(condition, message):
    if not condition:
        raise LegFailed(message)


def make_specs():
    return [
        TrialSpec(
            key=("chaos", trial),
            fn=sweep_mod._run_scenario_trial,
            args=(dataclasses.replace(BASE, seed=BASE.seed + 1000 * trial),),
        )
        for trial in range(TRIALS)
    ]


def fingerprint_of(results):
    return [
        (
            r.pdr(),
            r.collector.num_originated,
            r.collector.num_delivered,
            r.frames_on_air,
            r.delay_stats().mean_s,
            r.channel_telemetry.events_processed,
            len(r.fault_events),
        )
        for r in results
    ]


def sweep_fingerprint(result):
    return [
        (point.value, point.pdr_mean, point.pdr_std, point.delay_mean_s,
         point.control_packets_mean, [r.pdr() for r in point.results])
        for point in result.points
    ]


def matches_truth(ctx, outcomes, what):
    check(all(o.ok for o in outcomes), f"{what}: not every trial recovered")
    ordered = [o.value for o in sorted(outcomes, key=lambda o: o.index)]
    got = fingerprint_of(ordered)
    check(got == ctx["truth"],
          f"{what} differs from the serial truth\n"
          f"  truth: {ctx['truth']}\n  got:   {got}")


def run_chaos(ctx, backend, chaos, **options):
    """One campaign of ``make_specs()`` under ``chaos`` on ``backend``."""
    telemetry = CampaignTelemetry()
    if backend == "dir-queue":
        options["queue_dir"] = str(ctx["workdir"] / f"q{time.monotonic_ns()}")
    started = time.monotonic()
    outcomes = TrialRunner(
        max_workers=2, backend=backend, max_attempts=3,
        telemetry=telemetry, chaos=chaos, **options,
    ).run(make_specs())
    matches_truth(ctx, outcomes, f"{backend} campaign")
    return telemetry, time.monotonic() - started


def kinds(telemetry):
    return [e.kind for e in telemetry.events]


# -- sabotage legs --------------------------------------------------------------


def leg_sigkill(ctx, backend):
    telemetry, elapsed = run_chaos(
        ctx, backend, ChaosMonkey(kill_on={0}), lease_ttl_s=60.0
    )
    check("worker-dead" in kinds(telemetry), "no worker death observed")
    check(elapsed < 30.0, f"reclaim took {elapsed:.1f}s: the seen exit "
          "was waited out via the 60 s lease TTL")


def leg_hang(ctx, backend):
    telemetry, elapsed = run_chaos(
        ctx, backend, ChaosMonkey(hang_on={1}),
        trial_timeout_s=ctx["timeout"], lease_ttl_s=60.0,
    )
    check(telemetry.timeouts == 1 and telemetry.retries >= 1,
          "the hung attempt was not timed out and retried")
    check(elapsed < 30.0, f"the hang took {elapsed:.1f}s to clear")


def leg_corrupt(ctx, backend):
    telemetry, _ = run_chaos(
        ctx, backend, ChaosMonkey(corrupt_on={2}), lease_ttl_s=60.0
    )
    check("result-corrupt" in kinds(telemetry),
          "the corrupt payload never reached the result-corrupt path")
    check(telemetry.retries >= 1, "the corrupt result was never retried")


def leg_mute(ctx, backend):
    telemetry, elapsed = run_chaos(
        ctx, backend, ChaosMonkey(mute_on={1}),
        lease_ttl_s=1.5, heartbeat_interval_s=0.1,
    )
    check(telemetry.leases_reclaimed >= 1, "the muted worker's claim was "
          "never reclaimed")
    check(elapsed < 30.0, f"the mute took {elapsed:.1f}s to clear")


def leg_contention(ctx, backend):
    telemetry, _ = run_chaos(
        ctx, backend, ChaosMonkey(contend_on={3}), lease_ttl_s=1.0
    )
    check("lease-contended" in kinds(telemetry),
          "lease contention was never planted")
    check(telemetry.leases_reclaimed >= 1,
          "the foreign claim was never taken over")


# -- queue-protocol legs --------------------------------------------------------


def leg_stale_fence(ctx):
    queue = DirQueue(str(ctx["workdir"] / "fence-queue"), ttl_s=30.0)
    queue.setup({"fingerprint": "fence-smoke", "ttl_s": 30.0,
                 "quarantine_after": 3, "max_attempts": 2,
                 "heartbeat_s": 1.0, "trial_timeout_s": None})
    tid = queue.enqueue({"key": 0, "fn": None, "args": (), "kwargs": {},
                         "index": 0, "chaos_mode": None, "kill_all": False})
    stale = queue.try_claim_fresh(tid, "paused-host:111:1")
    reclaim = queue.try_takeover(tid, "reclaimer-host:222:1", stale)
    check(stale is not None and reclaim is not None
          and reclaim.token == stale.token + 1,
          "claim/takeover did not issue consecutive fencing tokens")
    record = {"status": "ok", "value": 41, "attempts": 1, "wall_clock_s": 0.1}
    try:
        queue.commit_result(tid, stale.owner, stale.token, record)
    except StaleLeaseError as error:
        check((error.token, error.current) == (stale.token, reclaim.token),
              f"stale rejection lacked evidence: {error}")
    else:
        raise LegFailed("the fenced-out commit was accepted")
    check(not queue.has_result(tid), "the rejected commit left a result")
    queue.commit_result(tid, reclaim.owner, reclaim.token,
                        dict(record, value=42, attempts=2))
    committed = queue.read_result(tid)
    check(committed["value"] == 42 and committed["token"] == reclaim.token,
          "the rightful holder's commit did not land")


def _is_trial_record(line):
    try:
        return json.loads(line).get("kind") == "trial"
    except ValueError:
        return False  # torn tail mid-poll


def leg_campaign_kill(ctx):
    journal = str(ctx["workdir"] / "campaign-kill.jsonl")
    base = dataclasses.replace(
        BASE, backend="dir-queue",
        queue_dir=str(ctx["workdir"] / "campaign-kill-queue"),
    )
    sweep = dict(SWEEP, base=base, max_workers=2, journal_path=journal)
    campaign = multiprocessing.get_context("fork").Process(
        target=sweep_scenario, kwargs=sweep
    )
    campaign.start()
    # SIGKILL the campaign's scheduler once one trial is journalled and
    # the sweep is still running — the exact crash window a resume must
    # cover.
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if not campaign.is_alive():
            break
        try:
            with open(journal, "r", encoding="utf-8") as handle:
                if any(_is_trial_record(line) for line in handle):
                    break
        except OSError:
            pass
        time.sleep(0.05)
    else:
        raise LegFailed("the campaign never journalled a trial")
    killed_midway = campaign.is_alive()
    os.kill(campaign.pid, signal.SIGKILL)
    campaign.join(timeout=30)
    # When the sweep outran the kill window the rerun still proves the
    # restart path: everything must come back from the journal.
    check(killed_midway or campaign.exitcode == 0,
          f"the campaign died on its own (exit {campaign.exitcode})")

    telemetry = CampaignTelemetry()
    resumed = sweep_scenario(**sweep, resume=True, telemetry=telemetry)
    check(not killed_midway or telemetry.trials_resumed >= 1,
          "the rerun resumed nothing from the journal")
    truth = sweep_fingerprint(sweep_scenario(**SWEEP))
    check(sweep_fingerprint(resumed) == truth,
          "the resumed campaign differs from a serial sweep")


def leg_read_only(ctx, backend):
    original = DirQueueBackend.__dict__["_probe_writable"]
    DirQueueBackend._probe_writable = staticmethod(lambda root: False)
    try:
        telemetry, _ = run_chaos(ctx, backend, None, lease_ttl_s=5.0)
    finally:
        DirQueueBackend._probe_writable = original
    # Every directory reads as unwritable here, so a shared queue's
    # private rung degrades in turn.
    ladder = {
        "dir-queue": ["dir-queue->local-supervised",
                      "local-supervised->local-serial"],
        "local-supervised": ["local-supervised->local-serial"],
    }[backend]
    degraded = [e.detail for e in telemetry.events if e.kind == "degraded"]
    check([d.split(" ", 1)[0] for d in degraded] == ladder
          and all("writable" in d for d in degraded),
          f"read-only did not degrade along {ladder} (got {degraded})")


@contextlib.contextmanager
def _refusing_writes(root):
    """Writes under ``root`` fail with ``EROFS`` in this process and in
    every worker forked from it: a read-only remount, as the queue sees
    it (its files are created through ``open``, ``os.open`` and
    ``os.link``, and renamed into place with ``os.replace``)."""
    prefix = os.path.join(root, "")
    writing = os.O_WRONLY | os.O_RDWR | os.O_CREAT

    def refuse(path):
        if os.fspath(path).startswith(prefix):
            raise OSError(errno.EROFS, "Read-only file system", path)

    def guarded_open(path, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            refuse(path)
        return builtins.open(path, mode, *args, **kwargs)

    def guarded(call, writes=lambda *args: True):
        def wrapper(path, *args, **kwargs):
            if writes(*args):
                refuse(path)
            return call(path, *args, **kwargs)
        return wrapper

    real = {name: getattr(os, name) for name in ("open", "link", "replace")}
    os.open = guarded(real["open"], lambda flags, *rest: flags & writing)
    os.link = guarded(real["link"])
    os.replace = guarded(real["replace"])
    distq.open = guarded_open  # shadows the builtin inside distq only
    try:
        yield
    finally:
        for name, call in real.items():
            setattr(os, name, call)
        del distq.open


def leg_unwritable_dir(ctx):
    real_schedule = DirQueueBackend._schedule

    def schedule_read_only(self, queue, *args):
        if self.private:  # the next rung's queue stays writable
            return real_schedule(self, queue, *args)
        with _refusing_writes(queue.root):
            return real_schedule(self, queue, *args)

    # The shared directory goes read-only once the trials are enqueued,
    # before any worker is spawned.
    DirQueueBackend._schedule = schedule_read_only
    try:
        telemetry, _ = run_chaos(ctx, "dir-queue", None, lease_ttl_s=5.0)
    finally:
        DirQueueBackend._schedule = real_schedule
    degraded = [e.detail for e in telemetry.events if e.kind == "degraded"]
    check(len(degraded) == 1
          and degraded[0].startswith("dir-queue->local-supervised")
          and "writable" in degraded[0],
          f"the read-only queue dir was not left for a private queue: "
          f"{degraded}")


def leg_dead_on_start(ctx):
    def die(*args, **kwargs):  # a worker process that cannot start
        os._exit(1)

    real_loop = distq.run_worker_loop
    distq.run_worker_loop = die  # forked workers inherit the patch
    try:
        telemetry, _ = run_chaos(ctx, "local-supervised", None)
    finally:
        distq.run_worker_loop = real_loop
    degraded = [e.detail for e in telemetry.events if e.kind == "degraded"]
    check(len(degraded) == 1
          and degraded[0].startswith("local-supervised->local-serial")
          and "respawn budget" in degraded[0],
          f"dead workers did not exhaust the respawn budget: {degraded}")


# -- journal legs -----------------------------------------------------------------


def leg_torn_journal(ctx):
    journal = str(ctx["workdir"] / "torn.jsonl")
    truth = sweep_fingerprint(sweep_scenario(**SWEEP))
    real_trial = sweep_mod._run_scenario_trial
    completed = {"n": 0}

    def dying_trial(scenario):  # a simulated kill -9 after two trials
        if completed["n"] >= 2:
            raise KeyboardInterrupt("simulated kill")
        completed["n"] += 1
        return real_trial(scenario)

    sweep_mod._run_scenario_trial = dying_trial
    try:
        sweep_scenario(**SWEEP, journal_path=journal)
    except KeyboardInterrupt:
        pass
    else:
        raise LegFailed("the poisoned sweep was expected to die")
    finally:
        sweep_mod._run_scenario_trial = real_trial
    data = Path(journal).read_bytes()
    Path(journal).write_bytes(data[:-20])  # torn mid-line, as a crash leaves

    telemetry = CampaignTelemetry()
    resumed = sweep_scenario(
        **SWEEP, journal_path=journal, resume=True, telemetry=telemetry
    )
    check(telemetry.trials_resumed > 0, "nothing was resumed")
    check(sweep_fingerprint(resumed) == truth,
          "the resumed sweep differs from the uninterrupted run")


def _journalled(ctx, name):
    path = str(ctx["workdir"] / f"{name}.jsonl")
    fingerprint = campaign_fingerprint(
        kind=name, scenario=BASE.to_dict(), trials=TRIALS
    )
    return path, fingerprint


def _resume(path, fingerprint, backend):
    telemetry = CampaignTelemetry()
    journal = open_journal(path, fingerprint, resume=True)
    try:
        outcomes = TrialRunner(
            max_workers=2, backend=backend, telemetry=telemetry
        ).run(make_specs(), journal=journal)
    finally:
        journal.close()
    return outcomes, telemetry


def failing_trial(scenario):
    """Stands in for a trial that raises on every attempt of one run."""
    raise RuntimeError(f"injected failure (seed {scenario.seed})")


def leg_journalled_failure(ctx):
    path, fingerprint = _journalled(ctx, "failure")
    specs = make_specs()
    specs[1] = dataclasses.replace(specs[1], fn=failing_trial)
    journal = open_journal(path, fingerprint, resume=False)
    try:
        outcomes = TrialRunner(
            max_workers=2, backend="local-supervised", max_attempts=2,
        ).run(specs, journal=journal)
    finally:
        journal.close()
    check([o.ok for o in outcomes] == [True, False, True, True, True]
          and outcomes[1].attempts == 2,
          "expected trial 1 journalled as failed after two attempts")
    outcomes, telemetry = _resume(path, fingerprint, "local-supervised")
    check(telemetry.trials_resumed == TRIALS - 1,
          f"resumed {telemetry.trials_resumed}, expected {TRIALS - 1}")
    matches_truth(ctx, outcomes, "resumed campaign")


def _kinds(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line)["kind"] for line in handle]


def leg_compaction(ctx):
    path, fingerprint = _journalled(ctx, "compaction")
    journal = open_journal(path, fingerprint, resume=False)
    try:
        TrialRunner(
            max_workers=2, backend="local-supervised", lease_ttl_s=30.0,
            chaos=ChaosMonkey(kill_on={1}),
        ).run(make_specs()[:4], journal=journal)
        # A lease line for trial 4, as older journals carry them (nothing
        # writes leases now): it must not hold the trial back.
        journal._write_line({"kind": "lease", "key": '["chaos",4]',
                             "owner": "dead-runner", "attempt": 1,
                             "deadline": 0.0})
    finally:
        journal.close()
    outcomes, telemetry = _resume(path, fingerprint, "local-supervised")
    check(telemetry.trials_resumed == 4, "the first four were not resumed")
    matches_truth(ctx, outcomes, "resumed campaign")

    completed = sorted(read_completed(path, fingerprint))
    check("lease" in _kinds(path), "the legacy lease line is missing")
    before, after = compact_journal(path)
    check(after < before, f"compaction did not shrink ({before} -> {after})")
    check(sorted(read_completed(path, fingerprint)) == completed,
          "compaction changed the completed trials")
    check("lease" not in _kinds(path),
          "compaction kept the legacy lease line")
    check(inspect_journal(path).superseded == 0,
          "compaction left superseded records behind")
    outcomes, telemetry = _resume(path, fingerprint, "local-supervised")
    check(telemetry.trials_resumed == TRIALS,
          f"compacted journal resumed {telemetry.trials_resumed}/{TRIALS}")
    matches_truth(ctx, outcomes, "compacted-journal resume")


def poison_trial(scenario):
    """A trial whose execution kills its process (a segfault, an OOM)."""
    os.kill(os.getpid(), signal.SIGKILL)


def _poison_campaign(path, fingerprint):
    specs = make_specs()
    specs[2] = dataclasses.replace(specs[2], fn=poison_trial)
    journal = open_journal(path, fingerprint, resume=False)
    try:
        TrialRunner(
            max_workers=2, backend="local-supervised", lease_ttl_s=30.0,
        ).run(specs, journal=journal)
    finally:
        journal.close()


def leg_poison(ctx):
    path, fingerprint = _journalled(ctx, "poison")
    # The campaign runs in its own process: were the poison trial ever
    # run by the scheduler itself, it would kill that process.
    campaign = multiprocessing.get_context("fork").Process(
        target=_poison_campaign, args=(path, fingerprint)
    )
    campaign.start()
    campaign.join(timeout=LEG_TIMEOUT_S)
    check(campaign.exitcode == 0,
          f"the poison trial killed the campaign (exit {campaign.exitcode})")
    parked = read_quarantine(path, fingerprint)
    check(list(parked) == ['["chaos",2]']
          and len(parked['["chaos",2]'].owners) == 3,
          f"the poison trial was not quarantined after 3 deaths: {parked}")
    with contextlib.redirect_stdout(io.StringIO()):
        status = repro_main(["journal", "inspect", path])
    check(status == EXIT_QUARANTINED,
          f"journal inspect exited {status}, not {EXIT_QUARANTINED}")
    specs = make_specs()
    specs[2] = dataclasses.replace(specs[2], fn=poison_trial)
    telemetry = CampaignTelemetry()
    journal = open_journal(path, fingerprint, resume=True)
    try:  # in this process: the poison trial must not run again
        outcomes = TrialRunner(
            max_workers=2, backend="local-supervised", telemetry=telemetry
        ).run(specs, journal=journal)
    finally:
        journal.close()
    check(telemetry.trials_resumed == TRIALS - 1
          and telemetry.quarantined == 1,
          "the resume did not skip the parked trial")
    check(not outcomes[2].ok and outcomes[2].infrastructure,
          "the parked trial did not come back as an infrastructure failure")
    healthy = [o.value for o in outcomes if o.index != 2]
    truth = [t for i, t in enumerate(ctx["truth"]) if i != 2]
    check(fingerprint_of(healthy) == truth,
          "the healthy trials differ from the serial truth")


LEGS = [
    *[(f"sigkill[{b}]", leg_sigkill, b) for b in QUEUES],
    *[(f"hang[{b}]", leg_hang, b) for b in QUEUES],
    *[(f"corrupt[{b}]", leg_corrupt, b) for b in QUEUES],
    *[(f"mute[{b}]", leg_mute, b) for b in QUEUES],
    *[(f"contention[{b}]", leg_contention, b) for b in QUEUES],
    ("stale-fence", leg_stale_fence, None),
    ("campaign-kill", leg_campaign_kill, None),
    *[(f"read-only[{b}]", leg_read_only, b) for b in QUEUES],
    ("unwritable-dir", leg_unwritable_dir, None),
    ("dead-on-start", leg_dead_on_start, None),
    ("torn-journal", leg_torn_journal, None),
    ("journalled-failure", leg_journalled_failure, None),
    ("compaction", leg_compaction, None),
    ("poison", leg_poison, None),
]


def _leg_overran(signum, frame):
    raise LegFailed(f"leg still running after {LEG_TIMEOUT_S}s (wedged)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--leg", action="append", default=[],
        help="run only legs whose name starts with this (repeatable)",
    )
    parser.add_argument("--list", action="store_true", help="list legs")
    args = parser.parse_args(argv)
    selected = [
        leg for leg in LEGS
        if not args.leg or any(leg[0].startswith(p) for p in args.leg)
    ]
    if args.list or not selected:
        print("\n".join(name for name, _, _ in LEGS))
        return 0 if args.list else 1

    print("ground truth: serial campaign", flush=True)
    telemetry = CampaignTelemetry()
    outcomes = TrialRunner(max_workers=1, telemetry=telemetry).run(make_specs())
    if not all(o.ok for o in outcomes):
        print("FAIL: ground-truth campaign had failures")
        return 1
    ctx = {
        "truth": fingerprint_of([o.value for o in outcomes]),
        "timeout": max(3.0, 20.0 * max(telemetry.wall_clock_per_trial())),
    }
    failed = []
    signal.signal(signal.SIGALRM, _leg_overran)
    with tempfile.TemporaryDirectory(prefix="chaos-harness-") as workdir:
        ctx["workdir"] = Path(workdir)
        for name, leg, backend in selected:
            started = time.monotonic()
            signal.alarm(LEG_TIMEOUT_S)
            try:
                leg(ctx) if backend is None else leg(ctx, backend)
            except LegFailed as exc:
                failed.append(name)
                print(f"FAIL {name}: {exc}", flush=True)
                continue
            finally:
                signal.alarm(0)
            elapsed = time.monotonic() - started
            print(f"ok   {name} ({elapsed:.1f}s)", flush=True)
    if failed:
        print(f"FAIL: {len(failed)}/{len(selected)} legs: {', '.join(failed)}")
        return 1
    print(f"OK: {len(selected)} legs bit-identical to the serial truth")
    return 0


if __name__ == "__main__":
    sys.exit(main())
