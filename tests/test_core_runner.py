"""Trial-runner tests: ordering, failure paths, timeouts, retries, telemetry.

With ``max_workers > 1`` the default ``auto`` backend runs the trials on
the private-directory queue of :mod:`repro.core.distq`; with one worker
it runs them in-process.
"""

import time

import pytest

from repro.core import distq
from repro.core.runner import TrialRunner, TrialSpec, run_trials
from repro.metrics.collector import CampaignTelemetry


def _square(x):
    return x * x


def _boom(message):
    raise ValueError(message)


def _sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def _fail_until_marker(marker_path, value):
    """Fail on the first attempt, succeed once the marker file exists.

    The marker lives on disk so the state survives the process boundary:
    each retry is a fresh worker process.
    """
    import os

    if os.path.exists(marker_path):
        return value
    with open(marker_path, "w") as handle:
        handle.write("attempted")
    raise RuntimeError("transient failure: first attempt always fails")


def _specs(count):
    return [TrialSpec(key=i, fn=_square, args=(i,)) for i in range(count)]


# -- basics -------------------------------------------------------------------


def test_serial_runs_in_order():
    outcomes = run_trials(_specs(5))
    assert [o.value for o in outcomes] == [0, 1, 4, 9, 16]
    assert [o.index for o in outcomes] == [0, 1, 2, 3, 4]
    assert all(o.ok and o.attempts == 1 for o in outcomes)


def test_parallel_preserves_submission_order():
    outcomes = run_trials(_specs(9), max_workers=3)
    assert [o.value for o in outcomes] == [i * i for i in range(9)]
    assert [o.key for o in outcomes] == list(range(9))


def test_parallel_matches_serial():
    serial = run_trials(_specs(7))
    parallel = run_trials(_specs(7), max_workers=4)
    assert [o.value for o in serial] == [o.value for o in parallel]


def test_empty_specs():
    assert run_trials([]) == []
    assert run_trials([], max_workers=4) == []


def test_kwargs_are_passed():
    spec = TrialSpec(key="k", fn=_sleep_then_return,
                     kwargs={"seconds": 0.0, "value": 42})
    assert run_trials([spec])[0].value == 42
    assert run_trials([spec], max_workers=2)[0].value == 42


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        TrialRunner(max_workers=0)
    with pytest.raises(ValueError):
        TrialRunner(max_attempts=0)
    with pytest.raises(ValueError):
        TrialRunner(trial_timeout_s=0.0)


# -- failure paths ------------------------------------------------------------


def test_raising_trial_is_reported_not_raised():
    specs = [
        TrialSpec(key="ok", fn=_square, args=(3,)),
        TrialSpec(key="bad", fn=_boom, args=("broken trial",)),
    ]
    for workers in (1, 2):
        outcomes = run_trials(specs, max_workers=workers, max_attempts=2)
        assert outcomes[0].ok and outcomes[0].value == 9
        assert not outcomes[1].ok
        assert outcomes[1].attempts == 2
        assert "ValueError" in outcomes[1].error
        assert "broken trial" in outcomes[1].error


def test_timeout_kills_and_reports():
    specs = [
        TrialSpec(key="fast", fn=_sleep_then_return, args=(0.0, "fast")),
        TrialSpec(key="stuck", fn=_sleep_then_return, args=(30.0, "stuck")),
    ]
    started = time.monotonic()
    outcomes = run_trials(
        specs, max_workers=2, trial_timeout_s=0.3, max_attempts=1
    )
    elapsed = time.monotonic() - started
    assert outcomes[0].ok and outcomes[0].value == "fast"
    assert not outcomes[1].ok
    assert outcomes[1].timed_out and outcomes[1].infrastructure
    assert outcomes[1].attempts == 1
    assert "trial_timeout_s" in outcomes[1].error
    assert elapsed < 10.0  # the stuck worker was terminated, not waited out


def test_timed_out_trial_is_retried():
    telemetry = CampaignTelemetry()
    outcomes = run_trials(
        [TrialSpec(key="s", fn=_sleep_then_return, args=(30.0, None))],
        max_workers=2,
        trial_timeout_s=0.2,
        max_attempts=2,
        telemetry=telemetry,
    )
    assert outcomes[0].attempts == 2
    assert outcomes[0].timed_out and outcomes[0].infrastructure
    assert telemetry.timeouts == 2
    assert telemetry.retries == 1
    assert [(r.attempt, r.status) for r in telemetry.records] == [
        (1, "timeout"), (2, "timeout"),
    ]


def test_retry_then_succeed(tmp_path):
    marker = str(tmp_path / "attempted.marker")
    outcomes = run_trials(
        [TrialSpec(key="flaky", fn=_fail_until_marker, args=(marker, 99))],
        max_workers=2,
        max_attempts=3,
    )
    assert outcomes[0].ok
    assert outcomes[0].value == 99
    assert outcomes[0].attempts == 2


def test_retry_then_succeed_serial(tmp_path):
    marker = str(tmp_path / "attempted.marker")
    outcomes = run_trials(
        [TrialSpec(key="flaky", fn=_fail_until_marker, args=(marker, 7))]
    )
    assert outcomes[0].ok and outcomes[0].attempts == 2


# -- degradation --------------------------------------------------------------


def _degradations(telemetry):
    return [e.detail for e in telemetry.events if e.kind == "degraded"]


def test_falls_back_to_serial_when_multiprocessing_unavailable(monkeypatch):
    monkeypatch.setattr(distq, "_context", lambda: None)
    telemetry = CampaignTelemetry()
    outcomes = run_trials(_specs(4), max_workers=4, telemetry=telemetry)
    assert [o.value for o in outcomes] == [0, 1, 4, 9]
    assert _degradations(telemetry) == [
        "local-supervised->local-serial (4 trials: "
        "multiprocessing unavailable)"
    ]


class _RefusingContext:
    """A multiprocessing context whose processes cannot be started."""

    class Process:
        def __init__(self, *args, **kwargs):
            pass

        def start(self):
            raise OSError("no more processes")


def test_falls_back_to_serial_when_launch_fails(monkeypatch):
    monkeypatch.setattr(distq, "_context", _RefusingContext)
    telemetry = CampaignTelemetry()
    outcomes = run_trials(_specs(3), max_workers=2, telemetry=telemetry)
    assert [o.value for o in outcomes] == [0, 1, 4]
    [detail] = _degradations(telemetry)
    assert detail.startswith("local-supervised->local-serial")
    assert "no more processes" in detail


def test_closure_specs_run_serially():
    captured = 5
    telemetry = CampaignTelemetry()
    outcomes = run_trials(
        [TrialSpec(key=0, fn=lambda: captured * captured)],
        max_workers=2,
        telemetry=telemetry,
    )
    assert [o.value for o in outcomes] == [25]
    [detail] = _degradations(telemetry)
    assert "specs do not pickle" in detail


# -- telemetry ----------------------------------------------------------------


def test_telemetry_counts_and_durations():
    telemetry = CampaignTelemetry()
    run_trials(_specs(4), max_workers=2, telemetry=telemetry)
    assert telemetry.trials_completed == 4
    assert telemetry.trials_failed == 0
    assert telemetry.retries == 0
    assert len(telemetry.wall_clock_per_trial()) == 4
    assert all(w >= 0.0 for w in telemetry.wall_clock_per_trial())
    summary = telemetry.summary()
    assert summary["completed"] == 4.0
    assert summary["total_wall_clock_s"] >= 0.0
    assert "4 trials ok" in telemetry.format_summary()


def test_telemetry_records_failures_per_attempt():
    telemetry = CampaignTelemetry()
    run_trials(
        [TrialSpec(key="bad", fn=_boom, args=("x",))],
        max_attempts=3,
        telemetry=telemetry,
    )
    assert telemetry.trials_failed == 3
    assert telemetry.retries == 2
    assert [r.attempt for r in telemetry.records] == [1, 2, 3]
    assert all(r.status == "error" for r in telemetry.records)


def test_telemetry_live_callback():
    seen = []
    telemetry = CampaignTelemetry(on_record=seen.append)
    run_trials(_specs(3), telemetry=telemetry)
    assert len(seen) == 3
    assert all(record.ok for record in seen)


# -- result-channel failures (retry accounting) -------------------------------


def _raise_on_unpickle(message):
    raise RuntimeError(message)


class _PoisonOnUnpickle:
    """Pickles fine in the worker; explodes when the parent unpickles it."""

    def __reduce__(self):
        return (_raise_on_unpickle, ("poisoned result",))


def _return_unpicklable_result():
    return _PoisonOnUnpickle()


def _exit_soon_after_returning(value):
    """Succeed, then end the worker process with exit code 3 shortly
    after its result has been committed."""
    import os
    import threading

    threading.Timer(0.3, os._exit, args=(3,)).start()
    return value


def test_unpicklable_result_counts_as_failed_attempt_and_retries():
    telemetry = CampaignTelemetry()
    specs = [
        TrialSpec(key="ok", fn=_square, args=(4,)),
        TrialSpec(key="poison", fn=_return_unpicklable_result),
    ]
    outcomes = run_trials(
        specs, max_workers=2, max_attempts=2, telemetry=telemetry
    )
    # The sibling trial is untouched; the poisoned one is a terminal
    # failure after a real retry, not a scheduler crash or a spurious
    # success.
    assert outcomes[0].ok and outcomes[0].value == 16
    assert not outcomes[1].ok and outcomes[1].infrastructure
    assert outcomes[1].attempts == 2
    assert outcomes[1].error.startswith("result could not be unpickled:")
    assert telemetry.retries == 1
    assert telemetry.trials_failed == 2  # both attempts of the poison trial


def test_worker_death_after_commit_keeps_the_committed_value():
    """A result committed through the fence stands even if its worker
    then exits with a failure code; the exit is reported, not retried."""
    telemetry = CampaignTelemetry()
    outcomes = run_trials(
        [
            TrialSpec(key="dies", fn=_exit_soon_after_returning, args=(7,)),
            # Keeps the campaign running while the first worker dies.
            TrialSpec(key="slow", fn=_sleep_then_return, args=(2.0, 8)),
        ],
        max_workers=2,
        max_attempts=2,
        telemetry=telemetry,
    )
    assert [(o.value, o.attempts) for o in outcomes] == [(7, 1), (8, 1)]
    assert telemetry.retries == 0
    assert any(
        e.kind == "worker-dead" and e.detail.endswith("exit code 3")
        for e in telemetry.events
    )
