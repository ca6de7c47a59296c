"""Chaos harness: inject *real* worker failures into a trial campaign.

The crash-safety machinery (retries, journal resume, telemetry) was built
against synthetic unit-test failures; this module lets a test or smoke
script subject it to the genuine article — a worker SIGKILLed before it
reports, a worker that hangs past its timeout, a result payload that
detonates during unpickling in the parent — while the campaign's *final
results stay bit-identical* to an undisturbed run, because every
sabotaged attempt still computes the true value first and the retry
re-runs the same pure trial function.

Usage (test-only; production campaigns never construct one)::

    chaos = ChaosMonkey(kill_on={1}, hang_on={2}, corrupt_on={3})
    runner = TrialRunner(max_workers=4, trial_timeout_s=5.0, chaos=chaos)
    outcomes = runner.run(specs)   # identical values, noisier telemetry

Sabotage applies to first attempts only (fencing generation 1), so
``max_attempts >= 2`` recovers every trial; ``kill_all_attempts_on``
kills *every* attempt of a trial — the way to manufacture a quarantine
(a trial that keeps killing its workers).  A journalled failure is a
trial that raises on every attempt, which needs no sabotage.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from typing import Any, Callable, Iterable, Optional


def _explode() -> None:
    """Unpickling payload for the ``corrupt`` mode: raises in the parent."""
    raise pickle.UnpicklingError("chaos: corrupted result payload")


class _CorruptPayload:
    """Pickles cleanly in the worker, explodes when unpickled."""

    def __reduce__(self):
        return (_explode, ())


def sabotage(fn: Callable[..., Any], args, kwargs, mode: str) -> Any:
    """Worker-side wrapper: run the real trial, then fail in ``mode``.

    Module-level (not a closure) so it pickles under spawn as well as
    fork.  The true value is computed before the failure, which is what
    makes the bit-identity assertion meaningful: the retry must
    reproduce exactly what the killed worker had computed.
    """
    value = fn(*args, **kwargs)
    if mode == "sigkill":
        # Death without cleanup: the scheduler sees the worker exit while
        # holding its claim, exactly like an OOM kill or segfault.
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode in ("hang", "mute"):
        # Never return: the trial timeout (or, for "mute", one lease TTL
        # of frozen heartbeats) must terminate us.
        while True:  # pragma: no cover - killed from outside
            time.sleep(3600.0)
    elif mode == "corrupt":
        return _CorruptPayload()
    return value


class ChaosMonkey:
    """Deterministic sabotage plan over trial indices.

    Args:
        kill_on: trial indices whose first attempt is SIGKILLed after
            computing its result.
        hang_on: indices whose first attempt hangs forever (requires the
            runner to enforce ``trial_timeout_s``: the worker's watchdog
            settles the attempt as a timeout and ends the worker).
        corrupt_on: indices whose first attempt returns a payload that
            raises while unpickling in the parent (the scheduler counts
            it as a failed attempt and hands the trial on).
        kill_all_attempts_on: indices whose *every* attempt is SIGKILLed
            — the trial is quarantined once it has killed
            ``quarantine_after`` distinct workers.
        mute_on: indices whose first attempt goes silent after computing
            — its heartbeats stop too, so its claim freezes and is
            reclaimed after one lease TTL (by the scheduler, which
            SIGKILLs the silent worker, or by a peer).
        contend_on: indices whose trial starts under a claim held by a
            foreign owner that never heartbeats (a "ghost"): workers
            must wait one lease TTL, take the claim over with the next
            fencing token, and still produce the identical result
            exactly once.

    Indices refer to positions in the spec sequence handed to
    ``TrialRunner.run`` (after journal-resume filtering).
    """

    def __init__(
        self,
        kill_on: Iterable[int] = (),
        hang_on: Iterable[int] = (),
        corrupt_on: Iterable[int] = (),
        kill_all_attempts_on: Iterable[int] = (),
        mute_on: Iterable[int] = (),
        contend_on: Iterable[int] = (),
    ) -> None:
        self.kill_on = frozenset(kill_on)
        self.hang_on = frozenset(hang_on)
        self.corrupt_on = frozenset(corrupt_on)
        self.kill_all_attempts_on = frozenset(kill_all_attempts_on)
        self.mute_on = frozenset(mute_on)
        self.contend_on = frozenset(contend_on)

    def mode_for(self, index: int, attempt: int) -> Optional[str]:
        """The sabotage mode for this attempt, or ``None`` to run clean."""
        if index in self.kill_all_attempts_on:
            return "sigkill"
        if attempt > 1:
            return None
        if index in self.kill_on:
            return "sigkill"
        if index in self.hang_on:
            return "hang"
        if index in self.corrupt_on:
            return "corrupt"
        if index in self.mute_on:
            return "mute"
        return None

    def contends_for(self, index: int) -> bool:
        """Whether this trial starts under a foreign (ghost) lease."""
        return index in self.contend_on
