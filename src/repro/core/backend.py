"""Execution backends: *where* and *how defensively* campaign trials run.

:class:`~repro.core.runner.TrialRunner` owns the campaign-level concerns
every execution strategy shares — journal resume, telemetry, retry
accounting — and delegates the actual running of trials to an
:class:`ExecutionBackend` resolved by name through the ninth registry
namespace, ``backend``:

``local-serial``
    In-process, one trial at a time.  No pickling requirements, no
    timeout enforcement, no sabotage surface — the ground truth every
    other backend must be bit-identical to.
``local-process``
    The one-process-per-trial pool: bounded parallelism, per-attempt
    timeouts, crash/corruption retry.  Degrades per-trial to serial when
    a worker cannot be launched, and wholesale when ``multiprocessing``
    is unavailable.
``dir-queue`` / ``local-supervised``
    The claim-file job queue of :mod:`repro.core.distq`: persistent
    workers claim trials with ``O_EXCL`` files and fencing tokens,
    heartbeat through the queue, and commit results through the fence.
    ``local-supervised`` is the same backend over a private temporary
    directory (the name predates the queue and stays accepted, so saved
    scenarios and campaign fingerprints keep working).
``auto``
    ``local-serial`` for ``max_workers == 1``, else ``local-process`` —
    the historical behaviour of the runner before backends existed.

Every backend receives the *dense* spec list (journal-resume holes
already removed by the runner) and must return bit-identical values for
identical specs: supervision changes failure handling, never results.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.journal import TrialJournal
from repro.core.registry import register
from repro.core.runner import TrialOutcome, TrialRunner, TrialSpec

#: The degradation ladder, most to least capable.  The dir-queue
#: backend's health probe moves a campaign down one rung; the process
#: pool drops to serial when it cannot launch workers.  The bottom rung
#: cannot fail from infrastructure because it launches no workers.
DEGRADATION_LADDER: Tuple[str, ...] = (
    "dir-queue",
    "local-process",
    "local-serial",
)


class ExecutionBackend:
    """Contract: run a dense spec list, return outcomes in dense indices.

    Backends borrow the runner's low-level mechanics (``_run_serial``,
    ``_context``, ``_launch``, ``_poll``, ``_record``) rather than
    reimplementing them, so tests that monkeypatch those methods govern
    every backend uniformly.
    """

    #: Registry name, set by the factory decorators below.
    name = "abstract"

    def __init__(self, runner: TrialRunner) -> None:
        self.runner = runner

    def run(
        self,
        specs: Sequence[TrialSpec],
        journal: Optional[TrialJournal] = None,
    ) -> List[TrialOutcome]:
        raise NotImplementedError


class LocalSerialBackend(ExecutionBackend):
    """Everything in-process, in order — the bit-identity ground truth."""

    name = "local-serial"

    def run(self, specs, journal=None):
        runner = self.runner
        return [
            runner._run_serial(index, spec, journal)
            for index, spec in enumerate(specs)
        ]


class LocalProcessBackend(ExecutionBackend):
    """One process per trial with bounded parallelism and plain retry.

    This is the pool loop the runner used to own: launch up to
    ``max_workers`` workers, poll them, retry failed attempts
    immediately (no backoff), degrade a trial to in-process execution
    when its worker cannot be launched, and degrade the whole run to
    serial when no multiprocessing context exists.
    """

    name = "local-process"

    def run(self, specs, journal=None):
        runner = self.runner
        context = runner._context()
        if context is None:
            return LocalSerialBackend(runner).run(specs, journal)
        specs = list(specs)
        results: List[Optional[TrialOutcome]] = [None] * len(specs)
        pending: List[Tuple[int, int]] = [(i, 1) for i in range(len(specs))]
        pending.reverse()  # pop() from the end == FIFO over trial indices
        active: List[Any] = []

        def settle(
            index, attempt, status, elapsed, value=None, error=None,
            infra=False,
        ):
            """Record the attempt; either finish the trial or queue a retry."""
            spec = specs[index]
            runner._record(spec.key, attempt, status, elapsed, error)
            if status == "ok":
                if journal is not None:
                    journal.record_success(spec.key, value, attempt, elapsed)
                results[index] = TrialOutcome(
                    key=spec.key,
                    index=index,
                    value=value,
                    attempts=attempt,
                    wall_clock_s=elapsed,
                )
                runner._emit(results[index])
            elif attempt < runner.max_attempts:
                pending.insert(0, (index, attempt + 1))
            else:
                if journal is not None:
                    journal.record_failure(spec.key, error or "", attempt)
                results[index] = TrialOutcome(
                    key=spec.key,
                    index=index,
                    error=error,
                    attempts=attempt,
                    wall_clock_s=elapsed,
                    timed_out=status == "timeout",
                    infrastructure=infra,
                )

        try:
            while pending or active:
                while pending and len(active) < runner.max_workers:
                    index, attempt = pending.pop()
                    try:
                        active.append(
                            runner._launch(
                                context, specs[index], index, attempt
                            )
                        )
                    except Exception:
                        # Cannot start a worker (resources, pickling, ...):
                        # degrade this trial to an in-process run.
                        results[index] = runner._run_serial(
                            index, specs[index], journal
                        )
                progressed = False
                still_active: List[Any] = []
                now = time.monotonic()
                for worker in active:
                    finished = runner._poll(worker, now, settle)
                    if finished:
                        progressed = True
                    else:
                        still_active.append(worker)
                active = still_active
                if active and not progressed:
                    time.sleep(runner.poll_interval_s)
        finally:
            for worker in active:  # interrupted: leave no stragglers behind
                worker.process.terminate()
                worker.process.join()
                worker.conn.close()
        return [outcome for outcome in results if outcome is not None]


# -- registry entries ---------------------------------------------------------


def _factory(name: str, cls) -> Callable[[TrialRunner], ExecutionBackend]:
    @register("backend", name)
    def make(runner: TrialRunner) -> ExecutionBackend:
        return cls(runner)

    make.__qualname__ = f"make_{name.replace('-', '_')}"
    return make


_factory("local-serial", LocalSerialBackend)
_factory("local-process", LocalProcessBackend)


@register("backend", "auto")
def make_auto(runner: TrialRunner) -> ExecutionBackend:
    """Serial for one worker, the plain pool otherwise (historic default)."""
    if runner.max_workers == 1:
        return LocalSerialBackend(runner)
    return LocalProcessBackend(runner)
