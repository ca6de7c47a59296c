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
``dir-queue`` / ``local-supervised``
    The claim-file job queue of :mod:`repro.core.distq`: persistent
    workers claim trials with ``O_EXCL`` files and fencing tokens,
    heartbeat through the queue, and commit results through the fence.
    ``local-supervised`` is the same backend over a private temporary
    directory.  ``local-process`` is another name for it: both names
    predate the queue and stay accepted, so saved scenarios and campaign
    fingerprints keep working.
``auto``
    ``local-serial`` for ``max_workers == 1``, else the private queue.

All five names resolve to the factories here (declared in
:mod:`repro.core.registry`).  The queue's factories import
:mod:`repro.core.distq` (and with it ``multiprocessing``) only when they
build a backend, so a single trial, or a serial campaign, never loads
the queue machinery.

Every backend receives the *dense* spec list (journal-resume holes
already removed by the runner) and must return bit-identical values for
identical specs: supervision changes failure handling, never results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.runner import TrialOutcome, TrialRunner, TrialSpec

if TYPE_CHECKING:  # annotation-only: a trial never loads the journal
    from repro.core.journal import TrialJournal

#: The degradation ladder, most to least capable.  A shared queue
#: directory that stops cooperating first retries the rest on a private
#: queue directory; a queue that cannot run at all finishes serially.
#: The bottom rung cannot fail from infrastructure because it launches
#: no workers.
DEGRADATION_LADDER: Tuple[str, ...] = ("dir-queue", "local-serial")


class ExecutionBackend:
    """Contract: run a dense spec list, return outcomes in dense indices.

    Backends borrow the runner's low-level mechanics (``_run_serial``,
    ``_record``) rather than reimplementing them, so tests that
    monkeypatch those methods govern every backend uniformly.
    """

    #: Registry name, set by each subclass.
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


def make_local_serial(runner: TrialRunner) -> ExecutionBackend:
    return LocalSerialBackend(runner)


def make_dir_queue(runner: TrialRunner) -> ExecutionBackend:
    from repro.core.distq import DirQueueBackend

    return DirQueueBackend(runner)


def make_local_supervised(runner: TrialRunner) -> ExecutionBackend:
    from repro.core.distq import LocalSupervisedBackend

    return LocalSupervisedBackend(runner)


def make_auto(runner: TrialRunner) -> ExecutionBackend:
    """Serial for one worker, the private-directory queue otherwise."""
    if runner.max_workers == 1:
        return LocalSerialBackend(runner)
    return make_local_supervised(runner)
