"""Parallel trial execution: fan independent seeded trials across processes.

Every campaign this tool exists to run — the Fig. 4 fundamental diagram
(20 trials per density), the Figs. 8-11 protocol comparisons, parameter
sweeps, Monte-Carlo ensembles — is an embarrassingly-parallel set of
independent ``(spec, seed)`` trials.  :class:`TrialRunner` executes such a
set with:

* **deterministic results** — a trial's output is a pure function of its
  :class:`TrialSpec` arguments (seeds are derived *before* submission), so
  ``max_workers=4`` is bit-identical to ``max_workers=1``;
* **bounded trials** — ``trial_timeout_s`` ends a stuck worker;
* **automatic retry** — a trial that raises, times out or returns a
  result the parent cannot unpickle is re-run up to ``max_attempts``
  times;
* **graceful degradation** — ``max_workers=1``, an unavailable
  ``multiprocessing`` layer, workers that cannot be spawned, or specs
  that do not pickle all fall back to plain in-process serial
  execution;
* **observability** — every attempt is reported to a
  :class:`repro.metrics.collector.CampaignTelemetry`;
* **crash-safety** — pass a :class:`repro.core.journal.TrialJournal` to
  :meth:`TrialRunner.run` and every completed trial is durably recorded
  before the campaign moves on; trials already present in the journal are
  *resumed* (their recorded values returned without re-running) and show
  up in telemetry as ``"resumed"`` records.

*Where* the trials execute is an :class:`~repro.core.backend.
ExecutionBackend` resolved by name through the ``backend`` registry
namespace: ``"local-serial"`` (in-process), ``"dir-queue"`` (the
claim-file job queue of :mod:`repro.core.distq`),
``"local-supervised"`` (that queue over a private temporary directory;
``"local-process"`` is another name for it), or ``"auto"`` (serial for
``max_workers=1``, the private queue otherwise).  This class keeps the
campaign-level concerns every backend shares — journal resume
filtering, telemetry, the serial path — and delegates execution itself.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.core import registry as _registry
from repro.metrics.collector import CampaignTelemetry, TrialRecord
from repro.util.errors import ConfigError

if TYPE_CHECKING:  # run() imports the journal only when one is passed
    from repro.core.journal import TrialJournal


@dataclasses.dataclass(frozen=True)
class TrialSpec:
    """One unit of independent work: call ``fn(*args, **kwargs)``.

    ``fn`` must be deterministic in its arguments (derive any random
    generator *inside* the function from a seed passed as an argument);
    that is what makes parallel execution reproducible.

    Attributes:
        key: caller-chosen identity, carried through to the outcome and
            telemetry (e.g. ``(density, trial)``).
        fn: the trial function; with worker processes the spec and
            its return value must pickle (a campaign whose specs do not
            pickle runs serially).
        args / kwargs: positional and keyword arguments for ``fn``.
    """

    key: Any
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class TrialOutcome:
    """The terminal result of one trial (after any retries).

    Attributes:
        key: the spec's key.
        index: the spec's position in the submitted sequence.
        value: ``fn``'s return value (``None`` when the trial failed).
        error: diagnostic text when every attempt failed.
        attempts: how many attempts were made.
        wall_clock_s: duration of the final attempt.
        timed_out: whether the final attempt hit ``trial_timeout_s``.
        infrastructure: whether the terminal failure was *infrastructure*
            (worker crash, timeout, pipe/unpickle damage — things a retry
            elsewhere could fix) rather than an exception raised by the
            trial function itself (a quarantined trial is one).
    """

    key: Any
    index: int
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
    wall_clock_s: float = 0.0
    timed_out: bool = False
    infrastructure: bool = False

    @property
    def ok(self) -> bool:
        """Whether the trial ultimately produced a value."""
        return self.error is None


class TrialRunner:
    """Execute a sequence of :class:`TrialSpec` with bounded parallelism.

    Args:
        max_workers: worker processes; ``1`` runs everything in-process
            under the ``"auto"`` backend (no pickling requirements, no
            timeout enforcement).
        trial_timeout_s: per-attempt wall-clock bound; a worker exceeding
            it ends itself and the attempt counts as failed (status
            ``"timeout"``).  Only enforceable by the queue backends (a
            serial trial cannot be preempted).
        max_attempts: total tries per trial (1 = no retry).
        telemetry: optional :class:`CampaignTelemetry` receiving one
            :class:`TrialRecord` per attempt (and, under the queue
            backends, one :class:`~repro.metrics.collector.CampaignEvent`
            per supervision action).
        backend: execution-backend name resolved through the ``backend``
            registry namespace — ``"auto"`` (default), ``"local-serial"``,
            ``"dir-queue"``, ``"local-supervised"`` or its older name
            ``"local-process"``.
        lease_ttl_s: queue backends (``dir-queue``, ``local-supervised``)
            — how long a claim may sit with frozen heartbeats before
            another worker reclaims it.  A worker seen to exit is
            reclaimed at once, without waiting out the TTL.
        heartbeat_interval_s: queue backends — worker heartbeat period
            (``None`` derives it from ``lease_ttl_s``).
        queue_dir: dir-queue backend only — the shared queue directory
            trials are scheduled through (any host's ``repro worker``
            pointed at the same directory joins the campaign).  ``None``
            uses a private temporary directory, which still exercises
            the full claim/fencing protocol but only local workers can
            join.
        quarantine_after: dir-queue backend only — distinct workers one
            trial may kill before it is parked in quarantine instead of
            being reclaimed again.
        chaos: TEST-ONLY failure injector (a
            :class:`repro.core.chaos.ChaosMonkey`).  Its plan rides in
            each queued task; sabotaged attempts run the real trial and
            then fail for real (SIGKILL, hang, corrupt payload,
            heartbeat suppression, lease contention), so the
            retry/journal machinery is exercised end to end.  Only
            meaningful on the queue backends — the serial path runs
            in-process and is never sabotaged.  Production campaigns
            must leave this ``None``.
    """

    def __init__(
        self,
        max_workers: int = 1,
        trial_timeout_s: Optional[float] = None,
        max_attempts: int = 2,
        telemetry: Optional[CampaignTelemetry] = None,
        chaos: Optional["ChaosMonkey"] = None,
        backend: str = "auto",
        lease_ttl_s: float = 30.0,
        heartbeat_interval_s: Optional[float] = None,
        queue_dir: Optional[str] = None,
        quarantine_after: int = 3,
    ) -> None:
        if max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        if max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
        if trial_timeout_s is not None and trial_timeout_s <= 0:
            raise ConfigError(
                f"trial_timeout_s must be > 0, got {trial_timeout_s}"
            )
        if lease_ttl_s <= 0:
            raise ConfigError(f"lease_ttl_s must be > 0, got {lease_ttl_s}")
        if heartbeat_interval_s is not None and heartbeat_interval_s <= 0:
            raise ConfigError(
                f"heartbeat_interval_s must be > 0, got {heartbeat_interval_s}"
            )
        if quarantine_after < 1:
            raise ConfigError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        self.max_workers = int(max_workers)
        self.trial_timeout_s = trial_timeout_s
        self.max_attempts = int(max_attempts)
        self.telemetry = telemetry
        self.chaos = chaos
        # Validate the backend name eagerly: an unknown backend should
        # fail at construction with the live list of choices, not after
        # the campaign's first trials have already run.
        self.backend = _registry.normalize("backend", backend)
        self.lease_ttl_s = float(lease_ttl_s)
        self.heartbeat_interval_s = heartbeat_interval_s
        self.queue_dir = None if queue_dir is None else str(queue_dir)
        self.quarantine_after = int(quarantine_after)

    # -- public API ---------------------------------------------------------

    def run(
        self,
        specs: Sequence[TrialSpec],
        journal: Optional[TrialJournal] = None,
    ) -> List[TrialOutcome]:
        """Run every spec; outcomes come back in submission order.

        With ``journal`` given, specs whose key is already completed in the
        journal are returned from their recorded values without re-running
        (reported to telemetry as ``"resumed"``), and every freshly
        completed trial is durably journalled *before* the campaign
        proceeds — so an interrupted campaign resumes at the exact trial
        boundary it died at.  Specs whose key the journal holds in
        *quarantine* (a dir-queue poison trial) are not re-run either:
        they come back as terminal infrastructure failures until a human
        un-parks them.
        """
        specs = list(specs)
        if not specs:
            return []
        outcomes: List[Optional[TrialOutcome]] = [None] * len(specs)
        fresh: List[Tuple[int, TrialSpec]] = []
        if journal is not None:
            from repro.core.journal import trial_key_id

            for index, spec in enumerate(specs):
                key_id = trial_key_id(spec.key)
                entry = journal.completed.get(key_id)
                parked = journal.quarantined.get(key_id)
                if entry is not None:
                    outcomes[index] = TrialOutcome(
                        key=spec.key,
                        index=index,
                        value=entry.value,
                        attempts=entry.attempts,
                        wall_clock_s=entry.wall_clock_s,
                    )
                    self._record(spec.key, entry.attempts, "resumed", 0.0)
                elif parked is not None:
                    outcomes[index] = TrialOutcome(
                        key=spec.key,
                        index=index,
                        error=(
                            "quarantined: killed "
                            f"{len(parked.owners)} distinct workers\n"
                            f"{parked.traceback}"
                        ),
                        attempts=parked.attempts,
                        infrastructure=True,
                    )
                    self._record_event(
                        "quarantined", key=spec.key,
                        detail="skipped on resume (still parked)",
                    )
                else:
                    fresh.append((index, spec))
        else:
            fresh = list(enumerate(specs))
        if fresh:
            # Backends see a dense spec list (resume holes removed) with
            # indices 0..len-1; outcome indices are remapped onto the
            # caller's positions here, so backends never need to know
            # about the journal's resume filtering.
            execution = _registry.resolve("backend", self.backend)(self)
            for outcome in execution.run(
                [spec for _, spec in fresh], journal
            ):
                index = fresh[outcome.index][0]
                outcomes[index] = dataclasses.replace(outcome, index=index)
        return [outcome for outcome in outcomes if outcome is not None]

    # -- serial path --------------------------------------------------------

    def _run_serial(
        self,
        index: int,
        spec: TrialSpec,
        journal: Optional[TrialJournal] = None,
    ) -> TrialOutcome:
        """In-process execution with the same retry semantics as the queue."""
        error = None
        for attempt in range(1, self.max_attempts + 1):
            started = time.perf_counter()
            try:
                value = spec.fn(*spec.args, **spec.kwargs)
            except Exception as exc:
                elapsed = time.perf_counter() - started
                error = (
                    f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
                )
                self._record(spec.key, attempt, "error", elapsed, error)
                continue
            elapsed = time.perf_counter() - started
            self._record(spec.key, attempt, "ok", elapsed)
            if journal is not None:
                journal.record_success(spec.key, value, attempt, elapsed)
            return TrialOutcome(
                key=spec.key,
                index=index,
                value=value,
                attempts=attempt,
                wall_clock_s=elapsed,
            )
        if journal is not None:
            journal.record_failure(spec.key, error or "", self.max_attempts)
        return TrialOutcome(
            key=spec.key,
            index=index,
            error=error,
            attempts=self.max_attempts,
        )

    # -- telemetry ----------------------------------------------------------

    def _record(self, key, attempt, status, wall_clock_s, error=None) -> None:
        if self.telemetry is not None:
            self.telemetry.record(
                TrialRecord(
                    key=key,
                    attempt=attempt,
                    status=status,
                    wall_clock_s=wall_clock_s,
                    error=error,
                )
            )

    def _record_event(self, kind: str, key=None, detail: str = "") -> None:
        """Forward one supervision event to telemetry (if attached)."""
        if self.telemetry is not None:
            self.telemetry.record_event(kind, key=key, detail=detail)


def run_trials(
    specs: Sequence[TrialSpec],
    max_workers: int = 1,
    trial_timeout_s: Optional[float] = None,
    max_attempts: int = 2,
    telemetry: Optional[CampaignTelemetry] = None,
    journal: Optional[TrialJournal] = None,
    backend: str = "auto",
    lease_ttl_s: float = 30.0,
) -> List[TrialOutcome]:
    """Convenience wrapper: build a :class:`TrialRunner` and run ``specs``."""
    return TrialRunner(
        max_workers=max_workers,
        trial_timeout_s=trial_timeout_s,
        max_attempts=max_attempts,
        telemetry=telemetry,
        backend=backend,
        lease_ttl_s=lease_ttl_s,
    ).run(specs, journal=journal)
