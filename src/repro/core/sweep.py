"""Parameter sweeps over scenarios.

The evaluation questions a tool like CAVENET exists to answer are almost
always sweeps — PDR vs density, delay vs load, goodput vs range.  This
module runs a base scenario across one varying field (optionally with
several seeds per point) and aggregates the standard metrics.  The
``(value, trial)`` grid is embarrassingly parallel, so it fans out through
:mod:`repro.core.runner`; per-trial seeds are derived before submission,
which keeps parallel results bit-identical to serial ones.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.core.config import Scenario
from repro.core.journal import campaign_fingerprint, open_journal
from repro.core.runner import TrialRunner, TrialSpec
from repro.core.simulation import CavenetSimulation, SimulationResult
from repro.metrics.collector import CampaignTelemetry
from repro.util.errors import ConfigError, TrialError


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """Aggregated metrics at one parameter value.

    Attributes:
        value: the swept field's value.
        pdr_mean / pdr_std: delivery ratio over the surviving trials.
        delay_mean_s: mean end-to-end delay (NaN when nothing delivered).
        control_packets_mean: routing-control transmissions.
        results: the raw per-trial results, in trial order.
        num_failed: trials at this point that failed even after retries
            (their results are excluded from the aggregates above).
    """

    value: Any
    pdr_mean: float
    pdr_std: float
    delay_mean_s: float
    control_packets_mean: float
    results: List[SimulationResult]
    num_failed: int = 0


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """All points of one sweep."""

    field: str
    points: List[SweepPoint]

    def values(self) -> List[Any]:
        """The swept values, in order."""
        return [point.value for point in self.points]

    def pdr_curve(self) -> np.ndarray:
        """Mean PDR per point."""
        return np.array([point.pdr_mean for point in self.points])

    def delay_curve(self) -> np.ndarray:
        """Mean delay per point."""
        return np.array([point.delay_mean_s for point in self.points])

    @property
    def total_failed(self) -> int:
        """Trials dropped from the aggregates across every point."""
        return sum(point.num_failed for point in self.points)


def _run_scenario_trial(scenario: Scenario) -> SimulationResult:
    """Trial function for the runner: one full simulation of ``scenario``."""
    return CavenetSimulation(scenario).run()


def _aggregate_point(
    value: Any, results: List[SimulationResult], num_failed: int
) -> SweepPoint:
    """Fold one point's surviving trial results into a :class:`SweepPoint`."""
    pdrs = np.array([r.pdr() for r in results])
    delays = np.array([r.delay_stats().mean_s for r in results])
    if np.all(np.isnan(delays)):
        delay_mean = float("nan")  # nothing delivered at this point
    else:
        delay_mean = float(np.nanmean(delays))
    control = np.array(
        [r.control_overhead().packets for r in results], dtype=float
    )
    return SweepPoint(
        value=value,
        pdr_mean=float(pdrs.mean()),
        pdr_std=float(pdrs.std(ddof=1)) if len(results) > 1 else 0.0,
        delay_mean_s=delay_mean,
        control_packets_mean=float(control.mean()),
        results=results,
        num_failed=num_failed,
    )


def sweep_scenario(
    base: Scenario,
    field: str,
    values: Sequence[Any],
    trials: int = 1,
    max_workers: int = 1,
    trial_timeout_s: Optional[float] = None,
    max_attempts: int = 2,
    telemetry: Optional[CampaignTelemetry] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
) -> SweepResult:
    """Run ``base`` once per ``(value, trial)``, varying one field.

    Each trial uses a distinct seed derived from the base seed, so trials
    differ in mobility and protocol randomness but remain reproducible.
    ``field`` must be a :class:`Scenario` field name.

    With ``max_workers > 1`` the trials fan out across worker processes
    (element-wise identical results, since every seed is fixed up front);
    ``trial_timeout_s`` bounds each trial and failed trials are retried,
    then dropped from the point's aggregates (``SweepPoint.num_failed``
    counts them).  A point where *every* trial failed raises
    :class:`~repro.util.errors.TrialError`.

    With ``journal_path`` every completed trial is durably journalled;
    ``resume=True`` then skips trials already in the journal, so a sweep
    killed at any trial boundary finishes from where it died with results
    identical to an uninterrupted run.  The journal is fingerprinted with
    the scenario, grid and seeds — resuming with a *different* sweep
    definition is rejected, not merged.

    The scenario's ``backend``/``lease_ttl_s`` fields choose the
    execution backend (``"auto"``, ``"local-serial"``,
    ``"local-supervised"`` — also called ``"local-process"`` — or
    ``"dir-queue"``) and its lease duration;
    ``queue_dir``/``quarantine_after`` configure the shared-directory
    queue — see :mod:`repro.core.backend` and :mod:`repro.core.distq`.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if field not in {f.name for f in dataclasses.fields(Scenario)}:
        raise ConfigError(f"{field!r} is not a Scenario field")
    base.validate()  # fail on a bad config before any worker is spawned
    specs = []
    for value_index, value in enumerate(values):
        for trial in range(trials):
            scenario = dataclasses.replace(
                base, **{field: value, "seed": base.seed + 1000 * trial}
            )
            specs.append(
                TrialSpec(
                    key=(value, trial),
                    fn=_run_scenario_trial,
                    args=(scenario,),
                )
            )
    # Fingerprint over the canonical serialization (Scenario.to_dict),
    # which canonical-JSON-hashes identically to the dataclasses.asdict
    # form older journals were recorded with, so those still resume.
    fingerprint = campaign_fingerprint(
        kind="sweep",
        scenario=base.to_dict(),
        field=field,
        values=list(values),
        trials=trials,
    )
    journal = open_journal(journal_path, fingerprint, resume)
    runner = TrialRunner(
        max_workers=max_workers,
        trial_timeout_s=trial_timeout_s,
        max_attempts=max_attempts,
        telemetry=telemetry,
        backend=base.backend,
        lease_ttl_s=base.lease_ttl_s,
        queue_dir=base.queue_dir,
        quarantine_after=base.quarantine_after,
    )
    try:
        outcomes = runner.run(specs, journal=journal)
    finally:
        if journal is not None:
            journal.close()
    points: List[SweepPoint] = []
    for value_index, value in enumerate(values):
        per_point = outcomes[value_index * trials:(value_index + 1) * trials]
        results = [o.value for o in per_point if o.ok]
        failed = [o for o in per_point if not o.ok]
        if not results:
            raise TrialError(
                f"all {trials} trials failed at {field}={value!r}; "
                f"first error:\n{failed[0].error}",
                key=failed[0].key,
                attempts=failed[0].attempts,
            )
        points.append(_aggregate_point(value, results, len(failed)))
    return SweepResult(field=field, points=points)


#: Campaign-style alias for :func:`sweep_scenario`.
run_sweep = sweep_scenario
