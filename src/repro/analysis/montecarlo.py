"""Monte-Carlo ensemble running.

CAVENET "can also run Monte Carlo simulations" (paper Section IV-A): the
fundamental diagram averages 20 independent trials per point.  This module
generalises that pattern: run any seeded experiment several times and
aggregate.  Trials fan out through :mod:`repro.core.runner`; each trial's
generator is derived from ``(root seed, stream name)`` alone, so the same
seeds produce bit-identical samples whether the ensemble runs serially or
across worker processes.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from repro.metrics.collector import CampaignTelemetry
from repro.util.errors import ConfigError, TrialError
from repro.util.rng import RngStreams


@dataclasses.dataclass(frozen=True)
class MonteCarloResult:
    """Aggregate of a repeated experiment.

    Attributes:
        samples: per-trial results stacked on axis 0 (scalars become a 1-D
            array, arrays an (trials, ...) array).
        mean: sample mean over trials.
        std: sample standard deviation over trials (ddof=1; zeros for a
            single trial).
        num_failed: trials dropped because they failed even after retries.
    """

    samples: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    num_failed: int = 0

    @property
    def num_trials(self) -> int:
        """Number of trials aggregated."""
        return self.samples.shape[0]


def _mc_trial(
    experiment: Callable[[np.random.Generator], "np.typing.ArrayLike"],
    root_seed: int,
    stream_prefix: str,
    trial: int,
) -> np.ndarray:
    """Trial function for the runner: one experiment with its own stream.

    The generator depends only on ``(root_seed, stream name)`` — exactly
    how :class:`RngStreams` seeds a fresh stream — so any process, retry
    or execution order reproduces the same draw sequence.
    """
    generator = RngStreams(root_seed).stream(f"{stream_prefix}-{trial}")
    return np.asarray(experiment(generator), dtype=float)


def monte_carlo(
    experiment: Callable[[np.random.Generator], "np.typing.ArrayLike"],
    trials: int,
    rng: Optional[RngStreams] = None,
    stream_prefix: str = "mc",
    max_workers: int = 1,
    trial_timeout_s: Optional[float] = None,
    max_attempts: int = 2,
    telemetry: Optional[CampaignTelemetry] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    backend: str = "auto",
    lease_ttl_s: float = 30.0,
) -> MonteCarloResult:
    """Run ``experiment`` ``trials`` times with independent generators.

    Each trial receives its own deterministic generator derived from the
    root seed, so the whole ensemble is reproducible and individual trials
    can be re-run in isolation for debugging.  ``max_workers > 1`` fans the
    trials out across processes with element-wise identical ``samples``;
    failed trials are retried, then dropped (``num_failed`` counts them) —
    an ensemble where every trial failed raises
    :class:`~repro.util.errors.TrialError`.

    With ``journal_path``/``resume`` each completed trial is durably
    journalled and skipped on restart; the journal fingerprint covers the
    experiment's identity, the seed, the stream prefix and the trial count.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    from repro.core.journal import campaign_fingerprint, open_journal
    from repro.core.runner import TrialRunner, TrialSpec

    streams = rng if rng is not None else RngStreams(0)
    specs = [
        TrialSpec(
            key=trial,
            fn=_mc_trial,
            args=(experiment, streams.seed, stream_prefix, trial),
        )
        for trial in range(trials)
    ]
    fingerprint = campaign_fingerprint(
        kind="monte_carlo",
        experiment=f"{getattr(experiment, '__module__', '?')}."
        f"{getattr(experiment, '__qualname__', repr(experiment))}",
        seed=streams.seed,
        stream_prefix=stream_prefix,
        trials=trials,
    )
    journal = open_journal(journal_path, fingerprint, resume)
    runner = TrialRunner(
        max_workers=max_workers,
        trial_timeout_s=trial_timeout_s,
        max_attempts=max_attempts,
        telemetry=telemetry,
        backend=backend,
        lease_ttl_s=lease_ttl_s,
    )
    try:
        outcomes = runner.run(specs, journal=journal)
    finally:
        if journal is not None:
            journal.close()
    surviving = [o.value for o in outcomes if o.ok]
    failed = [o for o in outcomes if not o.ok]
    if not surviving:
        raise TrialError(
            f"all {trials} Monte-Carlo trials failed; first error:\n"
            f"{failed[0].error}",
            key=failed[0].key,
            attempts=failed[0].attempts,
        )
    samples = np.stack(surviving)
    std = (
        samples.std(axis=0, ddof=1)
        if len(surviving) > 1
        else np.zeros_like(samples[0], dtype=float)
    )
    return MonteCarloResult(
        samples=samples,
        mean=samples.mean(axis=0),
        std=std,
        num_failed=len(failed),
    )
