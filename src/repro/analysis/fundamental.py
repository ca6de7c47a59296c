"""The fundamental diagram: traffic flow versus density (paper Fig. 4).

Each point is the ensemble average, over independent trials, of the
time-averaged flow ``J = rho * v`` of a trace — exactly the paper's
"ensemble average over 20 trials of a simulation trace lasting 500
iterations" for ``L = 400``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from repro.ca.history import evolve
from repro.ca.nasch import NagelSchreckenberg
from repro.metrics.collector import CampaignTelemetry
from repro.util.errors import ConfigError, TrialError
from repro.util.rng import RngStreams


@dataclasses.dataclass(frozen=True)
class FundamentalDiagram:
    """Result of a density sweep.

    Attributes:
        densities: requested densities rho (vehicles per cell).
        flows: ensemble-mean time-averaged flow J at each density.
        flow_std: ensemble standard deviation of the per-trial flows.
        p: dawdling probability of the sweep.
        num_cells: lane length L.
        num_failed: trials dropped per density point (``None`` from older
            pickles; treated as all-zero).
    """

    densities: np.ndarray
    flows: np.ndarray
    flow_std: np.ndarray
    p: float
    num_cells: int
    num_failed: Optional[np.ndarray] = None

    @property
    def total_failed(self) -> int:
        """Trials dropped from the ensemble across every density."""
        if self.num_failed is None:
            return 0
        return int(np.sum(self.num_failed))

    def peak(self) -> tuple:
        """Return ``(density, flow)`` of the maximum measured flow."""
        index = int(np.argmax(self.flows))
        return float(self.densities[index]), float(self.flows[index])


def _fd_trial(
    root_seed: int,
    density_index: int,
    trial: int,
    density: float,
    p: float,
    num_cells: int,
    steps: int,
    warmup: int,
    v_max: int,
) -> float:
    """Trial function for the runner: one trace's time-averaged flow.

    The generator is derived from ``(root_seed, stream name)`` alone, so
    the trial reproduces identically in any process and any order.
    """
    generator = RngStreams(root_seed).stream(f"fd-{density_index}-{trial}")
    model = NagelSchreckenberg.from_density(
        num_cells,
        density,
        random_start=True,
        rng=generator,
        p=p,
        v_max=v_max,
    )
    history = evolve(model, steps, warmup=warmup)
    return float(history.flow_series().mean())


def fundamental_diagram(
    densities: Sequence[float],
    p: float,
    num_cells: int = 400,
    trials: int = 20,
    steps: int = 500,
    warmup: int = 0,
    v_max: int = 5,
    rng: Optional[RngStreams] = None,
    max_workers: int = 1,
    trial_timeout_s: Optional[float] = None,
    max_attempts: int = 2,
    telemetry: Optional[CampaignTelemetry] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    backend: str = "auto",
    lease_ttl_s: float = 30.0,
) -> FundamentalDiagram:
    """Sweep densities and measure the ensemble-average flow.

    Initial placements are random per trial (so trials differ even for the
    deterministic ``p = 0`` model, where the dynamics have no randomness of
    their own).  The ``(density, trial)`` grid fans out through
    :mod:`repro.core.runner` when ``max_workers > 1``, with results
    element-wise identical to a serial run of the same seeds.

    With ``journal_path``/``resume`` each trial's flow is durably
    journalled and skipped on restart; the journal fingerprint covers the
    density grid, lane length, trial/step counts and the root seed.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    from repro.core.journal import campaign_fingerprint, open_journal
    from repro.core.runner import TrialRunner, TrialSpec

    streams = rng if rng is not None else RngStreams(0)
    specs = [
        TrialSpec(
            key=(float(density), trial),
            fn=_fd_trial,
            args=(
                streams.seed, i, trial, float(density), float(p),
                int(num_cells), int(steps), int(warmup), int(v_max),
            ),
        )
        for i, density in enumerate(densities)
        for trial in range(trials)
    ]
    fingerprint = campaign_fingerprint(
        kind="fundamental",
        densities=[float(d) for d in densities],
        p=float(p),
        num_cells=int(num_cells),
        trials=trials,
        steps=int(steps),
        warmup=int(warmup),
        v_max=int(v_max),
        seed=streams.seed,
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
    flows = np.empty(len(densities))
    flow_std = np.empty(len(densities))
    num_failed = np.zeros(len(densities), dtype=int)
    for i in range(len(densities)):
        per_point = outcomes[i * trials:(i + 1) * trials]
        surviving = np.array([o.value for o in per_point if o.ok])
        if surviving.size == 0:
            raise TrialError(
                f"all {trials} trials failed at density index {i}; "
                f"first error:\n{per_point[0].error}",
                key=per_point[0].key,
                attempts=per_point[0].attempts,
            )
        flows[i] = surviving.mean()
        flow_std[i] = surviving.std(ddof=1) if surviving.size > 1 else 0.0
        num_failed[i] = trials - surviving.size
    return FundamentalDiagram(
        densities=np.asarray(densities, dtype=float),
        flows=flows,
        flow_std=flow_std,
        p=float(p),
        num_cells=int(num_cells),
        num_failed=num_failed,
    )
