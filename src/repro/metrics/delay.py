"""End-to-end delay statistics (the paper's conclusion compares AODV's and
DYMO's route-search delay; these are the supporting numbers)."""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.metrics.collector import MetricsCollector


@dataclasses.dataclass(frozen=True)
class DelayStats:
    """Summary of end-to-end delays for delivered packets."""

    count: int
    mean_s: float
    median_s: float
    p95_s: float
    max_s: float


def _delays(collector: MetricsCollector, flow_id: Optional[int]) -> np.ndarray:
    delivered = collector.delivered
    return np.array(
        [
            delay
            for flow, delay in zip(
                delivered.column("flow_id"), delivered.column("delay_s")
            )
            if flow_id is None or flow == flow_id
        ]
    )


def mean_delay(
    collector: MetricsCollector, flow_id: Optional[int] = None
) -> float:
    """Mean end-to-end delay; NaN when nothing was delivered."""
    delays = _delays(collector, flow_id)
    if len(delays) == 0:
        return float("nan")
    return float(delays.mean())


def delay_stats(
    collector: MetricsCollector, flow_id: Optional[int] = None
) -> DelayStats:
    """Full delay summary; NaN fields when nothing was delivered."""
    delays = _delays(collector, flow_id)
    if len(delays) == 0:
        nan = float("nan")
        return DelayStats(0, nan, nan, nan, nan)
    return DelayStats(
        count=len(delays),
        mean_s=float(delays.mean()),
        median_s=float(np.median(delays)),
        p95_s=float(np.percentile(delays, 95)),
        max_s=float(delays.max()),
    )
