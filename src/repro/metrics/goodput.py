"""Goodput: application bytes delivered per unit time (Figs. 8-10).

The paper plots, for each sender, the goodput at the receiver in bits per
second over time.  ``goodput_series`` reproduces one ridge of those surfaces:
delivered bytes binned into windows, converted to bps.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.metrics.collector import MetricsCollector


def _deliveries(collector: MetricsCollector):
    """``(flow_id, time, size_bytes)`` of every delivery, in order."""
    delivered = collector.delivered
    return zip(
        delivered.column("flow_id"),
        delivered.column("time"),
        delivered.column("size_bytes"),
    )


def goodput_series(
    collector: MetricsCollector,
    flow_id: Optional[int],
    duration_s: float,
    bin_s: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-bin goodput of one flow (or all flows when ``flow_id`` is None).

    Returns ``(bin_centers_s, goodput_bps)`` covering ``[0, duration_s]``.
    """
    if bin_s <= 0:
        raise ValueError(f"bin_s must be > 0, got {bin_s}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    num_bins = int(np.ceil(duration_s / bin_s))
    edges = bin_s * np.arange(num_bins + 1)
    bits = np.zeros(num_bins)
    for flow, time, size_bytes in _deliveries(collector):
        if flow_id is not None and flow != flow_id:
            continue
        index = min(int(time / bin_s), num_bins - 1)
        bits[index] += size_bytes * 8
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, bits / bin_s


def total_goodput_bps(
    collector: MetricsCollector,
    flow_id: Optional[int],
    start_s: float,
    stop_s: float,
) -> float:
    """Average goodput of a flow over ``[start_s, stop_s]``."""
    if stop_s <= start_s:
        raise ValueError(f"need stop_s > start_s, got [{start_s}, {stop_s}]")
    bits = sum(
        size_bytes * 8
        for flow, time, size_bytes in _deliveries(collector)
        if (flow_id is None or flow == flow_id) and start_s <= time <= stop_s
    )
    return bits / (stop_s - start_s)
