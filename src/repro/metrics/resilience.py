"""Resilience metrics: how traffic weathers injected faults.

Three views over one run's collector, all keyed off the fault timeline
recorded by :meth:`~repro.metrics.collector.MetricsCollector.record_fault`:

* :func:`pdr_timeline` — PDR per time window, the raw dip-and-rebound
  curve of an outage;
* :func:`availability` — fraction of traffic-carrying windows whose PDR
  clears a threshold, a single-number "how often was the network usable";
* :func:`recovery_times_s` — per ``node_up`` transition, how long until
  traffic flows again: the route re-convergence time of the protocol
  under test.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.metrics.collector import MetricsCollector


def pdr_timeline(
    collector: MetricsCollector, sim_time_s: float, bin_s: float = 1.0
) -> List[Tuple[float, float]]:
    """Per-window PDR: ``[(window_start_s, pdr), ...]``.

    Packets are attributed to the window they were *originated* in, and
    count as delivered if they arrived at any later point — so a window
    during an outage shows the fate of the traffic offered during it,
    which is the quantity availability and recovery care about.  Windows
    with no offered traffic report NaN (distinguishable from a true 0.0).
    """
    if bin_s <= 0:
        raise ValueError(f"bin_s must be > 0, got {bin_s}")
    num_bins = max(1, int(math.ceil(sim_time_s / bin_s)))
    offered = [0] * num_bins
    delivered_uids = set(collector.delivered.column("uid"))
    got = [0] * num_bins
    originated = collector.originated
    for time, uid in zip(originated.column("time"), originated.column("uid")):
        index = min(int(time / bin_s), num_bins - 1)
        offered[index] += 1
        if uid in delivered_uids:
            got[index] += 1
    return [
        (
            index * bin_s,
            got[index] / offered[index] if offered[index] else math.nan,
        )
        for index in range(num_bins)
    ]


def availability(
    collector: MetricsCollector,
    sim_time_s: float,
    bin_s: float = 1.0,
    threshold: float = 0.5,
) -> float:
    """Fraction of traffic-carrying windows with PDR >= ``threshold``.

    Windows without offered traffic are excluded (they say nothing about
    the network).  Returns NaN when no window carried traffic at all.
    """
    carrying = [
        pdr
        for _start, pdr in pdr_timeline(collector, sim_time_s, bin_s)
        if not math.isnan(pdr)
    ]
    if not carrying:
        return math.nan
    return sum(1 for pdr in carrying if pdr >= threshold) / len(carrying)


def recovery_times_s(collector: MetricsCollector) -> Dict[float, float]:
    """Route re-convergence after each recovery: ``{node_up_time: gap_s}``.

    For every ``node_up`` fault event, the gap until the *next delivery
    anywhere* — once a crashed node is back, end-to-end traffic resuming
    is exactly the protocol having re-converged around it.  NaN when
    nothing was ever delivered after the recovery.  Keyed by the
    recovery's simulation time (unique per event; a dict keyed by node
    would collapse repeated churn cycles).
    """
    delivery_times = sorted(collector.delivered.column("time"))
    out: Dict[float, float] = {}
    for event in collector.fault_events:
        if event.kind != "node_up":
            continue
        gap = math.nan
        for time in delivery_times:
            if time > event.time:
                gap = time - event.time
                break
        out[event.time] = gap
    return out
