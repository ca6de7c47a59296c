"""Routing overhead metrics (named as future work in the paper's
conclusion; implemented here as part of the extension surface)."""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict

from repro.metrics.collector import MetricsCollector


@dataclasses.dataclass(frozen=True)
class ControlOverhead:
    """Control traffic totals.

    Attributes:
        packets: routing-control packets handed to MACs (per-hop count).
        bytes: their total network-layer bytes.
        by_kind: packet count per control kind (e.g. ``AODV_RREQ``).
    """

    packets: int
    bytes: int
    by_kind: Dict[str, int]


def control_overhead(collector: MetricsCollector) -> ControlOverhead:
    """Total routing-control transmissions recorded during the run."""
    by_kind: Dict[str, int] = collections.defaultdict(int)
    events = collector.control_transmissions()
    for kind in events.column("kind"):
        by_kind[kind] += 1
    return ControlOverhead(
        packets=len(events),
        bytes=sum(events.column("size_bytes")),
        by_kind=dict(by_kind),
    )


def normalized_routing_load(collector: MetricsCollector) -> float:
    """Control transmissions per delivered data packet.

    The standard MANET overhead metric; infinity when control packets were
    sent but nothing was delivered, and 0.0 for an entirely silent run.
    """
    control = len(collector.control_transmissions())
    delivered = collector.num_delivered
    if delivered == 0:
        return float("inf") if control > 0 else 0.0
    return control / delivered
