"""Packet Delivery Ratio (paper Fig. 11)."""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.metrics.collector import MetricsCollector


def packet_delivery_ratio(
    collector: MetricsCollector, flow_id: Optional[int] = None
) -> float:
    """Delivered / originated for one flow (or overall with ``None``).

    Returns 0.0 when the flow originated nothing (an empty flow delivered
    nothing, and reporting NaN would poison downstream aggregation).
    """
    sent = sum(
        1
        for flow in collector.originated.column("flow_id")
        if flow_id is None or flow == flow_id
    )
    if sent == 0:
        return 0.0
    received = sum(
        1
        for flow in collector.delivered.column("flow_id")
        if flow_id is None or flow == flow_id
    )
    return received / sent


def pdr_by_flow(
    collector: MetricsCollector, flows: Optional[Iterable[int]] = None
) -> Dict[int, float]:
    """PDR of every observed — and every configured — flow.

    The report covers the union of flows seen in ``originated``, flows
    seen in ``delivered`` (a flow can deliver without originating when a
    trace is replayed partially), and the explicitly ``flows`` passed by
    the caller (the scenario's configured flow ids).  A configured flow
    that never sent a packet — say its source crashed at t=0 — appears
    with an explicit 0.0 instead of silently vanishing from the dict,
    so fault runs cannot hide dead flows.
    """
    seen = set(collector.originated.column("flow_id"))
    seen |= set(collector.delivered.column("flow_id"))
    seen.discard(None)
    if flows is not None:
        seen |= set(flows)
    return {flow: packet_delivery_ratio(collector, flow) for flow in sorted(seen)}
