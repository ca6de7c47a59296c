"""Evaluation metrics: goodput, PDR, delay, routing overhead.

The collector records raw per-packet events during a run; the metric
functions aggregate them afterwards into exactly the quantities paper
Section IV-C reports (goodput time-series per sender, PDR per sender) plus
the future-work metrics the conclusion names (routing overhead, delay).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CampaignTelemetry": "repro.metrics.collector:CampaignTelemetry",
    "ChannelTelemetry": "repro.metrics.collector:ChannelTelemetry",
    "FaultEvent": "repro.metrics.collector:FaultEvent",
    "TrialRecord": "repro.metrics.collector:TrialRecord",
    "MetricsCollector": "repro.metrics.collector:MetricsCollector",
    "availability": "repro.metrics.resilience:availability",
    "pdr_timeline": "repro.metrics.resilience:pdr_timeline",
    "recovery_times_s": "repro.metrics.resilience:recovery_times_s",
    "goodput_series": "repro.metrics.goodput:goodput_series",
    "total_goodput_bps": "repro.metrics.goodput:total_goodput_bps",
    "packet_delivery_ratio": "repro.metrics.pdr:packet_delivery_ratio",
    "pdr_by_flow": "repro.metrics.pdr:pdr_by_flow",
    "delay_stats": "repro.metrics.delay:delay_stats",
    "mean_delay": "repro.metrics.delay:mean_delay",
    "control_overhead": "repro.metrics.overhead:control_overhead",
    "normalized_routing_load": "repro.metrics.overhead:normalized_routing_load",
    "TraceEvent": "repro.metrics.tracefile:TraceEvent",
    "render_packet_trace": "repro.metrics.tracefile:render_packet_trace",
    "parse_packet_trace": "repro.metrics.tracefile:parse_packet_trace",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
