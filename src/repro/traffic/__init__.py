"""Application-layer traffic: pluggable sources and sinks.

Table I's CBR generator is the default entry of the ``traffic`` registry
namespace; a Poisson on/off source ships alongside it, and third-party
generators register with ``@register("traffic", name)`` (see
:mod:`repro.core.registry`).  A factory receives the originating node, the
destination, the scenario and a dedicated RNG stream, and returns a
started-able :class:`~repro.traffic.base.TrafficSource`;
``Scenario.traffic_options`` is forwarded as extra keyword arguments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.traffic.cbr import CbrSource
    from repro.traffic.poisson import PoissonOnOffSource

_EXPORTS = {
    "CbrSource": "repro.traffic.cbr:CbrSource",
    "PoissonOnOffSource": "repro.traffic.poisson:PoissonOnOffSource",
    "Sink": "repro.traffic.sink:Sink",
    "TrafficSource": "repro.traffic.base:TrafficSource",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)


def _make_cbr(node, dst, *, scenario, flow_id, rng, **options) -> CbrSource:
    """Table I's constant-bit-rate source, shaped by the scenario's
    ``cbr_rate_pps``/``cbr_size_bytes`` knobs and traffic window.

    The start jitter (which breaks the lock-step phase of many sources
    started together) is the same expression the pre-registry wiring used,
    so default-scenario runs are bit-identical.
    """
    kwargs = dict(
        rate_pps=scenario.cbr_rate_pps,
        size_bytes=scenario.cbr_size_bytes,
        start_s=scenario.traffic_start_s,
        stop_s=scenario.traffic_stop_s,
        flow_id=flow_id,
        jitter_s=min(0.05, 1.0 / scenario.cbr_rate_pps / 4.0),
        rng=rng,
    )
    kwargs.update(options)  # traffic_options may override any default
    from repro.traffic.cbr import CbrSource

    return CbrSource(node, dst, **kwargs)


# Historical per-flow stream name ("cbr-<flow>"), predating the registry;
# keeping it makes registry-dispatched default runs bit-identical.
_make_cbr.rng_stream_prefix = "cbr"


def _make_poisson(
    node, dst, *, scenario, flow_id, rng, **options
) -> PoissonOnOffSource:
    """Bursty Poisson on/off source over the scenario's traffic window;
    ``traffic_options`` supplies ``on_mean_s``/``off_mean_s``."""
    kwargs = dict(
        rate_pps=scenario.cbr_rate_pps,
        size_bytes=scenario.cbr_size_bytes,
        start_s=scenario.traffic_start_s,
        stop_s=scenario.traffic_stop_s,
        flow_id=flow_id,
        rng=rng,
    )
    kwargs.update(options)  # traffic_options may override any default
    from repro.traffic.poisson import PoissonOnOffSource

    return PoissonOnOffSource(node, dst, **kwargs)
