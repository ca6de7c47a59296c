"""Mobility models and movement traces.

This package adapts the cell-space cellular automaton (:mod:`repro.ca`) into
plane-space movement traces consumable by the network simulator and the
trace exporters, and provides the Random Waypoint baseline whose velocity
decay problem motivates the paper's Section IV-B discussion.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "MobilityModel": "repro.mobility.base:MobilityModel",
    "CaMobility": "repro.mobility.ca_mobility:CaMobility",
    "Freeway": "repro.mobility.freeway:Freeway",
    "RandomWaypoint": "repro.mobility.random_waypoint:RandomWaypoint",
    "MobilityTrace": "repro.mobility.trace:MobilityTrace",
    "TracePlayer": "repro.mobility.trace:TracePlayer",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
