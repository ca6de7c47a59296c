"""The Nagel-Schreckenberg cellular-automaton traffic model.

This is the microscopic mobility core of CAVENET (paper Section III-A): a
1-dimensional CA whose three rules (accelerate, brake to the gap, move — plus
the stochastic dawdling rule 2') reproduce the laminar and jammed regimes of
real highway traffic.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Boundary": "repro.ca.boundary:Boundary",
    "NagelSchreckenberg": "repro.ca.nasch:NagelSchreckenberg",
    "MultiLaneRoad": "repro.ca.multilane:MultiLaneRoad",
    "CrossingRoads": "repro.ca.intersection:CrossingRoads",
    "VehicleState": "repro.ca.vehicle:VehicleState",
    "CaHistory": "repro.ca.history:CaHistory",
    "evolve": "repro.ca.history:evolve",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
