"""CAVENET reproduction: a VANET simulation toolkit.

This package reproduces the system described in *"Improvement and Performance
Evaluation of CAVENET: A Network Simulation Tool for Vehicular Networks"*
(Barolli et al., ICDCS Workshops 2010).  It provides the two blocks of the
CAVENET architecture:

* the **Behavioural Analyzer** — a Nagel-Schreckenberg cellular-automaton
  mobility model with lane geometry, trace generation, and statistical
  analysis tools (:mod:`repro.ca`, :mod:`repro.mobility`,
  :mod:`repro.geometry`, :mod:`repro.tracegen`, :mod:`repro.analysis`); and
* the **Communication Protocol Simulator** — a discrete-event wireless
  network simulator with an IEEE 802.11 DCF MAC, two-ray-ground propagation
  and the AODV, OLSR and DYMO routing protocols (:mod:`repro.des`,
  :mod:`repro.phy`, :mod:`repro.mac`, :mod:`repro.net`, :mod:`repro.routing`,
  :mod:`repro.traffic`, :mod:`repro.metrics`).

The high-level entry points live in :mod:`repro.core`:

>>> from repro.core import Scenario, CavenetSimulation
>>> scenario = Scenario(num_nodes=10, road_length_m=1000.0,
...                     sim_time_s=20.0, senders=(1, 2),
...                     traffic_start_s=5.0, traffic_stop_s=18.0)
>>> result = CavenetSimulation(scenario).run()
>>> 0.0 <= result.pdr(1) <= 1.0
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = ["Scenario", "CavenetSimulation", "__version__"]

# Importing repro stays cheap for consumers that need one subsystem (say,
# just the CA model): the facade classes load the network stack only when
# first referenced.
__getattr__, __dir__ = lazy_exports(__name__, {
    "Scenario": "repro.core.config:Scenario",
    "CavenetSimulation": "repro.core.simulation:CavenetSimulation",
})
