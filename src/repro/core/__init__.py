"""High-level CAVENET API: scenarios, the simulation facade, experiments.

This package glues the Behavioural Analyzer to the Communication Protocol
Simulator exactly the way paper Fig. 2 draws it: a :class:`Scenario`
describes the road, traffic and protocol; :class:`CavenetSimulation` runs
the CA mobility, turns it into a trace, replays the trace under the network
stack and returns a :class:`SimulationResult`; :mod:`repro.core.experiment`
sweeps protocols and parameters for the evaluation figures;
:mod:`repro.core.registry` is the component seam every component name
resolves through, one namespace per kind (``registry.KINDS``).

Exports are lazy (PEP 562, like :mod:`repro` itself) so that leaf modules
— :mod:`repro.routing`, :mod:`repro.kernels` — can import
:mod:`repro.core.registry` without dragging the whole facade (and a
circular import) in behind it.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Scenario": "repro.core.config:Scenario",
    "CavenetSimulation": "repro.core.simulation:CavenetSimulation",
    "SimulationResult": "repro.core.simulation:SimulationResult",
    "ProtocolComparison": "repro.core.experiment:ProtocolComparison",
    "compare_protocols": "repro.core.experiment:compare_protocols",
    "goodput_surface": "repro.core.experiment:goodput_surface",
    "TrialOutcome": "repro.core.runner:TrialOutcome",
    "TrialRunner": "repro.core.runner:TrialRunner",
    "TrialSpec": "repro.core.runner:TrialSpec",
    "run_trials": "repro.core.runner:run_trials",
    "SweepPoint": "repro.core.sweep:SweepPoint",
    "SweepResult": "repro.core.sweep:SweepResult",
    "run_sweep": "repro.core.sweep:run_sweep",
    "sweep_scenario": "repro.core.sweep:sweep_scenario",
    "registry": "repro.core.registry",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
