"""The traffic-source seam: what ``CavenetSimulation.build_traffic`` needs.

Any application traffic generator plugs into a run through two contracts:

* the **source object** — this class: ``start()`` schedules the emission
  pattern, ``stop()`` cancels it, ``packets_sent`` counts originations,
  ``detach()`` lets go of the finished run;
* the **registry factory** — ``factory(node, dst, *, scenario, flow_id,
  rng) -> TrafficSource`` registered under the ``"traffic"`` namespace of
  :mod:`repro.core.registry`; ``Scenario.traffic`` selects it by name and
  ``Scenario.traffic_options`` is passed through as extra keyword
  arguments.
"""

from __future__ import annotations

import abc


class TrafficSource(abc.ABC):
    """One flow's application-layer packet generator."""

    #: Originated packets (every concrete source maintains this).
    packets_sent: int = 0

    @abc.abstractmethod
    def start(self) -> None:
        """Schedule the emission pattern (call once, before running)."""

    @abc.abstractmethod
    def stop(self) -> None:
        """Cancel any pending emission."""

    def detach(self) -> None:
        """Drop the node, RNG stream and pending event once the run is
        over (the built-in sources' ``_node``, ``_rng`` and ``_event``).

        ``packets_sent`` and ``flow_id`` keep their values; a detached
        source cannot be started again.  A source holding other live
        objects overrides this to drop them too.
        """
        self._node = self._rng = self._event = None

    def __setstate__(self, state: dict) -> None:
        # A pickled source is a finished run's; one pickled before
        # results were detached still carries its node, RNG and event.
        self.__dict__.update(state)
        self.detach()
