"""The CAVENET pipeline: CA mobility -> trace -> network simulation.

This is the executable version of paper Fig. 2: the Behavioural Analyzer
(cellular automaton + lane geometry) produces a movement trace, which the
Communication Protocol Simulator (DES + PHY + MAC + routing + traffic)
replays.  The two stages stay decoupled — the trace in the middle is the
same object the ns-2 exporter serialises.

Every component choice (lane boundary, initial placement, propagation
model, routing protocol, traffic source) is resolved by *name* through
:mod:`repro.core.registry`; there is no literal dispatch here, so a
third-party component registered with ``@register(kind, name)`` runs
end to end without editing this module.  :meth:`CavenetSimulation.run`
is a thin orchestrator over overridable ``build_*`` stages — subclasses
swap a single stage (say, a custom channel) and inherit the rest.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro import metrics as _metrics
from repro.core import registry
from repro.core.config import Scenario
from repro.des.engine import Simulator
from repro.mac.dcf import MacStats
from repro.metrics.collector import MetricsCollector
from repro.mobility.ca_mobility import CaMobility
from repro.mobility.trace import MobilityTrace, TracePlayer
from repro.net.node import Node
from repro.phy.channel import CachedPositionProvider, Channel
from repro.phy.energy import EnergyMeter
from repro.phy.params import PhyParams
from repro.phy.propagation import PropagationModel
from repro.routing import make_protocol
from repro.traffic.base import TrafficSource
from repro.traffic.sink import Sink
from repro.util.errors import ConfigError
from repro.util.rng import RngStreams

if TYPE_CHECKING:  # the analysis metrics load when a result is read
    from repro.metrics.delay import DelayStats
    from repro.metrics.overhead import ControlOverhead


@dataclasses.dataclass
class SimulationResult:
    """Everything measured in one run, with metric accessors.

    A result is detached data: :meth:`CavenetSimulation.run` cuts every
    link to the finished network before returning it, so no simulator,
    channel, radio, node or routing table is reachable from it, and
    pickling one (a campaign worker, a journal line) stores only what
    was measured.  The collector, sinks, sources and energy meters are
    snapshots taken when the run ended; detached sources and meters
    cannot be restarted.

    Attributes:
        scenario: the configuration that produced this result.
        collector: raw packet events, stored as columns (see
            :class:`~repro.metrics.collector.MetricsCollector`).
        trace: the mobility trace the run replayed.
        sink: the receiver's sink (per-flow receptions).
        sources: the traffic sources, keyed by flow id (their
            ``packets_sent`` and ``flow_id`` only).
        sinks: per-destination sinks, keyed by node id.
        mac_stats: per-node MAC counters.
        frames_on_air: total frames the channel carried.
        energy: per-node energy meters (ns-2 EnergyModel-style), their
            readings frozen at the end of the run.
    """

    scenario: Scenario
    collector: MetricsCollector
    trace: MobilityTrace
    sink: Sink
    sources: Dict[int, TrafficSource]
    sinks: Dict[int, Sink]
    mac_stats: Dict[int, MacStats]
    frames_on_air: int
    energy: Dict[int, EnergyMeter]

    def total_energy_j(self) -> float:
        """Joules consumed by all radios over the run."""
        return sum(meter.consumed_j() for meter in self.energy.values())

    @property
    def channel_telemetry(self):
        """PHY/channel health counters (link-cache hit rate, deliveries,
        carrier-sense drops, simulator events) — see
        :class:`repro.metrics.collector.ChannelTelemetry`."""
        return self.collector.channel

    def pdr(self, flow_id: Optional[int] = None) -> float:
        """Packet delivery ratio of one flow (or overall)."""
        return _metrics.packet_delivery_ratio(self.collector, flow_id)

    def pdr_per_sender(self) -> Dict[int, float]:
        """PDR per sender (flow ids are sender ids) — Fig. 11's bars.

        Every configured flow appears, with an explicit 0.0 when it
        never delivered (or never even originated — a source down for
        the whole traffic window must not vanish from the report).
        """
        configured = [fid for fid, _src, _dst in self.scenario.traffic_flows()]
        return _metrics.pdr_by_flow(self.collector, configured)

    # -- resilience (fault-injection) accessors ------------------------------

    @property
    def fault_events(self):
        """Fault transitions recorded during the run (empty when the
        scenario declared no faults) — see
        :class:`repro.metrics.collector.FaultEvent`."""
        return self.collector.fault_events

    def pdr_timeline(self, bin_s: float = 1.0):
        """Per-window PDR ``[(window_start_s, pdr), ...]`` — the
        dip-and-rebound curve of an outage."""
        return _metrics.pdr_timeline(
            self.collector, self.scenario.sim_time_s, bin_s
        )

    def availability(
        self, bin_s: float = 1.0, threshold: float = 0.5
    ) -> float:
        """Fraction of traffic-carrying windows with PDR >= threshold."""
        return _metrics.availability(
            self.collector, self.scenario.sim_time_s, bin_s, threshold
        )

    def recovery_times_s(self) -> Dict[float, float]:
        """Re-convergence gap after each ``node_up`` transition."""
        return _metrics.recovery_times_s(self.collector)

    def goodput_series(
        self, flow_id: Optional[int] = None, bin_s: float = 1.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Goodput over time for one sender — one ridge of Figs. 8-10."""
        return _metrics.goodput_series(
            self.collector, flow_id, self.scenario.sim_time_s, bin_s
        )

    def mean_goodput_bps(self, flow_id: Optional[int] = None) -> float:
        """Average goodput over the traffic window."""
        return _metrics.total_goodput_bps(
            self.collector,
            flow_id,
            self.scenario.traffic_start_s,
            self.scenario.sim_time_s,
        )

    def delay_stats(self, flow_id: Optional[int] = None) -> DelayStats:
        """End-to-end delay summary."""
        return _metrics.delay_stats(self.collector, flow_id)

    def control_overhead(self) -> ControlOverhead:
        """Routing-control transmissions."""
        return _metrics.control_overhead(self.collector)

    def normalized_routing_load(self) -> float:
        """Control transmissions per delivered data packet."""
        return _metrics.normalized_routing_load(self.collector)


class CavenetSimulation:
    """Build and run one scenario end to end.

    :meth:`run` chains the ``build_*`` stages below; each is a seam a
    subclass can override independently (swap the channel, inject
    pre-built nodes, wrap traffic sources) while everything else —
    including RNG stream wiring and metric collection — stays stock.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario

    # -- stage 1: Behavioural Analyzer ---------------------------------------

    def build_mobility(self) -> CaMobility:
        """Construct the CA + lane geometry for the scenario.

        The lane (``boundary`` registry) and the vehicle placement
        (``mobility`` registry) are both resolved by name; the placement
        factory receives the boundary and the dedicated ``"mobility"``
        RNG stream, so identical names draw identical randomness.
        """
        scenario = self.scenario
        streams = RngStreams(scenario.seed)
        layout, boundary = registry.resolve("boundary", scenario.boundary)(
            scenario
        )
        model = registry.resolve("mobility", scenario.initial_placement)(
            scenario, boundary, streams.stream("mobility")
        )
        return CaMobility(model, layout)

    def generate_trace(self) -> MobilityTrace:
        """Run the mobility model and emit the (warmed-up, re-based) trace."""
        scenario = self.scenario
        mobility = self.build_mobility()
        mobility.model.run(scenario.mobility_warmup_steps)
        trace = mobility.sample(scenario.sim_time_s)
        # The sample() clock continues from the warm-up; the network
        # simulation starts at 0, so re-base the trace.
        return MobilityTrace(
            times=trace.times - trace.times[0],
            positions=trace.positions,
            teleported=trace.teleported,
        )

    # -- stage 2: Communication Protocol Simulator ------------------------------

    def build_propagation(self, streams: RngStreams) -> PropagationModel:
        """Resolve the scenario's propagation model through the registry."""
        return registry.resolve("propagation", self.scenario.propagation)(
            self.scenario, streams
        )

    def build_tech(self):
        """Resolve the scenario's radio-technology profile.

        The factory comes from the ``tech`` registry and receives the
        scenario plus ``Scenario.tech_options`` as keyword arguments.
        Deterministic and stream-free, so calling it more than once per
        run (``build_nodes`` for the MACs, :meth:`run` for the energy
        meters) costs nothing and cannot perturb RNG state.
        """
        scenario = self.scenario
        factory = registry.resolve("tech", scenario.tech)
        try:
            return factory(scenario, **scenario.tech_options)
        except TypeError as exc:
            raise ConfigError(
                f"tech profile {scenario.tech!r} has bad options: {exc}"
            ) from exc

    def build_effects(self, streams: RngStreams) -> List[object]:
        """Instantiate the scenario's channel-effect stack, in order.

        Each spec in ``Scenario.effects`` resolves through the
        ``effect`` registry; the factory receives the scenario, the
        run's :class:`~repro.util.rng.RngStreams` and a per-effect
        stream-name prefix (``"effect-<index>"`` — per-frame effects
        derive per-sender streams from it).  An empty ``effects`` list
        returns immediately — no import of :mod:`repro.phy.effects`,
        no streams created, so effect-free runs stay bit-identical to
        runs predating the effect stack.
        """
        scenario = self.scenario
        if not scenario.effects:
            return []
        effects: List[object] = []
        for index, spec in enumerate(scenario.effects):
            options = dict(spec)
            kind = options.pop("kind")
            factory = registry.resolve("effect", kind)
            try:
                effect = factory(
                    scenario, streams, f"effect-{index}", **options
                )
            except TypeError as exc:
                raise ConfigError(
                    f"effect spec {index} ({kind!r}) has bad options: {exc}"
                ) from exc
            effects.append(effect)
        return effects

    def build_spatial(self):
        """Resolve the scenario's neighbor-culling index (None = dense).

        The factory comes from the ``spatial`` registry; the built-in
        ``"grid"`` entry derives its cell size from the carrier-sense
        radius (or ``Scenario.cull_radius_m``) and raises
        :class:`~repro.util.errors.ConfigError` if the cull radius does
        not cover the maximum link range.
        """
        return registry.resolve("spatial", self.scenario.spatial)(
            self.scenario
        )

    def build_channel(
        self, sim: Simulator, streams: RngStreams, trace: MobilityTrace
    ) -> Tuple[Channel, PhyParams]:
        """Wire trace playback, propagation and PHY thresholds into a channel."""
        scenario = self.scenario
        player = TracePlayer(trace)
        provider = CachedPositionProvider(
            player, sim, scenario.position_cache_dt_s
        )
        # Thresholds derived so the chosen propagation model yields the
        # scenario's TX/CS ranges; for_ranges works on the model's
        # deterministic mean/median power, so stochastic models need no
        # special-cased sigma-0 twin and consume no randomness here.
        propagation = self.build_propagation(streams)
        phy_params = PhyParams.for_ranges(
            propagation, scenario.tx_range_m, scenario.cs_range_m
        )
        channel = Channel(
            sim,
            propagation,
            provider.positions,
            spatial=self.build_spatial(),
            effects=self.build_effects(streams),
        )
        return channel, phy_params

    def build_nodes(
        self,
        sim: Simulator,
        channel: Channel,
        phy_params: PhyParams,
        metrics: MetricsCollector,
        streams: RngStreams,
    ) -> List[Node]:
        """Create every node with its MAC, radio and routing protocol.

        Each node gets its own ``"mac-<id>"`` and ``"routing-<id>"``
        streams; the protocol comes from the ``routing`` registry via
        :func:`repro.routing.make_protocol`.  Each MAC keeps its own
        contention state (see :class:`~repro.mac.dcf.Mac80211`).
        """
        scenario = self.scenario
        tech = self.build_tech()
        nodes: List[Node] = []
        for node_id in range(scenario.num_nodes):
            node = Node(
                sim,
                node_id,
                channel,
                phy_params,
                scenario.mac_params,
                metrics,
                rng=streams.stream(f"mac-{node_id}"),
                tech=tech,
            )
            protocol = make_protocol(
                scenario.protocol,
                node,
                streams.stream(f"routing-{node_id}"),
                **scenario.protocol_options,
            )
            node.set_routing(protocol)
            nodes.append(node)
        return nodes

    def build_traffic(
        self, nodes: List[Node], streams: RngStreams
    ) -> Tuple[Dict[int, TrafficSource], Dict[int, Sink]]:
        """Instantiate sinks and (started) traffic sources for every flow.

        The source factory is the scenario's ``traffic`` registry entry;
        it receives the per-flow RNG stream and the scenario, with
        ``Scenario.traffic_options`` forwarded as keyword overrides.  A
        factory may carry an ``rng_stream_prefix`` attribute naming its
        per-flow streams (the built-in CBR keeps its historical
        ``"cbr-<flow>"`` name so default runs stay bit-identical);
        everything else gets ``"traffic-<flow>"``.
        """
        scenario = self.scenario
        factory = registry.resolve("traffic", scenario.traffic)
        stream_prefix = getattr(factory, "rng_stream_prefix", "traffic")
        sinks: Dict[int, Sink] = {
            scenario.receiver: Sink(nodes[scenario.receiver])
        }
        sources: Dict[int, TrafficSource] = {}
        for flow_id, src, dst in scenario.traffic_flows():
            if dst not in sinks:
                sinks[dst] = Sink(nodes[dst])
            source = factory(
                nodes[src],
                dst,
                scenario=scenario,
                flow_id=flow_id,
                rng=streams.stream(f"{stream_prefix}-{flow_id}"),
                **scenario.traffic_options,
            )
            source.start()
            sources[flow_id] = source
        return sources, sinks

    def build_faults(
        self,
        sim: Simulator,
        nodes: List[Node],
        channel: Channel,
        metrics: MetricsCollector,
        streams: RngStreams,
    ) -> List[object]:
        """Instantiate and arm the scenario's fault models.

        Each spec in ``Scenario.faults`` resolves through the ``fault``
        registry; the factory receives a
        :class:`~repro.faults.base.FaultContext` plus the spec's options
        and its own ``"fault-<index>"`` RNG stream.  An empty ``faults``
        list returns immediately — no import of :mod:`repro.faults`, no
        streams created, so fault-free runs stay bit-identical to runs
        predating fault injection.
        """
        scenario = self.scenario
        if not scenario.faults:
            return []
        from repro.faults.base import FaultContext

        node_map = {node.node_id: node for node in nodes}
        models: List[object] = []
        for index, spec in enumerate(scenario.faults):
            options = dict(spec)
            kind = options.pop("kind")
            factory = registry.resolve("fault", kind)
            context = FaultContext(
                sim=sim,
                scenario=scenario,
                nodes=node_map,
                channel=channel,
                metrics=metrics,
                rng=streams.stream(f"fault-{index}"),
            )
            try:
                model = factory(context, **options)
            except TypeError as exc:
                raise ConfigError(
                    f"fault spec {index} ({kind!r}) has bad options: {exc}"
                ) from exc
            model.arm()
            models.append(model)
        return models

    def run(self, trace: Optional[MobilityTrace] = None) -> SimulationResult:
        """Execute the scenario and return its measurements.

        A pre-built ``trace`` (e.g. parsed from an ns-2 movement file)
        bypasses the Behavioural Analyzer stage, exercising the same
        decoupling the paper's two-block architecture is designed around.
        The returned result is detached from the finished network (see
        :class:`SimulationResult`).
        """
        scenario = self.scenario
        streams = RngStreams(scenario.seed)
        if trace is None:
            trace = self.generate_trace()
        if trace.num_nodes != scenario.num_nodes:
            raise ConfigError(
                f"trace has {trace.num_nodes} nodes, scenario expects "
                f"{scenario.num_nodes}"
            )

        sim = Simulator()
        channel, phy_params = self.build_channel(sim, streams, trace)
        metrics = MetricsCollector(sim)

        nodes = self.build_nodes(sim, channel, phy_params, metrics, streams)
        # Energy draw comes from the tech profile (per-technology
        # figures); the default profile's params equal EnergyParams(),
        # so default runs meter identically to before.
        energy_params = self.build_tech().energy
        energy = {
            node.node_id: EnergyMeter(sim, node.radio, energy_params)
            for node in nodes
        }
        for node in nodes:
            node.routing.start()

        sources, sinks = self.build_traffic(nodes, streams)
        self.build_faults(sim, nodes, channel, metrics, streams)

        sim.run(until=scenario.sim_time_s)
        metrics.record_channel(channel)
        metrics.record_energy(energy)
        # Results are plain data: drop every way back into the network.
        metrics.detach()
        for part in (*sinks.values(), *sources.values(), *energy.values()):
            part.detach()

        return SimulationResult(
            scenario=scenario,
            collector=metrics,
            trace=trace,
            sink=sinks[scenario.receiver],
            sources=sources,
            sinks=sinks,
            mac_stats={node.node_id: node.mac.stats for node in nodes},
            frames_on_air=channel.frames_transmitted,
            energy=energy,
        )
