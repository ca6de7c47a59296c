"""Node composition: radio + MAC + routing + applications.

A :class:`Node` owns one radio on the shared channel, an 802.11 MAC, a
routing agent (attached after construction, since protocols need the node)
and delivers application data to registered sinks.  It is the hub every
layer's callbacks route through.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.des.engine import Simulator
from repro.mac.dcf import Mac80211
from repro.mac.params import Mac80211Params
from repro.metrics.collector import MetricsCollector
from repro.net.address import BROADCAST
from repro.net.packet import DATA, Packet
from repro.phy.channel import Channel
from repro.phy.params import PhyParams
from repro.phy.radio import Radio
from repro.util import slots

#: Default TTL for data packets (ample for a 30-node circuit).
DATA_TTL = 32


class Node:
    """One vehicle's full network stack."""

    __slots__ = (
        "sim", "node_id", "metrics", "radio", "mac", "routing", "_sinks",
        "up", "blackhole",
    )
    __setstate__ = slots.setstate

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        channel: Channel,
        phy_params: PhyParams,
        mac_params: Mac80211Params,
        metrics: MetricsCollector,
        rng: Optional[np.random.Generator] = None,
        queue_capacity: int = 50,
        tech=None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.metrics = metrics
        self.radio = Radio(sim, node_id, phy_params, channel)
        self.mac = Mac80211(
            sim, self.radio, mac_params, rng, queue_capacity, tech=tech,
        )
        self.mac.attach_upper(self._mac_receive, self._mac_failure)
        self.routing: Optional["RoutingProtocol"] = None
        self._sinks: List[Callable[[Packet, int], None]] = []
        #: Fault state (see :mod:`repro.faults`): a down node neither
        #: sends nor receives; a blackhole node forwards control but
        #: drops transit DATA.
        self.up = True
        self.blackhole = False

    # -- wiring ------------------------------------------------------------

    def set_routing(self, protocol: "RoutingProtocol") -> None:
        """Attach the routing agent (exactly once)."""
        if self.routing is not None:
            raise RuntimeError(f"node {self.node_id} already has routing")
        self.routing = protocol

    def add_sink(self, callback: Callable[[Packet, int], None]) -> None:
        """Register ``callback(packet, prev_hop)`` for delivered data."""
        self._sinks.append(callback)

    # -- application entry point ----------------------------------------------

    def originate_data(
        self,
        dst: int,
        size_bytes: int,
        flow_id: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> Packet:
        """Inject an application data packet destined for ``dst``."""
        packet = Packet(
            kind=DATA,
            src=self.node_id,
            dst=dst,
            size_bytes=size_bytes,
            created_at=self.sim.now,
            ttl=DATA_TTL,
            flow_id=flow_id,
            seq=seq,
        )
        self.metrics.data_originated(packet)
        if not self.up:
            # Offered load still counts (the application tried), so
            # PDR-under-churn reflects the outage instead of hiding it.
            self.drop(packet, "node_down")
            return packet
        if self.routing is None:
            raise RuntimeError(f"node {self.node_id} has no routing agent")
        self.routing.route_output(packet)
        return packet

    # -- downward path -----------------------------------------------------------

    def send_via(self, packet: Packet, next_hop: int) -> None:
        """Hand a packet to the MAC for one hop (or broadcast).

        Routing control packets take priority in the interface queue
        (ns-2's PriQueue behaviour): route maintenance must not starve
        behind a data backlog.
        """
        if not self.up:
            # Before the transmission metric: a dead node's attempts must
            # not inflate control overhead.
            self.metrics.packet_dropped(packet, self.node_id, "node_down")
            return
        self.metrics.transmission(packet, self.node_id, next_hop)
        accepted = self.mac.enqueue(
            packet, next_hop, priority=not packet.is_data
        )
        if not accepted:
            self.metrics.packet_dropped(packet, self.node_id, "ifq_full")

    def drop(self, packet: Packet, reason: str) -> None:
        """Record a packet discard."""
        self.metrics.packet_dropped(packet, self.node_id, reason)

    def deliver_local(self, packet: Packet, prev_hop: int = -1) -> None:
        """Terminate a packet at this node even though ``packet.dst`` is
        not our address — the gateway case: an HNA-advertised external
        destination is reached once the packet arrives at its gateway."""
        self.metrics.data_delivered(packet, self.node_id)
        for sink in self._sinks:
            sink(packet, prev_hop)

    # -- upward path ---------------------------------------------------------------

    def _mac_receive(self, packet: Packet, prev_hop: int) -> None:
        if packet.kind == DATA:
            if packet.dst == self.node_id or packet.dst == BROADCAST:
                self.metrics.data_delivered(packet, self.node_id)
                for sink in self._sinks:
                    sink(packet, prev_hop)
            elif self.blackhole:
                # Transit DATA is eaten; control and local delivery are
                # untouched, so routes keep pointing through us.
                self.drop(packet, "blackhole")
            elif self.routing is not None:
                # Loop guard at the single forwarding dispatch point: every
                # protocol's data path passes here, so a TTL-immortal loop
                # trips regardless of which implementation caused it.
                self.routing.check_ttl_guard(packet)
                self.routing.forward_data(packet, prev_hop)
            else:
                self.drop(packet, "no_routing_agent")
        elif self.routing is not None:
            self.routing.recv_control(packet, prev_hop)

    # -- fault injection -----------------------------------------------------

    def fail(self) -> None:
        """Crash this node: radio deaf, MAC wiped, routing state gone.

        Idempotent — a second crash while already down is a no-op, so
        overlapping fault specs cannot double-count drops.  Queued and
        in-service packets are recorded as ``node_down`` drops; the
        routing protocol's volatile state is reset so the network must
        re-converge around (and later back to) this node.
        """
        if not self.up:
            return
        self.up = False
        self.radio.disable()
        for packet, _next_hop in self.mac.fail():
            self.drop(packet, "node_down")
        if self.routing is not None:
            self.routing.reset_state()
        self.metrics.record_fault("node_down", self.node_id)

    def recover(self) -> None:
        """Bring a crashed node back up with amnesia (cold boot)."""
        if self.up:
            return
        self.up = True
        self.radio.enable()
        self.mac.recover()
        self.metrics.record_fault("node_up", self.node_id)

    def _mac_failure(self, packet: Packet, next_hop: int) -> None:
        if self.routing is not None:
            self.routing.on_link_failure(packet, next_hop)
        else:
            self.drop(packet, "retry_limit")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        protocol = type(self.routing).__name__ if self.routing else "none"
        return f"<Node {self.node_id} routing={protocol}>"
