"""The routing-protocol interface and shared machinery.

Every protocol sits at the network layer of a :class:`~repro.net.node.Node`:
data packets from applications enter through :meth:`route_output`, packets
to forward through :meth:`forward_data`, control packets through
:meth:`recv_control`, and MAC-level delivery failures through
:meth:`on_link_failure`.
"""

from __future__ import annotations

import abc
from typing import Any, Optional

import numpy as np

from repro.net.address import BROADCAST
from repro.net.packet import Packet
from repro.util import slots
from repro.util.errors import InvariantViolation

#: Hard ceiling on hops a packet may accumulate.  Every data packet starts
#: with ttl <= 64 and loses one per forward, so hops can never legitimately
#: reach this; exceeding it means a protocol is forwarding without
#: decrementing the TTL — a routing loop the TTL cannot kill.
MAX_HOPS = 256


class RoutingProtocol(abc.ABC):
    """Base class wiring a protocol instance to its node.

    The base declares ``__slots__``; a subclass that declares none (every
    protocol but AODV and DYMO, and third-party ones) keeps an instance
    ``__dict__`` for its own state.
    """

    __slots__ = ("node", "sim", "rng")
    __setstate__ = slots.setstate

    #: Protocol name used in packet kinds and registry lookups.
    name = "BASE"

    def __init__(self, node: "Node", rng: Optional[np.random.Generator] = None) -> None:
        self.node = node
        self.sim = node.sim
        self.rng = rng if rng is not None else np.random.default_rng(0)

    @property
    def address(self) -> int:
        """This node's address."""
        return self.node.node_id

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Arm periodic timers.  Called once after all nodes are built."""

    def reset_state(self) -> None:
        """Wipe volatile routing state (a node crash, see :mod:`repro.faults`).

        Called when the owning node fails: drop route tables, neighbour
        sets, duplicate caches and pending discoveries — everything the
        protocol learned from the network — but KEEP monotone sequence
        counters (post-recovery messages must not be mistaken for stale
        ones) and leave periodic timers armed (they draw from the node's
        RNG stream per firing; their sends are gated at the node while it
        is down).  Stateless protocols inherit this no-op.
        """

    # -- introspection ---------------------------------------------------------

    def next_hop_for(self, dst: int) -> Optional[int]:
        """The neighbour this node would currently forward ``dst`` via.

        ``None`` when no usable route exists (or the protocol has no
        notion of a next hop, like flooding).  Used by the routing audit
        (:mod:`repro.routing.audit`) to verify loop freedom.
        """
        return None

    # -- the four entry points -------------------------------------------------

    @abc.abstractmethod
    def route_output(self, packet: Packet) -> None:
        """Handle a locally originated data packet."""

    def forward_data(self, packet: Packet, prev_hop: int) -> None:
        """Handle a data packet in transit (default: TTL check + re-route).

        Subclasses that need reverse-route refreshing or buffering override
        this and usually still delegate to :meth:`route_output` logic.
        """
        self.check_ttl_guard(packet)
        if packet.ttl <= 1:
            self.node.drop(packet, "ttl_expired")
            return
        self.route_output(packet.copy_for_forwarding())

    def check_ttl_guard(self, packet: Packet) -> None:
        """Always-on loop guard: a packet's hop count must stay bounded.

        TTL decrementing is each protocol's responsibility; if one forgets
        (or resets TTL on forward), a routing loop circulates the packet
        forever and the simulation livelocks instead of failing.  This trips
        at :data:`MAX_HOPS` — far above any legitimate path length — and
        raises :class:`~repro.util.errors.InvariantViolation` carrying the
        packet's identity and position so the loop is reproducible.
        """
        if packet.hops >= MAX_HOPS:
            raise InvariantViolation(
                "packet exceeded the hop ceiling (routing loop outliving "
                "its TTL?)",
                protocol=self.name,
                node=self.address,
                packet_uid=packet.uid,
                kind=packet.kind,
                src=packet.src,
                dst=packet.dst,
                ttl=packet.ttl,
                hops=packet.hops,
                time=self.sim.now,
            )

    @abc.abstractmethod
    def recv_control(self, packet: Packet, prev_hop: int) -> None:
        """Handle one of this protocol's control packets."""

    def on_link_failure(self, packet: Packet, next_hop: int) -> None:
        """The MAC gave up delivering ``packet`` to ``next_hop``."""

    # -- send helpers ------------------------------------------------------------

    def send_control(
        self,
        kind: str,
        header: Any,
        size_bytes: int,
        next_hop: int,
        ttl: int = 1,
        jitter_s: float = 0.0,
    ) -> None:
        """Build and send a control packet.

        ``next_hop = BROADCAST`` sends link-local broadcast; ``jitter_s``
        delays the send by a uniform random amount in ``[0, jitter_s)``,
        which de-synchronises flooding storms (every real implementation of
        these protocols jitters its broadcasts).
        """
        packet = Packet(
            kind=kind,
            src=self.address,
            dst=next_hop if next_hop != BROADCAST else BROADCAST,
            size_bytes=size_bytes,
            created_at=self.sim.now,
            ttl=ttl,
            header=header,
        )
        if jitter_s > 0:
            delay = float(self.rng.uniform(0.0, jitter_s))
            self.sim.schedule(delay, self.node.send_via, packet, next_hop)
        else:
            self.node.send_via(packet, next_hop)
