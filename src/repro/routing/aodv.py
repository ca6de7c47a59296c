"""Ad-hoc On-demand Distance Vector routing (RFC 3561 style).

Paper Section III-B.2: routes are created only when needed.  A source
floods a Route Request (RREQ); intermediate nodes learn the reverse path;
the destination — or an intermediate node with a fresh-enough route —
returns a Route Reply (RREP) along it.  Periodic HELLOs detect link
breakage, which triggers Route Error (RERR) propagation.  Data packets
awaiting discovery wait in a per-destination buffer.

The buffer, discovery retries, neighbour upkeep and RERR handling are
the reactive core AODV shares with DYMO
(:class:`~repro.routing.reactive.ReactiveProtocol`).  This module adds
AODV's own parts: the RREQ/RREP/HELLO formats and handlers, replies from
intermediate nodes with a fresh-enough route, precursor lists, and the
refresh of active routes (and their next hops) on use.
"""

from __future__ import annotations

import dataclasses

from repro.net.address import BROADCAST
from repro.net.packet import Packet
from repro.routing.reactive import ReactiveProtocol
from repro.util import slots

# Pickles made before the reactive core name these classes here.
from repro.routing.reactive import RerrHeader, _Discovery  # noqa: F401

RREQ = "AODV_RREQ"
RREP = "AODV_RREP"
RERR = "AODV_RERR"
HELLO = "AODV_HELLO"

#: Network-layer control sizes in bytes (RFC 3561 message formats).
RREQ_SIZE = 24
RREP_SIZE = 20
HELLO_SIZE = 20


@dataclasses.dataclass(frozen=True)
class AodvConfig:
    """Protocol constants (RFC 3561 defaults; hello per paper Table I).

    ``expanding_ring`` enables the RFC 3561 s6.4 expanding-ring search:
    RREQs start with a small TTL (``ttl_start``) and widen by
    ``ttl_increment`` per attempt until ``ttl_threshold``, after which
    full-diameter floods (with ``rreq_retries`` retries) take over.  It
    trades discovery latency for flood containment; disabled by default to
    match the plain flooding the paper's era of ns-2 AODV used.
    """

    hello_interval_s: float = 1.0
    allowed_hello_loss: int = 2
    active_route_timeout_s: float = 3.0
    my_route_timeout_s: float = 6.0
    net_diameter: int = 35
    node_traversal_time_s: float = 0.04
    rreq_retries: int = 2
    buffer_capacity: int = 64
    broadcast_jitter_s: float = 0.01
    expanding_ring: bool = False
    ttl_start: int = 1
    ttl_increment: int = 2
    ttl_threshold: int = 7

    def __post_init__(self) -> None:
        if self.ttl_increment < 1:
            # The expanding ring would never pass ttl_threshold.
            raise ValueError(
                f"ttl_increment must be >= 1, got {self.ttl_increment}"
            )

    @property
    def net_traversal_time_s(self) -> float:
        """Worst-case round trip across the network (RFC 3561 s10)."""
        return 2.0 * self.node_traversal_time_s * self.net_diameter

    @property
    def path_discovery_time_s(self) -> float:
        """How long discovery state (and buffered data) stays alive."""
        return 2.0 * self.net_traversal_time_s

    @property
    def neighbor_lifetime_s(self) -> float:
        """Link considered broken after this long without a HELLO."""
        return self.allowed_hello_loss * self.hello_interval_s

    @property
    def ring_attempts(self) -> int:
        """How many limited-TTL attempts the expanding ring makes."""
        if not self.expanding_ring:
            return 0
        count = 0
        ttl = self.ttl_start
        while ttl <= self.ttl_threshold:
            count += 1
            ttl += self.ttl_increment
        return count

    def rreq_ttl(self, attempt: int) -> int:
        """TTL of the RREQ for the given (0-based) discovery attempt."""
        if not self.expanding_ring:
            return self.net_diameter
        ttl = self.ttl_start + self.ttl_increment * attempt
        return ttl if ttl <= self.ttl_threshold else self.net_diameter

    def rreq_timeout_s(self, attempt: int) -> float:
        """How long to wait for an RREP after the given attempt."""
        ttl = self.rreq_ttl(attempt)
        if ttl < self.net_diameter:
            # RFC 3561 s6.4: ring traversal time for a limited flood.
            return 2.0 * self.node_traversal_time_s * (ttl + 2)
        full_attempt = max(attempt - self.ring_attempts, 0)
        return self.net_traversal_time_s * (2**full_attempt)

    @property
    def max_discovery_attempts(self) -> int:
        """Ring attempts plus the full-diameter attempt and its retries."""
        return self.ring_attempts + self.rreq_retries + 1


#: The configuration every agent built without one shares (frozen).
_DEFAULT_CONFIG = AodvConfig()


@dataclasses.dataclass(frozen=True)
class RreqHeader:
    """Route Request contents."""

    rreq_id: int
    orig: int
    orig_seq: int
    dst: int
    dst_seq: int  # 0 = unknown
    hops: int


@dataclasses.dataclass(frozen=True)
class RrepHeader:
    """Route Reply (and HELLO) contents."""

    orig: int  # who the reply travels to (the discoverer)
    dst: int  # the discovered destination
    dst_seq: int
    hops: int
    lifetime_s: float


class Aodv(ReactiveProtocol):
    """One node's AODV agent."""

    __slots__ = ()

    name = "AODV"
    RREQ, RREP, RERR, HELLO = RREQ, RREP, RERR, HELLO  # the module's kinds
    default_config = _DEFAULT_CONFIG

    # Agents pickled before the reactive core stored the message id and
    # the duplicate cache under these names.
    _rreq_id = slots.renamed("_msg_id")
    _seen_rreqs = slots.renamed("_seen")

    # -- data path -------------------------------------------------------------

    def route_output(self, packet: Packet) -> None:
        now = self.sim.now
        entry = self.table.lookup(packet.dst, now)
        if entry is not None:
            self._refresh_active(packet.dst, entry.next_hop)
            self.node.send_via(packet, entry.next_hop)
            return
        self._enqueue_for_discovery(packet)

    def forward_data(self, packet: Packet, prev_hop: int) -> None:
        if packet.ttl <= 1:
            self.node.drop(packet, "ttl_expired")
            return
        now = self.sim.now
        entry = self.table.lookup(packet.dst, now)
        if entry is None:
            # RFC 3561 s6.11: data for an unknown destination at an
            # intermediate node triggers an RERR.
            self.node.drop(packet, "no_route")
            self._originate_rerr([(packet.dst, self._dest_seq(packet.dst))])
            return
        self._refresh_active(packet.dst, entry.next_hop)
        self.table.refresh(packet.src, self.config.active_route_timeout_s, now)
        entry.add_precursor(prev_hop)
        self.node.send_via(packet.copy_for_forwarding(), entry.next_hop)

    # -- discovery ----------------------------------------------------------------

    def _rreq_header(self, dst: int):
        header = RreqHeader(
            rreq_id=self._msg_id,
            orig=self.address,
            orig_seq=self._seq,
            dst=dst,
            dst_seq=self._dest_seq(dst),
            hops=0,
        )
        return header, RREQ_SIZE

    # -- message handlers -------------------------------------------------------------

    def _recv_rreq(self, packet: Packet, prev_hop: int) -> None:
        cfg = self.config
        header: RreqHeader = packet.header
        key = (header.orig, header.rreq_id)
        if key in self._seen:
            return
        self._seen[key] = self.sim.now + cfg.path_discovery_time_s
        now = self.sim.now
        self._note_neighbor(prev_hop)
        if header.orig == self.address:
            return
        # Reverse route towards the originator.
        self.table.update(
            header.orig,
            prev_hop,
            header.hops + 1,
            header.orig_seq,
            cfg.net_traversal_time_s * 2,
            now,
        )
        if header.dst == self.address:
            # RFC 3561 s6.6.1: the destination bumps its own sequence
            # number to at least the one the RREQ asked about.
            self._seq = max(self._seq, header.dst_seq)
            self._send_rrep(
                orig=header.orig,
                dst=self.address,
                dst_seq=self._seq,
                hops=0,
                lifetime=cfg.my_route_timeout_s,
            )
            return
        entry = self.table.lookup(header.dst, now)
        if entry is not None and entry.seq >= header.dst_seq:
            # Intermediate reply from a fresh-enough cached route.
            entry.add_precursor(prev_hop)
            self._send_rrep(
                orig=header.orig,
                dst=header.dst,
                dst_seq=entry.seq,
                hops=entry.hops,
                lifetime=max(entry.expires_at - now, 0.0),
            )
            return
        if packet.ttl > 1:
            forwarded = dataclasses.replace(header, hops=header.hops + 1)
            self.send_control(
                RREQ,
                forwarded,
                RREQ_SIZE,
                BROADCAST,
                ttl=packet.ttl - 1,
                jitter_s=cfg.broadcast_jitter_s,
            )

    def _send_rrep(
        self, orig: int, dst: int, dst_seq: int, hops: int, lifetime: float
    ) -> None:
        entry = self.table.lookup(orig, self.sim.now)
        if entry is None:
            return  # reverse route evaporated; discovery will retry
        header = RrepHeader(orig, dst, dst_seq, hops, lifetime)
        self.send_control(RREP, header, RREP_SIZE, entry.next_hop)

    def _recv_rrep(self, packet: Packet, prev_hop: int) -> None:
        cfg = self.config
        header: RrepHeader = packet.header
        now = self.sim.now
        self._note_neighbor(prev_hop)
        # Forward route to the replied destination.
        self.table.update(
            header.dst,
            prev_hop,
            header.hops + 1,
            header.dst_seq,
            header.lifetime_s if header.lifetime_s > 0 else cfg.active_route_timeout_s,
            now,
        )
        if header.orig == self.address:
            self._flush_buffer(header.dst)
            return
        reverse = self.table.lookup(header.orig, now)
        if reverse is None:
            self.node.drop(packet, "no_reverse_route")
            return
        forward_entry = self.table.get(header.dst)
        if forward_entry is not None:
            forward_entry.add_precursor(reverse.next_hop)
        forwarded = dataclasses.replace(header, hops=header.hops + 1)
        self.send_control(RREP, forwarded, RREP_SIZE, reverse.next_hop)

    def _recv_hello(self, packet: Packet, prev_hop: int) -> None:
        header: RrepHeader = packet.header
        self._note_neighbor(prev_hop)
        self.table.update(
            prev_hop,
            prev_hop,
            1,
            header.dst_seq,
            self.config.neighbor_lifetime_s + self.config.hello_interval_s,
            self.sim.now,
        )

    # -- maintenance -------------------------------------------------------------

    def _send_hello(self) -> None:
        self._seq += 1
        header = RrepHeader(
            orig=BROADCAST,
            dst=self.address,
            dst_seq=self._seq,
            hops=0,
            lifetime_s=self.config.neighbor_lifetime_s,
        )
        self.send_control(HELLO, header, HELLO_SIZE, BROADCAST)

    def _refresh_active(self, dst: int, next_hop: int) -> None:
        """Using a route keeps it (and the next-hop route) alive."""
        now = self.sim.now
        lifetime = self.config.active_route_timeout_s
        self.table.refresh(dst, lifetime, now)
        self.table.refresh(next_hop, lifetime, now)
