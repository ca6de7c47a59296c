"""Dynamic MANET On-demand routing (draft-ietf-manet-dymo style).

Paper Section III-B.3.  DYMO keeps AODV's sequence-numbered RREQ/RREP
discovery but simplifies the design and adds **path accumulation**: every
routing message carries the addresses (and sequence numbers) of all nodes
it traversed, so "besides route information about a requested target, a
node will also receive information about all intermediate nodes of a newly
discovered path".  Unlike AODV, only the target answers a RREQ, and link
breakage floods RERRs to *all* nodes in range, each re-flooding when the
report invalidates one of its own routes.

The buffer, discovery retries, neighbour upkeep and RERR handling are
the reactive core DYMO shares with AODV
(:class:`~repro.routing.reactive.ReactiveProtocol`).  This module adds
DYMO's own parts: the :class:`RoutingMessage` format, path accumulation
and the RREQ/RREP/HELLO handlers.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.net.address import BROADCAST
from repro.net.packet import Packet
from repro.routing.reactive import ReactiveProtocol

# Pickles made before the reactive core name these classes here.
from repro.routing.reactive import RerrHeader, _Discovery  # noqa: F401

RREQ = "DYMO_RREQ"
RREP = "DYMO_RREP"
RERR = "DYMO_RERR"
HELLO = "DYMO_HELLO"

_BASE_RM_SIZE = 16  # fixed routing-message part
_PATH_ENTRY_SIZE = 8  # per accumulated (address, seq) pair
HELLO_SIZE = 12


@dataclasses.dataclass(frozen=True)
class DymoConfig:
    """Protocol constants (draft-ietf-manet-dymo-14 defaults, hello per
    Table I)."""

    hello_interval_s: float = 1.0
    allowed_hello_loss: int = 2
    route_timeout_s: float = 5.0
    net_traversal_time_s: float = 2.8
    rreq_retries: int = 2
    buffer_capacity: int = 64
    broadcast_jitter_s: float = 0.01
    msg_hop_limit: int = 20

    @property
    def neighbor_lifetime_s(self) -> float:
        """Link considered broken after this long without a HELLO."""
        return self.allowed_hello_loss * self.hello_interval_s

    @property
    def path_discovery_time_s(self) -> float:
        """How long discovery state (and buffered data) stays alive."""
        return 2 * self.net_traversal_time_s

    def rreq_ttl(self, attempt: int) -> int:
        """TTL of every RREQ: DYMO floods the whole hop limit each time."""
        return self.msg_hop_limit

    def rreq_timeout_s(self, attempt: int) -> float:
        """How long to wait for an RREP; doubles with each retry."""
        return self.net_traversal_time_s * 2**attempt

    @property
    def max_discovery_attempts(self) -> int:
        """The first RREQ plus its retries."""
        return self.rreq_retries + 1


#: The configuration every agent built without one shares (frozen).
_DEFAULT_CONFIG = DymoConfig()


@dataclasses.dataclass(frozen=True)
class RoutingMessage:
    """Shared RREQ/RREP contents with the accumulated path.

    ``path`` starts with the originator and gains one ``(address, seq)``
    entry per forwarding hop; a handler thus learns a route to *every*
    listed node, with hop counts given by list position.
    """

    msg_id: int
    orig: int
    orig_seq: int
    target: int
    target_seq: int  # 0 = unknown (RREQ); the target's seq (RREP)
    path: Tuple[Tuple[int, int], ...]


def _rm_size(header: RoutingMessage) -> int:
    return _BASE_RM_SIZE + _PATH_ENTRY_SIZE * len(header.path)


class Dymo(ReactiveProtocol):
    """One node's DYMO agent."""

    __slots__ = ()

    name = "DYMO"
    RREQ, RREP, RERR, HELLO = RREQ, RREP, RERR, HELLO  # the module's kinds
    default_config = _DEFAULT_CONFIG

    # -- data path --------------------------------------------------------------

    def route_output(self, packet: Packet) -> None:
        entry = self.table.lookup(packet.dst, self.sim.now)
        if entry is not None:
            self.table.refresh(
                packet.dst, self.config.route_timeout_s, self.sim.now
            )
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
            self.node.drop(packet, "no_route")
            self._originate_rerr([(packet.dst, self._dest_seq(packet.dst))])
            return
        self.table.refresh(packet.dst, self.config.route_timeout_s, now)
        self.table.refresh(packet.src, self.config.route_timeout_s, now)
        self.node.send_via(packet.copy_for_forwarding(), entry.next_hop)

    # -- discovery ------------------------------------------------------------------

    def _rreq_header(self, target: int):
        header = RoutingMessage(
            msg_id=self._msg_id,
            orig=self.address,
            orig_seq=self._seq,
            target=target,
            target_seq=self._dest_seq(target),
            path=((self.address, self._seq),),
        )
        return header, _rm_size(header)

    # -- message handlers ---------------------------------------------------------------

    def _install_path(
        self, header: RoutingMessage, prev_hop: int
    ) -> None:
        """Path accumulation pay-off: learn a route to every listed node.

        The last path entry is one hop away (it was the forwarder we heard),
        the first (the originator) is ``len(path)`` hops away.
        """
        now = self.sim.now
        total = len(header.path)
        for index, (addr, seq) in enumerate(header.path):
            if addr == self.address:
                continue
            hops = total - index
            self.table.update(
                addr, prev_hop, hops, seq, self.config.route_timeout_s, now
            )

    def _recv_rreq(self, packet: Packet, prev_hop: int) -> None:
        cfg = self.config
        header: RoutingMessage = packet.header
        key = (header.orig, header.msg_id)
        if key in self._seen:
            return
        self._seen[key] = self.sim.now + cfg.path_discovery_time_s
        self._note_neighbor(prev_hop)
        if header.orig == self.address:
            return
        self._install_path(header, prev_hop)
        if header.target == self.address:
            # Only the target replies (no intermediate RREPs in DYMO).
            self._seq = max(self._seq, header.target_seq) + 1
            self._msg_id += 1
            reply = RoutingMessage(
                msg_id=self._msg_id,
                orig=self.address,
                orig_seq=self._seq,
                target=header.orig,
                target_seq=header.orig_seq,
                path=((self.address, self._seq),),
            )
            self._send_rrep(reply)
            return
        if packet.ttl > 1:
            forwarded = dataclasses.replace(
                header, path=header.path + ((self.address, self._seq),)
            )
            self.send_control(
                RREQ,
                forwarded,
                _rm_size(forwarded),
                BROADCAST,
                ttl=packet.ttl - 1,
                jitter_s=cfg.broadcast_jitter_s,
            )

    def _send_rrep(self, header: RoutingMessage) -> None:
        entry = self.table.lookup(header.target, self.sim.now)
        if entry is None:
            return
        self.send_control(RREP, header, _rm_size(header), entry.next_hop)

    def _recv_rrep(self, packet: Packet, prev_hop: int) -> None:
        header: RoutingMessage = packet.header
        key = (header.orig, header.msg_id)
        if key in self._seen:
            return
        self._seen[key] = self.sim.now + self.config.path_discovery_time_s
        self._note_neighbor(prev_hop)
        self._install_path(header, prev_hop)
        if header.target == self.address:
            # Discovery complete: the RREP's originator is our target.
            self._flush_buffer(header.orig)
            return
        forwarded = dataclasses.replace(
            header, path=header.path + ((self.address, self._seq),)
        )
        self._send_rrep(forwarded)

    def _recv_hello(self, packet: Packet, prev_hop: int) -> None:
        header: RoutingMessage = packet.header
        self._note_neighbor(prev_hop)
        self.table.update(
            prev_hop,
            prev_hop,
            1,
            header.orig_seq,
            self.config.neighbor_lifetime_s + self.config.hello_interval_s,
            self.sim.now,
        )

    # -- maintenance --------------------------------------------------------------------

    def _send_hello(self) -> None:
        self._seq += 1
        self._msg_id += 1
        header = RoutingMessage(
            msg_id=self._msg_id,
            orig=self.address,
            orig_seq=self._seq,
            target=BROADCAST,
            target_seq=0,
            path=((self.address, self._seq),),
        )
        self.send_control(HELLO, header, HELLO_SIZE, BROADCAST)
