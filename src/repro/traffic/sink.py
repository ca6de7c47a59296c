"""Traffic sink: per-flow reception log at the destination node."""

from __future__ import annotations

import collections
import dataclasses
from typing import DefaultDict, List, Optional

from repro.net.node import Node
from repro.net.packet import Packet


@dataclasses.dataclass(frozen=True)
class Reception:
    """One packet arriving at the sink."""

    flow_id: Optional[int]
    seq: Optional[int]
    time: float
    size_bytes: int
    delay_s: float
    hops: int


class Sink:
    """Attaches to a node and logs every data packet delivered to it.

    The global :class:`~repro.metrics.MetricsCollector` already records
    deliveries; the sink adds per-flow sequence visibility (loss patterns,
    reordering) that flow-level debugging needs.
    """

    def __init__(self, node: Node) -> None:
        self._node = node
        self.receptions: List[Reception] = []
        self._by_flow: DefaultDict[Optional[int], List[Reception]] = (
            collections.defaultdict(list)
        )
        node.add_sink(self._on_packet)

    def _on_packet(self, packet: Packet, prev_hop: int) -> None:
        reception = Reception(
            flow_id=packet.flow_id,
            seq=packet.seq,
            time=self._node.sim.now,
            size_bytes=packet.size_bytes,
            delay_s=self._node.sim.now - packet.created_at,
            hops=packet.hops,
        )
        self.receptions.append(reception)
        self._by_flow[packet.flow_id].append(reception)

    def detach(self) -> None:
        """Drop the node once the run is over; the receptions stay."""
        self._node = None

    def flow_receptions(self, flow_id: Optional[int]) -> List[Reception]:
        """Receptions of one flow, in arrival order."""
        return list(self._by_flow.get(flow_id, []))

    def received_seqs(self, flow_id: Optional[int]) -> List[int]:
        """Sequence numbers seen for a flow (duplicates included)."""
        return [
            r.seq for r in self._by_flow.get(flow_id, []) if r.seq is not None
        ]

    def missing_seqs(self, flow_id: Optional[int], last_sent: int) -> List[int]:
        """Which of ``1..last_sent`` never arrived for this flow."""
        seen = set(self.received_seqs(flow_id))
        return [seq for seq in range(1, last_sent + 1) if seq not in seen]
