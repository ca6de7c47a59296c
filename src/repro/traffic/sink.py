"""Traffic sink: per-flow reception log at the destination node."""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.metrics.collector import RecordView, new_columns
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
    reordering) that flow-level debugging needs.  Deliveries are stored
    as one column per :class:`Reception` field, as the collector stores
    its records; :attr:`receptions` is a read-only view over them.
    """

    def __init__(self, node: Node) -> None:
        self._node = node
        self._columns = new_columns(Reception)
        node.add_sink(self._on_packet)

    def __setstate__(self, state: dict) -> None:
        # A pickled sink is a finished run's: it never holds its node.
        if "receptions" in state:
            # Pickled before the deliveries became columns, and before
            # results were detached: one list of records plus a per-flow
            # index of the same records, and the live node.
            columns = new_columns(Reception)
            for reception in state.pop("receptions"):
                for column, value in zip(
                    columns, dataclasses.astuple(reception)
                ):
                    column.append(value)
            del state["_by_flow"]
            state["_columns"] = columns
        state["_node"] = None
        self.__dict__.update(state)

    def _on_packet(self, packet: Packet, prev_hop: int) -> None:
        flow_id, seq, time, size_bytes, delay_s, hops = self._columns
        now = self._node.sim.now
        flow_id.append(packet.flow_id)
        seq.append(packet.seq)
        time.append(now)
        size_bytes.append(packet.size_bytes)
        delay_s.append(now - packet.created_at)
        hops.append(packet.hops)

    def detach(self) -> None:
        """Drop the node once the run is over; the receptions stay."""
        self._node = None

    @property
    def receptions(self) -> RecordView:
        """Every delivery, in arrival order, as :class:`Reception`
        records."""
        return RecordView(Reception, self._columns)

    def flow_receptions(self, flow_id: Optional[int]) -> List[Reception]:
        """Receptions of one flow, in arrival order."""
        return [r for r in self.receptions if r.flow_id == flow_id]

    def received_seqs(self, flow_id: Optional[int]) -> List[int]:
        """Sequence numbers seen for a flow (duplicates included)."""
        flows, seqs = self._columns[0], self._columns[1]
        return [
            seq
            for flow, seq in zip(flows, seqs)
            if flow == flow_id and seq is not None
        ]

    def missing_seqs(self, flow_id: Optional[int], last_sent: int) -> List[int]:
        """Which of ``1..last_sent`` never arrived for this flow."""
        seen = set(self.received_seqs(flow_id))
        return [seq for seq in range(1, last_sent + 1) if seq not in seen]
