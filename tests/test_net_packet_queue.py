"""Packet and interface-queue tests."""

import pytest

from repro.net.packet import Packet
from repro.net.queue import DropTailQueue


class TestPacket:
    def test_uids_unique(self):
        a = Packet("DATA", 0, 1, 100, 0.0)
        b = Packet("DATA", 0, 1, 100, 0.0)
        assert a.uid != b.uid

    def test_copy_for_forwarding_keeps_uid(self):
        packet = Packet("DATA", 0, 5, 100, 1.0, ttl=10, hops=2)
        forwarded = packet.copy_for_forwarding()
        assert forwarded.uid == packet.uid
        assert forwarded.ttl == 9
        assert forwarded.hops == 3
        assert forwarded.src == packet.src

    def test_copy_for_forwarding_copies_every_slot(self):
        packet = Packet("DATA", 0, 1, 10, 0.0)
        # A distinct value in every slot, a field added later included:
        # one the copy drops (left at its default) cannot match.
        for offset, name in enumerate(Packet.__slots__):
            setattr(packet, name, 100 + offset)
        forwarded = packet.copy_for_forwarding()
        changed = {"ttl": packet.ttl - 1, "hops": packet.hops + 1}
        assert set(changed) < set(Packet.__slots__)
        for name in Packet.__slots__:
            expected = changed.get(name, getattr(packet, name))
            assert getattr(forwarded, name) == expected, name

    def test_takes_no_ad_hoc_attributes(self):
        packet = Packet("DATA", 0, 1, 10, 0.0)
        assert not hasattr(packet, "__dict__")
        with pytest.raises(AttributeError):
            packet.note = "extra"

    def test_is_data(self):
        assert Packet("DATA", 0, 1, 10, 0.0).is_data
        assert not Packet("AODV_RREQ", 0, 1, 10, 0.0).is_data

    def test_validation(self):
        with pytest.raises(ValueError):
            Packet("DATA", 0, 1, -5, 0.0)
        with pytest.raises(ValueError):
            Packet("DATA", 0, 1, 5, 0.0, ttl=-1)


class TestDropTailQueue:
    def test_fifo_order(self):
        queue = DropTailQueue(10)
        packets = [Packet("DATA", 0, 1, 10, 0.0) for _ in range(3)]
        for packet in packets:
            assert queue.enqueue(packet, 1)
        out = [queue.dequeue()[0].uid for _ in range(3)]
        assert out == [p.uid for p in packets]

    def test_drop_when_full(self):
        queue = DropTailQueue(2)
        assert queue.enqueue(Packet("DATA", 0, 1, 10, 0.0), 1)
        assert queue.enqueue(Packet("DATA", 0, 1, 10, 0.0), 1)
        assert not queue.enqueue(Packet("DATA", 0, 1, 10, 0.0), 1)
        assert queue.drops == 1
        assert queue.full

    def test_dequeue_empty_returns_none(self):
        assert DropTailQueue(2).dequeue() is None

    def test_remove_for_next_hop(self):
        queue = DropTailQueue(10)
        for hop in (1, 2, 1, 3, 1):
            queue.enqueue(Packet("DATA", 0, hop, 10, 0.0), hop)
        removed = queue.remove_for_next_hop(1)
        assert removed == 3
        assert len(queue) == 2
        assert queue.drops == 3
        remaining_hops = [queue.dequeue()[1] for _ in range(2)]
        assert remaining_hops == [2, 3]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)
