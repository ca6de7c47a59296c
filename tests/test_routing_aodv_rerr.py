"""White-box AODV precursor and RERR propagation tests."""

import numpy as np
import pytest

from repro.net.packet import Packet
from repro.routing.aodv import RERR, Aodv, RerrHeader

from helpers import TestNetwork, chain_coords
from reactive_cases import (  # noqa: F401  (collected here for AODV)
    test_link_break_flushes_mac_queue,
    test_rerr_invalidates_only_routes_via_sender,
    test_rerr_not_propagated_when_nothing_invalidated,
)


@pytest.fixture
def protocol():
    return "AODV"


def _network(n=4):
    network = TestNetwork(chain_coords(n), protocol="AODV")
    network.start_routing()
    return network


def test_forwarding_records_precursors():
    network = _network(4)
    network.nodes[0].originate_data(3, 512, flow_id=1, seq=1)
    network.run(until=3.0)
    aodv_1: Aodv = network.nodes[1].routing
    entry = aodv_1.table.get(3)
    assert entry is not None
    assert 0 in entry.precursors  # node 0 routes to 3 through us


def test_rerr_propagates_when_it_invalidates():
    network = _network(3)
    aodv: Aodv = network.nodes[0].routing
    now = network.sim.now
    aodv.table.update(5, next_hop=1, hops=2, seq=4, lifetime=100.0, now=now)
    before = len(network.metrics.transmissions)
    rerr = Packet(
        RERR, 1, -1, 20, now, header=RerrHeader(unreachable=((5, 5),))
    )
    aodv._recv_rerr(rerr, prev_hop=1)
    network.run(until=network.sim.now + 0.1)
    kinds = [
        t.kind for t in network.metrics.transmissions[before:] if t.node == 0
    ]
    assert RERR in kinds


def test_rerr_bumps_sequence_number():
    network = _network(3)
    aodv: Aodv = network.nodes[0].routing
    now = network.sim.now
    aodv.table.update(5, next_hop=1, hops=2, seq=4, lifetime=100.0, now=now)
    rerr = Packet(
        RERR, 1, -1, 20, now, header=RerrHeader(unreachable=((5, 9),))
    )
    aodv._recv_rerr(rerr, prev_hop=1)
    entry = aodv.table.get(5)
    assert not entry.valid
    assert entry.seq >= 9  # freshness carried over from the RERR
