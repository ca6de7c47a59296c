"""AODV expanding-ring search tests (RFC 3561 s6.4)."""

import pytest

from repro.routing.aodv import AodvConfig

from helpers import TestNetwork, chain_coords


def _chain(n, **config_kwargs):
    network = TestNetwork(
        chain_coords(n),
        protocol="AODV",
        protocol_options={"config": AodvConfig(**config_kwargs)},
    )
    network.start_routing()
    return network


class TestConfigSchedule:
    def test_disabled_always_full_diameter(self):
        config = AodvConfig()
        assert config.ring_attempts == 0
        assert config.rreq_ttl(0) == config.net_diameter
        assert config.rreq_ttl(5) == config.net_diameter
        assert config.max_discovery_attempts == 3  # 1 + 2 retries

    def test_ring_ttl_schedule(self):
        config = AodvConfig(expanding_ring=True)
        # TTLs 1, 3, 5, 7 then full diameter.
        assert [config.rreq_ttl(a) for a in range(6)] == [1, 3, 5, 7, 35, 35]
        assert config.ring_attempts == 4
        assert config.max_discovery_attempts == 7

    def test_ring_timeouts_grow_with_ttl(self):
        config = AodvConfig(expanding_ring=True)
        timeouts = [config.rreq_timeout_s(a) for a in range(6)]
        assert timeouts[0] < timeouts[1] < timeouts[2] < timeouts[3]
        # Full-diameter attempts use (doubling) net traversal time.
        assert timeouts[4] == pytest.approx(config.net_traversal_time_s)
        assert timeouts[5] == pytest.approx(2 * config.net_traversal_time_s)

    def test_ring_timeout_below_full_timeout(self):
        config = AodvConfig(expanding_ring=True)
        assert config.rreq_timeout_s(0) < config.net_traversal_time_s

    @pytest.mark.parametrize("increment", [0, -1])
    def test_non_positive_ttl_increment_rejected(self, increment):
        # The ring would never reach ttl_threshold: reject, don't hang.
        with pytest.raises(ValueError, match="ttl_increment"):
            AodvConfig(expanding_ring=True, ttl_increment=increment)


class TestRingBehaviour:
    def test_near_destination_found_with_tiny_flood(self):
        """A 1-hop destination is discovered by the TTL-1 ring: the RREQ
        never reaches the far end of the chain."""
        network = _chain(6, expanding_ring=True)
        packet = network.nodes[0].originate_data(1, 512, flow_id=1, seq=1)
        network.run(until=3.0)
        assert packet.uid in network.delivered_uids()
        rreq_senders = {
            t.node
            for t in network.metrics.control_transmissions()
            if t.kind == "AODV_RREQ"
        }
        # Only the originator flooded; no rebroadcast beyond the ring.
        assert rreq_senders == {0}

    def test_far_destination_eventually_found(self):
        network = _chain(5, expanding_ring=True)
        packet = network.nodes[0].originate_data(4, 512, flow_id=1, seq=1)
        network.run(until=5.0)
        assert packet.uid in network.delivered_uids()

    def test_ring_reduces_rreq_load_for_near_targets(self):
        """On a plus-shaped topology (four 3-node arms around a hub) a
        full flood for an adjacent destination storms down every arm; the
        TTL-1 ring reaches the destination without any rebroadcast."""
        coords = [(0.0, 0.0)]
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            coords.extend(
                (dx * 200.0 * k, dy * 200.0 * k) for k in (1, 2, 3)
            )

        def rreq_count(expanding_ring):
            network = TestNetwork(
                coords,
                protocol="AODV",
                protocol_options={
                    "config": AodvConfig(expanding_ring=expanding_ring)
                },
            )
            network.start_routing()
            packet = network.nodes[0].originate_data(1, 512, flow_id=1, seq=1)
            network.run(until=3.0)
            assert packet.uid in network.delivered_uids()
            return sum(
                1
                for t in network.metrics.control_transmissions()
                if t.kind == "AODV_RREQ"
            )

        with_ring = rreq_count(True)
        without = rreq_count(False)
        assert with_ring == 1  # the TTL-1 probe found the neighbour
        assert without > 3 * with_ring  # the flood ran down the other arms

    def test_unreachable_exhausts_all_attempts(self):
        coords = chain_coords(2) + [(9000.0, 0.0)]
        network = TestNetwork(
            coords,
            protocol="AODV",
            protocol_options={"config": AodvConfig(expanding_ring=True)},
        )
        network.start_routing()
        packet = network.nodes[0].originate_data(2, 512, flow_id=1, seq=1)
        network.run(until=40.0)
        assert packet.uid not in network.delivered_uids()
        rreqs = sum(
            1
            for t in network.metrics.control_transmissions()
            if t.kind == "AODV_RREQ" and t.node == 0
        )
        assert rreqs == AodvConfig(expanding_ring=True).max_discovery_attempts == 7
        assert network.metrics.drops.get("no_route", 0) == 1
