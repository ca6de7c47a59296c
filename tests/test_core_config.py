"""Scenario (Table I) configuration tests."""

import dataclasses

import pytest

from repro.core.config import Scenario
from repro.mac.params import Mac80211Params


def test_defaults_are_table1():
    scenario = Scenario()
    assert scenario.num_nodes == 30
    assert scenario.road_length_m == 3000.0
    assert scenario.boundary == "circuit"
    assert scenario.sim_time_s == 100.0
    assert scenario.senders == (1, 2, 3, 4, 5, 6, 7, 8)
    assert scenario.receiver == 0
    assert scenario.cbr_rate_pps == 5.0
    assert scenario.cbr_size_bytes == 512
    assert scenario.traffic_start_s == 10.0
    assert scenario.traffic_stop_s == 90.0
    assert scenario.mac_params.data_rate_bps == 2e6
    assert scenario.mac_params.rts_threshold_bytes is None
    assert scenario.tx_range_m == 250.0
    assert scenario.propagation == "two_ray"


def test_table1_rendering():
    table = Scenario().table1()
    assert table["Simulation Time"] == "100 s"
    assert table["Simulation Area"] == "3000 m Circuit"
    assert table["Number of Nodes"] == "30"
    assert table["Packets Generation Rate"] == "5 packets/s"
    assert table["Packet Size"] == "512 bytes"
    assert table["MAC Protocol"] == "IEEE802.11 DCF"
    assert table["MAC Rate"] == "2 Mbps"
    assert table["RTS/CTS"] == "None"
    assert table["Transmission Range"] == "250 m"
    assert table["Radio Propagation Models"] == "Two-ray Ground"
    assert table["DATA TYPE"] == "CBR"


def test_num_cells_and_density():
    scenario = Scenario()
    assert scenario.num_cells == 400
    assert scenario.density == pytest.approx(0.075)


def test_with_protocol_copies():
    scenario = Scenario()
    olsr = scenario.with_protocol("OLSR")
    assert olsr.protocol == "OLSR"
    assert scenario.protocol == "AODV"
    assert olsr.num_nodes == scenario.num_nodes


def test_line_boundary_table_rendering():
    table = Scenario(boundary="line").table1()
    assert table["Simulation Area"] == "3000 m Line"


def test_rts_rendering():
    scenario = Scenario(mac_params=Mac80211Params(rts_threshold_bytes=256))
    assert scenario.table1()["RTS/CTS"] == ">=256 B"


class TestValidation:
    def test_receiver_cannot_send(self):
        with pytest.raises(ValueError):
            Scenario(receiver=1)

    def test_nodes_in_range(self):
        with pytest.raises(ValueError):
            Scenario(num_nodes=5, senders=(1, 7))

    def test_boundary_name(self):
        with pytest.raises(ValueError):
            Scenario(boundary="moebius")

    def test_propagation_name(self):
        with pytest.raises(ValueError):
            Scenario(propagation="magic")

    def test_placement_name(self):
        with pytest.raises(ValueError):
            Scenario(initial_placement="clustered")

    def test_traffic_window(self):
        with pytest.raises(ValueError):
            Scenario(traffic_start_s=95.0, traffic_stop_s=90.0)
        with pytest.raises(ValueError):
            Scenario(traffic_stop_s=150.0)

    def test_too_many_vehicles(self):
        with pytest.raises(ValueError):
            Scenario(num_nodes=500, senders=(1,), road_length_m=750.0)

    def test_dawdle_probability(self):
        with pytest.raises(ValueError):
            Scenario(dawdle_p=1.5)

    def test_minimum_nodes(self):
        with pytest.raises(ValueError):
            Scenario(num_nodes=1, senders=())


@pytest.mark.parametrize(
    "options, bad_key",
    [
        ({"protocol_options": {"no_such_option": 1}}, "no_such_option"),
        ({"protocol": "OLSR", "protocol_options": {"hello_s": 1}}, "hello_s"),
        ({"tech_options": {"bogus": 1}}, "bogus"),
    ],
    ids=["protocol-AODV", "protocol-OLSR", "tech"],
)
def test_validate_rejects_unknown_option_keys(options, bad_key):
    """A bad option key fails in the parent, before any worker runs."""
    from repro.util.errors import ConfigError

    scenario = Scenario(**options)
    with pytest.raises(ConfigError, match=bad_key):
        scenario.validate()
    ok = Scenario(protocol_options={"config": None}, tech_options={})
    assert ok.validate() is ok
