"""A finished run's result is plain data.

``CavenetSimulation.run`` detaches its result from the network it ran:
no simulator, channel, radio, node, MAC, routing table, RNG or kernel
backend can be reached from it, so pickling one (campaign workers,
journals) stores only what was measured.  The per-packet records are
columns behind read-only sequence views, and results pickled before
that change still load and answer every accessor the same.
"""

import dataclasses
import io
import math
import os
import pickle
import shutil

import numpy as np
import pytest

import repro.kernels as kernels
from repro.core.config import Scenario
from repro.core.experiment import compare_protocols
from repro.core.simulation import CavenetSimulation
from repro.des.engine import Simulator
from repro.des.event import Event
from repro.kernels.base import KernelBackend
from repro.mac.dcf import Mac80211
from repro.metrics.collector import (
    CampaignTelemetry,
    DeliveredEvent,
    MetricsCollector,
    TransmissionEvent,
)
from repro.net.node import Node
from repro.net.packet import Packet
from repro.phy.channel import Channel
from repro.phy.energy import EnergyMeter
from repro.phy.radio import Radio
from repro.routing.base import RoutingProtocol
from repro.traffic.poisson import PoissonOnOffSource

LIVE_TYPES = (
    Simulator,
    Event,
    Channel,
    Radio,
    Node,
    Mac80211,
    RoutingProtocol,
    np.random.Generator,
    KernelBackend,
)


class _DataOnlyPickler(pickle.Pickler):
    """Refuses to pickle any object of the finished network."""

    def reducer_override(self, obj):
        if isinstance(obj, LIVE_TYPES):
            raise AssertionError(
                f"result reaches a live {type(obj).__name__}"
            )
        return NotImplemented


def _pickle_data_only(value) -> bytes:
    buffer = io.BytesIO()
    _DataOnlyPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    return buffer.getvalue()


def _faulted_grid_scenario() -> Scenario:
    return Scenario(
        num_nodes=12,
        road_length_m=1200.0,
        sim_time_s=12.0,
        senders=(1, 2, 3),
        traffic="poisson",
        traffic_options={"on_mean_s": 2.0, "off_mean_s": 0.5},
        traffic_start_s=1.0,
        traffic_stop_s=11.0,
        spatial="grid",
        faults=({"kind": "node-crash", "nodes": [2], "at_s": 4.0,
                 "down_s": 3.0},),
        effects=({"kind": "obstacle",
                  "polygons": [[[0.0, 0.0], [60.0, 0.0], [60.0, 60.0],
                                [0.0, 60.0]]]},),
        seed=5,
    )


# -- a journal written before results were detached -------------------------------

#: ``tests/fixtures/result_journal.jsonl`` (key ``"AODV"``) and
#: ``result_journal_dymo.jsonl`` (key ``"DYMO"``) each hold one
#: ``compare_protocols`` trial of this scenario, journalled by the code
#: before results were detached: its value pickles the whole finished
#: network (collector with its simulator and record lists, live sinks,
#: sources, meters and routing agents with their ``__dict__`` state, and
#: the channel's kernel backend by name).
OLD_RESULT_SCENARIO = Scenario(
    num_nodes=6, road_length_m=1500.0, mobility_warmup_steps=20,
    sim_time_s=3.0, senders=(1, 2), traffic_start_s=0.5,
    traffic_stop_s=3.0, seed=7,
)
OLD_RESULT_JOURNALS = {
    protocol: os.path.join(os.path.dirname(__file__), "fixtures", name)
    for protocol, name in (
        ("AODV", "result_journal.jsonl"),
        ("DYMO", "result_journal_dymo.jsonl"),
    )
}


def _resume_old_journal(tmp_path, protocol):
    """The fixture's ``protocol`` result, resumed from a copy of its
    journal; returns the campaign telemetry and the result.

    The journal pickled its channel's kernel backend as ``"cjit"``, so
    loading it warns once that the removed backend falls back to
    ``auto``; the backend caches are reset so it warns every time.
    """
    path = tmp_path / "old.jsonl"
    shutil.copyfile(OLD_RESULT_JOURNALS[protocol], path)
    telemetry = CampaignTelemetry()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_BACKENDS", {})
        patch.setattr(kernels, "_WARNED", set())
        with pytest.warns(RuntimeWarning, match="cjit"):
            comparison = compare_protocols(
                OLD_RESULT_SCENARIO, (protocol,), journal_path=str(path),
                resume=True, telemetry=telemetry,
            )
    return telemetry, comparison.results[protocol]


def _run(scenario, tmp_path):
    return CavenetSimulation(scenario).run()


def _resumed(scenario, tmp_path):
    return _resume_old_journal(tmp_path, "AODV")[1]


def _resumed_dymo(scenario, tmp_path):
    return _resume_old_journal(tmp_path, "DYMO")[1]


@pytest.mark.parametrize(
    "scenario, produce",
    [
        (Scenario(), _run),
        (_faulted_grid_scenario(), _run),
        (OLD_RESULT_SCENARIO, _resumed),
        (OLD_RESULT_SCENARIO, _resumed_dymo),
    ],
    ids=[
        "default", "grid-crash-obstacle-poisson", "old-journal",
        "old-journal-dymo",
    ],
)
def test_result_pickles_without_live_objects(scenario, produce, tmp_path):
    result = produce(scenario, tmp_path)
    clone = pickle.loads(_pickle_data_only(result))
    assert clone.pdr() == result.pdr()
    assert clone.total_energy_j() == result.total_energy_j()
    assert clone.collector.num_delivered == result.collector.num_delivered
    flows = list(clone.collector.originated.column("flow_id"))
    assert {
        flow_id: source.packets_sent
        for flow_id, source in clone.sources.items()
    } == {flow_id: flows.count(flow_id) for flow_id in scenario.senders}
    if scenario.faults:
        assert [e.kind for e in clone.fault_events] == ["node_down", "node_up"]
        assert all(
            isinstance(source, PoissonOnOffSource)
            for source in clone.sources.values()
        )


# -- columnar records ----------------------------------------------------------


def _collector_mid_run():
    """A collector fed three transmissions and one delivery; the
    simulator is left paused between events."""
    sim = Simulator()
    collector = MetricsCollector(sim)
    data = Packet("DATA", 1, 0, 512, 0.0, flow_id=1, seq=1)
    hello = Packet("AODV_HELLO", 2, -1, 20, 0.0)
    sim.schedule(0.5, collector.transmission, hello, 2, -1)
    sim.schedule(1.0, collector.transmission, data, 1, 3)
    sim.schedule(1.5, collector.transmission, data, 3, 0)
    sim.schedule(2.0, collector.data_delivered, data, 0)
    sim.schedule(9.0, lambda: None)
    sim.run(until=5.0)
    return sim, collector, data, hello


def test_record_views_index_slice_and_iterate_like_lists():
    _sim, collector, data, hello = _collector_mid_run()
    tx = collector.transmissions
    assert len(tx) == 3
    assert tx[0] == TransmissionEvent(hello.uid, "AODV_HELLO", 2, -1, 0.5, 20)
    assert tx[-1] == TransmissionEvent(data.uid, "DATA", 3, 0, 1.5, 512)
    assert tx[1:] == [tx[1], tx[2]]
    assert list(tx) == [tx[0], tx[1], tx[2]]
    assert [t.kind for t in collector.control_transmissions()] == [
        "AODV_HELLO"
    ]
    assert collector.data_transmissions() == [tx[1], tx[2]]
    assert collector.delivered[0] == DeliveredEvent(
        data.uid, 1, 2.0, 512, 2.0, 1, 0
    )
    assert collector.delivered[0].hops == 1
    with pytest.raises(IndexError):
        tx[3]
    with pytest.raises(TypeError):
        tx[0] = tx[1]


def test_collector_records_after_a_view_was_taken():
    sim, collector, data, _hello = _collector_mid_run()
    view = collector.transmissions
    before = len(view)
    sim.schedule(0.1, collector.transmission, data, 0, 4)
    sim.run(until=6.0)
    assert len(view) == before + 1
    assert [t.node for t in collector.transmissions[before:]] == [0]


def test_detached_collector_pickles_as_columns():
    _sim, collector, _data, _hello = _collector_mid_run()
    records = list(collector.transmissions)
    collector.detach()
    clone = pickle.loads(_pickle_data_only(collector))
    assert list(clone.transmissions) == records
    assert clone.num_delivered == 1


def test_column_aggregations_equal_the_record_loop_reference():
    """Each aggregation, recomputed the record-at-a-time way it was
    written before the columns, gives the same value bit for bit."""
    result = CavenetSimulation(_faulted_grid_scenario()).run()
    collector = result.collector
    originated, delivered = list(collector.originated), list(collector.delivered)
    assert 0 < len(delivered) < len(originated)

    for flow_id in (None, 1, 2, 3):
        sent = [e for e in originated if flow_id is None or e.flow_id == flow_id]
        got = [e for e in delivered if flow_id is None or e.flow_id == flow_id]
        assert result.pdr(flow_id) == len(got) / len(sent)
        delays = np.array([e.delay_s for e in got])
        stats = result.delay_stats(flow_id)
        assert (stats.mean_s, stats.max_s) == (
            float(delays.mean()), float(delays.max())
        )
        bits = np.zeros(12)
        for event in got:
            bits[min(int(event.time / 1.0), 11)] += event.size_bytes * 8
        assert result.goodput_series(flow_id)[1].tolist() == bits.tolist()
        window = sum(e.size_bytes * 8 for e in got if 1.0 <= e.time <= 12.0)
        assert result.mean_goodput_bps(flow_id) == window / 11.0

    delivered_uids = {e.uid for e in delivered}
    offered, arrived = [0] * 12, [0] * 12
    for event in originated:
        offered[int(event.time)] += 1
        arrived[int(event.time)] += event.uid in delivered_uids
    assert all(
        _same(pdr, arrived[i] / offered[i] if offered[i] else math.nan)
        for i, (_start, pdr) in enumerate(result.pdr_timeline())
    )
    (up_time, gap), = result.recovery_times_s().items()
    assert gap == min(e.time for e in delivered if e.time > up_time) - up_time


# -- energy meters ---------------------------------------------------------------


class _Airtime:
    airtime_tx_s = 0.0
    airtime_rx_s = 0.0


def test_detached_meter_freezes_its_readings():
    sim = Simulator()
    radio = _Airtime()
    meter = EnergyMeter(sim, radio)
    radio.airtime_tx_s, radio.airtime_rx_s = 0.25, 1.5
    sim.schedule(10.0, lambda: None)
    sim.run()
    before = (meter.tx_time_s, meter.rx_time_s, meter.elapsed_s,
              meter.consumed_j(), meter.depleted)
    meter.detach()
    radio.airtime_tx_s = 5.0
    sim.schedule(20.0, lambda: None)
    sim.run()
    assert (meter.tx_time_s, meter.rx_time_s, meter.elapsed_s,
            meter.consumed_j(), meter.depleted) == before
    assert pickle.loads(_pickle_data_only(meter)).consumed_j() == before[3]


def _same(a, b) -> bool:
    """Equality that treats NaN as equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def _without_uids(records):
    """Record fields past the uid, which counts packets per process."""
    return [dataclasses.astuple(record)[1:] for record in records]


@pytest.mark.parametrize("protocol", sorted(OLD_RESULT_JOURNALS))
def test_journal_of_attached_results_resumes_with_identical_accessors(
    protocol, tmp_path,
):
    telemetry, old = _resume_old_journal(tmp_path, protocol)
    assert telemetry.trials_resumed == 1
    assert telemetry.trials_completed == 0
    fresh = CavenetSimulation(
        dataclasses.replace(OLD_RESULT_SCENARIO, protocol=protocol)
    ).run()

    assert old.collector._sim is None
    assert 0.0 < fresh.pdr() < 1.0
    assert old.pdr() == fresh.pdr()
    assert old.pdr_per_sender() == fresh.pdr_per_sender()
    assert old.delay_stats() == fresh.delay_stats()
    assert old.control_overhead() == fresh.control_overhead()
    assert all(
        _same(a, b) for a, b in zip(old.pdr_timeline(), fresh.pdr_timeline())
    )
    assert old.total_energy_j() == fresh.total_energy_j()
    assert old.channel_telemetry == fresh.channel_telemetry
    for node_id, sink in fresh.sinks.items():
        assert old.sinks[node_id].receptions == sink.receptions
        for flow_id in (1, 2):
            assert old.sinks[node_id].flow_receptions(flow_id) == (
                sink.flow_receptions(flow_id)
            )
            assert old.sinks[node_id].received_seqs(flow_id) == (
                sink.received_seqs(flow_id)
            )
    for kind in ("originated", "delivered", "transmissions"):
        assert _without_uids(getattr(old.collector, kind)) == (
            _without_uids(getattr(fresh.collector, kind))
        )
    # Re-journalled, the old result is stored as detached columns.
    again = pickle.loads(pickle.dumps(old.collector))
    assert list(again.transmissions) == list(old.collector.transmissions)
