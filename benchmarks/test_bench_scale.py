"""City-scale channel benchmark (BENCH_scale.json).

Seeded ring-road scenarios at N in {30, 300, 3000} — constant ~100 m
vehicle spacing, so the road grows with N exactly as a city grows — drive
scripted broadcasts through the channel twice: once on the dense link
table (every radio in every sender's row, O(N^2) per slot), once with
uniform-grid spatial culling (cull radius = the 550 m carrier-sense
range).  Every configuration asserts the two paths
decode the identical frame sets (two-ray propagation is deterministic, so
culling is exact), then records the frames/s-per-node curve to
``benchmarks/out/BENCH_scale.json``.

The acceptance floor is the tentpole claim: at N = 3000 the grid path
must clear at least 5x the dense frames/s.  (At N = 30 the whole ring
fits inside one 3x3 cell neighborhood, so the grid does dense work plus
bucketing overhead — the curve exists to show exactly where culling
starts to pay.)
"""

import json
import os
import time

import numpy as np

from conftest import OUT_DIR, write_table
from repro.des.engine import Simulator
from repro.mac.frames import Frame, FrameType
from repro.mobility.trace import MobilityTrace, TracePlayer
from repro.net.address import BROADCAST
from repro.net.packet import Packet
from repro.phy.channel import CachedPositionProvider, Channel
from repro.phy.params import PhyParams
from repro.phy.propagation import TwoRayGround
from repro.phy.radio import Radio
from repro.phy.spatial import UniformGridIndex

NODE_COUNTS = (30, 300, 3000)
#: Mean vehicle spacing along the ring (m) — density stays constant as N
#: grows, which is what makes dense O(N^2) and culled O(N k) diverge.
SPACING_M = 100.0
CULL_RADIUS_M = 550.0
SIM_TIME_S = 5.0
#: Frames per configuration: enough to amortize rebuilds, small enough
#: that the dense N=3000 leg stays in CI-friendly territory.
NUM_FRAMES = {30: 6000, 300: 4000, 3000: 2000}
SPEEDUP_FLOOR_AT_MAX_N = 5.0


def _ring_trace(num_nodes):
    """``num_nodes`` vehicles on a ring of ``SPACING_M * N`` metres,
    circulating at ~10 m/s with seeded per-vehicle jitter."""
    rng = np.random.default_rng(7)
    radius = (SPACING_M * num_nodes) / (2 * np.pi)
    omega = (10.0 / radius) * rng.uniform(0.8, 1.2, num_nodes)
    phase0 = np.sort(rng.uniform(0, 2 * np.pi, num_nodes))
    times = np.linspace(0.0, SIM_TIME_S, 51)
    angle = phase0[None, :] + omega[None, :] * times[:, None]
    positions = np.stack(
        [radius * np.cos(angle), radius * np.sin(angle)], axis=-1
    )
    return MobilityTrace(times, positions)


class _CountingMac:
    __slots__ = ("delivered",)

    def __init__(self):
        self.delivered = 0

    def on_medium_busy(self):
        pass

    def on_medium_idle(self):
        pass

    def on_frame_received(self, frame, rx_power_w):
        self.delivered += 1

    def on_tx_done(self):
        pass


def _drive(num_nodes, trace, grid):
    """One full channel run; returns (wall_s, decoded, channel)."""
    sim = Simulator()
    provider = CachedPositionProvider(TracePlayer(trace), sim, cache_dt=0.1)
    spatial = UniformGridIndex(CULL_RADIUS_M) if grid else None
    channel = Channel(
        sim, TwoRayGround(), provider.positions, spatial=spatial
    )
    params = PhyParams.for_ranges(TwoRayGround(), 250.0, CULL_RADIUS_M)
    macs = []
    for node_id in range(num_nodes):
        radio = Radio(sim, node_id, params, channel)
        mac = _CountingMac()
        radio.attach_mac(mac)
        macs.append(mac)
    frames = NUM_FRAMES[num_nodes]
    interval = SIM_TIME_S / frames
    for k in range(frames):
        sender = (k * 17) % num_nodes  # coprime stride: full sender coverage
        packet = Packet("DATA", sender, BROADCAST, 100, 0.0)
        frame = Frame(
            FrameType.DATA, sender, BROADCAST, 128, packet=packet, seq=k
        )
        sim.schedule(
            interval * k, channel.transmit, sender, frame, 0.0005
        )
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return wall, [mac.delivered for mac in macs], channel


def test_bench_scale_grid_vs_dense(once):
    def measure():
        curve = []
        for num_nodes in NODE_COUNTS:
            trace = _ring_trace(num_nodes)
            wall_d, decoded_d, channel_d = _drive(num_nodes, trace, False)
            wall_g, decoded_g, channel_g = _drive(num_nodes, trace, True)
            curve.append(
                (num_nodes, trace, wall_d, decoded_d, channel_d,
                 wall_g, decoded_g, channel_g)
            )
        return curve

    curve = once(measure)

    report_curve = []
    rows = []
    for (num_nodes, trace, wall_d, decoded_d, channel_d,
         wall_g, decoded_g, channel_g) in curve:
        frames = NUM_FRAMES[num_nodes]
        # Exactness first: two-ray is deterministic and the cull radius
        # equals the CS range, so the grid must deliver the identical
        # frame sets with identical telemetry.
        assert decoded_g == decoded_d, f"grid != dense at N={num_nodes}"
        assert channel_g.frames_delivered == channel_d.frames_delivered
        assert channel_g.frames_cs_dropped == channel_d.frames_cs_dropped
        assert channel_g.frames_transmitted == frames
        (low_x, low_y), (high_x, high_y) = trace.bounds()
        area_km2 = ((high_x - low_x) / 1e3) * ((high_y - low_y) / 1e3)
        speedup = wall_d / wall_g
        report_curve.append({
            "nodes": num_nodes,
            "frames": frames,
            "area_km2": round(area_km2, 2),
            "dense": {
                "wall_s": round(wall_d, 4),
                "frames_per_s": round(frames / wall_d, 1),
                "links_evaluated": channel_d.links_evaluated,
            },
            "grid": {
                "wall_s": round(wall_g, 4),
                "frames_per_s": round(frames / wall_g, 1),
                "links_evaluated": channel_g.links_evaluated,
                "occupied_cells": channel_g.spatial.num_occupied_cells,
                "mean_occupancy": round(channel_g.spatial.mean_occupancy, 2),
            },
            "frames_delivered": channel_g.frames_delivered,
            "speedup": round(speedup, 2),
        })
        rows.append([
            num_nodes, frames,
            frames / wall_d, frames / wall_g, speedup,
            channel_d.links_evaluated, channel_g.links_evaluated,
        ])

    report = {
        "spacing_m": SPACING_M,
        "cull_radius_m": CULL_RADIUS_M,
        "sim_time_s": SIM_TIME_S,
        "propagation": "two_ray",
        "curve": report_curve,
        "speedup_floor_at_n3000": SPEEDUP_FLOOR_AT_MAX_N,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "BENCH_scale.json"), "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    write_table(
        "BENCH_scale",
        "Channel scale curve: dense O(N^2) vs uniform-grid culling "
        f"(~{SPACING_M:.0f} m spacing, {CULL_RADIUS_M:.0f} m cull radius)",
        ["nodes", "frames", "dense_fps", "grid_fps", "speedup",
         "dense_links", "grid_links"],
        rows,
    )

    at_max = report_curve[-1]
    assert at_max["nodes"] == max(NODE_COUNTS)
    assert at_max["speedup"] >= SPEEDUP_FLOOR_AT_MAX_N, (
        f"grid is only {at_max['speedup']:.2f}x dense at N={at_max['nodes']} "
        f"(floor {SPEEDUP_FLOOR_AT_MAX_N}x)"
    )
