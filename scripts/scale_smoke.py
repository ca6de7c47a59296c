"""CI smoke: grid culling is exact on a mid-scale end-to-end scenario.

Runs the full simulation stack (mobility, PHY, MAC, routing, traffic)
twice on one seeded 300-node scenario — once with the dense link table
(every radio in every sender's row, O(N^2) per slot), once with
uniform-grid spatial culling — and requires the
two runs to be bit-identical: same PDR, same packet counts, same frames
on air, same mean delay, same control overhead.

This is the contract the scale benchmark's speedup rests on: with
deterministic propagation and a cull radius covering the maximum link
range, culling changes *work*, never *results*.  The node count is
large enough that the grid genuinely culls (300 nodes spread over
30 km of road, ~100 m spacing) yet the sim stays a sub-minute smoke.

Run:  PYTHONPATH=src python scripts/scale_smoke.py
"""

import dataclasses
import sys
import time

from repro.core.config import Scenario
from repro.core.simulation import CavenetSimulation

BASE = Scenario(
    num_nodes=300,
    road_length_m=30_000.0,
    sim_time_s=6.0,
    traffic_start_s=1.0,
    traffic_stop_s=5.0,
    senders=(1, 2, 3),
    seed=11,
)


def _metrics(scenario):
    start = time.perf_counter()
    result = CavenetSimulation(scenario).run()
    wall = time.perf_counter() - start
    return wall, (
        result.pdr(),
        result.collector.num_originated,
        result.collector.num_delivered,
        result.frames_on_air,
        result.delay_stats().mean_s,
        result.control_overhead().packets,
    )


def main_smoke():
    dense = dataclasses.replace(BASE, spatial="dense")
    grid = dataclasses.replace(BASE, spatial="grid")

    wall_d, metrics_d = _metrics(dense)
    print(f"dense: {wall_d:.2f} s  metrics={metrics_d}")
    wall_g, metrics_g = _metrics(grid)
    print(f"grid:  {wall_g:.2f} s  metrics={metrics_g}")

    if metrics_g != metrics_d:
        print("::error::grid run diverged from dense run on the seeded "
              "N=300 scenario")
        for name, d, g in zip(
            ("pdr", "originated", "delivered", "frames_on_air",
             "mean_delay_s", "control_packets"),
            metrics_d, metrics_g,
        ):
            marker = "  <-- differs" if d != g else ""
            print(f"  {name}: dense={d!r} grid={g!r}{marker}")
        raise SystemExit(1)

    print("scale smoke OK — grid bit-identical to dense at N=300 "
          f"(dense {wall_d:.2f} s, grid {wall_g:.2f} s)")


if __name__ == "__main__":
    sys.exit(main_smoke())
