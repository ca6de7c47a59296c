"""End-to-end trial wall clock: python vs auto kernels (BENCH_trial.json).

Where BENCH_scale times the channel layer in isolation, this benchmark
times :meth:`CavenetSimulation.run` whole — trace generation, DES, MAC,
routing, metrics — on constant-density ring scenarios at N in
{30, 300, 3000} (~100 m vehicle spacing, grid spatial culling, AODV),
once under ``kernels="python"`` (the explicit-loop reference) and once
under the backend ``kernels="auto"`` resolves to (numpy ``vector``).

Two claims are enforced:

* **Bit identity**: both backends must deliver the same packets with
  the same PDR — the kernel backend changes wall clock, never results.
* **The floor**: at N = 3000 the ``auto`` end-to-end trial must run at
  least 5x faster than the reference.  The same floor is wired into CI
  via ``scripts/bench_gate.py --floor`` over the committed
  ``benchmarks/baseline/BENCH_trial.json``.

The mobility warmup is the city-scale knob: discarding the jam
transient costs ``warmup x N`` CA cell updates before the network
starts, which is exactly the loop the array kernels replace — at
N = 3000 it dominates the reference trial, as ``repro run --profile``
shows.

The JSON keys (``compiled_backend``, ``compiled_wall_s``, ``compiled``)
predate the removal of the generated-C backend and are kept so the
gate reads old baselines and new results alike; they describe whatever
``auto`` resolved to.
"""

import json
import os
import time

from conftest import OUT_DIR, write_table
from repro.core.config import Scenario
from repro.core.simulation import CavenetSimulation
from repro.kernels import resolve_backend

NODE_COUNTS = (30, 300, 3000)
#: Mean vehicle spacing (m): road length grows with N at fixed density.
SPACING_M = 100.0
SIM_TIME_S = 4.0
WARMUP_STEPS = 4000
SPEEDUP_FLOOR_AT_MAX_N = 5.0


def _scenario(num_nodes, kernels):
    return Scenario(
        num_nodes=num_nodes,
        road_length_m=SPACING_M * num_nodes,
        boundary="circuit",
        initial_placement="random",
        mobility_warmup_steps=WARMUP_STEPS,
        sim_time_s=SIM_TIME_S,
        protocol="AODV",
        senders=(1, 2),
        receiver=0,
        traffic_start_s=0.5,
        traffic_stop_s=3.5,
        spatial="grid",
        kernels=kernels,
        seed=11,
    )


def _trial(num_nodes, kernels):
    """One full simulation; returns (wall_s, result)."""
    scenario = _scenario(num_nodes, kernels)
    start = time.perf_counter()
    result = CavenetSimulation(scenario).run()
    wall = time.perf_counter() - start
    return wall, result


def test_bench_trial_python_vs_auto(once):
    best = resolve_backend("auto")

    def measure():
        curve = []
        for num_nodes in NODE_COUNTS:
            wall_py, result_py = _trial(num_nodes, "python")
            wall_c, result_c = _trial(num_nodes, best.name)
            curve.append((num_nodes, wall_py, result_py, wall_c, result_c))
        return curve

    curve = once(measure)

    end_to_end = {}
    rows = []
    for num_nodes, wall_py, result_py, wall_c, result_c in curve:
        # Identity first: a kernel backend may only change the clock.
        assert (
            result_c.collector.num_delivered
            == result_py.collector.num_delivered
        ), f"backends disagree on deliveries at N={num_nodes}"
        assert (
            result_c.collector.num_originated
            == result_py.collector.num_originated
        )
        assert result_c.pdr() == result_py.pdr(), (
            f"backends disagree on PDR at N={num_nodes}"
        )
        speedup = wall_py / wall_c
        end_to_end[f"n{num_nodes}"] = {
            "nodes": num_nodes,
            "python_wall_s": round(wall_py, 4),
            "compiled_wall_s": round(wall_c, 4),
            "speedup": round(speedup, 2),
            "pdr": round(result_c.pdr(), 4),
            "delivered": result_c.collector.num_delivered,
        }
        rows.append([
            num_nodes, wall_py, wall_c, speedup,
            result_c.pdr(), result_c.collector.num_delivered,
        ])

    report = {
        "spacing_m": SPACING_M,
        "sim_time_s": SIM_TIME_S,
        "warmup_steps": WARMUP_STEPS,
        "protocol": "AODV",
        "spatial": "grid",
        "reference_backend": "python",
        "compiled_backend": best.name,
        "compiled": best.compiled,
        "end_to_end": end_to_end,
        "speedup_floor_at_n3000": SPEEDUP_FLOOR_AT_MAX_N,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "BENCH_trial.json"), "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    write_table(
        "BENCH_trial",
        "End-to-end trial wall clock: kernels=python vs "
        f"kernels={best.name} (~{SPACING_M:.0f} m spacing, AODV, grid)",
        ["nodes", "python_s", "auto_s", "speedup", "pdr", "delivered"],
        rows,
    )

    at_max = end_to_end[f"n{max(NODE_COUNTS)}"]
    assert at_max["speedup"] >= SPEEDUP_FLOOR_AT_MAX_N, (
        f"kernels={best.name!r} trial is only {at_max['speedup']:.2f}x "
        "the reference "
        f"at N={at_max['nodes']} (floor {SPEEDUP_FLOOR_AT_MAX_N}x)"
    )
