"""The benchmark's three workloads: inputs, one repetition, result digests.

Every workload turns the benchmark's ``--seed`` into a *case* (built
:class:`~repro.core.config.Scenario` objects -- the program gets nothing
else) and runs it one repetition at a time.  A repetition returns its
wall clock and the trials' results; their digests are what the
correctness gate compares against the first repetition and, at a
workload's default seed, against the value pinned in ``PINNED``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from typing import Optional

from repro.core.config import Scenario
from repro.core.journal import TrialJournal
from repro.core.runner import TrialSpec, run_trials
from repro.core.simulation import CavenetSimulation
from repro.metrics.collector import CampaignTelemetry

#: Mobility seed of the ``table1`` trace: the default ``Scenario()``'s
#: own, so ``--seed 4`` reproduces ``Scenario()`` exactly.  A Table I
#: trial's cost is set by its topology -- over mobility seeds 1-22 the
#: DES event count ranged 0.53-1.74 M -- so letting ``--seed`` redraw
#: the topology would make the run-to-run spread a property of the
#: draw.  Over this trace, network seeds 1-7 stayed within 1.16-1.22 M.
#: The campaign's trials replay the same topology for the same reason.
TABLE1_TRACE_SEED = 4
CAMPAIGN_TRIALS = 16
CAMPAIGN_WORKERS = 2


@dataclasses.dataclass(frozen=True)
class Table1Case:
    """Paper Table I: the trace of one scenario, replayed under another.

    CAVENET's two blocks are decoupled by the mobility trace (paper
    Fig. 2): the Behavioural Analyzer writes it once and the network
    simulator replays it.  The trace comes from ``trace_scenario``;
    ``scenario`` (same Table I parameters, the benchmark's seed) drives
    every network-side random stream.
    """

    trace_scenario: Scenario
    scenario: Scenario


def run_table1(case: Table1Case):
    """One Table I trial: generate the trace, then replay it."""
    trace = CavenetSimulation(case.trace_scenario).generate_trace()
    return CavenetSimulation(case.scenario).run(trace=trace)


def run_scenario(scenario: Scenario):
    """One trial of ``scenario``, trace generation included."""
    return CavenetSimulation(scenario).run()


def highway_3000(seed: int) -> Scenario:
    """The N=3000 scenario of benchmarks/test_bench_trial.py."""
    return Scenario(
        num_nodes=3000,
        road_length_m=100.0 * 3000,
        boundary="circuit",
        initial_placement="random",
        mobility_warmup_steps=4000,
        sim_time_s=4.0,
        protocol="AODV",
        senders=(1, 2),
        receiver=0,
        traffic_start_s=0.5,
        traffic_stop_s=3.5,
        spatial="grid",
        kernels="auto",
        seed=seed,
    )


def campaign_base(seed: int) -> Scenario:
    """A shortened Table I trial: 10 s, traffic from 1 s to 9 s."""
    return Scenario(
        sim_time_s=10.0, traffic_start_s=1.0, traffic_stop_s=9.0, seed=seed
    )


def trial_digest(result) -> dict:
    """The figures a trial must reproduce exactly."""
    collector = result.collector
    return {
        "originated": collector.num_originated,
        "delivered": collector.num_delivered,
        "pdr": result.pdr(),
        "frames_on_air": result.frames_on_air,
        "events": collector.channel.events_processed,
        "control_tx": len(collector.control_transmissions()),
    }


def trial_counters(result) -> dict:
    """Per-layer work counts of one trial, read from its result."""
    collector = result.collector
    channel = collector.channel
    stats = result.mac_stats.values()
    return {
        "events": channel.events_processed,
        "frames": result.frames_on_air,
        "receptions": channel.frames_delivered,
        "cs_dropped": channel.frames_cs_dropped,
        "cache_lookups": channel.cache_lookups,
        "cache_rebuilds": channel.cache_rebuilds,
        "data_tx": sum(s.data_tx for s in stats),
        "ack_tx": sum(s.ack_tx for s in stats),
        "retransmissions": sum(s.retransmissions for s in stats),
        "retry_drops": sum(s.retry_drops for s in stats),
        "ifq_drops": collector.drops.get("ifq_full", 0),
        "control_tx": len(collector.control_transmissions()),
        "originated": collector.num_originated,
        "delivered": collector.num_delivered,
    }


def check_trial(digest: dict) -> None:
    """Sanity rules every trial must satisfy, whatever the seed."""
    if digest["originated"] <= 0:
        raise ValueError(f"no traffic originated: {digest}")
    if not 0 <= digest["delivered"] <= digest["originated"]:
        raise ValueError(f"delivered outside [0, originated]: {digest}")
    if digest["frames_on_air"] <= 0 or digest["events"] <= 0:
        raise ValueError(f"network phase did no work: {digest}")


def digest_hash(digests) -> str:
    """Short stable hash of a list of trial digests."""
    text = json.dumps(digests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclasses.dataclass
class Rep:
    """One repetition of a workload's case."""

    wall_s: float
    results: list
    telemetry: Optional[CampaignTelemetry] = None
    journal_bytes: int = 0

    @property
    def trials(self) -> int:
        return len(self.results)

    @property
    def digests(self) -> list:
        return [trial_digest(r) for r in self.results]

    def counters(self) -> dict:
        """``trial_counters`` summed over the repetition's trials."""
        total: dict = {}
        for result in self.results:
            for key, value in trial_counters(result).items():
                total[key] = total.get(key, 0) + value
        return total


class Workload:
    """A named workload: its case and how one repetition runs."""

    name = ""
    default_seed = 0
    why = ""
    #: Trials per repetition, and worker processes of the campaign path.
    trials = 1
    workers = 1

    def case(self, seed: int):
        raise NotImplementedError

    def describe(self, case) -> str:
        raise NotImplementedError

    def run(self, case, work_dir: str) -> Rep:
        """One repetition, untraced, the way a user runs it."""
        raise NotImplementedError

    def run_campaign(self, case, work_dir: str) -> Rep:
        """One repetition through the campaign layer, with a journal.

        The traced run takes this path, so ``core`` (runner, backend,
        journal) is measured on every workload.
        """
        raise NotImplementedError


def run_journaled(specs, workers, backend, work_dir) -> Rep:
    """Run ``specs`` through the campaign runner with a fresh journal."""
    path = os.path.join(work_dir, "journal.jsonl")
    telemetry = CampaignTelemetry()
    start = time.perf_counter()
    with TrialJournal(path, fingerprint="perfbench") as journal:
        outcomes = run_trials(
            specs, max_workers=workers, telemetry=telemetry,
            journal=journal, backend=backend,
        )
    wall = time.perf_counter() - start
    size = os.path.getsize(path)
    os.unlink(path)
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise RuntimeError(
            f"{len(failed)} campaign trials failed; first:\n{failed[0].error}"
        )
    return Rep(
        wall_s=wall, results=[o.value for o in outcomes],
        telemetry=telemetry, journal_bytes=size,
    )


class _SingleTrial(Workload):
    """A workload whose repetition is one trial, ``trial(case)``."""

    trial = staticmethod(run_scenario)

    def run(self, case, work_dir):
        start = time.perf_counter()
        result = self.trial(case)
        wall = time.perf_counter() - start
        return Rep(wall_s=wall, results=[result])

    def run_campaign(self, case, work_dir):
        spec = TrialSpec(key=self.name, fn=self.trial, args=(case,))
        return run_journaled([spec], 1, "local-serial", work_dir)


class Table1(_SingleTrial):
    name = "table1"
    default_seed = 4
    why = (
        "paper Table I (30 nodes, 3 km ring, AODV, 8 CBR senders, 100 s; "
        "default trace, seeded network): data plane, unicast DATA/ACK/"
        "retries through MAC and IFQ"
    )
    trial = staticmethod(run_table1)

    def case(self, seed):
        return Table1Case(
            trace_scenario=Scenario(seed=TABLE1_TRACE_SEED),
            scenario=Scenario(seed=seed),
        )

    def describe(self, case):
        return (
            f"Table I, trace of seed {case.trace_scenario.seed}, network "
            f"seed {case.scenario.seed}"
        )


class Highway3000(_SingleTrial):
    name = "highway_3000"
    default_seed = 11
    why = (
        "3000 nodes on a 300 km ring, grid culling, 4000 CA warmup steps: "
        "control-plane HELLO broadcasts, link-cache row kernels, CA kernel"
    )

    def case(self, seed):
        return highway_3000(seed)

    def describe(self, case):
        return f"3000-node highway, seed {case.seed}"


class Campaign(Workload):
    name = "campaign"
    default_seed = 4
    trials = CAMPAIGN_TRIALS
    workers = CAMPAIGN_WORKERS
    why = (
        f"{CAMPAIGN_TRIALS} seeded 10 s Table I trials on {CAMPAIGN_WORKERS} "
        "workers, supervised backend and journal: leases, process fan-out, "
        "result pickling, fsync"
    )

    def case(self, seed):
        base = campaign_base(seed)
        trace = dataclasses.replace(base, seed=TABLE1_TRACE_SEED)
        return [
            Table1Case(
                trace_scenario=trace,
                scenario=dataclasses.replace(base, seed=seed + 1000 * t),
            )
            for t in range(CAMPAIGN_TRIALS)
        ]

    def describe(self, case):
        seeds = [c.scenario.seed for c in case]
        return (
            f"{len(case)} Table I trials of 10 s, trace of seed "
            f"{case[0].trace_scenario.seed}, network seeds "
            f"{seeds[0]}, {seeds[1]}, ..., {seeds[-1]}"
        )

    def run(self, case, work_dir):
        specs = [
            TrialSpec(key=t, fn=run_table1, args=(c,))
            for t, c in enumerate(case)
        ]
        return run_journaled(
            specs, CAMPAIGN_WORKERS, "local-supervised", work_dir
        )

    run_campaign = run


WORKLOADS = {w.name: w for w in (Table1(), Highway3000(), Campaign())}

#: ``digest_hash`` of one repetition's digests at each workload's
#: default seed.
PINNED = {
    "table1": "277d1e3e32d33300",
    "highway_3000": "975b694964454118",
    "campaign": "48630b096a525e05",
}
