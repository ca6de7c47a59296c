"""Evaluation experiments: protocol comparison and goodput surfaces.

These helpers regenerate the data behind the paper's Figs. 8-11: run the
same scenario (same mobility pattern, same traffic) under each routing
protocol and tabulate goodput and PDR per sender.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.config import Scenario
from repro.core.journal import campaign_fingerprint, open_journal
from repro.core.runner import TrialRunner, TrialSpec
from repro.core.simulation import CavenetSimulation, SimulationResult
from repro.metrics.collector import CampaignTelemetry
from repro.mobility.trace import MobilityTrace
from repro.util.errors import TrialError


@dataclasses.dataclass
class ProtocolComparison:
    """Per-protocol results over the same mobility trace."""

    scenario: Scenario
    results: Dict[str, SimulationResult]

    def pdr_table(self) -> Dict[str, Dict[int, float]]:
        """PDR per sender for each protocol — the rows of Fig. 11."""
        return {
            name: result.pdr_per_sender()
            for name, result in self.results.items()
        }

    def mean_pdr(self) -> Dict[str, float]:
        """Overall PDR per protocol."""
        return {name: r.pdr() for name, r in self.results.items()}

    def mean_delay(self) -> Dict[str, float]:
        """Mean end-to-end delay per protocol (route-search cost shows up
        here: the paper's conclusion ranks DYMO ahead of AODV on delay)."""
        return {
            name: r.delay_stats().mean_s for name, r in self.results.items()
        }

    def overhead_table(self) -> Dict[str, int]:
        """Control transmissions per protocol."""
        return {
            name: r.control_overhead().packets
            for name, r in self.results.items()
        }

    def format_pdr_table(self) -> str:
        """Human-readable Fig. 11 table."""
        senders = sorted(self.scenario.senders)
        names = list(self.results)
        width = max(len(n) for n in names) + 2
        lines = [
            "Sender ".ljust(10) + "".join(n.ljust(width) for n in names)
        ]
        table = self.pdr_table()
        for sender in senders:
            row = f"{sender:<10d}" + "".join(
                f"{table[name].get(sender, 0.0):<{width}.3f}" for name in names
            )
            lines.append(row)
        return "\n".join(lines)


def _run_protocol_trial(
    scenario: Scenario, trace: MobilityTrace
) -> SimulationResult:
    """Trial function for the runner: one protocol over the shared trace."""
    return CavenetSimulation(scenario).run(trace=trace)


def _trace_digest(trace: MobilityTrace) -> str:
    """A short stable digest of the mobility actually replayed.

    Ties a comparison's journal to its trace: resuming the "same" scenario
    over different mobility would silently mix apples and oranges without
    this.
    """
    import hashlib

    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(trace.times).tobytes())
    digest.update(np.ascontiguousarray(trace.positions).tobytes())
    return digest.hexdigest()[:16]


def compare_protocols(
    scenario: Scenario,
    protocols: Iterable[str] = ("AODV", "OLSR", "DYMO"),
    trace: Optional[MobilityTrace] = None,
    max_workers: int = 1,
    trial_timeout_s: Optional[float] = None,
    max_attempts: int = 2,
    telemetry: Optional[CampaignTelemetry] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
) -> ProtocolComparison:
    """Run ``scenario`` once per protocol over the *same* mobility trace.

    "The mobility pattern for all scenarios is the same" (paper Section
    IV-C): the trace is generated once and shared.  With ``max_workers > 1``
    the per-protocol runs execute in parallel worker processes; each run is
    seeded from the scenario alone, so results match serial execution
    exactly.  A comparison needs every protocol, so a run that still fails
    after retries raises :class:`~repro.util.errors.TrialError`.

    With ``journal_path``/``resume`` each finished protocol run is durably
    journalled and skipped on restart.  The fingerprint covers the scenario,
    the protocol list and a digest of the trace actually replayed, so a
    journal recorded over different mobility is rejected.
    """
    base_scenario = scenario
    for protocol in protocols:
        # Reject an unknown protocol before a trace is generated or any
        # worker spawned, not minutes into the campaign.
        scenario.with_protocol(protocol).validate()
    protocols = tuple(protocols)
    if trace is None:
        trace = CavenetSimulation(scenario).generate_trace()
    specs = [
        TrialSpec(
            key=protocol,
            fn=_run_protocol_trial,
            args=(scenario.with_protocol(protocol), trace),
        )
        for protocol in protocols
    ]
    # Canonical serialization — hash-compatible with the older
    # dataclasses.asdict fingerprints (see Scenario.to_dict).
    fingerprint = campaign_fingerprint(
        kind="compare",
        scenario=base_scenario.to_dict(),
        protocols=list(protocols),
        trace_digest=_trace_digest(trace),
    )
    journal = open_journal(journal_path, fingerprint, resume)
    runner = TrialRunner(
        max_workers=max_workers,
        trial_timeout_s=trial_timeout_s,
        max_attempts=max_attempts,
        telemetry=telemetry,
        backend=base_scenario.backend,
        lease_ttl_s=base_scenario.lease_ttl_s,
    )
    try:
        outcomes = runner.run(specs, journal=journal)
    finally:
        if journal is not None:
            journal.close()
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise TrialError(
            f"protocol run {failed[0].key!r} failed after "
            f"{failed[0].attempts} attempts:\n{failed[0].error}",
            key=failed[0].key,
            attempts=failed[0].attempts,
        )
    results: Dict[str, SimulationResult] = {
        outcome.key: outcome.value for outcome in outcomes
    }
    return ProtocolComparison(scenario=scenario, results=results)


def goodput_surface(
    result: SimulationResult, bin_s: float = 1.0
) -> Tuple[np.ndarray, List[int], np.ndarray]:
    """The (flow x time) goodput surface of Figs. 8-10.

    Returns ``(bin_centers_s, flow_ids, surface)`` where ``surface[i, j]``
    is flow ``flow_ids[i]``'s goodput (bps) in time bin ``j``.  With the
    default many-to-one traffic pattern, flow ids are the sender ids.
    """
    flow_ids = sorted(
        flow_id for flow_id, _src, _dst in result.scenario.traffic_flows()
    )
    rows = []
    centers = None
    for flow_id in flow_ids:
        centers, series = result.goodput_series(flow_id, bin_s)
        rows.append(series)
    return centers, flow_ids, np.vstack(rows)
