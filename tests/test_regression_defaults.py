"""Bit-identity regression: the default Table I scenario, all 3 protocols.

These numbers were captured *before* the component-registry refactor (the
if/elif dispatch era).  The registry factories reuse the same named RNG
streams and draw sequences, so every metric must match exactly — not
approximately.  If a change legitimately alters the default-seed
trajectory (a new draw, a reordered stream), recapture the goldens and say
so in the commit; silent drift here means seeded results are no longer
reproducible across versions.
"""

import pytest

from repro.core.config import Scenario
from repro.core.simulation import CavenetSimulation

# protocol -> (pdr, originated, delivered, frames_on_air, mean_delay_s,
#              control_packets) at Scenario() defaults (seed 4).
GOLDEN = {
    "AODV": (0.7171875, 3200, 2295, 39982, 0.2246270190827125, 7808),
    "OLSR": (0.35, 3200, 1120, 25061, 0.019753772191334888, 10989),
    "DYMO": (0.74, 3200, 2368, 41426, 0.37873132198232196, 9165),
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
@pytest.mark.parametrize("kernels", ["python", "auto"])
def test_default_scenario_is_bit_identical(protocol, kernels):
    """Every kernel backend must land on the same goldens: ``python`` is
    the explicit-loop reference, ``auto`` the numpy ``vector`` backend
    every machine runs — the pre-kernel numbers must survive both."""
    scenario = Scenario(protocol=protocol, kernels=kernels)
    result = CavenetSimulation(scenario).run()
    observed = (
        result.pdr(),
        result.collector.num_originated,
        result.collector.num_delivered,
        result.frames_on_air,
        result.delay_stats().mean_s,
        result.control_overhead().packets,
    )
    assert observed == GOLDEN[protocol]


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
@pytest.mark.parametrize("kernels", ["python", "auto"])
def test_explicit_default_tech_and_empty_effects_are_bit_identical(
    protocol, kernels
):
    """The PHY realism layer's identity contract: spelling out the
    default profile and an empty effect stack routes airtimes and rates
    through :class:`TechProfile` yet must reproduce the pre-profile
    goldens bit-for-bit on every kernel backend."""
    scenario = Scenario(
        protocol=protocol, kernels=kernels, tech="80211-dsss", effects=()
    )
    result = CavenetSimulation(scenario).run()
    observed = (
        result.pdr(),
        result.collector.num_originated,
        result.collector.num_delivered,
        result.frames_on_air,
        result.delay_stats().mean_s,
        result.control_overhead().packets,
    )
    assert observed == GOLDEN[protocol]
