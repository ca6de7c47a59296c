"""Declarative-scenario tests: to_dict/from_dict, files, overrides,
fingerprint stability."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Scenario
from repro.core.journal import campaign_fingerprint, canonical_json
from repro.mac.params import Mac80211Params
from repro.util.errors import ConfigError


# -- exact round-trip ---------------------------------------------------------


def test_default_scenario_roundtrips_exactly():
    s = Scenario()
    assert Scenario.from_dict(s.to_dict()) == s


def test_roundtrip_with_every_nondefault_knob():
    s = Scenario(
        num_nodes=12,
        road_length_m=1500.0,
        boundary="line",
        initial_placement="uniform",
        protocol="OLSR",
        protocol_options={"hello_interval_s": 0.5},
        senders=(2, 3),
        receiver=1,
        traffic="poisson",
        traffic_options={"on_mean_s": 2.0, "off_mean_s": 1.0},
        mac_params=Mac80211Params(cw_min=15),
        propagation="shadowing",
        sim_time_s=30.0,
        traffic_start_s=2.0,
        traffic_stop_s=25.0,
        seed=99,
    )
    assert Scenario.from_dict(s.to_dict()) == s


def test_roundtrip_with_explicit_flows():
    s = Scenario(num_nodes=8, flows=((1, 0), (2, 5)), senders=())
    d = s.to_dict()
    assert d["flows"] == [[1, 0], [2, 5]]  # JSON-native nesting
    restored = Scenario.from_dict(d)
    assert restored == s
    assert restored.flows == ((1, 0), (2, 5))  # tuples, not lists


scenario_dicts = st.fixed_dictionaries(
    {},
    optional={
        "num_nodes": st.integers(10, 40),
        "road_length_m": st.sampled_from([1000.0, 2000.0, 3000.0]),
        "boundary": st.sampled_from(["circuit", "line", "CIRCUIT"]),
        "initial_placement": st.sampled_from(["random", "uniform"]),
        "dawdle_p": st.floats(0.0, 1.0, allow_nan=False),
        "v_max": st.integers(1, 7),
        "protocol": st.sampled_from(["AODV", "olsr", "Dymo", "DSDV"]),
        "protocol_options": st.dictionaries(
            st.sampled_from(["alpha", "beta"]), st.integers(0, 5), max_size=2
        ),
        "senders": st.lists(
            st.integers(1, 9), min_size=1, max_size=4, unique=True
        ).map(tuple),
        "traffic": st.sampled_from(["cbr", "poisson"]),
        "traffic_options": st.dictionaries(
            st.sampled_from(["on_mean_s", "off_mean_s"]),
            st.floats(0.5, 5.0, allow_nan=False),
            max_size=2,
        ),
        "cbr_rate_pps": st.sampled_from([1.0, 5.0, 10.0]),
        "mac_params": st.sampled_from(
            [Mac80211Params(), Mac80211Params(cw_min=15)]
        ),
        "propagation": st.sampled_from(
            ["two_ray", "free_space", "shadowing", "nakagami", "TWO_RAY"]
        ),
        # Spatial culling: any spelling normalizes to the canonical name,
        # and cull radii at or above the default cs_range_m (550) are the
        # only valid ones (smaller is a ConfigError, tested elsewhere).
        "spatial": st.sampled_from(["dense", "grid", "GRID", "Dense"]),
        "cull_radius_m": st.sampled_from([None, 550.0, 600.0, 1250.0]),
        # Kernel backends: any spelling normalizes; every name is valid
        # on every machine (removed backends' names resolve like auto
        # at build time, not at configuration time).
        "kernels": st.sampled_from(
            ["auto", "python", "vector", "numba", "cjit", "AUTO", "Python"]
        ),
        # Execution backends: any spelling normalizes; the choice never
        # affects results, so every value is round-trip safe.
        "backend": st.sampled_from(
            [
                "auto",
                "local-serial",
                "local-process",
                "local-supervised",
                "AUTO",
                "Local-Supervised",
            ]
        ),
        "lease_ttl_s": st.sampled_from([0.5, 5.0, 30.0, 300.0]),
        # Radio technology profiles: any spelling normalizes to the
        # canonical name; options ride along as a JSON-native mapping.
        "tech": st.sampled_from(
            ["80211-dsss", "80211p", "80211-DSSS", "80211P"]
        ),
        "tech_options": st.sampled_from(
            [{}, {"noise_figure_db": 8.0}, {"basic_rate_bps": 2e6}]
        ),
        # Channel effects: same spec shape as faults (list of dicts with
        # a normalized "kind"); polygons stay JSON-native nested lists.
        "effects": st.sampled_from(
            [
                (),
                ({"kind": "db-offset", "offset_db": 3.0},),
                ({"kind": "DB-Offset", "offset_db": 1.5},),
                (
                    {"kind": "random-loss", "loss_p": 0.1},
                    {
                        "kind": "obstacle",
                        "polygons": [
                            [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]
                        ],
                        "extra_loss_db": 10.0,
                    },
                ),
            ]
        ),
        "seed": st.integers(0, 2**31),
    },
)


@settings(max_examples=60, deadline=None)
@given(scenario_dicts)
def test_property_roundtrip_over_randomized_scenarios(kwargs):
    s = Scenario(**kwargs)
    assert Scenario.from_dict(s.to_dict()) == s
    # A second hop through JSON text changes nothing either.
    assert Scenario.from_dict(json.loads(json.dumps(s.to_dict()))) == s


# -- files --------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    path = str(tmp_path / "scenario.json")
    s = Scenario(num_nodes=14, protocol="DYMO", traffic="poisson", seed=11)
    s.save(path)
    assert Scenario.load(path) == s
    document = json.loads((tmp_path / "scenario.json").read_text())
    assert document["format"] == "cavenet-scenario"
    assert document["schema"] == 1


def test_load_rejects_unknown_field(tmp_path):
    path = tmp_path / "bad.json"
    payload = {**Scenario().to_dict(), "nodes": 10}  # typo for num_nodes
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="unknown Scenario field.*nodes"):
        Scenario.load(str(path))


def test_load_rejects_non_json_and_wrong_format(tmp_path):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(ConfigError, match="not JSON"):
        Scenario.load(str(garbled))
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": "other-tool", "num_nodes": 10}))
    with pytest.raises(ConfigError, match="not a scenario file"):
        Scenario.load(str(wrong))


def test_save_rejects_unserializable_options(tmp_path):
    s = Scenario(protocol_options={"callback": object()})
    with pytest.raises(ConfigError, match="not JSON-serializable"):
        s.save(str(tmp_path / "nope.json"))


# -- dotted overrides (the CLI's --set) ---------------------------------------


def test_with_overrides_top_level_and_nested():
    s = Scenario().with_overrides(
        {"seed": 7, "protocol": "OLSR", "mac_params.cw_min": 15}
    )
    assert s.seed == 7
    assert s.protocol == "OLSR"
    assert s.mac_params.cw_min == 15
    assert s.mac_params.cw_max == Scenario().mac_params.cw_max


def test_with_overrides_kernels_normalizes_case():
    # The CLI's `--set kernels=CJIT` lands here; any spelling of a
    # registered backend canonicalizes, unknown names are ConfigError.
    assert Scenario().with_overrides({"kernels": "CJIT"}).kernels == "cjit"
    with pytest.raises(ConfigError, match="unknown kernel backend"):
        Scenario().with_overrides({"kernels": "fortran"})


def test_with_overrides_backend_normalizes_and_validates():
    # The CLI's `--backend` flag lands here as a scenario override.
    s = Scenario().with_overrides({"backend": "Local-Supervised"})
    assert s.backend == "local-supervised"
    with pytest.raises(ConfigError, match="unknown execution backend"):
        Scenario().with_overrides({"backend": "teleport"})
    with pytest.raises(ConfigError, match="lease_ttl_s"):
        Scenario(lease_ttl_s=0.0)


def test_with_overrides_can_add_option_keys():
    s = Scenario(traffic="poisson").with_overrides(
        {"traffic_options.on_mean_s": 2.5}
    )
    assert s.traffic_options == {"on_mean_s": 2.5}


def test_with_overrides_rejects_unknown_field_and_bad_path():
    with pytest.raises(ConfigError, match="unknown Scenario field 'sede'"):
        Scenario().with_overrides({"sede": 7})
    with pytest.raises(ConfigError, match="not a mapping"):
        Scenario().with_overrides({"seed.deep": 7})


# -- fingerprint stability ----------------------------------------------------


def test_protocol_case_spellings_share_a_fingerprint():
    lower = campaign_fingerprint(
        scenario=Scenario(protocol="aodv").to_dict(), kind="compare"
    )
    upper = campaign_fingerprint(
        scenario=Scenario(protocol="AODV").to_dict(), kind="compare"
    )
    assert lower == upper


def test_component_case_spellings_share_a_fingerprint():
    a = Scenario(boundary="CIRCUIT", propagation="TWO_RAY").to_dict()
    b = Scenario(boundary="circuit", propagation="two_ray").to_dict()
    assert campaign_fingerprint(s=a) == campaign_fingerprint(s=b)


def test_to_dict_fingerprints_match_legacy_asdict():
    """Journals recorded when fingerprints hashed dataclasses.asdict must
    still match the canonical to_dict path (same canonical JSON)."""
    for s in (
        Scenario(),
        Scenario(protocol="OLSR", senders=(1, 2), num_nodes=12,
                 road_length_m=1000.0, flows=None),
        Scenario(num_nodes=8, flows=((1, 0),), senders=(),
                 protocol_options={"x": 1}),
    ):
        assert canonical_json(dataclasses.asdict(s)) == canonical_json(
            s.to_dict()
        )


def test_prerefactor_journal_still_resumes(tmp_path):
    """A sweep journal fingerprinted via the legacy asdict path resumes
    under the to_dict path without being rejected as a different campaign."""
    from repro.core.journal import open_journal
    from repro.core.sweep import sweep_scenario

    base = Scenario(
        num_nodes=10, road_length_m=1000.0, sim_time_s=6.0,
        traffic_start_s=1.0, traffic_stop_s=5.0, senders=(1, 2), seed=3,
        dawdle_p=0.0,
    )
    values = [10, 12]
    path = str(tmp_path / "legacy.jsonl")
    legacy_fingerprint = campaign_fingerprint(
        kind="sweep",
        scenario=dataclasses.asdict(base),  # the pre-refactor expression
        field="num_nodes",
        values=values,
        trials=1,
    )
    journal = open_journal(path, legacy_fingerprint, resume=False)
    journal.close()
    # Resuming through today's code path reuses the legacy-headed journal.
    result = sweep_scenario(
        base, "num_nodes", values, journal_path=path, resume=True
    )
    assert [p.value for p in result.points] == values
