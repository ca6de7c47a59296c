"""Component-registry tests: registration, lookup, views, dispatch hygiene."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import registry
from repro.core.registry import Registry, RegistryView, register, resolve
from repro.util.errors import ConfigError

SRC_CORE = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"


# -- the generic Registry -----------------------------------------------------


def test_register_and_resolve_roundtrip():
    reg = Registry("routing", "routing protocol")
    reg.register("GPSR", object)
    assert reg.get("GPSR") is object
    assert reg.names() == ("GPSR",)


def test_lookup_is_case_insensitive_with_canonical_spelling():
    reg = Registry("routing", "routing protocol")
    reg.register("GPSR", object)
    assert reg.get("gpsr") is object
    assert reg.normalize("GpSr") == "GPSR"


def test_duplicate_registration_rejected():
    reg = Registry("routing", "routing protocol")
    reg.register("GPSR", object)
    with pytest.raises(ConfigError, match="already registered"):
        reg.register("GPSR", int)
    # Case-insensitively: "gpsr" collides with "GPSR".
    with pytest.raises(ConfigError, match="already registered"):
        reg.register("gpsr", int)


def test_overwrite_replaces_and_updates_canonical_spelling():
    reg = Registry("routing", "routing protocol")
    reg.register("GPSR", object)
    reg.register("gpsr", int, overwrite=True)
    assert reg.get("GPSR") is int
    assert reg.names() == ("gpsr",)


def test_unknown_name_lists_known_choices():
    reg = Registry("routing", "routing protocol")
    reg.register("GPSR", object)
    with pytest.raises(
        ConfigError, match=r"unknown routing protocol 'OSPF'.*GPSR"
    ):
        reg.normalize("OSPF")


def test_empty_name_rejected():
    reg = Registry("routing", "routing protocol")
    with pytest.raises(ConfigError, match="non-empty"):
        reg.register("", object)


def test_unregister_removes_and_unknown_unregister_raises():
    reg = Registry("routing", "routing protocol")
    reg.register("GPSR", object)
    reg.unregister("gpsr")
    assert reg.names() == ()
    with pytest.raises(ConfigError, match="nothing removed"):
        reg.unregister("GPSR")


# -- module-level namespaces --------------------------------------------------


def test_every_kind_has_builtin_entries():
    expected = {
        "propagation": {"two_ray", "free_space", "shadowing", "nakagami"},
        "routing": {"AODV", "OLSR", "DYMO", "DSDV", "FLOODING"},
        "mobility": {"random", "uniform"},
        "traffic": {"cbr", "poisson"},
        "boundary": {"circuit", "line"},
        "fault": {
            "node-crash",
            "radio-silence",
            "channel-degradation",
            "packet-blackhole",
        },
        "spatial": {"dense", "grid"},
        "kernels": {"python", "vector", "numba", "cjit", "auto"},
        "backend": {
            "auto", "local-serial", "local-process", "local-supervised",
            "dir-queue",
        },
        "tech": {"80211-dsss", "80211p"},
        "effect": {"db-offset", "random-loss", "obstacle"},
    }
    assert set(registry.KINDS) == set(expected)
    for kind, names in expected.items():
        assert names <= set(registry.known(kind)), kind


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown component kind"):
        registry.registry("quantum")


def test_decorator_registers_third_party_component():
    @register("routing", "TEST-NULL")
    class NullRouting:
        def __init__(self, node, rng):
            pass

    try:
        assert resolve("routing", "test-null") is NullRouting
        assert "TEST-NULL" in registry.known("routing")
    finally:
        registry.registry("routing").unregister("TEST-NULL")
    assert "TEST-NULL" not in registry.known("routing")


def test_decorator_duplicate_against_builtin_rejected():
    with pytest.raises(ConfigError, match="already registered"):
        @register("routing", "aodv")  # collides with builtin AODV
        class Impostor:
            pass


def test_describe_points_at_implementations():
    described = registry.describe("routing")
    assert described["AODV"].startswith("repro.routing.aodv:")
    assert set(described) == set(registry.known("routing"))
    # Every declared path names the object it resolves to, so the table
    # of built-ins cannot drift from the code.
    for kind in registry.KINDS:
        for name, path in registry.describe(kind).items():
            obj = resolve(kind, name)
            assert path == f"{obj.__module__}:{obj.__qualname__}", (kind, name)


def test_resolving_one_builtin_imports_only_its_module():
    code = (
        "import sys\n"
        "from repro.core import registry\n"
        "registry.known('routing'), registry.describe('routing')\n"
        "print('repro.routing' in sys.modules)\n"
        "registry.resolve('routing', 'olsr')\n"
        "print('repro.routing.olsr' in sys.modules, "
        "'repro.routing.dsdv' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC_CORE.parent.parent)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.split() == ["False", "True", "False"]


# -- RegistryView (the PROTOCOLS alias) ---------------------------------------


def test_protocols_view_has_mapping_semantics():
    from repro.routing import PROTOCOLS, Aodv

    assert PROTOCOLS["AODV"] is Aodv
    assert PROTOCOLS["aodv"] is Aodv  # case-insensitive like the registry
    assert "OLSR" in PROTOCOLS
    assert len(PROTOCOLS) >= 5
    assert sorted(PROTOCOLS) == sorted(registry.known("routing"))
    with pytest.raises(KeyError):
        PROTOCOLS["OSPF"]


def test_view_reflects_late_registrations():
    view = RegistryView("routing")
    before = len(view)
    register("routing", "TEST-LATE")(object)
    try:
        assert len(view) == before + 1
        assert view["test-late"] is object
    finally:
        registry.registry("routing").unregister("TEST-LATE")
    assert len(view) == before


# -- dispatch hygiene ---------------------------------------------------------


def test_no_literal_component_dispatch_in_core():
    """Mirror of the CI grep gate: core modules must not dispatch on
    component names with if/elif chains — the registry is the one seam."""
    pattern = re.compile(
        r"if (scenario|self\.scenario|base)\."
        r"(propagation|boundary|initial_placement|traffic|protocol) =="
    )
    offenders = []
    for path in SRC_CORE.rglob("*.py"):
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            if pattern.search(line):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)
