"""Every name a package exports resolves through its lazy re-export."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.ca",
    "repro.metrics",
    "repro.mobility",
    "repro.routing",
    "repro.traffic",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        module.missing

