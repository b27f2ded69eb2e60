"""Every exported name resolves, so no export outlives what it names."""

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["matspectra", "matspectra.cli"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
