"""Every exported name resolves, so no export outlives what it names; the
solver config and the exceptional set carry only what callers use, and a
helper only tests call lives in the tests."""

import dataclasses
import importlib

import pytest

import matspectra
from matspectra import ConfigError, ExceptionalSet, SolverConfig, schur


@pytest.mark.parametrize("module_name", ["matspectra", "matspectra.cli"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_config_and_exceptional_set_keep_only_used_fields():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "curve_res", "grid_points", "xi_max", "xi_points", "window"]
    # The limit trajectories start at the fixed asymptotics.X0.
    with pytest.raises(ConfigError, match="unknown config key: 'x0'"):
        SolverConfig().with_overrides(x0=16.0)
    sources = {"+": "escapes", "-": "escapes"}
    assert set(ExceptionalSet((), (), (), sources).to_json_dict()) == {
        "points", "radii", "window_exponents", "sources"}


def test_test_only_helpers_are_not_exported():
    # apply_operator checks the reduction's algebra in tests/oracles.py.
    assert "apply_operator" not in matspectra.__all__
    assert not hasattr(schur, "apply_operator")
