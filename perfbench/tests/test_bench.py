"""Tests of the benchmark itself: tracer, gates, probes, metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import re
import sys

import numpy as np
import pytest

import matspectra
import run
import tracer as tracing
from matspectra import SolverConfig, load_operator
from workloads import (QUARTIC_CFG, QuarticReference, draw_probes,
                       parabolic_verdict, quartic_verdict)

from conftest import ROOT

NAME = re.compile(r"[A-Za-z0-9_.-]+")

QUICK = SolverConfig().with_overrides(xi_points=40, xi_max=2.0,
                                      curve_res=0.02, grid_points=512)


def _package_bindings() -> dict:
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "matspectra" or name.startswith("matspectra.")
            for attr, value in vars(module).items() if callable(value)}


@pytest.fixture(scope="module")
def quartic():
    op = load_operator(ROOT / QUARTIC_CFG)
    return op, matspectra.essential_spectrum(op, QUICK)


def test_tracer_restores_every_wrapped_attribute():
    before = _package_bindings()
    with tracing.Tracer() as tracer:
        during = _package_bindings()
        changed = {key for key in before if during[key] is not before[key]}
        # Caller-side names are wrapped, not only the defining module's.
        assert ("matspectra.spectrum", "limit_ratio_batch") in changed
        assert ("matspectra.asymptotics", "limit_ratio_batch") in changed
        assert ("matspectra.cli", "write_csv") in changed
        matspectra.limit_ratio_batch(
            matspectra.build_schur(load_operator(ROOT / QUARTIC_CFG)),
            [1.0 + 1.0j], "+")
    after = _package_bindings()
    assert all(after[key] is before[key] for key in before)
    assert len(changed) >= len(tracing.SPAN_LAYERS)

    recorded = len(tracer.spans)
    assert recorded > 0
    op = load_operator(ROOT / QUARTIC_CFG)
    matspectra.singular_part(op, xi_grid=np.array([0.0, 0.5]), cfg=QUICK)
    assert len(tracer.spans) == recorded
    assert not tracer.counts.get(f"{tracing.SEGMENT_CHECK}.calls")


def test_traced_children_account_for_singular_part_busy_time():
    op = load_operator(ROOT / QUARTIC_CFG)
    with tracing.Tracer() as tracer:
        matspectra.essential_spectrum(op, QUICK)
    metrics = tracer.layer_metrics()
    assert metrics["spectrum.singular_part.calls"] == 1
    assert metrics["spectrum.singular_part.accounted"] == pytest.approx(1.0)
    assert metrics["spectrum._companion_roots.calls"] > 0
    assert metrics[f"{tracing.SEGMENT_CHECK}.calls"] > 0
    assert metrics["expr.evaluate_array.self_s"] == pytest.approx(
        metrics["expr.evaluate_array.busy_s"])
    assert set(metrics) == set(tracing.per_layer_metric_names())


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (0, "root", None, 0.0, 10.0),
        (1, "child", 0, 1.0, 5.0),   # two worker threads overlapping
        (2, "child", 0, 3.0, 6.0),
        (3, "leaf", 1, 2.0, 3.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)


def test_quartic_gate_rejects_a_singular_point_shifted_by_1e_3(quartic):
    op, spectrum = quartic
    reference = QuarticReference(op)
    reason, ref_dev = quartic_verdict(spectrum, reference)
    assert reason == "" and ref_dev <= 1e-6

    singular = list(spectrum.singular)
    mid = len(singular) // 2
    singular[mid] = dataclasses.replace(singular[mid],
                                        lam=singular[mid].lam + 1e-3)
    shifted = dataclasses.replace(spectrum, singular=tuple(singular))
    reason, ref_dev = quartic_verdict(shifted, reference)
    assert reason and ref_dev == pytest.approx(1e-3, rel=1e-3)


def test_parabolic_gate_rejects_a_point_shifted_by_1e_3():
    regular = np.linspace(-2.0, -1.0, 2_001).astype(complex)
    singular = np.linspace(0.0, 1.0, 2_001).astype(complex)
    reason, ref_dev = parabolic_verdict(regular, singular)
    assert reason == "" and ref_dev == 0.0
    singular[5] += 1e-3j
    reason, ref_dev = parabolic_verdict(regular, singular)
    assert reason and ref_dev == pytest.approx(1e-3)


def test_same_seed_gives_same_probes():
    assert draw_probes(7) == draw_probes(7)
    assert draw_probes(7) != draw_probes(8)
    for seed in range(20):
        for z in draw_probes(seed):
            assert 1.5 <= abs(z) <= 4.0


def test_costs_are_medians_of_wall_over_reference():
    outcome = type("Outcome", (), {"rows": 100})()
    passed = [(1.0, outcome, 0.1), (3.0, outcome, 0.1), (2.0, outcome, 0.2)]
    setups = [(0.4, 0.1), (0.5, 0.2), (0.9, 0.1)]
    emitted = run.end_to_end_metrics(passed, setups)
    assert emitted["op_cost"]["value"] == pytest.approx(10.0)
    assert emitted["rows_per_ref"]["value"] == pytest.approx(10.0)
    assert emitted["setup_s"]["value"] == pytest.approx(4.0 * run.NOMINAL_S)


def test_reference_computation_does_not_use_the_program():
    import reference
    source = (ROOT / "perfbench" / "reference.py").read_text(encoding="utf-8")
    assert "matspectra" not in source
    assert reference.time_reference() > 0.0


def test_every_metric_name_is_well_formed_and_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == tracing.per_layer_metric_names()
    assert [m["unit"] for m in spec["per_layer"]] == [
        tracing.metric_unit(name) for name in per_layer]

    outcome = type("Outcome", (), {"rows": 10})()
    emitted = run.end_to_end_metrics([(1.0, outcome, 0.1)], [(0.5, 0.1)])
    assert list(emitted) == end_to_end
    assert [v["unit"] for v in emitted.values()] == [
        m["unit"] for m in spec["end_to_end"]]
    for name in [*end_to_end, *per_layer]:
        assert NAME.fullmatch(name) and len(name) <= 64
