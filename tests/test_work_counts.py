"""Tree-walk counts of the bundled quartic workloads.

Every node visit of ``expr._eval_array`` and every node the batch walker
evaluates (``expr._value_step``) is counted, so a change that samples a tree
more often fails here whatever the timing noise. The ceilings are measured
counts; lower is fine. The check's grid trees take one batch, which
evaluates each of their 59 distinct subtrees once (164 jet node visits
while each tree was walked on its own, and 27 more plain ones for the
decoupling function). The spectrum's ceiling is the count since d's limit
points at infinity are taken from its certified limits (604 while d was
sampled on 12 dyadic windows, 908 while each tail tree was sampled once per
trajectory, 27,357 while the sweep polished roots on limit batches). The certificate scans are counted too:
one per side for all the tail limits, one for both ends of the regular
curve and one for both ends of d (42 while each tree had a scan of its own
on each trajectory). The sweep's frequency batches are counted
as well: both ends of the quartic share one tail polynomial, which is
swept once (38 batches while each end swept its own), in 6 batches since a
root that is never emitted no longer splits a segment (19 while a root
near 3 + 2.03i, past the emit band, made 13 rounds bisect two segments to
the width floor).
The branch continuation's counts are pinned exactly: the rows it assigns
by array and the joints it leaves to the per-row loop (the quartic's 1,428
array rows fell to 1,396 with the 32 points those rounds added).
Both bundled operators' tail polynomials have degree 2 (quartic) or 1
(parabolic), which ``_companion_roots`` solves in closed form, so their
benchmark runs call ``np.linalg.eigvals`` from ``spectrum`` not at all;
the stacked solves per side are pinned at the counts of that change.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from factories import PARABOLIC_CFG, QUARTIC_CFG
from matspectra import asymptotics, expr, spectrum
from matspectra.cli import main
from matspectra.config import SolverConfig
from matspectra.model import load_operator
from matspectra.spectrum import essential_spectrum

# The window and curve resolution of the benchmark's quartic spectrum run,
# the window of its parabolic one, and the probes its check run draws with
# seed 1.
QUARTIC_WINDOW = SolverConfig().with_overrides(
    window=(-2.0, 2.0, -2.0, 2.0), curve_res=1e-2)
PARABOLIC_WINDOW = SolverConfig().with_overrides(window=(-2.0, 1.0, -0.5, 0.5))
SEED_1_PROBES = "1.163253-1.656608i,-0.113715+3.569169i"


@pytest.fixture
def visits(monkeypatch):
    counts = {"_eval_array": 0, "_value_step": 0}
    for name in counts:
        walk = getattr(expr, name)

        def counted(*args, _walk=walk, _name=name):
            counts[_name] += 1
            return _walk(*args)

        monkeypatch.setattr(expr, name, counted)
    return counts


def test_quartic_spectrum_walks_no_more_nodes(visits):
    op = load_operator(QUARTIC_CFG)
    visits.update(_eval_array=0, _value_step=0)
    essential_spectrum(op, QUARTIC_WINDOW)
    assert visits["_eval_array"] <= 437
    assert visits["_value_step"] == 0


def test_quartic_spectrum_solves_no_more_batches(monkeypatch):
    op = load_operator(QUARTIC_CFG)
    calls = 0
    solve = spectrum._solve_at

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    monkeypatch.setattr(spectrum, "_solve_at", counted)
    essential_spectrum(op, QUARTIC_WINDOW)
    assert calls <= 6


def test_quartic_spectrum_scans_no_more_limit_blocks(monkeypatch):
    op = load_operator(QUARTIC_CFG)
    calls = 0
    scan = asymptotics._limit_block

    def counted(*args):
        nonlocal calls
        calls += 1
        return scan(*args)

    monkeypatch.setattr(asymptotics, "_limit_block", counted)
    essential_spectrum(op, QUARTIC_WINDOW)
    assert calls <= 4


@pytest.mark.parametrize("config, cfg, solves", [
    (QUARTIC_CFG, QUARTIC_WINDOW, 8), (PARABOLIC_CFG, PARABOLIC_WINDOW, 8)],
    ids=["quartic", "parabolic"])
def test_low_degree_tails_call_no_eigvals(config, cfg, solves, monkeypatch):
    calls = 0
    eigvals = np.linalg.eigvals

    def counted(*args, **kwargs):
        nonlocal calls
        calls += sys._getframe(1).f_globals["__name__"] == spectrum.__name__
        return eigvals(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    report = essential_spectrum(load_operator(config), cfg).report
    assert calls == 0
    assert {side: sweep["companion_solves"] for side, sweep
            in report["singular"]["sweeps"].items()} == {"+": solves,
                                                         "-": solves}


@pytest.mark.parametrize("config, branches, array_rows, joints", [
    (QUARTIC_CFG, 2, 1396, 3), (PARABOLIC_CFG, 1, 900, 1)],
    ids=["quartic", "parabolic"])
def test_continuation_takes_the_array_path_between_few_joints(
        config, branches, array_rows, joints):
    # Both bundled operators merge every root into the neutral side; its
    # branches change root count only at a few joints, which take the loop.
    report = essential_spectrum(load_operator(config),
                                QUARTIC_WINDOW).report["singular"]
    idle = {"branches": 0, "array_rows": 0, "joints": 0}
    assert report["continuation"] == {
        "·": {"branches": branches, "array_rows": array_rows,
              "joints": joints},
        "+": idle, "-": idle}


def test_quartic_check_walks_no_more_nodes(visits, tmp_path):
    assert main(["check", "--config", str(QUARTIC_CFG), "--out",
                 str(tmp_path), f"--probes={SEED_1_PROBES}"]) == 0
    assert visits["_eval_array"] <= 304
    assert visits["_value_step"] <= 59
