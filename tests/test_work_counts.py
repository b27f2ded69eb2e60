"""Tree-walk counts of the bundled quartic workloads.

Every node visit of ``expr._eval_array`` and every node the batch walker
evaluates (``expr._value_step``) is counted, so a change that samples a tree
more often fails here whatever the timing noise. The ceilings are measured
counts; lower is fine. The check's grid trees take one batch, which
evaluates each of their 59 distinct subtrees once (164 jet node visits
while each tree was walked on its own, and 27 more plain ones for the
decoupling function). The spectrum's ceiling is the count since each tail
tree is walked once for both sides' limits (437 while each side walked
its own, 604 while d was sampled on 12 dyadic windows, 908 while each tail
tree was sampled once per trajectory, 27,357 while the sweep polished
roots on limit batches). The certificate scans are counted too: one for
all the tail limits of both sides, one for both ends of the regular curve
and one for both ends of d (4 while each side scanned its own tail limits,
42 while each tree had a scan of its own on each trajectory). The
parabolic's d diverges, so its run adds a scan of 1/d for its limit
points, one for 1/d and beta_jq/d^q toward both sides and two that name
the regular curve's refused ends (11 while each side scanned its own
trees, took 1/d in a scan of its own and scanned d again to name its
refusal). The sweep's frequency batches are counted
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
Both sides of either bundled operator share one sweep, so every root is
neutral and ``_merge_sides`` never runs.
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
from matspectra.schur import build_schur
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
    assert visits["_eval_array"] <= 285
    assert visits["_value_step"] == 0


def _calls(monkeypatch, module, name: str, run) -> int:
    """How often ``run()`` calls ``module.name``."""
    calls = 0
    real = getattr(module, name)

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    run()
    return calls


def test_quartic_spectrum_solves_no_more_batches(monkeypatch):
    op = load_operator(QUARTIC_CFG)
    assert _calls(monkeypatch, spectrum, "_solve_at",
                  lambda: essential_spectrum(op, QUARTIC_WINDOW)) <= 6


def test_quartic_spectrum_scans_no_more_limit_blocks(monkeypatch):
    op = load_operator(QUARTIC_CFG)
    assert _calls(monkeypatch, asymptotics, "_limit_block",
                  lambda: essential_spectrum(op, QUARTIC_WINDOW)) <= 3


def test_parabolic_spectrum_scans_no_more_limit_blocks(monkeypatch):
    op = load_operator(PARABOLIC_CFG)
    assert _calls(monkeypatch, asymptotics, "_limit_block",
                  lambda: essential_spectrum(op, PARABOLIC_WINDOW)) <= 7


@pytest.mark.parametrize("config, diverges", [
    (QUARTIC_CFG, False), (PARABOLIC_CFG, True)], ids=["quartic", "parabolic"])
def test_tail_trees_are_walked_once_for_both_sides(config, diverges,
                                                    monkeypatch):
    # Every walk samples the four trajectories (both sides, X0 and recheck)
    # at once; a d that diverges adds one walk of 1/d and beta_jq/d^q.
    symbol = build_schur(load_operator(config))
    walks = []
    real = asymptotics.evaluate_array

    def recorded(tree, **env):
        walks.append(np.shape(env["x"]))
        return real(tree, **env)

    monkeypatch.setattr(asymptotics, "evaluate_array", recorded)
    spectrum.singular_part(load_operator(config), symbol, cfg=QUARTIC_WINDOW)
    trees = 1 + len(list(asymptotics._tail_trees(symbol, False)))
    if diverges:
        trees += 1 + len(list(asymptotics._tail_trees(symbol, True)))
    assert walks == [(asymptotics.T + 1, 4)] * trees


@pytest.mark.parametrize("config, cfg", [
    (QUARTIC_CFG, QUARTIC_WINDOW), (PARABOLIC_CFG, PARABOLIC_WINDOW)],
    ids=["quartic", "parabolic"])
def test_shared_sweeps_merge_no_sides(config, cfg, monkeypatch):
    op = load_operator(config)
    assert _calls(monkeypatch, spectrum, "_merge_sides",
                  lambda: essential_spectrum(op, cfg)) == 0


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
