"""Tree-walk counts of the bundled quartic workloads.

Every node the one tree walker evaluates (``expr._value_step``) is
counted, so a change that samples a tree more often fails here whatever
the timing noise. The ceilings are measured counts; lower is fine. The
spectrum's ceiling is the count since one ledger walk samples every tail
tree of the run, the decoupling function, d, 1/d, alpha_j, beta_jq and
beta_jq/d^q, each distinct subtree once (285 ``_eval_array`` node visits
while each tree was walked on its own, 437 while each side walked its own,
604 while d was sampled on 12 dyadic windows, 908 while each tail tree was
sampled once per trajectory, 27,357 while the sweep polished roots on
limit batches). The check's ceiling covers the grid trees, whose batch
evaluates each of their 59 distinct subtrees once, the trajectory form for
D, walked once for both sides, and the leading coefficient's validation
samples (363 while the recursive walker sampled the form once per side).
The certificate scans are counted too: one for every tail limit of the
run on both bundled operators (3 on the quartic while the regular curve's
ends and d's had scans of their own; 7 on the parabolic, whose d
diverges, while 1/d took scans of its own and two more named the regular
curve's refused ends; 42 while each tree had a scan of its own on each
trajectory), and no tree is certified on its own by ``limit_of``. The
sweep's frequency batches are counted
as well: both ends of the quartic share one tail polynomial, which is
swept once (38 batches while each end swept its own), in 3 batches since
a round solves each split segment's bisection subtree down to the depth
its gap predicts (6 while a round solved one midpoint per segment, 19
while a root near 3 + 2.03i, past the emit band, made 13 rounds bisect two
segments to the width floor). The refinement rounds per side are pinned
too: 2 for either benchmark window (5 for the quartic and 7 for the
parabolic one while each round went one level down), with one
``_split_gap`` call for each round that splits, since the last round's
rescan, which finds nothing to split, stops at the split check (one more
per sweep while it took the gaps of no segment).
The quartic's symbol build is counted by its ``expr._to_product`` walks:
one memo across its ``simplify`` calls normalizes each shared subtree
once (307 walks while each call walked its whole tree).
The branch continuation's counts are pinned exactly: the rows it assigns
by array and the joints it leaves to the per-row loop (the quartic's 1,428
array rows fell to 1,396 with the 32 points those rounds added, and rose
to 1,424 with the 28 frequencies the depth rule adds).
Both bundled operators' tail polynomials have degree 2 (quartic) or 1
(parabolic), which ``_companion_roots`` solves in closed form, so their
benchmark runs call ``np.linalg.eigvals`` from ``spectrum`` not at all;
the stacked solves per side are pinned, one per shape group of each
batch (8 for either window while the sweep took 6 and 8 batches).
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
    counts = {"_value_step": 0}
    step = expr._value_step

    def counted(*args):
        counts["_value_step"] += 1
        return step(*args)

    monkeypatch.setattr(expr, "_value_step", counted)
    return counts


def test_quartic_spectrum_walks_no_more_nodes(visits):
    op = load_operator(QUARTIC_CFG)
    visits.update(_value_step=0)
    essential_spectrum(op, QUARTIC_WINDOW)
    assert visits["_value_step"] <= 118


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
                  lambda: essential_spectrum(op, QUARTIC_WINDOW)) <= 3


@pytest.mark.parametrize("config, cfg", [
    (QUARTIC_CFG, QUARTIC_WINDOW), (PARABOLIC_CFG, PARABOLIC_WINDOW)],
    ids=["quartic", "parabolic"])
def test_benchmark_windows_refine_in_two_rounds(config, cfg):
    sweeps = essential_spectrum(load_operator(config),
                                cfg).report["singular"]["sweeps"]
    assert {side: sweep["refinement_rounds"] <= 2
            for side, sweep in sweeps.items()} == {"+": True, "-": True}


@pytest.mark.parametrize("config, cfg", [
    (QUARTIC_CFG, QUARTIC_WINDOW), (PARABOLIC_CFG, PARABOLIC_WINDOW)],
    ids=["quartic", "parabolic"])
def test_benchmark_windows_take_no_gap_past_the_last_split(config, cfg,
                                                           monkeypatch):
    op = load_operator(config)
    sweeps = 0
    sweep_side = spectrum._sweep_side

    def counted(*args):
        nonlocal sweeps
        sweeps += 1
        return sweep_side(*args)

    monkeypatch.setattr(spectrum, "_sweep_side", counted)
    gaps = _calls(monkeypatch, spectrum, "_split_gap",
                  lambda: essential_spectrum(op, cfg))
    assert sweeps >= 1
    assert gaps <= 2 * sweeps


def test_quartic_symbol_build_walks_no_more_subtrees(monkeypatch):
    op = load_operator(QUARTIC_CFG)
    assert _calls(monkeypatch, expr, "_to_product",
                  lambda: build_schur(op)) <= 196


def test_quartic_spectrum_scans_no_more_limit_blocks(monkeypatch):
    op = load_operator(QUARTIC_CFG)
    assert _calls(monkeypatch, asymptotics, "_limit_block",
                  lambda: essential_spectrum(op, QUARTIC_WINDOW)) <= 1


def test_parabolic_spectrum_scans_no_more_limit_blocks(monkeypatch):
    op = load_operator(PARABOLIC_CFG)
    assert _calls(monkeypatch, asymptotics, "_limit_block",
                  lambda: essential_spectrum(op, PARABOLIC_WINDOW)) <= 1


def _recorded_walks(monkeypatch) -> list:
    """The (shape of x, tree count) of every ``evaluate_batch`` walk that
    ``asymptotics`` makes."""
    walks = []
    real = asymptotics.evaluate_batch

    def recorded(x, jets=(), values=(), **env):
        walks.append((np.shape(x), len(jets) + len(values)))
        return real(x, jets, values, **env)

    monkeypatch.setattr(asymptotics, "evaluate_batch", recorded)
    return walks


def _labels(symbol) -> int:
    """How many distinct trees the symbol's limits read, toward either side
    and whether or not d settles."""
    return len({row[0] for rows in asymptotics.symbol_rows(symbol)
                for row in rows})


@pytest.mark.parametrize("config", [QUARTIC_CFG, PARABOLIC_CFG],
                         ids=["quartic", "parabolic"])
def test_tail_trees_are_walked_once_for_both_sides(config, monkeypatch):
    # One walk samples the four trajectories (both sides, X0 and recheck)
    # of every tree either side may read, 1/d and beta_jq/d^q included.
    symbol = build_schur(load_operator(config))
    walks = _recorded_walks(monkeypatch)
    spectrum.singular_part(load_operator(config), symbol, cfg=QUARTIC_WINDOW)
    assert walks == [((asymptotics.T + 1, 4), _labels(symbol))]


@pytest.mark.parametrize("config, cfg", [
    (QUARTIC_CFG, QUARTIC_WINDOW), (PARABOLIC_CFG, PARABOLIC_WINDOW)],
    ids=["quartic", "parabolic"])
def test_spectrum_certifies_every_tail_limit_in_one_ledger(config, cfg,
                                                           monkeypatch):
    # One walk and one scan for the decoupling function, d, 1/d and the
    # symbol's trees, and no tree certified on its own by limit_of, through
    # whichever module holds it.
    op = load_operator(config)
    walks = _recorded_walks(monkeypatch)
    certified = []
    limit_of = asymptotics.limit_of
    for module in [module for name, module in sys.modules.items()
                   if name.split(".")[0] == "matspectra"]:
        if getattr(module, "limit_of", None) is limit_of:
            monkeypatch.setattr(module, "limit_of",
                                lambda *args: certified.append(args))
    scans = _calls(monkeypatch, asymptotics, "_limit_block",
                   lambda: essential_spectrum(op, cfg))
    assert walks == [((asymptotics.T + 1, 4), 1 + _labels(build_schur(op)))]
    assert scans == 1
    assert certified == []


@pytest.mark.parametrize("config, cfg", [
    (QUARTIC_CFG, QUARTIC_WINDOW), (PARABOLIC_CFG, PARABOLIC_WINDOW)],
    ids=["quartic", "parabolic"])
def test_shared_sweeps_merge_no_sides(config, cfg, monkeypatch):
    op = load_operator(config)
    assert _calls(monkeypatch, spectrum, "_merge_sides",
                  lambda: essential_spectrum(op, cfg)) == 0


@pytest.mark.parametrize("config, cfg, solves", [
    (QUARTIC_CFG, QUARTIC_WINDOW, 5), (PARABOLIC_CFG, PARABOLIC_WINDOW, 3)],
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
    (QUARTIC_CFG, 2, 1424, 3), (PARABOLIC_CFG, 1, 900, 1)],
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
    assert visits["_value_step"] <= 112
