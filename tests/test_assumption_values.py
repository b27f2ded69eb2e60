"""Hypothesis checks B1/B2/B3/C/D against a lambda-tree reference.

``check_assumptions`` computes its grid values from the x-only trees of the
lambda-free Schur form and array algebra in u = 1/(d - lambda). The
reference below is the direct route it replaced: differentiate and simplify
the lambda-containing coefficient trees p_j and the resolvent-weighted
couplings b/(d - lambda), c/(d - lambda), then walk them on the grid at
every probe by plain recursion (``oracles.evaluate_recursive``). Both routes must give the same values and the same records
(C margins within the gap between the two samplings of p_m), the tree work
must not grow with the number of probes, and no tree is differentiated.
"""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factories import ZERO, quartic_coupled, random_operator, unbounded_coupling
from oracles import evaluate_recursive
from matspectra import asymptotics as asymptotics_module
from matspectra.asymptotics import (
    PROBE_MARGIN,
    _check_b2,
    _check_bounded,
    _check_c,
    _GridJets,
    _series,
    _u_powers,
    check_assumptions,
    limit_ratio,
)
from matspectra.cli import DEFAULT_PROBES
from matspectra.config import SolverConfig
from matspectra.errors import NotConvergent, PoleError
from matspectra.expr import (LAM, Add, Div, Lit, Mul, Neg, Pow, Sub,
                             differentiate, parse, simplify)
from matspectra.model import (DiagnosticRecord, Diagnostics, OperatorMatrix,
                              delta, validation_grid)
from matspectra.schur import build_schur, coefficient_trees

CFG = SolverConfig()
GRID = validation_grid(CFG)

# Probes the benchmark's check workload draws for seeds 1 and 404. The
# p_m arguments of the second seed-404 probe span only [21.9, 104.3]
# degrees, so C holds there, with margin 1.3739 at theta = 5.533; a
# rotation confined to [0, pi] misses that angle and reports margin -0.71.
SEED_1_PROBES = (1.163253 - 1.656608j, -0.113715 + 3.569169j)
SEED_404_SECTOR_PROBE = 1.261071 + 0.839285j


# ---------------------------------------------------------------------------
# Reference: lambda-containing trees walked at every probe
# ---------------------------------------------------------------------------

def _with_two_derivatives(tree):
    first = simplify(differentiate(tree, "x"))
    return tree, first, simplify(differentiate(first, "x"))


def reference_b1_trees(trees):
    """(witness label, tree) for p_j and its first two x-derivatives."""
    return [(f"d^{order} p_{j} / dx^{order}", tree)
            for j, p in enumerate(trees)
            for order, tree in enumerate(_with_two_derivatives(p))]


def reference_b3_trees(op):
    """c_gamma/(d-lambda) plain; b_beta/(d-lambda) with two derivatives."""
    resolvent_den = Sub(op.d, LAM)
    trees = [(f"d^0/dx^0 of c_{gamma}/(d-lambda)",
              simplify(Div(c, resolvent_den)))
             for gamma, c in enumerate(op.c)]
    for beta, b in enumerate(op.b):
        base = simplify(Div(b, resolvent_den))
        trees += [(f"d^{order}/dx^{order} of b_{beta}/(d-lambda)", tree)
                  for order, tree in enumerate(_with_two_derivatives(base))]
    return trees


def tree_values(labelled_trees, grid, probe):
    return [(label, np.broadcast_to(
                np.asarray(evaluate_recursive(tree, x=grid, lam=probe),
                           dtype=np.complex128), grid.shape))
            for label, tree in labelled_trees]


def rounding_scale(tree, grid, probe):
    """The tree evaluated with every sum replaced by a sum of magnitudes.

    Rounding in the simplified tree, both in its evaluation and in the
    coefficients simplify computed, is bounded by a small multiple of this.
    """
    if isinstance(tree, (Add, Sub)):
        return (rounding_scale(tree.left, grid, probe)
                + rounding_scale(tree.right, grid, probe))
    if isinstance(tree, Mul):
        return (rounding_scale(tree.left, grid, probe)
                * rounding_scale(tree.right, grid, probe))
    if isinstance(tree, Div):
        return (rounding_scale(tree.left, grid, probe)
                / np.abs(evaluate_recursive(tree.right, x=grid, lam=probe)))
    if isinstance(tree, Neg):
        return rounding_scale(tree.arg, grid, probe)
    if isinstance(tree, Pow) and tree.exponent > 0:
        return rounding_scale(tree.base, grid, probe) ** tree.exponent
    return np.abs(evaluate_recursive(tree, x=grid, lam=probe))


def reference_check_d(symbol, probe):
    for side in ("+", "-"):
        try:
            limit_ratio(symbol, probe, side)
        except NotConvergent as exc:
            tail_increment = exc.witness[-1][1] if exc.witness else np.inf
            return DiagnosticRecord(
                "D", "fail", probe=probe,
                witness=(f"coefficient limits toward {side}infinity did not "
                         "converge", probe, float(tail_increment)))
        except PoleError as exc:
            return DiagnosticRecord(
                "D", "fail", probe=probe,
                witness=(f"trajectory toward {side}infinity hit a pole: {exc}",
                         probe, np.inf))
    return DiagnosticRecord("D", "pass", probe=probe)


def reference_check_assumptions(op, symbol_op, probes, grid):
    """The records for ``op`` checked with the symbol of ``symbol_op``."""
    symbol = build_schur(symbol_op)
    trees = coefficient_trees(symbol_op)
    b1_trees = reference_b1_trees(trees)
    b3_trees = reference_b3_trees(op)
    delta_vals = np.broadcast_to(
        np.asarray(evaluate_recursive(delta(op), x=grid), dtype=np.complex128),
        grid.shape)
    delta_vals = delta_vals[np.isfinite(delta_vals)]
    records = []
    for probe in map(complex, probes):
        near_curve = bool(delta_vals.size) and float(
            np.min(np.abs(delta_vals - probe))) <= PROBE_MARGIN
        p_m = tree_values([("p_m", trees[symbol.m])], grid, probe)[0][1]
        batch = [
            _check_bounded("B1", tree_values(b1_trees, grid, probe), probe,
                           grid),
            _check_b2(p_m, probe, grid),
            _check_bounded("B3", tree_values(b3_trees, grid, probe), probe,
                           grid),
            _check_c(p_m, probe, grid),
            reference_check_d(symbol, probe),
        ]
        for record in batch:
            if near_curve and record.status == "fail":
                label, location, measured = record.witness
                record = DiagnosticRecord(
                    assumption=record.assumption, status="inconclusive",
                    probe=record.probe,
                    witness=(f"probe within {PROBE_MARGIN:g} of the "
                             f"sampled decoupling curve; {label}",
                             location, measured),
                    theta=record.theta, delta_margin=record.delta_margin)
            records.append(record)
    return Diagnostics(records=tuple(records))


# ---------------------------------------------------------------------------
# Grid values: lambda-free form versus lambda trees
# ---------------------------------------------------------------------------

def x_only_finite(jets: _GridJets) -> np.ndarray:
    """Grid points where every x-only sample behind the values is finite."""
    form = jets.form
    arrays = [a for terms in form.p for _, jet in terms if jet is not None
              for a in jet]
    arrays += [a for jet in (form.d, jets.d, *jets.b)
               if jet is not None for a in jet]
    arrays += [c for c in jets.c if c is not None]
    finite = np.ones(form.xs.shape, dtype=bool)
    for a in arrays:
        finite &= np.isfinite(a)
    return finite


def term_scales(jets: _GridJets, probe):
    """Per point, the summed magnitudes of the terms behind each value.

    Same order as the values of ``jets.values``. Rounding in the sum of
    the lambda-free terms is bounded by a small multiple of this scale.
    Negating |d'| and |d''| turns every term of the series positive.
    """
    def magnitude(terms):
        return [(q, None if jet is None else tuple(np.abs(a) for a in jet))
                for q, jet in terms]

    def series(terms, d):
        u = [None if k is None else np.abs(k)
             for k in _u_powers(d[0], probe, jets.form.top + 2)]
        signed = (None, -np.abs(d[1]), -np.abs(d[2]))
        out = [np.zeros(jets.form.xs.shape) for _ in range(3)]
        return _series(out, magnitude(terms), signed, u)

    b1 = []
    for j, terms in enumerate(jets.form.p):
        scales = series(terms, jets.form.d)
        if j == 0:
            scales[0] = scales[0] + abs(probe)
        b1 += scales
    u = np.abs(_u_powers(jets.d[0], probe, 1)[1])
    b3 = [0.0 if c is None else np.abs(c) * u for c in jets.c]
    for b in jets.b:
        b3 += series([(1, b)], jets.d)
    return b1, b3


def assert_values_match(new, labelled_trees, scales, finite, probe):
    """Equal finiteness where ``finite``; values within both rounding scales.

    The absolute floor covers what no scale sees: the coefficients that
    simplify rounds inside the lambda trees. Next to d(x) = lambda they
    leave the reference off by up to 5e-6 on values of order one (a
    60-digit evaluation of the coefficient's definition gives 0 where the
    tree gives 5e-6 and the lambda-free form 0), far below ``BOUND_CAP``.
    """
    reference = tree_values(labelled_trees, GRID, probe)
    assert [label for label, _ in new] == [label for label, _ in reference]
    for (label, got), (_, want), (_, tree), scale in zip(
            new, reference, labelled_trees, scales):
        assert got.shape == want.shape, label
        assert np.array_equal(np.isfinite(got)[finite],
                              np.isfinite(want)[finite]), label
        scale = scale + rounding_scale(tree, GRID, probe)
        both = np.isfinite(got) & np.isfinite(want) & np.isfinite(scale)
        gap = np.abs(got - want)[both]
        allowed = 1e-12 * (np.abs(want) + scale)[both] + 1e-4
        assert np.all(gap <= allowed), (label, float(np.max(gap / allowed)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 4]),
       probe_re=st.floats(-4.0, 4.0), probe_im=st.floats(-4.0, 4.0))
def test_grid_values_match_lambda_trees(seed, m, probe_re, probe_im):
    probe = complex(probe_re, probe_im)
    # lambda = 0 is the limit of every decaying d the factory draws; next
    # to it u = 1/(d - lambda) grows like exp(x^2/2) along the grid and
    # both routes leave the floating-point range.
    assume(abs(probe) >= 1e-3)
    op = random_operator(random.Random(seed), m)
    symbol = build_schur(op)
    jets = _GridJets.sample(op, symbol, GRID)
    b1, p_m, b3 = jets.values(probe)
    with np.errstate(all="ignore"):
        finite = x_only_finite(jets)
        b1_scales, b3_scales = term_scales(jets, probe)
        assert_values_match(b1, reference_b1_trees(coefficient_trees(op)),
                            b1_scales, finite, probe)
        assert_values_match(b3, reference_b3_trees(op), b3_scales, finite,
                            probe)
    assert p_m is b1[3 * symbol.m][1]


# ---------------------------------------------------------------------------
# Records: identical decisions, measured values within rounding
# ---------------------------------------------------------------------------

def foreign_symbol_operator():
    """An m = 2 operator whose symbol (d = 1/(2 + x^2)) is checked against
    the quartic's b, c and d."""
    return OperatorMatrix(
        a=(parse("x^2 + sin(x)"), parse("cos(x)"), parse("2 + exp(-x^2)")),
        b=(ZERO, Lit(-1j)), c=(ZERO, Lit(1j)), d=parse("1/(2 + x^2)"))


def close(a, b):
    if a is None or b is None:
        return a is b
    if not (np.isfinite(a) and np.isfinite(b)):
        return a == b
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def assert_sector_records_agree(new, ref, p_m, ref_p_m):
    """C records computed from two samplings of p_m.

    Both margins are exact for their own samples, and the margin is
    1-Lipschitz in the samples under the sup norm, so the margins differ
    by at most sup |p_m - ref_p_m|. Where p_m has several near-optimal
    angles, theta may move much further than that, so it is judged by the
    margin it attains on the reference samples instead: no more than the
    reference margin, and less by at most twice the sample gap.
    """
    finite = np.isfinite(ref_p_m)
    assert np.array_equal(np.isfinite(p_m), finite)
    assert (new.witness is None) == (ref.witness is None)
    if ref.delta_margin is None:  # p_m nowhere finite
        assert new.witness == ref.witness
        assert (new.theta, new.delta_margin) == (None, None)
        return
    if new.witness is not None:
        assert new.witness == (ref.witness[0], new.theta, new.delta_margin)
    gap = float(np.max(np.abs(p_m - ref_p_m)[finite]))
    assert abs(new.delta_margin - ref.delta_margin) <= gap
    assert 0.0 <= new.theta < 2.0 * np.pi
    attained = float(np.min((np.exp(1j * new.theta) * ref_p_m[finite]).real))
    assert ref.delta_margin - 2.0 * gap <= attained <= ref.delta_margin


@pytest.mark.parametrize("case,probes", [
    ("quartic", DEFAULT_PROBES),
    ("quartic", (*SEED_1_PROBES, SEED_404_SECTOR_PROBE)),
    ("x^2", (2.0 + 3j, 0.0005j, -1.0 + 0j)),
    ("sin(x^2)", (2.0 + 3j, -1.5 + 0.5j)),
    ("foreign-symbol", (2.0 + 3j, -1.0 + 0j)),
])
def test_records_match_lambda_tree_reference(case, probes):
    if case == "quartic":
        op = symbol_op = quartic_coupled()
    elif case == "foreign-symbol":
        op, symbol_op = quartic_coupled(), foreign_symbol_operator()
    else:
        op = symbol_op = unbounded_coupling(case)
    symbol = build_schur(symbol_op)
    assert (symbol.d == op.d) == (case != "foreign-symbol")
    got = check_assumptions(op, symbol, probes, GRID).records
    want = reference_check_assumptions(op, symbol_op, probes, GRID).records
    jets = _GridJets.sample(op, symbol, GRID)
    p_m_tree = coefficient_trees(symbol_op)[symbol.m]
    assert len(got) == len(want)
    for new, ref in zip(got, want):
        assert (new.assumption, new.status, new.probe) \
            == (ref.assumption, ref.status, ref.probe)
        if new.assumption == "C":
            ref_p_m = tree_values([("p_m", p_m_tree)], GRID, new.probe)[0][1]
            assert_sector_records_agree(new, ref, jets.values(new.probe)[1],
                                        ref_p_m)
            continue
        assert close(new.theta, ref.theta)
        assert close(new.delta_margin, ref.delta_margin)
        if ref.witness is None:
            assert new.witness is None
            continue
        (label, location, measured) = new.witness
        (ref_label, ref_location, ref_measured) = ref.witness
        assert (label, location) == (ref_label, ref_location)
        assert close(measured, ref_measured)
    if case == "foreign-symbol":
        # B1 comes from the symbol's d, B3 from the operator's.
        for probe in probes:
            b1, _, b3 = jets.values(probe)
            with np.errstate(all="ignore"):
                b1_scales, b3_scales = term_scales(jets, probe)
                finite = x_only_finite(jets)
                assert_values_match(b1, reference_b1_trees(
                    coefficient_trees(symbol_op)), b1_scales, finite, probe)
                assert_values_match(b3, reference_b3_trees(op), b3_scales,
                                    finite, probe)
    if SEED_404_SECTOR_PROBE in probes:
        sector = [r for r in got if r.assumption == "C"][-1]
        assert sector.status == "pass"
        assert abs(sector.delta_margin - 1.3739) <= 1e-4


# ---------------------------------------------------------------------------
# Work: sampling once per call, never a lambda tree
# ---------------------------------------------------------------------------

def test_probe_count_leaves_tree_work_unchanged(monkeypatch):
    """Tree walks do not grow with the probes, the grid trees are walked
    in one batch and the trajectory form for D in another, and no tree is
    differentiated.

    ``differentiate`` and ``simplify`` are replaced wherever a module of
    the package holds them, so a call through any import counts.
    """
    op = quartic_coupled()
    symbol = build_schur(op)
    calls = {"evaluate_array": 0, "evaluate_batch": 0}
    symbolic = []

    def counting(name, func):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapped

    def recording(name, func):
        def wrapped(tree, *args, **kwargs):
            symbolic.append((name, tree))
            return func(tree, *args, **kwargs)
        return wrapped

    for name in ("evaluate_array", "evaluate_batch"):
        monkeypatch.setattr(asymptotics_module, name,
                            counting(name, getattr(asymptotics_module, name)))
    for module in [m for key, m in sys.modules.items()
                   if key.split(".")[0] == "matspectra"]:
        for name, func in (("differentiate", differentiate),
                           ("simplify", simplify)):
            if getattr(module, name, None) is func:
                monkeypatch.setattr(module, name, recording(name, func))

    probes = [1.7 + 2.3j, -2.6 + 1.1j, 0.4 - 1.9j, 2j, -3.0 + 0j]
    counts = []
    for count in (1, 5):
        calls.update(evaluate_array=0, evaluate_batch=0)
        check_assumptions(op, symbol, probes[:count], GRID)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0] == {"evaluate_array": 0, "evaluate_batch": 2}
    assert symbolic == []
