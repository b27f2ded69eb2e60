"""Hypothesis checks B1/B2/B3/C/D against a lambda-tree reference.

``check_assumptions`` computes its grid values from the x-only trees of the
lambda-free Schur form and array algebra in u = 1/(d - lambda). The
reference below is the direct route it replaced: differentiate and simplify
the lambda-containing coefficient trees p_j and the resolvent-weighted
couplings b/(d - lambda), c/(d - lambda), then walk them on the grid at
every probe. Both routes must give the same values and the same records,
and the tree work must not grow with the number of probes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factories import quartic_coupled, random_operator, unbounded_coupling
from matspectra import asymptotics as asymptotics_module
from matspectra import model as model_module
from matspectra.asymptotics import (
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
from matspectra.expr import (LAM, Add, Div, Mul, Neg, Pow, Sub, differentiate,
                             evaluate_array, mentions, parse, simplify)
from matspectra.model import (DiagnosticRecord, Diagnostics, delta,
                              validation_grid)
from matspectra.schur import SchurSymbol, build_schur

CFG = SolverConfig()
GRID = validation_grid(CFG)

# Probes the benchmark's check workload draws for seeds 1 and 404; the
# second seed-404 probe genuinely fails the sector condition C.
SEED_1_PROBES = (1.163253 - 1.656608j, -0.113715 + 3.569169j)
SEED_404_C_FAILURE = 1.261071 + 0.839285j


# ---------------------------------------------------------------------------
# Reference: lambda-containing trees walked at every probe
# ---------------------------------------------------------------------------

def _with_two_derivatives(tree):
    first = simplify(differentiate(tree, "x"))
    return tree, first, simplify(differentiate(first, "x"))


def reference_b1_trees(symbol):
    """(witness label, tree) for p_j and its first two x-derivatives."""
    return [(f"d^{order} p_{j} / dx^{order}", tree)
            for j, p in enumerate(symbol.p)
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
                np.asarray(evaluate_array(tree, x=grid, lam=probe),
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
                / np.abs(evaluate_array(tree.right, x=grid, lam=probe)))
    if isinstance(tree, Neg):
        return rounding_scale(tree.arg, grid, probe)
    if isinstance(tree, Pow) and tree.exponent > 0:
        return rounding_scale(tree.base, grid, probe) ** tree.exponent
    return np.abs(evaluate_array(tree, x=grid, lam=probe))


def reference_check_d(symbol, probe, cfg):
    for side in ("+", "-"):
        try:
            limit_ratio(symbol, probe, side, cfg)
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


def reference_check_assumptions(op, symbol, probes, grid, cfg):
    b1_trees = reference_b1_trees(symbol)
    b3_trees = reference_b3_trees(op)
    delta_vals = np.broadcast_to(
        np.asarray(evaluate_array(delta(op), x=grid), dtype=np.complex128),
        grid.shape)
    delta_vals = delta_vals[np.isfinite(delta_vals)]
    theta_grid = np.linspace(0.0, np.pi, cfg.theta_points)
    records = []
    for probe in map(complex, probes):
        near_curve = bool(delta_vals.size) and float(
            np.min(np.abs(delta_vals - probe))) <= cfg.probe_margin
        p_m = tree_values([("p_m", symbol.p[symbol.m])], grid, probe)[0][1]
        batch = [
            _check_bounded("B1", tree_values(b1_trees, grid, probe), probe,
                           grid, cfg),
            _check_b2(p_m, probe, grid),
            _check_bounded("B3", tree_values(b3_trees, grid, probe), probe,
                           grid, cfg),
            _check_c(p_m, probe, grid, theta_grid),
            reference_check_d(symbol, probe, cfg),
        ]
        for record in batch:
            if near_curve and record.status == "fail":
                label, location, measured = record.witness
                record = DiagnosticRecord(
                    assumption=record.assumption, status="inconclusive",
                    probe=record.probe,
                    witness=(f"probe within {cfg.probe_margin:g} of the "
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
    arrays = [a for terms in jets.p for _, jet in terms if jet is not None
              for a in jet]
    arrays += [a for jet in (jets.symbol_d, jets.d, *jets.b)
               if jet is not None for a in jet]
    arrays += [c for c in jets.c if c is not None]
    finite = np.ones(jets.shape, dtype=bool)
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
        if d is None:
            return _series(magnitude(terms), None, None)
        u = [None if k is None else np.abs(k)
             for k in _u_powers(d[0], probe, max(map(len, jets.p)) + 1)]
        signed = (None, -np.abs(d[1]), -np.abs(d[2]))
        return _series(magnitude(terms), signed, u)

    b1 = []
    for j, terms in enumerate(jets.p):
        scales = series(terms, jets.symbol_d)
        if j == 0 and jets.symbol_d is not None:
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
    tree gives 5e-6 and the lambda-free form 0), far below ``bound_cap``.
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
        assert_values_match(b1, reference_b1_trees(symbol), b1_scales,
                            finite, probe)
        assert_values_match(b3, reference_b3_trees(op), b3_scales, finite,
                            probe)
    assert p_m is b1[3 * symbol.m][1]


# ---------------------------------------------------------------------------
# Records: identical decisions, measured values within rounding
# ---------------------------------------------------------------------------

def hand_built():
    """A lambda-free symbol (d = None) checked against the quartic's b, c, d."""
    symbol = SchurSymbol(m=2, p=(parse("x^2 + sin(x)"), parse("cos(x)"),
                                 parse("2 + exp(-x^2)")))
    return quartic_coupled(), symbol


def close(a, b):
    if a is None or b is None:
        return a is b
    if not (np.isfinite(a) and np.isfinite(b)):
        return a == b
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@pytest.mark.parametrize("case,probes", [
    ("quartic", DEFAULT_PROBES),
    ("quartic", (*SEED_1_PROBES, SEED_404_C_FAILURE)),
    ("x^2", (2.0 + 3j, 0.0005j, -1.0 + 0j)),
    ("sin(x^2)", (2.0 + 3j, -1.5 + 0.5j)),
    ("hand-built", (2.0 + 3j, -1.0 + 0j)),
])
def test_records_match_lambda_tree_reference(case, probes):
    if case == "quartic":
        op = quartic_coupled()
        symbol = build_schur(op)
    elif case == "hand-built":
        op, symbol = hand_built()
    else:
        op = unbounded_coupling(case)
        symbol = build_schur(op)
    got = check_assumptions(op, symbol, probes, GRID, CFG).records
    want = reference_check_assumptions(op, symbol, probes, GRID, CFG).records
    assert len(got) == len(want)
    for new, ref in zip(got, want):
        assert (new.assumption, new.status, new.probe) \
            == (ref.assumption, ref.status, ref.probe)
        assert close(new.theta, ref.theta)
        assert close(new.delta_margin, ref.delta_margin)
        if ref.witness is None:
            assert new.witness is None
            continue
        (label, location, measured) = new.witness
        (ref_label, ref_location, ref_measured) = ref.witness
        assert (label, location) == (ref_label, ref_location)
        assert close(measured, ref_measured)
    if case == "quartic" and SEED_404_C_FAILURE in probes:
        c_fail = [r for r in got if r.assumption == "C"][-1]
        assert c_fail.status == "fail"


# ---------------------------------------------------------------------------
# Work: sampling once per call, never a lambda tree
# ---------------------------------------------------------------------------

def test_probe_count_leaves_tree_work_unchanged(monkeypatch):
    calls = {"evaluate_array": 0}
    lambda_trees = []

    def counting(tree, *args, **kwargs):
        calls["evaluate_array"] += 1
        return evaluate_array(tree, *args, **kwargs)

    def lambda_free(name, func):
        def wrapped(tree, *args, **kwargs):
            if mentions(tree, "lambda"):
                lambda_trees.append((name, tree))
            return func(tree, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(asymptotics_module, "evaluate_array", counting)
    for module in (asymptotics_module, model_module):
        monkeypatch.setattr(module, "simplify",
                            lambda_free("simplify", simplify))
    monkeypatch.setattr(asymptotics_module, "differentiate",
                        lambda_free("differentiate", differentiate))

    op = quartic_coupled()
    symbol = build_schur(op)
    probes = [1.7 + 2.3j, -2.6 + 1.1j, 0.4 - 1.9j, 2j, -3.0 + 0j]
    counts = []
    for count in (1, 5):
        calls["evaluate_array"] = 0
        check_assumptions(op, symbol, probes[:count], GRID, CFG)
        counts.append(calls["evaluate_array"])
    assert counts[0] == counts[1] > 0
    assert lambda_trees == []

