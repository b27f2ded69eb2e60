"""Limits toward infinity: coefficient ratios, limit points of d, diagnostics.

Reference values for the two worked operators are closed forms computed
directly in the tests; the exceptional-set coverage test compares against a
dense brute-force sampling of the target function far from the origin.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import (
    ONE,
    ZERO,
    _rand_coeff,
    parabolic_potential,
    quartic_coupled,
    random_constant_operator,
    random_operator,
    special_quartics,
    unbounded_coupling,
)
from oracles import (coefficient_trees, directed_hausdorff, evaluate_recursive,
                     limit_on, qhull_vertices)
from matspectra.asymptotics import (
    CLUSTER_TOL,
    CLUSTER_WINDOWS,
    LIMIT_TOL,
    NEAR_ZERO_TOLS,
    POINTS_PER_WINDOW,
    T,
    WINDOWS,
    ZERO_MARGIN,
    TURN_TOL,
    COLUMNS,
    Certificate,
    SymbolLimits,
    _GridJets,
    TailLimit,
    _check_c,
    _cluster,
    _forms,
    _hull,
    _ratio_samples,
    _sector_margin,
    _trajectory,
    check_assumptions,
    limit_of,
    limit_points_at_infinity,
    limit_ratio,
    limit_ratio_batch,
    symbol_limits,
    symbol_rows,
    tail_ledger,
)
from matspectra import asymptotics as asymptotics_module
from matspectra.cli import DEFAULT_PROBES
from matspectra.config import SolverConfig
from matspectra.errors import LimitRefused, NotConvergent, PoleError
from matspectra.expr import (Call, Div, Lit, X, evaluate, evaluate_array,
                              parse)
from matspectra.model import OperatorMatrix, delta, validation_grid
from matspectra.schur import build_schur

CFG = SolverConfig()
# The probes the benchmark's check workload draws for seed 1.
SEED_1_PROBES = (1.163253 - 1.656608j, -0.113715 + 3.569169j)


def quartic_tail_ratios(lam: complex) -> list[complex]:
    """Closed-form limit ratios of the quartic example, ascending in xi."""
    return [
        (lam - lam * lam) / (1j + lam),
        1.0 / (1j + lam),
        1j * lam / (1j + lam),
        0j,
    ]


# ---------------------------------------------------------------------------
# limit_ratio on the worked examples
# ---------------------------------------------------------------------------

def test_parabolic_ratios_at_2i_reach_minus_lambda_and_zero():
    symbol = build_schur(parabolic_potential())
    for side in ("+", "-"):
        values, certs = limit_ratio(symbol, 2j, side)
        assert len(values) == 2
        assert abs(values[0] - (-2j)) <= 1e-7
        assert abs(values[1]) <= 1e-7
        assert all(c.last_increment <= LIMIT_TOL * (1.0 + abs(c.value))
                   for c in certs)


@pytest.mark.parametrize("lam", [1.0 + 0j, 2.0 - 1j, -3.0 + 2j])
def test_quartic_ratios_match_closed_forms(lam):
    symbol = build_schur(quartic_coupled())
    values, certs = limit_ratio(symbol, lam, "+")
    expected = quartic_tail_ratios(lam)
    for got, want in zip(values, expected):
        assert abs(got - want) <= 1e-7
    for cert in certs:
        assert cert.last_increment <= LIMIT_TOL * (1.0 + abs(cert.value))


def test_side_symmetry_for_even_coefficients():
    # Every coefficient of both examples is invariant under x -> -x.
    for op in (parabolic_potential(), quartic_coupled()):
        symbol = build_schur(op)
        plus, _ = limit_ratio(symbol, 2j, "+")
        minus, _ = limit_ratio(symbol, 2j, "-")
        for a, b in zip(plus, minus):
            assert abs(a - b) <= 1e-9


def test_constant_coefficients_certify_at_first_window():
    rng = random.Random(90210)
    for _ in range(5):
        op = random_constant_operator(rng, rng.choice([2, 4]))
        symbol = build_schur(op)
        lam = complex(rng.uniform(2.5, 4.0), rng.uniform(2.5, 4.0))
        for side in ("+", "-"):
            trees = coefficient_trees(op)
            values, certs = limit_ratio(symbol, lam, side)
            for j, (value, cert) in enumerate(zip(values, certs)):
                want = evaluate(trees[j], x=1.0, lam=lam) / evaluate(
                    trees[symbol.m], x=1.0, lam=lam)
                assert abs(value - want) <= 1e-14 * (1.0 + abs(want))
                assert cert.sample_count == 4
                assert cert.last_increment == 0.0


def sin_potential_symbol():
    """The parabolic operator with a_0 = sin(x): p_0/p_2 keeps oscillating."""
    op = parabolic_potential()
    return build_schur(replace(op, a=(Call("sin", X), *op.a[1:])))


def test_oscillating_ratio_raises_not_convergent_with_witness():
    symbol = sin_potential_symbol()
    with pytest.raises(NotConvergent) as info:
        limit_ratio(symbol, 0.5j, "+")
    witness = info.value.witness
    assert len(witness) >= 3
    # The witness increments stay order-one: persistent oscillation.
    assert max(step for _, step in witness) > 1e-3


def test_trajectory_pole_raises_pole_error():
    # d = x meets lambda = 32 exactly at x = 32 = x0 * rho, the second
    # sample, where u = 1/(d - lambda) is infinite.
    symbol = build_schur(replace(parabolic_potential(), d=X))
    with pytest.raises(PoleError, match="32"):
        limit_ratio(symbol, 32.0 + 0j, "+")


def test_overflow_is_not_a_pole():
    # a0 = x^30 overflows at x = 16 * 2^31, long before the ratios settle.
    base = parabolic_potential()
    op = OperatorMatrix(a=(parse("x^30"), *base.a[1:]), b=base.b, c=base.c,
                        d=base.d)
    symbol = build_schur(op)
    with pytest.raises(NotConvergent, match=r"overflow.*x = 34359738368\.0 "):
        limit_ratio(symbol, 2j, "+")
    _, status = limit_ratio_batch(symbol, np.array([2j, 1.0 + 1j]), "+")
    assert list(status) == ["overflow", "overflow"]
    with pytest.raises(NotConvergent, match="overflow"):
        limit_of(parse("x^30"), "-")


def test_limit_of_certifies_lambda_free_expressions():
    value, cert = limit_of(parse("x^2/(x^2 + 1)"), "+")
    assert abs(value - 1.0) <= 1e-9
    assert cert.value == value
    assert cert.last_increment <= LIMIT_TOL * (1.0 + abs(value))
    # A tree with lambda is refused before its side is read, and a bad side
    # is named, not looked up.
    for side in "+x":
        with pytest.raises(ValueError) as refusal:
            limit_of(parse("x + lambda"), side)
        assert str(refusal.value) == \
            "limit_of takes lambda-free expressions only"
    with pytest.raises(ValueError) as refusal:
        limit_of(parse("x"), "x")
    assert str(refusal.value) == "side must be '+' or '-', got 'x'"
    with pytest.raises(NotConvergent, match="the limit did not settle") as info:
        limit_of(parse("sin(x)"), "+")
    assert "p_0" not in str(info.value)


def test_limit_of_names_the_cause_of_a_nonfinite_sample():
    # x = 32 is the second trajectory sample toward +infinity.
    with pytest.raises(PoleError) as pole:
        limit_of(parse("1/(x - 32)"), "+")
    assert str(pole.value) == (
        "trajectory sample x = 32.0 hits a pole of the expression: division "
        "by magnitude 0.000e+00 below pole threshold")
    with pytest.raises(NotConvergent,
                       match=r"samples overflow at trajectory sample "
                             r"x = 34359738368\.0 "):
        limit_of(parse("x^30"), "+")
    with pytest.raises(NotConvergent) as domain:
        limit_of(parse("log(x - 32)"), "+")
    assert str(domain.value) == (
        "samples leave the domain (log of exactly 0) at trajectory sample "
        "x = 32.0 toward +infinity before the limit settled")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), side=st.sampled_from("+-"),
       named=st.sampled_from([None, *quartic_coupled().a[:1],
                              *quartic_coupled().b, *quartic_coupled().c,
                              quartic_coupled().d, parabolic_potential().d,
                              parse("sin(x^2)"), parse("1/(x - 32)")]))
def test_limit_of_agrees_with_a_decoupled_symbol(seed, side, named):
    """limit_of(e) is the ratio p_0/p_2 of the decoupled operator with
    b = c = 0, a_0 = e, a_2 = 1 at lambda = 0: both certify alike, or both
    refuse."""
    expr = named if named is not None else _rand_coeff(random.Random(seed))
    symbol = build_schur(OperatorMatrix(a=(expr, ZERO, ONE), b=(ZERO, ZERO),
                                        c=(ZERO, ZERO), d=ONE))

    def outcome(run):
        try:
            value, cert = run()
        except (NotConvergent, PoleError):
            return None
        return value, cert.sample_count, cert.last_increment

    assert outcome(lambda: limit_of(expr, side)) == outcome(
        lambda: [first for first, *_ in limit_ratio(symbol, 0j, side)])


# ---------------------------------------------------------------------------
# symbol_limits: the limits behind the closed-form tail polynomial
# ---------------------------------------------------------------------------

def test_symbol_limits_of_the_quartic_zero_the_noise_level_limits():
    limits = symbol_limits(build_schur(quartic_coupled()), "+")
    assert not limits.d_diverges
    by_label = {limit.label: limit for limit in limits.limits}
    assert limits.limits[0].label == "d"
    assert {label: (limit.j, limit.q) for label, limit in by_label.items()} \
        == {"d": (None, 0), "alpha_0": (0, 0), "alpha_2": (2, 0),
            "alpha_4": (4, 0), "beta_0,1": (0, 1), "beta_0,2": (0, 2),
            "beta_1,1": (1, 1), "beta_3,1": (3, 1), "beta_3,2": (3, 2),
            "beta_4,1": (4, 1)}
    for label in ("d", "beta_0,1", "beta_0,2", "beta_3,1", "beta_3,2"):
        limit = by_label[label]
        # Certified near 0 (d^inf = 1.5e-11), but within the last increment.
        assert limit.certificate.value != 0
        assert limit.value == 0
    for label, want in (("alpha_0", 1), ("alpha_2", 1j), ("alpha_4", 1),
                        ("beta_1,1", -1), ("beta_4,1", -1j)):
        assert abs(by_label[label].value - want) <= 1e-9
    # The recheck runs on its own trajectory: only the constants repeat.
    assert {limit.label for limit in limits.limits
            if limit.recheck.value == limit.certificate.value} \
        == {"alpha_2", "alpha_4", "beta_4,1"}


def test_symbol_limits_take_beta_over_d_powers_when_d_diverges():
    limits = symbol_limits(build_schur(parabolic_potential()), "-")
    assert limits.d_diverges
    values = {limit.label: limit.value for limit in limits.limits}
    assert values == {"1/d": 0, "alpha_2": 1, "beta_1,2/d^2": 0,
                      "beta_2,1/d^1": 0}


def test_symbol_limits_name_the_refused_tree():
    sine = OperatorMatrix(a=(Call("sin", X), ZERO, ONE), b=(ZERO, ZERO),
                          c=(ZERO, ZERO), d=Lit(2j))
    with pytest.raises(LimitRefused, match="alpha_0.*did not settle") as info:
        symbol_limits(build_schur(sine), "+")
    assert info.value.label == "alpha_0"
    # Neither d = 2 + sin(x) nor 1/d settles; the refusal names d.
    wobble = OperatorMatrix(a=(ZERO, ZERO, ONE), b=(ZERO, Lit(-1j)),
                            c=(ZERO, Lit(1j)), d=parse("2 + sin(x)"))
    with pytest.raises(LimitRefused, match=r"^limit of d refused: .*did not "
                       r"settle.*; limit of 1/d refused: ") as info:
        symbol_limits(build_schur(wobble), "+")
    assert info.value.label == "d"


def test_symbol_limits_need_one_over_d_to_vanish(monkeypatch):
    real = asymptotics_module.evaluate_batch
    wobble = parse("2 + sin(x)")

    def settled_inverse(x, jets=(), values=(), **env):
        jet_samples, samples = real(x, jets, values, **env)
        return jet_samples, [
            np.full(np.shape(x), 0.5 + 0j) if tree == Lit(1 + 0j) / wobble
            else sample for tree, sample in zip(values, samples)]

    monkeypatch.setattr(asymptotics_module, "evaluate_batch", settled_inverse)
    op = OperatorMatrix(a=(ZERO, ZERO, ONE), b=(ZERO, Lit(-1j)),
                        c=(ZERO, Lit(1j)), d=wobble)
    with pytest.raises(LimitRefused, match=r"1/d is \(0.5\+0j\), not 0"):
        symbol_limits(build_schur(op), "+")


def test_symbol_limits_refuse_a_recheck_that_disagrees(monkeypatch):
    real = asymptotics_module.evaluate_batch
    op = quartic_coupled()
    alpha_0 = op.a[0]
    recheck = _trajectory("+", recheck=True)
    shift = 3.0 * (limit_on(alpha_0, "+", recheck)[1].last_increment
                   + 1e-12)

    def shifted(x, jets=(), values=(), **env):
        jet_samples, samples = real(x, jets, values, **env)
        samples = [sample.copy() for sample in samples]
        for tree, sample in zip(values, samples):
            if tree is alpha_0:
                # Column 1 holds the samples on the + recheck trajectory.
                assert COLUMNS[1] == ("+", True)
                sample[:, 1] += shift
        return jet_samples, samples

    monkeypatch.setattr(asymptotics_module, "evaluate_batch", shifted)
    with pytest.raises(LimitRefused, match="recheck from x = 21.92") as info:
        symbol_limits(build_schur(op), "+")
    assert info.value.label == "alpha_0"


def test_tail_bound_follows_the_rate_of_the_increments():
    # Samples x^-k on x = 2^t: |value - 0| = last * r/(1 - r), r = 2^-k,
    # and no bound is below the last increment.
    for k in (0.4, 1.0, 3.0):
        xs = 2.0 ** np.arange(10, 14)
        value = xs[-1] ** -k
        last = xs[-2] ** -k - value
        cert = Certificate(4, last, value + 0j, xs[-3] ** -k - xs[-2] ** -k)
        assert cert.tail_bound == pytest.approx(max(value, last), rel=1e-9)
    # Growing or vanishing increments: the rate is capped, never trusted.
    capped = Certificate(4, 2e-10, 1 + 0j, 1e-10)
    assert capped.tail_bound == pytest.approx(2e-10 * 99)
    settled = Certificate(4, 0.0, 1 + 0j, 0.0)
    assert settled.tail_bound == 0.0


@pytest.mark.parametrize("tail", [
    "x/(1 + x^2)", "exp(-0.4*log(1 + x^2))", "cos(x)/sqrt(1 + x^2)"])
def test_symbol_limits_zero_slowly_vanishing_trees(tail):
    # Tails of order x^-1 and x^-0.8 certify at |value| ~ 1e-10 to 4e-10,
    # at or beyond their last increment; the tail bound still zeroes them,
    # in d and in the coupling beta_0,1 = -b_0 c_0.
    base = quartic_coupled()
    for op, label in (
            (replace(base, d=parse(f"exp(-x^2/2) + i*{tail}")), "d"),
            (replace(base, b=(parse(tail), base.b[1])), "beta_0,1")):
        for side in "+-":
            limits = symbol_limits(build_schur(op), side)
            by_label = {limit.label: limit for limit in limits.limits}
            assert by_label[label].certificate.value != 0
            assert by_label[label].value == 0


def test_symbol_limits_refuse_a_moving_limit_too_close_to_zero():
    # 1e-8 x^2/(1 + x^2) settles to 1e-8, far beyond its tail bound, but
    # within 1e3 LIMIT_TOL of 0: the side must not trust it either way.
    base = quartic_coupled()
    op = replace(base, a=(parse("1e-8*x^2/(x^2 + 1)"), *base.a[1:]))
    with pytest.raises(LimitRefused, match="neither certified 0") as info:
        symbol_limits(build_schur(op), "+")
    assert info.value.label == "alpha_0"
    exact = replace(base, a=(Lit(1e-8 + 0j), *base.a[1:]))
    limits = symbol_limits(build_schur(exact), "+")
    assert {limit.label: limit.value for limit in limits.limits}[
        "alpha_0"] == 1e-8


def _symbol_limits_tree_by_tree(symbol, side):
    """The reference for :func:`symbol_limits`: each tree certified by
    :func:`limit_of` on the X0 and the recheck trajectory in turn."""
    runs = (_trajectory(side), _trajectory(side, recheck=True))

    def certify(label, j, q, tree):
        certs = []
        for run in runs:
            try:
                certs.append(limit_on(tree, side, run)[1])
            except (NotConvergent, PoleError) as exc:
                raise LimitRefused(label, str(exc)) from exc
        first, again = certs
        if abs(first.value - again.value) > (first.last_increment
                                             + again.last_increment):
            raise LimitRefused(label, (
                f"the recheck from x = {float(abs(runs[1][0]))!r} gives "
                f"{again.value}"
                f" against {first.value}, farther apart than their last "
                "increments"))
        limit = TailLimit(label, j, q, first, again)
        near = NEAR_ZERO_TOLS * LIMIT_TOL
        if (limit.value != 0 and abs(first.value) <= near
                and first.last_increment > 0):
            raise LimitRefused(label, (
                f"its value {first.value} lies within {near:.1e} of 0 but "
                f"beyond {ZERO_MARGIN:g} tail bounds ({first.tail_bound:.3e}),"
                " so it is neither certified 0 nor told apart from 0"))
        return limit

    try:
        d_limit = certify("d", None, 0, symbol.d)
    except LimitRefused as refusal:
        if not isinstance(refusal.__cause__, NotConvergent):
            raise
        try:
            d_limit = certify("1/d", None, 0, Div(Lit(1 + 0j), symbol.d))
            inverse = "" if d_limit.value == 0 else (
                f"the limit of 1/d is {d_limit.certificate.value}, not 0")
        except LimitRefused as exc:
            inverse = str(exc)
        if inverse:
            raise LimitRefused("d", f"{refusal.__cause__}; {inverse}"
                               ) from refusal
    diverges = d_limit.label == "1/d"
    return SymbolLimits(diverges, (d_limit, *(
        certify(*row) for row in symbol_rows(symbol)[diverges][1:])))


REFUSAL_CAUSES = {"did not settle": "not convergent", "hits a pole": "pole",
                  "the recheck from": "recheck",
                  "neither certified 0": "near zero"}


@functools.cache
def ledger_corpus():
    """(operator, symbol, decoupling function) of each operator whose tail
    limits the ledger tests certify.

    The bundled operators and the special quartics (see
    ``factories.special_quartics``): the parabolic's d diverges toward both
    sides, and the first special quartic's toward + only, so 1/d is taken
    at one end. Then random_operator seeds 0-199, with and without settling
    coefficients, each at an m of 2 or 4 drawn from its seed.
    """
    ops = [quartic_coupled(), parabolic_potential(), *special_quartics()]
    for settling in (False, True):
        for seed in range(200):
            rng = random.Random(seed)
            ops.append(random_operator(rng, rng.choice([2, 4]),
                                       settling=settling))
    return tuple((op, build_schur(op), delta(op)) for op in ops)


def spectrum_rows(symbol, decoupling):
    """The rows of an essential_spectrum run's ledger: the decoupling
    function, then d, 1/d, alpha_j, beta_jq and beta_jq/d^q."""
    direct, inverse = symbol_rows(symbol)
    return [("delta", decoupling), *direct, *inverse]


def assert_ledger_matches_limit_of(rows):
    """Every column of the ledger of ``rows`` is the one tree certified
    alone on that trajectory (``oracles.limit_on``): the same certificate
    or the same error."""
    ledger = tail_ledger(rows)
    trees = {row[0]: row[-1] for row in rows}
    assert list(ledger.rows) == list(trees)
    for name, tree in trees.items():
        assert ledger.tree(name) is tree
        for side, recheck in COLUMNS:
            try:
                expected = limit_on(tree, side,
                                    _trajectory(side, recheck))[1]
            except (NotConvergent, PoleError) as exc:
                expected = exc
            got = ledger.certificate(name, side, recheck)
            if isinstance(expected, Certificate):
                assert got == expected
            else:
                assert got is None
                error = ledger.error(name, side, recheck)
                assert (type(error), str(error)) == (type(expected),
                                                     str(expected))


def test_ledger_columns_are_the_certificates_of_limit_of():
    # Every tree an essential_spectrum run reads.
    for _, symbol, decoupling in ledger_corpus():
        assert_ledger_matches_limit_of(spectrum_rows(symbol, decoupling))


def test_ledger_readers_name_a_bad_side():
    # The ledger's readers, and symbol_limits through them, give the
    # message of _trajectory and limit_of for a side they cannot look up.
    symbol = build_schur(quartic_coupled())
    ledger = tail_ledger([("tree", parse("1/(1 + x^2)"))])
    for read in (lambda: ledger.certificate("tree", "x"),
                 lambda: ledger.error("tree", "x", True),
                 lambda: symbol_limits(symbol, "x"),
                 lambda: _trajectory("x")):
        with pytest.raises(ValueError) as refusal:
            read()
        assert str(refusal.value) == "side must be '+' or '-', got 'x'"


def test_batched_symbol_limits_match_tree_by_tree_certification():
    # The ledger, built for the symbol alone or shared with the decoupling
    # function, certifies every tree as it is certified on its own: the
    # same certificates bit for bit, or the same first refusal. The random
    # draws refuse only by non-convergence on the x0 trajectory; the
    # special quartics add the other causes, and the corpus has both, one
    # and no side where d diverges.
    causes = set()
    diverging = set()
    for _, symbol, decoupling in ledger_corpus():
        shared = tail_ledger(spectrum_rows(symbol, decoupling))
        ends = []
        for side in "+-":
            outcomes = []
            for run in (symbol_limits, _symbol_limits_tree_by_tree,
                        lambda symbol, side: symbol_limits(
                            symbol, side, ledger=shared)):
                try:
                    limits = run(symbol, side)
                    outcomes.append(repr(limits))
                except LimitRefused as refusal:
                    limits = None
                    outcomes.append((refusal.label, str(refusal),
                                     type(refusal.__cause__)))
                    causes.update(cause for key, cause in
                                  REFUSAL_CAUSES.items()
                                  if key in str(refusal))
            assert outcomes[0] == outcomes[1] == outcomes[2]
            ends.append(getattr(limits, "d_diverges", None))
        diverging.add(tuple(ends))
    assert causes == set(REFUSAL_CAUSES.values())
    assert {(True, True), (True, False), (False, False)} <= diverging


def test_batch_matches_scalar_and_flags_failures():
    symbol = build_schur(quartic_coupled())
    lams = np.array([1.0 + 0j, 2.0 - 1j, -3.0 + 2j])
    values, status = limit_ratio_batch(symbol, lams, "+")
    assert values.shape == (3, 4)
    assert list(status) == ["ok", "ok", "ok"]
    for row, lam in zip(values, lams):
        scalar_values, _ = limit_ratio(symbol, complex(lam), "+")
        assert np.allclose(row, scalar_values, rtol=0, atol=0)

    wobble = sin_potential_symbol()
    _, bad_status = limit_ratio_batch(wobble, np.array([1j]), "+")
    assert list(bad_status) == ["not-convergent"]


def test_limit_ratio_tail_polynomial():
    symbol = build_schur(quartic_coupled())
    lam = 2.0 - 1j
    values, _certs = limit_ratio(symbol, lam, "+")
    coeffs = np.asarray([*values, 1.0 + 0j])
    assert coeffs.shape == (5,)
    expected = quartic_tail_ratios(lam)
    assert np.allclose(coeffs[:4], expected, rtol=0, atol=1e-7)
    # Value at xi=0 is exactly the estimated constant coefficient.
    assert complex(np.polyval(coeffs[::-1], 0.0)) == complex(coeffs[0])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 4]),
       side=st.sampled_from("+-"))
def test_lambda_free_samples_match_coefficient_trees(seed, m, side):
    rng = random.Random(seed)
    op = random_operator(rng, m)
    symbol = build_schur(op)
    lams = np.asarray([complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                       for _ in range(3)])
    xs = _trajectory(side)
    form, = _forms(symbol, xs[:, None])
    samples, finite = _ratio_samples(form, lams), form.finite
    with np.errstate(all="ignore"):
        p = [evaluate_recursive(tree, x=xs[:, None], lam=lams[None, :])
             for tree in coefficient_trees(op)]
        trees = np.stack([pj / p[-1] for pj in p[:-1]])
    # Where every x-only sample is finite, both forms must agree on which
    # ratios are finite, so a lambda's status cannot flip between ok and
    # overflow/pole. Elsewhere the lambda-free form reports "overflow" by
    # design, while the trees may still cancel to a finite value.
    assert np.array_equal(np.isfinite(samples[:, finite]),
                          np.isfinite(trees[:, finite]))
    both = np.isfinite(samples) & np.isfinite(trees)
    gap = np.abs(samples - trees)[both]
    assert np.all(gap <= 1e-12 * np.abs(trees[both]))


def test_concurrent_calls_are_deterministic():
    symbol = build_schur(quartic_coupled())
    probes = [1.0 + 0j, 2.0 - 1j, -3.0 + 2j, 0.5 + 2.5j, -1.0 - 2j, 4.0 + 1j]

    def run(lam):
        return limit_ratio(symbol, lam, "+")

    sequential = [run(lam) for lam in probes]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(run, probes))
    for (seq_vals, _), (thr_vals, _) in zip(sequential, threaded):
        assert seq_vals == thr_vals


# ---------------------------------------------------------------------------
# Limit points of d at infinity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("expr", [
    quartic_coupled().d, delta(quartic_coupled()), *map(parse, [
        "i + 30/x", "cos(x)/(1 + exp(x))", "sin(x)", "1/(x - 32)", "x^30",
        "log(x - 32)", "2 + 1/sqrt(sqrt(1 + x^2))", "-x^2"])], ids=str)
def test_end_limits_are_the_certificates_of_limit_of(expr):
    assert_ledger_matches_limit_of([("tree", expr)])
    for side in "+-":
        try:
            expected = limit_on(expr, side, _trajectory(side))
        except (NotConvergent, PoleError) as exc:
            with pytest.raises(type(exc)) as refusal:
                limit_of(expr, side)
            assert str(refusal.value) == str(exc)
        else:
            assert limit_of(expr, side) == expected


def _recording_windows(monkeypatch) -> list[np.ndarray]:
    """Record the abscissae of every ``evaluate_array`` and
    ``evaluate_batch`` call of the exceptional set's module."""
    sampled = []
    real_evaluate = asymptotics_module.evaluate_array
    real_batch = asymptotics_module.evaluate_batch

    def recording_evaluate(expr, **env):
        sampled.append(env["x"])
        return real_evaluate(expr, **env)

    def recording_batch(x, *args, **env):
        sampled.append(x)
        return real_batch(x, *args, **env)

    monkeypatch.setattr(asymptotics_module, "evaluate_array",
                        recording_evaluate)
    monkeypatch.setattr(asymptotics_module, "evaluate_batch", recording_batch)
    return sampled


def _windows(sampled: list[np.ndarray]) -> list[np.ndarray]:
    """The recorded abscissae that are dyadic windows, not trajectories."""
    return [xs for xs in sampled if xs.shape == (POINTS_PER_WINDOW,)]


def test_only_the_clustered_windows_are_sampled(monkeypatch):
    sampled = _recording_windows(monkeypatch)
    result = limit_points_at_infinity(parse("sin(x)"))
    assert result.sources == {"+": "sampled", "-": "sampled"}
    # One walk and scan of d and 1/d refuse both sides; then each window
    # is sampled once toward each end of the line.
    assert len(sampled) == 1 + 2 * CLUSTER_WINDOWS
    windows = _windows(sampled)
    assert len(windows) == 2 * CLUSTER_WINDOWS
    assert sorted(np.sign(xs[0]) for xs in windows) == (
        [-1.0] * CLUSTER_WINDOWS + [1.0] * CLUSTER_WINDOWS)
    lowest = WINDOWS - CLUSTER_WINDOWS
    assert {int(np.log2(abs(xs[0]))) for xs in windows} == set(
        range(lowest, WINDOWS))
    assert result.window_exponents == tuple(range(lowest, WINDOWS))


def test_quartic_d_has_single_limit_point_at_zero(monkeypatch):
    # d's limit is certified toward both sides, exactly 0 by the zero rule,
    # from one evaluation on the trajectories and no window.
    sampled = _recording_windows(monkeypatch)
    result = limit_points_at_infinity(quartic_coupled().d)
    assert result.points == (0j,)
    assert result.radii == (0.0,)
    assert result.window_exponents == ()
    assert result.sources == {"+": "certified", "-": "certified"}
    assert len(sampled) == 1 and not _windows(sampled)


def test_a_certified_limit_is_one_point_where_samples_are_two():
    # i + 30/x tends to i from both sides; its values on the dyadic
    # windows fall into two clusters about 1e-4 either side of i.
    result = limit_points_at_infinity(parse("i + 30/x"))
    assert result.sources == {"+": "certified", "-": "certified"}
    assert len(result.points) == 1
    assert abs(result.points[0] - 1j) <= 1e-9
    assert result.window_exponents == ()


def test_only_a_side_without_a_limit_is_sampled(monkeypatch):
    sampled = _recording_windows(monkeypatch)
    result = limit_points_at_infinity(parse("cos(x)/(1 + exp(x))"))
    assert result.sources == {"+": "certified", "-": "sampled"}
    windows = _windows(sampled)
    assert len(windows) == CLUSTER_WINDOWS
    assert all(np.all(xs < 0) for xs in windows)
    assert np.abs(np.array(result.points)).min() <= 2 * CLUSTER_TOL


def test_parabolic_d_escapes_everywhere(monkeypatch):
    sampled = _recording_windows(monkeypatch)
    result = limit_points_at_infinity(parabolic_potential().d)
    assert result.points == ()
    assert result.window_exponents == ()
    assert result.sources == {"+": "escapes", "-": "escapes"}
    assert not _windows(sampled)


@pytest.mark.parametrize("text, representatives", [
    ("2 + 1/sqrt(sqrt(1 + x^2))", 9), ("1/log(2 + x^2)", 51)])
def test_slow_decays_are_still_sampled(text, representatives):
    # A known gap, not a correct answer: limit_of refuses these slow
    # decays, so both sides are sampled, and the windows' values, still
    # drifting toward the limit, make many representatives and none at it.
    result = limit_points_at_infinity(parse(text))
    assert result.sources == {"+": "sampled", "-": "sampled"}
    assert len(result.points) == representatives


def test_oscillating_d_fills_its_range(monkeypatch):
    monkeypatch.setattr(asymptotics_module, "CLUSTER_TOL", 1e-2)
    result = limit_points_at_infinity(parse("sin(x)"))
    reps = np.array(result.points)
    # Set invariants: tight clusters, separated representatives.
    assert all(r <= 1e-2 for r in result.radii)
    seps = np.abs(reps[:, None] - reps[None, :])
    seps[np.diag_indices_from(seps)] = np.inf
    assert seps.min() > 2e-2
    # Coverage: a dense far-field reference sampling of sin is everywhere
    # within 2.5 * CLUSTER_TOL of a representative (cluster radius plus
    # the discard annulus).
    reference = np.sin(np.linspace(1e6, 1e6 + 1e3, 20_001))
    assert directed_hausdorff(reference.astype(complex), reps) <= 2.5e-2


def _cluster_by_full_scan(values: np.ndarray, tol: float):
    """The greedy sweep of ``_cluster`` without buckets or shortcuts."""
    reps: list[complex] = []
    radii: list[float] = []
    for value in values[np.lexsort((values.imag, values.real))]:
        z = complex(value)
        dists = [abs(z - rep) for rep in reps]
        best = int(np.argmin(dists)) if dists else -1
        if best >= 0 and dists[best] <= tol:
            radii[best] = max(radii[best], dists[best])
        elif best < 0 or dists[best] > 2.0 * tol:
            reps.append(z)
            radii.append(0.0)
    return reps, radii


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), centers=st.integers(1, 6),
       spread=st.sampled_from([0.2, 1.0, 3.0]))
def test_cluster_invariants_on_random_clouds(seed, centers, spread):
    rng = np.random.default_rng(seed)
    tol = 1e-2
    middles = rng.uniform(-0.2, 0.2, centers) + 1j * rng.uniform(
        -0.2, 0.2, centers)
    cloud = (rng.choice(middles, 400)
             + spread * tol * (rng.standard_normal(400)
                               + 1j * rng.standard_normal(400)))
    reps, radii = _cluster(cloud, tol)
    assert all(r <= tol for r in radii)
    points = np.asarray(reps)
    seps = np.abs(points[:, None] - points[None, :])
    seps[np.diag_indices_from(seps)] = np.inf
    assert seps.min() > 2.0 * tol
    assert (reps, radii) == _cluster_by_full_scan(cloud, tol)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), centers=st.integers(1, 4),
       size=st.sampled_from([15, 16, 17, 80, 700]),
       ring=st.sampled_from([0, 3, 30]))
def test_cluster_runs_match_the_loop(seed, centers, size, ring):
    # Tight clusters give long runs that join their predecessor's
    # representative; values in the discard annulus and in the far field
    # end runs early. Representatives and radii must match bit for bit.
    rng = np.random.default_rng(seed)
    tol = 1e-2
    middles = rng.uniform(-0.3, 0.3, centers) + 1j * rng.uniform(
        -0.3, 0.3, centers)
    spread = tol * rng.uniform(0.05, 0.6)
    tight = (np.repeat(middles, size) + spread * (
        rng.uniform(-1, 1, centers * size)
        + 1j * rng.uniform(-1, 1, centers * size)))
    angles = rng.uniform(0, 2 * np.pi, ring)
    annulus = rng.choice(middles, ring) + tol * rng.uniform(
        1.0, 2.5, ring) * np.exp(1j * angles)
    cloud = np.concatenate([tight, annulus])
    assert _cluster(cloud, tol) == _cluster_by_full_scan(cloud, tol)


def _on_clustered_windows(text: str) -> np.ndarray:
    """The finite values of a tree on the windows that
    ``limit_points_at_infinity`` clusters, toward both ends."""
    values = evaluate_array(parse(text), x=np.concatenate([
        sign * np.linspace(2.0**s, 2.0 ** (s + 1), POINTS_PER_WINDOW)
        for sign in (1.0, -1.0)
        for s in range(WINDOWS - CLUSTER_WINDOWS, WINDOWS)]))
    return values[np.isfinite(values)]


def test_cluster_matches_the_full_scan_on_dense_inputs():
    # The quartic's d on the clustered windows joins one cluster; a
    # Gaussian cloud at CLUSTER_TOL scale and a ring in the discard annulus
    # mix joins, new clusters and discards.
    rng = np.random.default_rng(7)
    tol = CLUSTER_TOL
    cloud = 3.0 * tol * (rng.standard_normal(20_000)
                         + 1j * rng.standard_normal(20_000))
    ring = (np.repeat(rng.uniform(-0.01, 0.01, 40), 50)
            + tol * rng.uniform(1.0, 2.0, 2_000)
            * np.exp(2j * np.pi * rng.uniform(0, 1, 2_000)))
    for values in (_on_clustered_windows(str(quartic_coupled().d)),
                   cloud, ring):
        assert _cluster(values, tol) == _cluster_by_full_scan(values, tol)


def test_exceptional_set_stable_under_window_doubling(monkeypatch):
    tol = 1e-2
    monkeypatch.setattr(asymptotics_module, "CLUSTER_TOL", tol)
    # cos(x)/(1 + exp(x)) is certified toward + and sampled toward -.
    for d_text in ("sin(x)", "exp(-x^2/2) + i/(1 + x^2)",
                   "cos(x)/(1 + exp(x))"):
        one = limit_points_at_infinity(parse(d_text))
        with monkeypatch.context() as doubled:
            doubled.setattr(asymptotics_module, "WINDOWS", 2 * WINDOWS)
            two = limit_points_at_infinity(parse(d_text))
        a = np.array(one.points)
        b = np.array(two.points)
        # Representatives can be separated by up to ~2*tol plus the data
        # gap, so mutual deviation stays below 2.5*tol for a dense range.
        assert directed_hausdorff(a, b) <= 2.5 * tol
        assert directed_hausdorff(b, a) <= 2.5 * tol


# ---------------------------------------------------------------------------
# Assumption diagnostics
# ---------------------------------------------------------------------------

def by_assumption(diag, assumption, probe):
    for record in diag.records:
        if record.assumption == assumption and record.probe == probe:
            return record
    raise AssertionError(f"no {assumption} record for probe {probe}")


def test_quartic_probes_produce_no_failures():
    op = quartic_coupled()
    symbol = build_schur(op)
    grid = validation_grid(CFG)
    probes = [1.0 + 0j, 2j, -3.0 + 0j]
    diag = check_assumptions(op, symbol, probes, grid)
    assert diag.ok()
    assert len(diag.records) == 15  # five assumptions x three probes
    # Away from the decoupling curve everything passes outright.
    for probe in (2j, -3.0 + 0j):
        for assumption in ("B1", "B2", "B3", "C", "D"):
            assert by_assumption(diag, assumption, probe).status == "pass"
    # lambda = 1 lies on the sampled decoupling curve (its value at x = 0),
    # where p_m genuinely vanishes: sampled checks report inconclusive
    # rather than fail, and the limits themselves still converge.
    b2 = by_assumption(diag, "B2", 1.0 + 0j)
    assert b2.status == "inconclusive"
    assert b2.witness[1:] == (0.0, 0.0)  # the smallest |p_m|, at x = 0
    assert by_assumption(diag, "D", 1.0 + 0j).status == "pass"
    for record in diag.records:
        if record.assumption == "C":
            assert record.theta is not None
            assert record.delta_margin is not None
            if record.status == "pass":
                assert record.delta_margin > 0


@pytest.mark.parametrize("op,probes", [
    (quartic_coupled(), [1.0 + 0j, 2j, -3.0 + 0j]),
    # B1, B3 and D fail at 2+3i and -1; 0.0005i sits next to the curve
    # delta = 1 - x^2, so its failures are downgraded to inconclusive.
    (unbounded_coupling(), [2.0 + 3j, 0.0005j, -1.0 + 0j]),
    # d = -x^2 is -0.0 at the grid point x = 0, and the quartic's d is
    # 1 + i there: each probe equal to d at a grid point makes the pole
    # mask of B3 in its row of the batch.
    (parabolic_potential(), [*DEFAULT_PROBES, 0j]),
    (quartic_coupled(), [2j, 1.0 + 1j, -3.0 + 0j]),
    # More probes than one batch of PROBE_CHUNK = 4 holds: the batches
    # keep the probe order.
    (quartic_coupled(), [2j, 1.0 + 1j, -3.0 + 0j, 1.0 + 0j, 0.5 - 2.5j,
                         -1.5 + 3j]),
])
def test_probe_list_matches_probe_by_probe_calls(op, probes):
    # One call over all probes gives, in order, the records of one call per
    # probe: the CLI checks all its probes in a single call.
    symbol = build_schur(op)
    grid = validation_grid(CFG)
    together = check_assumptions(op, symbol, probes, grid).records
    one_by_one = tuple(
        record for probe in probes
        for record in check_assumptions(op, symbol, [probe], grid).records)
    assert together == one_by_one
    assert [r.assumption for r in together] \
        == ["B1", "B2", "B3", "C", "D"] * len(probes)


def test_many_probes_hold_one_batch_of_grid_values_at_a_time():
    # The grid values of all probes at once grew about 1.1 MB a probe on
    # the quartic (57.9 MB traced at 50 probes, 3.75 MB at 2).
    op = quartic_coupled()
    symbol = build_schur(op)
    grid = validation_grid(CFG)
    rng = random.Random(3)
    probes = [complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
              for _ in range(50)]
    peaks = []
    for count in (2, 50):
        tracemalloc.start()
        try:
            check_assumptions(op, symbol, probes[:count], grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


def test_bounded_d_with_invertible_leading_coefficient_passes_b2():
    # Bounded d and |a_m| bounded away from zero make 1/p_m bounded for
    # every probe away from the curve.
    op = quartic_coupled()
    symbol = build_schur(op)
    grid = validation_grid(CFG)
    diag = check_assumptions(op, symbol, [5j, -7.0 + 0j, 3.0 + 3j], grid)
    for record in diag.records:
        if record.assumption == "B2":
            assert record.status == "pass"


def test_winding_leading_coefficient_fails_sector_condition():
    # p_m = cos(x) reaches both +1 and -1, so no rotation angle keeps
    # Re(e^{i theta} p_m) positive; C must fail with the witness margin.
    op = OperatorMatrix(
        a=(Lit(0j), Lit(0j), Call("cos", X)),
        b=(Lit(0j), Lit(0j)),
        c=(Lit(0j), Lit(0j)),
        d=Lit(100j),
    )
    symbol = build_schur(op)
    grid = validation_grid(CFG)
    diag = check_assumptions(op, symbol, [5.0 + 0j], grid)
    record = by_assumption(diag, "C", 5.0 + 0j)
    assert record.status == "fail"
    assert record.delta_margin is not None and record.delta_margin <= 0
    assert record.witness is not None


def constant_leading_coefficient(value: complex) -> OperatorMatrix:
    """m = 2 with p_m = a_2 = value: no coupling, d far from the probes."""
    return OperatorMatrix(
        a=(Lit(0j), Lit(0j), Lit(value)),
        b=(Lit(0j), Lit(0j)),
        c=(Lit(0j), Lit(0j)),
        d=Lit(100j),
    )


def test_constant_imaginary_leading_coefficient_passes_sector_condition():
    # p_m = i: theta = 3 pi / 2 turns it into 1. A rotation confined to
    # [0, pi] reaches at best margin 0 there.
    op = constant_leading_coefficient(1j)
    diag = check_assumptions(op, build_schur(op), [5.0 + 0j],
                             validation_grid(CFG))
    record = by_assumption(diag, "C", 5.0 + 0j)
    assert record.status == "pass"
    assert record.delta_margin == 1.0
    assert record.theta == pytest.approx(1.5 * np.pi, abs=1e-15)


# ---------------------------------------------------------------------------
# Exact sector margin
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def grid_margin(v: np.ndarray, thetas: np.ndarray) -> float:
    """max over the given angles of min_k Re(e^{i theta} v_k)."""
    return float(np.max(np.min(
        np.cos(thetas)[:, None] * v.real - np.sin(thetas)[:, None] * v.imag,
        axis=1)))


def attained(v: np.ndarray, theta: float) -> float:
    return float(np.min((np.exp(1j * theta) * v).real))


@st.composite
def sample_clouds(draw):
    """Complex sample clouds in general position, 0 inside or outside.

    A thin cloud (aspect 1e-3) comes close to the collinear case.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.one_of(st.integers(1, 3), st.integers(4, 40)))
    center = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    spread = draw(st.floats(0.01, 3.0))
    aspect = draw(st.sampled_from([1.0, 0.1, 1e-3]))
    tilt = cmath.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    shape = rng.normal(size=count) + 1j * aspect * rng.normal(size=count)
    return center + spread * tilt * shape


@settings(max_examples=150, deadline=None, derandomize=True)
@given(v=sample_clouds(), count=st.integers(1, 720),
       offset=st.floats(0.0, 1.0))
def test_exact_sector_margin_brackets_every_angle_grid(v, count, offset):
    # No angle grid can beat the exact margin, and a full-circle grid of
    # step h misses it by at most max|v| h / 2: the best angle lies within
    # h / 2 of a grid angle, and Re(e^{i theta} v) is |v|-Lipschitz in
    # theta. The rounding allowance is a few ulps of the largest sample.
    step = 2.0 * np.pi / count
    thetas = (offset + np.arange(count)) * step
    margin, theta = _sector_margin(v)
    scale = float(np.max(np.abs(v)))
    rounding = 8.0 * EPS * scale
    coarse = grid_margin(v, thetas)
    assert coarse <= margin + rounding
    assert margin <= coarse + scale * step / 2.0 + rounding
    assert 0.0 <= theta < 2.0 * np.pi
    assert attained(v, theta) == pytest.approx(margin, abs=rounding)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(v=sample_clouds(), phi=st.floats(0.0, 2.0 * np.pi))
def test_rotating_the_samples_shifts_the_best_angle(v, phi):
    # Rotating every sample by e^{i phi} keeps the margin and turns the
    # best angle by -phi (mod 2 pi).
    margin, theta = _sector_margin(v)
    turned_margin, turned_theta = _sector_margin(v * cmath.exp(1j * phi))
    scale = float(np.max(np.abs(v)))
    assert turned_margin == pytest.approx(margin, abs=8.0 * EPS * scale)
    shift = (turned_theta - (theta - phi)) % (2.0 * np.pi)
    assert min(shift, 2.0 * np.pi - shift) <= 1e-9


@pytest.mark.parametrize("samples,margin,theta", [
    # One point: its modulus, with e^{-i theta} along it.
    ([2.0 - 1j] * 5, 5.0**0.5, np.arctan(0.5)),
    ([1j], 1.0, 1.5 * np.pi),
    # A segment off 0: the distance to it, from either side.
    (1j + np.linspace(-1.0, 1.0, 9), 1.0, 1.5 * np.pi),
    (-1j + np.linspace(-1.0, 1.0, 9), 1.0, 0.5 * np.pi),
    ([-1j + 1.0, -1j - 1.0], 1.0, 0.5 * np.pi),
    (np.linspace(0.5, 2.0, 7) * (1.0 + 1j), 0.5 * 2.0**0.5, 1.75 * np.pi),
])
def test_sector_margin_of_degenerate_samples(samples, margin, theta):
    got_margin, got_theta = _sector_margin(np.asarray(samples, complex))
    assert got_margin == pytest.approx(margin, rel=1e-15)
    assert got_theta == pytest.approx(theta, rel=1e-15)


@pytest.mark.parametrize("samples", [
    [0j, 0j],
    np.linspace(-1.0, 2.0, 31) * (1.0 + 2j),
    np.linspace(-0.3, 0.71, 50) + 0j,
    np.cos(np.linspace(0.0, 7.0, 101)) + 0j,
    # Rounding puts these up to ~1e-17 off one line; a hull that took
    # that for turns would be a thin polygon around 0.
    np.linspace(-1.0, 2.0, 31) * (1.0 + 1j / 3.0),
])
def test_samples_through_zero_fail_with_margin_zero(samples):
    # 0 on the samples' segment: no angle does better than 0, and the
    # check fails.
    p_m = np.asarray(samples, complex)
    record = _check_c(p_m, 5.0 + 0j, np.arange(p_m.size, dtype=float))
    assert record.status == "fail"
    assert record.delta_margin == 0.0
    assert attained(p_m, record.theta) == pytest.approx(0.0, abs=1e-15)
    assert record.witness[1:] == (record.theta, 0.0)


# ---------------------------------------------------------------------------
# Convex hull of the samples: monotone chain against qhull
# ---------------------------------------------------------------------------

def outside_distance(hull: np.ndarray, v: np.ndarray) -> float:
    """How far the samples reach outside the polygon ``hull``, 0 when none
    does: beyond a vertex, a segment, or the line of an edge."""
    if hull.size == 1:
        return float(np.max(np.abs(v - hull[0])))
    if hull.size == 2:
        edge = hull[1] - hull[0]
        along = np.clip((edge.conjugate() * (v - hull[0])).real
                        / abs(edge) ** 2, 0.0, 1.0)
        return float(np.max(np.abs(v - hull[0] - along * edge)))
    edge = np.roll(hull, -1) - hull
    # Signed distance of every sample to every edge's line, < 0 outside.
    inside = (edge.conjugate()[:, None]
              * (v[None, :] - hull[:, None])).imag / np.abs(edge)[:, None]
    return float(max(0.0, -inside.min()))


def assert_hull_agrees_with_qhull(v: np.ndarray) -> None:
    scale = float(np.max(np.abs(v)))
    rounding = 8.0 * EPS * scale
    hull = _hull(v)
    assert np.isin(hull, v).all()
    if hull.size > 2:
        # Counterclockwise and convex: every turn is a left turn, and the
        # turns add up to one full circle.
        edge = np.roll(hull, -1) - hull
        turn = np.roll(edge, -1) / edge
        assert np.all(turn.imag > 0.0)
        assert np.sum(np.angle(turn)) == pytest.approx(2.0 * np.pi)
    assert outside_distance(hull, v) <= rounding
    margin, _ = _sector_margin(v)
    with mock.patch.object(asymptotics_module, "_hull", qhull_vertices):
        qhull_margin, _ = _sector_margin(v)
    assert margin == pytest.approx(qhull_margin, abs=rounding)


def hull_inputs() -> dict:
    rng = np.random.default_rng(20)
    t = np.linspace(-3.0, 3.0, 2175)
    turn = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 2175, endpoint=False))
    blob = rng.normal(size=2175) + 1j * rng.normal(size=2175)
    cloud = rng.normal(size=40) + 1j * rng.normal(size=40)
    return {
        "parabola": t + 1j * t * t,
        "parabola off 0": t - 1j * (t * t + 1.0),
        "arc": 2.0 + np.exp(1j * np.pi * np.linspace(-0.4, 0.4, 2175)),
        "circle around 0": 0.5 + 2.0 * turn,
        "circle off 0": 3.0 - 1j + 0.7 * turn,
        "blob around 0": 0.3 * blob,
        "blob off 0": 4.0 + 2j + blob,
        "thin blob": (1.0 + 1j) * (blob.real + 1e-3j * blob.imag),
        # Every sample twice, as an even p_m gives on a symmetric grid.
        "doubled parabola": np.repeat(t - 1j * (t * t + 1.0), 2),
        # Most samples crowd towards the limit of a decaying spiral, well
        # inside its outer turn.
        "spiral tail": 0.6 + 0.3j + 0.05 * np.exp(5j * t) / (1.0 + t * t),
        "repeated cloud": np.tile(cloud, 5),
        "repeated point": np.full(7, 2.0 - 1j),
    }


@pytest.mark.parametrize("name", list(hull_inputs()))
def test_hull_agrees_with_qhull(name):
    assert_hull_agrees_with_qhull(hull_inputs()[name])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(v=sample_clouds())
def test_hull_of_sample_clouds_agrees_with_qhull(v):
    assert_hull_agrees_with_qhull(v)


def plain_monotone_chain(v: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain with no pass and no jump: each point of the
    sorted, deduplicated samples pops the chain's end while the two turn
    no strict left turn, by the package's rounding rule, then joins."""
    def left_turn(a, b, c):
        ab, bc = b - a, c - b
        cross = ab.real * bc.imag - ab.imag * bc.real
        return cross > TURN_TOL * abs(ab) * abs(bc)

    def chain(points):
        out = []
        for c in points:
            while len(out) > 1 and not left_turn(out[-2], out[-1], c):
                out.pop()
            out.append(c)
        return out

    p = v[np.lexsort((v.imag, v.real))]
    p = p[np.concatenate(([True], p[1:] != p[:-1]))]
    if p.size < 3:
        return p
    lower, upper = chain(p.tolist()), chain((-p[::-1]).tolist())
    return np.array(lower[:-1] + [-z for z in upper[:-1]])


def p_m_cloud(factory, probe):
    op = factory()
    jets = _GridJets.sample(op, build_schur(op), validation_grid(CFG))
    p_m = jets.values(probe)[1]
    return p_m[np.isfinite(p_m)]


def chain_corpora() -> dict:
    rng = np.random.default_rng(7)
    t = np.linspace(-3.0, 3.0, 1201)
    arc = np.exp(1j * np.pi * np.linspace(0.05, 0.95, 801))
    return {
        # Convex: every sample is a vertex of one chain.
        "convex parabola": t + 1j * t * t,
        "convex circle": np.exp(2j * np.pi * rng.uniform(size=900)),
        # Concave: the lower chain of an upper arc is its two ends, and a
        # wavy band has a concave run between every two vertices.
        "concave arc": arc,
        "concave waves": t + 0.3j * np.cos(7.0 * t) + 0.01j * t * t,
        "spiral": (1.0 + t) * np.exp(4j * t),
        # Collinear: exactly and to rounding.
        "collinear exact": np.linspace(-2.0, 2.0, 41) * (1.0 + 0.5j),
        "collinear rounded": np.linspace(-1.0, 2.0, 301) * (1.0 + 1j / 3.0),
        "collinear vertical": 0.5 + 1j * np.linspace(-1.0, 1.0, 11),
        # Duplicates: every sample twice, and a few points many times.
        "duplicate parabola": np.repeat(t - 1j * (t * t + 1.0), 2),
        "duplicate cloud": np.tile(rng.normal(size=30)
                                   + 1j * rng.normal(size=30), 6),
        "duplicate point": np.full(9, 1.0 - 2j),
    }


@pytest.mark.parametrize("name", list(chain_corpora()))
def test_hull_matches_a_plain_monotone_chain_on_corpora(name):
    v = chain_corpora()[name]
    assert _hull(v).tobytes() == plain_monotone_chain(v).tobytes()


@pytest.mark.parametrize("factory", [quartic_coupled, parabolic_potential])
@pytest.mark.parametrize("probe", [*DEFAULT_PROBES, *SEED_1_PROBES])
def test_hull_matches_a_plain_monotone_chain_on_p_m_clouds(factory, probe):
    # The clouds C takes hulls of: the parabolic's sides hold about 1,100
    # vertices each, the quartic's concave runs make the chain pop.
    v = p_m_cloud(factory, probe)
    assert _hull(v).tobytes() == plain_monotone_chain(v).tobytes()


def test_unbounded_coefficient_fails_b1(monkeypatch):
    # p_2 = x is unbounded; the sampled bound cap must flag it.
    op = OperatorMatrix(
        a=(Lit(0j), Lit(0j), X),
        b=(Lit(0j), Lit(0j)),
        c=(Lit(0j), Lit(0j)),
        d=Lit(100j),
    )
    symbol = build_schur(op)
    grid = validation_grid(CFG)
    monkeypatch.setattr(asymptotics_module, "BOUND_CAP", 1e3)
    diag = check_assumptions(op, symbol, [5.0 + 0j], grid)
    record = by_assumption(diag, "B1", 5.0 + 0j)
    assert record.status == "fail"
    label, location, measured = record.witness
    assert "p_2" in label
    assert measured > 1e3


@pytest.mark.parametrize("coeff,b1_label,b3_label", [
    ("x^2", "d^0 p_0 / dx^0", "d^0/dx^0 of b_0/(d-lambda)"),
    ("sin(x^2)", "d^2 p_0 / dx^2", "d^2/dx^2 of b_0/(d-lambda)"),
])
def test_bounded_tree_witness_labels(coeff, b1_label, b3_label):
    # B1 and B3 name the worst tree: which coefficient and which x-derivative.
    op = unbounded_coupling(coeff)
    diag = check_assumptions(op, build_schur(op), [2.0 + 3j],
                             validation_grid(CFG))
    for assumption, label in (("B1", b1_label), ("B3", b3_label)):
        record = by_assumption(diag, assumption, 2.0 + 3j)
        assert record.status == "fail"
        assert record.witness[0] == f"sampled |{label}| exceeds bound cap"


def test_undetermined_jet_samples_are_inconclusive():
    # log(2 exp(-x^2/2)) = log 2 - x^2/2 stays far below the cap for
    # |x| <= 38.4, but 1/(2 exp(-x^2/2)) overflows once |x| > 37.67, so its
    # forward-mode derivative is NaN there: undetermined, not unbounded.
    op = unbounded_coupling("log(2*exp(-x^2/2))")
    probe = 2.0 + 3j
    grid = np.linspace(-38.4, 38.4, 769)
    diag = check_assumptions(op, build_schur(op), [probe], grid)
    for assumption, label in (("B1", "d^1 p_0 / dx^1"),
                              ("B3", "d^1/dx^1 of b_0/(d-lambda)")):
        record = by_assumption(diag, assumption, probe)
        assert record.status == "inconclusive"
        message, location, measured = record.witness
        assert message == (f"sampled {label} is NaN, undetermined in "
                           "floating point")
        assert location == -38.4
        assert math.isnan(measured)
    # Past |x| = 38.6 exp underflows and the value itself is -inf: a
    # sample with infinite magnitude still fails, whatever else is NaN.
    wide = np.linspace(-40.0, 40.0, 801)
    diag = check_assumptions(op, build_schur(op), [probe], wide)
    for assumption, label in (("B1", "d^0 p_0 / dx^0"),
                              ("B3", "d^0/dx^0 of b_0/(d-lambda)")):
        record = by_assumption(diag, assumption, probe)
        assert record.status == "fail"
        assert record.witness[0] == f"sampled |{label}| exceeds bound cap"


def test_probe_on_d_at_a_grid_point_fails_b3():
    # d(0) = 1 + i and x = 0 is on the validation grid: 1/(d - lambda) is a
    # pole there, numpy's 1/(0+0j) is NaN, and c_3/(d - lambda) with
    # c_3 = i is unbounded. c_0(0) = 0, so c_0/(d - lambda) stays NaN.
    op = quartic_coupled()
    probe = 1 + 1j
    grid = validation_grid(CFG)
    assert 0.0 in grid
    diag = check_assumptions(op, build_schur(op), [probe], grid)
    record = by_assumption(diag, "B3", probe)
    assert record.status == "fail"
    assert record.witness == (
        "sampled |d^0/dx^0 of c_3/(d-lambda)| exceeds bound cap", 0.0,
        math.inf)
    assert [r.status for r in diag.records] == [
        "fail", "pass", "fail", "pass", "pass"]


def test_oscillating_limits_fail_assumption_d():
    op = OperatorMatrix(
        a=(Call("sin", X), Lit(0j), Lit(1 + 0j)),
        b=(Lit(0j), Lit(0j)),
        c=(Lit(0j), Lit(0j)),
        d=Lit(100j),
    )
    symbol = build_schur(op)
    grid = validation_grid(CFG)
    diag = check_assumptions(op, symbol, [5.0 + 0j], grid)
    record = by_assumption(diag, "D", 5.0 + 0j)
    assert record.status == "fail"
    assert record.witness is not None


def test_certificate_invariant_on_converged_records():
    symbol = build_schur(parabolic_potential())
    values, certs = limit_ratio(symbol, 3j, "+")
    for value, cert in zip(values, certs):
        assert isinstance(cert, Certificate)
        assert cert.value == value
        assert cert.last_increment <= LIMIT_TOL * (1.0 + abs(value))
        assert 4 <= cert.sample_count <= T + 1
