"""Expression layer: parsing, printing, evaluation, differentiation, simplify.

Frozen scalar expectations are computed by hand from the grammar rules;
derivatives are cross-checked against the central finite-difference oracle.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matspectra import expr as expr_module
from matspectra.config import SolverConfig
from matspectra.errors import DomainError, ParseError, PoleError
from matspectra.expr import (
    FUNCTIONS,
    LAM,
    X,
    Add,
    Call,
    Div,
    Expr,
    Lit,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    differentiate,
    evaluate,
    evaluate_array,
    evaluate_batch,
    mentions,
    node_count,
    parse,
    simplify,
    to_text,
)
from matspectra.model import validation_grid
from matspectra.schur import build_schur

from factories import (_rand_coeff, parabolic_potential, quartic_coupled,
                       random_operator)
from oracles import central_diff, evaluate_recursive


# ---------------------------------------------------------------------------
# Parsing and precedence (frozen by hand from the grammar)
# ---------------------------------------------------------------------------

def test_unary_minus_binds_looser_than_power():
    # -x^2 - 1 at x=2 must be -(2^2) - 1 = -5, not (-2)^2 - 1 = 3.
    assert evaluate(parse("-x^2 - 1"), x=2.0) == -5.0 + 0j


def test_power_binds_tighter_than_product():
    assert evaluate(parse("2*x^2"), x=3.0) == 18.0 + 0j


def test_addition_is_left_associative():
    assert evaluate(parse("2 - 3 - 4")) == -5.0 + 0j


def test_division_is_left_associative():
    assert evaluate(parse("2/4/2")) == 0.25 + 0j


def test_chained_exponents_fold_right_associatively():
    tree = parse("x^2^3")
    assert tree == Pow(X, 8)


def test_negative_exponent_parses():
    assert evaluate(parse("x^-2"), x=2.0) == 0.25 + 0j


def test_constants_and_functions():
    assert evaluate(parse("i")) == 1j
    assert abs(evaluate(parse("exp(i*pi)")) + 1.0) < 1e-15
    assert evaluate(parse("e")) == complex(math.e)
    assert evaluate(parse("cos(0)")) == 1.0 + 0j
    assert evaluate(parse("atan(1)")) == complex(math.atan(1.0))


def test_lambda_is_a_variable():
    assert evaluate(parse("lambda^2 + 1"), lam=2j) == -3.0 + 0j


def test_whitespace_is_insignificant():
    assert parse("x + 2*lambda") == parse("x+2*lambda")


def test_scientific_notation_literals():
    assert evaluate(parse("1.5e2")) == 150.0 + 0j
    assert evaluate(parse("2.5e-3")) == 0.0025 + 0j


@pytest.mark.parametrize(
    "bad",
    ["x +", "(x", "x^y", "x^2.5", "foo(x)", "x$", "", "x x", "sin x", "1..2"],
)
def test_malformed_input_raises_parse_error(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("x + $")
    assert info.value.position == 4


def test_fractional_exponent_chain_rejected():
    # 2^(-1) folds to 0.5 which is not an integer exponent.
    with pytest.raises(ParseError):
        parse("x^2^-1")


# ---------------------------------------------------------------------------
# Strict scalar evaluation
# ---------------------------------------------------------------------------

def test_division_by_zero_raises_pole_error():
    with pytest.raises(PoleError):
        evaluate(parse("1/x"), x=0.0)


def test_negative_power_of_zero_raises_pole_error():
    with pytest.raises(PoleError):
        evaluate(parse("x^-1"), x=0.0)


def test_log_of_zero_raises_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse("log(x)"), x=0.0)


def test_sqrt_of_zero_raises_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x - 1)"), x=1.0)


def test_unbound_variable_raises():
    with pytest.raises(ValueError):
        evaluate(parse("x + 1"))


def test_zero_to_the_zero_is_one():
    assert evaluate(parse("x^0"), x=0.0) == 1.0 + 0j


# ---------------------------------------------------------------------------
# Vectorized evaluation
# ---------------------------------------------------------------------------

def test_array_evaluation_broadcasts():
    tree = parse("x^2 + lambda")
    xs = np.array([[1.0], [2.0], [3.0]])
    lams = np.array([[10.0, 20.0, 30.0, 40.0]])
    out = evaluate_array(tree, x=xs, lam=lams)
    assert out.shape == (3, 4)
    assert out[2, 3] == 49.0 + 0j


def test_array_evaluation_matches_scalar_on_grid():
    tree = parse("exp(-x^2/2) + i/(1 + x^2)")
    xs = np.linspace(-3.0, 3.0, 11)
    out = evaluate_array(tree, x=xs)
    for j, xv in enumerate(xs):
        assert abs(out[j] - evaluate(tree, x=xv)) < 1e-14


def test_array_evaluation_propagates_nonfinite():
    out = evaluate_array(parse("1/x"), x=np.array([0.0, 1.0]))
    assert not np.isfinite(out[0])
    assert out[1] == 1.0 + 0j


@pytest.mark.parametrize("text", ["2 - i", "exp(1) + 2", "x^2", "lambda",
                                  "x * lambda"])
def test_array_evaluation_has_the_broadcast_shape(text):
    xs = np.linspace(-1.0, 1.0, 3)[:, None]
    lams = np.array([1j, 2.0])
    out = evaluate_array(parse(text), x=xs, lam=lams)
    assert out.dtype == np.complex128 and out.shape == (3, 2)
    want = [[evaluate(parse(text), x=float(x), lam=lam) for lam in lams]
            for x in xs[:, 0]]
    assert np.allclose(out, want, rtol=1e-15, atol=0)
    if "lambda" not in text:
        flat = evaluate_array(parse(text), x=xs[:, 0])
        assert flat.shape == (3,) and flat.dtype == np.complex128
    scalar = evaluate_array(parse(text), x=0.5, lam=1j)
    assert isinstance(scalar, np.ndarray) and scalar.shape == ()


# ---------------------------------------------------------------------------
# Printing round-trip
# ---------------------------------------------------------------------------

ROUND_TRIP_SOURCES = [
    "x",
    "lambda",
    "-x^2 - 1",
    "x^2/(x^2 + 1)",
    "cos(x)/sqrt(1 + x^2)",
    "exp(-x^2/2) + i/(1 + x^2)",
    "x^2/(i + x^2)",
    "(2 - 3*i)*x + lambda^3",
    "1/(x^2 + lambda)",
    "atan(x*lambda) - log(2 + x^2)",
    "x^-3 + 2.5e-2",
    "-(x + lambda)^2",
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_print_parse_round_trip_evaluates_identically(source):
    tree = parse(source)
    reparsed = parse(to_text(tree))
    for x_val, lam_val in [(0.7, 0.3), (-1.3, 2.0), (2.4, -0.9 + 0.4j)]:
        assert evaluate(reparsed, x=x_val, lam=lam_val) == evaluate(
            tree, x=x_val, lam=lam_val)


def test_printer_parenthesizes_negative_literal_powers():
    tree = Pow(Lit(-2.0 + 0j), 3)
    assert evaluate(parse(to_text(tree))) == -8.0 + 0j


def test_printer_handles_complex_literals():
    tree = Lit(2.0 - 3.0j)
    assert evaluate(parse(to_text(tree))) == 2.0 - 3.0j
    tree = Mul(Lit(-1j), X)
    assert evaluate(parse(to_text(tree)), x=2.0) == -2j


# ---------------------------------------------------------------------------
# Differentiation against the finite-difference oracle
# ---------------------------------------------------------------------------

def test_derivative_of_shifted_reciprocal_in_x():
    # d/dx of -1/(x^2 + lambda) is 2x/(x^2 + lambda)^2 -> 0.5 at (1, 1).
    tree = parse("-1/(x^2 + lambda)")
    deriv = differentiate(tree, "x")
    value = evaluate(deriv, x=1.0, lam=1.0)
    assert value == 0.5 + 0j
    fd = central_diff(lambda t: evaluate(tree, x=t, lam=1.0), 1.0, h=1e-5)
    assert abs(value - fd) < 1e-8


def test_derivative_of_shifted_reciprocal_in_lambda():
    tree = parse("-1/(x^2 + lambda)")
    deriv = differentiate(tree, "lambda")
    assert evaluate(deriv, x=1.0, lam=1.0) == 0.25 + 0j


def test_derivative_of_sine_is_cosine():
    deriv = differentiate(parse("sin(x)"), "x")
    assert evaluate(deriv, x=0.7) == complex(math.cos(0.7))


def test_derivative_of_constant_in_other_variable_is_zero():
    deriv = differentiate(parse("x^2 + 1"), "lambda")
    assert evaluate(deriv, x=5.0) == 0j


def _rand_expr(rng: random.Random, depth: int):
    """Random tree over a pool safe for finite-difference checks."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            X, LAM, Lit(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))),
            Lit(complex(rng.uniform(-2, 2))),
        ])
    kind = rng.randrange(8)
    if kind == 0:
        return Add(_rand_expr(rng, depth - 1), _rand_expr(rng, depth - 1))
    if kind == 1:
        return Sub(_rand_expr(rng, depth - 1), _rand_expr(rng, depth - 1))
    if kind == 2:
        return Mul(_rand_expr(rng, depth - 1), _rand_expr(rng, depth - 1))
    if kind == 3:
        return Div(_rand_expr(rng, depth - 1), _rand_expr(rng, depth - 1))
    if kind == 4:
        return Neg(_rand_expr(rng, depth - 1))
    if kind == 5:
        return Pow(_rand_expr(rng, depth - 1), rng.randrange(0, 4))
    func = rng.choice(["exp", "sin", "cos", "atan", "sqrt", "log"])
    return Call(func, _rand_expr(rng, depth - 1))


def _rand_point(rng: random.Random) -> complex:
    # Away from the real and imaginary axes, clear of the cut lines of
    # log/sqrt (negative reals) and atan (imaginary axis beyond +-i).
    return complex(rng.uniform(0.4, 1.6), rng.uniform(0.3, 1.1))


def test_derivative_matches_finite_differences_on_random_trees():
    rng = random.Random(20260819)
    checked = 0
    for _ in range(100):
        tree = _rand_expr(rng, 4)
        deriv = differentiate(tree, "x")
        x0, lam0 = _rand_point(rng), _rand_point(rng)
        try:
            value = evaluate(deriv, x=x0, lam=lam0)
            fd = central_diff(
                lambda t: evaluate(tree, x=t, lam=lam0), x0, h=1e-5)
        except (PoleError, DomainError, OverflowError):
            continue
        if not (math.isfinite(abs(value)) and math.isfinite(abs(fd))):
            continue
        if abs(value) > 1e3:
            continue  # FD oracle loses accuracy on steep slopes
        assert abs(value - fd) < 1e-6 * (1.0 + abs(value))
        checked += 1
    assert checked >= 50


# ---------------------------------------------------------------------------
# Forward-mode jets against the symbolic derivatives
# ---------------------------------------------------------------------------

def _sampled(tree, x):
    return np.broadcast_to(
        np.asarray(evaluate_array(tree, x=x), dtype=np.complex128), x.shape)


_FUNCTIONS = {
    # name: (function, |slope| from the argument g and the value h)
    "exp": (np.exp, lambda g, h: np.abs(h)),
    "sin": (np.sin, lambda g, h: np.abs(np.cos(g))),
    "cos": (np.cos, lambda g, h: np.abs(np.sin(g))),
    "sqrt": (np.sqrt, lambda g, h: 0.5 / np.abs(h)),
    "log": (np.log, lambda g, h: 1.0 / np.abs(g)),
    "atan": (np.arctan, lambda g, h: 1.0 / np.abs(1.0 + g * g)),
}


def error_scale(tree, x, memo=None):
    """(value, first-order bound on its rounding error) of ``tree`` at x.

    The bound is in units of the unit roundoff, up to a small factor: sums
    add the bounds of their operands, products and quotients propagate
    them with the operand values, and every operation adds its own result.
    Shared subtrees, which differentiate produces, are evaluated once.
    """
    memo = {} if memo is None else memo
    if id(tree) in memo:
        return memo[id(tree)]
    if isinstance(tree, Lit):
        value = np.full(x.shape, tree.value, dtype=np.complex128)
        bound = np.abs(value)
    elif isinstance(tree, Var):
        value, bound = x.astype(np.complex128), np.abs(x)
    elif isinstance(tree, Neg):
        value, bound = error_scale(tree.arg, x, memo)
        value = -value
    elif isinstance(tree, (Add, Sub, Mul, Div)):
        f, f_bound = error_scale(tree.left, x, memo)
        g, g_bound = error_scale(tree.right, x, memo)
        if isinstance(tree, (Add, Sub)):
            value = f + g if isinstance(tree, Add) else f - g
            bound = f_bound + g_bound
        elif isinstance(tree, Mul):
            value = f * g
            bound = f_bound * np.abs(g) + np.abs(f) * g_bound + np.abs(value)
        else:
            value = f / g
            bound = ((f_bound + np.abs(value) * g_bound) / np.abs(g)
                     + np.abs(value))
    elif isinstance(tree, Pow):
        base, base_bound = error_scale(tree.base, x, memo)
        value = base**tree.exponent
        n = abs(tree.exponent)
        bound = (n * np.abs(base) ** (tree.exponent - 1) * base_bound
                 + (n + 1) * np.abs(value))
    else:
        g, g_bound = error_scale(tree.arg, x, memo)
        func, slope = _FUNCTIONS[tree.func]
        value = func(g)
        bound = slope(g, value) * g_bound + np.abs(value)
    memo[id(tree)] = (value, bound)
    return value, bound


def _subtrees(tree):
    yield tree
    for child in (getattr(tree, name, None)
                  for name in ("left", "right", "arg", "base")):
        if isinstance(child, Expr):
            yield from _subtrees(child)


def assert_jet_matches_symbolic(tree, x, where=None):
    """The evaluate_batch jet of one tree against the symbolic derivatives
    at the points ``x``.

    Wherever simplify(differentiate(.)) is finite (and ``where`` holds),
    the jet must be finite. Its values must agree with the derivative
    trees that differentiate builds, within 1e-12 of their rounding bound
    (forward mode rounds along the same sums and products). Those trees
    are the value reference because simplify rounds the coefficients it
    collects: where collected terms cancel it leaves residues such as
    1.5e-15*x in the second derivative of a linear term, above the
    rounding of either evaluation. The absolute floor covers subnormal
    results, where no route keeps relative precision.
    """
    first = differentiate(tree, "x")
    exact = (tree, first, differentiate(first, "x"))
    simple_first = simplify(first)
    simple = (tree, simple_first, simplify(differentiate(simple_first, "x")))
    jet = evaluate_batch(x, jets=[tree])[0][0]
    memo = {}
    with np.errstate(all="ignore"):
        for order in range(3):
            got = jet[order]
            assert got.shape == x.shape and got.dtype == np.complex128
            check = np.isfinite(_sampled(simple[order], x))
            if where is not None:
                check &= where
            assert np.all(np.isfinite(got)[check]), (order, str(tree))
            want, bound = error_scale(exact[order], x, memo)
            both = np.isfinite(got) & np.isfinite(want) & np.isfinite(bound)
            gap = np.abs(got - want)[both]
            allowed = 1e-12 * (np.abs(want) + bound)[both] + 1e-290
            assert np.all(gap <= allowed), (
                order, str(tree), float(np.max(gap / allowed)))


def test_jet_value_is_evaluate_array_bit_for_bit():
    x = np.linspace(-3.0, 3.0, 41)
    for source in ("exp(-x^2/2) + i/(1 + x^2)", "x^2/(i + x^2)",
                   "atan(x) - log(2 + x^2)*sqrt(x + 4)", "(x - 1)^-3",
                   "cos(x)^0 + sin(x)^1", "2.5"):
        tree = parse(source)
        assert np.array_equal(evaluate_batch(x, jets=[tree])[0][0][0],
                              _sampled(tree, x))


def test_jet_of_powers_at_a_root_of_the_base():
    # At x = 0, x^1 has slope 1 and curvature 0 and x^0 is flat: no 0 * inf.
    x = np.array([0.0, 1.0])
    assert np.array_equal(np.array(evaluate_batch(x, jets=[Pow(X, 1)])[0][0]),
                          [[0, 1], [1, 1], [0, 0]])
    assert np.array_equal(np.array(evaluate_batch(x, jets=[Pow(X, 0)])[0][0]),
                          [[1, 1], [0, 0], [0, 0]])
    assert np.array_equal(np.array(evaluate_batch(x, jets=[Pow(X, 2)])[0][0]),
                          [[0, 1], [0, 2], [2, 2]])


def test_jet_refuses_lambda():
    with pytest.raises(ValueError, match="x-only"):
        evaluate_batch(np.zeros(3), jets=[parse("x + lambda")])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 4]))
def test_jet_matches_symbolic_derivatives_on_schur_trees(seed, m):
    # The trees check_assumptions takes jets of, over the whole validation
    # grid: the lambda-free Schur form and b and d of random operators
    # whose coefficients come from the factory.
    op = random_operator(random.Random(seed), m)
    symbol = build_schur(op)
    grid = validation_grid(SolverConfig())
    for tree in (*symbol.alpha, *(t for row in symbol.beta for t in row),
                 *op.b, op.d):
        assert_jet_matches_symbolic(tree, grid)


def _rand_x_tree(rng: random.Random, depth: int):
    """Random x-only tree over factory coefficients and every node type."""
    if depth == 0 or rng.random() < 0.3:
        return _rand_coeff(rng, bounded=rng.random() < 0.5)
    kind = rng.randrange(7)
    if kind == 0:
        return Neg(_rand_x_tree(rng, depth - 1))
    if kind == 1:
        return Pow(_rand_x_tree(rng, depth - 1), rng.randint(-2, 3))
    if kind == 2:
        return Call(rng.choice(FUNCTIONS), _rand_x_tree(rng, depth - 1))
    node = (Add, Sub, Mul, Div)[kind - 3]
    return node(_rand_x_tree(rng, depth - 1), _rand_x_tree(rng, depth - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_jet_matches_symbolic_derivatives_on_composite_trees(seed):
    # Every node type, at points where every subtree value is finite and
    # nonzero. Elsewhere forward mode can meet 0 * inf where simplify has
    # cancelled the factor (1/(1/sin(x)) at x = 0, log(exp(-x^2/2)) once
    # exp underflows), and it overflows in intermediate derivatives sooner
    # than the simplified symbolic derivative, so the range stays within
    # |x| <= 8, where exp(-x^2/2) is far from underflow.
    tree = _rand_x_tree(random.Random(seed), 3)
    x = np.linspace(-8.0, 8.0, 161)
    regular = np.ones(x.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for sub in _subtrees(tree):
            values = _sampled(sub, x)
            regular &= np.isfinite(values) & (values != 0)
    assert_jet_matches_symbolic(tree, x, where=regular)


# ---------------------------------------------------------------------------
# Batch sampling against one tree at a time
# ---------------------------------------------------------------------------

# F'(g) and F''(g) of each function F, given g and h = F(g), in the
# arithmetic order of the package's forward mode.
_REFERENCE_SLOPES = {
    "exp": lambda g, h: (h, h),
    "sin": lambda g, h: (np.cos(g), -h),
    "cos": lambda g, h: (-np.sin(g), -h),
    "sqrt": lambda g, h: (0.5 / h, -0.25 / (h * g)),
    "log": lambda g, h: (1.0 / g, -1.0 / (g * g)),
    "atan": lambda g, h: (1.0 / (1.0 + g * g), -2.0 * g / (1.0 + g * g) ** 2),
}
_REFERENCE_FUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos,
                    "sqrt": np.sqrt, "log": np.log, "atan": np.arctan}


def reference_jet(tree, x):
    """(f, f', f'') of an x-only tree by plain recursion, each subtree
    walked wherever it occurs: the forward-mode rules with no sharing."""
    def walk(e):
        if isinstance(e, Lit):
            return np.complex128(e.value), 0j, 0j
        if isinstance(e, Var):
            return x, 1 + 0j, 0j
        if isinstance(e, Neg):
            return tuple(-part for part in walk(e.arg))
        if isinstance(e, Pow):
            f, f1, f2 = walk(e.base)
            n = e.exponent
            if n == 0:
                return f**0, 0j, 0j
            if n == 1:
                return f**1, f1, f2
            lower = f ** (n - 1)
            return (f**n, n * lower * f1,
                    n * (lower * f2 + (n - 1) * f ** (n - 2) * f1 * f1))
        if isinstance(e, Call):
            g, g1, g2 = walk(e.arg)
            h = _REFERENCE_FUNCS[e.func](g)
            slope, curvature = _REFERENCE_SLOPES[e.func](g, h)
            return h, slope * g1, slope * g2 + curvature * g1 * g1
        f, f1, f2 = walk(e.left)
        g, g1, g2 = walk(e.right)
        if isinstance(e, Add):
            return f + g, f1 + g1, f2 + g2
        if isinstance(e, Sub):
            return f - g, f1 - g1, f2 - g2
        if isinstance(e, Mul):
            return f * g, f1 * g + f * g1, f2 * g + 2.0 * f1 * g1 + f * g2
        h = f / g
        h1 = (f1 - h * g1) / g
        return h, h1, (f2 - 2.0 * h1 * g1 - h * g2) / g

    x = np.asarray(x, dtype=np.complex128)
    with np.errstate(all="ignore"):
        return tuple(np.full(x.shape, part, np.complex128)
                     for part in walk(tree))


def _same_bytes(got, want):
    return (got.dtype, got.shape, got.tobytes()) \
        == (want.dtype, want.shape, want.tobytes())


def assert_batch_matches_one_by_one(trees, x):
    """One batch, each tree both as a jet and as plain values, against
    evaluate_array, a one-tree jet walk and the unshared recursion, byte
    for byte."""
    jets, values = evaluate_batch(x, jets=trees, values=trees)
    assert len(jets) == len(values) == len(trees)
    for tree, jet, value in zip(trees, jets, values):
        assert _same_bytes(value, evaluate_array(tree, x=x)), str(tree)
        for got, single, plain in zip(jet,
                                      evaluate_batch(x, jets=[tree])[0][0],
                                      reference_jet(tree, x)):
            assert _same_bytes(got, single), str(tree)
            assert _same_bytes(got, plain), str(tree)


def _check_trees(op):
    """The x-only trees check_assumptions samples on the grid."""
    symbol = build_schur(op)
    return [*symbol.alpha, *(t for row in symbol.beta for t in row),
            symbol.d, *op.b, *op.c, op.d,
            op.d - op.b[op.n] * op.c[op.k] / op.a[op.m]]


@pytest.mark.parametrize("factory", [quartic_coupled, parabolic_potential])
def test_batch_matches_one_by_one_on_bundled_operators(factory):
    assert_batch_matches_one_by_one(_check_trees(factory()),
                                    validation_grid(SolverConfig()))


def test_batch_matches_one_by_one_on_random_operators():
    grid = validation_grid(SolverConfig())
    for seed in range(24):
        rng = random.Random(seed)
        op = random_operator(rng, rng.choice([2, 4]), settling=seed % 2 == 1)
        assert_batch_matches_one_by_one(_check_trees(op), grid)


def test_batch_keeps_literals_of_either_zero_sign_apart():
    # Equal as dataclasses, yet -0.0 + 0.0 = 0.0 and -0.0 + -0.0 = -0.0.
    plus, minus = Add(X, Lit(0.0)), Add(X, Lit(-0.0))
    assert plus == minus
    x = np.array([-0.0, 0.0, 1.5])
    trees = [plus, minus, Mul(plus, X), Mul(minus, X),
             Add(X, Lit(complex(0.0, -0.0))), Sub(Lit(-0.0), X)]
    assert_batch_matches_one_by_one(trees, x)
    values = evaluate_batch(x, values=[plus, minus])[1]
    assert values[0].tobytes() != values[1].tobytes()


def test_batch_matches_one_by_one_where_samples_are_not_finite():
    x = np.array([-40.0, -1.0, -0.0, 0.0, 0.5, 30.0, 1e200, np.inf, np.nan])
    trees = [parse(source) for source in (
        "1/x", "log(x)", "sqrt(x)", "exp(x^2)", "x*exp(x^2) - exp(x^2)*x",
        "atan(1/x)^3", "(x - x)^-2", "sin(exp(x))", "1/(1 + x^2)")]
    assert_batch_matches_one_by_one(trees, x)


_EDGE_PARTS = [0.0, -0.0, 1.5, -2.0, 1e200, -1e-300, math.inf, -math.inf,
               math.nan]
_edge_numbers = st.builds(complex, st.sampled_from(_EDGE_PARTS),
                          st.sampled_from(_EDGE_PARTS))
_leaves = st.one_of(st.just(X), st.just(LAM), st.builds(Lit, _edge_numbers),
                    st.builds(Lit, st.complex_numbers(max_magnitude=4.0)))
_trees = st.recursive(_leaves, lambda children: st.one_of(
    *(st.builds(node, children, children) for node in (Add, Sub, Mul, Div)),
    st.builds(Neg, children),
    st.builds(Pow, children, st.integers(-3, 4)),
    st.builds(Call, st.sampled_from(FUNCTIONS), children)), max_leaves=10)
_samples = st.lists(st.one_of(_edge_numbers,
                              st.complex_numbers(max_magnitude=10.0)),
                    min_size=1, max_size=4).map(
    lambda values: np.array(values, dtype=np.complex128))


def _zeros_flipped(e):
    """The tree with the sign of every zero part of its literals flipped:
    equal as a dataclass, yet not always in its samples."""
    if isinstance(e, Lit):
        parts = [-part if part == 0 else part
                 for part in (e.value.real, e.value.imag)]
        return Lit(complex(*parts))
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e)(_zeros_flipped(e.left), _zeros_flipped(e.right))
    if isinstance(e, Pow):
        return Pow(_zeros_flipped(e.base), e.exponent)
    if isinstance(e, (Neg, Call)):
        arg = _zeros_flipped(e.arg)
        return Neg(arg) if isinstance(e, Neg) else Call(e.func, arg)
    return e


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tree=_trees, xs=_samples, lams=_samples)
def test_array_walk_matches_the_recursive_reference(tree, xs, lams):
    # Bit for bit, signed zeros, infinities and NaNs included, broadcast in
    # x and lambda, in x alone (when lambda is absent) and in one batch
    # with its zero-flipped twin, with which it shares every subtree that
    # holds no zero literal.
    x, lam = xs[:, None], lams[None, :]
    got = evaluate_array(tree, x=x, lam=lam)
    assert _same_bytes(got, evaluate_recursive(tree, x=x, lam=lam))
    twin = _zeros_flipped(tree)
    shared = evaluate_batch(x, values=[Mul(tree, twin), tree, twin],
                            lam=lam)[1]
    assert _same_bytes(shared[1], got)
    assert _same_bytes(shared[2], evaluate_recursive(twin, x=x, lam=lam))
    if not mentions(tree, "lambda"):
        assert _same_bytes(evaluate_array(tree, x=xs),
                           evaluate_recursive(tree, x=xs))


def test_batch_evaluates_each_distinct_subtree_once(monkeypatch):
    # x, x^2, exp(x^2), 1 and 2.0 once each across both trees, one of them
    # built apart from the other, then the sum and the product.
    calls = []
    step = expr_module._value_step

    def counting(e, x, args):
        calls.append(e)
        return step(e, x, args)

    monkeypatch.setattr(expr_module, "_value_step", counting)
    evaluate_batch(np.linspace(-1.0, 1.0, 5),
                   jets=[parse("exp(x^2) + 1")],
                   values=[parse("exp(x^2) * 2.0"), parse("exp(x^2) + 1")])
    assert len(calls) == 7


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------

def test_simplify_collects_like_terms():
    assert simplify(parse("x + x")) == parse("2.0*x")


def test_simplify_cancels_identical_terms():
    assert simplify(parse("x - x")) == Lit(0j)


def test_simplify_folds_constants():
    assert simplify(parse("2*3 + 1")) == Lit(7.0 + 0j)


def test_simplify_cancels_shared_monomial_content():
    assert simplify(parse("(x*lambda + x)/x")) == parse("lambda + 1.0")


def test_simplify_reduces_equal_fraction_to_one():
    assert simplify(parse("(x^2 + 1)/(x^2 + 1)")) == Lit(1.0 + 0j)


def test_simplify_combines_nested_fractions():
    # -x^2 - 1*1/1 is the decoupling expression of the parabolic example.
    tree = Sub(parse("-x^2"), Div(Mul(Lit(1 + 0j), Lit(1 + 0j)), Lit(1 + 0j)))
    assert simplify(tree) == simplify(parse("-x^2 - 1"))


def test_simplify_keeps_nontrivial_quotients():
    out = simplify(parse("(x + 1)/(x + 2)"))
    assert isinstance(out, Div)
    for x_val in (0.0, 1.5, -0.5):
        expected = (x_val + 1.0) / (x_val + 2.0)
        assert abs(evaluate(out, x=x_val) - expected) < 1e-14


def test_simplify_folds_function_of_constant():
    assert simplify(parse("cos(0)*x")) == X


def test_simplify_is_sound_on_random_trees():
    rng = random.Random(7_110_823)
    checked = 0
    for _ in range(100):
        tree = _rand_expr(rng, 4)
        reduced = simplify(tree)
        for _ in range(20):
            x0, lam0 = _rand_point(rng), _rand_point(rng)
            try:
                before = evaluate(tree, x=x0, lam=lam0)
                after = evaluate(reduced, x=x0, lam=lam0)
            except (PoleError, DomainError, OverflowError):
                continue
            if not (math.isfinite(abs(before)) and math.isfinite(abs(after))):
                continue
            assert abs(after - before) < 1e-10 * (1.0 + abs(before))
            checked += 1
    assert checked >= 200


def test_simplify_is_idempotent_structurally():
    rng = random.Random(424242)
    for _ in range(100):
        tree = _rand_expr(rng, 4)
        once = simplify(tree)
        assert simplify(once) == once


def test_simplify_preserves_explicit_zero_denominator():
    out = simplify(Div(X, Lit(0j)))
    with pytest.raises(PoleError):
        evaluate(out, x=1.0)


# ---------------------------------------------------------------------------
# Miscellaneous structure helpers
# ---------------------------------------------------------------------------

def test_node_count():
    assert node_count(X) == 1
    assert node_count(parse("x + 1")) == 3
    assert node_count(parse("sin(x)^2")) == 3


def test_structural_equality_and_hash():
    assert parse("x + lambda") == parse("x + lambda")
    assert hash(parse("x*2")) == hash(parse("x*2"))
    assert parse("x + 1") != parse("1 + x")


def test_operator_sugar_builds_trees():
    tree = (X + 1) * LAM - X / 2
    assert tree == Sub(Mul(Add(X, Lit(1 + 0j)), LAM), Div(X, Lit(2 + 0j)))


def test_variables_are_shared_constants():
    assert X == Var("x")
    assert LAM == Var("lambda")
