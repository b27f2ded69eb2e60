"""Operator container: loading, structure rules, decoupling function,
principal determinant, validation grid.

Frozen values come from the closed-form m=2 example (decoupling function
-x^2 - 1) and the direct 2x2 determinant oracle.
"""

import dataclasses
import random

import numpy as np
import pytest

from matspectra.config import SolverConfig
from matspectra.errors import ConfigError, StructureError
from matspectra.expr import Lit, evaluate, evaluate_array, parse, simplify
from matspectra.model import (
    X_SPAN,
    DiagnosticRecord,
    OperatorMatrix,
    delta,
    load_operator,
    parse_operator_text,
    validate,
    validation_grid,
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
from oracles import det2


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

def test_orders_come_from_list_lengths():
    op = quartic_coupled()
    assert (op.m, op.n, op.k) == (4, 1, 3)


def test_odd_order_rejected():
    with pytest.raises(StructureError, match="m=3 must be even"):
        OperatorMatrix(a=(ZERO, ZERO, ZERO, ONE), b=(ZERO, ONE), c=(ZERO, ZERO, ONE), d=ZERO)


def test_order_mismatch_rejected():
    with pytest.raises(StructureError, match=r"m=2 must equal n\+k=3"):
        OperatorMatrix(a=(ZERO, ZERO, ONE), b=(ZERO, ONE), c=(ZERO, ZERO, ONE), d=ZERO)


# Each broken shape: (a, b, c) coefficient tuples and the cause named.
BROKEN_SHAPES = {
    "odd": ((ZERO, ZERO, ZERO, ONE), (ZERO, ONE), (ZERO, ZERO, ONE), "even"),
    "mismatch": ((ZERO, ZERO, ONE), (ZERO, ONE), (ZERO, ZERO, ONE), r"n\+k"),
    "zero": ((ONE,), (ONE,), (ONE,), "positive"),
}


@pytest.mark.parametrize("shape", sorted(BROKEN_SHAPES))
def test_broken_orders_cannot_be_built_directly(shape):
    a, b, c, cause = BROKEN_SHAPES[shape]
    with pytest.raises(StructureError, match=cause):
        OperatorMatrix(a=a, b=b, c=c, d=ZERO)


@pytest.mark.parametrize("shape", sorted(BROKEN_SHAPES))
def test_broken_orders_cannot_be_built_by_replace(shape):
    a, b, c, cause = BROKEN_SHAPES[shape]
    with pytest.raises(StructureError, match=cause):
        dataclasses.replace(quartic_coupled(), a=a, b=b, c=c)


def test_validate_passes_for_unit_leading_coefficient():
    diag = validate(quartic_coupled(), np.linspace(-50.0, 50.0, 201))
    assert diag.ok()
    assert diag.records[0].assumption == "A"
    assert diag.records[0].status == "pass"


def test_validate_fails_when_leading_coefficient_vanishes():
    op = OperatorMatrix(a=(ZERO, ZERO, parse("x")), b=(ZERO, ONE), c=(ZERO, ONE), d=ZERO)
    diag = validate(op, np.array([-1.0, 0.0, 1.0]))
    record = diag.records[0]
    assert record.status == "fail"
    assert record.witness is not None
    assert record.witness[1] == 0.0


def test_validate_raises_structure_error_before_sampling():
    with pytest.raises(StructureError):
        validate(OperatorMatrix(a=(ZERO, ZERO, ZERO, ONE), b=(ZERO, ONE),
                                c=(ZERO, ZERO, ONE), d=ZERO),
                 np.array([0.0]))


def test_diagnostic_record_requires_witness_on_failure():
    with pytest.raises(ValueError):
        DiagnosticRecord(assumption="A", status="fail")


def test_diagnostics_json_shape():
    diag = validate(quartic_coupled(), np.array([0.0, 1.0]))
    encoded = diag.to_json_dict()
    assert encoded["ok"] is True
    assert encoded["records"][0]["assumption"] == "A"


# ---------------------------------------------------------------------------
# Decoupling function
# ---------------------------------------------------------------------------

def test_decoupling_function_of_parabolic_example():
    out = delta(parabolic_potential())
    assert out == simplify(parse("-x^2 - 1"))
    assert evaluate(out, x=2.0) == -5.0 + 0j


def test_decoupling_function_of_quartic_example_numerically():
    out = delta(quartic_coupled())
    reference = parse("exp(-x^2/2) - i*x^2/(1 + x^2)")
    xs = np.linspace(-6.0, 6.0, 121)
    got = evaluate_array(out, x=xs)
    want = evaluate_array(reference, x=xs)
    assert np.max(np.abs(got - want)) < 1e-12


def test_decoupling_function_with_zero_coupling_is_corner_entry():
    op = OperatorMatrix(a=(ZERO, ZERO, ONE), b=(ZERO, ZERO), c=(ZERO, ONE), d=parse("cos(x)"))
    assert delta(op) == simplify(parse("cos(x)"))


# ---------------------------------------------------------------------------
# Principal determinant
# ---------------------------------------------------------------------------

def principal_determinant(op, x, xi, lam):
    """det [[a_m xi^m, b_n xi^n], [c_k xi^k, d - lam]] at one point."""
    return det2(
        evaluate(op.a[op.m], x=x) * xi**op.m,
        evaluate(op.b[op.n], x=x) * xi**op.n,
        evaluate(op.c[op.k], x=x) * xi**op.k,
        evaluate(op.d, x=x) - lam,
    )


def test_determinant_frozen_value_against_direct_2x2_oracle():
    # a_m (delta - lam) xi^m = 1 * (-2 - 0) * 4 at x = 1, xi = 2, lam = 0.
    assert principal_determinant(parabolic_potential(), 1.0, 2.0, 0j) \
        == -8.0 + 0j


def test_determinant_vanishes_at_zero_frequency():
    assert principal_determinant(quartic_coupled(), 0.7, 0.0, 2.0 - 1.0j) \
        == 0j


def test_determinant_vanishes_on_decoupling_curve():
    op = parabolic_potential()
    for x in (0.0, 1.0, -2.5):
        lam = evaluate(delta(op), x=x)
        det = principal_determinant(op, x, 3.0, lam)
        assert abs(det) < 1e-9 * (1.0 + abs(lam))


def test_determinant_factorization_property():
    rng = random.Random(515253)
    for _ in range(10):
        op = random_operator(rng, rng.choice([2, 4]))
        decoupling = delta(op)
        for _ in range(20):
            x = rng.uniform(-3.0, 3.0)
            xi = rng.uniform(-3.0, 3.0)
            lam = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            direct = principal_determinant(op, x, xi, lam)
            lead = evaluate(op.a[op.m], x=x, lam=lam)
            factored = lead * (evaluate(decoupling, x=x, lam=lam) - lam) * xi**op.m
            scale = 1.0 + abs(direct) + abs(factored)
            assert abs(direct - factored) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def test_load_parabolic_config():
    op = load_operator(PARABOLIC_CFG)
    assert (op.m, op.n, op.k) == (2, 1, 1)
    assert evaluate(op.b[1]) == -1j
    assert evaluate(op.c[1]) == 1j
    assert op.d == parse("-x^2")


def test_load_quartic_config():
    op = load_operator(QUARTIC_CFG)
    assert (op.m, op.n, op.k) == (4, 1, 3)
    assert op.a[4] == Lit(1.0 + 0j)
    assert evaluate(op.d, x=0.0) == 1.0 + 1.0j


def test_loader_rejects_unknown_keys():
    text = "m = 0\nn = 0\nk = 0\na0 = 1\nb0 = 0\nc0 = 0\nd = 1\nz9 = 3\n"
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_operator_text(text)


def test_loader_rejects_missing_keys():
    text = "m = 2\nn = 1\nk = 1\na0 = 0\na1 = 0\na2 = 1\nd = 1\n"
    with pytest.raises(ConfigError, match="missing keys"):
        parse_operator_text(text)


def test_loader_rejects_duplicate_keys():
    text = "m = 0\nm = 0\nn = 0\nk = 0\na0 = 1\nb0 = 0\nc0 = 0\nd = 1\n"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_operator_text(text)


def test_loader_rejects_bad_integer_order():
    text = "m = two\nn = 0\nk = 0\na0 = 1\nb0 = 0\nc0 = 0\nd = 1\n"
    with pytest.raises(ConfigError, match="integer"):
        parse_operator_text(text)


def test_loader_rejects_malformed_line():
    with pytest.raises(ConfigError, match="key=value"):
        parse_operator_text("m 2\n")


def test_loader_rejects_bad_expression():
    text = "m = 0\nn = 0\nk = 0\na0 = 1 +\nb0 = 0\nc0 = 0\nd = 1\n"
    with pytest.raises(ConfigError, match="a0"):
        parse_operator_text(text)


@pytest.mark.parametrize("key, value", [("d", "x + lambda"),
                                        ("a0", "lambda^2"),
                                        ("b1", "sin(lambda*x)")])
def test_loader_rejects_lambda_in_coefficients(key, value):
    entries = {"a0": "0", "a1": "0", "a2": "1", "b0": "0", "b1": "-i",
               "c0": "0", "c1": "i", "d": "-x^2", key: value}
    text = "m = 2\nn = 1\nk = 1\n" + "".join(
        f"{name} = {expr}\n" for name, expr in entries.items())
    with pytest.raises(ConfigError, match=f"key '{key}'.*lambda"):
        parse_operator_text(text)


def test_loader_rejects_structurally_invalid_orders():
    odd = "m = 3\nn = 1\nk = 2\na0 = 0\na1 = 0\na2 = 0\na3 = 1\nb0 = 0\nb1 = 1\nc0 = 0\nc1 = 0\nc2 = 1\nd = 0\n"
    # m = n = k = 0: the symbol has no ratio p_j/p_m to take the limit of.
    zero = "m = 0\nn = 0\nk = 0\na0 = 1\nb0 = 1\nc0 = 1\nd = 0\n"
    for text, cause in ((odd, "even"), (zero, "positive")):
        with pytest.raises(StructureError, match=cause):
            parse_operator_text(text)


# ---------------------------------------------------------------------------
# Validation grid
# ---------------------------------------------------------------------------

def test_validation_grid_shape_and_extent():
    cfg = SolverConfig()
    grid = validation_grid(cfg)
    assert grid[0] == -1e6 and grid[-1] == 1e6
    assert 0.0 in grid
    assert np.all(np.diff(grid) > 0)
    core = grid[np.abs(grid) <= X_SPAN]
    assert core.size >= cfg.grid_points
