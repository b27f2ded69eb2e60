"""Shared construction helpers for the test suite."""

from __future__ import annotations

import cmath
import random
from pathlib import Path

from matspectra.expr import Expr, Lit, parse
from matspectra.model import OperatorMatrix

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PARABOLIC_CFG = CONFIG_DIR / "parabolic_potential.cfg"
QUARTIC_CFG = CONFIG_DIR / "quartic_coupled.cfg"

ZERO = Lit(0j)
ONE = Lit(1 + 0j)


def parabolic_potential() -> OperatorMatrix:
    """m=2 operator with decoupling function -x^2 - 1 and tail xi^2 - lambda."""
    return OperatorMatrix(
        a=(ZERO, ZERO, ONE),
        b=(ZERO, Lit(-1j)),
        c=(ZERO, Lit(1j)),
        d=parse("-x^2"),
    )


def quartic_coupled() -> OperatorMatrix:
    """m=4 operator with bounded coefficients and corner entry decaying to 0."""
    return OperatorMatrix(
        a=(
            parse("x^2/(x^2 + 1)"),
            ZERO,
            Lit(1j),
            ZERO,
            ONE,
        ),
        b=(parse("cos(x)/sqrt(1 + x^2)"), ONE),
        c=(parse("x^2/(i + x^2)"), ZERO, ZERO, Lit(1j)),
        d=parse("exp(-x^2/2) + i/(1 + x^2)"),
    )


def unbounded_coupling(coeff: str = "x^2") -> OperatorMatrix:
    """m = 2 operator with a_0 = b_0 = coeff, d = 1, delta = 1 - x^2."""
    return OperatorMatrix(
        a=(parse(coeff), ZERO, ONE),
        b=(parse(coeff), Lit(-1j)),
        c=(ZERO, Lit(1j)),
        d=ONE,
    )


def _rand_coeff(rng: random.Random, bounded: bool = False) -> Expr:
    """Random coefficient expression with no real poles.

    With ``bounded=True`` the unbounded (linear) case is excluded.
    """
    kind = rng.choice((0, 2, 3, 4) if bounded else (0, 1, 2, 3, 4))
    c1 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    c2 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    if kind == 0:
        return Lit(c1)
    if kind == 1:
        return Lit(c1) + Lit(c2) * parse("x")
    if kind == 2:
        shift = rng.uniform(1.0, 3.0)
        return Lit(c1) / (parse("x^2") + Lit(complex(shift)))
    if kind == 3:
        return Lit(c1) * parse(rng.choice(["cos(x)", "sin(x)"]))
    return Lit(c1) * parse("exp(-x^2/2)")


def random_operator(rng: random.Random, m: int) -> OperatorMatrix:
    """Random structurally valid operator with nonvanishing a_m, bounded d."""
    n = rng.randint(0, m)
    k = m - n
    a_lead = Lit(rng.uniform(0.6, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * cmath.pi)))
    a = tuple(_rand_coeff(rng) for _ in range(m)) + (a_lead,)
    b = tuple(_rand_coeff(rng) for _ in range(n + 1))
    c = tuple(_rand_coeff(rng) for _ in range(k + 1))
    d = _rand_coeff(rng, bounded=True)
    return OperatorMatrix(a=a, b=b, c=c, d=d)


def random_constant_operator(
    rng: random.Random, m: int, magnitude: float = 2.0
) -> OperatorMatrix:
    """Random constant-coefficient operator; every coefficient is a literal."""
    n = rng.randint(0, m)
    k = m - n

    def lit() -> Lit:
        return Lit(complex(rng.uniform(-magnitude, magnitude),
                           rng.uniform(-magnitude, magnitude)))

    lead = lit()
    while abs(lead.value) < 0.5:
        lead = lit()
    a = tuple(lit() for _ in range(m)) + (lead,)
    b = tuple(lit() for _ in range(n + 1))
    c = tuple(lit() for _ in range(k + 1))
    return OperatorMatrix(a=a, b=b, c=c, d=lit())
