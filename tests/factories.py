"""Shared construction helpers for the test suite."""

from __future__ import annotations

import cmath
import random
from dataclasses import replace
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


def special_quartics() -> list[OperatorMatrix]:
    """The quartic with another d or a_0, each a case its tail limits must
    handle: d = x^2/(1 + exp(-x)) diverges toward + only, and the a_0 add a
    pole at x = 32 on the x0 trajectory, a limit too close to 0,
    cos(2 pi log2 x), which settles to 1 on the x0 trajectory and elsewhere
    on the recheck, and sin(pi log2 x), which settles on the x0 trajectory
    only."""
    base = quartic_coupled()
    return [replace(base, d=parse("x^2/(1 + exp(-x))")), *(
        replace(base, a=(parse(a_0), *base.a[1:])) for a_0 in (
            "1/(x - 32)", "1e-8*x^2/(x^2 + 1)",
            "cos(9.064720283654388*log(x))",
            "sin(4.532360141827194*log(x))"))]


def unbounded_coupling(coeff: str = "x^2") -> OperatorMatrix:
    """m = 2 operator with a_0 = b_0 = coeff, d = 1, delta = 1 - x^2."""
    return OperatorMatrix(
        a=(parse(coeff), ZERO, ONE),
        b=(parse(coeff), Lit(-1j)),
        c=(ZERO, Lit(1j)),
        d=ONE,
    )


def _rand_coeff(rng: random.Random, bounded: bool = False,
                settling: bool = False) -> Expr:
    """Random coefficient expression with no real poles.

    With ``bounded=True`` the unbounded (linear) case is excluded; with
    ``settling=True`` only kinds that have limits at infinity are drawn
    (constants, c/(x^2 + s), c exp(-x^2/2)).
    """
    kind = rng.choice((0, 2, 4) if settling else
                      (0, 2, 3, 4) if bounded else (0, 1, 2, 3, 4))
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


def random_operator(rng: random.Random, m: int,
                    settling: bool = False) -> OperatorMatrix:
    """Random structurally valid operator with nonvanishing a_m, bounded d.

    With ``settling=True`` every coefficient has a limit at infinity.
    """
    n = rng.randint(0, m)
    k = m - n
    a_lead = Lit(rng.uniform(0.6, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * cmath.pi)))
    a = tuple(_rand_coeff(rng, settling=settling) for _ in range(m)) + (a_lead,)
    b = tuple(_rand_coeff(rng, settling=settling) for _ in range(n + 1))
    c = tuple(_rand_coeff(rng, settling=settling) for _ in range(k + 1))
    d = _rand_coeff(rng, bounded=True, settling=settling)
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
