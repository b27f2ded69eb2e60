"""First Schur complement of the operator matrix, built symbolically.

Eliminating the second component of the 2x2 operator turns the spectral
problem into a scalar one: the composed operator

    (sum_j a_j D^j) - lambda - (sum_b b_B D^B) (d - lambda)^(-1) (sum_g c_g D^g)

with D = -i d/dx. Pushing each D^B through the product with the Leibniz rule
and collecting powers of D yields coefficient expressions p_j(x, lambda),
j = 0..m. The composition is exact symbolic algebra: for each (B, g) pair,
D^B applied to (d - lambda)^(-1) c_g (D^g u) contributes
binom(B, r) * b_B * D^(B-r)[c_g/(d - lambda)] to the coefficient of
D^(r+g). The leading coefficient then automatically satisfies
p_m = a_m - b_n c_k/(d - lambda) = a_m (delta - lambda)/(d - lambda).

The same loop also yields every coefficient in a lambda-free form. With
u = 1/(d - lambda), the ladder entries D^s[c_g u] are polynomials in u with
x-only coefficients, because D[f u^q] = -i f' u^q + i q f d' u^(q+1); hence

    p_j(x, lambda) = a_j(x) - [j = 0] lambda + sum_{q=1}^{n+1} beta_jq(x) u^q.

Limits toward infinity are evaluated from this form only, so each x-only
tree is walked once per trajectory and lambda enters through array algebra
in u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

from .config import SolverConfig
from .errors import ComplexityError
from .expr import (
    LAM,
    Add,
    Div,
    Expr,
    Lit,
    Mul,
    Sub,
    differentiate,
    evaluate,
    mentions,
    node_count,
    simplify,
)
from .model import OperatorMatrix, check_structure

_ZERO = Lit(0j)


@dataclass(frozen=True)
class SchurSymbol:
    """Coefficients p_0..p_m of the scalar symbol sum_j p_j(x, lambda) xi^j.

    ``alpha``, ``beta`` and ``d`` hold the lambda-free form of the same
    coefficients: ``p_j = alpha[j] - [j = 0] lambda + sum_q beta[j][q-1] u^q``
    with ``u = 1/(d - lambda)``. A symbol built by hand from lambda-free
    trees gets the trivial form ``alpha = p``, no ``beta`` terms and no
    ``d``, hence no lambda terms at all; a hand-built tree that mentions
    lambda is rejected, since only :func:`build_schur` knows how lambda
    enters.
    """

    m: int
    p: tuple[Expr, ...]
    alpha: tuple[Expr, ...] = field(default=(), compare=False, repr=False)
    beta: tuple[tuple[Expr, ...], ...] = field(
        default=(), compare=False, repr=False)
    d: Expr | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.p) != self.m + 1:
            raise ValueError("expected m+1 coefficient expressions")
        if self.d is None:
            if any(mentions(tree, "lambda") for tree in self.p):
                raise ValueError(
                    "hand-built symbols need lambda-free coefficient trees; "
                    "use build_schur for a composed symbol")
            object.__setattr__(self, "alpha", self.p)
            object.__setattr__(self, "beta", ((),) * (self.m + 1))
        elif len(self.alpha) != self.m + 1 or len(self.beta) != self.m + 1:
            raise ValueError("expected m+1 lambda-free coefficients")


def _guard_size(tree: Expr, ceiling: int) -> Expr:
    count = node_count(tree)
    if count > ceiling:
        raise ComplexityError(
            f"coefficient tree grew to {count} nodes (ceiling {ceiling})")
    return tree


def _weighted(weight: int, b: Expr, f: Expr) -> Expr:
    term = Mul(b, f)
    return term if weight == 1 else Mul(Lit(complex(weight)), term)


def _free_step(entry: dict[int, Expr], d_slope: Expr) -> dict[int, Expr]:
    """D = -i d/dx applied to sum_q f_q u^q, using du/dx = -d' u^2."""
    parts: dict[int, list[Expr]] = {}
    for q, f in entry.items():
        parts.setdefault(q, []).append(Mul(Lit(-1j), differentiate(f, "x")))
        parts.setdefault(q + 1, []).append(
            Mul(Lit(complex(0, q)), Mul(f, d_slope)))
    return {q: simplify(reduce(Add, items)) for q, items in parts.items()}


def build_schur(op: OperatorMatrix, cfg: SolverConfig | None = None) -> SchurSymbol:
    """Compose the scalar symbol coefficients by exact Leibniz expansion."""
    if cfg is None:
        cfg = SolverConfig()
    check_structure(op)
    m, n, k = op.m, op.n, op.k
    resolvent_den = Sub(op.d, LAM)
    d_slope = simplify(differentiate(op.d, "x"))

    # terms[j] collects everything the coupling contributes at order D^j;
    # free_terms[j][q] collects the x-only coefficients of u^q among them.
    terms: list[list[Expr]] = [[] for _ in range(m + 1)]
    free_terms: list[dict[int, list[Expr]]] = [{} for _ in range(m + 1)]
    for gamma in range(k + 1):
        if op.c[gamma] == _ZERO:
            continue
        ladder = [simplify(Div(op.c[gamma], resolvent_den))]
        free_ladder = [{1: op.c[gamma]}]
        for _ in range(n):
            step = simplify(Mul(Lit(-1j), differentiate(ladder[-1], "x")))
            ladder.append(_guard_size(step, cfg.node_ceiling))
            free_ladder.append(_free_step(free_ladder[-1], d_slope))
        for beta in range(n + 1):
            if op.b[beta] == _ZERO:
                continue
            for r in range(beta + 1):
                weight = math.comb(beta, r)
                terms[r + gamma].append(
                    _weighted(weight, op.b[beta], ladder[beta - r]))
                for q, f in free_ladder[beta - r].items():
                    free_terms[r + gamma].setdefault(q, []).append(
                        _weighted(weight, op.b[beta], f))

    coefficients = []
    for j in range(m + 1):
        base: Expr = op.a[j]
        if j == 0:
            base = Sub(base, LAM)
        for term in terms[j]:
            base = Sub(base, term)
        coefficient = _guard_size(simplify(base), cfg.node_ceiling)
        coefficients.append(coefficient)

    beta_trees = []
    for j in range(m + 1):
        row = [simplify(reduce(Sub, free_terms[j].get(q, ()), _ZERO))
               for q in range(1, n + 2)]
        while row and row[-1] == _ZERO:
            row.pop()
        beta_trees.append(tuple(row))
    return SchurSymbol(m=m, p=tuple(coefficients), alpha=tuple(op.a),
                       beta=tuple(beta_trees), d=op.d)


def polynomial_derivative(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    """d/dx of a polynomial given by ascending coefficients."""
    return tuple(r * coeffs[r] for r in range(1, len(coeffs)))


def polynomial_value(coeffs: tuple[complex, ...], x: float) -> complex:
    acc = 0j
    for coefficient in reversed(coeffs):
        acc = acc * x + coefficient
    return acc


def apply_operator(
    symbol: SchurSymbol, u_coeffs, x: float, lam: complex
) -> complex:
    """Apply sum_j p_j(x, lambda) D^j to the polynomial u at the point x.

    ``u_coeffs`` lists u's complex coefficients in ascending powers of x;
    derivatives of u are computed exactly, and D^j contributes (-i)^j times
    the j-th derivative.
    """
    current = tuple(complex(c) for c in u_coeffs)
    total = 0j
    momentum_phase = 1 + 0j  # (-i)^j
    for j in range(symbol.m + 1):
        if not current:
            break
        total += (
            evaluate(symbol.p[j], x=x, lam=lam)
            * momentum_phase
            * polynomial_value(current, x)
        )
        current = polynomial_derivative(current)
        momentum_phase *= -1j
    return total
