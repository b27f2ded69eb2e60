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

Only the lambda-free form is kept. With u = 1/(d - lambda), the ladder
entries D^s[c_g u] are polynomials in u with x-only coefficients, because
D[f u^q] = -i f' u^q + i q f d' u^(q+1); hence

    p_j(x, lambda) = a_j(x) - [j = 0] lambda + sum_{q=1}^{n+1} beta_jq(x) u^q,

and every reader walks each x-only tree once per sample set, with lambda
entering through arithmetic in u. :class:`SchurSymbol` holds exactly these
trees, alpha_j, beta_jq and d, and only :func:`build_schur` makes one.
:func:`coefficient_trees` builds the trees p_j in x and lambda for
printing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    node_count,
    simplify,
)
from .model import OperatorMatrix, check_structure

_ZERO = Lit(0j)


@dataclass(frozen=True)
class SchurSymbol:
    """The scalar symbol sum_j p_j(x, lambda) xi^j in its lambda-free form.

    ``p_j = alpha[j] - [j = 0] lambda + sum_q beta[j][q-1] u^q`` with
    ``u = 1/(d - lambda)``; every tree is x-only. Only :func:`build_schur`
    makes one, since only it knows how lambda enters.
    """

    m: int
    alpha: tuple[Expr, ...]
    beta: tuple[tuple[Expr, ...], ...]
    d: Expr

    def __post_init__(self):
        if len(self.alpha) != self.m + 1 or len(self.beta) != self.m + 1:
            raise ValueError("expected m+1 coefficient expressions")


def _guard_size(tree: Expr, ceiling: int) -> Expr:
    count = node_count(tree)
    if count > ceiling:
        raise ComplexityError(
            f"coefficient tree grew to {count} nodes (ceiling {ceiling})")
    return tree


def _weighted(weight: int, b: Expr, f: Expr) -> Expr:
    term = Mul(b, f)
    return term if weight == 1 else Mul(Lit(complex(weight)), term)


def _couplings(op: OperatorMatrix, ladder):
    """(r + g, binom(B, r), b_B, D^(B-r)[c_g/(d - lambda)]) per coupling
    term, the last from ``ladder(c_g)``, which lists D^s[c_g/(d - lambda)]."""
    for gamma in range(op.k + 1):
        if op.c[gamma] == _ZERO:
            continue
        steps = ladder(op.c[gamma])
        for beta in range(op.n + 1):
            if op.b[beta] == _ZERO:
                continue
            for r in range(beta + 1):
                yield r + gamma, math.comb(beta, r), op.b[beta], steps[beta - r]


def _free_step(entry: dict[int, Expr], d_slope: Expr) -> dict[int, Expr]:
    """D = -i d/dx applied to sum_q f_q u^q, using du/dx = -d' u^2."""
    parts: dict[int, list[Expr]] = {}
    for q, f in entry.items():
        parts.setdefault(q, []).append(Mul(Lit(-1j), differentiate(f, "x")))
        parts.setdefault(q + 1, []).append(
            Mul(Lit(complex(0, q)), Mul(f, d_slope)))
    return {q: simplify(reduce(Add, items)) for q, items in parts.items()}


def build_schur(op: OperatorMatrix, cfg: SolverConfig | None = None) -> SchurSymbol:
    """Compose the lambda-free symbol by exact Leibniz expansion (no tree is
    size-guarded, so ``cfg`` is not read)."""
    check_structure(op)
    d_slope = simplify(differentiate(op.d, "x"))

    def ladder(c: Expr) -> list[dict[int, Expr]]:
        rungs = [{1: c}]
        for _ in range(op.n):
            rungs.append(_free_step(rungs[-1], d_slope))
        return rungs

    # free_terms[j][q] collects the x-only coefficients of u^q at order D^j.
    free_terms: list[dict[int, list[Expr]]] = [{} for _ in range(op.m + 1)]
    for j, weight, b, entry in _couplings(op, ladder):
        for q, f in entry.items():
            free_terms[j].setdefault(q, []).append(_weighted(weight, b, f))
    beta_trees = []
    for terms in free_terms:
        row = [simplify(reduce(Sub, terms.get(q, ()), _ZERO))
               for q in range(1, op.n + 2)]
        while row and row[-1] == _ZERO:
            row.pop()
        beta_trees.append(tuple(row))
    return SchurSymbol(m=op.m, alpha=tuple(op.a), beta=tuple(beta_trees),
                       d=op.d)


def coefficient_trees(op: OperatorMatrix,
                      cfg: SolverConfig | None = None) -> tuple[Expr, ...]:
    """The coefficients p_0..p_m as simplified trees in x and lambda, for
    ``print-schur``; each is held to ``cfg.node_ceiling`` nodes."""
    cfg = cfg or SolverConfig()
    check_structure(op)
    resolvent_den = Sub(op.d, LAM)

    def ladder(c: Expr) -> list[Expr]:
        rungs = [simplify(Div(c, resolvent_den))]
        for _ in range(op.n):
            step = simplify(Mul(Lit(-1j), differentiate(rungs[-1], "x")))
            rungs.append(_guard_size(step, cfg.node_ceiling))
        return rungs

    # p_j = a_j - [j = 0] lambda - (coupling terms at order D^j).
    terms = [[Sub(op.a[0], LAM)], *([a] for a in op.a[1:])]
    for j, weight, b, rung in _couplings(op, ladder):
        terms[j].append(_weighted(weight, b, rung))
    return tuple(_guard_size(simplify(reduce(Sub, row)), cfg.node_ceiling)
                 for row in terms)


def apply_operator(symbol: SchurSymbol, u_coeffs, x: float,
                   lam: complex) -> complex:
    """Apply sum_j p_j(x, lambda) D^j to the polynomial u at the point x.

    ``u_coeffs`` lists u's complex coefficients in ascending powers of x;
    derivatives of u are computed exactly, and D^j contributes (-i)^j times
    the j-th derivative. p_j comes from the lambda-free form.
    """
    # evaluate raises PoleError where d(x) = lambda.
    u = evaluate(Div(Lit(1 + 0j), Sub(symbol.d, Lit(complex(lam)))), x=x)
    current = [complex(c) for c in u_coeffs]
    total = 0j
    for j, (alpha, beta) in enumerate(zip(symbol.alpha, symbol.beta)):
        if not current:
            break
        value = reduce(lambda acc, c: acc * x + c, reversed(current), 0j)
        p = evaluate(alpha, x=x) - (lam if j == 0 else 0)
        p += sum(evaluate(b, x=x) * u**q for q, b in enumerate(beta, 1))
        total += p * (-1j) ** j * value
        current = [r * current[r] for r in range(1, len(current))]
    return total
