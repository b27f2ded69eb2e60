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
trees, alpha_j, beta_jq and d, and only :func:`build_schur` makes one; no
tree in x and lambda is ever composed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .config import SolverConfig
from .expr import Add, Expr, Lit, Mul, Sub, differentiate, simplify
from .model import OperatorMatrix

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


def _weighted(weight: int, b: Expr, f: Expr) -> Expr:
    term = Mul(b, f)
    return term if weight == 1 else Mul(Lit(complex(weight)), term)


def _free_step(entry: dict[int, Expr], d_slope: Expr,
               memo: dict) -> dict[int, Expr]:
    """D = -i d/dx applied to sum_q f_q u^q, using du/dx = -d' u^2."""
    parts: dict[int, list[Expr]] = {}
    for q, f in entry.items():
        parts.setdefault(q, []).append(Mul(Lit(-1j), differentiate(f, "x")))
        parts.setdefault(q + 1, []).append(
            Mul(Lit(complex(0, q)), Mul(f, d_slope)))
    return {q: simplify(reduce(Add, items), memo)
            for q, items in parts.items()}


def build_schur(op: OperatorMatrix, cfg: SolverConfig | None = None) -> SchurSymbol:
    """Compose the lambda-free symbol by exact Leibniz expansion (``cfg``
    is not read).

    Every ``simplify`` call of one build shares one memo: the rungs of a
    ladder, and the beta rows built from them, hold the same b, c and rung
    subtrees again and again, and each is normalized once.
    """
    memo: dict = {}
    d_slope = simplify(differentiate(op.d, "x"), memo)
    # free_terms[j][q] collects the x-only coefficients of u^q at order D^j:
    # binom(B, r) b_B D^(B-r)[c_g u] per coupling term, with j = r + g.
    free_terms: list[dict[int, list[Expr]]] = [{} for _ in range(op.m + 1)]
    for gamma, c in enumerate(op.c):
        if c == _ZERO:
            continue
        rungs = [{1: c}]  # rungs[s] is D^s[c_g u]
        for _ in range(op.n):
            rungs.append(_free_step(rungs[-1], d_slope, memo))
        for beta, b in enumerate(op.b):
            if b == _ZERO:
                continue
            for r in range(beta + 1):
                for q, f in rungs[beta - r].items():
                    free_terms[r + gamma].setdefault(q, []).append(
                        _weighted(math.comb(beta, r), b, f))
    beta_trees = []
    for terms in free_terms:
        row = [simplify(reduce(Sub, terms.get(q, ()), _ZERO), memo)
               for q in range(1, op.n + 2)]
        while row and row[-1] == _ZERO:
            row.pop()
        beta_trees.append(tuple(row))
    return SchurSymbol(m=op.m, alpha=tuple(op.a), beta=tuple(beta_trees),
                       d=op.d)
