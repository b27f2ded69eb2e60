"""Independent numeric references used across the test suite.

Nothing in this module calls into ``matspectra``'s algorithms: derivatives
are approximated by central finite differences, eigenvalues come from the
closed-form quadratic formula, discretization stencils are diagonalized by
hand via their Fourier symbols, set distances are computed by brute
force, and convex hulls come from qhull. :func:`apply_operator` reads a
Schur symbol's trees with the scalar ``matspectra.expr.evaluate`` only, to
check the reduction's algebra against the operator it came from, and
:func:`evaluate_recursive` walks a tree by plain recursion, each subtree
wherever it occurs, as the reference for the package's shared-subtree
walker. :func:`limit_on` certifies one tree on one trajectory: it walks
the tree by :func:`evaluate_recursive` and scans its samples as a column
of their own, under the package's certificate and refusal rules, as the
reference for the tail ledger, which samples many trees on four
trajectories in one walk and scans them in one block.
:func:`freeze_by_limit_of` freezes an operator coefficient by
coefficient, each limit from its own one-tree ledger (``limit_of``) and
each tail derivative from its own jet walk, as the reference for
``freeze``, which reads one ledger and makes one jet walk.
:func:`bisection_sweep` is the frequency sweep's plain bisection, one
level per round, around the solve and split check the caller passes, as
the reference for the sweep's depth rule. :func:`svg_coordinates` writes
screen coordinates one f-string per point, as the reference for the SVG
writer's one-template formatting. Tests compare package output against
these.
"""

from __future__ import annotations

import cmath
import math
from functools import reduce

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from matspectra.asymptotics import (LIMIT_TOL, _certificate, _limit_block,
                                    _limit_error, _trajectory, limit_of)
from matspectra.errors import NotConvergent, PoleError, RefusedFrozen
from matspectra.expr import (Add, Call, Div, Lit, Mul, Neg, Pow, Sub, Var,
                             evaluate, evaluate_batch)
from matspectra.oracle import DERIV_TOL, FrozenSymbol, _labeled_coefficients
from matspectra.schur import SchurSymbol


def central_diff(f, z: complex, h: float = 1e-5) -> complex:
    """Two-point central finite-difference derivative of ``f`` at ``z``."""
    return (f(z + h) - f(z - h)) / (2.0 * h)


def det2(a: complex, b: complex, c: complex, d: complex) -> complex:
    return a * d - b * c


def quadratic_roots(b: complex, c: complex) -> tuple[complex, complex]:
    """Both roots of ``z**2 + b*z + c`` via the numerically stable branch."""
    disc = cmath.sqrt(b * b - 4.0 * c)
    if (b.conjugate() * disc).real > 0.0:
        q = -(b + disc) / 2.0
    else:
        q = -(b - disc) / 2.0
    if q == 0:
        return 0j, -b
    return q, c / q


def symbol_matrix_eigenvalues(
    a_val: complex, b_val: complex, c_val: complex, d_val: complex
) -> tuple[complex, complex]:
    """Eigenvalues of ``[[a, b], [c, d]]`` by the trace/determinant formula."""
    trace = a_val + d_val
    det = a_val * d_val - b_val * c_val
    return quadratic_roots(-trace, det)


def directed_hausdorff(points_from, points_to) -> float:
    """sup over `points_from` of the distance to the set `points_to`."""
    from_arr = np.asarray(points_from, dtype=complex).ravel()
    to_arr = np.asarray(points_to, dtype=complex).ravel()
    if from_arr.size == 0:
        return 0.0
    if to_arr.size == 0:
        return float("inf")
    pairwise = np.abs(from_arr[:, None] - to_arr[None, :])
    return float(pairwise.min(axis=1).max())


def qhull_vertices(v: np.ndarray) -> np.ndarray:
    """Convex hull vertices of complex samples by qhull, counterclockwise;
    samples on one line give the ends of their segment, or one point."""
    try:
        return v[ConvexHull(np.column_stack([v.real, v.imag])).vertices]
    except QhullError:
        offset = v - v[0]
        far = offset[int(np.argmax(np.abs(offset)))]
        if far == 0:
            return v[:1]
        along = (far.conjugate() * offset).real
        return v[[int(np.argmin(along)), int(np.argmax(along))]]


def fourier_modes(n: int, h: float) -> np.ndarray:
    """The n discrete Fourier frequencies of an n-point periodic grid."""
    return 2.0 * np.pi * np.arange(n) / (n * h)


def central_first_diff_symbol(xi: np.ndarray, h: float) -> np.ndarray:
    """Fourier symbol of the periodic central first-difference stencil.

    The stencil (u[j+1] - u[j-1]) / (2h) acts on the mode exp(i*xi*j*h) as
    multiplication by i*sin(xi*h)/h.
    """
    return 1j * np.sin(xi * h) / h


def second_diff_symbol(xi: np.ndarray, h: float) -> np.ndarray:
    """Fourier symbol of the periodic (1, -2, 1)/h^2 stencil.

    The stencil acts on exp(i*xi*j*h) as multiplication by
    (2*cos(xi*h) - 2)/h^2.
    """
    return (2.0 * np.cos(xi * h) - 2.0) / h**2


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


_ARRAY_FUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos,
                "sqrt": np.sqrt, "log": np.log, "atan": np.arctan}


def evaluate_recursive(e, x=None, lam=None) -> np.ndarray:
    """Samples of a tree in x and lambda, broadcast as numpy broadcasts
    them, by plain recursion: a complex128 array of the broadcast shape of
    ``x`` and ``lam``, non-finite values left in place."""
    x_arr = None if x is None else np.asarray(x, dtype=np.complex128)
    lam_arr = None if lam is None else np.asarray(lam, dtype=np.complex128)
    shape = np.broadcast_shapes(*(np.shape(v) for v in (x_arr, lam_arr)
                                  if v is not None))

    def walk(e):
        if isinstance(e, Lit):
            return np.complex128(e.value)
        if isinstance(e, Var):
            value = x_arr if e.name == "x" else lam_arr
            if value is None:
                raise ValueError(f"unbound variable {e.name!r}")
            return value
        if isinstance(e, Add):
            return walk(e.left) + walk(e.right)
        if isinstance(e, Sub):
            return walk(e.left) - walk(e.right)
        if isinstance(e, Mul):
            return walk(e.left) * walk(e.right)
        if isinstance(e, Div):
            return walk(e.left) / walk(e.right)
        if isinstance(e, Neg):
            return -walk(e.arg)
        if isinstance(e, Pow):
            return walk(e.base) ** e.exponent
        if isinstance(e, Call):
            return _ARRAY_FUNCS[e.func](walk(e.arg))
        raise TypeError(f"not an expression node: {e!r}")

    with np.errstate(all="ignore"):
        out = walk(e)
    if isinstance(out, np.ndarray) and out.shape == shape:
        return out
    return np.full(shape, out, dtype=np.complex128)


def limit_on(expr, side: str, xs: np.ndarray):
    """The certified limit of a lambda-free tree on the trajectory ``xs``
    toward ``side``, as (value, certificate), or the error that refuses
    it: the certificate scan of one column, with the package's certificate
    and refusal rules."""
    samples = evaluate_recursive(expr, x=xs)
    block = _limit_block(samples[None, :, None], LIMIT_TOL)
    if not block[4][0, 0]:
        raise _limit_error(expr, side, xs, samples, block)
    return complex(block[0][0, 0]), _certificate(block, 0, 0)


def freeze_by_limit_of(op, side: str) -> FrozenSymbol:
    """``oracle.freeze`` one coefficient at a time: every limit from
    ``limit_of``, then every tail derivative from a jet walk of its tree
    alone, each refusal raised at the first coefficient that fails."""
    labeled = _labeled_coefficients(op)

    values, certificates = {}, {}
    for label, tree in labeled:
        try:
            cert = limit_of(tree, side)[1]
        except (NotConvergent, PoleError) as exc:
            raise RefusedFrozen(
                f"coefficient {label} has no certified limit toward "
                f"{side}infinity: {exc}",
                witness={"coefficient": label, "check": "limit",
                         "detail": str(exc)}) from exc
        values[label] = cert.limit
        certificates[label] = cert

    tail_x = _trajectory(side)[-2:]
    for label, tree in labeled:
        magnitudes = np.abs(evaluate_batch(tail_x, jets=[tree])[0][0][1])
        if (not np.all(np.isfinite(magnitudes))
                or np.any(magnitudes >= DERIV_TOL)):
            raise RefusedFrozen(
                f"derivative of coefficient {label} does not vanish at the "
                f"trajectory tail toward {side}infinity",
                witness={"coefficient": label, "check": "derivative",
                         "x": [float(v) for v in tail_x],
                         "magnitude": [float(v) for v in magnitudes]})

    return FrozenSymbol(
        side=side,
        a=tuple(values[f"a_{i}"] for i in range(len(op.a))),
        b=tuple(values[f"b_{i}"] for i in range(len(op.b))),
        c=tuple(values[f"c_{i}"] for i in range(len(op.c))),
        d=values["d"],
        certificates=certificates,
    )


def bisection_sweep(solve, needs_split, merge, xi_grid, max_points: int,
                    max_rounds: int = 48):
    """A frequency sweep refined by plain bisection, one level per round.

    ``solve(xi)`` gives the root table of ascending frequencies (``xi``,
    a NaN-padded ``lam`` and a ``count`` per row), ``needs_split(table)``
    which of its segments split and ``merge(a, b)`` one table of the rows
    of both. Each round, while fewer than ``max_points`` roots are held,
    takes the midpoint of every segment that splits and is wider than
    1e-7 (1 + |left end|): geometric between nonzero ends of one sign,
    arithmetic otherwise, kept where strictly inside. It solves an
    ascending prefix of them within the budget. Returns the table and the
    number of rounds.
    """
    table = solve(np.asarray(xi_grid, dtype=float))
    rounds = 0
    total = int(table.count.sum())
    while total < max_points and rounds < max_rounds:
        mids = []
        split = needs_split(table)
        for k, (lo, hi) in enumerate(zip(table.xi[:-1].tolist(),
                                         table.xi[1:].tolist())):
            if not split[k] or hi - lo <= 1e-7 * (1.0 + abs(lo)):
                continue
            if lo != 0.0 and hi != 0.0 and (lo > 0) == (hi > 0):
                mid = math.copysign(math.sqrt(abs(lo) * abs(hi)), lo)
            else:
                mid = 0.5 * (lo + hi)
            if lo < mid < hi:
                mids.append(mid)
        mids = mids[:max_points - total]
        if not mids:
            break
        update = solve(np.asarray(mids))
        table = merge(table, update)
        total += int(update.count.sum())
        rounds += 1
    return table, rounds


def svg_coordinates(sx, sy) -> list[str]:
    """Screen coordinates as "x,y" to two decimals, one f-string a point."""
    return [f"{x:.2f},{y:.2f}" for x, y in zip(np.asarray(sx).tolist(),
                                               np.asarray(sy).tolist())]
