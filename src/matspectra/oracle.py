"""Independent cross-checks: frozen-symbol root scans and dense eigensolves.

Two oracles live here, both deliberately simple so they can referee the
main spectral pipeline:

* ``freeze`` + ``det_scan`` — when every raw coefficient of the operator
  has a certified limit toward one infinity, the operator freezes into a
  constant-coefficient symbol there.  The determinant of that 2x2 symbol
  is quadratic in the spectral parameter, so its roots come in closed
  form per frequency — no Newton, no rational fitting.

* ``discretize_and_eig`` — a central finite-difference discretization of
  the full operator on a truncated interval, handed to a dense
  eigensolver.  For constant coefficients under periodic boundary
  conditions the matrix is block circulant and the eigenvalues match the
  discrete symbol exactly (``periodic_symbol_eigenvalues``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .asymptotics import Certificate, _trajectory, limit_of
from .config import SolverConfig
from .errors import (DomainError, NotConvergent, PoleError, RefusedFrozen,
                     SizeError)
from .expr import Expr, differentiate, evaluate_array, simplify
from .model import OperatorMatrix

__all__ = [
    "DetScanPoint",
    "FrozenSymbol",
    "det_scan",
    "discretize_and_eig",
    "freeze",
    "periodic_symbol_eigenvalues",
]


# ---------------------------------------------------------------------------
# Frozen symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrozenSymbol:
    """Constant-coefficient symbol of an operator at one infinity.

    ``a``, ``b``, ``c`` hold the limit values of the coefficient tuples
    in ascending derivative order; ``d`` is the limit of the scalar
    entry.  ``certificates`` maps coefficient labels (``"a_0"``, ...,
    ``"d"``) to the convergence certificate of each estimated limit.
    Instances only exist when every limit converged and every
    coefficient derivative vanished at the trajectory tail — ``freeze``
    refuses otherwise.
    """

    side: str
    a: tuple[complex, ...]
    b: tuple[complex, ...]
    c: tuple[complex, ...]
    d: complex
    certificates: dict[str, Certificate] = dataclasses.field(
        compare=False, repr=False, default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.a) - 1

    def entry_values(self, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Evaluate the three polynomial entries at frequencies ``xi``."""
        xi = np.asarray(xi, dtype=np.complex128)
        return (_polyval_ascending(self.a, xi),
                _polyval_ascending(self.b, xi),
                _polyval_ascending(self.c, xi))


def _polyval_ascending(coeffs: tuple[complex, ...], xi: np.ndarray) -> np.ndarray:
    out = np.zeros_like(xi)
    for value in reversed(coeffs):
        out = out * xi + value
    return out


def _labeled_coefficients(op: OperatorMatrix) -> list[tuple[str, Expr]]:
    labeled = [(f"a_{i}", tree) for i, tree in enumerate(op.a)]
    labeled += [(f"b_{i}", tree) for i, tree in enumerate(op.b)]
    labeled += [(f"c_{i}", tree) for i, tree in enumerate(op.c)]
    labeled.append(("d", op.d))
    return labeled


def freeze(op: OperatorMatrix, side: str,
           cfg: SolverConfig | None = None) -> FrozenSymbol:
    """Freeze the operator into its constant-coefficient symbol at one infinity.

    Every raw coefficient must have a certified limit along the sampling
    trajectory toward ``side`` infinity, and its x-derivative must vanish
    (magnitude below ``cfg.deriv_tol``) at the last two trajectory
    points.  Raises :class:`RefusedFrozen` with a witness naming the
    offending coefficient when either check fails.
    """
    cfg = cfg or SolverConfig()
    labeled = _labeled_coefficients(op)

    values: dict[str, complex] = {}
    certificates: dict[str, Certificate] = {}
    for label, tree in labeled:
        try:
            value, cert = limit_of(tree, side, cfg)
        except (NotConvergent, PoleError) as exc:
            raise RefusedFrozen(
                f"coefficient {label} has no certified limit toward "
                f"{side}infinity: {exc}",
                witness={"coefficient": label, "check": "limit",
                         "detail": str(exc)}) from exc
        values[label] = value
        certificates[label] = cert

    tail_x = _trajectory(side, cfg)[-2:]
    for label, tree in labeled:
        derivative = simplify(differentiate(tree, "x"))
        magnitudes = np.abs(evaluate_array(derivative, x=tail_x))
        if (not np.all(np.isfinite(magnitudes))
                or np.any(magnitudes >= cfg.deriv_tol)):
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


# ---------------------------------------------------------------------------
# Determinant scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetScanPoint:
    """Both determinant roots at one frequency.

    ``at_d_limit[i]`` marks a root that coincides with the frozen scalar
    entry ``d`` — at such a root the scalar entry cannot be inverted, so
    reductions that divide by ``d - lambda`` do not apply there.
    """

    xi: float
    roots: tuple[complex, complex]
    at_d_limit: tuple[bool, bool]


def _stable_quadratic_roots(trace: np.ndarray,
                            det: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of ``lambda^2 - trace*lambda + det = 0``, cancellation-safe."""
    disc = np.sqrt(trace * trace - 4.0 * det + 0j)
    # Flip the discriminant sign where it would cancel against the trace.
    flip = np.real(np.conj(trace) * disc) < 0.0
    disc = np.where(flip, -disc, disc)
    big = (trace + disc) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.where(big != 0.0, det / np.where(big != 0.0, big, 1.0),
                         (trace - disc) / 2.0)
    return big, small


def det_scan(fs: FrozenSymbol, xi_grid) -> list[DetScanPoint]:
    """Closed-form determinant roots of the frozen symbol per frequency.

    At each frequency the determinant of the frozen 2x2 symbol minus
    ``lambda`` times the identity is a monic quadratic in ``lambda``;
    both roots are returned.  The computation is vectorized over the
    whole grid.
    """
    xi = np.asarray(xi_grid, dtype=float).ravel()
    a_val, b_val, c_val = fs.entry_values(xi)
    d_val = complex(fs.d)
    trace = a_val + d_val
    det = a_val * d_val - b_val * c_val
    first, second = _stable_quadratic_roots(trace, det)

    d_tol = 1e-12 * (1.0 + abs(d_val))
    points = []
    for i, freq in enumerate(xi):
        roots = (complex(first[i]), complex(second[i]))
        flags = tuple(abs(root - d_val) <= d_tol for root in roots)
        points.append(DetScanPoint(xi=float(freq), roots=roots,
                                   at_d_limit=flags))
    return points


# ---------------------------------------------------------------------------
# Finite-difference discretization
# ---------------------------------------------------------------------------

_BOUNDARY_CONDITIONS = ("dirichlet_truncate", "periodic")


def _difference_matrices(n: int, h: float,
                         periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """Central first- and second-difference matrices on ``n`` nodes."""
    first = np.zeros((n, n), dtype=np.complex128)
    second = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n)
    up = idx + 1
    down = idx - 1
    if periodic:
        up %= n
        down %= n
        rows_up = idx
        rows_down = idx
    else:
        rows_up = idx[:-1]
        up = up[:-1]
        rows_down = idx[1:]
        down = down[1:]
    first[rows_up, up] += 1.0 / (2.0 * h)
    first[rows_down, down] += -1.0 / (2.0 * h)
    second[idx, idx] += -2.0 / (h * h)
    second[rows_up, up] += 1.0 / (h * h)
    second[rows_down, down] += 1.0 / (h * h)
    return first, second


def _derivative_powers(m: int, first: np.ndarray,
                       second: np.ndarray) -> list[np.ndarray]:
    """Matrices for (-i d/dx)^alpha, alpha = 0..m, by stencil composition."""
    n = first.shape[0]
    d_odd = -1j * first
    d_even = -second
    powers = [np.eye(n, dtype=np.complex128)]
    for alpha in range(1, m + 1):
        mat = powers[alpha - 2] @ d_even if alpha >= 2 else d_odd
        powers.append(mat)
    return powers


def _coefficient_block(coeffs, x: np.ndarray,
                       powers: list[np.ndarray]) -> np.ndarray:
    n = x.size
    block = np.zeros((n, n), dtype=np.complex128)
    for alpha, tree in enumerate(coeffs):
        block += evaluate_array(tree, x=x)[:, None] * powers[alpha]
    return block


def discretize_and_eig(op: OperatorMatrix, length: float, n_points: int,
                       bc: str = "periodic",
                       cfg: SolverConfig | None = None) -> np.ndarray:
    """Eigenvalues of a central-difference discretization on [-L, L].

    ``(-i d/dx)^alpha`` is built by composing the central first
    difference (odd part) with the negated second difference (even
    part); coefficients are sampled at the grid nodes and multiply from
    the left.  ``bc`` selects ``"periodic"`` wraparound or
    ``"dirichlet_truncate"``, which simply drops stencil entries outside
    the interval.  Returns the ``2 * n_points`` eigenvalues of the dense
    block matrix; raises :class:`SizeError` past the dense budget.
    """
    cfg = cfg or SolverConfig()
    if bc not in _BOUNDARY_CONDITIONS:
        raise DomainError(
            f"unknown boundary condition {bc!r}; "
            f"expected one of {_BOUNDARY_CONDITIONS}")
    if n_points > cfg.eig_budget:
        raise SizeError(
            f"n_points={n_points} exceeds the dense eigensolver budget "
            f"{cfg.eig_budget}")
    if n_points < 16:
        raise DomainError(f"n_points must be at least 16, got {n_points}")
    if length <= 0.0:
        raise DomainError(f"length must be positive, got {length}")
    half_width = op.m // 2 + op.m % 2
    if op.m * half_width >= n_points:
        raise DomainError(
            f"grid too coarse: order {op.m} stencils need more than "
            f"{op.m * half_width} nodes, got {n_points}")

    h = 2.0 * length / n_points
    x = -length + h * np.arange(n_points, dtype=float)
    first, second = _difference_matrices(n_points, h, bc == "periodic")
    powers = _derivative_powers(op.m, first, second)

    top_left = _coefficient_block(op.a, x, powers)
    top_right = _coefficient_block(op.b, x, powers)
    bottom_left = _coefficient_block(op.c, x, powers)
    bottom_right = np.diag(evaluate_array(op.d, x=x))

    matrix = np.block([[top_left, top_right],
                       [bottom_left, bottom_right]])
    return np.linalg.eigvals(matrix)


def periodic_symbol_eigenvalues(fs: FrozenSymbol, length: float,
                                n_points: int) -> np.ndarray:
    """Exact eigenvalues of the periodic constant-coefficient discretization.

    The periodic central-difference matrix of a constant-coefficient
    operator is block circulant, so the discrete Fourier modes
    diagonalize it: at each discrete frequency the matrix acts as the
    2x2 symbol with ``sin(xi h)/h`` standing in for the odd derivative
    factor and ``(2 - 2 cos(xi h))/h^2`` for the even one.  Returns all
    ``2 * n_points`` eigenvalues.
    """
    h = 2.0 * length / n_points
    xi = 2.0 * np.pi * np.arange(n_points, dtype=float) / (n_points * h)
    odd = np.sin(xi * h) / h
    even = (2.0 - 2.0 * np.cos(xi * h)) / (h * h)

    def discrete_poly(coeffs: tuple[complex, ...]) -> np.ndarray:
        total = np.zeros_like(xi, dtype=np.complex128)
        for alpha, value in enumerate(coeffs):
            total += value * odd ** (alpha % 2) * even ** (alpha // 2)
        return total

    a_val = discrete_poly(fs.a)
    b_val = discrete_poly(fs.b)
    c_val = discrete_poly(fs.c)
    d_val = np.full_like(a_val, complex(fs.d))
    trace = a_val + d_val
    det = a_val * d_val - b_val * c_val
    first, second = _stable_quadratic_roots(trace, det)
    return np.concatenate([first, second])
