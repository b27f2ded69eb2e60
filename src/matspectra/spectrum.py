"""Essential-spectrum point clouds: regular curve plus singular branches.

The regular part is the closure of the range of the scalar decoupling
function ``delta = d - b_n c_k / a_m``. It is sampled over a real interval,
refined until consecutive image points near the output window are closer
than ``curve_res``, and finished with certified endpoint limits toward
+/-infinity whenever those limits exist.

The singular part collects, for both ends of the line and every real
frequency ``xi`` in a symmetric log-spaced grid, the complex ``lambda``
values where the tail polynomial ``xi**m + sum_j r_j(lambda) xi**j``
vanishes; ``r_j`` are the frozen limits of the composed-symbol coefficient
ratios. Per side the solve is staged:

1. build every ``r_j`` in closed form as P_j/P_m, a rational function of
   lambda with a shared denominator, from the certified limits of the
   symbol's x-only trees (:func:`~matspectra.asymptotics.symbol_limits`):
   alpha_j, beta_jq and d, or 1/d -> 0 and beta_jq/d^q when d diverges. A
   limit within two tail bounds of 0 (the geometric remainder of its last
   increments) counts as exactly 0, one that cannot be told from 0 is
   refused, and the power of ``w = d^inf - lambda`` that every P_j shares
   is divided out, so the cleared polynomials keep no spurious root at
   ``lambda = d^inf``. Every limit is certified again on the recheck
   trajectory of :mod:`~matspectra.asymptotics`, and the two values must
   agree within their last increments;
2. clear denominators at fixed xi and take the roots as candidates, one
   stacked solve per batch of frequencies whose cleared polynomials share
   a trimmed shape: closed form for degree 1 and 2, companion-matrix
   ``eigvals`` above;
3. accept a candidate when the closed-form ``|F_xi(lambda)| <= ROOT_TOL``
   or when the Newton steps on F and on its cleared form are both at most
   ``DEDUPE_TOL``; one that misses takes at most ``NEWTON_STEPS`` Newton
   steps on the exact F and dF/dlambda, and is dropped when it still
   misses. No limit is sampled per candidate;
4. refine xi adaptively: a segment between neighbouring frequencies is
   split when a root at one end lies in the emit band (within
   ``10 curve_res`` of the window) and has no root within ``curve_res`` at
   the other end, which may have none. Each round checks every segment
   in one array pass and solves, for each that splits, its bisection
   midpoints down to the depth its gap predicts: about
   log2(gap / curve_res) halvings, at most ``SPLIT_LEVELS``, where the
   gap is the largest distance from an emitted root at one end to the
   nearest root at the other. A segment where a branch ends, with an
   emitted root that has no root at all at the other end, predicts no
   depth and takes its midpoint only, as bisection does. A frequency's
   roots do not depend on the batch it is solved in, so the rounds find
   every point plain bisection (one level per round) would, and some
   more.

When a limit of step 1 is refused, the side falls back to fit and polish:
``r_j`` is reconstructed jointly from certified limit samples on two
circles (ascending degree ladder, numerator degree <= n+2, denominator <=
n+1; a side that no rung fits within ``FIT_TOL`` gets no points). Its
candidates settle as in step 3, except that each step takes F from a
fresh limit batch and only dF/dlambda from the fit: a candidate is kept
when ``|F| <= ROOT_TOL``, its Newton step is at most ``DEDUPE_TOL``, its
step on the slope of the limit batches at most ``curve_res``, and again
``|F| <= ROOT_TOL`` on the recheck trajectory. The report names
the route of each side and its limits, or the limit that was refused.

An :func:`essential_spectrum` run reads all its limits, step 1's on both
sides, the curve's endpoints and d's limit points, from one
:func:`~matspectra.asymptotics.tail_ledger`: one walk and one scan. A
closed-form sweep reads only the profile, the frequency grid and the
config, so two sides with the same limits share one sweep: when the -
side's closed-form profile equals the + side's byte for byte (numerator
shape and the bytes of N_j and Q), the - side takes the + side's emitted
roots, its skips relabelled to "-" and its sweep report, marked
``"reused": "+"``, instead of sweeping again. Such a - side is wholly
neutral: every root belongs to both ends, no merge runs, and the + and -
classes stay empty. Both bundled operators have coefficients even in x
and take this path. A fitted side is always swept on its own, since its
polish samples limits toward its own end.

Each side keeps its roots in a :class:`RootTable` (ascending xi, a
NaN-padded root array, a count per row), so the window tests, dedupe,
segment checks and side merging run as array operations. Every distance
compared with a tolerance is ``np.hypot`` of the difference, which equals
Python's ``abs(complex)`` bit for bit. Coincident roots from the two sides
merge into points labeled with the neutral side. Branch ids follow greedy
nearest-neighbor continuation in xi: runs of rows where the greedy choice
is forced are assigned by composing per-row permutations, and only the
joints between runs take the per-row loop.

Both parts leave as column tables, which the flags, the CSV rows and the
SVG plot read as arrays. :class:`RegularTable` holds ``x_param`` and
``lam``; :class:`SingularTable` holds ``side`` (a code into
:data:`SIDES`: 0 ``+``, 1 ``-``, 2 the neutral ``·``, the CSV order),
``xi``, ``lam``, ``branch_id`` and ``flags`` (1 for ``in_exceptional``
plus 2 for ``in_regular_closure``). Iterating over a table, indexing it or
taking its ``len()`` treats it as a sequence of :class:`RegularPoint` or
:class:`SingularPoint` rows, each built on demand.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .asymptotics import (
    LIMIT_TOL,
    ExceptionalSet,
    SymbolLimits,
    TailLedger,
    _ratio_batch,
    _trajectory,
    limit_points_at_infinity,
    limit_ratio_batch,
    symbol_limits,
    symbol_rows,
    tail_ledger,
)
from .config import SolverConfig
from .errors import ConfigError, FitError, LimitRefused
from .expr import evaluate_array
from .model import (
    X_SPAN,
    OperatorMatrix,
    delta,
    validate,
    validation_grid,
)
from .schur import SchurSymbol, build_schur

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

CSV_HEADER = "part,side,param,re_lambda,im_lambda,branch_id,flags"

REGULAR_SIDE = "·"
"""Side token for points that do not belong to a specific end of the line."""

SKIP_KINDS = ("LimitSkip", "PolishSkip", "RecheckSkip", "IdentitySkip")
SKIP_SAMPLE = 50
"""Skips of each kind kept verbatim in the report; all of them are counted."""

NEWTON_STEPS = 3
"""Newton steps a candidate root that is not yet accepted may take."""

ROOT_TOL = 1e-8
"""Largest |F_xi(lambda)| that accepts a candidate root."""

# The fallback fit takes limit samples on two circles about FIT_CENTER, of
# radii FIT_RADII, and accepts a relative residual of at most FIT_TOL.
FIT_TOL = 1e-7
FIT_CENTER = 0j
FIT_RADII = (2.17, 4.31)

XI_MIN = 1e-3
"""Smallest nonzero |xi| of the default frequency grid."""

MAX_POINTS = 200_000
"""Most curve samples the regular part, and most roots a sweep, refines to."""

SPLIT_LEVELS = 6
"""Most bisection levels one refinement round inserts into a segment that
splits, so at most 2**SPLIT_LEVELS - 1 frequencies. The cap binds where a
branch jumps rather than moves; later rounds go on from there."""

DEDUPE_TOL = 1e-9
"""Distance within which two roots, or a root and a curve sample, coincide."""

EXC_TOL = 1e-3
"""Distance from the exceptional set within which a point is flagged in it."""


# ---------------------------------------------------------------------------
# The two parts as column tables
# ---------------------------------------------------------------------------

SIDES = ("+", "-", REGULAR_SIDE)
"""Side tokens by side code; the codes are the CSV rank of the sides."""

FLAGS = ("in_exceptional", "in_regular_closure")
"""Flag names by bit: bit k (value 2**k) of a flag code sets ``FLAGS[k]``."""

_FLAG_NAMES = [tuple(name for k, name in enumerate(FLAGS) if code >> k & 1)
               for code in range(1 << len(FLAGS))]


@dataclass(frozen=True)
class RegularPoint:
    """One sample of the decoupling curve; ``x_param`` may be +/-inf."""

    x_param: float
    lam: complex


@dataclass(frozen=True)
class SingularPoint:
    """One certified root of a tail polynomial at frequency ``xi``."""

    side: str
    xi: float
    lam: complex
    branch_id: int
    flags: tuple[str, ...] = ()


class _Rows:
    """A column table as a sequence of rows, each built on demand."""

    def __len__(self) -> int:
        return self.lam.size

    def __getitem__(self, k: int):
        if not isinstance(k, (int, np.integer)):
            raise TypeError(f"index rows by int, not {type(k).__name__}; "
                            "slice the columns instead (table.lam[0:2])")
        return self._row(*(getattr(self, f.name)[k].item()
                           for f in dataclasses.fields(self)))

    def __iter__(self):
        return map(self._row, *(getattr(self, f.name).tolist()
                                for f in dataclasses.fields(self)))


@dataclass(frozen=True, eq=False)
class RegularTable(_Rows):
    """The regular part, one row per curve sample: ``x_param`` (float, the
    endpoint limits at +/-inf) and ``lam`` (complex). Rows are
    :class:`RegularPoint`."""

    x_param: np.ndarray
    lam: np.ndarray

    _row = RegularPoint

    @classmethod
    def from_rows(cls, rows) -> "RegularTable":
        rows = list(rows)
        return cls(np.array([p.x_param for p in rows], dtype=float),
                   np.array([p.lam for p in rows], dtype=complex))


@dataclass(frozen=True, eq=False)
class SingularTable(_Rows):
    """The singular part, one row per point: ``side`` (a code into
    :data:`SIDES`), ``xi``, ``lam``, ``branch_id`` and ``flags`` (bits into
    :data:`FLAGS`). Rows are :class:`SingularPoint`."""

    side: np.ndarray
    xi: np.ndarray
    lam: np.ndarray
    branch_id: np.ndarray
    flags: np.ndarray

    @staticmethod
    def _row(side, xi, lam, branch_id, flags) -> SingularPoint:
        return SingularPoint(SIDES[side], xi, lam, branch_id,
                             _FLAG_NAMES[flags])

    @classmethod
    def from_rows(cls, rows) -> "SingularTable":
        rows = list(rows)
        return cls(
            np.array([SIDES.index(p.side) for p in rows], dtype=np.int8),
            np.array([p.xi for p in rows], dtype=float),
            np.array([p.lam for p in rows], dtype=complex),
            np.array([p.branch_id for p in rows], dtype=int),
            np.array([sum(1 << FLAGS.index(f) for f in set(p.flags))
                      for p in rows], dtype=np.uint8))


@dataclass(frozen=True)
class SpectrumSet:
    """Union of the regular and singular parts plus the run report."""

    regular: RegularTable
    singular: SingularTable
    exceptional: ExceptionalSet
    report: dict


# ---------------------------------------------------------------------------
# Regular part: adaptive image sampling of the decoupling curve
# ---------------------------------------------------------------------------

def _window_pad(window) -> float:
    re_min, re_max, im_min, im_max = window
    return 0.05 * ((re_max - re_min) + (im_max - im_min))


def _near_window(vals: np.ndarray, window, pad: float) -> np.ndarray:
    re_min, re_max, im_min, im_max = window
    return ((vals.real >= re_min - pad) & (vals.real <= re_max + pad)
            & (vals.imag >= im_min - pad) & (vals.imag <= im_max + pad))


def regular_part(op: OperatorMatrix, cfg: SolverConfig | None = None, *,
                 report: dict | None = None,
                 ledger: TailLedger | None = None) -> RegularTable:
    """Sample the decoupling curve adaptively and append endpoint limits.

    Consecutive samples whose images lie near the output window are refined
    until image gaps drop below ``curve_res`` (subject to ``MAX_POINTS``).
    Coincident consecutive images are collapsed, so a constant curve yields
    a single finite point. Endpoint limits toward +/-infinity, read from
    ``ledger``, a :func:`~matspectra.asymptotics.tail_ledger` that holds
    the decoupling function as ``"delta"`` (built when None), are appended
    with ``x_param = +/-inf``, a limit within ``ZERO_MARGIN`` tail bounds
    of 0 as exactly 0 (:attr:`~matspectra.asymptotics.Certificate.limit`);
    divergent ends are absent, and the report names why.
    """
    cfg = cfg or SolverConfig()
    log = report if report is not None else {}
    if ledger is None:
        ledger = tail_ledger([("delta", delta(op))])
    dexpr = ledger.tree("delta")
    xs = np.unique(np.concatenate(
        [np.linspace(-X_SPAN, X_SPAN, cfg.grid_points), [0.0]]))
    vals = evaluate_array(dexpr, x=xs)
    finite = np.isfinite(vals)
    dropped = int((~finite).sum())
    xs, vals = xs[finite], vals[finite]
    pad = _window_pad(cfg.window)
    rounds = 0
    while xs.size < MAX_POINTS and rounds < 48:
        gaps = np.abs(np.diff(vals))
        near = _near_window(vals, cfg.window, pad)
        wide_enough = np.diff(xs) > 1e-9 * (1.0 + np.abs(xs[:-1]))
        need = (gaps > cfg.curve_res) & (near[:-1] | near[1:]) & wide_enough
        if not need.any():
            break
        mids = 0.5 * (xs[:-1][need] + xs[1:][need])
        mids = mids[: MAX_POINTS - xs.size]
        mvals = evaluate_array(dexpr, x=mids)
        ok = np.isfinite(mvals)
        dropped += int((~ok).sum())
        xs = np.concatenate([xs, mids[ok]])
        vals = np.concatenate([vals, mvals[ok]])
        order = np.argsort(xs)
        xs, vals = xs[order], vals[order]
        rounds += 1

    keep = np.ones(xs.size, dtype=bool)
    keep[1:] = np.abs(np.diff(vals)) > 1e-12
    x_param, lam = [xs[keep]], [vals[keep]]

    endpoints: dict[str, dict] = {}
    for side, tag in (("-", -math.inf), ("+", math.inf)):
        cert = ledger.certificate("delta", side)
        if cert is None:
            error = ledger.error("delta", side)
            endpoints[side] = {"converged": False,
                               "reason": type(error).__name__,
                               "message": str(error)}
            continue
        value = cert.limit
        x_param.append(np.array([tag]))
        lam.append(np.array([value], dtype=complex))
        endpoints[side] = {
            "converged": True,
            "value": [value.real, value.imag],
            "samples": cert.sample_count,
        }
    table = RegularTable(np.concatenate(x_param), np.concatenate(lam))
    log["regular"] = {
        "points": len(table),
        "dropped_nonfinite": dropped,
        "refinement_rounds": rounds,
        "endpoints": endpoints,
    }
    return table


# ---------------------------------------------------------------------------
# Singular part, step 1: the frozen limits as rationals in lambda
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalProfile:
    """Frozen-limit ratios toward one side, as rationals in lambda.

    ``numerators[j]`` holds ascending coefficients of N_j, ``denominator``
    those of the shared Q; ``r_j(lambda) ~ N_j(lambda) / Q(lambda)``.
    A closed-form profile is exact and carries the ``limits`` it is built
    from; a fitted one has ``limits`` None, and ``residual`` is the worst
    relative mismatch over its fit samples.
    """

    side: str
    numerators: np.ndarray
    denominator: np.ndarray
    residual: float = 0.0
    samples_used: int = 0
    sample_rounds: int = 0
    limits: SymbolLimits | None = None


def _closed_form_side(symbol: SchurSymbol, side: str, limits: SymbolLimits
                      ) -> tuple[RationalProfile, int]:
    """The exact profile P_j/P_m toward one side, from certified limits.

    With w = d^inf - lambda, P_j = (alpha_j - [j = 0] lambda) w^Q
    + sum_q beta_jq w^(Q-q); the lowest power of w that every P_j shares
    is divided out, so the cleared polynomials keep no spurious root at
    lambda = d^inf. When d diverges, P_j = alpha_j - [j = 0] lambda
    + sum_q lim beta_jq/d^q (Q = 0). ``limits`` are the side's
    :func:`~matspectra.asymptotics.symbol_limits`. Returns the profile and
    the power of w divided out. Raises :class:`LimitRefused` when P_m
    vanishes identically.
    """
    d_limit, *terms = limits.limits
    # beta_jq u^q tends to beta_jq^inf w^-q, or to lim beta_jq/d^q (a w^0
    # term, with w = -lambda) when d diverges.
    powers = [0 if limits.d_diverges else limit.q for limit in terms]
    d_inf = 0j if limits.d_diverges else d_limit.value
    top = max(powers, default=0)
    in_w = np.zeros((symbol.m + 1, top + 2), dtype=complex)
    for limit, q in zip(terms, powers):
        in_w[limit.j, top - q] += limit.value
    in_w[0, top] -= d_inf
    in_w[0, top + 1] = 1.0  # -lambda = w - d^inf
    cancelled = int(np.argmax(in_w.any(axis=0)))
    in_w = in_w[:, cancelled:]
    # (d^inf - lambda)^k = sum_i binom(k, i) d^inf^(k-i) (-lambda)^i
    size = in_w.shape[1]
    to_lambda = np.zeros((size, size), dtype=complex)
    for k in range(size):
        for i in range(k + 1):
            to_lambda[k, i] = math.comb(k, i) * d_inf ** (k - i) * (-1) ** i
    poly = in_w @ to_lambda
    if not poly[-1].any():
        raise LimitRefused(f"p_{symbol.m}",
                           "its frozen form vanishes for every lambda")
    # P_0 carries lambda to the highest power, so N_j is never shorter than Q.
    numerators = poly[:-1, :1 + np.flatnonzero(poly[0]).max()]
    denominator = poly[-1, :1 + np.flatnonzero(poly[-1]).max()]
    return RationalProfile(side, numerators, denominator,
                           limits=limits), cancelled


def _sample_limits(symbol: SchurSymbol, side: str, count: int
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """Collect ``count`` certified limit samples on the two fit circles."""
    lams: list[complex] = []
    rows: list[np.ndarray] = []
    offset = 0.0
    index = 0
    rounds = 0
    for attempt in range(6):
        need = count - len(lams)
        if need <= 0:
            break
        rounds = attempt + 1
        ks = np.arange(index, index + need)
        radii = np.asarray([FIT_RADII[k % 2] for k in ks], dtype=float)
        angles = offset + GOLDEN_ANGLE * ks
        cand = FIT_CENTER + radii * np.exp(1j * angles)
        values, status = limit_ratio_batch(symbol, cand, side)
        for lam, row, st in zip(cand, values, status):
            if st == "ok" and np.all(np.isfinite(row)):
                lams.append(complex(lam))
                rows.append(np.asarray(row))
        index += need
        offset += 0.37
    return np.asarray(lams, dtype=complex), np.asarray(rows), rounds


def _fit_rational(lam_arr: np.ndarray, r_arr: np.ndarray, num_len: int,
                  den_len: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Joint least-squares: shared-denominator rational fit via SVD.

    Solves ``N_j(lam) - r_j(lam) Q(lam) ~ 0`` for all samples and
    coefficients simultaneously; the null direction of the stacked system
    gives the coefficient vector up to scale.
    """
    K, m = r_arr.shape
    cols = m * num_len + den_len
    pow_num = lam_arr[:, None] ** np.arange(num_len)[None, :]
    pow_den = lam_arr[:, None] ** np.arange(den_len)[None, :]
    weights = 1.0 / (1.0 + np.abs(r_arr))
    system = np.zeros((K * m, cols), dtype=complex)
    for j in range(m):
        rows = slice(j * K, (j + 1) * K)
        system[rows, j * num_len:(j + 1) * num_len] = (
            pow_num * weights[:, j, None])
        system[rows, m * num_len:] = (
            -r_arr[:, j, None] * pow_den * weights[:, j, None])
    _, _, vh = np.linalg.svd(system, full_matrices=True)
    vec = vh[-1].conj()
    numerators = vec[: m * num_len].reshape(m, num_len)
    denominator = vec[m * num_len:]
    with np.errstate(all="ignore"):
        qs = pow_den @ denominator
        fitted = (pow_num @ numerators.T) / qs[:, None]
        rel = np.abs(fitted - r_arr) / (1.0 + np.abs(r_arr))
    residual = float(np.max(rel)) if np.all(np.isfinite(rel)) else math.inf
    return numerators, denominator, residual


def _fit_side(symbol: SchurSymbol, side: str, order_n: int
              ) -> RationalProfile:
    """Reconstruct the frozen-limit ratios toward one side.

    Degrees climb a ladder (numerator d+1, denominator d) for d = 1..n+1;
    the first rung whose relative residual meets ``FIT_TOL`` wins. Raises
    :class:`FitError` when too few limit samples converge or no rung
    qualifies.
    """
    count = 4 * (order_n + 3)
    lam_arr, r_arr, rounds = _sample_limits(symbol, side, count)
    cols_max = symbol.m * (order_n + 3) + (order_n + 2)
    min_samples = max(6, -(-cols_max // symbol.m))
    if lam_arr.size < min_samples:
        raise FitError(
            f"only {lam_arr.size} of {count} limit samples toward "
            f"{side}infinity converged after {rounds} sampling rounds; "
            f"need at least {min_samples} for the rational reconstruction")
    best = math.inf
    for den_deg in range(1, order_n + 2):
        numerators, denominator, residual = _fit_rational(
            lam_arr, r_arr, den_deg + 2, den_deg + 1)
        if residual <= FIT_TOL:
            return RationalProfile(side, numerators, denominator, residual,
                                   samples_used=int(lam_arr.size),
                                   sample_rounds=rounds)
        best = min(best, residual)
    raise FitError(
        f"no rational reconstruction toward {side}infinity meets fit_tol "
        f"{FIT_TOL:.1e}; the best residual is {best:.3e}")


# ---------------------------------------------------------------------------
# Singular part, steps 2-4: companion seeds, acceptance, refinement
# ---------------------------------------------------------------------------

def default_xi_grid(cfg: SolverConfig) -> np.ndarray:
    """Zero plus a symmetric log-spaced frequency grid from ``XI_MIN`` to
    ``cfg.xi_max``. Raises :class:`ConfigError` when ``xi_max`` lies below
    ``XI_MIN``, where the grid would run above it."""
    if cfg.xi_max < XI_MIN:
        raise ConfigError(f"xi_max {cfg.xi_max} lies below the smallest "
                          f"frequency of the default grid, {XI_MIN}")
    tail = np.logspace(math.log10(XI_MIN), math.log10(cfg.xi_max),
                       cfg.xi_points)
    return np.unique(np.concatenate([-tail, [0.0], tail]))


def _cleared_coefficients(profile: RationalProfile, m: int,
                          xi: np.ndarray) -> np.ndarray:
    """Ascending lambda-coefficients of Q*xi^m + sum_j N_j*xi^j, per xi.

    Formed by Horner's rule in xi, elementwise, which is backward stable
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    section 5.1). No matmul or ``pow`` takes part, so a frequency's row has
    the same bits in whatever batch it is solved: a BLAS kernel with fused
    multiply-adds may round a row differently with the batch around it.
    """
    xi = np.asarray(xi, dtype=float)[:, None]
    coeffs = np.zeros((xi.shape[0], profile.numerators.shape[1]),
                      dtype=complex)
    coeffs[:, :profile.denominator.size] = profile.denominator
    for j in range(m - 1, -1, -1):
        coeffs = coeffs * xi + profile.numerators[j]
    return coeffs


def _companion_roots(coeffs: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, int]:
    """Roots of the cleared polynomials, one row of ascending coefficients each.

    A row is trimmed at 1e-12 of its largest magnitude. Rows with the same
    degree and number of vanishing low-order coefficients are solved as one
    stack, the stacks in ascending order of the shape code ``degree *
    width + zeros``, which ``np.bincount`` lists without a sort. A stack
    starts from the monic row ``-desc[1:] / desc[0]`` that ``np.roots`` puts
    in its companion matrix. Degree 1 takes that quotient as its root, and
    degree 3 and above one stacked ``eigvals`` call on the companion
    matrices, so both carry the bits ``np.roots`` gives for the trimmed row
    (as complex128). Degree 2, ``z**2 + p z + r``, takes the roots
    ``q = -(p + s sqrt(p**2 - 4 r)) / 2`` and ``r / q``, with the sign ``s``
    under which ``p`` and the root do not cancel (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 1.8); they agree
    with ``np.roots`` to rounding. The trim keeps ``|p|`` below 1e12 and
    ``|r|`` within 1e-12 to 1e12, so nothing overflows or goes subnormal
    and ``q`` is never 0. Returns the (F, R) roots, NaN-padded, the (F,)
    mask of degenerate rows (all zero or not finite; no roots) and the
    number of stacked solves, one per shape.
    """
    mags = np.abs(coeffs)
    top = mags.max(axis=1, initial=0.0)
    degenerate = ~(np.isfinite(top) & (top > 0.0))
    trimmed = np.where(mags > 1e-12 * top[:, None], coeffs, 0.0)
    nonzero = trimmed != 0.0
    width = coeffs.shape[1]
    low = np.argmax(nonzero, axis=1)
    high = width - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    valid = np.flatnonzero(~degenerate)
    roots = np.full((coeffs.shape[0], high[valid].max(initial=0)), np.nan,
                    dtype=complex)
    shape = (high - low)[valid] * width + low[valid]
    solves = 0
    for code in np.flatnonzero(np.bincount(shape)).tolist():
        degree, zeros = divmod(code, width)  # high - low, low
        rows = valid[shape == code]
        roots[rows, degree:degree + zeros] = 0.0
        if degree:
            desc = trimmed[rows, zeros:zeros + degree + 1][:, ::-1]
            monic = -desc[:, 1:] / desc[:, :1]
            if degree == 1:
                roots[rows, 0] = monic[:, 0]
            elif degree == 2:  # z**2 + p z + r
                p, r = -monic[:, 0], -monic[:, 1]
                root = np.sqrt(p * p - 4.0 * r)
                root = np.where(p.real * root.real + p.imag * root.imag < 0.0,
                                -root, root)
                q = -0.5 * (p + root)
                roots[rows, 0], roots[rows, 1] = q, r / q
            else:
                companion = np.zeros((rows.size, degree, degree),
                                     dtype=complex)
                companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
                companion[:, 0, :] = monic
                roots[rows, :degree] = np.linalg.eigvals(companion)
            solves += 1
    return roots, degenerate, solves


def _log_skip(skips: list, kind: str, side: str, xi: float, lam, reason: str):
    entry = {"type": kind, "side": side, "xi": float(xi), "reason": reason}
    if lam is not None:
        lam = complex(lam)
        entry["lambda"] = [lam.real, lam.imag]
    skips.append(entry)


def _tail_values(pows: np.ndarray, ratios: np.ndarray, m: int) -> np.ndarray:
    return pows[:, m] + np.einsum("ij,ij->i", pows[:, :m], ratios)


def _polish_batch(symbol: SchurSymbol, profile: RationalProfile,
                  coeffs: np.ndarray, xi: np.ndarray, lam: np.ndarray,
                  cfg: SolverConfig, skips: list, work: dict
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Settle candidate roots of a fitted profile on fresh limit batches.

    Each step takes F_xi(lambda) from one limit batch and dF/dlambda from
    the fit, whose cleared polynomial C = Q xi^m + sum_j N_j xi^j is in
    ``coeffs``. A candidate is kept once ``|F| <= ROOT_TOL`` and its
    Newton step |F/F'| is at most ``DEDUPE_TOL``: where F is small over a
    wide range of lambda (or does not depend on lambda at all) the
    residual alone passes at points that are no root. One that misses
    takes up to ``NEWTON_STEPS`` Newton steps and is dropped after them.
    Where the fit matches limit noise by a pole-zero pair its slope is no
    guide, so a kept candidate then needs a Newton step of at most
    ``curve_res`` on the slope of the limit batches (one more batch at
    lambda + h, h = 1e-6 (1 + |lambda|)), and ``|F| <= ROOT_TOL`` again on
    the recheck trajectory; these drops are ``RecheckSkip``s. Adds its
    limit batches, the lambdas they evaluate and the Newton steps taken to
    ``work``. Returns (kept, lam).
    """
    m, side = symbol.m, profile.side
    lam = np.array(lam, dtype=complex)
    pows = xi[:, None] ** np.arange(m + 1)[None, :]
    kept = np.zeros(lam.size, dtype=bool)
    f_kept = np.zeros(lam.size, dtype=complex)

    def tail_at(idx, at, recheck=False):
        """F at ``at`` for the candidates ``idx`` from one limit batch (NaN
        where it fails), and where the batch converged."""
        values, status = _ratio_batch(symbol, at, _trajectory(side, recheck))
        work["limit_batches"] += 1
        work["lambdas_evaluated"] += int(idx.size)
        return _tail_values(pows[idx], values, m), status == "ok"

    def drop(idx, passed, reason):
        for i in idx[~passed]:
            _log_skip(skips, "RecheckSkip", side, xi[i], lam[i], reason)
        kept[idx[~passed]] = False

    live = np.arange(lam.size)
    for step in range(NEWTON_STEPS + 1):
        f, ok = tail_at(live, lam[live])
        for i in live[~ok]:
            _log_skip(skips, "LimitSkip", side, xi[i], lam[i],
                      "limit estimation failed during polish")
        live, f = live[ok], f[ok]
        with np.errstate(all="ignore"):
            c, dc = _horner(coeffs[live], lam[live])
            q, dq = _horner(profile.denominator[None, :], lam[live])
            newton = f * q * q / (dc * q - c * dq)  # F / F'
        hit = (np.abs(f) <= ROOT_TOL) & (np.abs(newton) <= DEDUPE_TOL)
        kept[live[hit]] = True
        f_kept[live[hit]] = f[hit]
        live, newton = live[~hit], newton[~hit]
        if live.size == 0 or step == NEWTON_STEPS:
            break
        finite = np.isfinite(newton)
        for i in live[~finite]:
            _log_skip(skips, "PolishSkip", side, xi[i], lam[i],
                      "the fitted F has no finite Newton step")
        live = live[finite]
        lam[live] -= newton[finite]
        work["newton_iterations"] += int(live.size)
    for i in live:
        _log_skip(skips, "PolishSkip", side, xi[i], lam[i],
                  "Newton on the fitted slope did not locate a root")

    idx = np.flatnonzero(kept)
    if idx.size:
        h = 1e-6 * (1.0 + np.abs(lam[idx]))
        f = f_kept[idx]
        with np.errstate(all="ignore"):
            step = np.abs(f * h / (tail_at(idx, lam[idx] + h)[0] - f))
        drop(idx, step <= cfg.curve_res,
             "the Newton step on the limit-batch slope exceeds curve_res")
        idx = np.flatnonzero(kept)
    if idx.size:
        f = tail_at(idx, lam[idx], recheck=True)[0]
        drop(idx, np.abs(f) <= ROOT_TOL,
             "independent-trajectory recheck failed")
    return kept, lam


def _horner(coeffs: np.ndarray, lam: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Values and lambda-derivatives of polynomials with ascending
    ``coeffs`` (one row per lambda, or one row for all) at ``lam``."""
    value = np.zeros(lam.shape, dtype=complex)
    slope = np.zeros(lam.shape, dtype=complex)
    for c in coeffs.T[::-1]:
        slope = slope * lam + value
        value = value * lam + c
    return value, slope


def _settle_closed_form(profile: RationalProfile, coeffs: np.ndarray,
                        xi: np.ndarray, lam: np.ndarray, skips: list,
                        work: dict) -> tuple[np.ndarray, np.ndarray]:
    """Accept candidate roots on the exact tail polynomial; no limit batch.

    ``coeffs`` holds each candidate's cleared polynomial C = Q xi^m
    + sum_j N_j xi^j, so F_xi(lambda) = C(lambda)/Q(lambda). A candidate
    is kept once ``|F_xi(lambda)| <= ROOT_TOL``, or once both Newton steps
    |F/F'| and |C/C'| are at most ``DEDUPE_TOL``: near a pole of F the
    residual of the float nearest a root can exceed ``ROOT_TOL`` while
    the root is located far below the output's resolution. The step on C
    rejects a point near a pole of F, where F/F' is small only because F
    is large, and the step on F a root that C shares with Q. A candidate
    that misses takes up to ``NEWTON_STEPS`` Newton steps on F and is
    dropped after them. Adds the steps taken to ``work``. Returns
    (kept, lam).
    """
    lam = np.array(lam, dtype=complex)
    kept = np.zeros(lam.size, dtype=bool)
    live = np.arange(lam.size)
    with np.errstate(all="ignore"):
        for step in range(NEWTON_STEPS + 1):
            c, dc = _horner(coeffs[live], lam[live])
            q, dq = _horner(profile.denominator[None, :], lam[live])
            newton = c * q / (dc * q - c * dq)  # F / F'
            hit = (np.abs(c / q) <= ROOT_TOL) | (
                (np.abs(newton) <= DEDUPE_TOL)
                & (np.abs(c / dc) <= DEDUPE_TOL))
            kept[live[hit]] = True
            live, newton = live[~hit], newton[~hit]
            if live.size == 0 or step == NEWTON_STEPS:
                break
            finite = np.isfinite(newton)
            for i in live[~finite]:
                _log_skip(skips, "PolishSkip", profile.side, xi[i], lam[i],
                          "the closed-form F has no finite Newton step")
            live = live[finite]
            lam[live] -= newton[finite]
            work["newton_iterations"] += int(live.size)
    for i in live:
        _log_skip(skips, "PolishSkip", profile.side, xi[i], lam[i],
                  "Newton on the closed-form F did not reach the root "
                  "tolerance")
    return kept, lam


def _track_pad(cfg: SolverConfig) -> float:
    """Band beyond the window where roots are still traced for continuity."""
    return max(1.0, _window_pad(cfg.window))


def _keep_pad(cfg: SolverConfig) -> float:
    """Band beyond the window where certified roots are still reported."""
    return 10.0 * cfg.curve_res


@dataclass(frozen=True)
class RootTable:
    """Roots of one side, one row per frequency.

    ``xi`` (F,) ascends; row i of ``lam`` (F, R) holds ``count[i]`` roots
    sorted by (real, imag), then NaN padding.
    """

    xi: np.ndarray
    lam: np.ndarray
    count: np.ndarray

    @property
    def valid(self) -> np.ndarray:
        return np.arange(self.lam.shape[1]) < self.count[:, None]


def _empty_rows(xi: np.ndarray) -> RootTable:
    return RootTable(xi, np.empty((xi.size, 0), dtype=complex),
                     np.zeros(xi.size, dtype=int))


def _compact(xi: np.ndarray, lam: np.ndarray, keep: np.ndarray) -> RootTable:
    """Table of the kept entries of each row, sorted stably by (real, imag)."""
    order = np.lexsort((lam.imag, lam.real, ~keep), axis=-1)
    keep = np.take_along_axis(keep, order, axis=1)
    lam = np.take_along_axis(lam, order, axis=1)
    count = keep.sum(axis=1)
    return RootTable(xi, np.where(keep, lam, np.nan)[:, :count.max(initial=0)],
                     count)


def _concat(tables: list[RootTable]) -> RootTable:
    """One table of the rows of ``tables``, whose frequencies are disjoint."""
    xi = np.concatenate([t.xi for t in tables])
    order = np.argsort(xi)
    lam = np.full((xi.size, max(t.lam.shape[1] for t in tables)), np.nan,
                  dtype=complex)
    start = 0
    for t in tables:
        lam[start:start + t.xi.size, :t.lam.shape[1]] = t.lam
        start += t.xi.size
    return RootTable(xi[order], lam[order],
                     np.concatenate([t.count for t in tables])[order])


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|a_i - b_j|`` over the last axes, bit for bit as ``abs(complex)``."""
    gap = a[..., :, None] - b[..., None, :]
    return np.hypot(gap.real, gap.imag)


def _solve_at(symbol: SchurSymbol, profile: RationalProfile,
              xi_values: np.ndarray, cfg: SolverConfig,
              skips: list, work: dict) -> RootTable:
    """Steps 2-4 for a batch of ascending frequencies.

    Returns the certified roots within the tracking band, with a row for
    every attempted frequency (possibly empty) so the refinement pass can
    see where branches leave the band. Of two roots closer than
    ``DEDUPE_TOL`` the earlier seed's stays. Adds its work to ``work``.
    """
    track_pad = _track_pad(cfg)
    xi_values = np.asarray(xi_values, dtype=float)
    # The root solve divides every coefficient by the leading one,
    # and a complex quotient overflows once |Re| + |Im| of an operand does.
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _cleared_coefficients(profile, symbol.m, xi_values)
        reach = (np.abs(coeffs.real) + np.abs(coeffs.imag)).sum(axis=1)
    big = np.flatnonzero(~np.isfinite(reach))
    if big.size:
        raise ConfigError(
            f"frequency {xi_values[big[0]]} is too large: the coefficients "
            f"of its cleared polynomial sum past the float range")
    lam, degenerate, solves = _companion_roots(coeffs)
    work["companion_solves"] += solves
    for i in np.flatnonzero(degenerate):
        _log_skip(skips, "IdentitySkip", profile.side, xi_values[i], None,
                  "cleared polynomial is numerically zero")
    rows, cols = np.nonzero(_near_window(lam, cfg.window, track_pad))
    keep = np.zeros(lam.shape, dtype=bool)
    if rows.size:
        args = (profile, coeffs[rows], xi_values[rows], lam[rows, cols])
        kept, polished = (_settle_closed_form(*args, skips, work)
                          if profile.limits is not None
                          else _polish_batch(symbol, *args, cfg, skips, work))
        lam[rows, cols] = polished
        keep[rows, cols] = kept & _near_window(polished, cfg.window,
                                               track_pad)
    lam = np.where(keep, lam, np.nan)
    far = _distances(lam, lam) > DEDUPE_TOL
    for j in range(1, lam.shape[1]):
        keep[:, j] &= (far[:, j, :j] | ~keep[:, :j]).all(axis=1)
    return _compact(xi_values, lam, keep)


def _segment_needs_split(left: RootTable, right: RootTable,
                         cfg: SolverConfig) -> np.ndarray:
    """Per segment, True when its two end frequencies leave a reportable gap.

    Row s of ``left`` and ``right`` holds the roots at the ends of segment s.
    The segment splits when a root in the emit band, at either end, has no
    root within ``curve_res`` at the other end; an empty end has none. Roots
    outside the emit band never split a segment, whether or not they come
    and go.
    """
    close = _distances(left.lam, right.lam) <= cfg.curve_res
    split = np.zeros(left.xi.size, dtype=bool)
    for roots, partnered in ((left.lam, _any_last(close)),
                             (right.lam, _any_last(close.swapaxes(1, 2)))):
        emitted = _near_window(roots, cfg.window, _keep_pad(cfg))
        split |= _any_last(emitted & ~partnered)
    return split


def _any_last(mask: np.ndarray) -> np.ndarray:
    """``mask.any(axis=-1)``, OR-ed slot by slot: over an axis as short as
    the roots of a row that costs a fraction of the reduction."""
    out = np.zeros(mask.shape[:-1], dtype=bool)
    for k in range(mask.shape[-1]):
        out |= mask[..., k]
    return out


def _split_gap(left: np.ndarray, right: np.ndarray,
               cfg: SolverConfig) -> np.ndarray:
    """Per segment, the largest distance from a root in the emit band, at
    either end, to its nearest root at the other end; inf where that end
    has none. Row s of ``left`` and ``right`` holds the roots at its ends."""
    dist = _distances(left, right)
    dist[np.isnan(dist)] = np.inf
    gap = np.zeros(left.shape[0])
    for roots, nearest in ((left, dist.min(axis=2, initial=np.inf)),
                           (right, dist.min(axis=1, initial=np.inf))):
        emitted = _near_window(roots, cfg.window, _keep_pad(cfg))
        gap = np.maximum(gap, np.where(emitted, nearest, 0.0).max(
            axis=1, initial=0.0))
    return gap


def _refinement_targets(table: RootTable, cfg: SolverConfig
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Bisection midpoints of the segments that split, down to the depth
    their gap predicts: the midpoints, ascending, and the level of each.

    Every segment between neighbouring frequencies of ``table`` is checked
    by :func:`_segment_needs_split` in one array pass. One with gap g
    (:func:`_split_gap`) needs about log2(g / curve_res) halvings before
    its end roots are ``curve_res`` apart, so its whole bisection subtree
    down to level L = min(``SPLIT_LEVELS``, max(1, ceil(log2(g /
    curve_res)))) is returned at once; level 1 is its own midpoint. Where
    g is inf, a branch end, L is 1, so that only the half that still
    splits goes deeper in the next round. Each level halves as bisection
    does: geometric between nonzero ends of one sign, arithmetic
    otherwise, and a segment no wider than ``1e-7 (1 + |left end|)``, or
    whose midpoint is not strictly inside, yields no midpoint and no
    subtree. With no segment to split, the call
    ends after the split check; the levels end once no segment goes
    deeper.
    """
    lo, hi = table.xi[:-1], table.xi[1:]
    split = np.flatnonzero(_segment_needs_split(
        RootTable(lo, table.lam[:-1], table.count[:-1]),
        RootTable(hi, table.lam[1:], table.count[1:]), cfg))
    if not split.size:
        return np.empty(0), np.empty(0, dtype=int)
    gap = _split_gap(table.lam[split], table.lam[split + 1], cfg)
    depth = np.where(np.isinf(gap), 1, np.minimum(SPLIT_LEVELS, np.maximum(
        1, np.ceil(np.log2(gap / cfg.curve_res)))))
    lo, hi = lo[split], hi[split]
    mids, levels = [], []
    for level in range(1, SPLIT_LEVELS + 1):
        mid = np.where((lo != 0.0) & (hi != 0.0) & ((lo > 0) == (hi > 0)),
                       np.copysign(np.sqrt(np.abs(lo) * np.abs(hi)), lo),
                       0.5 * (lo + hi))
        inside = ((hi - lo > 1e-7 * (1.0 + np.abs(lo)))
                  & (mid > lo) & (mid < hi))
        mids.append(mid[inside])
        levels.append(np.full(mids[-1].size, level))
        deeper = inside & (depth > level)
        lo, mid, hi = lo[deeper], mid[deeper], hi[deeper]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        depth = np.tile(depth[deeper], 2)
        if not lo.size:
            break
    mids, levels = np.concatenate(mids), np.concatenate(levels)
    order = np.argsort(mids)
    return mids[order], levels[order]


WORK_COUNTERS = ("segments_checked", "companion_solves", "limit_batches",
                 "lambdas_evaluated", "newton_iterations")
"""Work counted per side in ``report["singular"]["sweeps"]``;
``segments_checked`` counts every segment of the table once per round."""


def _sweep_side(symbol: SchurSymbol, profile: RationalProfile,
                xi_grid: np.ndarray, cfg: SolverConfig,
                skips: list) -> tuple[RootTable, dict]:
    """Roots of one side over ``xi_grid``, refined as in step 4 for at most
    48 rounds and ``MAX_POINTS`` roots. A round solves an ascending prefix
    of its midpoints when that budget binds; the segments it leaves are
    found again by the next round's rescan of every segment. ``predicted``
    counts the frequencies solved below a segment's own midpoint."""
    work = dict.fromkeys(WORK_COUNTERS, 0)
    table = _solve_at(symbol, profile, xi_grid, cfg, skips, work)
    rounds = predicted = 0
    total = int(table.count.sum())
    while total < MAX_POINTS and rounds < 48:
        work["segments_checked"] += max(0, table.xi.size - 1)
        targets, levels = _refinement_targets(table, cfg)
        targets = targets[:MAX_POINTS - total]
        if not targets.size:
            break
        predicted += int(np.count_nonzero(levels[:targets.size] > 1))
        update = _solve_at(symbol, profile, targets, cfg, skips, work)
        table = _concat([table, update])
        total += int(update.count.sum())
        rounds += 1
    return table, {"frequencies": int(table.xi.size), "points": total,
                   "refinement_rounds": rounds, "predicted": predicted,
                   **work}


# ---------------------------------------------------------------------------
# Branch continuation and side merging
# ---------------------------------------------------------------------------

def _in_gate(dist, head_size, root_size, floor: float):
    """The continuation gate ``max(floor, 0.05 (1 + (|head| + |root|) / 2))``,
    on Python floats or arrays alike."""
    return (dist <= floor) | (dist <= 0.05 * (1.0 + 0.5 * (head_size
                                                           + root_size)))


def _forced_rows(lam: np.ndarray, size: np.ndarray, count: np.ndarray,
                 floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows whose continuation from the row before is a forced permutation.

    Row i (of ``count[i]`` roots, ``size`` their moduli) is forced when the
    row before holds as many roots and, among the pairs within the gate,
    each root a of row i and the root ``perm[i, a]`` before it are each
    other's nearest, the first of equally near ones. Returns ``forced``,
    ``perm`` and the pair distances ``near``. Once row i-1 is assigned,
    its roots are the heads of their branches, and the greedy loop pairs
    row i by ``perm`` unless a head that row i-1 did not move is as near:
    a tie it would break otherwise fails the mutual test.
    """
    forced = np.zeros(count.size, dtype=bool)
    perm = np.zeros(lam.shape, dtype=np.intp)
    near = np.zeros(lam.shape)
    rows = np.flatnonzero(count[1:] == count[:-1]) + 1
    for c in np.flatnonzero(np.bincount(count[rows])).tolist():
        at = rows[count[rows] == c]
        dist = _distances(lam[at, :c], lam[at - 1, :c])  # (row, root, head)
        dist = np.where(_in_gate(dist, size[at - 1, None, :c],
                                 size[at, :c, None], floor), dist, np.inf)
        head = dist.argmin(axis=2)
        best = np.take_along_axis(dist, head[:, :, None], 2)[:, :, 0]
        mutual = np.take_along_axis(dist.argmin(axis=1), head, 1) \
            == np.arange(c)
        forced[at] = (np.isfinite(best) & mutual).all(axis=1)
        perm[at, :c] = head
        near[at, :c] = best
    return forced, perm, near


CLASH_BLOCK = 1 << 18
"""Most root-to-head distances one array pass of a run computes."""


def _assign_branches(table: RootTable, first_id: int, cfg: SolverConfig
                     ) -> tuple[np.ndarray, int, dict]:
    """Nearest-neighbor continuation over ascending xi.

    Branch ``first_id + h`` ends in head h. At each frequency, (root, head)
    pairs within ``max(50 curve_res, 0.05 (1 + (|head| + |root|) / 2))`` are
    taken by ascending (distance, root, head), skipping used roots and
    heads; a root left over starts a branch. Where that choice is forced
    (see :func:`_forced_rows`) and no head of a stopped branch lies within
    the gate and as near as a root's pair, a run of rows is assigned at
    once by composing the per-row permutations; the rows between runs,
    the joints, take the loop on Python lists. Returns the branch id of
    each root of ``table`` in row order, the next id and the counts of
    branches, rows taken by the array path and joints.
    """
    floor = 50.0 * cfg.curve_res
    rows = np.flatnonzero(table.count)
    lam, count = table.lam[rows], table.count[rows]
    size = np.hypot(lam.real, lam.imag)
    forced, perm, near = _forced_rows(lam, size, count, floor)
    joints = np.append(np.flatnonzero(~forced), rows.size)
    slots = np.zeros(lam.shape, dtype=int)
    heads: list[tuple[complex, float]] = []
    slot: list[int] = []  # the head of each root of the row before
    i = array_rows = 0
    while i < rows.size:
        c = int(count[i])
        stop = i
        if forced[i]:
            stop = int(joints[np.searchsorted(joints, i)])
            stopped = sorted(set(range(len(heads))) - set(slot))
            if stopped:
                stop = min(stop, i + max(1, CLASH_BLOCK // (c * len(stopped))))
                head_lam, head_size = (np.array(column) for column in zip(
                    *(heads[h] for h in stopped)))
                dist = _distances(lam[i:stop, :c], head_lam)
                clash = (_in_gate(dist, head_size, size[i:stop, :c, None],
                                  floor)
                         & (dist <= near[i:stop, :c, None])).any(axis=(1, 2))
                if clash.any():
                    stop = i + int(clash.argmax())
        if stop > i:
            # chain[k] maps a root of row i + k to its root of row i - 1.
            chain = perm[i:stop, :c].copy()
            step = 1
            while step < chain.shape[0]:
                chain[step:] = np.take_along_axis(chain[:-step],
                                                  chain[step:], 1)
                step *= 2
            slots[i:stop, :c] = np.asarray(slot)[chain]
            slot = slots[stop - 1, :c].tolist()
            for h, root, root_size in zip(slot, lam[stop - 1, :c].tolist(),
                                          size[stop - 1, :c].tolist()):
                heads[h] = (root, root_size)
            array_rows += stop - i
            i = stop
            continue
        roots, sizes = lam[i, :c].tolist(), size[i, :c].tolist()
        pairs = []
        for r in range(c):
            for h, (head, head_size) in enumerate(heads):
                dist = abs(roots[r] - head)
                if _in_gate(dist, head_size, sizes[r], floor):
                    pairs.append((dist, r, h))
        pairs.sort()
        slot = [-1] * c
        used_heads: set[int] = set()
        for _dist, r, h in pairs:
            if slot[r] < 0 and h not in used_heads:
                slot[r] = h
                used_heads.add(h)
                heads[h] = (roots[r], sizes[r])
        for r in range(c):
            if slot[r] < 0:
                slot[r] = len(heads)
                heads.append((roots[r], sizes[r]))
        slots[i, :c] = slot
        i += 1
    ids = first_id + slots[np.arange(lam.shape[1]) < count[:, None]]
    return ids, first_id + len(heads), {
        "branches": len(heads), "array_rows": array_rows,
        "joints": int(rows.size) - array_rows}


def _merge_sides(plus: RootTable, minus: RootTable) -> dict[str, RootTable]:
    """Pair up coincident roots of the two sides into neutral points.

    At each frequency the ``plus`` roots in turn take the nearest untaken
    ``minus`` root within ``DEDUPE_TOL``, the last of equally near ones.
    A neutral point keeps the ``plus`` root.
    """
    xi = np.union1d(plus.xi, minus.xi)
    left, right = (_concat([t, _empty_rows(np.setdiff1d(xi, t.xi))])
                   for t in (plus, minus))
    matched = np.zeros(left.lam.shape, dtype=bool)
    taken = np.zeros(right.lam.shape, dtype=bool)
    dist = _distances(left.lam, right.lam)
    rows = np.arange(xi.size)
    for i in range(left.lam.shape[1] if right.lam.shape[1] else 0):
        best = np.where((dist[:, i] <= DEDUPE_TOL) & ~taken, dist[:, i],
                        np.inf)
        last = best.shape[1] - 1 - best[:, ::-1].argmin(axis=1)
        matched[:, i] = np.isfinite(best[rows, last])
        taken[rows[matched[:, i]], last[matched[:, i]]] = True
    return {REGULAR_SIDE: _compact(xi, left.lam, matched),
            "+": _compact(xi, left.lam, left.valid & ~matched),
            "-": _compact(xi, right.lam, right.valid & ~taken)}


def _side_classes(plus: RootTable, minus: RootTable
                  ) -> dict[str, RootTable]:
    """The neutral, + and - classes, in that order, of the emitted roots.

    A - side that reused the + sweep holds the + side's very table. Then
    every root is neutral and the + and - classes are empty tables: since
    :func:`_solve_at` keeps no two roots of a row within ``DEDUPE_TOL``,
    :func:`_merge_sides` would pair each root with itself and nothing else.
    """
    if minus is plus:
        return {REGULAR_SIDE: plus, "+": _empty_rows(np.empty(0)),
                "-": _empty_rows(np.empty(0))}
    return _merge_sides(plus, minus)


def singular_part(op: OperatorMatrix, symbol: SchurSymbol | None = None,
                  xi_grid=None, cfg: SolverConfig | None = None, *,
                  report: dict | None = None,
                  ledger: TailLedger | None = None) -> SingularTable:
    """Certified roots of the tail polynomials over the frequency grid.

    Returns the points of both sides, cross-side coincidences merged into
    the neutral side, with branch ids assigned by continuation and no
    flags. Both sides' limits are read from ``ledger``, a
    :func:`~matspectra.asymptotics.tail_ledger` of the symbol's
    :func:`~matspectra.asymptotics.symbol_rows` (built when None). A -
    side that reuses the + sweep is wholly neutral: its points
    are the + side's, no merge runs, and the + and - classes are empty.
    The report's ``skip_counts`` count per side, so such a - side repeats
    the + side's skips. Raises :class:`ConfigError` on a
    frequency that is not finite or whose |xi|^m is not, before any sweep,
    or whose cleared polynomial's coefficients sum past the float range,
    before its roots are sought; and :class:`FitError`, after writing the
    report, only when no side produced any certified point and at least one
    side's fallback rational reconstruction failed outright.
    """
    cfg = cfg or SolverConfig()
    if xi_grid is None:
        xi_values = default_xi_grid(cfg)
    else:
        xi_values = np.asarray(xi_grid, dtype=float).ravel()
        bad = np.flatnonzero(~np.isfinite(xi_values))
        if bad.size:
            raise ConfigError(f"frequencies must be finite, got "
                              f"{xi_values[bad[0]]} at index {bad[0]}")
        xi_values = np.unique(xi_values)
    with np.errstate(over="ignore"):
        big = np.flatnonzero(~np.isfinite(np.abs(xi_values) ** op.m))
    if big.size:
        raise ConfigError(f"frequency {xi_values[big[0]]} is too large: "
                          f"|xi|^{op.m} overflows the float range")
    symbol = symbol if symbol is not None else build_schur(op)
    log = report if report is not None else {}
    skips: list[dict] = []
    fits: dict[str, dict] = {}
    sweeps: dict[str, dict] = {}
    errors: list[FitError] = []
    side_roots = {side: _empty_rows(np.empty(0)) for side in ("+", "-")}
    # Closed-form sweeps by profile bytes: (side, sweep report, its skips).
    swept: dict[tuple, tuple[str, dict, list]] = {}
    if ledger is None:
        direct, inverse = symbol_rows(symbol)
        ledger = tail_ledger(direct + inverse)

    for side in ("+", "-"):
        try:
            profile, cancelled = _closed_form_side(
                symbol, side, symbol_limits(symbol, side, ledger=ledger))
            fits[side] = {"route": "closed_form",
                          "limits": profile.limits.to_json_list(),
                          "cancelled_power": cancelled}
        except LimitRefused as refusal:
            fits[side] = {"route": "fit", "refused": {
                "label": refusal.label, "reason": str(refusal)}}
            try:
                profile = _fit_side(symbol, side, op.n)
            except FitError as exc:
                errors.append(exc)
                fits[side]["error"] = str(exc)
                continue
            fits[side].update(
                residual=profile.residual,
                samples=profile.samples_used,
                sample_rounds=profile.sample_rounds)
        fits[side].update(
            numerator_degree=int(profile.numerators.shape[1] - 1),
            denominator_degree=int(profile.denominator.size - 1))
        # Bytes, not values, say two profiles are the same: -0.0 == 0.0,
        # yet a zero's sign can reach a root's. A fitted side is never
        # reused, since its polish samples limits toward its own end.
        key = None if profile.limits is None else (
            profile.numerators.shape, profile.numerators.tobytes(),
            profile.denominator.tobytes())
        if key in swept:
            source, info, side_skips = swept[key]
            sweeps[side] = {**info, "reused": source}
            skips += [{**entry, "side": side} for entry in side_skips]
            side_roots[side] = side_roots[source]
            continue
        start = len(skips)
        tracked, info = _sweep_side(symbol, profile, xi_values, cfg, skips)
        emitted = _near_window(tracked.lam, cfg.window, _keep_pad(cfg))
        info["outside_window"] = int(tracked.count.sum() - emitted.sum())
        sweeps[side] = info
        side_roots[side] = _compact(tracked.xi, tracked.lam, emitted)
        if key is not None:
            swept[key] = (side, info, skips[start:])

    failed = errors and not any(t.count.any() for t in side_roots.values())
    classes = _side_classes(side_roots["+"], side_roots["-"])
    parts = []
    continuation: dict[str, dict] = {}
    next_id = 0
    for side_class, table in classes.items():
        ids, next_id, continuation[side_class] = _assign_branches(
            table, next_id, cfg)
        parts.append((np.full(ids.size, SIDES.index(side_class), np.int8),
                      np.repeat(table.xi, table.count),
                      table.lam[table.valid], ids))
    side, xi, lam, branch_id = (np.concatenate(column)
                                for column in zip(*parts))
    points = SingularTable(side, xi, lam, branch_id,
                           np.zeros(lam.size, dtype=np.uint8))
    skip_counts = dict.fromkeys(SKIP_KINDS, 0)
    sample: list[dict] = []
    for entry in skips:
        skip_counts[entry["type"]] += 1
        if skip_counts[entry["type"]] <= SKIP_SAMPLE:
            sample.append(entry)
    log["singular"] = {
        "fits": fits,
        "sweeps": sweeps,
        "continuation": continuation,
        "points": len(points),
        "skips": sample,
        "skip_counts": skip_counts,
        "skip_count": len(skips),
        "errors": [str(e) for e in errors],
    }
    if failed:
        raise errors[0]
    return points


# ---------------------------------------------------------------------------
# Union, flags, CSV
# ---------------------------------------------------------------------------

PAIR_BLOCK = 1 << 20
"""Most (point, curve sample) pairs one array pass of the flags compares."""


def _flag_singular(points: SingularTable, regular: RegularTable,
                   exceptional: ExceptionalSet) -> SingularTable:
    """The points with their overlap flags set.

    A point is in the exceptional set within ``EXC_TOL`` of it, and in the
    regular closure when some curve sample lies within ``DEDUPE_TOL``; only
    the samples whose real parts are that close are compared, a block of
    (point, sample) pairs per array pass.
    """
    lam = points.lam
    exc = np.asarray(exceptional.points, dtype=complex)
    in_exc = (_distances(lam, exc) <= EXC_TOL).any(axis=1)
    values = regular.lam[np.argsort(regular.lam.real, kind="stable")]
    lo = np.searchsorted(values.real, lam.real - DEDUPE_TOL, "left")
    hi = np.searchsorted(values.real, lam.real + DEDUPE_TOL, "right")
    in_regular = np.zeros(lam.size, dtype=bool)
    near = np.flatnonzero(lo < hi)
    total = np.cumsum(hi[near] - lo[near])
    cuts = np.searchsorted(total, np.arange(
        PAIR_BLOCK, total[-1] if total.size else 0, PAIR_BLOCK))
    for block in np.split(near, cuts):
        width = hi[block] - lo[block]
        point = np.repeat(block, width)
        sample = np.arange(point.size) + np.repeat(
            lo[block] - np.cumsum(width) + width, width)
        in_regular[point[np.abs(values[sample] - lam[point])
                         <= DEDUPE_TOL]] = True
    return dataclasses.replace(points, flags=(
        in_exc.astype(np.uint8) | in_regular.astype(np.uint8) << 1))


def essential_spectrum(op: OperatorMatrix, cfg: SolverConfig | None = None,
                       symbol: SchurSymbol | None = None) -> SpectrumSet:
    """Regular curve plus singular branches, with per-point overlap flags.

    ``symbol`` is the operator's Schur symbol when the caller has already
    built it. The parts read every limit from one ledger (module
    docstring). Sub-step failures are collected into the report and
    partial results are returned.
    """
    cfg = cfg or SolverConfig()
    report: dict = {
        "config": dataclasses.asdict(cfg),
        "tolerances": {
            "curve_res": cfg.curve_res,
            "root_tol": ROOT_TOL,
            "fit_tol": FIT_TOL,
            "dedupe_tol": DEDUPE_TOL,
            "exc_tol": EXC_TOL,
            "limit_tol": LIMIT_TOL,
        },
        "errors": [],
    }
    diag = validate(op, validation_grid(cfg))
    report["leading_coefficient"] = diag.to_json_dict()
    symbol = symbol if symbol is not None else build_schur(op)
    direct, inverse = symbol_rows(symbol)
    ledger = tail_ledger([("delta", delta(op)), *direct, *inverse])
    regular = regular_part(op, cfg, report=report, ledger=ledger)
    exceptional = limit_points_at_infinity(op.d, ledger=ledger)
    report["exceptional"] = exceptional.to_json_dict()
    try:
        singular = singular_part(op, symbol, cfg=cfg, report=report,
                                 ledger=ledger)
    except FitError as exc:
        report["errors"].append(str(exc))
        singular = SingularTable.from_rows(())
    singular = _flag_singular(singular, regular, exceptional)
    return SpectrumSet(
        regular=regular,
        singular=singular,
        exceptional=exceptional,
        report=report,
    )


_FLAG_TEXT = [";".join(sorted(names)) for names in _FLAG_NAMES]


def spectrum_rows(spectrum: SpectrumSet) -> list[str]:
    """Deterministic CSV data rows (no header).

    Regular rows come by ascending ``x_param``, singular rows by (side
    code, branch id, xi, Re lambda, Im lambda); both sorts are stable.
    """
    regular, singular = spectrum.regular, spectrum.singular
    order = np.argsort(regular.x_param, kind="stable")
    lam = regular.lam[order]
    rows = [f"regular,{REGULAR_SIDE},{x!r},{re!r},{im!r},0,"
            for x, re, im in zip(regular.x_param[order].tolist(),
                                 lam.real.tolist(), lam.imag.tolist())]
    order = np.lexsort((singular.lam.imag, singular.lam.real, singular.xi,
                        singular.branch_id, singular.side))
    lam = singular.lam[order]
    prefix = [f"singular,{side}," for side in SIDES]
    rows += [f"{prefix[side]}{xi!r},{re!r},{im!r},{bid},{_FLAG_TEXT[flags]}"
             for side, xi, re, im, bid, flags in zip(
                 singular.side[order].tolist(), singular.xi[order].tolist(),
                 lam.real.tolist(), lam.imag.tolist(),
                 singular.branch_id[order].tolist(),
                 singular.flags[order].tolist())]
    return rows


def write_csv(spectrum: SpectrumSet, path) -> None:
    text = "\n".join([CSV_HEADER, *spectrum_rows(spectrum)]) + "\n"
    Path(path).write_text(text, encoding="utf-8")
