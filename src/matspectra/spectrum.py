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

1. reconstruct every ``r_j`` jointly as a rational function of lambda with
   a shared denominator, from certified limit samples on two circles
   (ascending degree ladder, numerator degree <= n+2, denominator <= n+1);
2. clear denominators at fixed xi and take companion-matrix eigenvalues as
   root candidates, with one stacked ``eigvals`` call per batch of
   frequencies whose cleared polynomials share a trimmed degree;
3. polish every candidate by complex Newton iteration: each iteration
   estimates fresh limits once, accepts ``|F_xi(lambda)| <= root_tol`` and
   steps the rest with the analytic lambda-slope of the ratios, taken at
   the trajectory's far end; a candidate whose residual stops shrinking
   is dropped;
4. re-certify accepted roots on an independent sampling trajectory, then
   refine xi adaptively wherever neighbouring roots inside the window are
   farther apart than ``curve_res``. The segments of the initial grid are
   checked once, all in one array pass; after each round only the two
   halves of each split segment are, since solving new frequencies leaves
   every other segment's roots unchanged.

Each side keeps its roots in a :class:`RootTable` (ascending xi, a
NaN-padded root array, a count per row), so the window tests, dedupe,
segment checks, side merging and flags run as array operations. Every
distance compared with a tolerance is ``np.hypot`` of the difference,
which equals Python's ``abs(complex)`` bit for bit. Branch ids follow
nearest-neighbor continuation in xi; coincident roots from the two sides
merge into points labeled with the neutral side.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .asymptotics import (
    ExceptionalSet,
    limit_of,
    limit_points_at_infinity,
    limit_ratio_batch,
    limit_ratio_slope,
)
from .config import SolverConfig
from .errors import FitError, NotConvergent, PoleError
from .expr import evaluate_array
from .model import (
    OperatorMatrix,
    check_structure,
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

NEWTON_STALL = 3
"""Newton iterations a candidate may go without halving its best residual."""


# ---------------------------------------------------------------------------
# Point containers
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class SpectrumSet:
    """Union of the regular and singular parts plus the run report."""

    regular: tuple[RegularPoint, ...]
    singular: tuple[SingularPoint, ...]
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
                 report: dict | None = None) -> list[RegularPoint]:
    """Sample the decoupling curve adaptively and append endpoint limits.

    Consecutive samples whose images lie near the output window are refined
    until image gaps drop below ``curve_res`` (subject to ``max_points``).
    Coincident consecutive images are collapsed, so a constant curve yields
    a single finite point. Endpoint limits toward +/-infinity are appended
    with ``x_param = +/-inf`` when their geometric-trajectory certificates
    converge; divergent ends are simply absent.
    """
    cfg = cfg or SolverConfig()
    log = report if report is not None else {}
    dexpr = delta(op)
    xs = np.unique(np.concatenate(
        [np.linspace(-cfg.x_span, cfg.x_span, cfg.grid_points), [0.0]]))
    vals = evaluate_array(dexpr, x=xs)
    finite = np.isfinite(vals)
    dropped = int((~finite).sum())
    xs, vals = xs[finite], vals[finite]
    pad = _window_pad(cfg.window)
    rounds = 0
    while xs.size < cfg.max_points and rounds < 48:
        gaps = np.abs(np.diff(vals))
        near = _near_window(vals, cfg.window, pad)
        wide_enough = np.diff(xs) > 1e-9 * (1.0 + np.abs(xs[:-1]))
        need = (gaps > cfg.curve_res) & (near[:-1] | near[1:]) & wide_enough
        if not need.any():
            break
        mids = 0.5 * (xs[:-1][need] + xs[1:][need])
        mids = mids[: cfg.max_points - xs.size]
        mvals = evaluate_array(dexpr, x=mids)
        ok = np.isfinite(mvals)
        dropped += int((~ok).sum())
        xs = np.concatenate([xs, mids[ok]])
        vals = np.concatenate([vals, mvals[ok]])
        order = np.argsort(xs)
        xs, vals = xs[order], vals[order]
        rounds += 1

    keep = np.ones(xs.size, dtype=bool)
    if xs.size > 1:
        keep[1:] = np.abs(np.diff(vals)) > 1e-12
    points = [RegularPoint(float(x), complex(v))
              for x, v in zip(xs[keep], vals[keep])]

    endpoints: dict[str, dict] = {}
    for side, tag in (("-", -math.inf), ("+", math.inf)):
        try:
            value, cert = limit_of(dexpr, side, cfg)
        except (NotConvergent, PoleError) as exc:
            endpoints[side] = {"converged": False, "reason": type(exc).__name__}
            continue
        points.append(RegularPoint(tag, value))
        endpoints[side] = {
            "converged": True,
            "value": [value.real, value.imag],
            "samples": cert.sample_count,
        }
    log["regular"] = {
        "points": len(points),
        "dropped_nonfinite": dropped,
        "refinement_rounds": rounds,
        "endpoints": endpoints,
    }
    return points


# ---------------------------------------------------------------------------
# Singular part, step 1: joint rational reconstruction of the frozen limits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalProfile:
    """Frozen-limit ratios toward one side, as rationals in lambda.

    ``numerators[j]`` holds ascending coefficients of N_j, ``denominator``
    those of the shared Q; ``r_j(lambda) ~ N_j(lambda) / Q(lambda)``.
    ``residual`` is the worst relative mismatch over the fit samples.
    """

    side: str
    numerators: np.ndarray
    denominator: np.ndarray
    residual: float
    trusted: bool
    samples_used: int
    sample_rounds: int


def _sample_limits(symbol: SchurSymbol, side: str, count: int,
                   cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray, int]:
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
        radii = np.asarray([cfg.fit_radii[k % 2] for k in ks], dtype=float)
        angles = offset + GOLDEN_ANGLE * ks
        cand = cfg.fit_center + radii * np.exp(1j * angles)
        values, status = limit_ratio_batch(symbol, cand, side, cfg)
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


def _fit_side(symbol: SchurSymbol, side: str, order_n: int,
              cfg: SolverConfig) -> RationalProfile:
    """Reconstruct the frozen-limit ratios toward one side.

    Degrees climb a ladder (numerator d+1, denominator d) for d = 1..n+1;
    the first rung whose relative residual meets ``fit_tol`` wins. If no
    rung qualifies, the largest is returned untrusted — its roots survive
    only if Newton certification succeeds independently.
    """
    count = 4 * (order_n + 3)
    lam_arr, r_arr, rounds = _sample_limits(symbol, side, count, cfg)
    cols_max = symbol.m * (order_n + 3) + (order_n + 2)
    min_samples = max(6, -(-cols_max // symbol.m))
    if lam_arr.size < min_samples:
        raise FitError(
            f"only {lam_arr.size} of {count} limit samples toward "
            f"{side}infinity converged after {rounds} sampling rounds; "
            f"need at least {min_samples} for the rational reconstruction")
    best: tuple[np.ndarray, np.ndarray, float] | None = None
    for den_deg in range(1, order_n + 2):
        num_len, den_len = den_deg + 2, den_deg + 1
        fit = _fit_rational(lam_arr, r_arr, num_len, den_len)
        if best is None or fit[2] < best[2]:
            best = fit
        if fit[2] <= cfg.fit_tol:
            best = fit
            break
    numerators, denominator, residual = best
    return RationalProfile(
        side=side,
        numerators=numerators,
        denominator=denominator,
        residual=residual,
        trusted=residual <= cfg.fit_tol,
        samples_used=int(lam_arr.size),
        sample_rounds=rounds,
    )


# ---------------------------------------------------------------------------
# Singular part, steps 2-4: companion seeds, Newton polish, recheck
# ---------------------------------------------------------------------------

def default_xi_grid(cfg: SolverConfig) -> np.ndarray:
    """Zero plus a symmetric log-spaced frequency grid."""
    tail = np.logspace(math.log10(cfg.xi_min), math.log10(cfg.xi_max),
                       cfg.xi_points)
    return np.unique(np.concatenate([-tail, [0.0], tail]))


def _cleared_coefficients(profile: RationalProfile, m: int,
                          xi: np.ndarray) -> np.ndarray:
    """Ascending lambda-coefficients of Q*xi^m + sum_j N_j*xi^j, per xi."""
    num_len = profile.numerators.shape[1]
    xi = np.asarray(xi, dtype=float)
    xi_pows = xi[:, None] ** np.arange(m + 1)[None, :]
    coeffs = xi_pows[:, :m].astype(complex) @ profile.numerators
    den_pad = np.zeros(num_len, dtype=complex)
    den_pad[: profile.denominator.size] = profile.denominator
    coeffs += xi_pows[:, m:m + 1] * den_pad[None, :]
    return coeffs


def _companion_roots(coeffs: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, int]:
    """Roots of the cleared polynomials, one row of ascending coefficients each.

    A row is trimmed at 1e-12 of its largest magnitude. Rows with the same
    degree and number of vanishing low-order coefficients share one stacked
    ``eigvals`` call on companion matrices built exactly as ``np.roots``
    builds them, so each root carries the bits ``np.roots`` gives for the
    trimmed row (as complex128). Returns the (F, R) roots, NaN-padded, the
    (F,) mask of degenerate rows (all zero or not finite; no roots) and the
    number of ``eigvals`` calls.
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
    shapes, group = np.unique((high - low)[valid] * width + low[valid],
                              return_inverse=True)
    solves = 0
    for g, shape in enumerate(shapes.tolist()):
        degree, zeros = divmod(shape, width)  # high - low, low
        rows = valid[group == g]
        roots[rows, degree:degree + zeros] = 0.0
        if degree:
            desc = trimmed[rows, zeros:zeros + degree + 1][:, ::-1]
            companion = np.zeros((rows.size, degree, degree), dtype=complex)
            companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
            companion[:, 0, :] = -desc[:, 1:] / desc[:, :1]
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


def _polish_batch(symbol: SchurSymbol, side: str, xi: np.ndarray,
                  lam: np.ndarray, cfg: SolverConfig, skips: list,
                  work: dict) -> tuple[np.ndarray, np.ndarray]:
    """Newton-polish candidate roots in one vectorized sweep.

    A candidate is kept only when ``|F_xi(lambda)| <= root_tol`` against
    freshly estimated limits AND the same bound holds on an independent
    trajectory (different starting abscissa). Each iteration makes one
    limit batch; the Newton slope sum_j xi^j dr_j/dlambda comes from
    :func:`limit_ratio_slope`, so it only steers the iteration and never
    enters the acceptance test. A candidate that goes ``NEWTON_STALL``
    iterations without halving its best residual is dropped early (next to
    a pole of the tail ratios the limit noise stays above ``root_tol``).
    Adds its limit batches, the lambdas they evaluate and the Newton steps
    taken (summed over candidates) to ``work``. Returns (kept, lam).
    """
    m = symbol.m
    lam = np.array(lam, dtype=complex)
    xi = np.asarray(xi, dtype=float)
    pows = xi[:, None] ** np.arange(m + 1)[None, :]
    state = np.zeros(lam.size, dtype=int)  # 0 active, 1 accepted, -1 dropped
    best = np.full(lam.size, np.inf)
    stall = np.zeros(lam.size, dtype=int)

    for iteration in range(cfg.newton_max_iter + 1):
        active = np.nonzero(state == 0)[0]
        if active.size == 0:
            break
        values, status = limit_ratio_batch(symbol, lam[active], side, cfg)
        work["limit_batches"] += 1
        work["lambdas_evaluated"] += int(active.size)
        ok = status == "ok"
        for i in active[~ok]:
            _log_skip(skips, "LimitSkip", side, xi[i], lam[i],
                      "limit estimation failed during polish")
        state[active[~ok]] = -1
        live = active[ok]
        if live.size == 0:
            continue
        residuals = _tail_values(pows[live], values[ok], m)
        hit = np.abs(residuals) <= cfg.root_tol
        state[live[hit]] = 1
        rest = live[~hit]
        if rest.size == 0:
            continue
        if iteration == cfg.newton_max_iter:
            for i in rest:
                _log_skip(skips, "PolishSkip", side, xi[i], lam[i],
                          "Newton did not reach the root tolerance")
            state[rest] = -1
            break
        rest_f = residuals[~hit]
        gain = np.abs(rest_f) < 0.5 * best[rest]
        best[rest[gain]] = np.abs(rest_f[gain])
        stall[rest] = np.where(gain, 0, stall[rest] + 1)
        stuck = stall[rest] >= NEWTON_STALL
        for i in rest[stuck]:
            _log_skip(skips, "PolishSkip", side, xi[i], lam[i],
                      "Newton stalled above the root tolerance")
        state[rest[stuck]] = -1
        rest, rest_f = rest[~stuck], rest_f[~stuck]
        if rest.size == 0:
            continue
        slopes = limit_ratio_slope(symbol, lam[rest], side, cfg)
        derivative = np.einsum("ij,ij->i", pows[rest, :m], slopes)
        with np.errstate(all="ignore"):
            step = rest_f / derivative
        finite = np.isfinite(step)
        for i in rest[~finite]:
            _log_skip(skips, "PolishSkip", side, xi[i], lam[i],
                      "Newton derivative vanished or overflowed")
        state[rest[~finite]] = -1
        target = rest[finite]
        step = step[finite]
        trust = 0.5 * (1.0 + np.abs(lam[target]))
        size = np.abs(step)
        scale = np.where(size > trust, trust / np.where(size == 0, 1, size), 1)
        lam[target] = lam[target] - step * scale
        work["newton_iterations"] += int(target.size)

    accepted = state == 1
    if accepted.any():
        alt = cfg.with_overrides(x0=cfg.x0 * 1.37)
        idx = np.nonzero(accepted)[0]
        values, status = limit_ratio_batch(symbol, lam[idx], side, alt)
        work["limit_batches"] += 1
        work["lambdas_evaluated"] += int(idx.size)
        ok = status == "ok"
        recheck = np.zeros(idx.size, dtype=bool)
        recheck[ok] = (np.abs(_tail_values(pows[idx[ok]], values[ok], m))
                       <= cfg.root_tol)
        for i in idx[~recheck]:
            _log_skip(skips, "RecheckSkip", side, xi[i], lam[i],
                      "independent-trajectory recheck failed")
        accepted[idx[~recheck]] = False
    return accepted, lam


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
    width = max(t.lam.shape[1] for t in tables)
    xi = np.concatenate([t.xi for t in tables])
    order = np.argsort(xi)
    lam = np.concatenate([np.pad(t.lam, ((0, 0), (0, width - t.lam.shape[1])),
                                 constant_values=np.nan) for t in tables])
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
    ``dedupe_tol`` the earlier seed's stays. Adds its work to ``work``.
    """
    track_pad = _track_pad(cfg)
    xi_values = np.asarray(xi_values, dtype=float)
    coeffs = _cleared_coefficients(profile, symbol.m, xi_values)
    lam, degenerate, solves = _companion_roots(coeffs)
    work["companion_solves"] += solves
    for i in np.flatnonzero(degenerate):
        _log_skip(skips, "IdentitySkip", profile.side, xi_values[i], None,
                  "cleared polynomial is numerically zero")
    rows, cols = np.nonzero(_near_window(lam, cfg.window, track_pad))
    keep = np.zeros(lam.shape, dtype=bool)
    if rows.size:
        kept, polished = _polish_batch(
            symbol, profile.side, xi_values[rows], lam[rows, cols], cfg,
            skips, work)
        lam[rows, cols] = polished
        keep[rows, cols] = kept & _near_window(polished, cfg.window,
                                               track_pad)
    lam = np.where(keep, lam, np.nan)
    far = _distances(lam, lam) > cfg.dedupe_tol
    for j in range(1, lam.shape[1]):
        keep[:, j] &= (far[:, j, :j] | ~keep[:, :j]).all(axis=1)
    return _compact(xi_values, lam, keep)


def _segment_needs_split(left: RootTable, right: RootTable,
                         cfg: SolverConfig) -> np.ndarray:
    """Per segment, True when its two end frequencies leave a reportable gap.

    Row s of ``left`` and ``right`` holds the roots at the ends of segment s.
    Only gaps that touch the reported set matter: a root and the nearest
    root at the other end (the first of equally near ones) are relevant when
    either lies within the emit band, and a branch birth/death is relevant
    when any end root does.
    """
    emit_a = _near_window(left.lam, cfg.window, _keep_pad(cfg))
    emit_b = _near_window(right.lam, cfg.window, _keep_pad(cfg))
    any_emitted = emit_a.any(axis=1) | emit_b.any(axis=1)
    split = (left.count != right.count) & any_emitted
    if left.lam.shape[1] and right.lam.shape[1]:
        dist = np.where(left.valid[:, :, None] & right.valid[:, None, :],
                        _distances(left.lam, right.lam), np.inf)
        for d, own, other, valid in (
                (dist, emit_a, emit_b, left.valid),
                (dist.transpose(0, 2, 1), emit_b, emit_a, right.valid)):
            near = d.argmin(axis=2)
            far = np.take_along_axis(d, near[:, :, None], 2)[:, :, 0] \
                > cfg.curve_res
            split |= (valid & far & (own | np.take_along_axis(other, near, 1))
                      ).any(axis=1)
    return np.where((left.count == 0) | (right.count == 0), any_emitted,
                    split)


def _refinement_targets(table: RootTable, flagged: np.ndarray,
                        segments: np.ndarray, cfg: SolverConfig
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies to insert where neighbouring roots are too far apart.

    ``segments`` and ``flagged`` hold a (left end, right end) per row;
    ``flagged`` holds every segment known to need a split, by left end. The
    fresh ``segments`` are checked and added to it; a segment's roots never
    change until it is split. Returns the new ``flagged`` and (left end,
    midpoint) per target whose midpoint is not in the table yet, ascending.
    """
    wide = segments[:, 1] - segments[:, 0] > 1e-7 * (1.0 + np.abs(
        segments[:, 0]))
    if wide.any():
        at = np.searchsorted(table.xi, segments[wide])
        need = _segment_needs_split(*(
            RootTable(table.xi[at[:, k]], table.lam[at[:, k]],
                      table.count[at[:, k]]) for k in (0, 1)), cfg)
        flagged = np.concatenate([flagged, segments[wide][need]])
        flagged = flagged[np.argsort(flagged[:, 0])]
    lo, hi = flagged[:, 0], flagged[:, 1]
    # Geometric midpoint between same-sign ends, arithmetic otherwise.
    mid = np.where((lo != 0.0) & (hi != 0.0) & ((lo > 0) == (hi > 0)),
                   np.copysign(np.sqrt(np.abs(lo) * np.abs(hi)), lo),
                   0.5 * (lo + hi))
    at = np.minimum(np.searchsorted(table.xi, mid), table.xi.size - 1)
    fresh = (table.xi[at] != mid) & (mid > lo) & (mid < hi)
    return flagged, np.column_stack([lo[fresh], mid[fresh]])


WORK_COUNTERS = ("segments_checked", "companion_solves", "limit_batches",
                 "lambdas_evaluated", "newton_iterations")
"""Work counted per side in ``report["singular"]["sweeps"]``."""


def _sweep_side(symbol: SchurSymbol, profile: RationalProfile,
                xi_grid: np.ndarray, cfg: SolverConfig,
                skips: list) -> tuple[RootTable, dict]:
    work = dict.fromkeys(WORK_COUNTERS, 0)
    table = _solve_at(symbol, profile, xi_grid, cfg, skips, work)
    segments = np.column_stack([table.xi[:-1], table.xi[1:]])
    flagged = np.empty((0, 2))
    rounds = 0
    total = int(table.count.sum())
    while total < cfg.max_points and rounds < 48:
        work["segments_checked"] += len(segments)
        flagged, targets = _refinement_targets(table, flagged, segments, cfg)
        if not targets.size:
            break
        # Targets past the budget stay flagged for the next round.
        targets = targets[:max(0, cfg.max_points - total)]
        update = _solve_at(symbol, profile, targets[:, 1], cfg, skips, work)
        table = _concat([table, update])
        total += int(update.count.sum())
        split = np.isin(flagged[:, 0], targets[:, 0])
        segments = np.concatenate([targets, np.column_stack(
            [targets[:, 1], flagged[split, 1]])])
        flagged = flagged[~split]
        rounds += 1
    info = {"frequencies": int(table.xi.size), "points": total,
            "refinement_rounds": rounds, **work}
    return table, info


# ---------------------------------------------------------------------------
# Branch continuation and side merging
# ---------------------------------------------------------------------------

def _assign_branches(table: RootTable, first_id: int, cfg: SolverConfig
                     ) -> tuple[list[tuple[float, complex, int]], int]:
    """Nearest-neighbor continuation over ascending xi.

    Branch ``first_id + h`` ends in head h. At each frequency, (root, head)
    pairs within ``max(50 curve_res, 0.05 (1 + (|head| + |root|) / 2))`` are
    taken by ascending (distance, root, head), skipping used roots and
    heads; a root left over starts a branch. Returns (xi, lam, branch id)
    per root in that order, and the next id. A class holds few branches, so
    each non-empty row runs on Python lists.
    """
    floor = 50.0 * cfg.curve_res
    heads: list[tuple[complex, float]] = []
    out: list[tuple[float, complex, int]] = []
    rows = np.flatnonzero(table.count)
    mags = np.hypot(table.lam.real, table.lam.imag)[rows].tolist()
    for xi, roots, sizes, count in zip(
            table.xi[rows].tolist(), table.lam[rows].tolist(), mags,
            table.count[rows].tolist()):
        pairs = []
        for r in range(count):
            for h, (head, size) in enumerate(heads):
                dist = abs(roots[r] - head)
                if dist <= floor or \
                        dist <= 0.05 * (1.0 + 0.5 * (size + sizes[r])):
                    pairs.append((dist, r, h))
        pairs.sort()
        used_roots: set[int] = set()
        used_heads: set[int] = set()
        for _dist, r, h in pairs:
            if r not in used_roots and h not in used_heads:
                used_roots.add(r)
                used_heads.add(h)
                heads[h] = (roots[r], sizes[r])
                out.append((xi, roots[r], first_id + h))
        for r in range(count):
            if r not in used_roots:
                out.append((xi, roots[r], first_id + len(heads)))
                heads.append((roots[r], sizes[r]))
    return out, first_id + len(heads)


def _merge_sides(plus: RootTable, minus: RootTable,
                 cfg: SolverConfig) -> dict[str, RootTable]:
    """Pair up coincident roots of the two sides into neutral points.

    At each frequency the ``plus`` roots in turn take the nearest untaken
    ``minus`` root within ``dedupe_tol``, the last of equally near ones.
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
        best = np.where((dist[:, i] <= cfg.dedupe_tol) & ~taken, dist[:, i],
                        np.inf)
        last = best.shape[1] - 1 - best[:, ::-1].argmin(axis=1)
        matched[:, i] = np.isfinite(best[rows, last])
        taken[rows[matched[:, i]], last[matched[:, i]]] = True
    return {REGULAR_SIDE: _compact(xi, left.lam, matched),
            "+": _compact(xi, left.lam, left.valid & ~matched),
            "-": _compact(xi, right.lam, right.valid & ~taken)}


def singular_part(op: OperatorMatrix, symbol: SchurSymbol | None = None,
                  xi_grid=None, cfg: SolverConfig | None = None, *,
                  report: dict | None = None) -> list[SingularPoint]:
    """Certified roots of the tail polynomials over the frequency grid.

    Returns points for both sides, cross-side coincidences merged into the
    neutral side, with branch ids assigned by continuation. Raises
    :class:`FitError` only when no side produced any certified point and at
    least one side's rational reconstruction failed outright.
    """
    cfg = cfg or SolverConfig()
    symbol = symbol if symbol is not None else build_schur(op, cfg)
    if xi_grid is None:
        xi_values = default_xi_grid(cfg)
    else:
        xi_values = np.unique(np.asarray(xi_grid, dtype=float))
    log = report if report is not None else {}
    skips: list[dict] = []
    fits: dict[str, dict] = {}
    sweeps: dict[str, dict] = {}
    errors: list[FitError] = []
    side_roots = dict.fromkeys(("+", "-"), _empty_rows(np.empty(0)))

    for side in ("+", "-"):
        try:
            profile = _fit_side(symbol, side, op.n, cfg)
        except FitError as exc:
            errors.append(exc)
            fits[side] = {"error": str(exc)}
            continue
        fits[side] = {
            "residual": profile.residual,
            "trusted": profile.trusted,
            "samples": profile.samples_used,
            "sample_rounds": profile.sample_rounds,
            "numerator_degree": int(profile.numerators.shape[1] - 1),
            "denominator_degree": int(profile.denominator.size - 1),
        }
        tracked, info = _sweep_side(symbol, profile, xi_values, cfg, skips)
        emitted = _near_window(tracked.lam, cfg.window, _keep_pad(cfg))
        info["outside_window"] = int(tracked.count.sum() - emitted.sum())
        sweeps[side] = info
        if not profile.trusted and not emitted.any():
            errors.append(FitError(
                f"rational reconstruction toward {side}infinity has residual "
                f"{profile.residual:.3e} above tolerance and no root passed "
                "Newton certification"))
            continue
        side_roots[side] = _compact(tracked.xi, tracked.lam, emitted)

    if errors and not any(t.count.any() for t in side_roots.values()):
        raise errors[0]

    classes = _merge_sides(side_roots["+"], side_roots["-"], cfg)
    points: list[SingularPoint] = []
    next_id = 0
    for side_class in (REGULAR_SIDE, "+", "-"):
        assigned, next_id = _assign_branches(classes[side_class], next_id, cfg)
        points += [SingularPoint(side_class, xi, lam, bid)
                   for xi, lam, bid in assigned]
    skip_counts = dict.fromkeys(SKIP_KINDS, 0)
    sample: list[dict] = []
    for entry in skips:
        skip_counts[entry["type"]] += 1
        if skip_counts[entry["type"]] <= SKIP_SAMPLE:
            sample.append(entry)
    log["singular"] = {
        "fits": fits,
        "sweeps": sweeps,
        "points": len(points),
        "skips": sample,
        "skip_counts": skip_counts,
        "skip_count": len(skips),
        "errors": [str(e) for e in errors],
    }
    return points


# ---------------------------------------------------------------------------
# Union, flags, CSV
# ---------------------------------------------------------------------------

def _flag_singular(points: list[SingularPoint], regular: list[RegularPoint],
                   exceptional: ExceptionalSet,
                   cfg: SolverConfig) -> list[SingularPoint]:
    """Points with their overlap flags; only a point whose flags change is
    built anew."""
    lam = np.asarray([p.lam for p in points], dtype=complex)
    exc = np.asarray(exceptional.points, dtype=complex)
    in_exc = (_distances(lam, exc) <= cfg.exc_tol).any(axis=1)
    values = np.asarray([p.lam for p in regular], dtype=complex)
    values = values[np.argsort(values.real, kind="stable")]
    lo = np.searchsorted(values.real, lam.real - cfg.dedupe_tol, "left")
    hi = np.searchsorted(values.real, lam.real + cfg.dedupe_tol, "right")
    in_regular = np.zeros(lam.size, dtype=bool)
    for k in np.flatnonzero(lo < hi):
        in_regular[k] = np.min(np.abs(values[lo[k]:hi[k]] - lam[k])) \
            <= cfg.dedupe_tol
    flags = [("in_exceptional",) * e + ("in_regular_closure",) * r
             for e, r in zip(in_exc.tolist(), in_regular.tolist())]
    return [p if p.flags == f else
            SingularPoint(p.side, p.xi, p.lam, p.branch_id, f)
            for p, f in zip(points, flags)]


def _config_echo(cfg: SolverConfig) -> dict:
    echo = {}
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if isinstance(value, complex):
            value = [value.real, value.imag]
        elif isinstance(value, tuple):
            value = [[v.real, v.imag] if isinstance(v, complex) else v
                     for v in value]
        echo[field.name] = value
    return echo


def essential_spectrum(op: OperatorMatrix, cfg: SolverConfig | None = None,
                       symbol: SchurSymbol | None = None) -> SpectrumSet:
    """Regular curve plus singular branches, with per-point overlap flags.

    ``symbol`` is the operator's Schur symbol when the caller has already
    built it. Sub-step failures are collected into the report and partial
    results are returned; only structural violations raise.
    """
    cfg = cfg or SolverConfig()
    check_structure(op)
    report: dict = {
        "config": _config_echo(cfg),
        "tolerances": {
            "curve_res": cfg.curve_res,
            "root_tol": cfg.root_tol,
            "fit_tol": cfg.fit_tol,
            "dedupe_tol": cfg.dedupe_tol,
            "exc_tol": cfg.exc_tol,
            "limit_tol": cfg.limit_tol,
        },
        "errors": [],
    }
    diag = validate(op, validation_grid(cfg))
    report["leading_coefficient"] = diag.to_json_dict()
    regular = regular_part(op, cfg, report=report)
    exceptional = limit_points_at_infinity(op.d, cfg)
    report["exceptional"] = exceptional.to_json_dict()
    symbol = symbol if symbol is not None else build_schur(op, cfg)
    try:
        singular = singular_part(op, symbol, cfg=cfg, report=report)
    except FitError as exc:
        report["errors"].append(str(exc))
        singular = []
    singular = _flag_singular(singular, regular, exceptional, cfg)
    return SpectrumSet(
        regular=tuple(regular),
        singular=tuple(singular),
        exceptional=exceptional,
        report=report,
    )


def _format_number(value: float) -> str:
    return repr(float(value))


def spectrum_rows(spectrum: SpectrumSet) -> list[str]:
    """Deterministic CSV data rows (no header)."""
    rows = []
    for point in sorted(spectrum.regular, key=lambda p: p.x_param):
        rows.append(",".join([
            "regular", REGULAR_SIDE, _format_number(point.x_param),
            _format_number(point.lam.real), _format_number(point.lam.imag),
            "0", "",
        ]))
    rank = {"+": 0, "-": 1, REGULAR_SIDE: 2}
    ordered = sorted(
        spectrum.singular,
        key=lambda p: (rank[p.side], p.branch_id, p.xi, p.lam.real, p.lam.imag))
    for point in ordered:
        rows.append(",".join([
            "singular", point.side, _format_number(point.xi),
            _format_number(point.lam.real), _format_number(point.lam.imag),
            str(point.branch_id), ";".join(sorted(point.flags)),
        ]))
    return rows


def write_csv(spectrum: SpectrumSet, path) -> None:
    text = "\n".join([CSV_HEADER, *spectrum_rows(spectrum)]) + "\n"
    Path(path).write_text(text, encoding="utf-8")
