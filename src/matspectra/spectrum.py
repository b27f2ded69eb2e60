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
   checked once; after each round only the two halves of each split
   segment are checked, since solving new frequencies leaves every other
   segment's roots unchanged.

Branch ids follow nearest-neighbor continuation in xi; coincident roots
from the two sides merge into points labeled with the neutral side.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .asymptotics import (
    ExceptionalSet,
    limit_of,
    limit_points_at_infinity,
    limit_ratio_batch,
    limit_ratio_slope,
)
from .config import SolverConfig, window_contains
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

def _image(expr, xs: np.ndarray) -> np.ndarray:
    values = np.asarray(evaluate_array(expr, x=xs), dtype=np.complex128)
    return np.array(np.broadcast_to(values, xs.shape))


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
    vals = _image(dexpr, xs)
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
        mvals = _image(dexpr, mids)
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
                     ) -> tuple[list[np.ndarray | None], int]:
    """Roots of the cleared polynomials, one row of ascending coefficients each.

    A row is trimmed at 1e-12 of its largest magnitude; None marks a
    degenerate identity (all zero or not finite). Rows with the same trimmed
    length and the same number of vanishing low-order coefficients share one
    stacked ``eigvals`` call on companion matrices built exactly as
    ``np.roots`` builds them, so each root carries the bits ``np.roots``
    gives for the trimmed row (as complex128). Returns the roots per row and
    the number of ``eigvals`` calls.
    """
    mags = np.abs(coeffs)
    top = mags.max(axis=1, initial=0.0)
    valid = np.isfinite(top) & (top > 0.0)
    trimmed = np.where(mags > 1e-12 * top[:, None], coeffs, 0.0)
    nonzero = trimmed != 0.0
    low = np.argmax(nonzero, axis=1)
    high = coeffs.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    roots: list[np.ndarray | None] = [None] * coeffs.shape[0]
    groups: dict[tuple[int, int], list[int]] = {}
    for i in np.nonzero(valid)[0]:
        groups.setdefault((int(high[i] - low[i]), int(low[i])), []).append(i)
    solves = 0
    for (degree, zeros), rows in groups.items():
        found = np.zeros((len(rows), degree + zeros), dtype=complex)
        if degree:
            desc = trimmed[rows, zeros:zeros + degree + 1][:, ::-1]
            companion = np.zeros((len(rows), degree, degree), dtype=complex)
            companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
            companion[:, 0, :] = -desc[:, 1:] / desc[:, :1]
            found[:, :degree] = np.linalg.eigvals(companion)
            solves += 1
        for i, row in zip(rows, found):
            roots[i] = row
    return roots, solves


def _log_skip(skips: list, kind: str, side: str, xi: float, lam, reason: str):
    entry = {"type": kind, "side": side, "xi": float(xi), "reason": reason}
    if lam is not None:
        lam = complex(lam)
        entry["lambda"] = [lam.real, lam.imag]
    skips.append(entry)


def _tail_values(pows: np.ndarray, ratios: np.ndarray, m: int) -> np.ndarray:
    return pows[:, m] + np.einsum("ij,ij->i", pows[:, :m], ratios)


def _polish_batch(symbol: SchurSymbol, side: str, xi: np.ndarray,
                  lam: np.ndarray, cfg: SolverConfig,
                  skips: list) -> tuple[np.ndarray, np.ndarray]:
    """Newton-polish candidate roots in one vectorized sweep.

    A candidate is kept only when ``|F_xi(lambda)| <= root_tol`` against
    freshly estimated limits AND the same bound holds on an independent
    trajectory (different starting abscissa). Each iteration makes one
    limit batch; the Newton slope sum_j xi^j dr_j/dlambda comes from
    :func:`limit_ratio_slope`, so it only steers the iteration and never
    enters the acceptance test. A candidate that goes ``NEWTON_STALL``
    iterations without halving its best residual is dropped early (next to
    a pole of the tail ratios the limit noise stays above ``root_tol``).
    Returns (kept, lam).
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

    accepted = state == 1
    if accepted.any():
        alt = cfg.with_overrides(x0=cfg.x0 * 1.37)
        idx = np.nonzero(accepted)[0]
        values, status = limit_ratio_batch(symbol, lam[idx], side, alt)
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


def _solve_at(symbol: SchurSymbol, profile: RationalProfile,
              xi_values: np.ndarray, cfg: SolverConfig,
              skips: list, work: dict) -> dict[float, list[complex]]:
    """Steps 2-4 for a batch of frequencies.

    Returns certified roots within the tracking band, grouped by xi; every
    attempted frequency gets an entry (possibly empty) so the refinement
    pass can see where branches leave the band. Adds its ``eigvals`` calls
    to ``work["companion_solves"]``.
    """
    m = symbol.m
    track_pad = _track_pad(cfg)
    coeffs = _cleared_coefficients(profile, m, xi_values)
    root_rows, solves = _companion_roots(coeffs)
    work["companion_solves"] += solves
    grouped: dict[float, list[complex]] = {}
    seed_xi: list[float] = []
    seed_lam: list[complex] = []
    for xi, roots in zip(xi_values, root_rows):
        grouped[float(xi)] = []
        if roots is None:
            _log_skip(skips, "IdentitySkip", profile.side, xi, None,
                      "cleared polynomial is numerically zero")
            continue
        inside = roots[_near_window(roots, cfg.window, track_pad)]
        seed_xi.extend([float(xi)] * inside.size)
        seed_lam.extend(inside.tolist())
    if not seed_xi:
        return grouped
    kept, polished = _polish_batch(
        symbol, profile.side, np.asarray(seed_xi), np.asarray(seed_lam),
        cfg, skips)
    for xi, lam, good in zip(seed_xi, polished, kept):
        lam = complex(lam)
        if not good or not window_contains(cfg.window, lam, pad=track_pad):
            continue
        bucket = grouped[xi]
        if all(abs(lam - other) > cfg.dedupe_tol for other in bucket):
            bucket.append(lam)
    for bucket in grouped.values():
        bucket.sort(key=lambda z: (z.real, z.imag))
    return grouped


def _gap_midpoint(a: float, b: float) -> float:
    if a != 0.0 and b != 0.0 and (a > 0) == (b > 0):
        return math.copysign(math.sqrt(abs(a) * abs(b)), a)
    return 0.5 * (a + b)


def _segment_needs_split(roots_a: list[complex], roots_b: list[complex],
                         cfg: SolverConfig, keep_pad: float) -> bool:
    """True when two neighbouring frequencies leave a reportable gap.

    Only gaps that touch the reported set matter: a pair of roots is
    relevant when at least one of the two lies within the emit band, and a
    branch birth/death is relevant when any endpoint root does.
    """
    if not roots_a and not roots_b:
        return False

    def emitted(root: complex) -> bool:
        return window_contains(cfg.window, root, pad=keep_pad)

    any_emitted = any(emitted(r) for r in roots_a) or \
        any(emitted(r) for r in roots_b)
    if not roots_a or not roots_b:
        return any_emitted
    if len(roots_a) != len(roots_b) and any_emitted:
        return True
    for root in roots_a:
        partner = min(roots_b, key=lambda other: abs(root - other))
        if abs(root - partner) > cfg.curve_res and \
                (emitted(root) or emitted(partner)):
            return True
    for root in roots_b:
        partner = min(roots_a, key=lambda other: abs(root - other))
        if abs(root - partner) > cfg.curve_res and \
                (emitted(root) or emitted(partner)):
            return True
    return False


def _refinement_targets(tracked: dict[float, list[complex]],
                        flagged: dict[float, float],
                        segments: list[tuple[float, float]],
                        cfg: SolverConfig,
                        tried: set[float]) -> list[tuple[float, float]]:
    """Frequencies to insert where neighbouring roots are too far apart.

    ``flagged`` maps the left end of every segment known to need a split to
    its right end. The fresh ``segments`` are checked and added to it; a
    segment's roots never change until it is split, so no other segment is
    checked again. Returns (left end, midpoint) per target, ascending.
    """
    keep_pad = _keep_pad(cfg)
    for a, b in segments:
        if b - a > 1e-7 * (1.0 + abs(a)) and \
                _segment_needs_split(tracked[a], tracked[b], cfg, keep_pad):
            flagged[a] = b
    targets: list[tuple[float, float]] = []
    for a in sorted(flagged):
        b = flagged[a]
        mid = _gap_midpoint(a, b)
        if mid in tried or mid <= a or mid >= b:
            continue
        targets.append((a, mid))
    return targets


def _sweep_side(symbol: SchurSymbol, profile: RationalProfile,
                xi_grid: np.ndarray, cfg: SolverConfig,
                skips: list) -> tuple[dict[float, list[complex]], dict]:
    work = {"segments_checked": 0, "companion_solves": 0}
    solved = _solve_at(symbol, profile, xi_grid, cfg, skips, work)
    tried = {float(x) for x in xi_grid}
    xis = sorted(solved)
    segments = list(zip(xis[:-1], xis[1:]))
    flagged: dict[float, float] = {}
    rounds = 0
    total = sum(len(v) for v in solved.values())
    while total < cfg.max_points and rounds < 48:
        work["segments_checked"] += len(segments)
        targets = _refinement_targets(solved, flagged, segments, cfg, tried)
        if not targets:
            break
        # Targets past the budget stay flagged for the next round.
        targets = targets[:max(0, cfg.max_points - total)]
        mids = [mid for _, mid in targets]
        tried.update(mids)
        update = _solve_at(symbol, profile, np.asarray(mids), cfg, skips,
                           work)
        solved.update(update)
        total += sum(len(v) for v in update.values())
        segments = []
        for a, mid in targets:
            segments += [(a, mid), (mid, flagged.pop(a))]
        rounds += 1
    info = {"frequencies": len(solved), "points": total,
            "refinement_rounds": rounds, **work}
    return solved, info


# ---------------------------------------------------------------------------
# Branch continuation and side merging
# ---------------------------------------------------------------------------

def _match_tolerance(head: complex, root: complex, cfg: SolverConfig) -> float:
    return max(50.0 * cfg.curve_res,
               0.05 * (1.0 + 0.5 * (abs(head) + abs(root))))


def _assign_branches(raw: list[tuple[float, complex]], first_id: int,
                     cfg: SolverConfig) -> tuple[list[tuple[float, complex, int]], int]:
    """Nearest-neighbor continuation over ascending xi."""
    groups: dict[float, list[complex]] = {}
    for xi, lam in raw:
        groups.setdefault(xi, []).append(lam)
    heads: list[tuple[int, complex]] = []
    next_id = first_id
    out: list[tuple[float, complex, int]] = []
    for xi in sorted(groups):
        roots = sorted(groups[xi], key=lambda z: (z.real, z.imag))
        candidates = []
        for ri, root in enumerate(roots):
            for hi, (_bid, head) in enumerate(heads):
                dist = abs(root - head)
                if dist <= _match_tolerance(head, root, cfg):
                    candidates.append((dist, ri, hi))
        candidates.sort(key=lambda t: (t[0], t[1], t[2]))
        used_roots: set[int] = set()
        used_heads: set[int] = set()
        for dist, ri, hi in candidates:
            if ri in used_roots or hi in used_heads:
                continue
            used_roots.add(ri)
            used_heads.add(hi)
            bid = heads[hi][0]
            heads[hi] = (bid, roots[ri])
            out.append((xi, roots[ri], bid))
        for ri, root in enumerate(roots):
            if ri not in used_roots:
                out.append((xi, root, next_id))
                heads.append((next_id, root))
                next_id += 1
    return out, next_id


def _merge_sides(plus: dict[float, list[complex]],
                 minus: dict[float, list[complex]],
                 cfg: SolverConfig) -> dict[str, list[tuple[float, complex]]]:
    """Pair up coincident roots of the two sides into neutral points."""
    classes: dict[str, list[tuple[float, complex]]] = {
        REGULAR_SIDE: [], "+": [], "-": []}
    for xi in sorted(set(plus) | set(minus)):
        left = list(plus.get(xi, []))
        right = list(minus.get(xi, []))
        taken = [False] * len(right)
        for lam in left:
            match = -1
            best = cfg.dedupe_tol
            for i, other in enumerate(right):
                if not taken[i] and abs(lam - other) <= best:
                    match = i
                    best = abs(lam - other)
            if match >= 0:
                taken[match] = True
                classes[REGULAR_SIDE].append((xi, lam))
            else:
                classes["+"].append((xi, lam))
        for i, other in enumerate(right):
            if not taken[i]:
                classes["-"].append((xi, other))
    return classes


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
    side_roots: dict[str, dict[float, list[complex]]] = {}

    for side in ("+", "-"):
        try:
            profile = _fit_side(symbol, side, op.n, cfg)
        except FitError as exc:
            errors.append(exc)
            fits[side] = {"error": str(exc)}
            side_roots[side] = {}
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
        keep_pad = _keep_pad(cfg)
        solved: dict[float, list[complex]] = {}
        dropped_outside = 0
        for xi, roots in tracked.items():
            emitted = [r for r in roots
                       if window_contains(cfg.window, r, pad=keep_pad)]
            dropped_outside += len(roots) - len(emitted)
            if emitted:
                solved[xi] = emitted
        info["outside_window"] = dropped_outside
        sweeps[side] = info
        if not profile.trusted and not solved:
            errors.append(FitError(
                f"rational reconstruction toward {side}infinity has residual "
                f"{profile.residual:.3e} above tolerance and no root passed "
                "Newton certification"))
            solved = {}
        side_roots[side] = solved

    if errors and not any(side_roots.get(s) for s in ("+", "-")):
        raise errors[0]

    classes = _merge_sides(side_roots.get("+", {}), side_roots.get("-", {}),
                           cfg)
    points: list[SingularPoint] = []
    next_id = 0
    for side_class in (REGULAR_SIDE, "+", "-"):
        assigned, next_id = _assign_branches(classes[side_class], next_id, cfg)
        for xi, lam, bid in assigned:
            points.append(SingularPoint(side=side_class, xi=xi, lam=lam,
                                        branch_id=bid))
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
    values = np.asarray([p.lam for p in regular], dtype=complex)
    order = np.argsort(values.real, kind="stable")
    values = values[order]
    reals = values.real
    flagged = []
    for point in points:
        flags = []
        if exceptional.contains(point.lam, cfg.exc_tol):
            flags.append("in_exceptional")
        lo = np.searchsorted(reals, point.lam.real - cfg.dedupe_tol, "left")
        hi = np.searchsorted(reals, point.lam.real + cfg.dedupe_tol, "right")
        if lo < hi and np.min(
                np.abs(values[lo:hi] - point.lam)) <= cfg.dedupe_tol:
            flags.append("in_regular_closure")
        flagged.append(replace(point, flags=tuple(flags)))
    return flagged


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
