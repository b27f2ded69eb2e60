"""Behavior of the composed symbol toward x -> +/-infinity.

Three services live here:

- :func:`limit_ratio` estimates the coefficient ratios
  ``r_j(lambda) = lim p_j(x, lambda) / p_m(x, lambda)`` along a geometric
  trajectory ``x = sign * x0 * rho**t`` and attaches a convergence
  certificate to every ratio. The tail polynomial
  ``xi**m + sum_j r_j(lambda) xi**j`` built from these limits is what the
  singular-part sweep solves for real ``xi``. Samples come from the
  symbol's lambda-free form: its x-only trees are evaluated once per call
  on the trajectory, and a whole batch of lambda values is then handled by
  array algebra in ``u = 1/(d - lambda)``; :func:`_series` is the one
  evaluator of sums ``sum_q f_q u**q``, for trajectory columns and grid
  jets alike. :func:`limit_ratio_batch` is the non-raising batch form,
  :func:`limit_ratio_slope` gives the analytic lambda-derivative of the
  ratios at the trajectory's far end, and :func:`limit_of` certifies the
  limit of a single lambda-free expression by the same certificate scan,
  run on that expression's own trajectory samples.
- :func:`limit_points_at_infinity` estimates the set of finite limit
  points of the lower-right coefficient ``d`` at infinity by clustering
  its values over the largest dyadic windows. The estimate is heuristic
  by design and can be overridden by declaring the set in the config.
- :func:`check_assumptions` runs the sampled hypothesis diagnostics
  (B1/B2/B3: boundedness, invertible leading coefficient, bounded
  resolvent-weighted couplings; C: sector condition; D: existence of the
  coefficient limits) and reports one record per (assumption, probe). It
  works from the same lambda-free form: the x-only trees and their first
  two x-derivatives are sampled once per call on the validation grid, the
  trajectory forms once per side, and each probe costs array algebra in
  ``u``, using ``u' = -d' u**2``, and a convex hull of the p_m samples.

Everything is pure and therefore safe to call concurrently with a shared
symbol; no caches are mutated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .config import SolverConfig
from .errors import DomainError, NotConvergent, PoleError
from .expr import (Expr, Lit, evaluate, evaluate_array, evaluate_jet,
                   mentions)
from .model import DiagnosticRecord, Diagnostics, OperatorMatrix
from .schur import SchurSymbol

INVERSE_FLOOR = 1e-8
"""Smallest sampled |p_m| accepted as evidence that 1/p_m stays bounded."""


# ---------------------------------------------------------------------------
# Convergence certificates for coefficient ratios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Evidence attached to one estimated limit.

    ``status`` is ``"converged"`` or ``"not-convergent"``; a converged
    certificate promises ``last_increment <= limit_tol * (1 + |value|)``
    and that ``sample_count`` trajectory samples sufficed.
    """

    status: str
    sample_count: int
    last_increment: float
    value: complex

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _trajectory(side: str, cfg: SolverConfig) -> np.ndarray:
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    sign = 1.0 if side == "+" else -1.0
    return sign * cfg.x0 * cfg.rho ** np.arange(cfg.T + 1, dtype=float)


_Jet = tuple[np.ndarray, ...]


def _column(tree: Expr, xs: np.ndarray) -> _Jet:
    """Plain samples of an x-only tree as an (S, 1) column, ready to
    broadcast against a row of lambda values."""
    return (evaluate_array(tree, x=xs)[:, None],)


def _term(sample, tree: Expr, xs: np.ndarray):
    """``sample(tree, xs)``, or None for a literal zero, whose terms are
    skipped."""
    return None if isinstance(tree, Lit) and tree.value == 0 else sample(
        tree, xs)


class _Form(NamedTuple):
    """The x-only trees of a symbol's lambda-free form sampled on ``xs``.

    ``p[j]`` pairs the powers q of u with the samples of alpha_j (q = 0)
    and beta_jq, each either a plain (S, 1) column ``(f,)`` or a grid jet
    ``(f, f', f'')`` (None for a literal zero); ``d`` is sampled the same
    way. ``finite`` marks the abscissae where every value sample is finite.
    """

    xs: np.ndarray
    p: list[list[tuple[int, _Jet | None]]]
    d: _Jet
    finite: np.ndarray

    @property
    def top(self) -> int:
        """The highest power of u in the form."""
        return max(map(len, self.p)) - 1


def _sample_form(symbol: SchurSymbol, xs: np.ndarray,
                 sample=_column) -> _Form:
    p = [[(0, _term(sample, alpha, xs)),
          *((q, _term(sample, tree, xs)) for q, tree in enumerate(row, 1))]
         for alpha, row in zip(symbol.alpha, symbol.beta)]
    d = sample(symbol.d, xs)
    finite = np.isfinite(d[0])
    for terms in p:
        for _, jet in terms:
            if jet is not None:
                finite &= np.isfinite(jet[0])
    return _Form(xs, p, d, finite.reshape(xs.shape))


def _u_powers(d: np.ndarray, lam, top: int) -> list:
    """[None, u, u^2, ..., u^top] with u = 1/(d - lam), broadcast."""
    with np.errstate(all="ignore"):
        powers = [None, 1.0 / (d - lam)]
        while len(powers) <= top:
            powers.append(powers[-1] * powers[1])
    return powers


def _series(out: list[np.ndarray], terms, d: _Jet, u: list,
            slope: bool = False) -> list[np.ndarray]:
    """Add sum_q f_q u^q, u = 1/(d - lambda), and its x-derivatives into
    ``out``, in place; ``out`` has one buffer per part of the samples.

    ``terms`` pairs each power q >= 0 with the samples of f_q, plain
    ``(f,)`` or a jet ``(f, f', f'')`` (None for zero); ``u`` lists the
    powers of u. By u' = -d' u^2: (f u^q)' = f' u^q - q f d' u^(q+1) and
    (f u^q)'' = f'' u^q - q (2 f' d' + f d'') u^(q+1) + q (q+1) f d'^2
    u^(q+2). With ``slope`` the value becomes the lambda-derivative
    sum_q q f_q u^(q+1), since du/dlambda = u^2. Callers silence floating
    point warnings: non-finite sums are masked downstream.
    """
    for q, jet in terms:
        if jet is None:
            continue
        if slope:
            if q:
                out[0] += q * jet[0] * u[q + 1]
            continue
        if q == 0:
            for total, part in zip(out, jet):
                total += part
            continue
        out[0] += jet[0] * u[q]
        if len(out) == 3:
            f, f1, f2 = jet
            _, d1, d2 = d
            out[1] += f1 * u[q]
            out[1] -= q * f * d1 * u[q + 1]
            out[2] += f2 * u[q]
            out[2] -= q * (2.0 * f1 * d1 + f * d2) * u[q + 1]
            out[2] += q * (q + 1) * f * d1 * d1 * u[q + 2]
    return out


def _coefficients(form: _Form, lams: np.ndarray,
                  slope: bool = False) -> np.ndarray:
    """p_j(x, lambda), or dp_j/dlambda with ``slope``; shape (m+1, S, K).

    p_j = alpha_j - [j = 0] lambda + sum_q beta_jq u^q and
    dp_j/dlambda = -[j = 0] + sum_q q beta_jq u^(q+1), from a form of
    plain columns.
    """
    out = np.zeros((len(form.p), form.xs.size, lams.size),
                   dtype=np.complex128)
    u = _u_powers(form.d[0], lams, form.top + slope)
    with np.errstate(all="ignore"):
        for j, terms in enumerate(form.p):
            _series([out[j]], terms, form.d, u, slope)
        out[0] -= 1.0 if slope else lams
    return out


def _ratio_samples(form: _Form, lams: np.ndarray) -> np.ndarray:
    """Sample r_j = p_j/p_m on the form's abscissae; shape (m, S, K)."""
    p = _coefficients(form, lams)
    with np.errstate(all="ignore"):
        return p[:-1] / p[-1]


def _limit_block(samples: np.ndarray, finite: np.ndarray, tol: float):
    """Vectorized certificate scan and per-lambda status of one batch.

    ``samples`` has shape (m, S, K) and ``finite`` marks the abscissae
    where every x-only sample behind them is finite. Returns (values,
    t_index, last_inc, converged, first_bad), each of shape (m, K), and
    the length-K status. ``t_index`` is the increment index at which the
    three-increment window closed (the newest sample used is
    ``t_index + 1``), and ``first_bad`` the index of the first non-finite
    sample of an unconverged limit (S when there is none). A lambda whose
    limits all converge is ``"ok"``.
    Otherwise the earliest non-finite sample decides: ``"overflow"`` when
    ``finite`` is false at that abscissa, ``"pole"`` when it is true (d -
    lambda or p_m vanishes there). Without a non-finite sample the status
    is ``"not-convergent"``.
    """
    _, S, K = samples.shape
    sample_finite = np.isfinite(samples)
    prefix_finite = np.logical_and.accumulate(sample_finite, axis=1)
    with np.errstate(all="ignore"):
        inc = np.abs(np.diff(samples, axis=1))  # (m, S-1, K)
        scale = tol * (1.0 + np.abs(samples[:, 3:, :]))  # newest sample r[t+1]
        window = (
            (inc[:, 2:, :] <= scale)
            & (inc[:, 1:-1, :] <= scale)
            & (inc[:, :-2, :] <= scale)
            & prefix_finite[:, 3:, :]
        )  # index i corresponds to t = i + 2
    first = np.argmax(window, axis=1)
    converged = window.any(axis=1)
    t_index = np.where(converged, first + 2, S - 2)
    take = np.take_along_axis(samples, t_index[:, None, :] + 1, axis=1)
    last_inc = np.take_along_axis(inc, t_index[:, None, :], axis=1)[:, 0, :]
    broken = ~converged & ~prefix_finite[:, -1, :]
    first_bad = np.full(broken.shape, S)
    if broken.any():
        first_bad[broken] = np.argmax(~sample_finite, axis=1)[broken]

    status = np.full(K, "not-convergent")
    status[converged.all(axis=0)] = "ok"
    earliest = first_bad.min(axis=0)
    broken_lams = np.nonzero(earliest < S)[0]
    if broken_lams.size:
        overflow = ~finite[earliest[broken_lams]]
        status[broken_lams] = np.where(overflow, "overflow", "pole")
    return take[:, 0, :], t_index, last_inc, converged, first_bad, status


def limit_ratio(symbol: SchurSymbol, lam: complex, side: str,
                cfg: SolverConfig | None = None
                ) -> tuple[list[complex], list[Certificate]]:
    """Estimate r_j(lambda) = lim p_j/p_m toward one end of the line.

    Returns ``m`` limit values (j = 0..m-1) and their certificates.
    Raises :class:`NotConvergent` when any ratio refuses to settle within
    the trajectory (the witness carries the oscillating tail) or when a
    coefficient sample overflows, and :class:`PoleError` when a needed
    trajectory sample lands on a pole of the symbol (lambda = d(x) or a
    zero of p_m).
    """
    cfg = cfg or SolverConfig()
    return _form_ratios(_sample_form(symbol, _trajectory(side, cfg)), lam,
                        side, cfg)


def _form_ratios(form: _Form, lam: complex, side: str, cfg: SolverConfig
                 ) -> tuple[list[complex], list[Certificate]]:
    """:func:`limit_ratio` on a trajectory form that is already sampled."""
    samples = _ratio_samples(form, np.asarray([lam], dtype=np.complex128))
    m = samples.shape[0]
    return _certified_ratios(
        samples, form.finite, form.xs, side, cfg,
        [f"ratio p_{j}/p_{m}" for j in range(m)],
        lambda x: "coefficient samples overflow")


def _certified_ratios(samples: np.ndarray, finite: np.ndarray,
                      xs: np.ndarray, side: str, cfg: SolverConfig, names,
                      overflow) -> tuple[list[complex], list[Certificate]]:
    """Certificates for the limits of ``samples`` (shape (m, S, 1)), or the
    error that refuses them.

    ``names[j]`` names limit j in messages; ``overflow(x)`` gives the cause
    of a non-finite x-only sample at x (it may raise instead).
    """
    values, t_idx, last_inc, converged, first_bad, status = _limit_block(
        samples, finite, cfg.limit_tol)
    status = status[0]
    if status in ("pole", "overflow"):
        j = int(np.argmin(first_bad[:, 0]))
        bad = int(first_bad[j, 0])
        x_bad = float(xs[bad])
        if status == "pole":
            raise PoleError(
                f"trajectory sample x = {x_bad!r} hits a pole of the "
                f"symbol ({names[j]} is not finite there)")
        end = bad - 1
        message = (f"{overflow(x_bad)} at trajectory sample x = {x_bad!r} "
                   f"toward {side}infinity before {names[j]} settled")
    elif status == "not-convergent":
        j = int(np.argmax(~converged[:, 0]))
        end = cfg.T
        message = (f"{names[j]} did not settle after {cfg.T + 1} samples "
                   f"toward {side}infinity (last increment "
                   f"{last_inc[j, 0]:.3e})")
    if status != "ok":
        tail = [
            (float(xs[t + 1]), float(abs(samples[j, t + 1, 0] - samples[j, t, 0])))
            for t in range(max(0, end - 6), end)
        ]
        raise NotConvergent(message, witness=tail)
    certificates = [
        Certificate(
            status="converged",
            sample_count=int(t_idx[j, 0]) + 2,
            last_increment=float(last_inc[j, 0]),
            value=complex(values[j, 0]),
        )
        for j in range(len(names))
    ]
    return [complex(v) for v in values[:, 0]], certificates


def limit_ratio_batch(symbol: SchurSymbol, lams, side: str,
                      cfg: SolverConfig | None = None):
    """Batched, non-raising variant of :func:`limit_ratio`.

    Returns ``(values, status)`` where ``values`` has shape (K, m) (NaN
    rows where estimation failed) and ``status`` is a length-K array of
    strings: ``"ok"``, ``"pole"``, ``"overflow"`` or ``"not-convergent"``.
    """
    cfg = cfg or SolverConfig()
    lam_arr = np.asarray(lams, dtype=np.complex128).ravel()
    form = _sample_form(symbol, _trajectory(side, cfg))
    values, *_, status = _limit_block(_ratio_samples(form, lam_arr),
                                      form.finite, cfg.limit_tol)
    out = values.T.copy()
    out[status != "ok"] = np.nan
    return out, status


def limit_ratio_slope(symbol: SchurSymbol, lams, side: str,
                      cfg: SolverConfig | None = None) -> np.ndarray:
    """dr_j/dlambda at the far end x_T of the trajectory; shape (K, m).

    Quotient rule on p_j/p_m with dp_j/dlambda taken from the lambda-free
    form. Entries are non-finite where p_m(x_T) vanishes or overflows.
    """
    cfg = cfg or SolverConfig()
    lam_arr = np.asarray(lams, dtype=np.complex128).ravel()
    form = _sample_form(symbol, _trajectory(side, cfg)[-1:])
    p = _coefficients(form, lam_arr)
    dp = _coefficients(form, lam_arr, slope=True)
    with np.errstate(all="ignore"):
        slopes = (dp[:-1] * p[-1] - p[:-1] * dp[-1]) / (p[-1] * p[-1])
    return slopes[:, 0, :].T


def limit_of(expr: Expr, side: str, cfg: SolverConfig | None = None
             ) -> tuple[complex, Certificate]:
    """Certified limit of a lambda-free expression toward one infinity.

    Runs the certificate scan of :func:`limit_ratio` on the expression's
    own trajectory samples. A tree that mentions lambda is a
    ``ValueError``. A non-finite sample that stops the scan is evaluated
    again strictly: a pole there raises :class:`PoleError`; otherwise
    :class:`NotConvergent` says whether the samples overflowed or left a
    function's domain, as it says when the limit does not settle.
    """
    if mentions(expr, "lambda"):
        raise ValueError("limit_of takes lambda-free expressions only")
    cfg = cfg or SolverConfig()
    xs = _trajectory(side, cfg)
    samples = evaluate_array(expr, x=xs)

    def overflow(x: float) -> str:
        try:
            evaluate(expr, x=x)
        except PoleError as exc:
            raise PoleError(f"trajectory sample x = {x!r} hits a pole of the "
                            f"expression: {exc}") from exc
        except DomainError as exc:
            return f"samples leave the domain ({exc})"
        except OverflowError:
            pass
        return "samples overflow"

    values, certs = _certified_ratios(
        samples[None, :, None], np.isfinite(samples), xs, side, cfg,
        ["the limit"], overflow)
    return values[0], certs[0]


# ---------------------------------------------------------------------------
# Limit points of d at infinity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExceptionalSet:
    """Cluster representatives of the finite limit values of d at infinity.

    Invariants: every clustered value lies within ``cluster_tol`` of its
    representative (``radii[i] <= cluster_tol``) and representatives are
    pairwise separated by more than ``2 * cluster_tol``. ``declared`` marks
    a user-supplied override, which skips estimation entirely.
    """

    points: tuple[complex, ...]
    radii: tuple[float, ...]
    window_exponents: tuple[int, ...]
    sides: str
    declared: bool = False

    def to_json_dict(self) -> dict:
        return {
            "points": [[p.real, p.imag] for p in self.points],
            "radii": list(self.radii),
            "window_exponents": list(self.window_exponents),
            "sides": self.sides,
            "declared": self.declared,
        }


def _cluster(values: np.ndarray, tol: float):
    """Greedy clustering with a discard annulus.

    Sweeping values in sorted order: a value within ``tol`` of an existing
    representative joins it; a value farther than ``2*tol`` from every
    representative founds a new cluster; anything in between is discarded.
    This enforces both set invariants by construction. Buckets of side
    ``tol`` keep the sweep near-linear. Sorted values tend to repeat their
    predecessor's cluster, so that representative is tried first: since
    representatives are more than ``2*tol`` apart, at most one lies within
    ``tol`` of a value, and a hit is exactly what the full scan would find.
    """
    order = np.lexsort((values.imag, values.real))
    reps: list[complex] = []
    radii: list[float] = []
    buckets: dict[tuple[int, int], list[int]] = {}
    last = -1

    def neighbors(z: complex):
        bx, by = math.floor(z.real / tol), math.floor(z.imag / tol)
        for dx in range(-2, 3):
            for dy in range(-2, 3):
                for idx in buckets.get((bx + dx, by + dy), ()):
                    yield idx

    for z in values[order].tolist():
        if last >= 0:
            dist = abs(z - reps[last])
            if dist <= tol:
                radii[last] = max(radii[last], dist)
                continue
        best_idx, best_dist = -1, np.inf
        for idx in neighbors(z):
            dist = abs(z - reps[idx])
            if dist < best_dist:
                best_idx, best_dist = idx, dist
        if best_dist <= tol:
            radii[best_idx] = max(radii[best_idx], best_dist)
            last = best_idx
        elif best_dist > 2.0 * tol:
            reps.append(z)
            radii.append(0.0)
            key = (math.floor(z.real / tol), math.floor(z.imag / tol))
            buckets.setdefault(key, []).append(len(reps) - 1)
            last = len(reps) - 1
        # else: inside the annulus (tol, 2*tol] of some representative —
        # discarded so the separation invariant survives.
    return reps, radii


def limit_points_at_infinity(d: Expr, cfg: SolverConfig | None = None
                             ) -> ExceptionalSet:
    """Heuristic estimate of the finite limit points of d at infinity.

    Samples d over the ``cluster_windows`` largest of ``windows`` dyadic
    windows [2^s, 2^(s+1)] (both signs of x by default;
    ``infinity_sides="positive"`` restores the literal one-sided reading),
    drops windows whose smallest |d| exceeds ``escape_bound``, and clusters
    the values retained. An empty result is meaningful: every window
    escaped.
    """
    cfg = cfg or SolverConfig()
    if cfg.declared_exceptional_set is not None:
        pts = tuple(complex(z) for z in cfg.declared_exceptional_set)
        return ExceptionalSet(
            points=pts, radii=(0.0,) * len(pts), window_exponents=(),
            sides=cfg.infinity_sides, declared=True)
    signs = (1.0, -1.0) if cfg.infinity_sides == "both" else (1.0,)
    retained: list[np.ndarray] = []
    exponents: set[int] = set()
    for sign in signs:
        for s in range(max(0, cfg.windows - cfg.cluster_windows),
                       cfg.windows):
            xs = sign * np.linspace(2.0**s, 2.0 ** (s + 1),
                                    cfg.points_per_window)
            vals = evaluate_array(d, x=xs)
            finite = np.isfinite(vals)
            if not finite.any():
                continue
            if float(np.min(np.abs(vals[finite]))) > cfg.escape_bound:
                continue
            retained.append(vals[finite])
            exponents.add(s)
    if not retained:
        return ExceptionalSet((), (), (), cfg.infinity_sides)
    reps, radii = _cluster(np.concatenate(retained), cfg.cluster_tol)
    return ExceptionalSet(
        points=tuple(reps), radii=tuple(radii),
        window_exponents=tuple(sorted(exponents)), sides=cfg.infinity_sides)


# ---------------------------------------------------------------------------
# Assumption diagnostics
# ---------------------------------------------------------------------------

def check_assumptions(op: OperatorMatrix, symbol: SchurSymbol,
                      probes, grid: np.ndarray,
                      cfg: SolverConfig | None = None) -> Diagnostics:
    """Sampled evidence for the hypotheses, one record per (assumption, probe).

    B1: p_j and its first two x-derivatives stay below ``bound_cap`` on the
    grid. B2: sampled |p_m| stays above a floor, so 1/p_m is bounded.
    B3: c_gamma/(d-lambda) and two derivative orders of b_beta/(d-lambda)
    stay below ``bound_cap`` (a NaN sample leaves B1/B3 inconclusive). C:
    some angle theta keeps Re(e^{i theta} p_m) >= delta > 0 across the grid
    (the record carries the exact best margin and a theta attaining it,
    :func:`_sector_margin`). D: the coefficient limits converge on both
    sides. Failures are records, never exceptions. A probe lying within
    ``probe_margin`` of the sampled decoupling curve downgrades its failures
    to "inconclusive": the hypotheses are genuinely violated on the curve
    itself, and a sampled check cannot distinguish the curve from its
    immediate neighborhood.

    No tree is differentiated or simplified, and none that mentions lambda
    is walked. The x-only trees of the symbol's lambda-free form, of b, c
    and d, and their first two x-derivatives are sampled once on the grid
    (:func:`~matspectra.expr.evaluate_jet`), and the trajectory samples for
    D once per side; each probe then costs array algebra in
    u = 1/(d - lambda), with u' = -d' u^2.
    """
    cfg = cfg or SolverConfig()
    grid = np.asarray(grid, dtype=float)
    records: list[DiagnosticRecord] = []

    jets = _GridJets.sample(op, symbol, grid)
    trajectories = [(side, _sample_form(symbol, _trajectory(side, cfg)))
                    for side in ("+", "-")]
    # The decoupling function d - b_n c_k / a_m, sampled unsimplified.
    delta_vals = evaluate_array(
        op.d - op.b[op.n] * op.c[op.k] / op.a[op.m], x=grid)
    delta_vals = delta_vals[np.isfinite(delta_vals)]

    for probe in probes:
        probe = complex(probe)
        near_curve = bool(delta_vals.size) and float(
            np.min(np.abs(delta_vals - probe))) <= cfg.probe_margin
        coefficients, p_m, weighted = jets.values(probe)
        batch = [
            _check_bounded("B1", coefficients, probe, grid, cfg),
            _check_b2(p_m, probe, grid),
            _check_bounded("B3", weighted, probe, grid, cfg),
            _check_c(p_m, probe, grid),
            _check_d(trajectories, probe, cfg),
        ]
        for record in batch:
            if near_curve and record.status == "fail":
                label, location, measured = record.witness
                record = replace(
                    record, status="inconclusive",
                    witness=(f"probe within {cfg.probe_margin:g} of the "
                             f"sampled decoupling curve; {label}",
                             location, measured))
            records.append(record)
    return Diagnostics(records=tuple(records))


class _GridJets(NamedTuple):
    """Grid jets of the x-only trees behind the B1, B2, B3 and C values.

    ``form`` is the symbol's lambda-free form as jets; B3 needs the
    operator's b_beta and d as jets and c_gamma as plain samples (None for
    a literal zero).
    """

    form: _Form
    b: list[_Jet | None]
    c: list[np.ndarray | None]
    d: _Jet

    @classmethod
    def sample(cls, op: OperatorMatrix, symbol: SchurSymbol,
               grid: np.ndarray) -> _GridJets:
        form = _sample_form(symbol, grid, evaluate_jet)
        return cls(form=form,
                   b=[_term(evaluate_jet, b, grid) for b in op.b],
                   c=[_term(evaluate_array, c, grid) for c in op.c],
                   d=form.d if symbol.d == op.d else evaluate_jet(op.d, grid))

    def values(self, probe: complex):
        """Labelled B1 values, p_m and labelled B3 values at one probe."""
        shape = self.form.xs.shape

        def zeros():
            return [np.zeros(shape, np.complex128) for _ in range(3)]

        u_symbol = _u_powers(self.form.d[0], probe, self.form.top + 2)
        u = _u_powers(self.d[0], probe, 3)
        coefficients = []
        with np.errstate(all="ignore"):
            for j, terms in enumerate(self.form.p):
                series = _series(zeros(), terms, self.form.d, u_symbol)
                if j == 0:
                    series[0] -= probe
                coefficients += [(f"d^{order} p_{j} / dx^{order}", values)
                                 for order, values in enumerate(series)]
            weighted = [
                (f"d^0/dx^0 of c_{gamma}/(d-lambda)",
                 np.zeros(shape) if c is None else c * u[1])
                for gamma, c in enumerate(self.c)]
            for beta, b in enumerate(self.b):
                weighted += [
                    (f"d^{order}/dx^{order} of b_{beta}/(d-lambda)", values)
                    for order, values in enumerate(
                        _series(zeros(), [(1, b)], self.d, u))]
        return coefficients, coefficients[-3][1], weighted


def _check_bounded(assumption, labelled_values, probe, grid,
                   cfg) -> DiagnosticRecord:
    """Fail on a sampled magnitude over ``bound_cap``, infinite ones included;
    short of that, a NaN sample (undetermined in floating point, such as a
    forward-mode derivative through an underflow) is inconclusive."""
    worst, undetermined = (0.0, 0.0, ""), None
    for label, values in labelled_values:
        mags = np.abs(values)
        nan = np.isnan(mags)
        if undetermined is None and nan.any():
            undetermined = (f"sampled {label} is NaN, undetermined in "
                            "floating point", float(grid[np.argmax(nan)]),
                            math.nan)
        mags = np.where(nan, 0.0, mags)
        at = int(np.argmax(mags))
        if mags[at] > worst[0]:
            worst = (float(mags[at]), float(grid[at]), label)
    if worst[0] > cfg.bound_cap:
        return DiagnosticRecord(assumption, "fail", probe=probe, witness=(
            f"sampled |{worst[2]}| exceeds bound cap", worst[1], worst[0]))
    if undetermined:
        return DiagnosticRecord(assumption, "inconclusive", probe=probe,
                                witness=undetermined)
    return DiagnosticRecord(assumption, "pass", probe=probe)


def _check_b2(p_m, probe, grid) -> DiagnosticRecord:
    mags = np.abs(p_m)
    finite = np.isfinite(mags)
    if not finite.any():
        return DiagnosticRecord(
            "B2", "inconclusive", probe=probe,
            witness=("p_m not finite anywhere on the grid", float(grid[0]),
                     np.inf))
    mags = np.where(finite, mags, np.inf)
    at = int(np.argmin(mags))
    smallest = float(mags[at])
    if smallest >= INVERSE_FLOOR:
        return DiagnosticRecord("B2", "pass", probe=probe)
    return DiagnosticRecord(
        "B2", "fail", probe=probe,
        witness=("sampled |p_m| falls below the invertibility floor",
                 float(grid[at]), smallest))


def _check_c(p_m, probe, grid) -> DiagnosticRecord:
    finite = np.isfinite(p_m)
    if not finite.any():
        return DiagnosticRecord(
            "C", "inconclusive", probe=probe,
            witness=("p_m not finite anywhere on the grid", float(grid[0]),
                     np.inf))
    margin, theta = _sector_margin(p_m[finite])
    if margin > 0.0:
        return DiagnosticRecord("C", "pass", probe=probe, theta=theta,
                                delta_margin=margin)
    return DiagnosticRecord(
        "C", "fail", probe=probe,
        witness=("no rotation angle gives a positive sector margin",
                 theta, margin),
        theta=theta, delta_margin=margin)


def _sector_margin(v: np.ndarray) -> tuple[float, float]:
    """max over theta of min_k Re(e^{i theta} v_k), and a theta attaining it.

    Exact, from the convex hull K of the samples. Re(e^{i theta} v) is the
    projection of v on e^{-i theta}, so when 0 lies outside K the margin is
    dist(0, K), attained with e^{-i theta} along the nearest point of K.
    Otherwise it is -dist(0, boundary of K), attained with e^{-i theta}
    against the outward normal of the nearest edge. theta is in [0, 2 pi).
    """
    hull = _hull(v)
    if hull.size == 1:
        return float(abs(hull[0])), _direction_angle(hull[0])
    edge = np.roll(hull, -1) - hull
    length = np.abs(edge)
    normal = -1j * edge / length  # outward: the hull runs counterclockwise
    # Signed distance from 0 to each edge's line (>= 0 on the hull's side),
    # and whether the foot of the perpendicular lies on the edge.
    cross = hull.conj() * edge
    line = cross.imag / length
    foot = -cross.real / (length * length)
    on_edge = (foot >= 0.0) & (foot <= 1.0)
    if np.all(line >= 0.0) and (hull.size > 2 or on_edge[0]):
        at = int(np.argmin(line))
        # 0.0 - x keeps a zero margin unsigned in the report.
        return 0.0 - float(line[at]), _direction_angle(-normal[at])
    dist = np.where(on_edge, np.abs(line), np.abs(hull))
    at = int(np.argmin(dist))
    nearest = line[at] * normal[at] if on_edge[at] else hull[at]
    return float(dist[at]), _direction_angle(nearest)


def _direction_angle(z: complex) -> float:
    """The theta in [0, 2 pi) with e^{-i theta} pointing along z."""
    theta = -cmath.phase(z) % math.tau
    return 0.0 if theta == math.tau else theta


def _hull(v: np.ndarray) -> np.ndarray:
    """Convex hull vertices of complex samples, counterclockwise; for samples
    on one line (which qhull refuses) the ends of their segment, or one point.
    """
    # scipy.spatial takes longer to import than this whole package.
    from scipy.spatial import ConvexHull, QhullError
    try:
        return v[ConvexHull(np.column_stack([v.real, v.imag])).vertices]
    except QhullError:
        offset = v - v[0]
        far = offset[int(np.argmax(np.abs(offset)))]
        if far == 0:
            return v[:1]
        along = (far.conjugate() * offset).real
        return v[[int(np.argmin(along)), int(np.argmax(along))]]


def _check_d(trajectories, probe, cfg) -> DiagnosticRecord:
    """D from (side, trajectory form) pairs sampled once for all probes."""
    for side, form in trajectories:
        try:
            _form_ratios(form, probe, side, cfg)
        except NotConvergent as exc:
            tail_increment = exc.witness[-1][1] if exc.witness else np.inf
            return DiagnosticRecord(
                "D", "fail", probe=probe,
                witness=(f"coefficient limits toward {side}infinity did not "
                         "converge", probe, float(tail_increment)))
        except PoleError as exc:
            return DiagnosticRecord(
                "D", "fail", probe=probe,
                witness=(f"trajectory toward {side}infinity hit a pole: {exc}",
                         probe, np.inf))
    return DiagnosticRecord("D", "pass", probe=probe)
