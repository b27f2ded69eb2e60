"""Behavior of the composed symbol toward x -> +/-infinity.

A limit is sampled on a geometric trajectory ``x = sign * X0 * RHO**t``
and certified by one vectorized scan, column by column
(:func:`_limit_block`); its :class:`Certificate` bounds the remainder by
the geometric tail of the last increments. :func:`symbol_rows` is the one
list of the x-only trees of the symbol's lambda-free form: every reader
of the form below samples its trees. Three services live here:

- :func:`tail_ledger` is the one place where the limits of lambda-free
  trees are sampled and certified: one shared-subtree walk samples named
  trees on the ``X0`` and recheck trajectories of both sides, and one
  scan certifies every column. A reader takes a column's certificate or,
  for a failed column, the error that refuses it, built from the
  column's own samples and returned, never raised. A spectrum run reads
  all its limits from one ledger: the ends of the decoupling curve; d's
  limit points (:func:`limit_points_at_infinity`: d's limit, none where
  1/d tends to 0, and only where both are refused a clustering of d's
  values over the largest dyadic windows); and the frozen symbol
  (:func:`symbol_limits`: d, alpha_j and beta_jq, or 1/d -> 0 and
  beta_jq/d^q where d does not settle, each rechecked, and the first
  refusal named). :func:`limit_of` reads one tree's ``X0`` column from a
  ledger of that tree alone.
- :func:`limit_ratio` estimates the coefficient ratios
  ``r_j(lambda) = lim p_j(x, lambda) / p_m(x, lambda)``, each with its
  certificate, and :func:`limit_ratio_batch` is its non-raising batch
  form. The form's trees are walked once per call on the trajectory, and
  a whole batch of lambda values is then handled by array algebra in
  ``u = 1/(d - lambda)``; :func:`_series` is the one evaluator of sums
  ``sum_q f_q u**q``, for trajectory columns and grid jets alike.
- :func:`check_assumptions` runs the sampled hypothesis diagnostics
  (B1/B2/B3: boundedness, invertible leading coefficient, bounded
  resolvent-weighted couplings; C: sector condition; D: existence of the
  coefficient limits) and reports one record per (assumption, probe).
  One walk samples the form's trees and their first two x-derivatives on
  the validation grid, and one more the trajectory form of both sides;
  all probes then go as batches of array algebra in ``u``, using
  ``u' = -d' u**2``, and each probe takes a convex hull of its p_m
  samples.

Everything is pure and therefore safe to call concurrently with a shared
symbol; no caches are mutated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, LimitRefused, NotConvergent, PoleError
from .expr import (Div, Expr, Lit, evaluate, evaluate_array, evaluate_batch,
                   mentions, smart_pow)
from .model import DiagnosticRecord, Diagnostics, OperatorMatrix
from .schur import SchurSymbol

INVERSE_FLOOR = 1e-8
"""Smallest sampled |p_m| accepted as evidence that 1/p_m stays bounded."""

# Limits are sampled at x = sign * X0 * RHO**t, t = 0..T, and converge once
# three successive increments are at most LIMIT_TOL * (1 + |sample|). The
# recheck trajectory starts at RECHECK_X0_SCALE * X0 instead.
X0 = 16.0
RECHECK_X0_SCALE = 1.37
LIMIT_TOL = 1e-9
RHO = 2.0
T = 40

RATE_CAP = 0.99
"""Largest ratio of successive increments that a tail bound trusts."""

ZERO_MARGIN = 2.0
"""A limit is exactly 0 when |value| is within this many tail bounds of 0."""


# ---------------------------------------------------------------------------
# Convergence certificates for coefficient ratios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Evidence attached to one converged limit.

    It promises ``last_increment <= LIMIT_TOL * (1 + |value|)`` and that
    ``sample_count`` trajectory samples sufficed. ``previous_increment`` is
    the increment just before the last one.
    """

    sample_count: int
    last_increment: float
    value: complex
    previous_increment: float

    @property
    def tail_bound(self) -> float:
        """Estimated |value - limit|: the geometric tail r/(1 - r) of the
        last increment, with r = last/previous increment capped at
        ``RATE_CAP``, and never less than the last increment."""
        last, previous = self.last_increment, self.previous_increment
        rate = RATE_CAP if last >= RATE_CAP * previous else last / previous
        return max(last, last * rate / (1.0 - rate))

    @property
    def limit(self) -> complex:
        """``value``, or exactly 0 when it lies within ``ZERO_MARGIN`` tail
        bounds of 0."""
        return 0j if abs(self.value) <= ZERO_MARGIN * self.tail_bound \
            else self.value


def _trajectory(side: str, recheck: bool = False) -> np.ndarray:
    """x toward one side, from X0 or, to recheck, RECHECK_X0_SCALE * X0."""
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    sign = 1.0 if side == "+" else -1.0
    start = X0 * RECHECK_X0_SCALE if recheck else X0
    return sign * start * RHO ** np.arange(T + 1, dtype=float)


_Jet = tuple[np.ndarray, ...]


def _zero(tree: Expr) -> bool:
    """Whether the tree is a literal zero, whose terms are skipped."""
    return isinstance(tree, Lit) and tree.value == 0


def _term(samples: dict, tree: Expr):
    """The samples of a tree, keyed by its id in ``samples``, or None for a
    literal zero."""
    return None if _zero(tree) else samples[id(tree)]


class _Form(NamedTuple):
    """The x-only trees of a symbol's lambda-free form sampled on ``xs``.

    ``p[j]`` pairs the power q of u with the samples of alpha_j (q = 0)
    and beta_jq for each direct :func:`symbol_rows` row of p_j, each
    either a plain (S, 1) column ``(f,)`` or a grid jet ``(f, f', f'')``;
    a literal zero has no row. ``d`` is sampled the same way. ``finite``
    marks the abscissae where every value sample is finite.
    """

    xs: np.ndarray
    p: list[list[tuple[int, _Jet]]]
    d: _Jet
    finite: np.ndarray

    @property
    def top(self) -> int:
        """The highest power of u in the form."""
        return max((q for terms in self.p for q, _ in terms), default=0)


def _sample_form(symbol: SchurSymbol, rows, xs: np.ndarray, jets: list
                 ) -> _Form:
    """The form on ``xs`` from ``jets``, the samples of the trees of the
    direct :func:`symbol_rows` ``rows`` (d first), in their order."""
    p = [[] for _ in symbol.alpha]
    for (_, j, q, _), jet in zip(rows[1:], jets[1:]):
        p[j].append((q, jet))
    finite = np.logical_and.reduce([np.isfinite(jet[0]) for jet in jets])
    return _Form(xs, p, jets[0], finite.reshape(xs.shape))


def _forms(symbol: SchurSymbol, xs: np.ndarray) -> list[_Form]:
    """The form sampled on each column of ``xs`` (S, K) as plain (S, 1)
    columns, from one walk of its trees."""
    rows = symbol_rows(symbol)[0]
    samples = evaluate_batch(xs, values=[tree for *_, tree in rows])[1]
    return [_sample_form(symbol, rows, xs[:, k],
                         [(column[:, k:k + 1],) for column in samples])
            for k in range(xs.shape[1])]


def _u_powers(d: np.ndarray, lam, top: int) -> list:
    """[None, u, u^2, ..., u^top] with u = 1/(d - lam), broadcast."""
    with np.errstate(all="ignore"):
        powers = [None, 1.0 / (d - lam)]
        while len(powers) <= top:
            powers.append(powers[-1] * powers[1])
    return powers


def _series(out: list[np.ndarray], terms, d: _Jet, u: list
            ) -> list[np.ndarray]:
    """Add sum_q f_q u^q, u = 1/(d - lambda), and its x-derivatives into
    ``out``, in place; ``out`` has one buffer per part of the samples.

    ``terms`` pairs each power q >= 0 with the samples of f_q, plain
    ``(f,)`` or a jet ``(f, f', f'')`` (None for zero); ``u`` lists the
    powers of u. By u' = -d' u^2: (f u^q)' = f' u^q - q f d' u^(q+1) and
    (f u^q)'' = f'' u^q - q (2 f' d' + f d'') u^(q+1) + q (q+1) f d'^2
    u^(q+2). Callers silence floating point warnings: non-finite sums are
    masked downstream.
    """
    for q, jet in terms:
        if jet is None:
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


def _coefficients(form: _Form, lams: np.ndarray) -> np.ndarray:
    """p_j(x, lambda) = alpha_j - [j = 0] lambda + sum_q beta_jq u^q from a
    form of plain columns; shape (m+1, S, K)."""
    out = np.zeros((len(form.p), form.xs.size, lams.size),
                   dtype=np.complex128)
    u = _u_powers(form.d[0], lams, form.top)
    with np.errstate(all="ignore"):
        for j, terms in enumerate(form.p):
            _series([out[j]], terms, form.d, u)
        out[0] -= lams
    return out


def _ratio_samples(form: _Form, lams: np.ndarray) -> np.ndarray:
    """Sample r_j = p_j/p_m on the form's abscissae; shape (m, S, K)."""
    p = _coefficients(form, lams)
    with np.errstate(all="ignore"):
        return p[:-1] / p[-1]


def _limit_block(samples: np.ndarray, tol: float):
    """Vectorized certificate scan of a batch of sample columns.

    ``samples`` has shape (m, S, K), and each of its m*K columns of S
    samples is scanned on its own. Returns (values, t_index, last_inc,
    prev_inc, converged, first_bad), each of shape (m, K). ``t_index`` is
    the increment index at which the three-increment window closed (the
    newest sample used is ``t_index + 1``), and ``first_bad`` the index of
    the first non-finite sample of an unconverged limit (S when there is
    none).
    """
    S = samples.shape[1]
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
    prev_inc = np.take_along_axis(inc, t_index[:, None, :] - 1,
                                  axis=1)[:, 0, :]
    broken = ~converged & ~prefix_finite[:, -1, :]
    first_bad = np.full(broken.shape, S)
    if broken.any():
        first_bad[broken] = np.argmax(~sample_finite, axis=1)[broken]
    return take[:, 0, :], t_index, last_inc, prev_inc, converged, first_bad


def _certificate(block, i: int, k: int) -> Certificate:
    """The certificate of column (i, k) of a :func:`_limit_block` scan."""
    values, t_index, last_inc, prev_inc = block[:4]
    return Certificate(sample_count=int(t_index[i, k]) + 2,
                       last_increment=float(last_inc[i, k]),
                       value=complex(values[i, k]),
                       previous_increment=float(prev_inc[i, k]))


def _status(converged: np.ndarray, first_bad: np.ndarray,
            finite: np.ndarray) -> np.ndarray:
    """Per-lambda status of a scanned batch of ratios, length K.

    ``finite`` marks the abscissae where every x-only sample behind the
    ratios is finite. A lambda whose limits all converge is ``"ok"``.
    Otherwise the earliest non-finite sample decides: ``"overflow"`` when
    ``finite`` is false at that abscissa, ``"pole"`` when it is true (d -
    lambda or p_m vanishes there). Without a non-finite sample the status
    is ``"not-convergent"``.
    """
    status = np.full(converged.shape[1], "not-convergent")
    status[converged.all(axis=0)] = "ok"
    earliest = first_bad.min(axis=0)
    broken_lams = np.nonzero(earliest < finite.size)[0]
    if broken_lams.size:
        overflow = ~finite[earliest[broken_lams]]
        status[broken_lams] = np.where(overflow, "overflow", "pole")
    return status


def limit_ratio(symbol: SchurSymbol, lam: complex, side: str
                ) -> tuple[list[complex], list[Certificate]]:
    """Estimate r_j(lambda) = lim p_j/p_m toward one end of the line.

    Returns ``m`` limit values (j = 0..m-1) and their certificates.
    Raises :class:`NotConvergent` when any ratio refuses to settle within
    the trajectory (the witness carries the oscillating tail) or when a
    coefficient sample overflows, and :class:`PoleError` when a needed
    trajectory sample lands on a pole of the symbol (lambda = d(x) or a
    zero of p_m).
    """
    form, = _forms(symbol, _trajectory(side)[:, None])
    samples, block, status = _ratio_scan(form, [lam])
    if status[0] != "ok":
        raise _ratio_refusal(samples, block, status[0], 0, form.xs, side)
    certificates = [_certificate(block, j, 0)
                    for j in range(samples.shape[0])]
    return [cert.value for cert in certificates], certificates


def _ratio_scan(form: _Form, lams):
    """The ratio samples of a form at each of the 1-d ``lams``
    (:func:`_ratio_samples`), their :func:`_limit_block` scan and the
    :func:`_status` of each lambda."""
    samples = _ratio_samples(form, np.asarray(lams, dtype=np.complex128))
    block = _limit_block(samples, LIMIT_TOL)
    return samples, block, _status(block[4], block[5], form.finite)


def _ratio_refusal(samples: np.ndarray, block, status: str, k: int,
                   xs: np.ndarray, side: str) -> NotConvergent | PoleError:
    """Why column k of the ratio samples (shape (m, S, K)) has no limits:
    the error :func:`limit_ratio` raises for a ``status`` other than ok."""
    m = samples.shape[0]
    return _refusal(samples, block, status, k, xs, side,
                    [f"ratio p_{j}/p_{m}" for j in range(m)],
                    "coefficient samples overflow")


def _refusal(samples: np.ndarray, block, status: str, k: int,
             xs: np.ndarray, side: str, names, cause: str
             ) -> NotConvergent | PoleError:
    """The error that refuses the limits of column k of a
    :func:`_limit_block` scan of ``samples``, whose status is not ok.

    ``names[j]`` names limit j in messages; ``cause`` says why an x-only
    sample is not finite where the status is ``"overflow"``.
    """
    _, _, last_inc, _, converged, first_bad = block
    if status in ("pole", "overflow"):
        j = int(np.argmin(first_bad[:, k]))
        bad = int(first_bad[j, k])
        x_bad = float(xs[bad])
        if status == "pole":
            return PoleError(
                f"trajectory sample x = {x_bad!r} hits a pole of the "
                f"symbol ({names[j]} is not finite there)")
        end = bad - 1
        message = (f"{cause} at trajectory sample x = {x_bad!r} "
                   f"toward {side}infinity before {names[j]} settled")
    else:
        j = int(np.argmax(~converged[:, k]))
        end = T
        message = (f"{names[j]} did not settle after {T + 1} samples "
                   f"toward {side}infinity (last increment "
                   f"{last_inc[j, k]:.3e})")
    tail = [
        (float(xs[t + 1]), float(abs(samples[j, t + 1, k] - samples[j, t, k])))
        for t in range(max(0, end - 6), end)
    ]
    return NotConvergent(message, witness=tail)


def limit_ratio_batch(symbol: SchurSymbol, lams, side: str):
    """Batched, non-raising variant of :func:`limit_ratio`.

    Returns ``(values, status)`` where ``values`` has shape (K, m) (NaN
    rows where estimation failed) and ``status`` is a length-K array of
    strings: ``"ok"``, ``"pole"``, ``"overflow"`` or ``"not-convergent"``.
    """
    return _ratio_batch(symbol, lams, _trajectory(side))


def _ratio_batch(symbol: SchurSymbol, lams, xs: np.ndarray):
    """:func:`limit_ratio_batch` on the trajectory ``xs``."""
    form, = _forms(symbol, xs[:, None])
    _, block, status = _ratio_scan(form, np.ravel(lams))
    out = block[0].T.copy()
    out[status != "ok"] = np.nan
    return out, status


def limit_of(expr: Expr, side: str) -> tuple[complex, Certificate]:
    """Certified limit of a lambda-free expression toward one infinity.

    Reads the ``X0`` column of a one-tree :func:`tail_ledger`: its
    certificate, or the error :meth:`TailLedger.error` gives there. A tree
    that mentions lambda or a side other than ``"+"`` or ``"-"`` is a
    ``ValueError``. A non-finite sample that stops the scan is evaluated
    again strictly: a pole there raises :class:`PoleError`; otherwise
    :class:`NotConvergent` says whether the samples overflowed or left a
    function's domain, as it says when the limit does not settle.
    """
    if mentions(expr, "lambda"):
        raise ValueError("limit_of takes lambda-free expressions only")
    ledger = tail_ledger([("limit", expr)])
    certificate = ledger.certificate("limit", side)
    if certificate is None:
        raise ledger.error("limit", side)
    return certificate.value, certificate


def _limit_error(expr: Expr, side: str, xs: np.ndarray, samples: np.ndarray,
                 block) -> NotConvergent | PoleError:
    """The error that refuses the limit where the one-column scan ``block``
    of the expression's ``samples`` on ``xs`` failed.

    A non-finite sample stops the scan at ``block[5]``; :func:`evaluate`
    names its cause there. A pole gives a :class:`PoleError` whose
    ``__cause__`` is the evaluator's; a domain error or an overflow gives
    the :class:`NotConvergent` that says so. Without a non-finite sample
    the limit did not settle.
    """
    bad = int(block[5][0, 0])
    status, cause = "not-convergent", "samples overflow"
    if bad < samples.size:
        status, x = "overflow", float(xs[bad])
        try:
            evaluate(expr, x=x)
        except PoleError as exc:
            pole = PoleError(f"trajectory sample x = {x!r} hits a pole of "
                             f"the expression: {exc}")
            pole.__cause__ = exc
            return pole
        except DomainError as exc:
            cause = f"samples leave the domain ({exc})"
        except OverflowError:
            pass
    return _refusal(samples[None, :, None], block, status, 0, xs, side,
                    ["the limit"], cause)


COLUMNS = (("+", False), ("+", True), ("-", False), ("-", True))
"""The trajectories of a :class:`TailLedger`, as (side, recheck) per
column: toward each side from ``X0`` and from ``RECHECK_X0_SCALE * X0``."""


def _column(side: str, recheck: bool) -> int:
    """The index in ``COLUMNS`` of a trajectory, or the ``ValueError`` of
    :func:`_trajectory` for a side other than ``"+"`` or ``"-"``."""
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    return COLUMNS.index((side, recheck))


class TailLedger(NamedTuple):
    """The limits of named lambda-free trees toward both ends
    (:func:`tail_ledger`).

    ``samples[rows[name]]`` holds ``trees[rows[name]]`` on the trajectories
    of ``COLUMNS``, one per column, and ``block`` is their
    :func:`_limit_block` scan. The scan runs column by column, so a
    column's certificate, or its error, is the one the tree gets when its
    samples on that trajectory are scanned alone; :func:`limit_of` reads
    its ``X0`` column.
    """

    rows: dict[str, int]
    trees: tuple[Expr, ...]
    samples: np.ndarray
    block: tuple

    def tree(self, name: str) -> Expr:
        """The tree sampled under ``name``."""
        return self.trees[self.rows[name]]

    def certificate(self, name: str, side: str, recheck: bool = False
                    ) -> Certificate | None:
        """The certificate of the named tree's limit toward ``side``, on the
        recheck trajectory if asked, or None where the scan refuses it."""
        i, k = self.rows[name], _column(side, recheck)
        return _certificate(self.block, i, k) if self.block[4][i, k] else None

    def error(self, name: str, side: str, recheck: bool = False
              ) -> NotConvergent | PoleError:
        """The error that refuses a column the scan refuses, built from
        the column's own samples: the one :func:`limit_of` raises there."""
        i, k = self.rows[name], _column(side, recheck)
        return _limit_error(self.trees[i], side, _trajectory(side, recheck),
                            self.samples[i, :, k],
                            tuple(a[i:i + 1, k:k + 1] for a in self.block))


def tail_ledger(rows) -> TailLedger:
    """The :class:`TailLedger` of ``rows`` that each hold a name first and
    its tree last, a name given again with the same tree taken once: one
    :func:`~matspectra.expr.evaluate_batch` walk samples every tree on the
    four trajectories, each distinct subtree once, and one
    :func:`_limit_block` scan certifies every column."""
    trees = {row[0]: row[-1] for row in rows}
    xs = np.stack([_trajectory(side, recheck) for side, recheck in COLUMNS],
                  axis=1)
    samples = np.stack(evaluate_batch(xs, values=list(trees.values()))[1])
    return TailLedger({name: i for i, name in enumerate(trees)},
                      tuple(trees.values()), samples,
                      _limit_block(samples, LIMIT_TOL))


# ---------------------------------------------------------------------------
# Certified limits of the symbol's x-only trees
# ---------------------------------------------------------------------------

NEAR_ZERO_TOLS = 1e3
"""A limit that still moves, is not 0 and lies within this many
``LIMIT_TOL`` of 0 is refused: its samples cannot tell it from 0."""


@dataclass(frozen=True)
class TailLimit:
    """The limit of one x-only tree of the lambda-free form toward a side.

    ``label`` names the tree: ``alpha_j``, ``beta_j,q``, ``beta_j,q/d^q``,
    ``d`` or ``1/d``. The limit is the coefficient of u^q in the frozen
    p_j (q = 0 for alpha_j; ``j`` is None for d and 1/d). ``recheck``
    certifies the same tree on the trajectory that starts at
    ``RECHECK_X0_SCALE * X0``.
    """

    label: str
    j: int | None
    q: int
    certificate: Certificate
    recheck: Certificate

    @property
    def value(self) -> complex:
        """The certified limit (:attr:`Certificate.limit`)."""
        return self.certificate.limit


@dataclass(frozen=True)
class SymbolLimits:
    """Every limit the frozen symbol toward one side is made of.

    ``limits[0]`` is d, or 1/d when ``d_diverges``; the rest are alpha_j,
    then beta_jq, or beta_jq/d^q when ``d_diverges`` (then beta_jq u^q
    tends to the limit of beta_jq/d^q). Literal zeros are left out.
    """

    d_diverges: bool
    limits: tuple[TailLimit, ...]

    def to_json_list(self) -> list[dict]:
        """Label, value, sample count, last increment, tail bound and zero
        flag of every limit, with its recheck certificate."""
        def entry(cert):
            return {"value": [cert.value.real, cert.value.imag],
                    "sample_count": cert.sample_count,
                    "last_increment": cert.last_increment,
                    "tail_bound": cert.tail_bound}

        return [{"label": limit.label, **entry(limit.certificate),
                 "zero": limit.value == 0, "recheck": entry(limit.recheck)}
                for limit in self.limits]


def symbol_rows(symbol: SchurSymbol) -> tuple[list, list]:
    """The rows (label, j, q, tree) that :func:`symbol_limits` reads toward
    a side where d settles, d and every non-zero alpha_j and beta_jq, and
    those it reads where d does not, 1/d, alpha_j and beta_jq/d^q."""
    direct = [("d", None, 0, symbol.d)]
    inverse = [("1/d", None, 0, Div(Lit(1 + 0j), symbol.d))]
    for j, (alpha, row) in enumerate(zip(symbol.alpha, symbol.beta)):
        if not _zero(alpha):
            direct.append((f"alpha_{j}", j, 0, alpha))
            inverse.append(direct[-1])
        for q, tree in enumerate(row, 1):
            if not _zero(tree):
                direct.append((f"beta_{j},{q}", j, q, tree))
                inverse.append((f"beta_{j},{q}/d^{q}", j, q,
                                Div(tree, smart_pow(symbol.d, q))))
    return direct, inverse


def symbol_limits(symbol: SchurSymbol, side: str, *,
                  ledger: TailLedger | None = None) -> SymbolLimits:
    """Certify the limits of the symbol's x-only trees toward one side.

    The trees are read from ``ledger``, a :func:`tail_ledger` of both
    :func:`symbol_rows` (built when None), so each certificate, on the
    ``X0`` and on the recheck trajectory, is the one :func:`limit_of`
    gives that tree there. Tree by tree, in order: a tree whose scan fails
    on either trajectory is refused with the error :func:`limit_of` raises
    there; the two values must lie within the sum of their last
    increments. A limit within ``ZERO_MARGIN`` tail bounds of 0 is 0; one
    that is not, yet lies within ``NEAR_ZERO_TOLS * LIMIT_TOL`` of 0 while
    its samples still move, is refused. When d's own limit does not
    settle, the limit of 1/d must be 0 and the couplings are taken as
    beta_jq/d^q. Raises :class:`LimitRefused` naming the first tree whose
    limit is refused or whose recheck disagrees, d for both reasons when
    1/d fails too.
    """
    direct, inverse = symbol_rows(symbol)
    if ledger is None:
        ledger = tail_ledger(direct + inverse)
    limits = _checked(ledger, direct, side)
    try:
        first = next(limits)
    except LimitRefused as refusal:
        if not isinstance(refusal.__cause__, NotConvergent):
            raise
        limits = _checked(ledger, inverse, side)
        try:
            first = next(limits)
            reason = "" if first.value == 0 else (
                f"the limit of 1/d is {first.certificate.value}, not 0")
        except LimitRefused as exc:
            reason = str(exc)
        if reason:
            raise LimitRefused("d", f"{refusal.__cause__}; {reason}"
                               ) from refusal
    return SymbolLimits(first.label == "1/d", (first, *limits))


def _checked(ledger: TailLedger, rows, side: str):
    """The :class:`TailLimit` of each (label, j, q, tree) row toward
    ``side``, checked in order from its ``ledger`` columns on the ``X0``
    and recheck trajectories."""
    for label, j, q, _ in rows:
        first, again = (ledger.certificate(label, side, recheck)
                        for recheck in (False, True))
        for recheck, end in ((False, first), (True, again)):
            if end is None:
                error = ledger.error(label, side, recheck)
                raise LimitRefused(label, str(error)) from error
        if abs(first.value - again.value) > (first.last_increment
                                             + again.last_increment):
            raise LimitRefused(label, (
                f"the recheck from x = {X0 * RECHECK_X0_SCALE!r} gives "
                f"{again.value} against {first.value}, farther apart "
                "than their last increments"))
        limit = TailLimit(label, j, q, first, again)
        near = NEAR_ZERO_TOLS * LIMIT_TOL
        if (limit.value != 0 and abs(first.value) <= near
                and first.last_increment > 0):
            raise LimitRefused(label, (
                f"its value {first.value} lies within {near:.1e} of 0 "
                f"but beyond {ZERO_MARGIN:g} tail bounds "
                f"({first.tail_bound:.3e}), so it is neither certified "
                "0 nor told apart from 0"))
        yield limit


# ---------------------------------------------------------------------------
# Limit points of d at infinity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExceptionalSet:
    """Cluster representatives of the finite limit values of d at infinity.

    Invariants: every clustered value lies within ``CLUSTER_TOL`` of its
    representative (``radii[i] <= CLUSTER_TOL``) and representatives are
    pairwise separated by more than ``2 * CLUSTER_TOL``. ``sources`` maps
    each side, ``"+"`` and ``"-"``, to how :func:`limit_points_at_infinity`
    decided it: ``"certified"``, ``"escapes"`` or ``"sampled"``.
    """

    points: tuple[complex, ...]
    radii: tuple[float, ...]
    window_exponents: tuple[int, ...]
    sources: dict[str, str]

    def to_json_dict(self) -> dict:
        return {
            "points": [[p.real, p.imag] for p in self.points],
            "radii": list(self.radii),
            "window_exponents": list(self.window_exponents),
            "sources": dict(self.sources),
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
    ordered = values[np.lexsort((values.imag, values.real))]
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

    for z in ordered.tolist():
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
        # else: inside the annulus (tol, 2*tol] of some representative
        # — discarded so the separation invariant survives.
    return reps, radii


# A sampled side of d takes POINTS_PER_WINDOW points in each of the
# CLUSTER_WINDOWS largest of WINDOWS dyadic windows, drops a window whose
# smallest |d| exceeds ESCAPE_BOUND and clusters the rest at CLUSTER_TOL.
WINDOWS = 24
CLUSTER_WINDOWS = 6
CLUSTER_TOL = 1e-4
POINTS_PER_WINDOW = 4096
ESCAPE_BOUND = 1e8


def limit_points_at_infinity(d: Expr, *, ledger: TailLedger | None = None
                             ) -> ExceptionalSet:
    """The finite limit points of d at infinity, toward both ends.

    A side where d's limit is certified, as by :func:`limit_of`, adds that
    limit (:attr:`Certificate.limit`, exactly 0 within its zero margin);
    one where 1/d is certified to tend to 0 adds nothing. Only a side where
    both are refused is sampled, over the ``CLUSTER_WINDOWS`` largest of
    ``WINDOWS`` dyadic windows [2^s, 2^(s+1)], less those whose smallest |d|
    exceeds ``ESCAPE_BOUND``: an estimate. The values are clustered together.
    Both limits are read from ``ledger``, a :func:`tail_ledger` holding d
    as ``"d"`` and 1/d as ``"1/d"`` (built here when None).
    """
    if ledger is None:
        ledger = tail_ledger([("d", d), ("1/d", Div(Lit(1 + 0j), d))])
    retained: list[np.ndarray] = []
    exponents: set[int] = set()
    sources: dict[str, str] = {}
    for side, sign in (("+", 1.0), ("-", -1.0)):
        limit = ledger.certificate("d", side)
        if limit is not None:
            retained.append(np.array([limit.limit]))
            sources[side] = "certified"
            continue
        inverse = ledger.certificate("1/d", side)
        if inverse is not None and inverse.limit == 0:
            sources[side] = "escapes"
            continue
        sources[side] = "sampled"
        for s in range(max(0, WINDOWS - CLUSTER_WINDOWS), WINDOWS):
            xs = sign * np.linspace(2.0**s, 2.0 ** (s + 1), POINTS_PER_WINDOW)
            vals = evaluate_array(d, x=xs)
            finite = np.isfinite(vals)
            if not finite.any():
                continue
            if float(np.min(np.abs(vals[finite]))) > ESCAPE_BOUND:
                continue
            retained.append(vals[finite])
            exponents.add(s)
    if not retained:
        return ExceptionalSet((), (), (), sources)
    reps, radii = _cluster(np.concatenate(retained), CLUSTER_TOL)
    return ExceptionalSet(
        points=tuple(reps), radii=tuple(radii),
        window_exponents=tuple(sorted(exponents)), sources=sources)


# ---------------------------------------------------------------------------
# Assumption diagnostics
# ---------------------------------------------------------------------------

PROBE_MARGIN = 1e-3
"""Failures of probes this near the decoupling curve become inconclusive."""

BOUND_CAP = 1e8
"""Largest sampled magnitude that B1 and B3 accept as bounded."""

PROBE_CHUNK = 4
"""Probes whose grid values :func:`check_assumptions` holds at once; each
costs about 1.1 MB on the default validation grid, so memory stays bounded
however many probes a call takes."""


def check_assumptions(op: OperatorMatrix, symbol: SchurSymbol,
                      probes, grid: np.ndarray) -> Diagnostics:
    """Sampled evidence for the hypotheses, one record per (assumption, probe).

    B1: p_j and its first two x-derivatives stay below ``BOUND_CAP`` on the
    grid. B2: sampled |p_m| stays above a floor, so 1/p_m is bounded.
    B3: c_gamma/(d-lambda) and two derivative orders of b_beta/(d-lambda)
    stay below ``BOUND_CAP`` (a NaN sample leaves B1/B3 inconclusive). C:
    some angle theta keeps Re(e^{i theta} p_m) >= delta > 0 across the grid
    (the record carries the exact best margin and a theta attaining it,
    :func:`_sector_margin`). D: the coefficient limits converge on both
    sides. Failures are records, never exceptions. A probe lying within
    ``PROBE_MARGIN`` of the sampled decoupling curve downgrades its failures
    to "inconclusive": the hypotheses are genuinely violated on the curve
    itself, and a sampled check cannot distinguish the curve from its
    immediate neighborhood.

    The work is done once per call, not once per probe. No tree is
    differentiated or simplified, and none that mentions lambda is walked.
    One shared-subtree walk (:func:`~matspectra.expr.evaluate_batch`)
    samples on the grid the x-only trees of the symbol's lambda-free form
    and the operator's b and d with their first two x-derivatives, and c
    and the unsimplified decoupling function as plain values
    (:class:`_GridJets`); a second walk samples the form for D on the
    ``X0`` trajectories of both sides at once. The probes then go in
    (P, S) batches of at most ``PROBE_CHUNK``: array algebra in
    u = 1/(d - lambda), with u' = -d' u^2, gives every B1, B2 and B3
    value, each check reduces the stacked values, and one certificate scan
    per side gives D. Only C's convex hull is taken probe by probe.
    """
    grid = np.asarray(grid, dtype=float)
    probe_list = [complex(probe) for probe in probes]
    jets = _GridJets.sample(op, symbol, grid)
    trajectories = list(zip("+-", _forms(symbol, np.stack(
        [_trajectory("+"), _trajectory("-")], axis=1))))
    records: list[DiagnosticRecord] = []
    for start in range(0, len(probe_list), PROBE_CHUNK):
        records += _probe_records(jets, trajectories,
                                  probe_list[start:start + PROBE_CHUNK], grid)
    return Diagnostics(records=tuple(records))


def _probe_records(jets: _GridJets, trajectories, probe_list: list[complex],
                   grid: np.ndarray) -> list[DiagnosticRecord]:
    """The records of :func:`check_assumptions` for one batch of probes."""
    probes = np.array(probe_list, dtype=np.complex128)
    coefficients, p_m, weighted = jets.values(probes)
    near_curve = np.zeros(probes.shape, dtype=bool)
    if jets.delta.size:
        near_curve = np.min(np.abs(jets.delta - probes[:, None]),
                            axis=1) <= PROBE_MARGIN
    checks = zip(
        _check_bounded("B1", coefficients, probes, grid),
        _check_b2(p_m, probes, grid),
        _check_bounded("B3", weighted, probes, grid),
        [_check_c(values, probe, grid)
         for values, probe in zip(p_m, probe_list)],
        _check_d(trajectories, probes))
    records = []
    for near, batch in zip(near_curve.tolist(), checks):
        for record in batch:
            if near and record.status == "fail":
                label, location, measured = record.witness
                record = replace(
                    record, status="inconclusive",
                    witness=(f"probe within {PROBE_MARGIN:g} of the "
                             f"sampled decoupling curve; {label}",
                             location, measured))
            records.append(record)
    return records


class _GridJets(NamedTuple):
    """Grid samples of the x-only trees behind the B1, B2, B3 and C values
    and the decoupling curve, all from one shared-subtree walk
    (:func:`~matspectra.expr.evaluate_batch`).

    ``form`` is the symbol's lambda-free form as jets; B3 needs the
    operator's b_beta and d as jets and c_gamma as plain samples (None for
    a literal zero). ``delta`` holds the finite samples of the decoupling
    function d - b_n c_k / a_m, unsimplified.
    """

    form: _Form
    b: list[_Jet | None]
    c: list[np.ndarray | None]
    d: _Jet
    delta: np.ndarray

    @classmethod
    def sample(cls, op: OperatorMatrix, symbol: SchurSymbol,
               grid: np.ndarray) -> _GridJets:
        rows = symbol_rows(symbol)[0]
        jet_trees = [*(tree for *_, tree in rows),
                     *(b for b in op.b if not _zero(b)), op.d]
        plain_trees = [c for c in op.c if not _zero(c)] + [
            op.d - op.b[op.n] * op.c[op.k] / op.a[op.m]]
        jets, plain = evaluate_batch(grid, jet_trees, plain_trees)
        jet_of = dict(zip(map(id, jet_trees), jets))
        plain_of = dict(zip(map(id, plain_trees), plain))
        return cls(form=_sample_form(symbol, rows, grid, jets[:len(rows)]),
                   b=[_term(jet_of, b) for b in op.b],
                   c=[_term(plain_of, c) for c in op.c],
                   d=jet_of[id(op.d)],
                   delta=plain[-1][np.isfinite(plain[-1])])

    def values(self, probes):
        """Labelled B1 values, p_m and labelled B3 values at the probes.

        Every array has shape ``probes.shape`` + the grid's shape: a (P, S)
        batch for P probes, grid-shaped for a single probe.
        """
        probe = np.asarray(probes, dtype=np.complex128)[..., None]
        shape = np.broadcast_shapes(probe.shape, self.form.xs.shape)

        def zeros():
            return [np.zeros(shape, np.complex128) for _ in range(3)]

        u_symbol = _u_powers(self.form.d[0], probe, self.form.top + 2)
        u = _u_powers(self.d[0], probe, 3)
        # numpy makes 1/(0+0j) NaN, but where d = lambda exactly on the grid
        # f/(d - lambda) is unbounded wherever f does not vanish.
        pole = self.d[0] == probe

        def over(f, values):
            return np.where(pole & (f != 0), np.inf, values)

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
                 np.zeros(shape) if c is None else over(c, c * u[1]))
                for gamma, c in enumerate(self.c)]
            for beta, b in enumerate(self.b):
                series = _series(zeros(), [(1, b)], self.d, u)
                if b is not None:
                    series[0] = over(b[0], series[0])
                weighted += [
                    (f"d^{order}/dx^{order} of b_{beta}/(d-lambda)", values)
                    for order, values in enumerate(series)]
        return coefficients, coefficients[-3][1], weighted


def _per_probe(probes, record):
    """``record(index, probe)`` at every probe: one record for a single
    probe, a list of them for an array of probes."""
    probes = np.asarray(probes)
    records = [record(i, complex(probes[i])) for i in np.ndindex(probes.shape)]
    return records[0] if probes.ndim == 0 else records


def _check_bounded(assumption, labelled_values, probes, grid):
    """Fail on a sampled magnitude over ``BOUND_CAP``, infinite ones included;
    short of that, a NaN sample (undetermined in floating point, such as a
    forward-mode derivative through an underflow) is inconclusive.

    Elementwise over ``probes`` (:func:`_per_probe`): every value array has
    shape ``probes.shape`` + the grid's shape. The magnitudes of all labels
    are reduced as one stack; the witness is the first label holding the
    largest magnitude (or a NaN), at its first grid point holding it.
    """
    probes = np.asarray(probes)
    labels = [label for label, _ in labelled_values]
    mags = np.empty((*probes.shape, len(labels), grid.size))
    for k, (_, values) in enumerate(labelled_values):
        np.abs(values, out=mags[..., k, :])
    mags = mags.reshape(*probes.shape, len(labels) * grid.size)
    nan = np.isnan(mags)
    undetermined = nan.any(axis=-1)
    first_nan = np.argmax(nan, axis=-1)
    mags[nan] = 0.0
    at = np.argmax(mags, axis=-1)
    worst = np.max(mags, axis=-1)

    def record(i, probe):
        if worst[i] > BOUND_CAP:
            label, x = divmod(int(at[i]), grid.size)
            return DiagnosticRecord(assumption, "fail", probe=probe, witness=(
                f"sampled |{labels[label]}| exceeds bound cap",
                float(grid[x]), float(worst[i])))
        if undetermined[i]:
            label, x = divmod(int(first_nan[i]), grid.size)
            return DiagnosticRecord(assumption, "inconclusive", probe=probe,
                                    witness=(f"sampled {labels[label]} is "
                                             "NaN, undetermined in floating "
                                             "point", float(grid[x]),
                                             math.nan))
        return DiagnosticRecord(assumption, "pass", probe=probe)

    return _per_probe(probes, record)


def _check_b2(p_m, probes, grid):
    """B2 elementwise over ``probes``, as :func:`_check_bounded`."""
    mags = np.abs(p_m)
    finite = np.isfinite(mags)
    anywhere = finite.any(axis=-1)
    mags = np.where(finite, mags, np.inf)
    at = np.argmin(mags, axis=-1)
    smallest = np.min(mags, axis=-1)

    def record(i, probe):
        if not anywhere[i]:
            return DiagnosticRecord(
                "B2", "inconclusive", probe=probe,
                witness=("p_m not finite anywhere on the grid",
                         float(grid[0]), np.inf))
        if smallest[i] >= INVERSE_FLOOR:
            return DiagnosticRecord("B2", "pass", probe=probe)
        return DiagnosticRecord(
            "B2", "fail", probe=probe,
            witness=("sampled |p_m| falls below the invertibility floor",
                     float(grid[at[i]]), float(smallest[i])))

    return _per_probe(probes, record)


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


TURN_TOL = 8.0 * np.finfo(float).eps
"""A turn a -> b -> c counts as a left turn only when cross(b - a, c - b)
exceeds this times |b - a| |c - b|, so that a turn flat within rounding
does not."""

def _hull(v: np.ndarray) -> np.ndarray:
    """Convex hull vertices of complex samples, counterclockwise from the
    leftmost (the lowest of those), by Andrew's monotone chain (Inf.
    Process. Lett. 9, 1979); for samples on one line the ends of their
    segment, or one point.
    """
    p = v[np.lexsort((v.imag, v.real))]
    p = p[np.concatenate(([True], p[1:] != p[:-1]))]
    if p.size < 3:
        return p
    # The upper chain is the lower chain of the samples turned by pi.
    return np.concatenate([_chain(p)[:-1], -_chain(-p[::-1])[:-1]])


def _chain(p: np.ndarray) -> np.ndarray:
    """The lower hull chain of samples p sorted by (real, imag), from p[0]
    to p[-1].

    Vectorised passes drop every interior point that makes no strict left
    turn between its current neighbours: it lies on or above the segment
    joining them, so it is no vertex of the chain. Once a pass drops
    nothing, the chain is convex and is the hull's. The passes stop early
    once one drops no fewer points than the one before: what is left then
    are concave runs, which passes shorten by a point or two each. A
    sequential chain over the survivors finishes it. Once its last two
    points are neighbours that the last pass kept, each following survivor
    that turned left between its neighbours in that pass is appended
    untested, the whole run in one slice. Where a point pops the chain's
    end, the chain jumps on to the point seen clockwise-most from its new
    end, since every point before that one lies on or above the segment to
    it.
    """
    previous = p.size
    while True:
        turns = _left_turn(p[:-2], p[1:-1], p[2:])
        dropped = turns.size - np.count_nonzero(turns)
        if dropped == 0:
            return p
        kept = np.flatnonzero(np.concatenate(([True], turns, [True])))
        p = p[kept]
        if dropped >= previous:
            break
        previous = dropped
    n = p.size
    # settled[i]: survivor i kept both its neighbours in the last pass, so
    # it turns left between survivors i - 1 and i + 1.
    adjacent = np.diff(kept) == 1
    settled = np.concatenate(([False], adjacent[:-1] & adjacent[1:], [False]))
    # run_end[i]: the first survivor from i on that is not settled.
    run_end = np.minimum.accumulate(
        np.where(settled, n, np.arange(n))[::-1])[::-1].tolist()
    points = p.tolist()
    chain = [0]  # indices into p
    at = 1
    while at < n:
        c = points[at]
        if len(chain) > 1 and not _left_turn(points[chain[-2]],
                                             points[chain[-1]], c):
            # Pop every end that c does not turn left from, in one test.
            ends = p[chain]
            turns = np.flatnonzero(_left_turn(ends[:-2], ends[1:-1], c))
            del chain[turns[-1] + 2 if turns.size else 1:]
            angle = np.angle(p[at:] - points[chain[-1]])
            at += int(np.flatnonzero(angle == angle.min())[-1])
            continue
        chain.append(at)
        if chain[-2] == at - 1:
            chain.extend(range(at + 1, run_end[at] + 1))
            at = run_end[at]
        at += 1
    return p[chain]


def _left_turn(a, b, c):
    """Whether a -> b -> c turns left by more than rounding; elementwise
    for arrays, plain bool for Python complex numbers."""
    ab = b - a
    bc = c - b
    cross = ab.real * bc.imag - ab.imag * bc.real
    return cross > TURN_TOL * abs(ab) * abs(bc)


def _check_d(trajectories, probes: np.ndarray) -> list[DiagnosticRecord]:
    """D at every probe from (side, trajectory form) pairs sampled once.

    Each side takes one ratio batch and one certificate scan for all
    probes. A probe fails at the first side that refuses its limits, with
    the error :func:`limit_ratio` raises there.
    """
    refused: dict[int, tuple[str, NotConvergent | PoleError]] = {}
    for side, form in trajectories:
        samples, block, status = _ratio_scan(form, probes)
        for k in np.flatnonzero(status != "ok").tolist():
            if k not in refused:
                refused[k] = side, _ratio_refusal(samples, block, status[k],
                                                  k, form.xs, side)
    records = []
    for k, probe in enumerate(probes.tolist()):
        side, exc = refused.get(k, (None, None))
        if exc is None:
            records.append(DiagnosticRecord("D", "pass", probe=probe))
        elif isinstance(exc, PoleError):
            records.append(DiagnosticRecord(
                "D", "fail", probe=probe,
                witness=(f"trajectory toward {side}infinity hit a pole: "
                         f"{exc}", probe, np.inf)))
        else:
            tail_increment = exc.witness[-1][1] if exc.witness else np.inf
            records.append(DiagnosticRecord(
                "D", "fail", probe=probe,
                witness=(f"coefficient limits toward {side}infinity did not "
                         "converge", probe, float(tail_increment))))
    return records
