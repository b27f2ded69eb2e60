"""Spectrum assembly: regular curve sampling, singular sweep, CSV output."""

from __future__ import annotations

import dataclasses
import json
import math
import random
import re
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factories import (
    PARABOLIC_CFG,
    QUARTIC_CFG,
    parabolic_potential,
    quartic_coupled,
    random_constant_operator,
    random_operator,
    window_crossing,
)
from oracles import bisection_sweep, limit_on
from matspectra import config as config_module
from matspectra.asymptotics import (LIMIT_TOL, ExceptionalSet, _trajectory,
                                    limit_of, limit_points_at_infinity,
                                    symbol_limits, symbol_rows)
from matspectra.config import SolverConfig, window_contains
from matspectra.asymptotics import limit_ratio, limit_ratio_batch
from matspectra.errors import (ConfigError, FitError, LimitRefused,
                               NotConvergent, PoleError)
from matspectra.expr import Call, Lit, X, evaluate, parse
from matspectra import spectrum as spectrum_module
from matspectra.model import OperatorMatrix, delta, load_operator
from matspectra.oracle import det_scan, freeze
from matspectra.schur import build_schur
from matspectra.spectrum import (
    CSV_HEADER,
    DEDUPE_TOL,
    EXC_TOL,
    FIT_TOL,
    NEWTON_STEPS,
    REGULAR_SIDE,
    ROOT_TOL,
    SIDES,
    SKIP_KINDS,
    SKIP_SAMPLE,
    RegularPoint,
    RegularTable,
    SingularPoint,
    SingularTable,
    WORK_COUNTERS,
    RootTable,
    SpectrumSet,
    _assign_branches,
    _cleared_coefficients,
    _closed_form_side,
    _companion_roots,
    _fit_side,
    _flag_singular,
    _keep_pad,
    _merge_sides,
    _near_window,
    _polish_batch,
    _segment_needs_split,
    _sweep_side,
    _track_pad,
    default_xi_grid,
    essential_spectrum,
    regular_part,
    singular_part,
    spectrum_rows,
    write_csv,
)

ZERO = Lit(0j)
ONE = Lit(1 + 0j)
replace_op = dataclasses.replace


def finite_points(points):
    return [p for p in points if math.isfinite(p.x_param)]


def endpoint_points(points):
    return {p.x_param: p.lam for p in points if not math.isfinite(p.x_param)}


# ---------------------------------------------------------------------------
# Regular part
# ---------------------------------------------------------------------------

class TestRegularPart:
    def test_parabolic_curve_is_real_and_capped_at_minus_one(self):
        op = parabolic_potential()
        report = {}
        points = regular_part(op, report=report)
        finite = finite_points(points)
        assert finite, "expected finite curve samples"
        assert not endpoint_points(points), \
            "a divergent curve must not report endpoint limits"
        lams = np.asarray([p.lam for p in finite])
        assert np.max(np.abs(lams.imag)) <= 1e-12
        assert abs(np.max(lams.real) - (-1.0)) <= 1e-9
        # resolution inside the window: image gaps below curve_res
        cfg = SolverConfig()
        re_sorted = np.sort(lams.real[lams.real >= -9.9])
        assert re_sorted.size > 100
        assert np.max(np.diff(re_sorted)) <= cfg.curve_res + 1e-12
        assert report["regular"]["endpoints"]["+"]["converged"] is False

    def test_parabolic_points_lie_on_the_decoupling_curve(self):
        op = parabolic_potential()
        dexpr = delta(op)
        points = finite_points(regular_part(op))
        sample = points[:: max(1, len(points) // 50)]
        for p in sample:
            assert abs(p.lam - evaluate(dexpr, x=p.x_param)) <= 1e-12

    def test_quartic_endpoints_certified(self):
        op = quartic_coupled()
        report = {}
        points = regular_part(op, report=report)
        ends = endpoint_points(points)
        assert set(ends) == {math.inf, -math.inf}
        assert abs(ends[math.inf] - (-1j)) <= 1e-7
        assert abs(ends[-math.inf] - (-1j)) <= 1e-7
        assert report["regular"]["endpoints"]["+"]["converged"] is True

    def test_constant_curve_collapses_to_a_single_point(self):
        value = 0.3 + 0.7j
        op = OperatorMatrix(a=(ZERO, ZERO, ONE), b=(ZERO, ZERO),
                            c=(ZERO, ZERO), d=Lit(value))
        points = regular_part(op)
        finite = finite_points(points)
        assert len(finite) == 1
        assert abs(finite[0].lam - value) <= 1e-12
        ends = endpoint_points(points)
        assert set(ends) == {math.inf, -math.inf}
        for lam in ends.values():
            assert abs(lam - value) <= 1e-9

    @pytest.mark.parametrize("d_text", ["1 + 1/(1 + x^2)",
                                        "1 + 1/sqrt(1 + x^2)"])
    def test_endpoints_that_decay_to_zero_are_exactly_zero(self, d_text):
        # delta = 1/(1 + x^2) or 1/sqrt(1 + x^2); the certified values were
        # 1.455e-11 and 2.33e-10, while Certificate.limit reads both as 0.
        op = OperatorMatrix(a=(ZERO, ZERO, ONE), b=(ZERO, ONE),
                            c=(ZERO, ONE), d=parse(d_text))
        report = {}
        ends = endpoint_points(regular_part(op, report=report))
        assert ends == {math.inf: 0j, -math.inf: 0j}
        for entry in report["regular"]["endpoints"].values():
            assert entry["value"] == [0.0, 0.0]

    def test_refused_endpoints_name_their_cause(self):
        # The parabolic's curve -x^2 - 1 diverges toward both ends: each
        # refused end carries the error limit_of raises there.
        op = parabolic_potential()
        report = {}
        regular_part(op, report=report)
        for side in "+-":
            with pytest.raises(NotConvergent) as refusal:
                limit_of(delta(op), side)
            assert report["regular"]["endpoints"][side] == {
                "converged": False, "reason": "NotConvergent",
                "message": str(refusal.value)}
            assert "did not settle" in str(refusal.value)


def test_each_side_reads_its_own_tail_limits():
    # d = atan(x) + exp(x) tends to -pi/2 toward -infinity and escapes
    # toward +infinity, so the decoupling function converges at one end
    # only and the two sides' symbols differ in route: each side's
    # endpoint, limit point, source and symbol limits must be the ones
    # each tree gives certified on its own toward that side
    # (oracles.limit_on).
    op = OperatorMatrix(a=(parse("1/(1 + x^2)"), ZERO, ONE),
                        b=(ZERO, parse("2 + 1/(1 + x^2)")),
                        c=(ZERO, Lit(1j)), d=parse("atan(x) + exp(x)"))
    cfg = SolverConfig().with_overrides(window=(-3.0, 3.0, -3.0, 3.0),
                                        curve_res=5e-2, xi_points=50)
    report = essential_spectrum(op, cfg).report

    def outcome(tree, side, recheck=False):
        try:
            certificate = limit_on(tree, side,
                                   _trajectory(side, recheck))[1]
        except (NotConvergent, PoleError) as exc:
            return type(exc).__name__, str(exc)
        return certificate

    points, sources = [], {}
    for side in "+-":
        end = outcome(delta(op), side)
        if isinstance(end, tuple):
            expected = {"converged": False, "reason": end[0],
                        "message": end[1]}
        else:
            expected = {"converged": True, "samples": end.sample_count,
                        "value": [end.limit.real, end.limit.imag]}
        assert report["regular"]["endpoints"][side] == expected
        d_limit = outcome(op.d, side)
        if isinstance(d_limit, tuple):
            inverse = outcome(Lit(1 + 0j) / op.d, side)
            assert inverse.limit == 0
            sources[side] = "escapes"
        else:
            points.append([d_limit.limit.real, d_limit.limit.imag])
            sources[side] = "certified"
    assert report["exceptional"]["points"] == points
    assert report["exceptional"]["sources"] == sources
    assert sources == {"+": "escapes", "-": "certified"}
    assert [end["converged"] for end in
            report["regular"]["endpoints"].values()] == [True, False]

    trees = {row[0]: row[-1] for rows in symbol_rows(build_schur(op))
             for row in rows}
    for side in "+-":
        limits = report["singular"]["fits"][side]["limits"]
        assert limits[0]["label"] == ("1/d" if side == "+" else "d")
        for entry in limits:
            for key, recheck in ((None, False), ("recheck", True)):
                certificate = outcome(trees[entry["label"]], side, recheck)
                got = entry if key is None else entry[key]
                assert got["value"] == [certificate.value.real,
                                        certificate.value.imag]
                assert got["sample_count"] == certificate.sample_count
                assert got["last_increment"] == certificate.last_increment


# ---------------------------------------------------------------------------
# Singular part
# ---------------------------------------------------------------------------

class TestSingularPart:
    def test_parabolic_named_frequencies(self):
        op = parabolic_potential()
        cfg = SolverConfig().with_overrides(curve_res=0.25)
        points = singular_part(op, xi_grid=[-2.0, 0.0, 2.0], cfg=cfg)
        by_xi = {}
        for p in points:
            by_xi.setdefault(p.xi, []).append(p)
        # named frequencies answered exactly; refinement may add more
        assert {-2.0, 0.0, 2.0} <= set(by_xi)
        for xi, expected in ((-2.0, 4.0), (0.0, 0.0), (2.0, 4.0)):
            (point,) = by_xi[xi]
            assert point.side == REGULAR_SIDE
            assert abs(point.lam - expected) <= 1e-7
        for p in points:
            assert abs(p.lam - p.xi ** 2) <= 1e-6

    def test_parabolic_branch_continuation_and_refinement(self):
        op = parabolic_potential()
        cfg = SolverConfig().with_overrides(curve_res=0.05)
        points = singular_part(op, xi_grid=np.linspace(0.5, 3.0, 26), cfg=cfg)
        assert all(p.side == REGULAR_SIDE for p in points)
        assert len({p.branch_id for p in points}) == 1
        for p in points:
            assert abs(p.lam - p.xi ** 2) <= 1e-6
        ordered = sorted(points, key=lambda p: p.xi)
        lams = np.asarray([p.lam for p in ordered])
        gaps = np.abs(np.diff(lams))
        assert len(points) > 26, "refinement must add frequencies"
        assert np.max(gaps) <= cfg.curve_res + 1e-9

    def test_quartic_zero_frequency_roots(self):
        op = quartic_coupled()
        report = {}
        points = singular_part(op, xi_grid=[0.0], report=report)
        assert len(points) == 2
        assert all(p.side == REGULAR_SIDE for p in points)
        lams = sorted((p.lam for p in points), key=lambda z: z.real)
        assert abs(lams[0] - 0.0) <= 1e-8
        assert abs(lams[1] - 1.0) <= 1e-8
        fits = report["singular"]["fits"]
        for side in ("+", "-"):
            # The common factor lambda = d^inf = 0 is divided out exactly.
            assert fits[side]["route"] == "closed_form"
            assert fits[side]["cancelled_power"] == 1

    def test_constant_coefficients_follow_the_symbol_polynomial(self):
        coeffs = (0.4 - 0.2j, 0.1j, 1.0 + 0j)
        op = OperatorMatrix(a=tuple(Lit(c) for c in coeffs),
                            b=(ZERO, ZERO), c=(ZERO, ZERO), d=Lit(0.25j))
        cfg = SolverConfig().with_overrides(curve_res=0.5)
        points = singular_part(op, xi_grid=np.linspace(-3.0, 3.0, 13), cfg=cfg)
        assert points
        assert all(p.side == REGULAR_SIDE for p in points)
        for p in points:
            predicted = coeffs[0] + coeffs[1] * p.xi + coeffs[2] * p.xi ** 2
            assert abs(p.lam - predicted) <= 1e-7

    def test_root_count_per_frequency_is_bounded(self):
        op = quartic_coupled()
        cfg = SolverConfig().with_overrides(curve_res=0.2)
        points = singular_part(op, xi_grid=np.linspace(-1.5, 1.5, 21), cfg=cfg)
        counts = {}
        for p in points:
            counts[(p.side, p.xi)] = counts.get((p.side, p.xi), 0) + 1
        assert counts
        assert max(counts.values()) <= op.n + 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_frequency_refused(self, bad):
        # NaN made np.union1d and np.setdiff1d disagree in _merge_sides
        # (IndexError); an infinite frequency was solved as a degenerate row.
        cfg = SolverConfig().with_overrides(curve_res=0.25)
        with mock.patch.object(spectrum_module, "_sweep_side") as sweep, \
                pytest.raises(ConfigError,
                              match=f"finite, got {bad} at index 1"):
            singular_part(parabolic_potential(), xi_grid=[0.5, bad, 1.0],
                          cfg=cfg)
        sweep.assert_not_called()

    def test_xi_max_below_the_default_grid_refused(self):
        # np.logspace ran from XI_MIN down to xi_max, so xi_max = 1e-4
        # swept |xi| up to 1e-3: 801 frequencies, ten times the maximum.
        message = ("xi_max 0.0001 lies below the smallest frequency of the "
                   "default grid, 0.001")
        with mock.patch.object(spectrum_module, "_sweep_side") as sweep, \
                pytest.raises(ConfigError, match=re.escape(message)):
            singular_part(quartic_coupled(), cfg=SolverConfig(xi_max=1e-4))
        sweep.assert_not_called()

    def test_xi_max_at_the_default_grid_minimum_sweeps_three(self):
        cfg = SolverConfig(xi_max=spectrum_module.XI_MIN)
        assert default_xi_grid(cfg).tolist() == [-1e-3, 0.0, 1e-3]
        with mock.patch.object(spectrum_module, "_solve_at",
                               wraps=spectrum_module._solve_at) as solve:
            singular_part(quartic_coupled(), cfg=cfg)
        assert solve.call_args_list[0].args[2].tolist() == [-1e-3, 0.0, 1e-3]

    @pytest.mark.parametrize("factory, xi_max", [
        (parabolic_potential, 1e160), (quartic_coupled, 1e160),
        (quartic_coupled, 1e78)])
    def test_frequency_whose_power_overflows_refused(self, factory, xi_max):
        # |xi|^m overflowed in _cleared_coefficients, and the rows it reached
        # were logged as IdentitySkip "cleared polynomial is numerically zero".
        op = factory()
        message = f"frequency {-xi_max} is too large: |xi|^{op.m} overflows"
        with mock.patch.object(spectrum_module, "_sweep_side") as sweep, \
                pytest.raises(ConfigError, match=re.escape(message)):
            singular_part(op, cfg=SolverConfig(xi_max=xi_max))
        sweep.assert_not_called()

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_frequency_whose_cleared_coefficients_overflow_refused(self,
                                                                   seed):
        # |xi|^2 is finite at 1.3e154, but xi^2 times Q's coefficients is
        # not (seeds 0 and 1), or the coefficients sum past the float range
        # (seed 5). Before, seed 1 raised a bare LinAlgError from
        # _companion_roots and seeds 0 and 5 warned of overflow.
        op = random_operator(random.Random(seed), 2, settling=True)
        cfg = SolverConfig(xi_max=1.3e154, xi_points=20, curve_res=0.5)
        message = r"frequency -1\.3\d*e\+154 is too large: the coefficients"
        with mock.patch.object(spectrum_module, "_companion_roots") as roots, \
                pytest.raises(ConfigError, match=message):
            singular_part(op, cfg=cfg)
        roots.assert_not_called()

    def test_quartic_below_the_overflow_sweeps_every_row(self):
        report = {}
        singular_part(quartic_coupled(), cfg=SolverConfig(xi_max=1e76),
                      report=report)
        assert report["singular"]["skip_counts"]["IdentitySkip"] == 0

    def test_fit_failure_raises(self):
        op = OperatorMatrix(a=(Call("sin", X), ZERO, ONE), b=(ZERO, ZERO),
                            c=(ZERO, ZERO), d=Lit(2j))
        with pytest.raises(FitError, match="limit samples"):
            singular_part(op, xi_grid=[1.0])

    def test_fit_that_misses_fit_tol_is_refused(self, monkeypatch):
        # Only a trusted fit gives the slope the polish accepts roots by.
        real_fit = spectrum_module._fit_rational

        def loose(*args):
            numerators, denominator, _ = real_fit(*args)
            return numerators, denominator, 1e-3

        monkeypatch.setattr(spectrum_module, "_fit_rational", loose)
        report = {}
        with pytest.raises(FitError, match="meets fit_tol"):
            singular_part(growing_coefficients(), xi_grid=[1.0],
                          report=report)
        for side in ("+", "-"):
            fit = report["singular"]["fits"][side]
            assert fit["route"] == "fit"
            assert "best residual is 1.000e-03" in fit["error"]


# ---------------------------------------------------------------------------
# Singular sweep: the closed-form tail polynomial
# ---------------------------------------------------------------------------

def test_quartic_closed_form_is_the_exact_tail_polynomial():
    # -[(i + lambda) xi^4 + i lambda xi^2 + xi + lambda - lambda^2], after
    # the factor lambda - d^inf = lambda is divided out.
    symbol = build_schur(quartic_coupled())
    profile, cancelled = _closed_form_side(symbol, "+",
                                           symbol_limits(symbol, "+"))
    assert cancelled == 1
    want = np.array([[0, -1, 1], [-1, 0, 0], [0, -1j, 0], [0, 0, 0]])
    assert np.abs(profile.numerators - want).max() <= 1e-9
    assert np.abs(profile.denominator - [-1j, -1]).max() <= 1e-9
    assert profile.limits is not None


def test_parabolic_closed_form_has_a_diverging_d():
    symbol = build_schur(parabolic_potential())
    profile, cancelled = _closed_form_side(symbol, "-",
                                           symbol_limits(symbol, "-"))
    assert cancelled == 0 and profile.limits.d_diverges
    assert np.array_equal(profile.numerators, [[0, -1], [0, 0]])
    assert np.array_equal(profile.denominator, [1])


def test_closed_form_newton_settles_near_roots_and_drops_the_rest():
    # Parabolic tail xi^2 - lambda at xi = 2: the root is 4. A seed 1e-6 off
    # is one Newton step from it. A seed on the pole of F with Q = lambda - 1
    # stays there (F/F' = 0) until the steps run out; one where F' = 0 has
    # no finite step.
    profile = spectrum_module.RationalProfile(
        "+", numerators=np.array([[0, -1], [0, 0]], dtype=complex),
        denominator=np.array([1], dtype=complex), limits=mock.Mock())
    coeffs = spectrum_module._cleared_coefficients(profile, 2,
                                                   np.array([2.0, 2.0]))
    skips, work = [], dict.fromkeys(WORK_COUNTERS, 0)
    kept, lam = spectrum_module._settle_closed_form(
        profile, coeffs, np.array([2.0, 2.0]), np.array([4.0, 4 + 1e-6]),
        skips, work)
    assert kept.tolist() == [True, True]
    assert lam.tolist() == [4.0, 4.0]
    assert work["newton_iterations"] == 1 and skips == []

    pole = dataclasses.replace(profile,
                               denominator=np.array([-1, 1], dtype=complex))
    coeffs = spectrum_module._cleared_coefficients(pole, 2, np.array([2.0]))
    kept, lam = spectrum_module._settle_closed_form(
        pole, coeffs, np.array([2.0]), np.array([1.0 + 0j]), skips, work)
    assert kept.tolist() == [False] and lam.tolist() == [1.0]
    flat = dataclasses.replace(
        profile, numerators=np.array([[1, 0, 1], [0, 0, 0]], dtype=complex))
    coeffs = spectrum_module._cleared_coefficients(flat, 2, np.array([0.0]))
    kept, _ = spectrum_module._settle_closed_form(
        flat, coeffs, np.array([0.0]), np.array([0j]), skips, work)
    assert kept.tolist() == [False]
    assert [(s["type"], s["reason"]) for s in skips] == [
        ("PolishSkip", "Newton on the closed-form F did not reach the root "
         "tolerance"),
        ("PolishSkip", "the closed-form F has no finite Newton step")]


def test_closed_form_accepts_a_root_near_a_pole_by_its_newton_step():
    # F = xi^2 - 1/(lambda - 1) has its root 1 + xi^-2 next to the pole 1.
    # At xi = 1e3, F' = 1e12 there, so the nearest float leaves |F| ~ 1e-4
    # > root_tol although the root is located to 1e-16. A seed 1e-12 from
    # the pole has a tiny F/F' too, but C = (lambda - 1) xi^2 - 1 is -1
    # there, so it is no root; Newton only doubles its distance.
    profile = spectrum_module.RationalProfile(
        "+", numerators=np.array([[-1, 0], [0, 0]], dtype=complex),
        denominator=np.array([-1, 1], dtype=complex), limits=mock.Mock())
    xi = np.array([1e3, 1e3])
    coeffs = spectrum_module._cleared_coefficients(profile, 2, xi)
    root = 1 + 1e-6
    skips, work = [], dict.fromkeys(WORK_COUNTERS, 0)
    kept, lam = spectrum_module._settle_closed_form(
        profile, coeffs, xi, np.array([root, 1 + 1e-12], dtype=complex),
        skips, work)
    assert abs(xi[0] ** 2 - 1 / (root - 1)) > ROOT_TOL
    assert kept.tolist() == [True, False]
    assert lam[0] == root and abs(lam[1] - 1) == pytest.approx(8e-12)
    assert work["newton_iterations"] == 3
    assert [s["reason"] for s in skips] == [
        "Newton on the closed-form F did not reach the root tolerance"]


SLOW_TAILS = ["x/(1 + x^2)", "exp(-0.4*log(1 + x^2))"]


@pytest.mark.parametrize("tail", SLOW_TAILS)
def test_slowly_vanishing_limits_add_no_points(tail):
    # d and the coupling b_0 tending to 0 like x^-1 or x^-0.8 have the
    # quartic's frozen limits, so the closed form must give its points
    # exactly, with none added at lambda = d^inf = 0.
    base = quartic_coupled()
    cfg = SolverConfig().with_overrides(xi_points=100, curve_res=0.01)
    want = singular_part(base, cfg=cfg)
    for op in (replace_op(base, d=parse(f"exp(-x^2/2) + i*{tail}")),
               replace_op(base, b=(parse(tail), base.b[1]))):
        report = {}
        got = singular_part(op, cfg=cfg, report=report)
        assert {fit["route"] for fit in report["singular"]["fits"].values()} \
            == {"closed_form"}
        assert [(p.xi, p.lam, p.side) for p in got] \
            == [(p.xi, p.lam, p.side) for p in want]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 4]),
       side=st.sampled_from("+-"))
def test_closed_form_ratios_match_certified_limit_ratios(seed, m, side):
    # Coefficients that settle, many of them to 0 (exp(-x^2/2), c/(x^2+s)),
    # so the zero test and the cancellation at d^inf are both exercised.
    rng = random.Random(seed)
    symbol = build_schur(random_operator(rng, m, settling=True))
    profile, _ = _closed_form_side(symbol, side,
                                   symbol_limits(symbol, side))
    for _ in range(3):
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        try:
            want, _ = limit_ratio(symbol, lam, side)
        except (NotConvergent, PoleError):
            continue
        powers = lam ** np.arange(profile.numerators.shape[1])
        got = profile.numerators @ powers / (
            profile.denominator @ powers[:profile.denominator.size])
        assert np.abs(got - want).max() <= 1e-6 * (1 + np.abs(want).max())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 4]))
def test_closed_form_points_match_det_scan(seed, m):
    op = random_constant_operator(random.Random(seed), m)
    cfg = SolverConfig().with_overrides(curve_res=0.1, xi_points=60)
    report = {}
    points = singular_part(op, cfg=cfg, report=report)
    assert {fit["route"] for fit in report["singular"]["fits"].values()} \
        == {"closed_form"}
    if not points:
        return
    scan = det_scan(freeze(op, "+", cfg), [p.xi for p in points])
    roots = np.asarray([s.roots for s in scan])
    lams = np.asarray([p.lam for p in points])
    assert np.abs(roots - lams[:, None]).min(axis=1).max() <= 1e-6


def _closed_form_or_none(symbol, side):
    try:
        return _closed_form_side(symbol, side,
                                 symbol_limits(symbol, side))[0]
    except LimitRefused:
        return None


def _sweeps_with_reuse_checked(op, cfg) -> tuple[int, dict]:
    """Run ``singular_part`` and check a reused - sweep against a fresh one.

    The - side must reuse the + sweep exactly when both sides take the
    closed form with byte-identical profiles; then its table, sweep report
    and skips must equal those of ``_sweep_side`` on its own profile, bit
    for bit, and ``_merge_sides`` must not run. Either way the points and
    the report must equal, bit for bit, those of a run that merges the
    sides whatever they are. Returns the number of sweeps
    ``singular_part`` ran and its report.
    """
    symbol = build_schur(op)
    sweep = spectrum_module._sweep_side
    merge = spectrum_module._merge_sides
    runs = []
    merges = []

    def recorded(symbol, profile, xi_grid, cfg, skips):
        table, info = sweep(symbol, profile, xi_grid, cfg, skips)
        runs.append((table, dict(info), skips))
        return table, info

    def counted(plus, minus):
        merges.append(minus is plus)
        return merge(plus, minus)

    report = {}
    with mock.patch.object(spectrum_module, "_sweep_side", recorded), \
            mock.patch.object(spectrum_module, "_merge_sides", counted):
        points = singular_part(op, symbol, cfg=cfg, report=report)
    forced = {}
    with mock.patch.object(spectrum_module, "_side_classes", counted):
        merged = singular_part(op, symbol, cfg=cfg, report=forced)
    for name in ("side", "xi", "lam", "branch_id", "flags"):
        assert getattr(points, name).dtype == getattr(merged, name).dtype
        assert getattr(points, name).tobytes() \
            == getattr(merged, name).tobytes()
    assert json.dumps(report["singular"]) == json.dumps(forced["singular"])
    sweeps = report["singular"]["sweeps"]
    # A reused - side merges only in the forced run, and there with itself.
    assert merges == ([True] if sweeps.get("-", {}).get("reused") == "+"
                      else [False, False])
    plus, minus = (_closed_form_or_none(symbol, side) for side in "+-")
    same = plus is not None and minus is not None and (
        plus.numerators.shape == minus.numerators.shape
        and plus.numerators.tobytes() == minus.numerators.tobytes()
        and plus.denominator.tobytes() == minus.denominator.tobytes())
    if not same:
        assert "reused" not in sweeps.get("-", {})
        return len(runs), report
    assert len(runs) == 1 and sweeps["-"]["reused"] == "+"
    table, info, skips = runs[0]
    fresh_skips = []
    fresh, fresh_info = sweep(symbol, minus, default_xi_grid(cfg), cfg,
                              fresh_skips)
    for name in ("xi", "lam", "count"):
        assert getattr(fresh, name).tobytes() == getattr(table, name).tobytes()
    assert fresh_info == info
    assert {k: v for k, v in sweeps["-"].items() if k != "reused"} \
        == sweeps["+"]
    assert [e for e in skips if e["side"] == "-"] == fresh_skips
    return len(runs), report


SMALL_SWEEP = SolverConfig().with_overrides(curve_res=0.1, xi_points=60)
"""Settings of the random-operator corpora, small enough for tier 1."""


@pytest.mark.parametrize("path", [QUARTIC_CFG, PARABOLIC_CFG],
                         ids=["quartic", "parabolic"])
def test_bundled_operators_sweep_their_tail_polynomial_once(path):
    cfg = SolverConfig().with_overrides(window=(-2.0, 2.0, -2.0, 2.0),
                                        curve_res=1e-2)
    assert _sweeps_with_reuse_checked(load_operator(path), cfg)[0] == 1


@pytest.mark.parametrize("m", [2, 4])
def test_reused_sweeps_of_constant_operators_are_exact(m):
    for seed in range(50):
        op = random_constant_operator(random.Random(seed), m)
        assert _sweeps_with_reuse_checked(op, SMALL_SWEEP)[0] == 1


def test_reused_sweeps_of_settling_operators_are_exact():
    runs = set()
    for seed in range(50):
        rng = random.Random(seed)
        op = random_operator(rng, rng.choice([2, 4]), settling=True)
        runs.add(_sweeps_with_reuse_checked(op, SMALL_SWEEP)[0])
    # Most draws share one sweep; on a few (seeds 41, 45 and 46) a limit
    # differs between the ends in its last bits, and each end is swept.
    assert runs == {1, 2}


def _points_by_xi(freqs, xi, lam):
    """(F, K) NaN-padded points at each of the ascending ``freqs``."""
    order = np.argsort(xi, kind="stable")
    xi, lam = xi[order], lam[order]
    row = np.searchsorted(freqs, xi)
    slot = np.arange(xi.size) - np.searchsorted(xi, freqs)[row]
    out = np.full((freqs.size, slot.max(initial=-1) + 1), np.nan,
                  dtype=complex)
    out[row, slot] = lam
    return out


def _assert_points_and_det_scan_roots_match(op, cfg):
    """Both directions between the points and the frozen determinants.

    Toward each end, at every grid frequency and every frequency of a
    point of that end (the neutral side belongs to both), every point lies
    within 1e-6 of a ``det_scan`` root, and every root in the window within
    1e-6 of a point unless it lies within ``EXC_TOL`` of the exceptional
    set: the closed form divides the root at lambda = d^inf out. ``freeze``
    counts a decaying coefficient's limit as exactly 0, as the closed form
    does, so the near-double root that lambda = d^inf and the tail make at
    small |xi| is held to 1e-6 too.
    """
    report = {}
    points = singular_part(op, cfg=cfg, report=report)
    assert {fit["route"] for fit in report["singular"]["fits"].values()} \
        == {"closed_form"}
    exceptional = np.asarray(limit_points_at_infinity(op.d).points,
                             dtype=complex)

    def near_exceptional(lam):
        gap = np.abs(lam[..., None] - exceptional)
        return np.min(gap, axis=-1, initial=np.inf) <= EXC_TOL

    for code, side in enumerate("+-"):
        mine = np.isin(points.side, [code, SIDES.index(REGULAR_SIDE)])
        freqs = np.union1d(default_xi_grid(cfg), points.xi[mine])
        roots = np.asarray([s.roots for s in det_scan(freeze(op, side, cfg),
                                                      freqs)])
        emitted = _points_by_xi(freqs, points.xi[mine], points.lam[mine])
        gaps = np.abs(roots[:, :, None] - emitted[:, None, :])
        to_root = gaps.min(axis=1)
        assert (to_root <= 1e-6)[np.isfinite(emitted)].all()
        covered = (gaps <= 1e-6).any(axis=2) | near_exceptional(roots)
        assert covered[_near_window(roots, cfg.window, 0.0)].all()


COMPLETENESS_SEEDS = range(60)


@pytest.mark.parametrize("kind", ["constant", "settling"])
def test_points_and_det_scan_roots_match_both_ways(kind):
    for seed in COMPLETENESS_SEEDS:
        rng = random.Random(seed)
        op = (random_constant_operator(rng, 2 + 2 * (seed % 2))
              if kind == "constant"
              else random_operator(rng, rng.choice([2, 4]), settling=True))
        _assert_points_and_det_scan_roots_match(op, SMALL_SWEEP)


def test_quartic_points_and_det_scan_roots_match_both_ways():
    # Its frozen determinant has a root 6.8e-11 from its exceptional
    # point 0, which the exclusion covers.
    _assert_points_and_det_scan_roots_match(
        quartic_coupled(), SolverConfig().with_overrides(
            window=(-2.0, 2.0, -2.0, 2.0), curve_res=1e-2))


def test_sides_with_different_limits_are_swept_apart():
    # a_0 = atan(x) tends to +-pi/2, so N_0 differs between the sides.
    op = OperatorMatrix(a=(parse("atan(x)"), Lit(0j), Lit(1 + 0j)),
                        b=(Lit(0j), Lit(-1j)), c=(Lit(0j), Lit(1j)),
                        d=parse("1/(1 + x^2)"))
    sweeps, report = _sweeps_with_reuse_checked(op, SMALL_SWEEP)
    assert sweeps == 2
    fits = report["singular"]["fits"]
    assert fits["+"]["route"] == fits["-"]["route"] == "closed_form"
    alpha_0 = [next(complex(*entry["value"]) for entry in fits[side]["limits"]
                    if entry["label"] == "alpha_0") for side in "+-"]
    assert alpha_0 == pytest.approx([math.pi / 2, -math.pi / 2], abs=1e-7)


@pytest.mark.parametrize("path", [QUARTIC_CFG, PARABOLIC_CFG],
                         ids=["quartic", "parabolic"])
def test_closed_form_point_count_stays_near_the_fit_route(path, monkeypatch):
    # Limits that are 0 but certified as +-1e-10 would leave a near-common
    # factor at lambda = d^inf and a spurious root at every frequency.
    op = load_operator(path)
    cfg = SolverConfig().with_overrides(xi_points=100, curve_res=0.01)
    report = {}
    closed = len(singular_part(op, cfg=cfg, report=report))
    assert report["singular"]["fits"]["+"]["route"] == "closed_form"

    def refuse(symbol, side, limits=None):
        raise LimitRefused("d", "forced onto the fit route")

    monkeypatch.setattr(spectrum_module, "_closed_form_side", refuse)
    fitted = len(singular_part(op, cfg=cfg, report=report))
    assert report["singular"]["fits"]["+"]["route"] == "fit"
    assert abs(closed - fitted) <= 0.1 * fitted


def test_closed_form_at_the_benchmark_window_adds_points_only_at_the_pole(
        monkeypatch):
    # At the quartic_window settings the closed form emits 13% more points
    # than the fit route: near lambda = -i, the pole of F where P_4 = 0,
    # the fit route loses the neutral branch for |xi| >= 5. Those points
    # must be true roots; away from the pole the counts stay within 10%.
    op = load_operator(QUARTIC_CFG)
    cfg = SolverConfig().with_overrides(window=(-2.0, 2.0, -2.0, 2.0),
                                        curve_res=1e-2)
    closed = singular_part(op, cfg=cfg)

    def refuse(symbol, side, limits=None):
        raise LimitRefused("d", "forced onto the fit route")

    monkeypatch.setattr(spectrum_module, "_closed_form_side", refuse)
    fitted = singular_part(op, cfg=cfg)

    def away(points):
        return sum(abs(p.lam + 1j) >= 0.2 for p in points)

    assert abs(away(closed) - away(fitted)) <= 0.1 * away(fitted)
    near = [p for p in closed if abs(p.lam + 1j) < 0.2]
    scan = det_scan(freeze(op, "+", cfg), [p.xi for p in near])
    roots = np.asarray([s.roots for s in scan])
    lams = np.asarray([p.lam for p in near])
    assert np.abs(roots - lams[:, None]).min(axis=1).max() <= 1e-6


# ---------------------------------------------------------------------------
# Singular sweep: batched companion roots
# ---------------------------------------------------------------------------

def _roots_per_row(coeff_row):
    """One ``np.roots`` call per trimmed row: the unbatched reference."""
    mags = np.abs(coeff_row)
    top = float(mags.max(initial=0.0))
    if not math.isfinite(top) or top == 0.0:
        return None
    trimmed = np.where(mags > 1e-12 * top, coeff_row, 0.0)
    desc = trimmed[::-1]
    desc = desc[np.nonzero(desc)[0][0]:]
    if desc.size <= 1:
        return np.empty(0, dtype=complex)
    return np.roots(desc)


_COEFFICIENT = st.one_of(
    st.just(0j),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                       allow_infinity=False),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                       allow_nan=False, allow_infinity=False).map(
        lambda z: 1e-13 * z),
)


@st.composite
def _cleared_rows(draw, width):
    kind = draw(st.sampled_from(["mixed", "mixed", "mixed", "lone", "zero",
                                 "nonfinite"]))
    row = [0j] * width
    if kind == "mixed":
        row = draw(st.lists(_COEFFICIENT, min_size=width, max_size=width))
    elif kind == "lone":
        row[draw(st.integers(0, width - 1))] = draw(st.complex_numbers(
            min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False,
            allow_infinity=False))
    elif kind == "nonfinite":
        row = draw(st.lists(_COEFFICIENT, min_size=width, max_size=width))
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(
            [complex(math.nan, 0.0), complex(math.inf, 1.0),
             complex(0.0, -math.inf)]))
    return row


@st.composite
def _cleared_matrices(draw):
    width = draw(st.integers(1, 7))
    rows = draw(st.lists(_cleared_rows(width), min_size=1, max_size=12))
    return np.asarray(rows, dtype=complex).reshape(len(rows), width)


def _backward_error(desc, z):
    """``|P(z)| / sum_i |a_i| |z|**i`` for descending ``desc``, P(z) exact.

    The row is scaled by a power of two near its largest magnitude first,
    which changes neither the ratio nor any bit, so no sum overflows.
    """
    desc = desc / 2.0 ** math.frexp(float(np.abs(desc).max()))[1]
    zr, zi = Fraction(z.real), Fraction(z.imag)
    pr = pi = Fraction(0)
    for a in desc.tolist():
        pr, pi = (pr * zr - pi * zi + Fraction(a.real),
                  pr * zi + pi * zr + Fraction(a.imag))
    scale = sum(abs(a) * abs(z) ** k for k, a in enumerate(desc[::-1]))
    return math.sqrt(float(pr * pr + pi * pi)) / scale


# Exact residuals of the quadratic formula reach 2.0 eps on random rows,
# where np.roots reaches 4.4 eps.
QUADRATIC_BACKWARD_TOL = 8.0 * np.finfo(float).eps


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coeffs=_cleared_matrices())
# A near-double root, a vanishing middle term, leading terms just above and
# at the 1e-12 trim, and rows near both ends of the float range.
@example(coeffs=np.array([[1.0 + 1e-15, 2.0, 1.0], [1.0, 0.0, 1.0],
                          [-2.0, 0j, 3.0 + 1.0j],
                          [1.0, 1.0, 1e-12 * (1.0 + 2.0 ** -20)],
                          [3.0, -1.0, 1e-12]], dtype=complex))
@example(coeffs=np.array([[1e300, -2e300, 1e300j], [1e-300, 2e-300, 1e-300],
                          [1e150, 1e160, 1e150], [1e-300, 1e-290, 1e-300],
                          [1.5e307, -1e307, 1e307]], dtype=complex))
def test_companion_roots_match_per_row_np_roots(coeffs):
    """Degree 1 and degree 3 and above carry the bits of ``np.roots``; a
    quadratic's roots have exact backward errors within a few eps."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots, degenerate, solves = _companion_roots(coeffs)
    assert roots.dtype == np.complex128
    assert degenerate.shape == (coeffs.shape[0],)
    assert roots.shape[0] == coeffs.shape[0]
    shapes = set()
    widths = [0]
    for row, got, skipped in zip(coeffs, roots, degenerate):
        want = _roots_per_row(row)
        if want is None:
            assert skipped
            assert np.isnan(got).all()
            continue
        assert not skipped
        mags = np.abs(row)
        trimmed = np.where(mags > 1e-12 * mags.max(), row, 0.0)
        kept = np.flatnonzero(trimmed)
        degree = kept[-1] - kept[0]
        if degree:
            shapes.add((degree, kept[0]))
        # np.roots gives float64 zeros for a lone term of positive degree.
        want = want.astype(np.complex128)
        widths.append(want.size)
        assert np.isnan(got[want.size:]).all()
        if degree != 2:
            assert got[:want.size].tobytes() == want.tobytes()
            continue
        # np.roots lists the roots of the trimmed row, then its zeros.
        assert got[2:want.size].tobytes() == want[2:].tobytes()
        desc = trimmed[kept[0]:kept[-1] + 1][::-1]
        for z in got[:2]:
            assert _backward_error(desc, z) <= QUADRATIC_BACKWARD_TOL
    assert roots.shape[1] == max(widths)
    # One stacked solve per (degree, vanishing low-order terms) shape.
    assert solves == len(shapes)


_ENTRY = st.floats(-3.0, 3.0, allow_subnormal=False)


@st.composite
def _closed_form_profiles(draw):
    """(m, a closed-form profile) with m in {2, 4} and numerators of width
    1-4 over a denominator no wider."""
    def row(size):
        return np.array([complex(draw(_ENTRY), draw(_ENTRY))
                         for _ in range(size)])

    m = draw(st.sampled_from([2, 4]))
    width = draw(st.integers(1, 4))
    numerators = np.array([row(width) for _ in range(m)])
    return m, spectrum_module.RationalProfile(
        "+", numerators, row(draw(st.integers(1, width))),
        limits=mock.Mock())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_closed_form_profiles(),
       xi=st.lists(st.floats(-20.0, 20.0, allow_subnormal=False),
                   min_size=2, max_size=64, unique=True))
def test_a_frequency_has_the_same_roots_in_any_batch(case, xi):
    # The refinement solves a frequency in whichever round reaches it, so
    # its coefficients and roots must not depend on the rows around it. A
    # BLAS matmul whose kernel fuses multiply-adds rounds some rows
    # differently with their place in the batch.
    m, profile = case
    xi = np.sort(np.asarray(xi))
    cfg = SolverConfig()

    def solve(rows):
        return spectrum_module._solve_at(mock.Mock(m=m), profile, xi[rows],
                                         cfg, [],
                                         dict.fromkeys(WORK_COUNTERS, 0))

    coeffs = _cleared_coefficients(profile, m, xi)
    whole = solve(slice(None))
    half = xi.size // 2
    for rows in (slice(half), slice(half, None), slice(None, None, 2),
                 slice(1, None, 2)):
        assert _cleared_coefficients(profile, m, xi[rows]).tobytes() \
            == coeffs[rows].tobytes()
        assert _bits(_table_rows(solve(rows))) == _bits(_table_rows(
            RootTable(whole.xi[rows], whole.lam[rows], whole.count[rows])))


# ---------------------------------------------------------------------------
# Loop versions of the sweep bookkeeping: the references for the root table
# ---------------------------------------------------------------------------

def _loop_post_polish(xi_values, root_rows, polish, cfg, dedupe_tol):
    """Per-seed filter, dedupe and sort after the polish, as a dict of rows.

    ``polish(seed_xi, seed_lam)`` returns (kept, polished) for the seeds.
    """
    track_pad = _track_pad(cfg)
    grouped = {}
    seed_xi, seed_lam = [], []
    for xi, roots in zip(xi_values, root_rows):
        grouped[float(xi)] = []
        if roots is None:
            continue
        inside = roots[_near_window(roots, cfg.window, track_pad)]
        seed_xi.extend([float(xi)] * inside.size)
        seed_lam.extend(inside.tolist())
    if not seed_xi:
        return grouped
    kept, polished = polish(np.asarray(seed_xi), np.asarray(seed_lam))
    for xi, lam, good in zip(seed_xi, polished, kept):
        lam = complex(lam)
        if not good or not window_contains(cfg.window, lam, pad=track_pad):
            continue
        bucket = grouped[xi]
        if all(abs(lam - other) > dedupe_tol for other in bucket):
            bucket.append(lam)
    for bucket in grouped.values():
        bucket.sort(key=lambda z: (z.real, z.imag))
    return grouped


def _loop_gap_midpoint(a, b):
    if a != 0.0 and b != 0.0 and (a > 0) == (b > 0):
        return math.copysign(math.sqrt(abs(a) * abs(b)), a)
    return 0.5 * (a + b)


def _loop_segment_needs_split(roots_a, roots_b, cfg, keep_pad):
    for own, other in ((roots_a, roots_b), (roots_b, roots_a)):
        for root in own:
            if window_contains(cfg.window, root, pad=keep_pad) and all(
                    abs(root - partner) > cfg.curve_res for partner in other):
                return True
    return False


def _loop_merge_sides(plus, minus, dedupe_tol):
    classes = {REGULAR_SIDE: [], "+": [], "-": []}
    for xi in sorted(set(plus) | set(minus)):
        left = list(plus.get(xi, []))
        right = list(minus.get(xi, []))
        taken = [False] * len(right)
        for lam in left:
            match = -1
            best = dedupe_tol
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


def _loop_match_tolerance(head, root, cfg):
    return max(50.0 * cfg.curve_res,
               0.05 * (1.0 + 0.5 * (abs(head) + abs(root))))


def _loop_assign_branches(raw, first_id, cfg):
    """(xi, root, branch id) per root, ordered by xi and then by the root's
    place in its (real, imag)-sorted row, and the next id."""
    groups = {}
    for xi, lam in raw:
        groups.setdefault(xi, []).append(lam)
    heads = []
    next_id = first_id
    out = []
    for xi in sorted(groups):
        roots = sorted(groups[xi], key=lambda z: (z.real, z.imag))
        candidates = []
        for ri, root in enumerate(roots):
            for hi, (_bid, head) in enumerate(heads):
                dist = abs(root - head)
                if dist <= _loop_match_tolerance(head, root, cfg):
                    candidates.append((dist, ri, hi))
        candidates.sort(key=lambda t: (t[0], t[1], t[2]))
        used_roots, used_heads = set(), set()
        for dist, ri, hi in candidates:
            if ri in used_roots or hi in used_heads:
                continue
            used_roots.add(ri)
            used_heads.add(hi)
            bid = heads[hi][0]
            heads[hi] = (bid, roots[ri])
            out.append((xi, ri, roots[ri], bid))
        for ri, root in enumerate(roots):
            if ri not in used_roots:
                out.append((xi, ri, root, next_id))
                heads.append((next_id, root))
                next_id += 1
    out.sort(key=lambda item: item[:2])
    return [(xi, root, bid) for xi, _ri, root, bid in out], next_id


def _loop_flag_singular(points, regular, exceptional, dedupe_tol, exc_tol):
    values = np.asarray([p.lam for p in regular], dtype=complex)
    order = np.argsort(values.real, kind="stable")
    values = values[order]
    reals = values.real
    flagged = []
    for point in points:
        flags = []
        if any(abs(point.lam - p) <= exc_tol for p in exceptional.points):
            flags.append("in_exceptional")
        lo = np.searchsorted(reals, point.lam.real - dedupe_tol, "left")
        hi = np.searchsorted(reals, point.lam.real + dedupe_tol, "right")
        if lo < hi and np.min(
                np.abs(values[lo:hi] - point.lam)) <= dedupe_tol:
            flags.append("in_regular_closure")
        flagged.append(dataclasses.replace(point, flags=tuple(flags)))
    return flagged


def _table(rows):
    """RootTable of a dict xi -> roots, rows in the given root order."""
    xis = sorted(rows)
    width = max((len(rows[xi]) for xi in xis), default=0)
    lam = np.full((len(xis), width), np.nan, dtype=complex)
    for i, xi in enumerate(xis):
        lam[i, :len(rows[xi])] = rows[xi]
    return RootTable(np.asarray(xis, dtype=float), lam,
                     np.asarray([len(rows[xi]) for xi in xis], dtype=int))


def _table_rows(table):
    """(xi, roots) per row, as Python floats and complex numbers."""
    return [(xi, roots[:count]) for xi, roots, count in zip(
        table.xi.tolist(), table.lam.tolist(), table.count.tolist())]


def _bits(items):
    """Exact bit patterns of nested floats and complex numbers."""
    if isinstance(items, (list, tuple)):
        return [_bits(item) for item in items]
    if isinstance(items, complex):
        return (items.real.hex(), items.imag.hex())
    if isinstance(items, float):
        return items.hex()
    return items


# ---------------------------------------------------------------------------
# Singular sweep: refinement rescan against a per-segment loop
# ---------------------------------------------------------------------------

def _loop_split_depth(roots_a, roots_b, cfg, keep_pad):
    """Bisection levels the gap of a segment that splits predicts: one
    where a branch ends, with no root at the other end."""
    gap = 0.0
    for own, other in ((roots_a, roots_b), (roots_b, roots_a)):
        for root in own:
            if window_contains(cfg.window, root, pad=keep_pad):
                gap = max(gap, min((abs(root - partner) for partner in other),
                                   default=math.inf))
    if gap == math.inf:
        return 1
    return min(spectrum_module.SPLIT_LEVELS,
               max(1, math.ceil(math.log2(gap / cfg.curve_res))))


def _loop_subtree(a, b, depth, level=1):
    """(midpoint, level) of the bisection subtree of [a, b] down to
    ``depth``, stopping below a segment at the width floor or a midpoint
    that is not strictly inside."""
    if b - a <= 1e-7 * (1.0 + abs(a)):
        return []
    mid = _loop_gap_midpoint(a, b)
    if mid <= a or mid >= b:
        return []
    if level == depth:
        return [(mid, level)]
    return (_loop_subtree(a, mid, depth, level + 1) + [(mid, level)]
            + _loop_subtree(mid, b, depth, level + 1))


def _rescan_targets(tracked, cfg, tried):
    """Refinement targets and their levels from a full rescan of every
    segment, ascending."""
    xis = sorted(tracked)
    keep_pad = _keep_pad(cfg)
    targets = []
    for a, b in zip(xis[:-1], xis[1:]):
        if not _loop_segment_needs_split(tracked[a], tracked[b], cfg,
                                         keep_pad):
            continue
        depth = _loop_split_depth(tracked[a], tracked[b], cfg, keep_pad)
        targets += [(mid, level) for mid, level in _loop_subtree(a, b, depth)
                    if mid not in tried]
    return targets


def _rescan_sweep(symbol, profile, xi_grid, cfg, skips):
    """``_sweep_side`` as a per-segment loop; returns the segments scanned."""
    work = dict.fromkeys(WORK_COUNTERS, 0)

    def solve(xi_values):
        table = spectrum_module._solve_at(symbol, profile, xi_values, cfg,
                                          skips, work)
        return dict(_table_rows(table))

    solved = solve(xi_grid)
    tried = {float(x) for x in xi_grid}
    rounds = predicted = 0
    total = sum(len(v) for v in solved.values())
    budget = spectrum_module.MAX_POINTS
    while total < budget and rounds < 48:
        work["segments_checked"] += max(0, len(solved) - 1)
        targets = _rescan_targets(solved, cfg, tried)
        if not targets:
            break
        targets = targets[:max(0, budget - total)]
        predicted += sum(level > 1 for _mid, level in targets)
        targets = [mid for mid, _level in targets]
        tried.update(targets)
        solved.update(solve(np.asarray(targets)))
        total = sum(len(v) for v in solved.values())
        rounds += 1
    rescanned = work.pop("segments_checked")
    info = {"frequencies": len(solved), "points": total,
            "refinement_rounds": rounds, "predicted": predicted, **work}
    return solved, info, rescanned


def _assert_same_sweep(symbol, profile, xi_grid, cfg):
    table, info = _sweep_side(symbol, profile, xi_grid, cfg, [])
    ref_solved, ref_info, rescanned = _rescan_sweep(
        symbol, profile, xi_grid, cfg, [])
    assert _bits(_table_rows(table)) == _bits(sorted(ref_solved.items()))
    checked = info.pop("segments_checked")
    assert info == ref_info
    assert checked == rescanned
    return info


_BRANCH = st.tuples(
    st.complex_numbers(max_magnitude=0.8, allow_nan=False,
                       allow_infinity=False),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                       allow_infinity=False),
    st.floats(-0.3, 0.3),
    st.floats(-2.0, 2.0),
    st.floats(0.0, 4.0),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(branches=st.lists(_BRANCH, min_size=1, max_size=3),
       grid_points=st.integers(2, 12),
       curve_res=st.sampled_from([0.02, 0.1, 0.4]),
       max_points=st.sampled_from([6, 40, 300, 10**6]))
@example(branches=[(0j, 0j, 0.0, -2.0, 4.0),
                   (0.8 + 0j, 1 + 0j, 0.0, 1.0, 1.0)],
         grid_points=5, curve_res=0.02, max_points=10**6)
def test_refinement_matches_the_loop_rescan(branches, grid_points,
                                            curve_res, max_points):
    # Each branch lam = c + s*xi + q*xi^2 lives on [start, start + length]:
    # births and deaths make segments that split down to the width floor.
    # In the example a branch is born at xi = 1 at Re 1.8, past the emit
    # band, beside a constant emitted one: no segment splits.
    def fake_solve(symbol, profile, xi_values, cfg, skips, work):
        work["companion_solves"] += 1
        out = {}
        for xi in map(float, xi_values):
            roots = [c + s * xi + q * xi * xi
                     for c, s, q, start, length in branches
                     if start <= xi <= start + length]
            out[xi] = sorted(roots, key=lambda z: (z.real, z.imag))
        return _table(out)

    cfg = SolverConfig().with_overrides(
        window=(-1.0, 1.0, -1.0, 1.0), curve_res=curve_res)
    with mock.patch.multiple(spectrum_module, _solve_at=fake_solve,
                             MAX_POINTS=max_points):
        _assert_same_sweep(None, None, np.linspace(-2.0, 2.0, grid_points),
                           cfg)


def test_refinement_finds_targets_past_the_budget_again(monkeypatch):
    op = parabolic_potential()
    cfg = SolverConfig().with_overrides(
        window=(-2.0, 1.0, -0.5, 0.5), curve_res=0.05)
    monkeypatch.setattr(spectrum_module, "MAX_POINTS", 6)
    symbol = build_schur(op)
    profile = _fit_side(symbol, "+", op.n)
    offered, scanned, solved_mids = [], [], []
    real_targets = spectrum_module._refinement_targets
    real_solve = spectrum_module._solve_at

    def recording_targets(table, cfg):
        targets = real_targets(table, cfg)
        scanned.append(table.xi)
        offered.append(targets[0].tolist())
        return targets

    def recording_solve(symbol, profile, xi_values, *args):
        solved_mids.append([float(x) for x in xi_values])
        return real_solve(symbol, profile, xi_values, *args)

    grid = np.array([-4.0, -1.0, 0.0, 1.0, 4.0])
    with monkeypatch.context() as recording:
        recording.setattr(spectrum_module, "_refinement_targets",
                          recording_targets)
        recording.setattr(spectrum_module, "_solve_at", recording_solve)
        info = _sweep_side(symbol, profile, grid, cfg, [])[1]
    # Roots at xi = +-4 and at the first midpoint -2 leave the tracking
    # band, so a round can spend its budget and still leave room. A round
    # solves an ascending prefix of its targets; the segments past the one
    # that prefix ends in are left whole, and the next rescan offers their
    # targets again.
    again = []
    for k, solved in enumerate(solved_mids[1:-1]):
        xi = scanned[k]
        end = xi[np.searchsorted(xi, solved[-1])]
        left = [mid for mid in offered[k][len(solved):] if mid > end]
        assert set(left) <= set(offered[k + 1])
        again += left
    assert again
    assert info["points"] == spectrum_module.MAX_POINTS
    assert _assert_same_sweep(symbol, profile, grid, cfg) == {
        key: value for key, value in info.items()
        if key != "segments_checked"}


@pytest.mark.parametrize("kind", ["bundled", "settling"])
def test_refinement_matches_the_loop_rescan_on_closed_form_profiles(kind):
    if kind == "bundled":
        cases = [(quartic_coupled(), SolverConfig().with_overrides(
                      window=(-2.0, 2.0, -2.0, 2.0), curve_res=1e-2)),
                 (parabolic_potential(), SolverConfig().with_overrides(
                      window=(-2.0, 1.0, -0.5, 0.5)))]
    else:
        cases = []
        for seed in range(20):
            rng = random.Random(seed)
            cases.append((random_operator(rng, rng.choice([2, 4]),
                                          settling=True), SMALL_SWEEP))
    for op, cfg in cases:
        symbol = build_schur(op)
        for side in ("+", "-"):
            profile = _closed_form_side(symbol, side,
                                        symbol_limits(symbol, side))[0]
            _assert_same_sweep(symbol, profile, default_xi_grid(cfg), cfg)


def test_refinement_midpoints_lie_strictly_inside_their_segments():
    # [-1, 1] and [1, 4] have a root in the window at one end whose nearest
    # root at the other end, 100i, lies far outside it, so they split to
    # the deepest level. At the first, [-1, 1] takes the arithmetic
    # midpoint and [1, 4] the geometric one. [1e200, 2e200] has a root at
    # one end only, so it takes its midpoint only; that overflows to inf,
    # off the segment, so it yields no target.
    table = _table({-1.0: [0j], 1.0: [100j], 4.0: [0j], 1e200: [0j],
                    2e200: []})
    with pytest.warns(RuntimeWarning, match="overflow"):
        targets, levels = spectrum_module._refinement_targets(
            table, SolverConfig())
    assert targets[levels == 1].tolist() == [0.0, 2.0]
    subtree = 2 ** spectrum_module.SPLIT_LEVELS - 1
    assert np.bincount(levels).tolist() == [0] + [
        2 ** (k + 1) for k in range(spectrum_module.SPLIT_LEVELS)]
    assert np.count_nonzero((targets > -1.0) & (targets < 1.0)) == subtree
    assert np.count_nonzero((targets > 1.0) & (targets < 4.0)) == subtree
    assert np.all(np.diff(targets) > 0.0)


@pytest.mark.parametrize("partner, depth", [
    (0.2, 1), (0.5, 2), (0.55, 3), (100.0, 6), (None, 1)])
def test_refinement_depth_follows_the_gap(partner, depth):
    # With curve_res 1/8, a root at 0 whose nearest partner at the other
    # end is g away predicts ceil(log2(8 g)) halvings, at most SPLIT_LEVELS
    # = 6; an end without roots, where a branch ends, predicts none, and
    # the segment takes its midpoint only, as plain bisection does.
    cfg = SolverConfig().with_overrides(curve_res=0.125)
    table = _table({1.0: [0j], 2.0: [] if partner is None
                    else [complex(partner)]})
    targets, levels = spectrum_module._refinement_targets(table, cfg)
    assert spectrum_module.SPLIT_LEVELS == 6
    assert targets.size == 2 ** depth - 1 and levels.max() == depth
    mids = [1.0, 2.0]
    for _ in range(depth):
        mids = sorted(mids + [math.sqrt(a * b)
                              for a, b in zip(mids[:-1], mids[1:])])
    assert targets.tolist() == mids[1:-1]


def _bisection_sweep_side(symbol, profile, xi_grid, cfg, skips):
    """``_sweep_side`` refined by plain bisection, one level per round."""
    work = dict.fromkeys(WORK_COUNTERS, 0)

    def solve(xi_values):
        return spectrum_module._solve_at(symbol, profile, xi_values, cfg,
                                         skips, work)

    def needs_split(table):
        return _segment_needs_split(
            RootTable(table.xi[:-1], table.lam[:-1], table.count[:-1]),
            RootTable(table.xi[1:], table.lam[1:], table.count[1:]), cfg)

    table, rounds = bisection_sweep(
        solve, needs_split, lambda a, b: spectrum_module._concat([a, b]),
        xi_grid, spectrum_module.MAX_POINTS)
    return table, {"frequencies": int(table.xi.size),
                   "points": int(table.count.sum()),
                   "refinement_rounds": rounds, "predicted": 0, **work}


def _labelled_points(points):
    """(side, xi, lambda) of each point, as bits, -> (branch id, flags)."""
    return {(side, xi.hex(), lam.real.hex(), lam.imag.hex()): (bid, flags)
            for side, xi, lam, bid, flags in zip(
                points.side.tolist(), points.xi.tolist(),
                points.lam.tolist(), points.branch_id.tolist(),
                points.flags.tolist())}


def _with_bisection(run):
    """``run()`` with the depth rule and with plain bisection in its place;
    None for a run that raises FitError."""
    def attempt():
        try:
            return run()
        except FitError:
            return None

    depth = attempt()
    with mock.patch.object(spectrum_module, "_sweep_side",
                           _bisection_sweep_side):
        return depth, attempt()


def _assert_keeps_the_bisection_points(points, reference):
    """Every reference point is a point, bit for bit, with its branch id
    and flags; returns how many points the depth rule adds."""
    mine, theirs = _labelled_points(points), _labelled_points(reference)
    assert {key: mine.get(key) for key in theirs} == theirs
    return len(mine) - len(theirs)


@pytest.mark.parametrize("config, cfg", [
    (QUARTIC_CFG, SolverConfig().with_overrides(
        window=(-2.0, 2.0, -2.0, 2.0), curve_res=1e-2)),
    (PARABOLIC_CFG, SolverConfig().with_overrides(
        window=(-2.0, 1.0, -0.5, 0.5))),
    (QUARTIC_CFG, SolverConfig()),
    (PARABOLIC_CFG, SolverConfig()),
], ids=["quartic-window", "parabolic-window", "quartic", "parabolic"])
def test_sweep_keeps_every_bisection_point(config, cfg):
    # The depth rule solves whole bisection subtrees in one round, and a
    # frequency's roots do not depend on its round, so the output holds
    # every point plain bisection finds, in the same branch with the same
    # flags, and the regular part is untouched.
    op = load_operator(config)
    spectrum, reference = _with_bisection(lambda: essential_spectrum(op, cfg))
    assert spectrum.regular.x_param.tobytes() \
        == reference.regular.x_param.tobytes()
    assert spectrum.regular.lam.tobytes() == reference.regular.lam.tobytes()
    assert _assert_keeps_the_bisection_points(spectrum.singular,
                                              reference.singular) > 0
    rounds = [sweep["refinement_rounds"] for spectra in (spectrum, reference)
              for sweep in spectra.report["singular"]["sweeps"].values()]
    assert max(rounds[:2]) < min(rounds[2:])


def test_sweep_keeps_every_bisection_point_on_random_operators():
    # Seeds 0-49 with and without settling coefficients, so the fit route
    # (whose polish samples limit batches) is covered as well, and seed 80
    # without, whose branch ends refine one level per round.
    cfg = SolverConfig().with_overrides(window=(-3.0, 3.0, -3.0, 3.0),
                                        curve_res=5e-2)
    routes, added = set(), 0
    draws = [(seed, settling) for seed in range(50)
             for settling in (False, True)] + [(80, False)]
    for seed, settling in draws:
        rng = random.Random(seed)
        op = random_operator(rng, rng.choice([2, 4]), settling=settling)
        symbol, report = build_schur(op), {}
        points, reference = _with_bisection(lambda: singular_part(
            op, symbol, cfg=cfg, report=report))
        routes |= {fit["route"] for fit in report["singular"]["fits"]
                   .values()}
        if reference is None:
            assert points is None
            continue
        added += _assert_keeps_the_bisection_points(points, reference)
    assert routes == {"closed_form", "fit"} and added > 0


def test_sweep_keeps_every_bisection_point_where_midpoints_leave_the_segment():
    # A root at xi <= 1e-250 and one at xi >= 1.2e200 split [1e-300, 1e-200]
    # and [1e200, 1.5e200]. Their geometric midpoints underflow to 0, a
    # frequency already swept, and overflow to inf, so neither segment is
    # refined: the depth rule must add no frequency that plain bisection
    # would not reach. A root on [0.5, 1] is refined as usual.
    def fake_solve(symbol, profile, xi_values, cfg, skips, work):
        work["companion_solves"] += 1
        return _table({xi: [0j] * ((xi <= 1e-250) + (0.5 <= xi <= 1.0)
                                   + (xi >= 1.2e200))
                       for xi in map(float, xi_values)})

    grid = np.array([-1.0, 0.0, 1e-300, 1e-200, 1.0, 1e200, 1.5e200])
    cfg = SolverConfig()
    with mock.patch.object(spectrum_module, "_solve_at", fake_solve), \
            pytest.warns(RuntimeWarning, match="overflow"):
        table, info = _sweep_side(None, None, grid, cfg, [])
        reference, _ = _bisection_sweep_side(None, None, grid, cfg, [])
    assert np.all(np.diff(table.xi) > 0.0)
    assert grid[0] <= table.xi[0] and table.xi[-1] <= grid[-1]
    mine = dict(_bits(_table_rows(table)))
    assert all(mine.get(xi) == roots
               for xi, roots in _bits(_table_rows(reference)))
    assert info["refinement_rounds"] > 0


@pytest.mark.parametrize("grid", [[], [0.5]], ids=["empty", "one"])
def test_grids_without_a_segment_check_none(grid):
    report = {}
    singular_part(parabolic_potential(), xi_grid=np.array(grid),
                  report=report)
    for sweep in report["singular"]["sweeps"].values():
        assert sweep["frequencies"] == len(grid)
        assert sweep["segments_checked"] == 0
        assert sweep["refinement_rounds"] == 0
        assert sweep["predicted"] == 0


# ---------------------------------------------------------------------------
# Root table against the loop bookkeeping, on adversarial root clouds
# ---------------------------------------------------------------------------
# Thresholds are 5 * 2^-k and clouds sit on a dyadic grid, so steps of
# (5u, 0) or (3u, 4u) with u = threshold / 5 land exactly on a threshold.

_WINDOW = (-1.0, 1.0, -1.0, 1.0)
_DEDUPE = 5 / 32
_CURVE = 5 / 16


def _unit_steps(tol):
    u = tol / 5
    return [0j, complex(5 * u, 0), complex(-5 * u, 0), complex(0, 5 * u),
            complex(3 * u, 4 * u), complex(-4 * u, 3 * u),
            complex(3 * u, -4 * u), complex(10 * u, 0)]


def _edges(cfg):
    """Window edges plus each pad band used by the sweep, and one ulp off."""
    values = []
    for pad in (0.0, _track_pad(cfg), _keep_pad(cfg)):
        for edge in (-1.0 - pad, 1.0 + pad):
            values += [edge, math.nextafter(edge, math.inf),
                       math.nextafter(edge, -math.inf)]
    return values


@st.composite
def _root(draw, anchors, tol, edges):
    kind = draw(st.sampled_from(["anchor", "anchor", "anchor", "edge",
                                 "any"]))
    if kind == "anchor":
        return draw(st.sampled_from(anchors)) + draw(
            st.sampled_from(_unit_steps(tol)))
    if kind == "edge":
        parts = st.one_of(st.sampled_from(edges),
                          st.integers(-64, 64).map(lambda k: k / 16))
        return complex(draw(parts), draw(parts))
    return draw(st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                   allow_infinity=False))


def _cloud(draw, tol, edges, max_size):
    """Strategy for one row of roots around 1-3 dyadic anchors drawn now."""
    anchors = draw(st.lists(
        st.tuples(st.integers(-96, 96), st.integers(-96, 96)).map(
            lambda k: complex(k[0] / 32, k[1] / 32)), min_size=1, max_size=3))
    return st.lists(_root(anchors, tol, edges), max_size=max_size)


def _follow(draw, roots, tol):
    """Zero to two roots at a threshold step from each of ``roots``; two
    opposite steps from one root make an equal-distance tie."""
    steps = st.lists(st.sampled_from(_unit_steps(tol)), max_size=2)
    return [root + step for root in roots for step in draw(steps)]


def _sorted_rows(rows):
    return {xi: sorted(roots, key=lambda z: (z.real, z.imag))
            for xi, roots in rows.items()}


def _padded(root_rows):
    """Per-row roots (None for a degenerate row) in the shape
    ``_companion_roots`` returns: NaN-padded array, mask, one solve."""
    width = max((r.size for r in root_rows if r is not None), default=0)
    lam = np.full((len(root_rows), width), np.nan, dtype=complex)
    for i, roots in enumerate(root_rows):
        if roots is not None:
            lam[i, :roots.size] = roots
    return lam, np.array([r is None for r in root_rows]), 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_post_polish_filter_dedupe_and_sort_match_the_loop(data):
    cfg = SolverConfig().with_overrides(window=_WINDOW, curve_res=_CURVE)
    cloud = _cloud(data.draw, _DEDUPE, _edges(cfg), 6)
    size = data.draw(st.integers(1, 6))
    identity = data.draw(st.lists(st.sampled_from([False, False, True]),
                                  min_size=size, max_size=size))
    root_rows = [None if skip else np.asarray(data.draw(cloud), dtype=complex)
                 for skip in identity]
    steps = data.draw(st.lists(st.sampled_from(_unit_steps(_DEDUPE)),
                               min_size=1, max_size=8))
    kept = data.draw(st.lists(st.booleans(), min_size=1, max_size=8))
    xi_values = np.arange(size, dtype=float) - 2.0

    def polish(xi, lam):
        return (np.resize(np.asarray(kept), lam.size),
                lam + np.resize(np.asarray(steps), lam.size))

    seeds = []

    def fake_polish(symbol, profile, coeffs, xi, lam, cfg, skips, work):
        seeds.append((xi.copy(), lam.copy()))
        return polish(xi, lam)

    def fake_settle(profile, coeffs, xi, lam, skips, work):
        return fake_polish(None, profile, coeffs, xi, lam, None, skips, work)

    # A fitted profile polishes on limit batches, a closed-form one settles
    # on its exact tail polynomial; the filter after either is the same.
    closed_form = data.draw(st.booleans())
    profile = mock.Mock(side="+", limits=mock.Mock() if closed_form else None)
    skips = []
    with mock.patch.multiple(
            spectrum_module,
            _cleared_coefficients=lambda profile, m, xi: np.zeros((xi.size,
                                                                   1)),
            _companion_roots=lambda coeffs: _padded(root_rows),
            _polish_batch=fake_polish, _settle_closed_form=fake_settle,
            DEDUPE_TOL=_DEDUPE):
        table = spectrum_module._solve_at(mock.Mock(m=2), profile, xi_values,
                                          cfg, skips, {"companion_solves": 0})
    reference = _loop_post_polish(xi_values, root_rows, polish, cfg, _DEDUPE)
    assert _bits(_table_rows(table)) == _bits(list(reference.items()))
    assert [s["xi"] for s in skips] == [
        float(xi) for xi, roots in zip(xi_values, root_rows) if roots is None]
    if seeds:
        ref_xi, ref_lam = [], []
        for xi, roots in zip(xi_values, root_rows):
            if roots is not None:
                inside = roots[_near_window(roots, cfg.window,
                                            _track_pad(cfg))]
                ref_xi += [float(xi)] * inside.size
                ref_lam += inside.tolist()
        ((xi, lam),) = seeds
        assert xi.tolist() == ref_xi
        assert _bits(lam.tolist()) == _bits(ref_lam)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_segment_split_decision_matches_the_loop(data):
    cfg = SolverConfig().with_overrides(window=_WINDOW, curve_res=_CURVE)
    cloud = _cloud(data.draw, _CURVE, _edges(cfg), 4)
    pairs = []
    for _ in range(data.draw(st.integers(1, 8))):
        roots = data.draw(cloud)
        pairs.append((roots, data.draw(cloud)[:2]
                      + _follow(data.draw, roots, _CURVE)))
    left = _table({float(s): a for s, (a, _b) in enumerate(pairs)})
    right = _table({float(s): b for s, (_a, b) in enumerate(pairs)})
    need = _segment_needs_split(left, right, cfg)
    assert need.tolist() == [
        _loop_segment_needs_split(a, b, cfg, _keep_pad(cfg))
        for a, b in pairs]


def test_segment_split_ignores_roots_that_are_never_emitted():
    # The quartic at the benchmark window: the emitted root near
    # -0.034 - 0.632i moves smoothly while a root near 3 + 2.03i, far past
    # the emit band (Re <= 2.1), comes and goes. Neither its appearance nor
    # its distance from the emitted root splits the segment; an emitted
    # root without a partner within curve_res does, as does one whose
    # other end is empty.
    cfg = SolverConfig().with_overrides(window=(-2.0, 2.0, -2.0, 2.0),
                                        curve_res=1e-2)
    emitted, moved = -0.034 - 0.632j, -0.0341 - 0.6322j
    far = 3.0 + 2.03j
    cases = [([emitted], [moved, far], False),
             ([emitted, far], [moved], False),
             ([2.05 + 0j, 2.5 + 0j], [2.051 + 0j, 5.0 + 0j], False),
             ([emitted], [emitted + 0.02], True),
             ([emitted, far], [far], True),
             ([], [moved], True),
             ([far], [], False)]
    for roots_a, roots_b, split in cases:
        assert _loop_segment_needs_split(roots_a, roots_b, cfg,
                                         _keep_pad(cfg)) == split
    need = _segment_needs_split(
        _table({float(k): a for k, (a, _b, _split) in enumerate(cases)}),
        _table({float(k): b for k, (_a, b, _split) in enumerate(cases)}), cfg)
    assert need.tolist() == [split for _a, _b, split in cases]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_merge_sides_matches_the_loop(data):
    cfg = SolverConfig().with_overrides(window=_WINDOW)
    cloud = _cloud(data.draw, _DEDUPE, _edges(cfg), 4)
    xis = st.lists(st.integers(0, 7).map(float), max_size=6, unique=True)
    plus = _sorted_rows({xi: data.draw(cloud) for xi in data.draw(xis)})
    minus = _sorted_rows({xi: data.draw(cloud)[:2]
                          + _follow(data.draw, plus.get(xi, []), _DEDUPE)
                          for xi in data.draw(xis)})
    with mock.patch.object(spectrum_module, "DEDUPE_TOL", _DEDUPE):
        classes = _merge_sides(_table(plus), _table(minus))
    reference = _loop_merge_sides(plus, minus, _DEDUPE)
    for side_class, table in classes.items():
        got = [(xi, lam) for xi, roots in _table_rows(table)
               for lam in roots]
        assert _bits(got) == _bits(reference[side_class])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_merge_of_a_table_with_itself_is_all_neutral(data):
    # Rows as _solve_at leaves them: sorted, no two roots within DEDUPE_TOL
    # (the clouds put some exactly at it). Each root then pairs with itself,
    # which is why singular_part skips the merge of a reused - side.
    cfg = SolverConfig().with_overrides(window=_WINDOW)
    cloud = _cloud(data.draw, _DEDUPE, _edges(cfg), 6)
    rows = {}
    for xi in data.draw(st.lists(st.integers(0, 7).map(float), max_size=6,
                                 unique=True)):
        kept = []
        for root in data.draw(cloud):
            if all(abs(root - other) > _DEDUPE for other in kept):
                kept.append(root)
        rows[xi] = kept
    rows = _sorted_rows(rows)
    table = _table(rows)
    with mock.patch.object(spectrum_module, "DEDUPE_TOL", _DEDUPE):
        classes = _merge_sides(table, table)
    reference = _loop_merge_sides(rows, rows, _DEDUPE)
    assert reference["+"] == reference["-"] == []
    assert _bits(reference[REGULAR_SIDE]) == _bits(
        [(xi, lam) for xi, roots in sorted(rows.items()) for lam in roots])
    neutral = classes[REGULAR_SIDE]
    for name in ("xi", "lam", "count"):
        assert getattr(neutral, name).dtype == getattr(table, name).dtype
        assert getattr(neutral, name).tobytes() \
            == getattr(table, name).tobytes()
    for side in "+-":
        assert classes[side].xi.tobytes() == table.xi.tobytes()
        assert classes[side].lam.shape == (table.xi.size, 0)
        assert not classes[side].count.any()


@st.composite
def _traced_rows(draw, floor):
    """Rows of branches traced over up to 60 frequencies.

    Live roots start on a grid of spacing 1/2. Most rows move each of them
    by a dyadic step up to half the gate floor, so runs of equal-count rows
    are long. Other rows fork a root (a birth up to twice the floor from
    another), end one (its head stays), are empty, move a root toward an
    ended branch's head (halfway, three quarters or all the way, so that
    head is within the gate and as near as the root's pair or nearer), or
    move a root to the midpoint of two live ones (an exact distance tie).
    """
    anchor = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(
        lambda k: complex(k[0] / 2, k[1] / 2))
    steps = st.sampled_from(_unit_steps(floor / 4))
    forks = st.sampled_from(_unit_steps(floor))
    live = draw(st.lists(anchor, max_size=3))
    ended, rows = [], {}
    for k in range(draw(st.integers(0, 60))):
        event = draw(st.sampled_from(["step"] * 8 + [
            "fork", "end", "empty", "stray", "tie"]))
        pick = st.integers(0, max(len(live) - 1, 0))
        if event == "fork" and live:
            live.append(live[draw(pick)] + draw(forks))
        elif event == "end" and live:
            ended.append(live.pop(draw(pick)))
        elif event == "stray" and live and ended:
            i, head = draw(pick), draw(st.sampled_from(ended))
            live[i] += (head - live[i]) * draw(st.sampled_from([0.5, 0.75,
                                                                1.0]))
        elif event == "tie" and len(live) >= 2:
            i, j = draw(pick), draw(pick)
            live[i] = 0.5 * (live[i] + live[j])
        elif event == "step":
            live = [root + draw(steps) for root in live]
        rows[float(k)] = [] if event == "empty" else list(live)
    return rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), first_id=st.integers(0, 3),
       block=st.sampled_from([1, 2, 5, spectrum_module.CLASH_BLOCK]))
def test_assign_branches_matches_the_loop(data, first_id, block):
    # 50 * curve_res = 25/64, the match tolerance near the origin.
    cfg = SolverConfig().with_overrides(window=_WINDOW, curve_res=1 / 128)
    floor = 50.0 * cfg.curve_res
    if data.draw(st.integers(0, 3)):
        rows = data.draw(_traced_rows(floor))
    else:
        cloud = _cloud(data.draw, floor, _edges(cfg), 4)
        rows, roots = {}, []
        for k in range(data.draw(st.integers(0, 8))):
            roots = data.draw(cloud)[:2] + _follow(data.draw, roots, floor)
            rows[float(k)] = roots
    rows = _sorted_rows(rows)
    table = _table(rows)
    with mock.patch.object(spectrum_module, "CLASH_BLOCK", block):
        ids, next_id, counts = _assign_branches(table, first_id, cfg)
    got = [(xi, lam, bid) for (xi, lam), bid in zip(
        ((xi, lam) for xi, roots in _table_rows(table) for lam in roots),
        ids.tolist())]
    raw = [(xi, lam) for xi, roots in rows.items() for lam in roots]
    want, want_next = _loop_assign_branches(raw, first_id, cfg)
    assert _bits(got) == _bits(want)
    assert next_id == want_next
    assert counts["branches"] == next_id - first_id
    assert counts["array_rows"] + counts["joints"] \
        == sum(1 for roots in rows.values() if roots)


def _branch_counts(rows, cfg):
    """Branch ids (checked against the loop) and the continuation counts."""
    ids, next_id, counts = _assign_branches(_table(_sorted_rows(rows)), 0, cfg)
    raw = [(xi, lam) for xi, roots in rows.items() for lam in roots]
    want, want_next = _loop_assign_branches(raw, 0, cfg)
    assert ids.tolist() == [bid for _xi, _lam, bid in want]
    assert next_id == want_next
    return ids.tolist(), counts


def test_assign_branches_takes_runs_by_array_and_joints_by_loop():
    cfg = SolverConfig().with_overrides(curve_res=1 / 128)
    # Two branches over 40 rows, one ending at row 20, then an empty row:
    # the first row and the count change are joints, every other row
    # takes the array path, and the empty row is skipped.
    rows = {float(k): [complex(0.25 * k / 8, 0.0), complex(2.0, k / 64)]
            for k in range(20)}
    rows.update({float(k): [complex(2.0, k / 64)] for k in range(20, 40)})
    rows[40.0] = []
    rows[41.0] = [complex(2.0, 41 / 64)]
    assert _branch_counts(rows, cfg)[1] == {
        "branches": 2, "array_rows": 39, "joints": 2}
    # The surviving branch moves onto the ended one's head at row 30: the
    # row is a joint and the root continues the ended branch.
    rows = {float(k): [complex(0.0, 0.0), complex(0.25, k / 256)]
            for k in range(10)}
    rows.update({float(k): [complex(0.25, k / 256)] for k in range(10, 30)})
    rows[30.0] = [complex(0.0, 0.0)]
    ids, counts = _branch_counts(rows, cfg)
    assert counts == {"branches": 2, "array_rows": 28, "joints": 3}
    assert ids[-1] == ids[0] == 0
    # The root moves halfway to the head of the branch that ended: that
    # head is as near as the root's pair, and was made first, so the loop
    # continues the ended branch.
    rows = {0.0: [complex(0.0, 0.0), complex(0.25, 0.0)],
            1.0: [complex(0.25, 0.0)], 2.0: [complex(0.125, 0.0)]}
    ids, counts = _branch_counts(rows, cfg)
    assert counts == {"branches": 2, "array_rows": 0, "joints": 3}
    assert ids == [0, 1, 1, 0]
    # Heads 0 at 3/8 and 1 at 0; both roots of the next row lie 5/16 from
    # head 0, the first also from head 1. The loop gives the first root
    # head 0, as it was made first, and starts a branch at the second.
    rows = {0.0: [0.375 + 0j], 1.0: [0j, 0.375 + 0j],
            2.0: [0.1875 + 0.25j, 0.6875 + 0j]}
    ids, counts = _branch_counts(rows, cfg)
    assert counts == {"branches": 3, "array_rows": 0, "joints": 3}
    assert ids == [0, 1, 0, 0, 2]
    # Two roots exactly halfway between two heads: an exact tie.
    rows = {0.0: [complex(0.0, 0.0), complex(0.25, 0.0)],
            1.0: [complex(0.125, 0.0), complex(0.125, 0.0)]}
    assert _branch_counts(rows, cfg)[1]["joints"] == 2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), block=st.sampled_from([1, 2, 3,
                                              spectrum_module.PAIR_BLOCK]))
def test_flags_match_the_loop(data, block):
    edges = _edges(SolverConfig().with_overrides(window=_WINDOW))
    cloud = _cloud(data.draw, _DEDUPE, edges, 6)
    exc_cloud = _cloud(data.draw, _CURVE, edges, 3)
    flags = st.sampled_from([(), ("in_exceptional",),
                             ("in_regular_closure",)])
    points = [SingularPoint("+", float(k), lam, k, data.draw(flags))
              for k, lam in enumerate(data.draw(cloud))]
    regular = [RegularPoint(float(k), lam)
               for k, lam in enumerate(data.draw(cloud))]
    exceptional = ExceptionalSet(points=tuple(data.draw(exc_cloud)),
                                 radii=(), window_exponents=(),
                                 sources={"+": "sampled", "-": "sampled"})
    with mock.patch.multiple(spectrum_module, PAIR_BLOCK=block,
                             DEDUPE_TOL=_DEDUPE, EXC_TOL=_CURVE):
        got = _flag_singular(SingularTable.from_rows(points),
                             RegularTable.from_rows(regular), exceptional)
    assert list(got) == _loop_flag_singular(points, regular, exceptional,
                                            _DEDUPE, _CURVE)


def test_singular_part_makes_no_per_root_calls(monkeypatch):
    calls = {"window_contains": 0, "replace": 0, "near_window": 0}
    real_near = spectrum_module._near_window
    real_replace = dataclasses.replace
    real_contains = config_module.window_contains

    def near_window(*args):
        calls["near_window"] += 1
        return real_near(*args)

    def replace(obj, **changes):
        if isinstance(obj, SingularPoint):
            calls["replace"] += 1
        return real_replace(obj, **changes)

    def contains(*args, **kwargs):
        calls["window_contains"] += 1
        return real_contains(*args, **kwargs)

    monkeypatch.setattr(spectrum_module, "_near_window", near_window)
    monkeypatch.setattr(dataclasses, "replace", replace)
    monkeypatch.setattr(config_module, "window_contains", contains)
    # Also catches the function imported by name into the spectrum module.
    monkeypatch.setattr(spectrum_module, "window_contains", contains,
                        raising=False)
    op = parabolic_potential()
    cfg = SolverConfig().with_overrides(window=(-2.0, 1.0, -0.5, 0.5))
    spectrum = essential_spectrum(op, cfg)
    assert spectrum.singular
    assert calls["window_contains"] == 0
    assert calls["replace"] == 0

    # Roots xi^2 on [-1, 1] stay inside the window and within curve_res of
    # their neighbours, so no segment is split: the call count is fixed.
    coarse = SolverConfig().with_overrides(window=(-2.0, 1.0, -0.5, 0.5),
                                           curve_res=0.5)
    counts = []
    for size in (11, 101):
        calls["near_window"] = 0
        report = {}
        singular_part(op, xi_grid=np.linspace(-1.0, 1.0, size), cfg=coarse,
                      report=report)
        assert report["singular"]["sweeps"]["+"]["refinement_rounds"] == 0
        counts.append(calls["near_window"])
    assert counts[0] == counts[1] > 0


# ---------------------------------------------------------------------------
# Full assembly
# ---------------------------------------------------------------------------

QUARTIC_LIMITS = ("d", "alpha_0", "alpha_2", "alpha_4", "beta_0,1", "beta_0,2",
                  "beta_1,1", "beta_3,1", "beta_3,2", "beta_4,1")
"""The limits behind the quartic's closed-form tail polynomial."""
QUARTIC_ZERO_LIMITS = ("d", "beta_0,1", "beta_0,2", "beta_3,1", "beta_3,2")
"""Those of them within two tail bounds of 0."""


def growing_coefficients() -> OperatorMatrix:
    """m = 2, a_0 = a_2 = 1 + x^2, b_1 = -i(1 + x^2), c_1 = i, d = 2i.

    p_0/p_2 -> (2i - lambda)/(2i - lambda - 1), so the singular part is
    lambda = 2i - xi^2/(1 + xi^2), though alpha_0 has no limit.
    """
    grow = parse("1 + x^2")
    return OperatorMatrix(a=(grow, ZERO, grow), b=(ZERO, Lit(-1j) * grow),
                          c=(ZERO, Lit(1j)), d=Lit(2j))


QUARTIC_SPECTRUM_CFG = SolverConfig().with_overrides(
    xi_points=40, xi_max=2.0, curve_res=0.02)


@pytest.fixture(scope="module")
def quartic_spectrum():
    return essential_spectrum(quartic_coupled(), QUARTIC_SPECTRUM_CFG)


class TestEssentialSpectrum:
    def test_exceptional_set_estimated(self, quartic_spectrum):
        spectrum = quartic_spectrum
        assert len(spectrum.exceptional.points) == 1
        assert abs(spectrum.exceptional.points[0]) <= 1e-4

    def test_zero_root_flagged_exceptional(self, quartic_spectrum):
        spectrum = quartic_spectrum
        near_zero = [p for p in spectrum.singular if abs(p.lam) <= 1e-6]
        assert near_zero
        assert all("in_exceptional" in p.flags for p in near_zero)

    def test_regular_and_singular_both_present(self, quartic_spectrum):
        spectrum = quartic_spectrum
        assert spectrum.regular and spectrum.singular
        ends = endpoint_points(spectrum.regular)
        assert set(ends) == {math.inf, -math.inf}
        assert len({p.branch_id for p in spectrum.singular}) >= 2

    def test_report_structure(self, quartic_spectrum):
        report = quartic_spectrum.report
        for key in ("config", "tolerances", "leading_coefficient",
                    "regular", "exceptional", "singular", "errors"):
            assert key in report
        assert report["errors"] == []
        assert report["tolerances"]["root_tol"] == ROOT_TOL
        grid_points = default_xi_grid(QUARTIC_SPECTRUM_CFG).size
        for side in ("+", "-"):
            fit = report["singular"]["fits"][side]
            assert fit["route"] == "closed_form"
            # Every non-zero x-only tree of the lambda-free form, and d.
            limits = {entry["label"]: entry for entry in fit["limits"]}
            assert set(limits) == set(QUARTIC_LIMITS)
            for label, entry in limits.items():
                assert entry["zero"] is (label in QUARTIC_ZERO_LIMITS)
                assert entry["zero"] is (abs(complex(*entry["value"]))
                                         <= 2.0 * entry["tail_bound"])
                assert entry["sample_count"] >= 4
                assert entry["last_increment"] <= LIMIT_TOL \
                    * (1.0 + abs(complex(*entry["value"])))
                assert entry["recheck"]["sample_count"] >= 4
            sweep = report["singular"]["sweeps"][side]
            # Every round checks every segment of the table once.
            assert grid_points - 1 <= sweep["segments_checked"] \
                <= (sweep["refinement_rounds"] + 1) \
                * (sweep["frequencies"] - 1)
            # One stacked solve per shape in each frequency batch, so at
            # least one per batch.
            assert sweep["companion_solves"] >= sweep["refinement_rounds"] + 1
            # Rounds insert frequencies below a segment's own midpoint.
            assert 0 < sweep["predicted"] < sweep["frequencies"]
            # The closed form needs no limit batch at all.
            assert sweep["limit_batches"] == 0
            assert sweep["lambdas_evaluated"] == 0

    def test_fallback_report_counts_fit_work(self):
        # a_0 grows, so the closed form refuses alpha_0, but every ratio
        # p_j/p_2 has a limit: the side falls back to fit-and-polish.
        op = growing_coefficients()
        cfg = SolverConfig().with_overrides(
            xi_points=40, xi_max=2.0, curve_res=0.02)
        spectrum = essential_spectrum(op, cfg)
        report = spectrum.report
        assert report["errors"] == []
        for p in spectrum.singular:
            assert abs(p.lam - (2j - p.xi ** 2 / (1 + p.xi ** 2))) <= 1e-6
        grid_points = default_xi_grid(cfg).size
        for side in ("+", "-"):
            fit = report["singular"]["fits"][side]
            assert fit["route"] == "fit"
            assert fit["refused"]["label"] == "alpha_0"
            assert fit["residual"] <= FIT_TOL
            sweep = report["singular"]["sweeps"][side]
            # Both ends fit alike, yet each polishes on its own limits.
            assert "reused" not in sweep
            assert sweep["points"] > 0
            assert grid_points - 1 <= sweep["segments_checked"] \
                <= (sweep["refinement_rounds"] + 1) \
                * (sweep["frequencies"] - 1)
            assert sweep["companion_solves"] >= sweep["refinement_rounds"] + 1
            # Each batch polishes in at least one limit batch plus a
            # recheck; every batch evaluates some lambda, and each Newton
            # step follows an evaluation of its candidate.
            assert sweep["limit_batches"] >= sweep["refinement_rounds"] + 2
            assert sweep["lambdas_evaluated"] >= sweep["limit_batches"]
            assert sweep["newton_iterations"] < sweep["lambdas_evaluated"]

    def test_fallback_names_the_refused_limit(self):
        op = OperatorMatrix(a=(parse("sin(x^2)"), ZERO, ONE), b=(ZERO, ZERO),
                            c=(ZERO, ZERO), d=Lit(2j))
        cfg = SolverConfig().with_overrides(xi_points=8)
        report = essential_spectrum(op, cfg).report
        for side in ("+", "-"):
            fit = report["singular"]["fits"][side]
            assert fit["route"] == "fit"
            assert fit["refused"]["label"] == "alpha_0"
            assert "alpha_0" in fit["refused"]["reason"]
            assert "limit samples" in fit["error"]

    def test_report_counts_skips_by_kind(self, quartic_spectrum):
        singular = quartic_spectrum.report["singular"]
        counts = singular["skip_counts"]
        assert set(counts) == set(SKIP_KINDS)
        assert sum(counts.values()) == singular["skip_count"]
        for kind in SKIP_KINDS:
            kept = [s for s in singular["skips"] if s["type"] == kind]
            assert len(kept) == min(counts[kind], SKIP_SAMPLE)

    def test_polish_drops_stalled_candidates_early(self, monkeypatch):
        # Companion seeds of the quartic on its fitted profile. The first
        # sits next to lambda = -i, a pole of its tail ratios, where the
        # limit noise keeps |F| above root_tol; the second converges.
        calls = []
        real_batch = spectrum_module._ratio_batch

        def counting_batch(symbol, lams, xs):
            calls.append(len(lams))
            return real_batch(symbol, lams, xs)

        op = quartic_coupled()
        symbol = build_schur(op)
        cfg = SolverConfig()
        profile = _fit_side(symbol, "+", op.n)
        monkeypatch.setattr(spectrum_module, "_ratio_batch", counting_batch)
        xi = np.array([-44.32171342476086, 2.825711502920827])
        lam = np.array([-0.0004978308342130793 - 0.9999994871197233j,
                        -0.1754222655361281 - 0.9577373184660526j])
        skips = []
        work = dict.fromkeys(WORK_COUNTERS, 0)
        kept, _ = _polish_batch(symbol, profile,
                                _cleared_coefficients(profile, op.m, xi), xi,
                                lam, cfg, skips, work)
        assert list(kept) == [False, True]
        assert [(s["type"], s["reason"]) for s in skips] == [
            ("PolishSkip", "Newton on the fitted slope did not locate a root")]
        assert work["limit_batches"] == len(calls)
        assert work["lambdas_evaluated"] == sum(calls)
        assert NEWTON_STEPS < work["newton_iterations"] <= 2 * NEWTON_STEPS
        # One batch per Newton step, one for the slope and one for the
        # recheck.
        assert len(calls) <= NEWTON_STEPS + 3

    def test_partial_result_when_limits_never_settle(self):
        op = OperatorMatrix(a=(Call("sin", X), ZERO, ONE), b=(ZERO, ZERO),
                            c=(ZERO, ZERO), d=Lit(2j))
        cfg = SolverConfig().with_overrides(xi_points=8)
        spectrum = essential_spectrum(op, cfg)
        assert len(spectrum.singular) == 0
        assert spectrum.report["errors"]
        assert finite_points(spectrum.regular)

    def test_parabolic_parts_are_disjoint_with_gap(self):
        cfg = SolverConfig().with_overrides(xi_points=60, curve_res=0.05)
        spectrum = essential_spectrum(parabolic_potential(), cfg)
        regular_re = np.asarray([p.lam.real for p in spectrum.regular])
        singular_re = np.asarray([p.lam.real for p in spectrum.singular])
        assert np.max(regular_re) <= -1.0 + 1e-9
        assert np.min(singular_re) >= -1e-7
        assert spectrum.exceptional.points == ()


FALLBACK_CFG = SolverConfig().with_overrides(xi_points=30, xi_max=100.0,
                                             curve_res=0.05)
"""A coarse sweep with a wide frequency range for fit-route operators."""


def test_fallback_emits_nothing_where_the_tail_does_not_depend_on_lambda():
    # beta_2,1 = 1 + x grows, so the closed form is refused; every ratio
    # p_j/p_2 tends to 0, so F = xi^2 for every lambda and no lambda is a
    # root at xi != 0, although the residual alone passes at every lambda
    # once |xi| <= 1e-4.
    op = OperatorMatrix(a=(ONE, ZERO, ONE), b=(ZERO, ONE),
                        c=(ZERO, parse("1 + x")), d=Lit(2j))
    report = {}
    assert len(singular_part(op, cfg=FALLBACK_CFG, report=report)) == 0
    for side in ("+", "-"):
        fit = report["singular"]["fits"][side]
        assert fit["route"] == "fit"
        assert fit["refused"]["label"] == "beta_2,1"


@pytest.mark.parametrize("seed", [80, 329])
def test_fallback_points_are_roots_by_the_true_slope(seed):
    # Oscillating coefficients refuse the closed form on both sides. Each
    # point must be a root of the limit-batch F, located by a Newton step
    # whose slope is a central difference of limit batches, not the fit.
    # The fitted slope that accepted it is off by up to 1.5% here, so the
    # step may reach twice DEDUPE_TOL.
    rng = random.Random(seed)
    op = random_operator(rng, rng.choice([2, 4]))
    symbol = build_schur(op)
    report = {}
    points = singular_part(op, symbol, cfg=FALLBACK_CFG, report=report)
    assert {fit["route"] for fit in report["singular"]["fits"].values()} \
        == {"fit"}
    assert points
    for side in ("+", "-"):
        # A neutral point keeps the root of the "+" side.
        sides = (side, REGULAR_SIDE) if side == "+" else (side,)
        mine = [p for p in points if p.side in sides]
        xi = np.asarray([p.xi for p in mine])
        lam = np.asarray([p.lam for p in mine])
        pows = xi[:, None] ** np.arange(op.m + 1)

        def tail(at):
            values, status = limit_ratio_batch(symbol, at, side)
            assert (status == "ok").all()
            return pows[:, op.m] + np.einsum("ij,ij->i", pows[:, :op.m],
                                             values)

        h = 1e-6
        value = tail(lam)
        slope = (tail(lam + h) - tail(lam - h)) / (2.0 * h)
        assert np.abs(value).max() <= ROOT_TOL
        assert np.abs(value / slope).max() <= 2.0 * DEDUPE_TOL


@pytest.mark.parametrize("seed", [328, 981, 992])
def test_fallback_drops_roots_of_a_fitted_pole_zero_pair(seed):
    # Every tail ratio of these draws is a zero limit read as about 1e-10
    # of noise, which the fit matches with a pole-zero pair. The fitted
    # slope at that zero passes the step test, but the slope of the limit
    # batches puts the root 5e5 to 9e8 away, far beyond curve_res.
    rng = random.Random(seed)
    op = random_operator(rng, rng.choice([2, 4]))
    report = {}
    assert len(singular_part(op, cfg=SMALL_SWEEP, report=report)) == 0
    singular = report["singular"]
    assert {fit["route"] for fit in singular["fits"].values()} == {"fit"}
    assert singular["skip_counts"]["RecheckSkip"] > 0


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

class TestCsv:
    def test_csv_is_deterministic_and_complete(self, tmp_path):
        cfg = SolverConfig().with_overrides(
            xi_points=12, xi_max=1.5, curve_res=0.1)
        spectrum = essential_spectrum(quartic_coupled(), cfg)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(spectrum, first)
        write_csv(spectrum, second)
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(spectrum.regular) + len(spectrum.singular)
        assert any(",inf," in line for line in lines)
        assert any(",-inf," in line for line in lines)
        assert any(line.endswith("in_exceptional") for line in lines)

    def test_rows_round_trip_numbers(self):
        spectrum = SpectrumSet(
            regular=RegularTable.from_rows([RegularPoint(-math.inf, -1j),
                                            RegularPoint(0.5, 0.25 + 1j)]),
            singular=SingularTable.from_rows([SingularPoint(
                "+", 2.0, 4.0 + 0j, 0, ("in_regular_closure",))]),
            exceptional=None,
            report={},
        )
        rows = spectrum_rows(spectrum)
        assert rows[0].split(",")[2] == "-inf"
        fields = rows[1].split(",")
        assert float(fields[2]) == 0.5
        assert complex(float(fields[3]), float(fields[4])) == 0.25 + 1j
        assert rows[2].split(",")[6] == "in_regular_closure"

    def test_table_rows_take_integer_indices_only(self):
        rows = [SingularPoint("+", 2.0, 4.0 + 0j, 0, ("in_exceptional",)),
                SingularPoint("-", 3.0, 1j, 1, ())]
        table = SingularTable.from_rows(rows)
        assert [table[0], table[np.int64(-1)]] == rows
        assert table.lam[0:2].tolist() == [4.0 + 0j, 1j]
        with pytest.raises(TypeError, match="slice the columns instead"):
            table[0:2]
        regular = RegularTable.from_rows([RegularPoint(0.5, 1j)])
        with pytest.raises(TypeError, match="index rows by int, not float"):
            regular[0.0]


WINDOW_CROSSING = SolverConfig().with_overrides(
    window=(-2.0, 2.0, -2.0, 2.0), curve_res=1e-2)


@pytest.mark.parametrize("xi0, s", [
    pytest.param(10.0, 1.0, id="on-grid"),
    *(pytest.param(xi0, s, id=f"off-grid-{xi0:g}-{s:g}",
                   marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                           reason="ROADMAP item 8"))
      for xi0, s in ((10.1234, 1.0), (3.7, 1e2), (0.5, 1e4)))])
def test_a_branch_that_crosses_the_window_covers_its_segment(xi0, s):
    # The branch lambda ~ s (xi^2 - xi0^2) crosses the window along the
    # real segment [-2, 2] within about 2/(s xi0) of xi0. Where xi0 lies
    # on the default grid the sweep finds it; between two grid
    # frequencies no end root of the segment lies in the window, so the
    # branch is lost without a word.
    lam = essential_spectrum(window_crossing(xi0, s),
                             WINDOW_CROSSING).singular.lam
    lam = lam[(np.abs(lam.real) < 2.0) & (np.abs(lam.imag) < 2.0)]
    assert lam.size
    assert np.abs(lam.imag).max() <= WINDOW_CROSSING.curve_res
    segment = np.linspace(-1.9, 1.9, 381)
    gaps = np.abs(segment[:, None] - lam[None, :]).min(axis=1)
    assert gaps.max() <= WINDOW_CROSSING.curve_res
