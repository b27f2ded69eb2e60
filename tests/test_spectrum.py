"""Spectrum assembly: regular curve sampling, singular sweep, CSV output."""

from __future__ import annotations

import math

import numpy as np
import pytest

from factories import parabolic_potential, quartic_coupled
from matspectra.config import SolverConfig
from matspectra.errors import FitError
from matspectra.expr import Call, Lit, X, evaluate
from matspectra import spectrum as spectrum_module
from matspectra.model import OperatorMatrix, delta
from matspectra.schur import build_schur
from matspectra.spectrum import (
    CSV_HEADER,
    NEWTON_STALL,
    REGULAR_SIDE,
    SKIP_KINDS,
    SKIP_SAMPLE,
    RegularPoint,
    SingularPoint,
    SpectrumSet,
    _polish_batch,
    default_xi_grid,
    essential_spectrum,
    regular_part,
    singular_part,
    spectrum_rows,
    write_csv,
)

ZERO = Lit(0j)
ONE = Lit(1 + 0j)


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
            assert fits[side]["trusted"] is True
            assert fits[side]["residual"] <= SolverConfig().fit_tol

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

    def test_fit_failure_raises(self):
        op = OperatorMatrix(a=(Call("sin", X), ZERO, ONE), b=(ZERO, ZERO),
                            c=(ZERO, ZERO), d=Lit(2j))
        with pytest.raises(FitError, match="limit samples"):
            singular_part(op, xi_grid=[1.0])


# ---------------------------------------------------------------------------
# Full assembly
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def quartic_spectrum():
    cfg = SolverConfig().with_overrides(
        xi_points=40, xi_max=2.0, curve_res=0.02)
    return essential_spectrum(quartic_coupled(), cfg)


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
        assert report["tolerances"]["root_tol"] == SolverConfig().root_tol
        assert report["singular"]["fits"]["+"]["trusted"] is True

    def test_report_counts_skips_by_kind(self, quartic_spectrum):
        singular = quartic_spectrum.report["singular"]
        counts = singular["skip_counts"]
        assert set(counts) == set(SKIP_KINDS)
        assert sum(counts.values()) == singular["skip_count"]
        for kind in SKIP_KINDS:
            kept = [s for s in singular["skips"] if s["type"] == kind]
            assert len(kept) == min(counts[kind], SKIP_SAMPLE)

    def test_polish_drops_stalled_candidates_early(self, monkeypatch):
        # Companion seeds of the quartic. The first sits next to
        # lambda = -i, a pole of its tail ratios, and its residual stays
        # near 2e-7, above root_tol; the second converges in one step.
        calls = []
        real_batch = spectrum_module.limit_ratio_batch

        def counting_batch(symbol, lams, side, cfg):
            calls.append(len(lams))
            return real_batch(symbol, lams, side, cfg)

        monkeypatch.setattr(spectrum_module, "limit_ratio_batch",
                            counting_batch)
        xi = np.array([-44.32171342476086, 2.825711502920827])
        lam = np.array([-0.0004978308342130793 - 0.9999994871197233j,
                        -0.1754222655361281 - 0.9577373184660526j])
        cfg = SolverConfig()
        skips = []
        kept, _ = _polish_batch(build_schur(quartic_coupled()), "+", xi,
                                lam, cfg, skips)
        assert list(kept) == [False, True]
        assert [(s["type"], s["reason"]) for s in skips] == [
            ("PolishSkip", "Newton stalled above the root tolerance")]
        # One batch per Newton iteration plus the recheck; far fewer than
        # the newton_max_iter + 1 iterations a stalled seed used to run.
        assert len(calls) <= 2 * NEWTON_STALL < cfg.newton_max_iter

    def test_partial_result_when_limits_never_settle(self):
        op = OperatorMatrix(a=(Call("sin", X), ZERO, ONE), b=(ZERO, ZERO),
                            c=(ZERO, ZERO), d=Lit(2j))
        cfg = SolverConfig().with_overrides(xi_points=8)
        spectrum = essential_spectrum(op, cfg)
        assert spectrum.singular == ()
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
            regular=(RegularPoint(-math.inf, -1j),
                     RegularPoint(0.5, 0.25 + 1j)),
            singular=(SingularPoint("+", 2.0, 4.0 + 0j, 0,
                                    ("in_regular_closure",)),),
            exceptional=None,
            report={},
        )
        rows = spectrum_rows(spectrum)
        assert rows[0].split(",")[2] == "-inf"
        fields = rows[1].split(",")
        assert float(fields[2]) == 0.5
        assert complex(float(fields[3]), float(fields[4])) == 0.25 + 1j
        assert rows[2].split(",")[6] == "in_regular_closure"
