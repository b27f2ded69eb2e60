"""Spectrum assembly: regular curve sampling, singular sweep, CSV output."""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import parabolic_potential, quartic_coupled
from matspectra import config as config_module
from matspectra.asymptotics import ExceptionalSet
from matspectra.config import SolverConfig, window_contains
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
    WORK_COUNTERS,
    RootTable,
    SpectrumSet,
    _assign_branches,
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coeffs=_cleared_matrices())
def test_companion_roots_match_per_row_np_roots(coeffs):
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
        kept = np.flatnonzero(mags > 1e-12 * mags.max())
        if kept[-1] > kept[0]:
            shapes.add((kept[-1] - kept[0], kept[0]))
        # np.roots gives float64 zeros for a lone term of positive degree.
        want = want.astype(np.complex128)
        widths.append(want.size)
        assert got[:want.size].tobytes() == want.tobytes()
        assert np.isnan(got[want.size:]).all()
    assert roots.shape[1] == max(widths)
    # One stacked eigvals per (degree, vanishing low-order terms) shape.
    assert solves == len(shapes)


# ---------------------------------------------------------------------------
# Loop versions of the sweep bookkeeping: the references for the root table
# ---------------------------------------------------------------------------

def _loop_post_polish(xi_values, root_rows, polish, cfg):
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
        if all(abs(lam - other) > cfg.dedupe_tol for other in bucket):
            bucket.append(lam)
    for bucket in grouped.values():
        bucket.sort(key=lambda z: (z.real, z.imag))
    return grouped


def _loop_gap_midpoint(a, b):
    if a != 0.0 and b != 0.0 and (a > 0) == (b > 0):
        return math.copysign(math.sqrt(abs(a) * abs(b)), a)
    return 0.5 * (a + b)


def _loop_segment_needs_split(roots_a, roots_b, cfg, keep_pad):
    if not roots_a and not roots_b:
        return False

    def emitted(root):
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


def _loop_merge_sides(plus, minus, cfg):
    classes = {REGULAR_SIDE: [], "+": [], "-": []}
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


def _loop_match_tolerance(head, root, cfg):
    return max(50.0 * cfg.curve_res,
               0.05 * (1.0 + 0.5 * (abs(head) + abs(root))))


def _loop_assign_branches(raw, first_id, cfg):
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
            out.append((xi, roots[ri], bid))
        for ri, root in enumerate(roots):
            if ri not in used_roots:
                out.append((xi, root, next_id))
                heads.append((next_id, root))
                next_id += 1
    return out, next_id


def _loop_flag_singular(points, regular, exceptional, cfg):
    values = np.asarray([p.lam for p in regular], dtype=complex)
    order = np.argsort(values.real, kind="stable")
    values = values[order]
    reals = values.real
    flagged = []
    for point in points:
        flags = []
        if any(abs(point.lam - p) <= cfg.exc_tol
               for p in exceptional.points):
            flags.append("in_exceptional")
        lo = np.searchsorted(reals, point.lam.real - cfg.dedupe_tol, "left")
        hi = np.searchsorted(reals, point.lam.real + cfg.dedupe_tol, "right")
        if lo < hi and np.min(
                np.abs(values[lo:hi] - point.lam)) <= cfg.dedupe_tol:
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
# Singular sweep: worklist refinement
# ---------------------------------------------------------------------------

def _rescan_targets(tracked, cfg, tried):
    """Refinement targets from a full rescan of every segment."""
    xis = sorted(tracked)
    keep_pad = _keep_pad(cfg)
    targets = []
    for a, b in zip(xis[:-1], xis[1:]):
        if b - a <= 1e-7 * (1.0 + abs(a)):
            continue
        if not _loop_segment_needs_split(tracked[a], tracked[b], cfg,
                                         keep_pad):
            continue
        mid = _loop_gap_midpoint(a, b)
        if mid in tried or mid <= a or mid >= b:
            continue
        targets.append(mid)
    return targets


def _rescan_sweep(symbol, profile, xi_grid, cfg, skips):
    """``_sweep_side`` with the full rescan; returns the segments scanned."""
    work = dict.fromkeys(WORK_COUNTERS, 0)

    def solve(xi_values):
        table = spectrum_module._solve_at(symbol, profile, xi_values, cfg,
                                          skips, work)
        return dict(_table_rows(table))

    solved = solve(xi_grid)
    tried = {float(x) for x in xi_grid}
    rounds = 0
    total = sum(len(v) for v in solved.values())
    while total < cfg.max_points and rounds < 48:
        work["segments_checked"] += len(solved) - 1
        targets = _rescan_targets(solved, cfg, tried)
        if not targets:
            break
        targets = targets[:max(0, cfg.max_points - total)]
        tried.update(targets)
        solved.update(solve(np.asarray(targets)))
        total = sum(len(v) for v in solved.values())
        rounds += 1
    rescanned = work.pop("segments_checked")
    info = {"frequencies": len(solved), "points": total,
            "refinement_rounds": rounds, **work}
    return solved, info, rescanned


def _assert_same_sweep(symbol, profile, xi_grid, cfg):
    table, info = _sweep_side(symbol, profile, xi_grid, cfg, [])
    ref_solved, ref_info, rescanned = _rescan_sweep(
        symbol, profile, xi_grid, cfg, [])
    assert _bits(_table_rows(table)) == _bits(sorted(ref_solved.items()))
    checked = info.pop("segments_checked")
    assert info == ref_info
    assert checked <= rescanned
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
def test_worklist_refinement_matches_full_rescan(branches, grid_points,
                                                  curve_res, max_points):
    # Each branch lam = c + s*xi + q*xi^2 lives on [start, start + length]:
    # births and deaths make segments that split down to the width floor.
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
        window=(-1.0, 1.0, -1.0, 1.0), curve_res=curve_res,
        max_points=max_points)
    with mock.patch.object(spectrum_module, "_solve_at", fake_solve):
        _assert_same_sweep(None, None, np.linspace(-2.0, 2.0, grid_points),
                           cfg)


def test_worklist_refinement_keeps_targets_past_the_budget(monkeypatch):
    op = parabolic_potential()
    cfg = SolverConfig().with_overrides(
        window=(-2.0, 1.0, -0.5, 0.5), curve_res=0.05, max_points=6)
    symbol = build_schur(op)
    profile = _fit_side(symbol, "+", op.n, cfg)
    offered, solved_mids = [], []
    real_targets = spectrum_module._refinement_targets
    real_solve = spectrum_module._solve_at

    def recording_targets(*args):
        flagged, targets = real_targets(*args)
        offered.append(targets[:, 1].tolist())
        return flagged, targets

    def recording_solve(symbol, profile, xi_values, *args):
        solved_mids.append([float(x) for x in xi_values])
        return real_solve(symbol, profile, xi_values, *args)

    monkeypatch.setattr(spectrum_module, "_refinement_targets",
                        recording_targets)
    monkeypatch.setattr(spectrum_module, "_solve_at", recording_solve)
    grid = np.array([-4.0, -1.0, 0.0, 1.0, 4.0])
    info = _sweep_side(symbol, profile, grid, cfg, [])[1]
    monkeypatch.undo()
    # Roots at xi = +-4 and at the first midpoint -2 leave the tracking
    # band, so a round can spend its budget and still leave room.
    rounds = solved_mids[1:]
    cut = [(k, offered[k][len(rounds[k]):]) for k in range(len(rounds))
           if len(offered[k]) > len(rounds[k])]
    assert any(k + 1 < len(offered) and set(left) <= set(offered[k + 1])
               for k, left in cut)
    assert info["points"] == cfg.max_points
    assert _assert_same_sweep(symbol, profile, grid, cfg) == {
        key: value for key, value in info.items()
        if key != "segments_checked"}


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
    cfg = SolverConfig().with_overrides(window=_WINDOW, dedupe_tol=_DEDUPE,
                                        curve_res=_CURVE)
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

    def fake_polish(symbol, side, xi, lam, cfg, skips, work):
        seeds.append((xi.copy(), lam.copy()))
        return polish(xi, lam)

    profile = mock.Mock(side="+")
    skips = []
    with mock.patch.multiple(
            spectrum_module,
            _cleared_coefficients=lambda profile, m, xi: np.zeros((xi.size,
                                                                   1)),
            _companion_roots=lambda coeffs: _padded(root_rows),
            _polish_batch=fake_polish):
        table = spectrum_module._solve_at(mock.Mock(m=2), profile, xi_values,
                                          cfg, skips, {"companion_solves": 0})
    reference = _loop_post_polish(xi_values, root_rows, polish, cfg)
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


def test_segment_split_pairs_a_root_with_the_first_of_equally_near_ones():
    # The emit band ends at Re 4.125. The root 4.5 lies past it, 0.625 from
    # both 3.875 (inside) and 5.125 (outside); only pairing it with the
    # first of the two makes the gap reportable.
    cfg = SolverConfig().with_overrides(window=_WINDOW, curve_res=_CURVE)
    roots_a, roots_b = [3.8125 + 0j, 4.5 + 0j], [3.875 + 0j, 5.125 + 0j]
    assert _loop_segment_needs_split(roots_a, roots_b, cfg, _keep_pad(cfg))
    need = _segment_needs_split(_table({0.0: roots_a}), _table({0.0: roots_b}),
                                cfg)
    assert need.tolist() == [True]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_merge_sides_matches_the_loop(data):
    cfg = SolverConfig().with_overrides(window=_WINDOW, dedupe_tol=_DEDUPE)
    cloud = _cloud(data.draw, _DEDUPE, _edges(cfg), 4)
    xis = st.lists(st.integers(0, 7).map(float), max_size=6, unique=True)
    plus = _sorted_rows({xi: data.draw(cloud) for xi in data.draw(xis)})
    minus = _sorted_rows({xi: data.draw(cloud)[:2]
                          + _follow(data.draw, plus.get(xi, []), _DEDUPE)
                          for xi in data.draw(xis)})
    classes = _merge_sides(_table(plus), _table(minus), cfg)
    reference = _loop_merge_sides(plus, minus, cfg)
    for side_class, table in classes.items():
        got = [(xi, lam) for xi, roots in _table_rows(table)
               for lam in roots]
        assert _bits(got) == _bits(reference[side_class])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), first_id=st.integers(0, 3))
def test_assign_branches_matches_the_loop(data, first_id):
    # 50 * curve_res = 25/64, the match tolerance near the origin.
    cfg = SolverConfig().with_overrides(window=_WINDOW, curve_res=1 / 128)
    floor = 50.0 * cfg.curve_res
    cloud = _cloud(data.draw, floor, _edges(cfg), 4)
    rows, roots = {}, []
    for k in range(data.draw(st.integers(0, 8))):
        roots = data.draw(cloud)[:2] + _follow(data.draw, roots, floor)
        rows[float(k)] = roots
    rows = _sorted_rows(rows)
    got, next_id = _assign_branches(_table(rows), first_id, cfg)
    raw = [(xi, lam) for xi, roots in rows.items() for lam in roots]
    want, want_next = _loop_assign_branches(raw, first_id, cfg)
    assert _bits(got) == _bits(want)
    assert next_id == want_next


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_flags_match_the_loop(data):
    cfg = SolverConfig().with_overrides(window=_WINDOW, dedupe_tol=_DEDUPE,
                                        exc_tol=_CURVE)
    edges = _edges(cfg)
    cloud = _cloud(data.draw, _DEDUPE, edges, 6)
    exc_cloud = _cloud(data.draw, _CURVE, edges, 3)
    flags = st.sampled_from([(), ("in_exceptional",),
                             ("in_regular_closure",)])
    points = [SingularPoint("+", float(k), lam, k, data.draw(flags))
              for k, lam in enumerate(data.draw(cloud))]
    regular = [RegularPoint(float(k), lam)
               for k, lam in enumerate(data.draw(cloud))]
    exceptional = ExceptionalSet(points=tuple(data.draw(exc_cloud)),
                                 radii=(), window_exponents=(), sides="both")
    got = _flag_singular(points, regular, exceptional, cfg)
    assert got == _loop_flag_singular(points, regular, exceptional, cfg)


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
        grid_points = default_xi_grid(SolverConfig()).size
        for side in ("+", "-"):
            sweep = report["singular"]["sweeps"][side]
            # Every initial segment is checked once, later only new halves.
            assert grid_points - 1 <= sweep["segments_checked"] \
                <= 2 * sweep["frequencies"]
            # At least one stacked eigvals per frequency batch.
            assert sweep["companion_solves"] >= sweep["refinement_rounds"] + 1
            # Each batch polishes in at least one limit batch plus a
            # recheck; every batch evaluates some lambda, and each Newton
            # step follows an evaluation of its candidate.
            assert sweep["limit_batches"] >= sweep["refinement_rounds"] + 2
            assert sweep["lambdas_evaluated"] >= sweep["limit_batches"]
            assert sweep["newton_iterations"] < sweep["lambdas_evaluated"]

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
        work = dict.fromkeys(WORK_COUNTERS, 0)
        kept, _ = _polish_batch(build_schur(quartic_coupled()), "+", xi,
                                lam, cfg, skips, work)
        assert list(kept) == [False, True]
        assert [(s["type"], s["reason"]) for s in skips] == [
            ("PolishSkip", "Newton stalled above the root tolerance")]
        assert work["limit_batches"] == len(calls)
        assert work["lambdas_evaluated"] == sum(calls)
        assert 0 < work["newton_iterations"] < sum(calls)
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
