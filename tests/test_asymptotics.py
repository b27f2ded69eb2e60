"""Limits toward infinity: coefficient ratios, limit points of d, diagnostics.

Reference values for the two worked operators are closed forms computed
directly in the tests; the exceptional-set coverage test compares against a
dense brute-force sampling of the target function far from the origin.
"""

from __future__ import annotations

import cmath
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import (
    ONE,
    ZERO,
    _rand_coeff,
    parabolic_potential,
    quartic_coupled,
    random_constant_operator,
    random_operator,
    unbounded_coupling,
)
from oracles import directed_hausdorff
from matspectra.asymptotics import (
    Certificate,
    _check_c,
    _cluster,
    _ratio_samples,
    _sample_form,
    _sector_margin,
    _trajectory,
    check_assumptions,
    limit_of,
    limit_points_at_infinity,
    limit_ratio,
    limit_ratio_batch,
    limit_ratio_slope,
)
from matspectra import asymptotics as asymptotics_module
from matspectra.config import SolverConfig
from matspectra.errors import NotConvergent, PoleError
from matspectra.expr import Call, Lit, X, evaluate, evaluate_array, parse
from matspectra.model import OperatorMatrix, validation_grid
from matspectra.schur import build_schur, coefficient_trees

CFG = SolverConfig()


def quartic_tail_ratios(lam: complex) -> list[complex]:
    """Closed-form limit ratios of the quartic example, ascending in xi."""
    return [
        (lam - lam * lam) / (1j + lam),
        1.0 / (1j + lam),
        1j * lam / (1j + lam),
        0j,
    ]


# ---------------------------------------------------------------------------
# limit_ratio on the worked examples
# ---------------------------------------------------------------------------

def test_parabolic_ratios_at_2i_reach_minus_lambda_and_zero():
    symbol = build_schur(parabolic_potential())
    for side in ("+", "-"):
        values, certs = limit_ratio(symbol, 2j, side, CFG)
        assert len(values) == 2
        assert abs(values[0] - (-2j)) <= 1e-7
        assert abs(values[1]) <= 1e-7
        assert all(c.converged for c in certs)


@pytest.mark.parametrize("lam", [1.0 + 0j, 2.0 - 1j, -3.0 + 2j])
def test_quartic_ratios_match_closed_forms(lam):
    symbol = build_schur(quartic_coupled())
    values, certs = limit_ratio(symbol, lam, "+", CFG)
    expected = quartic_tail_ratios(lam)
    for got, want in zip(values, expected):
        assert abs(got - want) <= 1e-7
    for cert in certs:
        assert cert.converged
        assert cert.last_increment <= CFG.limit_tol * (1.0 + abs(cert.value))


def test_side_symmetry_for_even_coefficients():
    # Every coefficient of both examples is invariant under x -> -x.
    for op in (parabolic_potential(), quartic_coupled()):
        symbol = build_schur(op)
        plus, _ = limit_ratio(symbol, 2j, "+", CFG)
        minus, _ = limit_ratio(symbol, 2j, "-", CFG)
        for a, b in zip(plus, minus):
            assert abs(a - b) <= 1e-9


def test_constant_coefficients_certify_at_first_window():
    rng = random.Random(90210)
    for _ in range(5):
        op = random_constant_operator(rng, rng.choice([2, 4]))
        symbol = build_schur(op)
        lam = complex(rng.uniform(2.5, 4.0), rng.uniform(2.5, 4.0))
        for side in ("+", "-"):
            trees = coefficient_trees(op)
            values, certs = limit_ratio(symbol, lam, side, CFG)
            for j, (value, cert) in enumerate(zip(values, certs)):
                want = evaluate(trees[j], x=1.0, lam=lam) / evaluate(
                    trees[symbol.m], x=1.0, lam=lam)
                assert abs(value - want) <= 1e-14 * (1.0 + abs(want))
                assert cert.converged
                assert cert.sample_count == 4
                assert cert.last_increment == 0.0


def sin_potential_symbol():
    """The parabolic operator with a_0 = sin(x): p_0/p_2 keeps oscillating."""
    op = parabolic_potential()
    return build_schur(replace(op, a=(Call("sin", X), *op.a[1:])))


def test_oscillating_ratio_raises_not_convergent_with_witness():
    symbol = sin_potential_symbol()
    with pytest.raises(NotConvergent) as info:
        limit_ratio(symbol, 0.5j, "+", CFG)
    witness = info.value.witness
    assert len(witness) >= 3
    # The witness increments stay order-one: persistent oscillation.
    assert max(step for _, step in witness) > 1e-3


def test_trajectory_pole_raises_pole_error():
    # d = x meets lambda = 32 exactly at x = 32 = x0 * rho, the second
    # sample, where u = 1/(d - lambda) is infinite.
    symbol = build_schur(replace(parabolic_potential(), d=X))
    with pytest.raises(PoleError, match="32"):
        limit_ratio(symbol, 32.0 + 0j, "+", CFG)


def test_overflow_is_not_a_pole():
    # a0 = x^30 overflows at x = 16 * 2^31, long before the ratios settle.
    base = parabolic_potential()
    op = OperatorMatrix(a=(parse("x^30"), *base.a[1:]), b=base.b, c=base.c,
                        d=base.d)
    symbol = build_schur(op)
    with pytest.raises(NotConvergent, match=r"overflow.*x = 34359738368\.0 "):
        limit_ratio(symbol, 2j, "+", CFG)
    _, status = limit_ratio_batch(symbol, np.array([2j, 1.0 + 1j]), "+", CFG)
    assert list(status) == ["overflow", "overflow"]
    with pytest.raises(NotConvergent, match="overflow"):
        limit_of(parse("x^30"), "-", CFG)


def test_limit_of_certifies_lambda_free_expressions():
    value, cert = limit_of(parse("x^2/(x^2 + 1)"), "+", CFG)
    assert abs(value - 1.0) <= 1e-9
    assert cert.converged and cert.value == value
    with pytest.raises(ValueError, match="lambda-free"):
        limit_of(parse("x + lambda"), "+", CFG)
    with pytest.raises(NotConvergent, match="the limit did not settle") as info:
        limit_of(parse("sin(x)"), "+", CFG)
    assert "p_0" not in str(info.value)


def test_limit_of_names_the_cause_of_a_nonfinite_sample():
    # x = 32 is the second trajectory sample toward +infinity.
    with pytest.raises(PoleError, match=r"x = 32\.0 hits a pole"):
        limit_of(parse("1/(x - 32)"), "+", CFG)
    with pytest.raises(NotConvergent,
                       match=r"samples overflow at trajectory sample "
                             r"x = 34359738368\.0 "):
        limit_of(parse("x^30"), "+", CFG)
    with pytest.raises(NotConvergent, match=r"leave the domain \(log of "
                                            r"exactly 0\).*x = 32\.0"):
        limit_of(parse("log(x - 32)"), "+", CFG)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), side=st.sampled_from("+-"),
       named=st.sampled_from([None, *quartic_coupled().a[:1],
                              *quartic_coupled().b, *quartic_coupled().c,
                              quartic_coupled().d, parabolic_potential().d,
                              parse("sin(x^2)"), parse("1/(x - 32)")]))
def test_limit_of_agrees_with_a_decoupled_symbol(seed, side, named):
    """limit_of(e) is the ratio p_0/p_2 of the decoupled operator with
    b = c = 0, a_0 = e, a_2 = 1 at lambda = 0: both certify alike, or both
    refuse."""
    expr = named if named is not None else _rand_coeff(random.Random(seed))
    symbol = build_schur(OperatorMatrix(a=(expr, ZERO, ONE), b=(ZERO, ZERO),
                                        c=(ZERO, ZERO), d=ONE))

    def outcome(run):
        try:
            value, cert = run()
        except (NotConvergent, PoleError):
            return None
        return value, cert.sample_count, cert.last_increment

    assert outcome(lambda: limit_of(expr, side, CFG)) == outcome(
        lambda: [first for first, *_ in limit_ratio(symbol, 0j, side, CFG)])


def test_batch_matches_scalar_and_flags_failures():
    symbol = build_schur(quartic_coupled())
    lams = np.array([1.0 + 0j, 2.0 - 1j, -3.0 + 2j])
    values, status = limit_ratio_batch(symbol, lams, "+", CFG)
    assert values.shape == (3, 4)
    assert list(status) == ["ok", "ok", "ok"]
    for row, lam in zip(values, lams):
        scalar_values, _ = limit_ratio(symbol, complex(lam), "+", CFG)
        assert np.allclose(row, scalar_values, rtol=0, atol=0)

    wobble = sin_potential_symbol()
    _, bad_status = limit_ratio_batch(wobble, np.array([1j]), "+", CFG)
    assert list(bad_status) == ["not-convergent"]


def test_limit_ratio_tail_polynomial():
    symbol = build_schur(quartic_coupled())
    lam = 2.0 - 1j
    values, _certs = limit_ratio(symbol, lam, "+", CFG)
    coeffs = np.asarray([*values, 1.0 + 0j])
    assert coeffs.shape == (5,)
    expected = quartic_tail_ratios(lam)
    assert np.allclose(coeffs[:4], expected, rtol=0, atol=1e-7)
    # Value at xi=0 is exactly the estimated constant coefficient.
    assert complex(np.polyval(coeffs[::-1], 0.0)) == complex(coeffs[0])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 4]),
       side=st.sampled_from("+-"))
def test_lambda_free_samples_match_coefficient_trees(seed, m, side):
    rng = random.Random(seed)
    op = random_operator(rng, m)
    symbol = build_schur(op)
    lams = np.asarray([complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                       for _ in range(3)])
    xs = _trajectory(side, CFG)
    form = _sample_form(symbol, xs)
    samples, finite = _ratio_samples(form, lams), form.finite
    with np.errstate(all="ignore"):
        p = [np.broadcast_to(evaluate_array(tree, x=xs[:, None],
                                            lam=lams[None, :]),
                             (xs.size, lams.size))
             for tree in coefficient_trees(op)]
        trees = np.stack([pj / p[-1] for pj in p[:-1]])
    # Where every x-only sample is finite, both forms must agree on which
    # ratios are finite, so a lambda's status cannot flip between ok and
    # overflow/pole. Elsewhere the lambda-free form reports "overflow" by
    # design, while the trees may still cancel to a finite value.
    assert np.array_equal(np.isfinite(samples[:, finite]),
                          np.isfinite(trees[:, finite]))
    both = np.isfinite(samples) & np.isfinite(trees)
    gap = np.abs(samples - trees)[both]
    assert np.all(gap <= 1e-12 * np.abs(trees[both]))


def test_analytic_slope_matches_central_difference():
    symbol = build_schur(quartic_coupled())
    lams = np.array([1.0 + 0j, 2.0 - 1j, -3.0 + 2j, 0.5 + 1.5j])
    h = 1e-6
    far = CFG.with_overrides(x0=CFG.x0 * CFG.rho ** CFG.T, T=3)
    up, up_status = limit_ratio_batch(symbol, lams + h, "+", far)
    down, down_status = limit_ratio_batch(symbol, lams - h, "+", far)
    assert list(up_status) == list(down_status) == ["ok"] * lams.size
    central = (up - down) / (2.0 * h)
    slopes = limit_ratio_slope(symbol, lams, "+", CFG)
    assert slopes.shape == (lams.size, symbol.m)
    assert np.allclose(slopes, central, rtol=1e-7, atol=1e-8)
    # The slope of the closed-form limits agrees as well.
    for lam, row in zip(lams, slopes):
        exact = (np.asarray(quartic_tail_ratios(lam + h))
                 - np.asarray(quartic_tail_ratios(lam - h))) / (2.0 * h)
        assert np.allclose(row, exact, rtol=1e-6, atol=1e-7)


def test_concurrent_calls_are_deterministic():
    symbol = build_schur(quartic_coupled())
    probes = [1.0 + 0j, 2.0 - 1j, -3.0 + 2j, 0.5 + 2.5j, -1.0 - 2j, 4.0 + 1j]

    def run(lam):
        return limit_ratio(symbol, lam, "+", CFG)

    sequential = [run(lam) for lam in probes]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(run, probes))
    for (seq_vals, _), (thr_vals, _) in zip(sequential, threaded):
        assert seq_vals == thr_vals


# ---------------------------------------------------------------------------
# Limit points of d at infinity
# ---------------------------------------------------------------------------

def test_quartic_d_has_single_limit_point_at_zero():
    result = limit_points_at_infinity(quartic_coupled().d, CFG)
    assert len(result.points) == 1
    assert abs(result.points[0]) <= 1e-4
    assert all(r <= CFG.cluster_tol for r in result.radii)
    expected_windows = tuple(range(CFG.windows - CFG.cluster_windows,
                                   CFG.windows))
    assert result.window_exponents == expected_windows


@pytest.mark.parametrize("sides, count", [("both", 2), ("positive", 1)])
def test_only_the_clustered_windows_are_sampled(monkeypatch, sides, count):
    sampled = []
    real_evaluate = asymptotics_module.evaluate_array

    def recording_evaluate(expr, **env):
        sampled.append(env["x"])
        return real_evaluate(expr, **env)

    monkeypatch.setattr(asymptotics_module, "evaluate_array",
                        recording_evaluate)
    cfg = CFG.with_overrides(infinity_sides=sides)
    result = limit_points_at_infinity(quartic_coupled().d, cfg)
    assert len(sampled) == cfg.cluster_windows * count
    lowest = cfg.windows - cfg.cluster_windows
    assert {int(np.log2(abs(xs[0]))) for xs in sampled} == set(
        range(lowest, cfg.windows))
    assert result.window_exponents == tuple(range(lowest, cfg.windows))


def test_parabolic_d_escapes_everywhere():
    result = limit_points_at_infinity(parabolic_potential().d, CFG)
    assert result.points == ()
    assert result.window_exponents == ()


def test_declared_exceptional_set_short_circuits_estimation():
    cfg = CFG.with_overrides(declared_exceptional_set=(1 + 2j, -0.5j))
    result = limit_points_at_infinity(parse("sin(x)"), cfg)
    assert result.declared
    assert result.points == (1 + 2j, -0.5j)
    assert result.radii == (0.0, 0.0)
    assert any(abs(1 + 2j - p) <= 1e-12 for p in result.points)
    assert not any(abs(5.0 - p) <= 1e-3 for p in result.points)


def test_oscillating_d_fills_its_range():
    cfg = CFG.with_overrides(cluster_tol=1e-2)
    result = limit_points_at_infinity(parse("sin(x)"), cfg)
    reps = np.array(result.points)
    # Set invariants: tight clusters, separated representatives.
    assert all(r <= 1e-2 for r in result.radii)
    seps = np.abs(reps[:, None] - reps[None, :])
    seps[np.diag_indices_from(seps)] = np.inf
    assert seps.min() > 2e-2
    # Coverage: a dense far-field reference sampling of sin is everywhere
    # within 2.5 * cluster_tol of a representative (cluster radius plus
    # the discard annulus).
    reference = np.sin(np.linspace(1e6, 1e6 + 1e3, 20_001))
    assert directed_hausdorff(reference.astype(complex), reps) <= 2.5e-2


def _cluster_by_full_scan(values: np.ndarray, tol: float):
    """The greedy sweep of ``_cluster`` without buckets or shortcuts."""
    reps: list[complex] = []
    radii: list[float] = []
    for value in values[np.lexsort((values.imag, values.real))]:
        z = complex(value)
        dists = [abs(z - rep) for rep in reps]
        best = int(np.argmin(dists)) if dists else -1
        if best >= 0 and dists[best] <= tol:
            radii[best] = max(radii[best], dists[best])
        elif best < 0 or dists[best] > 2.0 * tol:
            reps.append(z)
            radii.append(0.0)
    return reps, radii


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), centers=st.integers(1, 6),
       spread=st.sampled_from([0.2, 1.0, 3.0]))
def test_cluster_invariants_on_random_clouds(seed, centers, spread):
    rng = np.random.default_rng(seed)
    tol = 1e-2
    middles = rng.uniform(-0.2, 0.2, centers) + 1j * rng.uniform(
        -0.2, 0.2, centers)
    cloud = (rng.choice(middles, 400)
             + spread * tol * (rng.standard_normal(400)
                               + 1j * rng.standard_normal(400)))
    reps, radii = _cluster(cloud, tol)
    assert all(r <= tol for r in radii)
    points = np.asarray(reps)
    seps = np.abs(points[:, None] - points[None, :])
    seps[np.diag_indices_from(seps)] = np.inf
    assert seps.min() > 2.0 * tol
    assert (reps, radii) == _cluster_by_full_scan(cloud, tol)


def test_exceptional_set_stable_under_window_doubling():
    base = CFG.with_overrides(cluster_tol=1e-2)
    doubled = base.with_overrides(windows=2 * CFG.windows)
    for d_text in ("sin(x)", "exp(-x^2/2) + i/(1 + x^2)"):
        one = limit_points_at_infinity(parse(d_text), base)
        two = limit_points_at_infinity(parse(d_text), doubled)
        a = np.array(one.points)
        b = np.array(two.points)
        # Representatives can be separated by up to ~2*tol plus the data
        # gap, so mutual deviation stays below 2.5*tol for a dense range.
        assert directed_hausdorff(a, b) <= 2.5 * base.cluster_tol
        assert directed_hausdorff(b, a) <= 2.5 * base.cluster_tol


# ---------------------------------------------------------------------------
# Assumption diagnostics
# ---------------------------------------------------------------------------

def by_assumption(diag, assumption, probe):
    for record in diag.records:
        if record.assumption == assumption and record.probe == probe:
            return record
    raise AssertionError(f"no {assumption} record for probe {probe}")


def test_quartic_probes_produce_no_failures():
    op = quartic_coupled()
    symbol = build_schur(op)
    grid = validation_grid(CFG)
    probes = [1.0 + 0j, 2j, -3.0 + 0j]
    diag = check_assumptions(op, symbol, probes, grid, CFG)
    assert diag.ok()
    assert len(diag.records) == 15  # five assumptions x three probes
    # Away from the decoupling curve everything passes outright.
    for probe in (2j, -3.0 + 0j):
        for assumption in ("B1", "B2", "B3", "C", "D"):
            assert by_assumption(diag, assumption, probe).status == "pass"
    # lambda = 1 lies on the sampled decoupling curve (its value at x = 0),
    # where p_m genuinely vanishes: sampled checks report inconclusive
    # rather than fail, and the limits themselves still converge.
    assert by_assumption(diag, "B2", 1.0 + 0j).status == "inconclusive"
    assert by_assumption(diag, "D", 1.0 + 0j).status == "pass"
    for record in diag.records:
        if record.assumption == "C":
            assert record.theta is not None
            assert record.delta_margin is not None
            if record.status == "pass":
                assert record.delta_margin > 0


@pytest.mark.parametrize("op,probes", [
    (quartic_coupled(), [1.0 + 0j, 2j, -3.0 + 0j]),
    # B1, B3 and D fail at 2+3i and -1; 0.0005i sits next to the curve
    # delta = 1 - x^2, so its failures are downgraded to inconclusive.
    (unbounded_coupling(), [2.0 + 3j, 0.0005j, -1.0 + 0j]),
])
def test_probe_list_matches_probe_by_probe_calls(op, probes):
    # One call over all probes gives, in order, the records of one call per
    # probe: the CLI checks all its probes in a single call.
    symbol = build_schur(op)
    grid = validation_grid(CFG)
    together = check_assumptions(op, symbol, probes, grid, CFG).records
    one_by_one = tuple(
        record for probe in probes
        for record in check_assumptions(op, symbol, [probe], grid,
                                        CFG).records)
    assert together == one_by_one
    assert [r.assumption for r in together] \
        == ["B1", "B2", "B3", "C", "D"] * len(probes)


def test_bounded_d_with_invertible_leading_coefficient_passes_b2():
    # Bounded d and |a_m| bounded away from zero make 1/p_m bounded for
    # every probe away from the curve.
    op = quartic_coupled()
    symbol = build_schur(op)
    grid = validation_grid(CFG)
    diag = check_assumptions(op, symbol, [5j, -7.0 + 0j, 3.0 + 3j], grid, CFG)
    for record in diag.records:
        if record.assumption == "B2":
            assert record.status == "pass"


def test_winding_leading_coefficient_fails_sector_condition():
    # p_m = cos(x) reaches both +1 and -1, so no rotation angle keeps
    # Re(e^{i theta} p_m) positive; C must fail with the witness margin.
    op = OperatorMatrix(
        a=(Lit(0j), Lit(0j), Call("cos", X)),
        b=(Lit(0j), Lit(0j)),
        c=(Lit(0j), Lit(0j)),
        d=Lit(100j),
    )
    symbol = build_schur(op)
    grid = validation_grid(CFG)
    diag = check_assumptions(op, symbol, [5.0 + 0j], grid, CFG)
    record = by_assumption(diag, "C", 5.0 + 0j)
    assert record.status == "fail"
    assert record.delta_margin is not None and record.delta_margin <= 0
    assert record.witness is not None


def constant_leading_coefficient(value: complex) -> OperatorMatrix:
    """m = 2 with p_m = a_2 = value: no coupling, d far from the probes."""
    return OperatorMatrix(
        a=(Lit(0j), Lit(0j), Lit(value)),
        b=(Lit(0j), Lit(0j)),
        c=(Lit(0j), Lit(0j)),
        d=Lit(100j),
    )


def test_constant_imaginary_leading_coefficient_passes_sector_condition():
    # p_m = i: theta = 3 pi / 2 turns it into 1. A rotation confined to
    # [0, pi] reaches at best margin 0 there.
    op = constant_leading_coefficient(1j)
    diag = check_assumptions(op, build_schur(op), [5.0 + 0j],
                             validation_grid(CFG), CFG)
    record = by_assumption(diag, "C", 5.0 + 0j)
    assert record.status == "pass"
    assert record.delta_margin == 1.0
    assert record.theta == pytest.approx(1.5 * np.pi, abs=1e-15)


# ---------------------------------------------------------------------------
# Exact sector margin
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def grid_margin(v: np.ndarray, thetas: np.ndarray) -> float:
    """max over the given angles of min_k Re(e^{i theta} v_k)."""
    return float(np.max(np.min(
        np.cos(thetas)[:, None] * v.real - np.sin(thetas)[:, None] * v.imag,
        axis=1)))


def attained(v: np.ndarray, theta: float) -> float:
    return float(np.min((np.exp(1j * theta) * v).real))


@st.composite
def sample_clouds(draw):
    """Complex sample clouds in general position, 0 inside or outside.

    A thin cloud (aspect 1e-3) comes close to the collinear case.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.one_of(st.integers(1, 3), st.integers(4, 40)))
    center = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    spread = draw(st.floats(0.01, 3.0))
    aspect = draw(st.sampled_from([1.0, 0.1, 1e-3]))
    tilt = cmath.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    shape = rng.normal(size=count) + 1j * aspect * rng.normal(size=count)
    return center + spread * tilt * shape


@settings(max_examples=150, deadline=None, derandomize=True)
@given(v=sample_clouds(), count=st.integers(1, 720),
       offset=st.floats(0.0, 1.0))
def test_exact_sector_margin_brackets_every_angle_grid(v, count, offset):
    # No angle grid can beat the exact margin, and a full-circle grid of
    # step h misses it by at most max|v| h / 2: the best angle lies within
    # h / 2 of a grid angle, and Re(e^{i theta} v) is |v|-Lipschitz in
    # theta. The rounding allowance is a few ulps of the largest sample.
    step = 2.0 * np.pi / count
    thetas = (offset + np.arange(count)) * step
    margin, theta = _sector_margin(v)
    scale = float(np.max(np.abs(v)))
    rounding = 8.0 * EPS * scale
    coarse = grid_margin(v, thetas)
    assert coarse <= margin + rounding
    assert margin <= coarse + scale * step / 2.0 + rounding
    assert 0.0 <= theta < 2.0 * np.pi
    assert attained(v, theta) == pytest.approx(margin, abs=rounding)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(v=sample_clouds(), phi=st.floats(0.0, 2.0 * np.pi))
def test_rotating_the_samples_shifts_the_best_angle(v, phi):
    # Rotating every sample by e^{i phi} keeps the margin and turns the
    # best angle by -phi (mod 2 pi).
    margin, theta = _sector_margin(v)
    turned_margin, turned_theta = _sector_margin(v * cmath.exp(1j * phi))
    scale = float(np.max(np.abs(v)))
    assert turned_margin == pytest.approx(margin, abs=8.0 * EPS * scale)
    shift = (turned_theta - (theta - phi)) % (2.0 * np.pi)
    assert min(shift, 2.0 * np.pi - shift) <= 1e-9


@pytest.mark.parametrize("samples,margin,theta", [
    # One point: its modulus, with e^{-i theta} along it.
    ([2.0 - 1j] * 5, 5.0**0.5, np.arctan(0.5)),
    ([1j], 1.0, 1.5 * np.pi),
    # A segment off 0: the distance to it, from either side.
    (1j + np.linspace(-1.0, 1.0, 9), 1.0, 1.5 * np.pi),
    (-1j + np.linspace(-1.0, 1.0, 9), 1.0, 0.5 * np.pi),
    ([-1j + 1.0, -1j - 1.0], 1.0, 0.5 * np.pi),
    (np.linspace(0.5, 2.0, 7) * (1.0 + 1j), 0.5 * 2.0**0.5, 1.75 * np.pi),
])
def test_sector_margin_of_degenerate_samples(samples, margin, theta):
    got_margin, got_theta = _sector_margin(np.asarray(samples, complex))
    assert got_margin == pytest.approx(margin, rel=1e-15)
    assert got_theta == pytest.approx(theta, rel=1e-15)


@pytest.mark.parametrize("samples", [
    [0j, 0j],
    np.linspace(-1.0, 2.0, 31) * (1.0 + 2j),
    np.linspace(-0.3, 0.71, 50) + 0j,
    np.cos(np.linspace(0.0, 7.0, 101)) + 0j,
])
def test_samples_through_zero_fail_with_margin_zero(samples):
    # 0 on the samples' segment: no angle does better than 0, and the
    # check fails.
    p_m = np.asarray(samples, complex)
    record = _check_c(p_m, 5.0 + 0j, np.arange(p_m.size, dtype=float))
    assert record.status == "fail"
    assert record.delta_margin == 0.0
    assert attained(p_m, record.theta) == pytest.approx(0.0, abs=1e-15)
    assert record.witness[1:] == (record.theta, 0.0)


def test_unbounded_coefficient_fails_b1():
    # p_2 = x is unbounded; the sampled bound cap must flag it.
    op = OperatorMatrix(
        a=(Lit(0j), Lit(0j), X),
        b=(Lit(0j), Lit(0j)),
        c=(Lit(0j), Lit(0j)),
        d=Lit(100j),
    )
    symbol = build_schur(op)
    grid = validation_grid(CFG)
    cfg = CFG.with_overrides(bound_cap=1e3)
    diag = check_assumptions(op, symbol, [5.0 + 0j], grid, cfg)
    record = by_assumption(diag, "B1", 5.0 + 0j)
    assert record.status == "fail"
    label, location, measured = record.witness
    assert "p_2" in label
    assert measured > 1e3


@pytest.mark.parametrize("coeff,b1_label,b3_label", [
    ("x^2", "d^0 p_0 / dx^0", "d^0/dx^0 of b_0/(d-lambda)"),
    ("sin(x^2)", "d^2 p_0 / dx^2", "d^2/dx^2 of b_0/(d-lambda)"),
])
def test_bounded_tree_witness_labels(coeff, b1_label, b3_label):
    # B1 and B3 name the worst tree: which coefficient and which x-derivative.
    op = unbounded_coupling(coeff)
    diag = check_assumptions(op, build_schur(op), [2.0 + 3j],
                             validation_grid(CFG), CFG)
    for assumption, label in (("B1", b1_label), ("B3", b3_label)):
        record = by_assumption(diag, assumption, 2.0 + 3j)
        assert record.status == "fail"
        assert record.witness[0] == f"sampled |{label}| exceeds bound cap"


def test_undetermined_jet_samples_are_inconclusive():
    # log(2 exp(-x^2/2)) = log 2 - x^2/2 stays far below the cap for
    # |x| <= 38.4, but 1/(2 exp(-x^2/2)) overflows once |x| > 37.67, so its
    # forward-mode derivative is NaN there: undetermined, not unbounded.
    op = unbounded_coupling("log(2*exp(-x^2/2))")
    probe = 2.0 + 3j
    grid = np.linspace(-38.4, 38.4, 769)
    diag = check_assumptions(op, build_schur(op), [probe], grid, CFG)
    for assumption, label in (("B1", "d^1 p_0 / dx^1"),
                              ("B3", "d^1/dx^1 of b_0/(d-lambda)")):
        record = by_assumption(diag, assumption, probe)
        assert record.status == "inconclusive"
        message, location, measured = record.witness
        assert message == (f"sampled {label} is NaN, undetermined in "
                           "floating point")
        assert location == -38.4
        assert math.isnan(measured)
    # Past |x| = 38.6 exp underflows and the value itself is -inf: a
    # sample with infinite magnitude still fails, whatever else is NaN.
    wide = np.linspace(-40.0, 40.0, 801)
    diag = check_assumptions(op, build_schur(op), [probe], wide, CFG)
    for assumption, label in (("B1", "d^0 p_0 / dx^0"),
                              ("B3", "d^0/dx^0 of b_0/(d-lambda)")):
        record = by_assumption(diag, assumption, probe)
        assert record.status == "fail"
        assert record.witness[0] == f"sampled |{label}| exceeds bound cap"


def test_oscillating_limits_fail_assumption_d():
    op = OperatorMatrix(
        a=(Call("sin", X), Lit(0j), Lit(1 + 0j)),
        b=(Lit(0j), Lit(0j)),
        c=(Lit(0j), Lit(0j)),
        d=Lit(100j),
    )
    symbol = build_schur(op)
    grid = validation_grid(CFG)
    diag = check_assumptions(op, symbol, [5.0 + 0j], grid, CFG)
    record = by_assumption(diag, "D", 5.0 + 0j)
    assert record.status == "fail"
    assert record.witness is not None


def test_certificate_invariant_on_converged_records():
    symbol = build_schur(parabolic_potential())
    values, certs = limit_ratio(symbol, 3j, "+", CFG)
    for value, cert in zip(values, certs):
        assert isinstance(cert, Certificate)
        assert cert.value == value
        assert cert.status == "converged"
        assert cert.last_increment <= CFG.limit_tol * (1.0 + abs(value))
        assert 4 <= cert.sample_count <= CFG.T + 1
