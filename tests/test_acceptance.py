"""Release acceptance checks, one test (one pass/fail line) per criterion.

Every tolerance is pinned here, not calibrated at run time. The seven
criteria cover: the closed-form second-order example end to end, the
quartic coupled example (limit coefficients, structural invariants,
rendering), composition-correctness properties on random operators,
agreement with the constant-coefficient determinant oracle, numerics
hygiene (derivatives and circulant exactness), and the documented
truncation limitation.
"""

import json
import random
import time

import numpy as np
from scipy.spatial import cKDTree

from matspectra import (
    SolverConfig,
    apply_operator,
    build_schur,
    coefficient_trees,
    delta,
    det_scan,
    discretize_and_eig,
    essential_spectrum,
    freeze,
    limit_points_at_infinity,
    limit_ratio,
    periodic_symbol_eigenvalues,
    regular_part,
    singular_part,
    window_contains,
)
from matspectra.cli import main, render_svg
from matspectra.expr import evaluate, parse

from factories import (
    PARABOLIC_CFG,
    parabolic_potential,
    quartic_coupled,
    random_constant_operator,
    random_operator,
)
from test_schur import _sample_point, nested_apply


def _segment_distance(points: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Distance from each complex point to the real segment [lo, hi]."""
    overshoot = np.maximum(np.maximum(lo - points.real, 0.0),
                           points.real - hi)
    return np.hypot(overshoot, points.imag)


def _directed_distance(source: np.ndarray, target: np.ndarray) -> float:
    """One-sided Hausdorff distance between complex point sets."""
    tree = cKDTree(np.column_stack([target.real, target.imag]))
    dists, _ = tree.query(np.column_stack([source.real, source.imag]))
    return float(dists.max())


def test_criterion_1_parabolic_window_matches_closed_form():
    # Exact essential spectrum of the parabolic example: (-inf,-1] u [0,inf).
    cfg = SolverConfig().with_overrides(window=(-10.0, 10.0, -5.0, 5.0))
    started = time.perf_counter()
    spectrum = essential_spectrum(parabolic_potential(), cfg)
    elapsed = time.perf_counter() - started
    assert elapsed <= 10.0

    regular = np.array([p.lam for p in spectrum.regular
                        if np.isfinite(p.x_param)
                        and window_contains(cfg.window, p.lam)])
    singular = np.array([p.lam for p in spectrum.singular
                         if window_contains(cfg.window, p.lam)])
    assert regular.size > 0 and singular.size > 0

    assert np.abs(regular.imag).max() <= 1e-9
    assert regular.real.min() >= -10.0 and regular.real.max() <= -1.0
    assert np.abs(singular.imag).max() <= 1e-8
    assert singular.real.min() >= -1e-8 and singular.real.max() <= 10.0

    computed = np.concatenate([regular, singular])
    exact = np.concatenate([np.linspace(-10.0, -1.0, 90_001),
                            np.linspace(0.0, 10.0, 100_001)]).astype(complex)
    assert _directed_distance(exact, computed) <= 1e-3
    computed_to_exact = np.minimum(
        _segment_distance(computed, -10.0, -1.0),
        _segment_distance(computed, 0.0, 10.0))
    assert computed_to_exact.max() <= 1e-6


def test_criterion_2_quartic_limit_ratios_match_closed_forms():
    cfg = SolverConfig()
    symbol = build_schur(quartic_coupled(), cfg)
    for lam in (1.0 + 0.0j, 2.0 - 1.0j, -3.0 + 2.0j):
        values, certificates = limit_ratio(symbol, lam, "+", cfg)
        expected = [
            (lam - lam * lam) / (1j + lam),       # constant term
            1.0 / (1j + lam),                     # linear term
            1j * lam / (1j + lam),                # quadratic term
            0.0j,                                 # cubic term
        ]
        assert all(c.converged for c in certificates)
        for got, want in zip(values, expected):
            assert abs(got - want) <= 1e-7


def test_criterion_3_quartic_structure_and_svg():
    op = quartic_coupled()
    cfg = SolverConfig()

    exceptional = limit_points_at_infinity(op.d, cfg)
    assert len(exceptional.points) == 1
    assert abs(exceptional.points[0]) <= 1e-4

    endpoints = {p.x_param: p.lam for p in regular_part(op, cfg)
                 if not np.isfinite(p.x_param)}
    assert set(endpoints) == {np.inf, -np.inf}
    for lam in endpoints.values():
        assert abs(lam - (-1j)) <= 1e-7

    symbol = build_schur(op, cfg)
    at_zero = sorted(
        (p.lam for p in singular_part(op, symbol, np.array([0.0]), cfg)),
        key=lambda z: z.real)
    assert len(at_zero) == 2
    assert abs(at_zero[0] - 0.0) <= 1e-8
    assert abs(at_zero[1] - 1.0) <= 1e-8

    quick = cfg.with_overrides(xi_points=40, xi_max=2.0, curve_res=0.02,
                               grid_points=512)
    svg = render_svg(essential_spectrum(op, quick), quick.window)
    assert svg.count('<polyline class="singular"') >= 2
    assert svg.count('<polyline class="regular"') >= 1


def test_criterion_4_composition_identities():
    # (a) leading coefficient equals a_m * (delta - lam) / (d - lam).
    rng = random.Random(424242)
    for _ in range(10):
        op = random_operator(rng, rng.choice([2, 4]))
        leading = coefficient_trees(op)[op.m]
        decoupling = delta(op)
        for _ in range(500):
            x, lam = _sample_point(rng, op)
            got = evaluate(leading, x=x, lam=lam)
            want = (evaluate(op.a[-1], x=x, lam=lam)
                    * (evaluate(decoupling, x=x, lam=lam) - lam)
                    / (evaluate(op.d, x=x, lam=lam) - lam))
            assert abs(got - want) <= 1e-9

    # (b) collected application equals the nested direct composition.
    rng = random.Random(910910)
    for _ in range(10):
        op = random_operator(rng, rng.choice([2, 4]))
        symbol = build_schur(op)
        for _ in range(5):
            degree = rng.randint(0, op.m + 2)
            coeffs = tuple(
                complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                for _ in range(degree + 1))
            for _ in range(10):
                x, lam = _sample_point(rng, op)
                got = apply_operator(symbol, coeffs, x, lam)
                want = nested_apply(op, coeffs, x, lam)
                assert abs(got - want) <= 1e-8 * (1.0 + abs(got) + abs(want))


def test_criterion_5_constant_coefficient_oracle_agreement():
    started = time.perf_counter()
    rng = random.Random(20260819)
    cfg = SolverConfig().with_overrides(curve_res=0.1)
    for m in (2, 4, 2, 4, 2):
        while True:
            op = random_constant_operator(rng, m)
            d_value = op.d.value
            decoupled = d_value - op.b[-1].value * op.c[-1].value / op.a[-1].value
            # Resample when the scalar entry hugs the real frequency line's
            # root curves: near-real d or d within reach of the decoupling
            # value makes the resolvent pole collide with the branch sweep.
            if abs(d_value.imag) >= 0.1 and abs(d_value - decoupled) >= 0.1:
                break
        points = [p for p in singular_part(op, cfg=cfg)
                  if window_contains(cfg.window, p.lam)]
        assert points
        frozen = freeze(op, "+", cfg)
        xi_values = np.array(sorted({p.xi for p in points}))
        roots_at = {scan.xi: scan.roots
                    for scan in det_scan(frozen, xi_values)}
        for p in points:
            assert min(abs(p.lam - r) for r in roots_at[p.xi]) <= 1e-6
    assert time.perf_counter() - started <= 30.0


def test_criterion_6_numerics_hygiene():
    # (a) symbolic derivative against central finite differences.
    battery = [
        "x^2/(x^2+1)",
        "cos(x)/sqrt(1+x^2)",
        "exp(-x^2/2)",
        "sin(x)*exp(i*x)",
        "(x^3-2*x)/(x^2+2)",
        "atan(x)*log(1+x^2)",
    ]
    from matspectra.expr import differentiate, simplify
    checked = 0
    for text in battery:
        tree = parse(text)
        derivative = simplify(differentiate(tree, "x"))
        for x in np.linspace(-2.5, 2.5, 21):
            h = 1e-5
            fd = (evaluate(tree, x=x + h) - evaluate(tree, x=x - h)) / (2 * h)
            sym = evaluate(derivative, x=x)
            assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym))
            checked += 1
    assert checked >= 50

    # (b) periodic discretization is exact on constant coefficients: its
    # eigenvalues coincide with the discrete-symbol eigenvalues.
    for m, n_points, seed in ((2, 32, 5), (4, 48, 7)):
        op = random_constant_operator(random.Random(seed), m)
        computed = discretize_and_eig(op, 2.5, n_points, bc="periodic")
        exact = periodic_symbol_eigenvalues(freeze(op, "+"), 2.5, n_points)
        assert computed.shape == exact.shape == (2 * n_points,)
        for left, right in ((computed, exact), (exact, computed)):
            nearest = np.min(np.abs(left[:, None] - right[None, :]), axis=1)
            assert np.all(nearest <= 1e-10 * (1.0 + np.abs(left)))


def test_criterion_7_truncation_clouds_not_monotone(tmp_path):
    # Truncated-interval eigenvalue clouds do not converge to the singular
    # branch [0, inf): the branch-to-cloud distance fails to shrink
    # monotonically as the interval grows.
    op = parabolic_potential()
    cfg = SolverConfig()
    probes = np.linspace(0.0, 10.0, 2001).astype(complex)
    distances = []
    for length in (5.0, 10.0, 20.0):
        n_points = int(2 * length * length)
        eigenvalues = discretize_and_eig(
            op, length, n_points, bc="dirichlet_truncate", cfg=cfg)
        cloud = eigenvalues[(np.abs(eigenvalues.real) <= 10.0)
                            & (np.abs(eigenvalues.imag) <= 10.0)]
        assert cloud.size > 0
        distances.append(_directed_distance(probes, cloud))
    assert distances[1] > distances[0]
    assert not distances[0] > distances[1] > distances[2]

    # The comparison report must record this as expected behavior, not a
    # failure: exit code 0 and an explicit non-monotonicity flag.
    exit_code = main(["oracle", "--config", str(PARABOLIC_CFG),
                      "--out", str(tmp_path), "--discretize"])
    assert exit_code == 0
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert report["mode"] == "discretize"
    assert report["singular_to_cloud_monotone_decreasing"] is False
    assert "expected behavior" in report["expected_behavior"]
