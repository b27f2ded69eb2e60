"""Frozen-symbol determinant scans and the finite-difference eigensolver."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from factories import (
    ONE,
    ZERO,
    parabolic_potential,
    quartic_coupled,
    random_constant_operator,
    random_operator,
)
from matspectra.asymptotics import (LIMIT_TOL, Certificate, _trajectory,
                                    limit_ratio_batch)
from matspectra.errors import DomainError, RefusedFrozen, SizeError
from matspectra.expr import (Call, Div, Lit, Mul, X, differentiate,
                             evaluate_array, simplify)
from matspectra import oracle as oracle_module
from matspectra.model import OperatorMatrix
from matspectra.oracle import (
    DetScanPoint,
    FrozenSymbol,
    det_scan,
    discretize_and_eig,
    freeze,
    periodic_symbol_eigenvalues,
)
from matspectra.schur import build_schur
from matspectra.spectrum import ROOT_TOL


def make_decoupled_op() -> OperatorMatrix:
    """Constant operator with zero upper-right entry: block triangular."""
    return OperatorMatrix(
        a=(Lit(0.3 - 0.2j), ZERO, Lit(1 + 0j)),
        b=(ZERO, ZERO),
        c=(Lit(0.5j), ZERO),
        d=Lit(0.25j),
    )


class TestFreeze:
    def test_quartic_frozen_limits_both_sides(self):
        for side in ("+", "-"):
            fs = freeze(quartic_coupled(), side)
            assert fs.side == side
            assert fs.m == 4
            expected_a = (1.0, 0.0, 1j, 0.0, 1.0)
            for got, want in zip(fs.a, expected_a):
                assert abs(got - want) <= 1e-8
            assert abs(fs.b[0]) <= 1e-8
            assert abs(fs.b[1] - 1.0) <= 1e-12
            assert abs(fs.c[0] - 1.0) <= 1e-8
            assert abs(fs.c[1]) <= 1e-12
            assert abs(fs.c[2]) <= 1e-12
            assert abs(fs.c[3] - 1j) <= 1e-12
            assert abs(fs.d) <= 1e-8

    def test_certificates_attached_and_converged(self):
        fs = freeze(quartic_coupled(), "+")
        labels = {f"a_{i}" for i in range(5)} | {"b_0", "b_1"}
        labels |= {f"c_{i}" for i in range(4)} | {"d"}
        assert set(fs.certificates) == labels
        assert all(cert.last_increment
                   <= LIMIT_TOL * (1.0 + abs(cert.value))
                   for cert in fs.certificates.values())

    def test_constant_coefficients_freeze_exactly(self):
        op = random_constant_operator(random.Random(3), 2)
        fs = freeze(op, "+")
        assert fs.a == tuple(t.value for t in op.a)
        assert fs.b == tuple(t.value for t in op.b)
        assert fs.c == tuple(t.value for t in op.c)
        assert fs.d == op.d.value

    def test_diverging_scalar_entry_refused(self):
        with pytest.raises(RefusedFrozen) as excinfo:
            freeze(parabolic_potential(), "+")
        witness = excinfo.value.witness
        assert witness["coefficient"] == "d"
        assert witness["check"] == "limit"

    def test_oscillatory_coefficient_refused_on_derivative(self):
        # exp(i x^2)/x converges to 0 along the trajectory, but its
        # derivative keeps unit magnitude, so freezing must refuse.
        oscillation = Div(Call("exp", Mul(Lit(1j), Mul(X, X))), X)
        op = OperatorMatrix(
            a=(Lit(1 + 0j) + oscillation, ZERO, Lit(1 + 0j)),
            b=(ZERO, ZERO),
            c=(ZERO, ZERO),
            d=ZERO,
        )
        with pytest.raises(RefusedFrozen) as excinfo:
            freeze(op, "+")
        witness = excinfo.value.witness
        assert witness["coefficient"] == "a_0"
        assert witness["check"] == "derivative"
        assert max(witness["magnitude"]) >= 1.0

    def test_derivative_verdicts_match_the_symbolic_derivative(
            self, monkeypatch):
        # Every limit is taken as certified, so freeze reaches the derivative
        # check: each refusal must name the next coefficient, in check order,
        # whose simplified symbolic derivative fails at the trajectory tail.
        # That coefficient is then made constant and freeze is asked again.
        cert = Certificate(sample_count=1, last_increment=0.0, value=0j,
                           previous_increment=1.0)
        monkeypatch.setattr(oracle_module, "limit_of",
                            lambda tree, side: (0j, cert))
        ops = [parabolic_potential(), quartic_coupled()]
        ops += [random_operator(random.Random(seed), m)
                for seed in range(200) for m in (2, 4)]
        refusals = 0
        for op in ops:
            labeled = oracle_module._labeled_coefficients(op)
            for side in ("+", "-"):
                tail_x = _trajectory(side)[-2:]
                expected = []
                for label, tree in labeled:
                    magnitudes = np.abs(evaluate_array(
                        simplify(differentiate(tree, "x")), x=tail_x))
                    if (not np.all(np.isfinite(magnitudes))
                            or np.any(magnitudes >= oracle_module.DERIV_TOL)):
                        expected.append(label)
                refused, current = [], op
                for _ in labeled:
                    try:
                        freeze(current, side)
                        break
                    except RefusedFrozen as exc:
                        assert exc.witness["check"] == "derivative"
                        refused.append(exc.witness["coefficient"])
                        current = _with_constant(current, refused[-1])
                assert refused == expected, (op, side)
                refusals += len(refused)
        assert refusals > 0


def _with_constant(op: OperatorMatrix, label: str) -> OperatorMatrix:
    """``op`` with the coefficient named ``label`` replaced by 1."""
    if label == "d":
        return dataclasses.replace(op, d=ONE)
    name, index = label.split("_")
    trees = list(getattr(op, name))
    trees[int(index)] = ONE
    return dataclasses.replace(op, **{name: tuple(trees)})


class TestDetScan:
    def test_quartic_zero_frequency_roots(self):
        fs = freeze(quartic_coupled(), "+")
        (point,) = det_scan(fs, [0.0])
        assert isinstance(point, DetScanPoint)
        assert point.xi == 0.0
        roots = sorted(point.roots, key=lambda z: z.real)
        assert abs(roots[0] - 0.0) <= 1e-8
        assert abs(roots[1] - 1.0) <= 1e-8

    def test_quartic_matches_cleared_polynomial(self):
        # Eliminating the second component by hand turns the determinant
        # condition into lam^2 - lam (xi^4 + i xi^2 + 1) - (i xi^4 + xi) = 0.
        fs = freeze(quartic_coupled(), "+")
        grid = np.linspace(-2.0, 2.0, 41)
        for point in det_scan(fs, grid):
            xi = point.xi
            exact = np.roots(
                [1.0, -(xi**4 + 1j * xi**2 + 1.0), -(1j * xi**4 + xi)])
            for root in point.roots:
                assert np.min(np.abs(exact - root)) <= 1e-7

    def test_decoupled_roots_are_diagonal_entries(self):
        op = make_decoupled_op()
        fs = freeze(op, "+")
        for point in det_scan(fs, np.linspace(-1.5, 1.5, 7)):
            got = sorted(point.roots, key=lambda z: z.imag)
            expected_a = 0.3 - 0.2j + point.xi**2
            assert abs(got[0] - expected_a) <= 1e-10
            assert abs(got[1] - 0.25j) <= 1e-10
            by_root = dict(zip(point.roots, point.at_d_limit))
            assert by_root[got[1]] is True
            assert by_root[got[0]] is False

    def test_coupled_roots_unannotated(self):
        fs = freeze(quartic_coupled(), "+")
        for point in det_scan(fs, [0.5, 1.0, 1.5]):
            assert point.at_d_limit == (False, False)


def _loop_stencils(n: int, h: float,
                   periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """Central first and second differences, set entry by entry."""
    first = np.zeros((n, n), dtype=np.complex128)
    second = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        second[i, i] = -2.0 / (h * h)
        for j, sign in ((i + 1, 1.0), (i - 1, -1.0)):
            if periodic:
                j %= n
            elif not 0 <= j < n:
                continue
            first[i, j] = sign / (2.0 * h)
            second[i, j] = 1.0 / (h * h)
    return first, second


class TestDiscretize:
    @pytest.mark.parametrize("periodic", [False, True],
                             ids=["truncate", "periodic"])
    @pytest.mark.parametrize("n", [16, 17, 50])
    def test_difference_matrices_match_loop_built_stencils(self, n,
                                                           periodic):
        h = 2.0 * 3.7 / n
        built = oracle_module._difference_matrices(n, h, periodic)
        for got, want in zip(built, _loop_stencils(n, h, periodic)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_zero_operator_spectrum_is_zero(self):
        op = OperatorMatrix(a=(ZERO, ZERO, ZERO), b=(ZERO, ZERO),
                            c=(ZERO, ZERO), d=ZERO)
        eig = discretize_and_eig(op, 2.0, 20, bc="periodic")
        assert eig.shape == (40,)
        assert np.max(np.abs(eig)) == 0.0

    @pytest.mark.parametrize("m,n_points,seed", [(2, 32, 5), (4, 48, 7)])
    def test_circulant_exactness(self, m, n_points, seed):
        op = random_constant_operator(random.Random(seed), m)
        computed = discretize_and_eig(op, 2.5, n_points, bc="periodic")
        exact = periodic_symbol_eigenvalues(freeze(op, "+"), 2.5, n_points)
        assert computed.shape == exact.shape == (2 * n_points,)
        for left, right in ((computed, exact), (exact, computed)):
            nearest = np.min(
                np.abs(left[:, None] - right[None, :]), axis=1)
            assert np.all(nearest <= 1e-10 * (1.0 + np.abs(left)))

    def test_dirichlet_truncation_changes_spectrum(self):
        op = random_constant_operator(random.Random(11), 2)
        periodic = np.sort_complex(
            discretize_and_eig(op, 3.0, 24, bc="periodic"))
        truncated = np.sort_complex(
            discretize_and_eig(op, 3.0, 24, bc="dirichlet_truncate"))
        assert periodic.shape == truncated.shape
        assert np.all(np.isfinite(truncated))
        assert not np.allclose(periodic, truncated)

    def test_parabolic_truncated_cloud_tracks_interval_image(self):
        # On [-L, L] the decoupling function covers [-L^2 - 1, -1]; the
        # truncated cloud must put eigenvalues near that segment.
        eig = discretize_and_eig(parabolic_potential(), 5.0, 50,
                                 bc="dirichlet_truncate")
        targets = np.linspace(-26.0, -1.0, 26)
        gaps = np.min(np.abs(targets[:, None] - eig[None, :]), axis=1)
        assert np.max(gaps) <= 1.0

    def test_budget_and_precondition_errors(self, monkeypatch):
        op = random_constant_operator(random.Random(1), 2)
        with pytest.raises(SizeError):
            discretize_and_eig(op, 2.0, 4001)
        with monkeypatch.context() as patch, pytest.raises(SizeError):
            patch.setattr(oracle_module, "EIG_BUDGET", 500)
            discretize_and_eig(op, 2.0, 600)
        with pytest.raises(DomainError):
            discretize_and_eig(op, 2.0, 8)
        with pytest.raises(DomainError):
            discretize_and_eig(op, 2.0, 24, bc="clamped")
        with pytest.raises(DomainError):
            discretize_and_eig(op, -1.0, 24)

    @pytest.mark.parametrize("length", [np.nan, np.inf])
    def test_nonfinite_length_rejected(self, length):
        # Both passed a bare length <= 0 test; LAPACK then refused the
        # matrix with LinAlgError.
        op = random_constant_operator(random.Random(1), 2)
        with pytest.raises(DomainError, match="length must be finite"):
            discretize_and_eig(op, length, 24)

    def test_coarse_grid_for_high_order_rejected(self):
        lit = Lit(1 + 0j)
        op = OperatorMatrix(a=(lit,) * 7, b=(lit,) * 4, c=(lit,) * 4, d=lit)
        with pytest.raises(DomainError):
            discretize_and_eig(op, 2.0, 16)


class TestDeterminantSchurConsistency:
    def test_det_roots_annihilate_tail_polynomial(self):
        # Determinant roots off the scalar limit must be roots of the
        # monic frequency polynomial built from the limit ratios, and
        # perturbed points must not be.
        rng = random.Random(23)
        op = random_constant_operator(rng, 2)
        fs = freeze(op, "+")
        symbol = build_schur(op)
        m = op.m

        xi_rng = np.random.default_rng(23)
        xi_grid = xi_rng.uniform(-3.0, 3.0, size=150)
        pairs = []
        for point in det_scan(fs, xi_grid):
            for root, near_d in zip(point.roots, point.at_d_limit):
                if not near_d:
                    pairs.append((point.xi, root))
        assert len(pairs) >= 200
        pairs = pairs[:200]

        xi = np.array([p[0] for p in pairs])
        lams = np.array([p[1] for p in pairs])
        values, status = limit_ratio_batch(symbol, lams, "+")
        ok = status == "ok"
        assert np.count_nonzero(ok) >= 190

        powers = xi[:, None] ** np.arange(m)[None, :]
        tail = xi**m + np.einsum("ij,ij->i", powers, values)
        scale = (np.abs(xi) ** m
                 + np.einsum("ij,ij->i", np.abs(powers), np.abs(values)))
        assert np.all(np.abs(tail[ok]) <= ROOT_TOL * scale[ok])

        shifted = lams[ok][:50] + 0.1
        values_s, status_s = limit_ratio_batch(symbol, shifted, "+")
        ok_s = status_s == "ok"
        pow_s = xi[ok][:50][:, None] ** np.arange(m)[None, :]
        tail_s = xi[ok][:50] ** m + np.einsum("ij,ij->i", pow_s, values_s)
        scale_s = (np.abs(xi[ok][:50]) ** m
                   + np.einsum("ij,ij->i", np.abs(pow_s), np.abs(values_s)))
        big = np.abs(tail_s[ok_s]) > 10.0 * ROOT_TOL * scale_s[ok_s]
        assert np.count_nonzero(big) >= 0.9 * np.count_nonzero(ok_s)
