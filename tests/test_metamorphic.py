"""Metamorphic relations of the essential spectrum.

Five transformations change the operator in a way whose effect on the
answer is known exactly, so they need no oracle:

- spectral shift: a_0 -> a_0 + mu and d -> d + mu move every point by mu;
- similarity by diag(1, t): b -> t b and c -> c/t leave the set as it is;
- reflection x -> -x: a_j(x) -> (-1)^j a_j(-x), and likewise b_j and c_j,
  leaves the set as it is and swaps the two ends of the line;
- translation x -> x - s in every coefficient leaves the set as it is;
- dilation by (Vf)(x) = sqrt(sigma) f(sigma x), which maps D to sigma D:
  for constant coefficients a_j -> sigma^j a_j, and likewise b_j and c_j,
  leaves the set as it is and moves every crossing against the fixed
  frequency grid.

The first three run on both bundled operators at their benchmark windows
and on the quartic whose d = x^2/(1 + exp(-x)) diverges toward + only, so
that its two ends differ. Translation runs on the quartic and dilation on
``factories.window_crossing``. Two point sets agree when every point of
either, away from the window edge, lies within ``curve_res`` of the other
(a two-way Hausdorff distance), and both runs take the same routes and
exceptional set. The translations and the dilation that fail today are
strict known gaps, each naming the ROADMAP item that fixes it: the limits
of trees translated by 40 fall back to the fit route on one side (item
5), translations by 60 and 200 move the curve's core past the sampled
span of the regular curve (item 3), and a dilation that puts the window
crossing between two grid frequencies loses the branch (item 8).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy.spatial import cKDTree

from factories import (PARABOLIC_CFG, QUARTIC_CFG, special_quartics,
                       window_crossing)
from matspectra.config import SolverConfig
from matspectra.expr import Add, Expr, Lit, Mul, Neg, Var, X
from matspectra.model import OperatorMatrix, load_operator
from matspectra.spectrum import SIDES, essential_spectrum

QUARTIC_WINDOW = SolverConfig().with_overrides(
    window=(-2.0, 2.0, -2.0, 2.0), curve_res=1e-2)
PARABOLIC_WINDOW = SolverConfig().with_overrides(
    window=(-2.0, 1.0, -0.5, 0.5))

MU = 0.25 + 0.125j
"""The spectral shift, exact in binary."""

T = 3.0
"""The similarity's scale."""


def _cases():
    return [pytest.param(load_operator(QUARTIC_CFG), QUARTIC_WINDOW,
                         id="quartic-window"),
            pytest.param(load_operator(PARABOLIC_CFG), PARABOLIC_WINDOW,
                         id="parabolic-window"),
            pytest.param(special_quartics()[0], QUARTIC_WINDOW,
                         id="quartic-d-diverging-toward-plus")]


def _substituted(tree: Expr, image: Expr) -> Expr:
    """``tree`` with x replaced by ``image``."""
    if tree == X:
        return image
    if isinstance(tree, (Lit, Var)):
        return tree
    return dataclasses.replace(tree, **{
        field.name: _substituted(getattr(tree, field.name), image)
        for field in dataclasses.fields(tree)
        if isinstance(getattr(tree, field.name), Expr)})


def _reflected(tree: Expr, sign: int = 1) -> Expr:
    """``sign * tree`` with x replaced by -x."""
    out = _substituted(tree, Neg(X))
    return out if sign == 1 else Neg(out)


def _reflection(op: OperatorMatrix) -> OperatorMatrix:
    def row(trees):
        return tuple(_reflected(tree, (-1) ** j)
                     for j, tree in enumerate(trees))

    return OperatorMatrix(a=row(op.a), b=row(op.b), c=row(op.c),
                          d=_reflected(op.d))


def _interior(lam: np.ndarray, window, margin: float) -> np.ndarray:
    re_min, re_max, im_min, im_max = window
    return lam[(lam.real > re_min + margin) & (lam.real < re_max - margin)
               & (lam.imag > im_min + margin) & (lam.imag < im_max - margin)]


def _farthest(points: np.ndarray, others: np.ndarray) -> float:
    """The largest distance from one of ``points`` to the nearest of
    ``others``: 0 without points, inf without others."""
    if not points.size:
        return 0.0
    if not others.size:
        return np.inf
    tree = cKDTree(np.column_stack([others.real, others.imag]))
    return float(tree.query(np.column_stack([points.real,
                                             points.imag]))[0].max())


def assert_same_set(lam, other, window, curve_res):
    """Every point of either set more than 10 ``curve_res`` inside the
    window lies within ``curve_res`` of the other set."""
    margin = 10.0 * curve_res
    assert max(_farthest(_interior(lam, window, margin), other),
               _farthest(_interior(other, window, margin), lam)) <= curve_res


def _parts(spectrum):
    """The regular and the singular points of a spectrum."""
    return spectrum.regular.lam, spectrum.singular.lam


def _routes(spectrum):
    return {side: fit["route"]
            for side, fit in spectrum.report["singular"]["fits"].items()}


@pytest.mark.parametrize("op, cfg", _cases())
def test_spectral_shift_moves_every_point(op, cfg):
    shifted = dataclasses.replace(
        op, a=(Add(op.a[0], Lit(MU)), *op.a[1:]), d=Add(op.d, Lit(MU)))
    re_min, re_max, im_min, im_max = cfg.window
    moved = cfg.with_overrides(window=(re_min + MU.real, re_max + MU.real,
                                       im_min + MU.imag, im_max + MU.imag))
    spectrum = essential_spectrum(op, cfg)
    other = essential_spectrum(shifted, moved)
    assert _routes(other) == _routes(spectrum)
    assert other.exceptional.sources == spectrum.exceptional.sources
    assert np.allclose(np.add(spectrum.exceptional.points, MU),
                       other.exceptional.points, rtol=0.0,
                       atol=cfg.curve_res)
    for mine, theirs in zip(_parts(spectrum), _parts(other)):
        assert_same_set(mine + MU, theirs, moved.window, cfg.curve_res)


@pytest.mark.parametrize("op, cfg", _cases())
def test_similarity_leaves_the_set_alone(op, cfg):
    similar = dataclasses.replace(
        op, b=tuple(Mul(Lit(T), tree) for tree in op.b),
        c=tuple(Mul(Lit(1.0 / T), tree) for tree in op.c))
    spectrum = essential_spectrum(op, cfg)
    other = essential_spectrum(similar, cfg)
    assert _routes(other) == _routes(spectrum)
    assert other.exceptional.points == spectrum.exceptional.points
    for mine, theirs in zip(_parts(spectrum), _parts(other)):
        assert_same_set(mine, theirs, cfg.window, cfg.curve_res)


@pytest.mark.parametrize("op, cfg", _cases())
def test_reflection_swaps_the_ends(op, cfg):
    spectrum = essential_spectrum(op, cfg)
    other = essential_spectrum(_reflection(op), cfg)
    routes = _routes(spectrum)
    assert _routes(other) == {"+": routes["-"], "-": routes["+"]}
    assert sorted(other.exceptional.points, key=repr) == sorted(
        spectrum.exceptional.points, key=repr)
    for mine, theirs in zip(_parts(spectrum), _parts(other)):
        assert_same_set(mine, theirs, cfg.window, cfg.curve_res)
    swapped = {"+": "-", "-": "+", SIDES[2]: SIDES[2]}
    for code, side in enumerate(SIDES):
        mine = spectrum.singular.lam[spectrum.singular.side == code]
        theirs = other.singular.lam[
            other.singular.side == SIDES.index(swapped[side])]
        assert mine.size == theirs.size
        assert_same_set(mine, theirs, cfg.window, cfg.curve_res)


def _known_gap(value, item: int):
    return pytest.param(value, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"ROADMAP item {item}"))


def assert_same_answer(spectrum, other, cfg):
    """The same routes and exceptional set, and the same point sets."""
    assert _routes(other) == _routes(spectrum)
    assert other.exceptional.sources == spectrum.exceptional.sources
    assert np.allclose(other.exceptional.points, spectrum.exceptional.points,
                       rtol=0.0, atol=cfg.curve_res)
    for mine, theirs in zip(_parts(spectrum), _parts(other)):
        assert_same_set(mine, theirs, cfg.window, cfg.curve_res)


@pytest.mark.parametrize("shift", [
    20.0, -20.0, _known_gap(40.0, 5), _known_gap(-40.0, 5),
    _known_gap(60.0, 3), _known_gap(200.0, 3)])
def test_translation_leaves_the_set_alone(shift):
    op = load_operator(QUARTIC_CFG)
    image = Add(X, Lit(complex(-shift)))

    def row(trees):
        return tuple(_substituted(tree, image) for tree in trees)

    translated = OperatorMatrix(a=row(op.a), b=row(op.b), c=row(op.c),
                                d=_substituted(op.d, image))
    assert_same_answer(essential_spectrum(op, QUARTIC_WINDOW),
                       essential_spectrum(translated, QUARTIC_WINDOW),
                       QUARTIC_WINDOW)


@pytest.mark.parametrize("sigma", [1.01, 0.99, _known_gap(0.98781, 8)])
def test_dilation_leaves_the_set_alone(sigma):
    # The branch crosses the window at xi = 10/sigma; 10 is a frequency of
    # the default grid.
    assert_same_answer(
        essential_spectrum(window_crossing(10.0, 1.0), QUARTIC_WINDOW),
        essential_spectrum(window_crossing(10.0, 1.0, sigma), QUARTIC_WINDOW),
        QUARTIC_WINDOW)
