"""The spectrum's CSV and SVG bytes, pinned by SHA-256.

``golden/spectrum_sha256.json`` holds the hashes of ``spectrum.csv`` and
``spectrum.svg`` that ``matspectra spectrum --svg`` writes for both bundled
configs at the default window and for the parabolic operator at the
benchmark window (-2, 1, -0.5, 0.5), and of ``write_csv`` for the quartic
at the benchmark settings (window [-2, 2]^2, ``curve_res`` 1e-2). They were
recorded with NumPy 2.4.6 on Python 3.11.7, from the point-object output
path that the column tables replaced; a refactor must leave them unchanged.
The two quartic entries were recorded again when the sweep stopped
refining where only a root that is never emitted comes and goes: they hold
a subset of the earlier singular points (2,252 of 2,284 at the benchmark
settings, 61,912 of 61,938 at the default), each dropped point within
``curve_res`` of a kept one. The parabolic entries did not change.
The two quartic CSV hashes were recorded once more when the quartic's
degree-2 tail polynomials came to be solved by the quadratic formula in
place of companion eigenvalues: the same points at the same frequencies,
each within 2.1e-15 of the old value at the benchmark settings and within
1.6e-14 at the default, so only the last digits of the CSV moved and the
SVG bytes held. The parabolic entries (degree 1, whose root keeps its
bits) did not change.
The two parabolic SVG hashes were recorded again when the renderer began
to leave out dots whose circle lies wholly outside the plot's clip
rectangle (all 1,572 dots at the default window and all 1,994 at the
benchmark window: lone regular-curve samples far outside the plot); the
image is unchanged, and ``UNCLIPPED_SVG`` keeps the old hashes for the
test that compares the two. The CSV entries and the quartic SVG did not
change.
All entries, and ``UNCLIPPED_SVG``, were recorded again when the sweep
began to solve each split segment's bisection subtree down to the depth
its gap predicts, with the cleared coefficients formed by Horner's rule in
xi: points were added (2,252 -> 2,285 at the quartic benchmark settings,
61,912 -> 62,008 at the quartic default, 3,131 -> 3,173 and
29,701 -> 29,745 for the parabolic benchmark window and default), and
every earlier point kept its frequency, side, branch id and flags, its
lambda moving by Horner's rounding alone: at most 8.9e-16, 5.4e-15,
1.1e-16 and 1.8e-15 in the same order. The regular-curve samples did not
change.
Another NumPy build may round the companion eigenvalues or the quadratic
formula's square root differently and change the bytes without a change
here.

The SVG writer formats all screen coordinates of a run with one ``%.2f``
template; Hypothesis tests hold its text to one f-string a point
(``oracles.svg_coordinates``) on edge values and on random tables.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import PARABOLIC_CFG, QUARTIC_CFG
from matspectra import cli as cli_module
from matspectra.asymptotics import ExceptionalSet
from matspectra.cli import EXIT_OK, main, render_svg
from matspectra.config import SolverConfig
from matspectra.model import load_operator
from matspectra.spectrum import (FLAGS, SIDES, RegularTable, SingularTable,
                                 SpectrumSet, essential_spectrum, write_csv)
from oracles import svg_coordinates

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden"
                     / "spectrum_sha256.json").read_text(encoding="utf-8"))

CLI_CASES = {
    "parabolic_potential": [str(PARABOLIC_CFG)],
    "quartic_coupled": [str(QUARTIC_CFG)],
    "parabolic_window": [str(PARABOLIC_CFG), "--window=-2,1,-0.5,0.5"],
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_spectrum_bytes_are_pinned(case, tmp_path):
    config, *window = CLI_CASES[case]
    assert main(["spectrum", "--config", config, *window, "--svg",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert {name: _sha256(tmp_path / name) for name in GOLDEN[case]} \
        == GOLDEN[case]


def test_api_csv_bytes_are_pinned(tmp_path):
    spectrum = essential_spectrum(
        load_operator(QUARTIC_CFG), SolverConfig().with_overrides(
            window=(-2.0, 2.0, -2.0, 2.0), curve_res=1e-2))
    write_csv(spectrum, tmp_path / "spectrum.csv")
    assert _sha256(tmp_path / "spectrum.csv") \
        == GOLDEN["quartic_window"]["spectrum.csv"]


# The parabolic spectrum.svg hashes with every dot written.
UNCLIPPED_SVG = {
    "parabolic_potential":
        "66ce1bea3f9fc24c731a6861db29673576a6171e555e2bda1ce3cf1933057061",
    "parabolic_window":
        "28ffc114755d52f20d8aa53a8f6c8d4ad5cc7489edeb29c7c3eb37f5176bf3fd",
}
HIDDEN_DOTS = {"parabolic_potential": 1572, "parabolic_window": 1994}


def _clip(lines: list[str]) -> tuple[float, ...]:
    """(left, top, right, bottom) of the SVG's clip rectangle."""
    rect = next(line for line in lines if line.startswith("<clipPath"))
    x, y, w, h = (float(re.search(f' {name}="([^"]+)"', rect).group(1))
                  for name in ("x", "y", "width", "height"))
    return x, y, x + w, y + h


def _wholly_clipped(line: str, clip) -> bool:
    """Whether the line is a circle that lies wholly outside ``clip``, by
    more than the 0.01 that rounding its centre to two decimals moves it."""
    if not line.startswith("<circle"):
        return False
    cx, cy, r = (float(re.search(f' {name}="([^"]+)"', line).group(1))
                 for name in ("cx", "cy", "r"))
    left, top, right, bottom = clip
    pad = r + 0.01
    return (cx < left - pad or cx > right + pad
            or cy < top - pad or cy > bottom + pad)


@pytest.mark.parametrize("case", sorted(UNCLIPPED_SVG))
def test_svg_leaves_out_exactly_the_dots_the_clip_hides(case, tmp_path,
                                                        monkeypatch):
    config, *window = CLI_CASES[case]
    args = ["spectrum", "--config", config, *window, "--svg", "--out"]
    assert main([*args, str(tmp_path / "new")]) == EXIT_OK
    monkeypatch.setattr(cli_module, "_dot_shown",
                        lambda sx, sy, radius, clip: np.ones(np.shape(sx),
                                                             dtype=bool))
    assert main([*args, str(tmp_path / "old")]) == EXIT_OK
    old, new = (tmp_path / run / "spectrum.svg" for run in ("old", "new"))
    assert _sha256(old) == UNCLIPPED_SVG[case]
    old_lines = old.read_text(encoding="utf-8").splitlines()
    clip = _clip(old_lines)
    hidden = [_wholly_clipped(line, clip) for line in old_lines]
    assert sum(hidden) == HIDDEN_DOTS[case]
    assert new.read_text(encoding="utf-8").splitlines() == [
        line for line, gone in zip(old_lines, hidden) if not gone]


# Signed zeros, infinities, NaN, subnormals, .2f near-ties (-0.005 is
# stored just below the tie) and magnitudes from 1e16 up, where the printed
# digits run past a double's precision.
COORDINATE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -5e-324, 2.2250738585072014e-308, -0.005, 0.005,
                     -0.015, 0.125, -2.675, 1.005, 1e16,
                     -9.999999999999998e16]),
    st.floats(1e16, 1e17, exclude_max=True),
    st.floats(-1e17, -1e16, exclude_min=True))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(COORDINATE, COORDINATE), max_size=30))
def test_svg_coordinates_match_per_point_formatting(points):
    sx = np.array([x for x, _ in points], dtype=float)
    sy = np.array([y for _, y in points], dtype=float)
    assert cli_module._xy(sx, sy) == svg_coordinates(sx, sy)


VALUE = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, -0.005]))


@st.composite
def spectrum_tables(draw) -> SpectrumSet:
    """Random regular and singular tables, ±inf curve parameters, every
    side code, branch ids 0-4 and every flag code included."""
    n_regular = draw(st.integers(0, 12))
    n_singular = draw(st.integers(0, 24))

    def column(elements, size):
        return draw(st.lists(elements, min_size=size, max_size=size))

    def lam(size):
        return np.array(column(VALUE, size), dtype=float) + 1j * np.array(
            column(VALUE, size), dtype=float)

    regular = RegularTable(
        np.array(column(st.one_of(st.floats(-5.0, 5.0), st.sampled_from(
            [math.inf, -math.inf])), n_regular), dtype=float),
        lam(n_regular))
    singular = SingularTable(
        np.array(column(st.integers(0, len(SIDES) - 1), n_singular),
                 dtype=np.int8),
        np.array(column(st.floats(-5.0, 5.0), n_singular), dtype=float),
        lam(n_singular),
        np.array(column(st.integers(0, 4), n_singular), dtype=int),
        np.array(column(st.integers(0, (1 << len(FLAGS)) - 1), n_singular),
                 dtype=np.uint8))
    return SpectrumSet(regular=regular, singular=singular,
                       exceptional=ExceptionalSet(
                           points=(), radii=(), window_exponents=(),
                           sources={"+": "escapes", "-": "escapes"}),
                       report={})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spectrum=spectrum_tables())
def test_svg_text_matches_per_point_formatting(spectrum):
    window = (-2.0, 1.0, -0.5, 0.5)
    with mock.patch.object(cli_module, "_xy", svg_coordinates):
        want = render_svg(spectrum, window)
    assert render_svg(spectrum, window) == want
