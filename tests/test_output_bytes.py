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
Another NumPy build may round the companion eigenvalues or the quadratic
formula's square root differently and change the bytes without a change
here.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from factories import PARABOLIC_CFG, QUARTIC_CFG
from matspectra import cli as cli_module
from matspectra.cli import EXIT_OK, main
from matspectra.config import SolverConfig
from matspectra.model import load_operator
from matspectra.spectrum import essential_spectrum, write_csv

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


# The parabolic spectrum.svg hashes while every dot was written.
UNCLIPPED_SVG = {
    "parabolic_potential":
        "6fa8c65f7ce700b61ab385d8e1988086a2d142d87f14c326ef95b5b9f3f3042c",
    "parabolic_window":
        "3c2d44ab2aa77cc424f1d4d0a6ecd3e4710d17a84d7dcaf338972308bc0e6773",
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
