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
Another NumPy build may round the companion eigenvalues or the quadratic
formula's square root differently and change the bytes without a change
here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from factories import PARABOLIC_CFG, QUARTIC_CFG
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
