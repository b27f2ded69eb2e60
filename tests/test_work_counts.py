"""Tree-walk counts of the bundled quartic workloads.

Every node visit of ``expr._eval_array`` and ``expr._eval_jet`` is counted,
so a change that samples a tree more often fails here whatever the timing
noise. The ceilings are the counts measured before the Schur symbol lost
its hand-built mode; lower is fine.
"""

from __future__ import annotations

import pytest

from factories import QUARTIC_CFG
from matspectra import expr
from matspectra.cli import main
from matspectra.config import SolverConfig
from matspectra.model import load_operator
from matspectra.spectrum import essential_spectrum

# The window and curve resolution of the benchmark's quartic spectrum run,
# and the probes its check run draws with seed 1.
QUARTIC_WINDOW = SolverConfig().with_overrides(
    window=(-2.0, 2.0, -2.0, 2.0), curve_res=1e-2)
SEED_1_PROBES = "1.163253-1.656608i,-0.113715+3.569169i"


@pytest.fixture
def visits(monkeypatch):
    counts = {"_eval_array": 0, "_eval_jet": 0}
    for name in counts:
        walk = getattr(expr, name)

        def counted(*args, _walk=walk, _name=name):
            counts[_name] += 1
            return _walk(*args)

        monkeypatch.setattr(expr, name, counted)
    return counts


def test_quartic_spectrum_walks_no_more_nodes(visits):
    op = load_operator(QUARTIC_CFG)
    visits.update(_eval_array=0, _eval_jet=0)
    essential_spectrum(op, QUARTIC_WINDOW)
    assert visits["_eval_array"] <= 27_357
    assert visits["_eval_jet"] == 0


def test_quartic_check_walks_no_more_nodes(visits, tmp_path):
    assert main(["check", "--config", str(QUARTIC_CFG), "--out",
                 str(tmp_path), f"--probes={SEED_1_PROBES}"]) == 0
    assert visits["_eval_array"] <= 331
    assert visits["_eval_jet"] <= 164
