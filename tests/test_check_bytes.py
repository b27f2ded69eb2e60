"""The bytes of ``check_report.json``, pinned by SHA-256.

``golden/check_sha256.json`` holds, per case, the arguments after
``matspectra check --config`` and the hash of the report it writes: both
bundled configs at the default probes, and the quartic at the two probes
that the benchmark's ``draw_probes`` draws for seeds 1 and 404. The config
path is given relative to the repository root, where the test runs, since
the report echoes it. The hashes were recorded with NumPy 2.4.6 on Python
3.11.7 before the boundedness cap moved out of ``SolverConfig``; a
refactor of the checks must leave them unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from matspectra.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "check_sha256.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_check_report_bytes_are_pinned(case, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    config, *probes = GOLDEN[case]["argv"]
    assert main(["check", "--config", config, *probes,
                 "--out", str(tmp_path)]) == EXIT_OK
    report = (tmp_path / "check_report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() \
        == GOLDEN[case]["check_report.json"]
