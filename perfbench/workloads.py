"""The three benchmark workloads and their correctness gates.

Each workload has a timed ``run`` (one operation, as a user would run
it, with the program's default settings) and an untimed ``check`` that
compares the operation's output with an independent reference. The
reference work (closed forms, ``oracle.det_scan``) never runs inside the
timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

import matspectra
from matspectra import cli, oracle
from matspectra.config import SolverConfig, window_contains

PARABOLIC_CFG = "configs/parabolic_potential.cfg"
QUARTIC_CFG = "configs/quartic_coupled.cfg"

# Operations are kept to 0.5-2.5 s so that a run holds a dozen or more of
# them and its median cost is steady on a shared host.
# This window holds both ends of the exact spectrum, -1 and 0.
PARABOLIC_WINDOW = (-2.0, 1.0, -0.5, 0.5)
# Window and curve resolution cut one quartic operation from ~20 s to ~2 s;
# limit batches inside Newton polish still take the largest share.
QUARTIC_OVERRIDES = {"window": (-2.0, 2.0, -2.0, 2.0), "curve_res": 1e-2}
PROBE_COUNT = 2
PROBE_RADII = (1.5, 4.0)


@dataclass
class Outcome:
    """Gate verdict for one operation."""

    passed: bool
    rows: int
    reason: str = ""
    ref_dev: float | None = None
    csv_sha256: str | None = None
    svg_sha256: str | None = None


def draw_probes(seed: int, count: int = PROBE_COUNT) -> tuple[complex, ...]:
    """Probes uniform by area in the annulus 1.5 <= |lambda| <= 4."""
    rng = random.Random(seed)
    lo, hi = PROBE_RADII
    probes = []
    for _ in range(count):
        radius = math.sqrt(rng.uniform(lo * lo, hi * hi))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        z = radius * complex(math.cos(angle), math.sin(angle))
        probes.append(complex(round(z.real, 6), round(z.imag, 6)))
    return tuple(probes)


def probe_text(probes) -> str:
    return ",".join(f"{z.real:.6f}{z.imag:+.6f}i" for z in probes)


def _sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _segment_distance(points: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Distance from each complex point to the real segment [lo, hi]."""
    overshoot = np.maximum(np.maximum(lo - points.real, 0.0),
                           points.real - hi)
    return np.hypot(overshoot, points.imag)


def _read_csv_points(path: Path, window):
    """Windowed finite regular and singular lambdas from spectrum.csv."""
    regular, singular = [], []
    lines = path.read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        part, _side, param, re, im = line.split(",")[:5]
        lam = complex(float(re), float(im))
        if not window_contains(window, lam):
            continue
        if part == "regular" and math.isfinite(float(param)):
            regular.append(lam)
        elif part == "singular":
            singular.append(lam)
    return (np.asarray(regular, dtype=complex),
            np.asarray(singular, dtype=complex), len(lines) - 1)


def parabolic_verdict(regular: np.ndarray, singular: np.ndarray,
                      window=PARABOLIC_WINDOW) -> tuple[str, float]:
    """Failure reason ('' when passing) and computed->exact distance.

    The exact spectrum is (-inf,-1] u [0,inf) on the real axis; inside a
    window with real range [lo, hi], lo < -1 and hi > 0, it is
    [lo,-1] u [0,hi]. Tolerances are those of acceptance criterion 1.
    """
    lo, hi = window[0], window[1]
    if regular.size == 0 or singular.size == 0:
        return "empty regular or singular part", math.inf
    computed = np.concatenate([regular, singular])
    to_exact = float(np.max(np.minimum(_segment_distance(computed, lo, -1.0),
                                       _segment_distance(computed, 0.0, hi))))
    exact = np.concatenate(
        [np.linspace(lo, -1.0, round((-1.0 - lo) * 1e4) + 1),
         np.linspace(0.0, hi, round(hi * 1e4) + 1)])
    tree = cKDTree(np.column_stack([computed.real, computed.imag]))
    gaps, _ = tree.query(np.column_stack([exact, np.zeros_like(exact)]))
    checks = (
        (np.abs(regular.imag).max() <= 1e-9, "regular imaginary part > 1e-9"),
        (regular.real.min() >= lo and regular.real.max() <= -1.0,
         "regular part leaves [lo, -1]"),
        (np.abs(singular.imag).max() <= 1e-8, "singular imaginary part > 1e-8"),
        (singular.real.min() >= -1e-8 and singular.real.max() <= hi,
         "singular part leaves [0, hi]"),
        (float(gaps.max()) <= 1e-3, "exact -> computed distance > 1e-3"),
        (to_exact <= 1e-6, "computed -> exact distance > 1e-6"),
    )
    for ok, reason in checks:
        if not ok:
            return reason, to_exact
    return "", to_exact


class QuarticReference:
    """Frozen symbols of the quartic operator toward both infinities."""

    def __init__(self, op):
        cfg = SolverConfig()
        self.frozen = {side: oracle.freeze(op, side, cfg) for side in "+-"}

    def deviation(self, singular) -> float:
        """Worst distance of a singular point from det_scan at its xi.

        A neutral-side point belongs to both sides and is checked on both.
        """
        worst = 0.0
        for side, fs in self.frozen.items():
            points = [p for p in singular if p.side in (side, "·")]
            if not points:
                continue
            scan = oracle.det_scan(fs, [p.xi for p in points])
            lams = np.asarray([p.lam for p in points])
            roots = np.asarray([pt.roots for pt in scan])
            dist = np.min(np.abs(roots - lams[:, None]), axis=1)
            worst = max(worst, float(dist.max()))
        return worst


def quartic_verdict(spectrum, reference: QuarticReference) -> tuple[str, float]:
    """Failure reason ('' when passing) and worst det_scan deviation."""
    if not spectrum.singular:
        return "empty singular part", math.inf
    ref_dev = reference.deviation(spectrum.singular)
    ends = {p.x_param: p.lam for p in spectrum.regular
            if not math.isfinite(p.x_param)}
    exceptional = spectrum.exceptional.points
    if ref_dev > 1e-6:
        return "singular point farther than 1e-6 from det_scan", ref_dev
    if set(ends) != {math.inf, -math.inf} or any(
            abs(lam + 1j) > 1e-7 for lam in ends.values()):
        return "curve endpoints not both within 1e-7 of -i", ref_dev
    if len(exceptional) != 1 or abs(exceptional[0]) > 1e-4:
        return f"exceptional set {exceptional} is not {{0}}", ref_dev
    return "", ref_dev


class Workload:
    """One benchmark workload: timed ``run`` plus untimed ``check``."""

    name = ""
    config = ""

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.config_path = root / self.config

    def describe(self) -> dict:
        return {"workload": self.name, "seed": self.seed}

    def _out_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch))


class ParabolicWindow(Workload):
    name = "parabolic_window"
    config = PARABOLIC_CFG

    def run(self):
        out = self._out_dir()
        code = cli.main(["spectrum", "--config", str(self.config_path),
                         "--window=" + ",".join(map(str, PARABOLIC_WINDOW)),
                         "--svg", "--out", str(out)])
        return code, out

    def check(self, result) -> Outcome:
        code, out = result
        try:
            csv_path = out / "spectrum.csv"
            outcome = Outcome(passed=False, rows=0,
                              csv_sha256=_sha256(csv_path),
                              svg_sha256=_sha256(out / "spectrum.svg"))
            if code != 0:
                outcome.reason = f"exit code {code}"
                return outcome
            regular, singular, outcome.rows = _read_csv_points(
                csv_path, PARABOLIC_WINDOW)
            outcome.reason, outcome.ref_dev = parabolic_verdict(
                regular, singular)
            outcome.passed = not outcome.reason
            return outcome
        finally:
            shutil.rmtree(out, ignore_errors=True)


class QuarticWindow(Workload):
    name = "quartic_window"
    config = QUARTIC_CFG

    def __init__(self, root, seed, scratch):
        super().__init__(root, seed, scratch)
        self._reference = None

    def run(self):
        return matspectra.essential_spectrum(
            matspectra.load_operator(self.config_path),
            SolverConfig().with_overrides(**QUARTIC_OVERRIDES))

    def check(self, spectrum) -> Outcome:
        if self._reference is None:
            self._reference = QuarticReference(
                matspectra.load_operator(self.config_path))
        out = self._out_dir()
        try:
            csv_path = out / "spectrum.csv"
            matspectra.write_csv(spectrum, csv_path)
            sha = _sha256(csv_path)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        reason, ref_dev = quartic_verdict(spectrum, self._reference)
        return Outcome(passed=not reason, reason=reason, ref_dev=ref_dev,
                       rows=len(spectrum.regular) + len(spectrum.singular),
                       csv_sha256=sha)


class QuarticCheck(Workload):
    name = "quartic_check"
    config = QUARTIC_CFG

    def __init__(self, root, seed, scratch):
        super().__init__(root, seed, scratch)
        self.probes = draw_probes(seed)

    def describe(self) -> dict:
        return {**super().describe(),
                "probes": [[z.real, z.imag] for z in self.probes]}

    def run(self):
        out = self._out_dir()
        # "--probes=" keeps a probe with a leading minus from reading as a flag.
        code = cli.main(["check", "--config", str(self.config_path),
                         f"--probes={probe_text(self.probes)}",
                         "--out", str(out)])
        return code, out

    def check(self, result) -> Outcome:
        code, out = result
        try:
            report_path = out / "check_report.json"
            if code != 0:
                return Outcome(passed=False, rows=0,
                               reason=f"exit code {code}")
            records = json.loads(report_path.read_text(encoding="utf-8"))[
                "records"]
            bad = [r for r in records if r["status"] != "pass"]
            reason = ""
            if bad:
                reason = f"{len(bad)} records not passing, first: {bad[0]}"
            elif len(records) != 1 + 5 * len(self.probes):
                reason = f"expected {1 + 5 * len(self.probes)} records"
            return Outcome(passed=not reason, rows=len(records),
                           reason=reason)
        finally:
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (ParabolicWindow, QuarticWindow,
                                       QuarticCheck)}
