"""Command-line entry point: checks, spectra, oracle comparisons, plots.

Subcommands
-----------
``check``        validate an operator config and sample the hypotheses;
                 exit 0 iff nothing failed.
``spectrum``     compute the essential spectrum, write CSV + JSON report
                 and optionally an SVG plot.
``oracle``       compare the computed singular part against the
                 frozen-symbol determinant scan, or (``--discretize``)
                 against truncated-interval eigenvalue clouds.
``print-schur``  print the reduced scalar symbol.

Exit codes: 0 success, 1 failed checks, 2 malformed operator or config,
3 I/O failure, 4 limit hypothesis failed at every probe (no ``--force``),
5 frozen limits refused (no ``--discretize``).

Everything runs on one thread, and identical inputs produce byte-identical
CSV and SVG output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .asymptotics import check_assumptions
from .config import SolverConfig, parse_complex, window_contains
from .errors import (ConfigError, MatspectraError, ParseError, RefusedFrozen,
                     StructureError)
from .expr import simplify, to_text
from .model import (Diagnostics, OperatorMatrix, delta, load_operator,
                    validate, validation_grid)
from .oracle import det_scan, discretize_and_eig, freeze
from .schur import SchurSymbol, build_schur, coefficient_trees
from .spectrum import (SpectrumSet, _format_number, default_xi_grid,
                       essential_spectrum, write_csv)

__all__ = [
    "EXIT_ASSUMPTION_FAILED",
    "EXIT_CHECK_FAILED",
    "EXIT_IO",
    "EXIT_OK",
    "EXIT_REFUSED",
    "EXIT_STRUCTURE",
    "RunConfig",
    "build_parser",
    "cmd_check",
    "cmd_oracle",
    "cmd_print_schur",
    "cmd_spectrum",
    "main",
    "render_svg",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_STRUCTURE = 2
EXIT_IO = 3
EXIT_ASSUMPTION_FAILED = 4
EXIT_REFUSED = 5

DEFAULT_PROBES = (1.7 + 2.3j, -2.6 + 1.1j, 0.4 - 1.9j)

_POSITIVE_TOLERANCES = ("limit_tol", "curve_res", "root_tol", "fit_tol",
                        "dedupe_tol", "exc_tol", "deriv_tol")

_TRUNCATION_LENGTHS = (5.0, 10.0, 20.0)

_TRUNCATION_NOTE = (
    "truncated-interval eigenvalue clouds need not approximate the "
    "essential spectrum; non-monotone distances across lengths are "
    "expected behavior, not a failure")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """One resolved CLI invocation."""

    command: str
    config_path: Path
    out_dir: Path
    solver: SolverConfig = field(default_factory=SolverConfig)
    probes: tuple[complex, ...] = DEFAULT_PROBES
    force: bool = False
    discretize: bool = False
    svg: bool = False

    def __post_init__(self):
        re_min, re_max, im_min, im_max = self.solver.window
        if not (re_min < re_max and im_min < im_max):
            raise ConfigError(
                f"window must be non-degenerate, got {self.solver.window}")
        for name in _POSITIVE_TOLERANCES:
            if getattr(self.solver, name) <= 0.0:
                raise ConfigError(f"tolerance {name} must be positive")
        if not self.probes:
            raise ConfigError("probe list must not be empty")


def _parse_window(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(
            f"window must be re_min,re_max,im_min,im_max, got {text!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad window component in {text!r}") from exc
    return values


def _parse_probes(text: str) -> tuple[complex, ...]:
    probes = []
    for chunk in text.split(","):
        try:
            probes.append(parse_complex(chunk))
        except ValueError as exc:
            raise ConfigError(f"bad probe {chunk!r}") from exc
    return tuple(probes)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, metavar="PATH",
                        help="operator config file")
    shared.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current)")
    shared.add_argument("--window", default=None, metavar="a,b,c,d",
                        help="re_min,re_max,im_min,im_max (write "
                             "--window=-10,10,-5,5 when bounds are negative)")
    shared.add_argument("--probes", default=None, metavar="LIST",
                        help="comma-separated spectral probes, e.g. 1+2i,-3i")
    shared.add_argument("--force", action="store_true",
                        help="proceed even when hypothesis checks fail")
    shared.add_argument("--discretize", action="store_true",
                        help="oracle: fall back to finite differences when "
                             "frozen limits are refused")
    shared.add_argument("--svg", action="store_true",
                        help="spectrum: also write an SVG plot")

    parser = argparse.ArgumentParser(
        prog="matspectra",
        description="Essential spectra of 2x2 matrix differential operators "
                    "on the real line")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[shared],
                   help="validate structure and sample the hypotheses")
    sub.add_parser("spectrum", parents=[shared],
                   help="compute and export the essential spectrum")
    sub.add_parser("oracle", parents=[shared],
                   help="cross-check the singular part against oracles")
    sub.add_parser("print-schur", parents=[shared],
                   help="print the reduced scalar symbol")
    return parser


def _run_from_args(args: argparse.Namespace) -> RunConfig:
    solver = SolverConfig()
    if args.window is not None:
        solver = solver.with_overrides(window=_parse_window(args.window))
    probes = _parse_probes(args.probes) if args.probes else DEFAULT_PROBES
    return RunConfig(
        command=args.command,
        config_path=Path(args.config),
        out_dir=Path(args.out),
        solver=solver,
        probes=probes,
        force=args.force,
        discretize=args.discretize,
        svg=args.svg,
    )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True,
                      default=_json_default)
    path.write_text(text + "\n", encoding="utf-8")


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _prepare_out_dir(run: RunConfig) -> Path:
    run.out_dir.mkdir(parents=True, exist_ok=True)
    return run.out_dir


def _run_echo(run: RunConfig) -> dict:
    return {
        "command": run.command,
        "config": str(run.config_path),
        "window": list(run.solver.window),
        "probes": [[p.real, p.imag] for p in run.probes],
        "force": run.force,
    }


def _record_dicts(records) -> list[dict]:
    return Diagnostics(records=tuple(records)).to_json_dict()["records"]


def _run_checks(op: OperatorMatrix,
                run: RunConfig) -> tuple[list, SchurSymbol]:
    """Structural record plus per-probe hypothesis records, in order.

    Also returns the Schur symbol the checks built, for reuse.
    """
    cfg = run.solver
    grid = validation_grid(cfg)
    structural = validate(op, grid).records
    symbol = build_schur(op, cfg)
    checked = check_assumptions(op, symbol, run.probes, grid, cfg).records
    return [*structural, *checked], symbol


def _one_sided_distance(source, target) -> float | None:
    """sup over source of the distance to target; None when undefined."""
    if not len(source):
        return 0.0
    if not len(target):
        return None
    src = np.asarray(source, dtype=np.complex128)
    tgt = np.asarray(target, dtype=np.complex128)
    tree = cKDTree(np.column_stack([tgt.real, tgt.imag]))
    gaps, _ = tree.query(np.column_stack([src.real, src.imag]), k=1)
    return float(np.max(gaps))


def _spectrum_point_sets(spectrum: SpectrumSet,
                         cfg: SolverConfig) -> tuple[list, list]:
    regular = [p.lam for p in spectrum.regular
               if window_contains(cfg.window, p.lam)]
    singular = [p.lam for p in spectrum.singular
                if window_contains(cfg.window, p.lam)]
    return regular, singular


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(run: RunConfig) -> int:
    op = load_operator(run.config_path)
    records, _ = _run_checks(op, run)
    failures = [r for r in records if r.status == "fail"]
    out_dir = _prepare_out_dir(run)
    report = {
        "run": _run_echo(run),
        "records": _record_dicts(records),
        "failures": len(failures),
        "inconclusive": sum(1 for r in records if r.status == "inconclusive"),
        "ok": not failures,
    }
    _write_json(out_dir / "check_report.json", report)
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _limit_hypothesis_blocks(records, force: bool) -> tuple[bool, list[dict]]:
    """True when every probe's limit-convergence record failed."""
    d_records = [r for r in records if r.assumption == "D"]
    all_failed = bool(d_records) and all(r.status == "fail"
                                         for r in d_records)
    warnings = _record_dicts([r for r in records if r.status == "fail"])
    return (all_failed and not force), warnings


def cmd_spectrum(run: RunConfig) -> int:
    op = load_operator(run.config_path)
    cfg = run.solver
    records, symbol = _run_checks(op, run)
    blocked, warnings = _limit_hypothesis_blocks(records, run.force)
    out_dir = _prepare_out_dir(run)

    if blocked:
        _write_json(out_dir / "spectrum_report.json", {
            "run": _run_echo(run),
            "status": "refused",
            "reason": "coefficient limits failed to converge at every "
                      "probe; rerun with --force for a partial result",
            "warnings": warnings,
            "exit_code": EXIT_ASSUMPTION_FAILED,
        })
        return EXIT_ASSUMPTION_FAILED

    spectrum = essential_spectrum(op, cfg, symbol)
    csv_path = out_dir / "spectrum.csv"
    write_csv(spectrum, csv_path)

    outputs = {"csv": csv_path}
    if run.svg:
        svg_path = out_dir / "spectrum.svg"
        _write_text(svg_path, render_svg(spectrum, cfg.window))
        outputs["svg"] = svg_path

    report = {
        "run": _run_echo(run),
        "status": "forced" if warnings else "ok",
        "warnings": warnings,
        "points": {
            "regular": len(spectrum.regular),
            "singular": len(spectrum.singular),
        },
        "spectrum": spectrum.report,
        "outputs": {k: str(v) for k, v in outputs.items()},
    }
    _write_json(out_dir / "spectrum_report.json", report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _det_scan_report(op: OperatorMatrix, spectrum: SpectrumSet,
                     cfg: SolverConfig) -> tuple[dict, list[complex]]:
    sides = ("+", "-")
    frozen = {side: freeze(op, side, cfg) for side in sides}

    default_grid = [float(x) for x in default_xi_grid(cfg)]
    side_reports = {}
    all_roots: list[complex] = []
    for side in sides:
        side_points = [p for p in spectrum.singular if p.side in (side, "·")]
        xi_values = sorted({p.xi for p in side_points}) or default_grid
        scan = det_scan(frozen[side], xi_values)
        roots = [root for point in scan for root in point.roots
                 if window_contains(cfg.window, root)]
        spectrum_lams = [p.lam for p in side_points
                         if window_contains(cfg.window, p.lam)]
        all_roots.extend(roots)
        side_reports[side] = {
            "frequencies": len(xi_values),
            "oracle_points": len(roots),
            "spectrum_points": len(spectrum_lams),
            "spectrum_to_oracle": _one_sided_distance(spectrum_lams, roots),
            "oracle_to_spectrum": _one_sided_distance(roots, spectrum_lams),
        }
    report = {
        "mode": "det_scan",
        "sides": side_reports,
        "frozen": {
            side: {
                "a": list(frozen[side].a),
                "b": list(frozen[side].b),
                "c": list(frozen[side].c),
                "d": frozen[side].d,
            } for side in sides
        },
    }
    return report, all_roots


def _discretize_report(op: OperatorMatrix, spectrum: SpectrumSet,
                       cfg: SolverConfig) -> tuple[dict, list[complex]]:
    regular, singular = _spectrum_point_sets(spectrum, cfg)
    predicted = regular + singular
    sweep = []
    last_cloud: list[complex] = []
    for length in _TRUNCATION_LENGTHS:
        n_points = min(int(2 * length * length), cfg.eig_budget)
        eig = discretize_and_eig(op, length, n_points,
                                 bc="dirichlet_truncate", cfg=cfg)
        cloud = [complex(v) for v in eig if window_contains(cfg.window, v)]
        sweep.append({
            "length": length,
            "n_points": n_points,
            "eigenvalues": int(eig.size),
            "eigenvalues_in_window": len(cloud),
            "cloud_to_spectrum": _one_sided_distance(cloud, predicted),
            "singular_to_cloud": _one_sided_distance(singular, cloud),
            "regular_to_cloud": _one_sided_distance(regular, cloud),
        })
        last_cloud = cloud
    coverage = [entry["singular_to_cloud"] for entry in sweep]
    monotone = all(
        prev is not None and cur is not None and cur < prev
        for prev, cur in zip(coverage, coverage[1:]))
    report = {
        "mode": "discretize",
        "boundary_condition": "dirichlet_truncate",
        "sweep": sweep,
        "singular_to_cloud_monotone_decreasing": monotone,
        "expected_behavior": _TRUNCATION_NOTE,
    }
    return report, last_cloud


def _write_point_csv(path: Path, points) -> None:
    ordered = sorted(set(complex(p) for p in points),
                     key=lambda z: (z.real, z.imag))
    lines = ["re,im"]
    lines += [f"{_format_number(z.real)},{_format_number(z.imag)}"
              for z in ordered]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_oracle(run: RunConfig) -> int:
    op = load_operator(run.config_path)
    cfg = run.solver
    out_dir = _prepare_out_dir(run)
    spectrum = essential_spectrum(op, cfg)

    try:
        report, points = _det_scan_report(op, spectrum, cfg)
        exit_code = EXIT_OK
    except RefusedFrozen as refusal:
        if not run.discretize:
            _write_json(out_dir / "oracle_report.json", {
                "run": _run_echo(run),
                "mode": "refused",
                "reason": str(refusal),
                "witness": refusal.witness,
                "hint": "rerun with --discretize for a finite-difference "
                        "demonstration",
                "exit_code": EXIT_REFUSED,
            })
            return EXIT_REFUSED
        report, points = _discretize_report(op, spectrum, cfg)
        report["refused_frozen"] = {
            "reason": str(refusal),
            "witness": refusal.witness,
        }
        exit_code = EXIT_OK

    report["run"] = _run_echo(run)
    report["spectrum_points"] = {
        "regular": len(spectrum.regular),
        "singular": len(spectrum.singular),
    }
    _write_point_csv(out_dir / "oracle_points.csv", points)
    _write_json(out_dir / "oracle_report.json", report)
    return exit_code


# ---------------------------------------------------------------------------
# print-schur
# ---------------------------------------------------------------------------

def cmd_print_schur(run: RunConfig) -> int:
    op = load_operator(run.config_path)
    trees = coefficient_trees(op, run.solver)
    lines = [f"order: {op.m}"]
    lines += [f"p_{j} = {to_text(tree)}" for j, tree in enumerate(trees)]
    lines.append(f"decoupling = {to_text(simplify(delta(op)))}")
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

def _polyline_runs(points: list[complex], jump: float) -> list[list[complex]]:
    """Split an ordered point sequence where consecutive values jump."""
    runs: list[list[complex]] = []
    current: list[complex] = []
    previous: complex | None = None
    for value in points:
        if previous is not None and abs(value - previous) > jump:
            runs.append(current)
            current = []
        current.append(value)
        previous = value
    if current:
        runs.append(current)
    return runs


def render_svg(spectrum: SpectrumSet, window, *,
               width: float = 800.0, height: float = 600.0) -> str:
    """Plot the spectrum: regular part in red, singular branches in blue."""
    re_min, re_max, im_min, im_max = (float(v) for v in window)
    margin = 50.0
    plot_w = width - 2.0 * margin
    plot_h = height - 2.0 * margin

    def sx(re: float) -> float:
        return margin + (re - re_min) / (re_max - re_min) * plot_w

    def sy(im: float) -> float:
        return margin + (im_max - im) / (im_max - im_min) * plot_h

    def pts(values: list[complex]) -> str:
        return " ".join(f"{sx(v.real):.2f},{sy(v.imag):.2f}" for v in values)

    jump = 0.04 * math.hypot(re_max - re_min, im_max - im_min)
    body: list[str] = []

    body.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">')
    body.append(
        "<style>"
        "polyline{fill:none;stroke-width:1.6}"
        ".regular{stroke:#c0392b}.singular{stroke:#2471a3}"
        ".regular-dot{fill:#c0392b}.singular-dot{fill:#2471a3}"
        ".frame{fill:none;stroke:#555;stroke-width:1}"
        ".axis{stroke:#aaa;stroke-width:0.75;stroke-dasharray:4 3}"
        "text{font:12px sans-serif;fill:#333}"
        "</style>")
    body.append(
        f'<clipPath id="plot"><rect x="{margin:g}" y="{margin:g}" '
        f'width="{plot_w:g}" height="{plot_h:g}"/></clipPath>')
    body.append(
        f'<rect class="frame" x="{margin:g}" y="{margin:g}" '
        f'width="{plot_w:g}" height="{plot_h:g}"/>')
    if re_min < 0.0 < re_max:
        x0 = sx(0.0)
        body.append(f'<line class="axis" x1="{x0:.2f}" y1="{margin:g}" '
                    f'x2="{x0:.2f}" y2="{height - margin:g}"/>')
    if im_min < 0.0 < im_max:
        y0 = sy(0.0)
        body.append(f'<line class="axis" x1="{margin:g}" y1="{y0:.2f}" '
                    f'x2="{width - margin:g}" y2="{y0:.2f}"/>')
    body.append(f'<text x="{margin:g}" y="{height - margin + 18:g}" '
                f'text-anchor="start">Re = {re_min:g}</text>')
    body.append(f'<text x="{width - margin:g}" y="{height - margin + 18:g}" '
                f'text-anchor="end">Re = {re_max:g}</text>')
    body.append(f'<text x="{margin - 6:g}" y="{height - margin:g}" '
                f'text-anchor="end">Im = {im_min:g}</text>')
    body.append(f'<text x="{margin - 6:g}" y="{margin + 12:g}" '
                f'text-anchor="end">Im = {im_max:g}</text>')
    body.append(f'<text x="{width - margin:g}" y="{margin - 24:g}" '
                f'text-anchor="end" fill="#c0392b">regular part</text>')
    body.append(f'<text x="{width - margin:g}" y="{margin - 8:g}" '
                f'text-anchor="end" fill="#2471a3">singular branches</text>')

    body.append('<g clip-path="url(#plot)">')

    finite_regular = [p.lam for p in sorted(
        (p for p in spectrum.regular if math.isfinite(p.x_param)),
        key=lambda p: p.x_param)]
    for run in _polyline_runs(finite_regular, jump):
        if len(run) >= 2:
            body.append(f'<polyline class="regular" points="{pts(run)}"/>')
        else:
            body.append(f'<circle class="regular-dot" cx="{sx(run[0].real):.2f}" '
                        f'cy="{sy(run[0].imag):.2f}" r="2.2"/>')
    for point in spectrum.regular:
        if not math.isfinite(point.x_param):
            body.append(f'<circle class="regular-dot" '
                        f'cx="{sx(point.lam.real):.2f}" '
                        f'cy="{sy(point.lam.imag):.2f}" r="3"/>')

    branches: dict[tuple[str, int], list] = {}
    for point in spectrum.singular:
        branches.setdefault((point.side, point.branch_id), []).append(point)
    for key in sorted(branches):
        ordered = [p.lam for p in sorted(branches[key], key=lambda p: p.xi)]
        for run in _polyline_runs(ordered, jump):
            if len(run) >= 2:
                body.append(
                    f'<polyline class="singular" points="{pts(run)}"/>')
            else:
                body.append(f'<circle class="singular-dot" '
                            f'cx="{sx(run[0].real):.2f}" '
                            f'cy="{sy(run[0].imag):.2f}" r="2.2"/>')

    body.append("</g>")
    body.append("</svg>")
    return "\n".join(body) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_HANDLERS = {
    "check": cmd_check,
    "spectrum": cmd_spectrum,
    "oracle": cmd_oracle,
    "print-schur": cmd_print_schur,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = _run_from_args(args)
        return _HANDLERS[run.command](run)
    except StructureError as exc:
        print(f"error: operator structure: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except (ConfigError, ParseError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except OSError as exc:
        print(f"error: I/O: {exc}", file=sys.stderr)
        return EXIT_IO
    except RefusedFrozen as exc:
        print(f"error: frozen limits refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except MatspectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
