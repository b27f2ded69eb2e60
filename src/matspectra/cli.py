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
``print-schur``  print the reduced scalar symbol in the lambda-free form
                 the solver reads: d, every non-zero alpha_j and
                 beta_j,q, and the decoupling function.

Exit codes: 0 success, 1 failed checks, 2 malformed operator or config,
3 I/O failure, 4 limit hypothesis failed at every probe (no ``--force``),
5 frozen limits refused (no ``--discretize``).

Everything runs on one thread, and identical inputs produce byte-identical
CSV and SVG output.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oracle
from .asymptotics import check_assumptions, symbol_rows
from .config import SolverConfig, parse_complex
from .errors import (ConfigError, MatspectraError, ParseError, RefusedFrozen,
                     StructureError)
from .expr import to_text
from .model import (Diagnostics, OperatorMatrix, delta, load_operator,
                    validate, validation_grid)
from .oracle import det_scan, discretize_and_eig, freeze
from .schur import SchurSymbol, build_schur
from .spectrum import (REGULAR_SIDE, SIDES, SpectrumSet, _near_window,
                       default_xi_grid, essential_spectrum, write_csv)

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
        if not self.probes:
            raise ConfigError("probe list must not be empty")
        if not all(map(cmath.isfinite, self.probes)):
            raise ConfigError(f"probes must be finite, got {self.probes}")


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    caller, so callers parse with it and never change it."""
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
    probes = (DEFAULT_PROBES if args.probes is None
              else _parse_probes(args.probes))
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
    """Leading-coefficient record plus per-probe hypothesis records, in order.

    Also returns the Schur symbol the checks built, for reuse.
    """
    cfg = run.solver
    grid = validation_grid(cfg)
    leading = validate(op, grid).records
    symbol = build_schur(op)
    checked = check_assumptions(op, symbol, run.probes, grid).records
    return [*leading, *checked], symbol


def _one_sided_distance(source, target) -> float | None:
    """sup over source of the distance to target; None when undefined."""
    if not len(source):
        return 0.0
    if not len(target):
        return None
    # Only the oracle comes here; importing scipy.spatial at module level
    # would more than double the start-up time of every other subcommand.
    from scipy.spatial import cKDTree
    src = np.asarray(source, dtype=np.complex128)
    tgt = np.asarray(target, dtype=np.complex128)
    tree = cKDTree(np.column_stack([tgt.real, tgt.imag]))
    gaps, _ = tree.query(np.column_stack([src.real, src.imag]), k=1)
    return float(np.max(gaps))


def _in_window(lam: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    return lam[_near_window(lam, cfg.window, 0.0)]


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
        svg_path.write_text(render_svg(spectrum, cfg.window),
                            encoding="utf-8")
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
    frozen = {side: freeze(op, side) for side in sides}

    singular = spectrum.singular
    side_reports = {}
    all_roots: list[complex] = []
    for side in sides:
        mine = np.isin(singular.side, [SIDES.index(side),
                                       SIDES.index(REGULAR_SIDE)])
        xi_values = np.unique(singular.xi[mine])
        if not xi_values.size:
            xi_values = default_xi_grid(cfg)
        scan = det_scan(frozen[side], xi_values)
        roots = _in_window(np.array([point.roots for point in scan]).ravel(),
                           cfg)
        spectrum_lams = _in_window(singular.lam[mine], cfg)
        all_roots.extend(roots.tolist())
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
    regular = _in_window(spectrum.regular.lam, cfg)
    singular = _in_window(spectrum.singular.lam, cfg)
    predicted = np.concatenate([regular, singular])
    sweep = []
    last_cloud: list[complex] = []
    for length in _TRUNCATION_LENGTHS:
        n_points = min(int(2 * length * length), oracle.EIG_BUDGET)
        eig = discretize_and_eig(op, length, n_points,
                                 bc="dirichlet_truncate")
        cloud = _in_window(np.asarray(eig, dtype=complex), cfg).tolist()
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
    lines += [f"{z.real!r},{z.imag!r}" for z in ordered]
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
    """Print the symbol's x-only trees under the labels the tail ledger
    and ``spectrum_report.json`` give them."""
    op = load_operator(run.config_path)
    lines = [f"order: {op.m}",
             "p_j = alpha_j - [j = 0] lambda + sum_q beta_j,q u^q, "
             "u = 1/(d - lambda); a tree not listed is 0"]
    lines += [f"{label} = {to_text(tree)}"
              for label, _, _, tree in symbol_rows(build_schur(op))[0]]
    lines.append(f"decoupling = {to_text(delta(op))}")
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

SVG_SIZE = (800.0, 600.0)
"""Width and height of the rendered SVG, in user units."""


def _dot_shown(sx: np.ndarray, sy: np.ndarray, radius: float,
               clip: tuple[float, float, float, float]) -> np.ndarray:
    """Whether a dot of ``radius`` centred at screen (sx, sy) may reach into
    the ``clip`` rectangle (left, top, right, bottom), its centre rounded
    to the two decimals it is written with. A dot that cannot is wholly
    clipped, so leaving it out leaves the image unchanged; a NaN centre
    counts as shown."""
    left, top, right, bottom = clip
    pad = radius + 0.01
    return ~((sx < left - pad) | (sx > right + pad)
             | (sy < top - pad) | (sy > bottom + pad))


def _xy(sx: np.ndarray, sy: np.ndarray) -> list[str]:
    """Screen coordinates as "x,y", to two decimals. One ``%.2f`` template
    formats every point; it converts each number as ``f"{x:.2f}"`` does, so
    the text is that of one f-string a point."""
    flat = np.column_stack((sx, sy)).ravel().tolist()
    return (("%.2f,%.2f\n" * sx.size) % tuple(flat)).split("\n")[:-1]


def render_svg(spectrum: SpectrumSet, window) -> str:
    """Plot the spectrum: regular part in red, singular branches in blue,
    each point at its screen coordinates to two decimals (:func:`_xy`)."""
    width, height = SVG_SIZE
    re_min, re_max, im_min, im_max = (float(v) for v in window)
    margin = 50.0
    plot_w = width - 2.0 * margin
    plot_h = height - 2.0 * margin
    jump = 0.04 * math.hypot(re_max - re_min, im_max - im_min)
    clip = (margin, margin, width - margin, height - margin)

    def screen(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Screen coordinates of each value."""
        return (margin + (lam.real - re_min) / (re_max - re_min) * plot_w,
                margin + (im_max - lam.imag) / (im_max - im_min) * plot_h)

    def dot(kind: str, at: str, radius: float) -> str:
        x, y = at.split(",")
        return f'<circle class="{kind}-dot" cx="{x}" cy="{y}" r="{radius:g}"/>'

    def runs(kind: str, lam: np.ndarray, cut: np.ndarray) -> list[str]:
        """A polyline per run of ``lam`` between cuts and jumps, a dot per
        single point that the clip does not hide whole; ``cut[k]`` cuts
        before point k + 1."""
        if not lam.size:
            return []
        gap = np.diff(lam)
        first = np.flatnonzero(np.concatenate(
            ([True], cut | (np.hypot(gap.real, gap.imag) > jump))))
        size = np.diff(first, append=lam.size)
        sx, sy = screen(lam)
        keep = (size > 1) | _dot_shown(sx[first], sy[first], 2.2, clip)
        out = []
        for a, n in zip(first[keep].tolist(), size[keep].tolist()):
            coords = _xy(sx[a:a + n], sy[a:a + n])
            out.append(dot(kind, coords[0], 2.2) if n == 1 else
                       f'<polyline class="{kind}" '
                       f'points="{" ".join(coords)}"/>')
        return out

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
    x0, y0 = _xy(*screen(np.zeros(1, dtype=complex)))[0].split(",")
    if re_min < 0.0 < re_max:
        body.append(f'<line class="axis" x1="{x0}" y1="{margin:g}" '
                    f'x2="{x0}" y2="{height - margin:g}"/>')
    if im_min < 0.0 < im_max:
        body.append(f'<line class="axis" x1="{margin:g}" y1="{y0}" '
                    f'x2="{width - margin:g}" y2="{y0}"/>')
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

    regular = spectrum.regular
    finite = np.isfinite(regular.x_param)
    curve = regular.lam[finite][np.argsort(regular.x_param[finite],
                                           kind="stable")]
    body += runs("regular", curve, np.zeros(max(curve.size - 1, 0), bool))
    sx, sy = screen(regular.lam[~finite])
    shown = _dot_shown(sx, sy, 3.0, clip)
    body += [dot("regular", at, 3.0) for at in _xy(sx[shown], sy[shown])]

    # Branches by (side, branch id), each by ascending xi; the side codes
    # order the sides as their tokens do.
    singular = spectrum.singular
    order = np.lexsort((singular.xi, singular.branch_id, singular.side))
    side, branch = singular.side[order], singular.branch_id[order]
    body += runs("singular", singular.lam[order],
                 (np.diff(side) != 0) | (np.diff(branch) != 0))

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
