"""Command-line interface: subcommands, exit codes, file outputs."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from factories import PARABOLIC_CFG, QUARTIC_CFG
from matspectra.cli import (
    DEFAULT_PROBES,
    EXIT_ASSUMPTION_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_STRUCTURE,
    RunConfig,
    _parse_probes,
    _parse_window,
    build_parser,
    cmd_oracle,
    cmd_print_schur,
    cmd_spectrum,
    main,
    render_svg,
)
from matspectra import oracle as oracle_module
from matspectra.asymptotics import symbol_rows
from matspectra.config import SolverConfig
from matspectra.errors import ConfigError
from matspectra.expr import mentions, simplify, to_text
from matspectra.model import load_operator, validation_grid
from matspectra.schur import build_schur
from matspectra.spectrum import (
    CSV_HEADER,
    RegularPoint,
    RegularTable,
    SingularPoint,
    SingularTable,
    SpectrumSet,
    essential_spectrum,
)
from matspectra.asymptotics import ExceptionalSet

QUICK_QUARTIC = SolverConfig().with_overrides(
    xi_points=40, xi_max=2.0, curve_res=0.02, grid_points=512)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

QUICK_PARABOLIC = SolverConfig().with_overrides(
    xi_points=60, curve_res=0.05, grid_points=512,
    window=(-10.0, 10.0, -5.0, 5.0))


def make_run(command, config_path, out_dir, solver, **kw) -> RunConfig:
    return RunConfig(command=command, config_path=config_path,
                     out_dir=out_dir, solver=solver, **kw)


def write_config(tmp_path, text):
    path = tmp_path / "operator.cfg"
    path.write_text(text, encoding="utf-8")
    return path


SIN_COEFF_CFG = """
m = 2
n = 1
k = 1
a0 = sin(x)
a1 = 0
a2 = 1
b0 = 0
b1 = -i
c0 = 0
c1 = i
d = 0
"""


class TestArgumentParsing:
    def test_window_parses_four_floats(self):
        assert _parse_window("-1,2,-3.5,4") == (-1.0, 2.0, -3.5, 4.0)

    def test_window_rejects_bad_text(self):
        with pytest.raises(ConfigError):
            _parse_window("-1,2,-3")
        with pytest.raises(ConfigError):
            _parse_window("a,b,c,d")

    def test_probes_parse_i_notation(self):
        assert _parse_probes("1+2i,-3i,0.5") == (1 + 2j, -3j, 0.5 + 0j)

    def test_probes_reject_garbage(self):
        with pytest.raises(ConfigError):
            _parse_probes("1+2q")

    def test_run_config_rejects_degenerate_window(self, tmp_path):
        with pytest.raises(ConfigError, match="non-degenerate"):
            solver = SolverConfig().with_overrides(
                window=(1.0, 1.0, -1.0, 1.0))
            make_run("check", QUARTIC_CFG, tmp_path, solver)

    def test_run_config_rejects_nonpositive_tolerance(self, tmp_path):
        with pytest.raises(ConfigError, match="positive"):
            solver = SolverConfig().with_overrides(curve_res=0.0)
            make_run("check", QUARTIC_CFG, tmp_path, solver)

    @pytest.mark.parametrize("name", ["curve_res"])
    def test_run_config_rejects_nan_tolerance(self, tmp_path, name):
        with pytest.raises(ConfigError, match=f"{name} must be positive"):
            solver = SolverConfig().with_overrides(**{name: np.nan})
            make_run("spectrum", QUARTIC_CFG, tmp_path, solver)

    @pytest.mark.parametrize("count", [1, 0, -3])
    def test_solver_config_rejects_a_grid_of_fewer_than_two_points(self,
                                                                   count):
        # validation_grid spaces its core by count - 1: at 1 it put NaN in
        # the grid.
        with pytest.raises(ConfigError,
                           match="grid_points must be at least 2"):
            SolverConfig(grid_points=count)
        assert np.isfinite(validation_grid(SolverConfig(grid_points=2))).all()

    @pytest.mark.parametrize("xi_max", [0.0, -1.0, np.inf, np.nan])
    def test_solver_config_rejects_an_unusable_frequency_span(self, xi_max):
        # 0 and -1 failed in math.log10 of default_xi_grid; inf and NaN put
        # non-finite frequencies into the grid.
        with pytest.raises(ConfigError,
                           match="xi_max must be finite and positive"):
            SolverConfig().with_overrides(xi_max=xi_max)

    def test_solver_config_rejects_a_negative_frequency_count(self):
        with pytest.raises(ConfigError,
                           match="xi_points must be non-negative"):
            SolverConfig().with_overrides(xi_points=-2)
        assert SolverConfig(xi_points=0).xi_points == 0

    def test_unknown_solver_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            SolverConfig().with_overrides(bogus=1)

    def test_run_config_rejects_empty_probes(self, tmp_path):
        with pytest.raises(ConfigError, match="probe"):
            make_run("check", QUARTIC_CFG, tmp_path, SolverConfig(),
                     probes=())

    @pytest.mark.parametrize("window", [(-np.inf, 1.0, -1.0, 1.0),
                                        (-1.0, 1.0, -1.0, np.nan)])
    def test_run_config_rejects_nonfinite_window(self, tmp_path, window):
        with pytest.raises(ConfigError, match="window bounds must be finite"):
            solver = SolverConfig().with_overrides(window=window)
            make_run("spectrum", PARABOLIC_CFG, tmp_path, solver)

    @pytest.mark.parametrize("probe", [complex(np.nan, 0.0),
                                       complex(1.0, np.inf)])
    def test_run_config_rejects_nonfinite_probes(self, tmp_path, probe):
        with pytest.raises(ConfigError, match="probes must be finite"):
            make_run("check", QUARTIC_CFG, tmp_path, SolverConfig(),
                     probes=(1 + 1j, probe))


class TestExitCodes:
    def test_check_passes_on_bundled_config(self, tmp_path):
        code = main(["check", "--config", str(QUARTIC_CFG),
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "check_report.json").read_text())
        assert report["ok"] is True
        assert report["failures"] == 0
        assert {rec["assumption"] for rec in report["records"]} \
            == {"A", "B1", "B2", "B3", "C", "D"}

    def test_inconsistent_orders_exit_structure(self, tmp_path):
        bad = write_config(tmp_path, "m = 3\nn = 1\nk = 1\n"
                           "a0 = 0\na1 = 0\na2 = 0\na3 = 1\n"
                           "b0 = 0\nb1 = 1\nc0 = 0\nc1 = 1\nd = 0\n")
        code = main(["check", "--config", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_STRUCTURE

    def test_missing_config_exit_io(self, tmp_path):
        code = main(["check", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path)])
        assert code == EXIT_IO

    def test_bad_window_flag_exit_structure(self, tmp_path):
        code = main(["check", "--config", str(QUARTIC_CFG),
                     "--out", str(tmp_path), "--window", "1,2,3"])
        assert code == EXIT_STRUCTURE

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # Built once per process, it parses each argv afresh, after a
        # refused one too.
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit):
            main(["check"])
        assert "--config" in capsys.readouterr().err
        assert main(["print-schur", "--config", str(PARABOLIC_CFG),
                     "--out", str(tmp_path)]) == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--config", str(PARABOLIC_CFG), "--window=-inf,1,-1,1",
         "--svg"],
        ["check", "--config", str(QUARTIC_CFG), "--probes=nan,1e400"],
    ], ids=["window", "probes"])
    def test_nonfinite_flags_exit_structure(self, argv, tmp_path, capsys):
        code = main([*argv, "--out", str(tmp_path)])
        assert code == EXIT_STRUCTURE
        assert "must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["check", "--config", str(QUARTIC_CFG)],
        ["spectrum", "--config", str(PARABOLIC_CFG), "--window=-2,1,-0.5,0.5"],
    ], ids=["check", "spectrum"])
    def test_empty_probe_list_exits_structure(self, argv, tmp_path, capsys):
        # An empty --probes= is a bad probe, as an empty --window= is a bad
        # window; it must not fall back to the default probes.
        code = main([*argv, "--probes=", "--out", str(tmp_path)])
        assert code == EXIT_STRUCTURE
        assert "bad probe ''" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["check", "spectrum", "print-schur"])
    def test_lambda_in_config_exits_structure(self, command, tmp_path,
                                              capsys):
        bad = write_config(tmp_path, PARABOLIC_CFG.read_text().replace(
            "d = -x^2", "d = x + lambda"))
        code = main([command, "--config", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_STRUCTURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "key 'd'" in captured.err and "lambda" in captured.err
        assert not (tmp_path / "check_report.json").exists()

    def test_nonconvergent_limits_gate_spectrum(self, tmp_path):
        cfg_path = write_config(tmp_path, SIN_COEFF_CFG)
        solver = SolverConfig().with_overrides(grid_points=256)
        run = make_run("spectrum", cfg_path, tmp_path, solver)
        assert cmd_spectrum(run) == EXIT_ASSUMPTION_FAILED
        report = json.loads((tmp_path / "spectrum_report.json").read_text())
        assert report["status"] == "refused"
        assert report["exit_code"] == EXIT_ASSUMPTION_FAILED
        assert not (tmp_path / "spectrum.csv").exists()

    def test_force_produces_partial_spectrum(self, tmp_path):
        cfg_path = write_config(tmp_path, SIN_COEFF_CFG)
        solver = SolverConfig().with_overrides(grid_points=256, xi_points=8)
        run = make_run("spectrum", cfg_path, tmp_path, solver, force=True)
        assert cmd_spectrum(run) == EXIT_OK
        report = json.loads((tmp_path / "spectrum_report.json").read_text())
        assert report["status"] == "forced"
        assert report["warnings"]
        assert report["spectrum"]["errors"]
        assert report["points"]["singular"] == 0
        assert report["points"]["regular"] > 0
        assert (tmp_path / "spectrum.csv").exists()

    def test_refused_frozen_without_discretize(self, tmp_path):
        run = make_run("oracle", PARABOLIC_CFG, tmp_path, QUICK_PARABOLIC)
        assert cmd_oracle(run) == EXIT_REFUSED
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["mode"] == "refused"
        assert report["witness"]["coefficient"] == "d"
        assert not (tmp_path / "oracle_points.csv").exists()


@pytest.fixture(scope="module")
def spectrum_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("spectrum")
    run = make_run("spectrum", QUARTIC_CFG, out, QUICK_QUARTIC, svg=True)
    code = cmd_spectrum(run)
    return code, out


class TestSpectrumCommand:
    def test_exit_ok_and_files_exist(self, spectrum_out):
        code, out = spectrum_out
        assert code == EXIT_OK
        for name in ("spectrum.csv", "spectrum_report.json", "spectrum.svg"):
            assert (out / name).exists()

    def test_csv_schema_and_row_count(self, spectrum_out):
        _, out = spectrum_out
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        report = json.loads((out / "spectrum_report.json").read_text())
        expected = report["points"]["regular"] + report["points"]["singular"]
        assert len(lines) == 1 + expected

    def test_svg_has_both_curve_families(self, spectrum_out):
        _, out = spectrum_out
        svg = (out / "spectrum.svg").read_text()
        assert svg.count('<polyline class="regular"') >= 1
        assert svg.count('<polyline class="singular"') >= 2
        assert "clipPath" in svg

    def test_reruns_are_byte_identical(self, spectrum_out, tmp_path):
        _, out = spectrum_out
        run = make_run("spectrum", QUARTIC_CFG, tmp_path, QUICK_QUARTIC,
                       svg=True)
        assert cmd_spectrum(run) == EXIT_OK
        assert (tmp_path / "spectrum.csv").read_bytes() \
            == (out / "spectrum.csv").read_bytes()
        assert (tmp_path / "spectrum.svg").read_bytes() \
            == (out / "spectrum.svg").read_bytes()


class TestOracleCommand:
    def test_quartic_det_scan_agreement(self, tmp_path):
        run = make_run("oracle", QUARTIC_CFG, tmp_path, QUICK_QUARTIC)
        assert cmd_oracle(run) == EXIT_OK
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["mode"] == "det_scan"
        for side in ("+", "-"):
            entry = report["sides"][side]
            assert entry["spectrum_points"] > 0
            assert entry["spectrum_to_oracle"] <= 1e-6
        lines = (tmp_path / "oracle_points.csv").read_text().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) > 1
        for line in lines[1:]:
            re_part, im_part = line.split(",")
            float(re_part), float(im_part)

    def test_parabolic_discretize_demonstration(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oracle_module, "EIG_BUDGET", 200)
        run = make_run("oracle", PARABOLIC_CFG, tmp_path, QUICK_PARABOLIC,
                       discretize=True)
        assert cmd_oracle(run) == EXIT_OK
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["mode"] == "discretize"
        assert report["boundary_condition"] == "dirichlet_truncate"
        assert report["refused_frozen"]["witness"]["coefficient"] == "d"
        assert len(report["sweep"]) == 3
        for entry in report["sweep"]:
            assert entry["n_points"] <= 200
            assert entry["eigenvalues"] == 2 * entry["n_points"]
            assert entry["singular_to_cloud"] is not None
        assert isinstance(
            report["singular_to_cloud_monotone_decreasing"], bool)
        assert "expected behavior" in report["expected_behavior"]
        assert (tmp_path / "oracle_points.csv").exists()


class TestPrintSchur:
    def test_prints_symbol_and_decoupling(self, tmp_path, capsys):
        run = make_run("print-schur", PARABOLIC_CFG, tmp_path,
                       SolverConfig())
        assert cmd_print_schur(run) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "order: 2",
            "p_j = alpha_j - [j = 0] lambda + sum_q beta_j,q u^q, "
            "u = 1/(d - lambda); a tree not listed is 0",
            "d = -x^2",
            "beta_1,2 = 2.0*i*x",
            "alpha_2 = 1.0",
            "beta_2,1 = -1.0",
            "decoupling = -(x^2 + 1.0)",
        ]

    def test_prints_every_tree_the_spectrum_certifies(self, spectrum_out,
                                                       capsys):
        # Each limit of the quartic's closed-form fit, where d settles on
        # both sides, is named in print-schur with the tree it certifies.
        _, out = spectrum_out
        report = json.loads((out / "spectrum_report.json").read_text())
        run = make_run("print-schur", QUARTIC_CFG, out, SolverConfig())
        assert cmd_print_schur(run) == EXIT_OK
        lines = set(capsys.readouterr().out.splitlines())
        trees = {label: tree for label, _, _, tree
                 in symbol_rows(build_schur(load_operator(QUARTIC_CFG)))[0]}
        for side in "+-":
            fit = report["spectrum"]["singular"]["fits"][side]
            assert fit["route"] == "closed_form"
            labels = [limit["label"] for limit in fit["limits"]]
            assert labels[0] == "d" and len(labels) > 1
            for label in labels:
                assert f"{label} = {to_text(trees[label])}" in lines

    @pytest.mark.parametrize("config_path", [PARABOLIC_CFG, QUARTIC_CFG])
    def test_output_matches_golden_bytes(self, config_path, tmp_path, capsys):
        """The goldens hold the lambda-free symbol, d, alpha_j and beta_j,q,
        the trees the solver reads; they were re-recorded when print-schur
        stopped composing the trees p_j in x and lambda, which no solver
        path evaluates."""
        golden = GOLDEN_DIR / f"print_schur_{config_path.stem}.txt"
        run = make_run("print-schur", config_path, tmp_path, SolverConfig())
        assert cmd_print_schur(run) == EXIT_OK
        assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_check_and_spectrum_build_no_lambda_tree(monkeypatch, tmp_path):
    """``check``, ``essential_spectrum``, ``print-schur`` and ``oracle``
    never compose a tree in lambda.

    ``simplify`` is replaced wherever a module of the package holds it, so
    a call through any import counts.
    """
    simplified = []

    def recording(tree, *args, **kwargs):
        simplified.append(tree)
        return simplify(tree, *args, **kwargs)

    for module in [m for key, m in sys.modules.items()
                   if key.split(".")[0] == "matspectra"]:
        if getattr(module, "simplify", None) is simplify:
            monkeypatch.setattr(module, "simplify", recording)

    assert main(["check", "--config", str(QUARTIC_CFG),
                 "--out", str(tmp_path)]) == EXIT_OK
    essential_spectrum(load_operator(QUARTIC_CFG), QUICK_QUARTIC)
    assert cmd_print_schur(make_run("print-schur", QUARTIC_CFG, tmp_path,
                                    SolverConfig())) == EXIT_OK
    assert cmd_oracle(make_run("oracle", QUARTIC_CFG, tmp_path,
                               QUICK_QUARTIC)) == EXIT_OK
    assert simplified
    assert not any(mentions(tree, "lambda") for tree in simplified)


NO_SCIPY_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from matspectra.cli import main
parabolic, quartic, out = sys.argv[2:]
codes = [
    main(["spectrum", "--config", parabolic, "--window=-2,1,-0.5,0.5",
          "--svg", "--out", out]),
    main(["check", "--config", quartic, "--probes=1.7+2.3i,-2.6+1.1i",
          "--out", out]),
]
print(codes, sorted(name for name in sys.modules
                    if name.split(".")[0] == "scipy"))
"""


def test_spectrum_and_check_never_import_scipy(tmp_path):
    """Only ``oracle`` needs SciPy, whose import would take most of the
    start-up of every other subcommand; a fresh interpreter shows it."""
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(src), str(PARABOLIC_CFG),
         str(QUARTIC_CFG), str(tmp_path)],
        capture_output=True, text=True, timeout=300, check=True)
    assert run.stdout.splitlines()[-1] == "[0, 0] []"
    assert (tmp_path / "spectrum.svg").is_file()
    assert (tmp_path / "check_report.json").is_file()


class TestSvgRendering:
    def make_spectrum(self):
        regular = RegularTable.from_rows([
            RegularPoint(x_param=float("-inf"), lam=-1 + 0j),
            RegularPoint(x_param=-1.0, lam=-2 + 0j),
            RegularPoint(x_param=0.0, lam=-1.8 + 0.2j),
            RegularPoint(x_param=1.0, lam=-1.6 + 0.4j),
        ])
        singular = SingularTable.from_rows([
            SingularPoint(side="·", xi=0.0, lam=1 + 1j, branch_id=0),
            SingularPoint(side="·", xi=1.0, lam=1.5 + 1j, branch_id=0),
            SingularPoint(side="+", xi=0.0, lam=2 - 1j, branch_id=1),
            SingularPoint(side="+", xi=1.0, lam=2.5 - 1j, branch_id=1),
            SingularPoint(side="-", xi=2.0, lam=-3 - 2j, branch_id=2),
        ])
        exceptional = ExceptionalSet(
            points=(), radii=(), window_exponents=(),
            sources={"+": "escapes", "-": "escapes"})
        return SpectrumSet(regular=regular, singular=singular,
                           exceptional=exceptional, report={})

    def test_polyline_and_marker_counts(self):
        svg = render_svg(self.make_spectrum(), (-5.0, 5.0, -5.0, 5.0))
        assert svg.count('<polyline class="regular"') == 1
        assert svg.count('<polyline class="singular"') == 2
        # one endpoint-limit marker plus one singleton singular branch
        assert svg.count('<circle class="regular-dot"') == 1
        assert svg.count('<circle class="singular-dot"') == 1

    def test_frame_axes_and_labels(self):
        svg = render_svg(self.make_spectrum(), (-5.0, 5.0, -2.0, 8.0))
        assert '<rect class="frame"' in svg
        assert svg.count('<line class="axis"') == 2
        assert "Re = -5" in svg and "Re = 5" in svg
        assert "Im = -2" in svg and "Im = 8" in svg

    def test_deterministic_output(self):
        window = (-4.0, 4.0, -3.0, 3.0)
        assert render_svg(self.make_spectrum(), window) \
            == render_svg(self.make_spectrum(), window)

    def test_far_points_split_into_runs(self):
        regular = RegularTable.from_rows([
            *(RegularPoint(x_param=float(i), lam=complex(i, 0))
              for i in range(3)),
            *(RegularPoint(x_param=10.0 + i, lam=complex(100 + i, 0))
              for i in range(3)),
        ])
        exceptional = ExceptionalSet(
            points=(), radii=(), window_exponents=(),
            sources={"+": "escapes", "-": "escapes"})
        spectrum = SpectrumSet(regular=regular,
                               singular=SingularTable.from_rows([]),
                               exceptional=exceptional, report={})
        svg = render_svg(spectrum, (-1.0, 110.0, -1.0, 1.0))
        assert svg.count('<polyline class="regular"') == 2


def test_spectrum_command_builds_no_point_rows(tmp_path, monkeypatch):
    built = []
    for cls in (RegularPoint, SingularPoint):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    assert main(["spectrum", "--config", str(PARABOLIC_CFG),
                 "--window=-2,1,-0.5,0.5", "--svg",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "spectrum.svg").is_file()
    assert built == []
    # Rows are still built on demand, and counted.
    spectrum = essential_spectrum(load_operator(PARABOLIC_CFG),
                                  QUICK_PARABOLIC)
    assert spectrum.regular[0] == next(iter(spectrum.regular))
    assert list(spectrum.singular)[-1] == spectrum.singular[-1]
    assert built.count("RegularPoint") == 2
    assert built.count("SingularPoint") == len(spectrum.singular) + 1


class TestDeterminism:
    def test_identical_config_and_seed_byte_identical_csv(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = main(["spectrum", "--config", str(PARABOLIC_CFG),
                         "--out", str(out), "--svg",
                         "--window=-10,10,-5,5"])
            assert code == EXIT_OK
        for name in ("spectrum.csv", "spectrum.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
