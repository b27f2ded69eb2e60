"""matspectra: essential spectra of 2x2 matrix differential operators.

The package computes the essential spectrum of a 2x2 matrix ordinary
differential operator on the real line whose top-left entry has the highest
derivative order. The spectrum splits into a regular part (the closure of the
range of a scalar "decoupling" function) and a singular part (parameter values
where a frozen-coefficient tail polynomial acquires a real root), and both are
produced as column tables of points for CSV export and plotting.
"""

from .asymptotics import (
    Certificate,
    ExceptionalSet,
    check_assumptions,
    limit_of,
    limit_points_at_infinity,
    limit_ratio,
    limit_ratio_batch,
    symbol_limits,
)
from .config import SolverConfig, parse_complex, window_contains
from .errors import (
    ConfigError,
    DomainError,
    FitError,
    LimitRefused,
    MatspectraError,
    NotConvergent,
    ParseError,
    PoleError,
    RefusedFrozen,
    SizeError,
    StructureError,
)
from .expr import (
    Expr,
    differentiate,
    evaluate,
    evaluate_array,
    parse,
    simplify,
    to_text,
)
from .model import (
    DiagnosticRecord,
    Diagnostics,
    OperatorMatrix,
    delta,
    load_operator,
    parse_operator_text,
    validate,
    validation_grid,
)
from .schur import SchurSymbol, build_schur
from .oracle import (
    DetScanPoint,
    FrozenSymbol,
    det_scan,
    discretize_and_eig,
    freeze,
    periodic_symbol_eigenvalues,
)
from .spectrum import (
    CSV_HEADER,
    FLAGS,
    SIDES,
    RationalProfile,
    RegularPoint,
    RegularTable,
    SingularPoint,
    SingularTable,
    SpectrumSet,
    default_xi_grid,
    essential_spectrum,
    regular_part,
    singular_part,
    spectrum_rows,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "SolverConfig",
    "parse_complex",
    "window_contains",
    "MatspectraError",
    "ParseError",
    "PoleError",
    "DomainError",
    "StructureError",
    "NotConvergent",
    "FitError",
    "LimitRefused",
    "RefusedFrozen",
    "SizeError",
    "ConfigError",
    "Expr",
    "parse",
    "to_text",
    "evaluate",
    "evaluate_array",
    "differentiate",
    "simplify",
    "OperatorMatrix",
    "DiagnosticRecord",
    "Diagnostics",
    "validate",
    "validation_grid",
    "delta",
    "load_operator",
    "parse_operator_text",
    "SchurSymbol",
    "build_schur",
    "Certificate",
    "ExceptionalSet",
    "limit_of",
    "limit_ratio",
    "limit_ratio_batch",
    "symbol_limits",
    "limit_points_at_infinity",
    "check_assumptions",
    "FrozenSymbol",
    "DetScanPoint",
    "freeze",
    "det_scan",
    "discretize_and_eig",
    "periodic_symbol_eigenvalues",
    "SpectrumSet",
    "RegularTable",
    "SingularTable",
    "RegularPoint",
    "SingularPoint",
    "SIDES",
    "FLAGS",
    "RationalProfile",
    "regular_part",
    "singular_part",
    "essential_spectrum",
    "default_xi_grid",
    "spectrum_rows",
    "write_csv",
    "CSV_HEADER",
    "__version__",
]
