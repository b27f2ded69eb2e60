"""Operator container: a 2x2 matrix differential operator on the line.

The operator acts on pairs (u, v) as

    (sum_j a_j D^j) u + (sum_j b_j D^j) v
    (sum_j c_j D^j) u + d v

with the momentum convention D = -i d/dx. Orders are read off the
coefficient list lengths: m = len(a)-1, n = len(b)-1, k = len(c)-1, and an
operator can only be made with m = n + k and m even and positive.

This module also exposes the scalar decoupling function
``delta = d - b_n c_k / a_m`` (whose range closure is the regular part of
the essential spectrum), the shared diagnostics record type, and the
operator config-file loader.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SolverConfig
from .errors import ConfigError, StructureError
from .expr import Expr, evaluate_array, mentions, parse, simplify

A_NONZERO_TOL = 1e-12

X_SPAN = 50.0
"""Half-width of the validation grid's core and of the regular part's
first samples."""


@dataclass(frozen=True)
class OperatorMatrix:
    """Immutable coefficient container; orders derive from list lengths and
    must satisfy m = n + k with m even and positive (else StructureError)."""

    a: tuple[Expr, ...]
    b: tuple[Expr, ...]
    c: tuple[Expr, ...]
    d: Expr

    def __post_init__(self):
        if self.m != self.n + self.k:
            raise StructureError(
                f"top-left order m={self.m} must equal n+k={self.n + self.k}")
        if self.m % 2 != 0:
            raise StructureError(f"top-left order m={self.m} must be even")
        if self.m == 0:
            raise StructureError("top-left order m=0 must be positive")

    @property
    def m(self) -> int:
        return len(self.a) - 1

    @property
    def n(self) -> int:
        return len(self.b) - 1

    @property
    def k(self) -> int:
        return len(self.c) - 1


@dataclass(frozen=True)
class DiagnosticRecord:
    """One sampled check: assumption id, status, and supporting evidence.

    ``witness`` is a (label, location, measured) triple present on every
    fail or inconclusive record. ``theta``/``delta_margin`` are populated
    only by the sector condition (assumption C).
    """

    assumption: str
    status: str
    probe: complex | None = None
    witness: tuple | None = None
    theta: float | None = None
    delta_margin: float | None = None

    def __post_init__(self):
        if self.assumption not in ("A", "B1", "B2", "B3", "C", "D"):
            raise ValueError(f"unknown assumption id {self.assumption!r}")
        if self.status not in ("pass", "fail", "inconclusive"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status in ("fail", "inconclusive") and self.witness is None:
            raise ValueError(f"{self.status} record requires a witness")
        if self.assumption != "C" and (
            self.theta is not None or self.delta_margin is not None
        ):
            raise ValueError("theta/delta_margin only belong to C records")


@dataclass(frozen=True)
class Diagnostics:
    records: tuple[DiagnosticRecord, ...]

    def failures(self) -> tuple[DiagnosticRecord, ...]:
        return tuple(r for r in self.records if r.status == "fail")

    def ok(self) -> bool:
        """True when no record failed (inconclusive records do not count)."""
        return not self.failures()

    def to_json_dict(self) -> dict:
        def encode(rec: DiagnosticRecord) -> dict:
            out = {"assumption": rec.assumption, "status": rec.status}
            if rec.probe is not None:
                out["probe"] = [rec.probe.real, rec.probe.imag]
            if rec.witness is not None:
                label, location, measured = rec.witness
                out["witness"] = {
                    "label": label,
                    "location": _json_number(location),
                    "measured": _json_number(measured),
                }
            if rec.theta is not None:
                out["theta"] = rec.theta
            if rec.delta_margin is not None:
                out["delta_margin"] = rec.delta_margin
            return out

        return {
            "records": [encode(r) for r in self.records],
            "ok": self.ok(),
        }


def _json_number(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (int, float, np.floating)):
        return float(value)
    return value


def validate(op: OperatorMatrix, grid: np.ndarray) -> Diagnostics:
    """Sampled nonvanishing of a_m.

    The leading-coefficient record has status pass iff the sampled minimum
    of |a_m| exceeds 1e-12; non-finite samples make the check inconclusive
    at the offending point.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("validation grid must be non-empty")
    values = evaluate_array(op.a[op.m], x=grid)
    finite = np.isfinite(values)
    if not finite.all():
        where = int(np.argmin(finite))
        record = DiagnosticRecord(
            assumption="A",
            status="inconclusive",
            witness=("a_m not finite at sample", float(grid[where]), complex(values[where])),
        )
    else:
        magnitudes = np.abs(values)
        where = int(np.argmin(magnitudes))
        smallest = float(magnitudes[where])
        if smallest > A_NONZERO_TOL:
            record = DiagnosticRecord(assumption="A", status="pass")
        else:
            record = DiagnosticRecord(
                assumption="A",
                status="fail",
                witness=("|a_m| below tolerance", float(grid[where]), smallest),
            )
    return Diagnostics(records=(record,))


def delta(op: OperatorMatrix) -> Expr:
    """The decoupling function d - b_n*c_k/a_m, simplified."""
    coupling = op.b[op.n] * op.c[op.k] / op.a[op.m]
    return simplify(op.d - coupling)


def validation_grid(cfg: SolverConfig) -> np.ndarray:
    """Chebyshev-distributed core on [-X, X] plus geometric tails to 1e6."""
    count = cfg.grid_points
    angles = np.pi * np.arange(count) / (count - 1)
    core = X_SPAN * np.cos(angles)
    tail = np.logspace(np.log10(X_SPAN), 6.0, 64)[1:]
    grid = np.concatenate([core, [0.0], tail, -tail])
    return np.unique(grid)


# ---------------------------------------------------------------------------
# Operator config files
# ---------------------------------------------------------------------------

def load_operator(path) -> OperatorMatrix:
    """Load an operator from a key=value config file.

    Required keys: integers ``m``, ``n``, ``k``; expression strings
    ``a0..am``, ``b0..bn``, ``c0..ck``, and ``d``, each in x only. Lines
    starting with ``#`` and blank lines are ignored. Unknown or missing keys
    and expressions that mention lambda are rejected.
    """
    text = Path(path).read_text(encoding="utf-8")
    return parse_operator_text(text, source=str(path))


def parse_operator_text(text: str, source: str = "<config>") -> OperatorMatrix:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        entries[key] = value

    orders = {}
    for name in ("m", "n", "k"):
        if name not in entries:
            raise ConfigError(f"{source}: missing required key {name!r}")
        try:
            orders[name] = int(entries.pop(name))
        except ValueError as exc:
            raise ConfigError(f"{source}: key {name!r} must be an integer") from exc
        if orders[name] < 0:
            raise ConfigError(f"{source}: key {name!r} must be non-negative")

    expected = ["d"]
    expected += [f"a{j}" for j in range(orders["m"] + 1)]
    expected += [f"b{j}" for j in range(orders["n"] + 1)]
    expected += [f"c{j}" for j in range(orders["k"] + 1)]
    missing = [key for key in expected if key not in entries]
    if missing:
        raise ConfigError(f"{source}: missing keys: {', '.join(sorted(missing))}")
    unknown = [key for key in entries if key not in expected]
    if unknown:
        raise ConfigError(f"{source}: unknown keys: {', '.join(sorted(unknown))}")

    def parse_entry(key: str) -> Expr:
        try:
            tree = parse(entries[key])
        except Exception as exc:
            raise ConfigError(f"{source}: key {key!r}: {exc}") from exc
        if mentions(tree, "lambda"):
            raise ConfigError(f"{source}: key {key!r}: coefficients are "
                              "functions of x only; lambda is not allowed")
        return tree

    return OperatorMatrix(
        a=tuple(parse_entry(f"a{j}") for j in range(orders["m"] + 1)),
        b=tuple(parse_entry(f"b{j}") for j in range(orders["n"] + 1)),
        c=tuple(parse_entry(f"c{j}") for j in range(orders["k"] + 1)),
        d=parse_entry("d"),
    )
