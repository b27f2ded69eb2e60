"""Run and solver configuration.

:class:`SolverConfig` holds the numeric settings that some caller varies:
the CLI sets the output window, the benchmark workloads the curve
resolution, the limit recheck the trajectory start, and tests shrink or
target a run. Each field has its pinned default; every other numeric
constant of the pipeline lives next to the code that reads it. Tests and
the CLI construct overrides through :func:`SolverConfig.with_overrides`,
which rejects unknown keys.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError

Window = tuple[float, float, float, float]
"""Axis-aligned complex window (re_min, re_max, im_min, im_max)."""


@dataclass(frozen=True)
class SolverConfig:
    """The numeric settings some caller varies, with pinned defaults."""

    # Limit trajectories x = sign * x0 * RHO**t (asymptotics).
    x0: float = 16.0

    # Limit points of d at infinity (dyadic windows [2^s, 2^(s+1)]).
    cluster_tol: float = 1e-4
    windows: int = 24

    # Decoupling-curve sampling (regular part).
    curve_res: float = 1e-3
    max_points: int = 200_000
    grid_points: int = 2048

    # Singular sweep.
    dedupe_tol: float = 1e-9
    exc_tol: float = 1e-3
    xi_max: float = 1e3
    xi_points: int = 400

    # Assumption diagnostics.
    bound_cap: float = 1e8

    # Symbolic work budget of coefficient_trees (print-schur).
    node_ceiling: int = 200_000

    # Discretization oracle.
    eig_budget: int = 4000

    # Output window.
    window: Window = (-10.0, 10.0, -10.0, 10.0)

    def with_overrides(self, **kwargs) -> "SolverConfig":
        """Return a copy with the given fields replaced.

        Unknown keys raise :class:`ConfigError`.
        """
        valid = {f.name for f in dataclasses.fields(self)}
        for key in kwargs:
            if key not in valid:
                raise ConfigError(f"unknown config key: {key!r}")
        return dataclasses.replace(self, **kwargs)


def parse_complex(text: str) -> complex:
    """Parse a complex number written with ``i`` (e.g. ``2-i``, ``-3+2i``)."""
    cleaned = text.strip().replace(" ", "")
    if not cleaned:
        raise ValueError("empty complex literal")
    normalized = cleaned.replace("I", "i").replace("i", "j")
    # complex() requires a bare "j" coefficient to be attached to a digit
    # or sign, which "j" and "+j"/"-j" already satisfy.
    try:
        return complex(normalized)
    except ValueError as exc:
        raise ValueError(f"bad complex literal {text!r}") from exc


def window_contains(window: Window, value: complex, pad: float = 0.0) -> bool:
    """True if ``value`` lies inside the window, expanded by ``pad``."""
    re_min, re_max, im_min, im_max = window
    return (re_min - pad <= value.real <= re_max + pad
            and im_min - pad <= value.imag <= im_max + pad)
