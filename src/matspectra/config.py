"""Run and solver configuration.

:class:`SolverConfig` collects every numeric knob used by the pipeline, each
with its pinned default. Tests and the CLI construct overrides through
:func:`SolverConfig.with_overrides`, which rejects unknown keys.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError

Window = tuple[float, float, float, float]
"""Axis-aligned complex window (re_min, re_max, im_min, im_max)."""


@dataclass(frozen=True)
class SolverConfig:
    """All numeric parameters of the pipeline, with pinned defaults."""

    # Geometric limit sampling: points x = sign * x0 * rho**t, t = 0..T.
    limit_tol: float = 1e-9
    x0: float = 16.0
    rho: float = 2.0
    T: int = 40

    # Limit points of d at infinity (dyadic windows [2^s, 2^(s+1)]).
    escape_bound: float = 1e8
    cluster_tol: float = 1e-4
    windows: int = 24
    cluster_windows: int = 6
    points_per_window: int = 4096
    infinity_sides: str = "both"  # "both" | "positive"
    declared_exceptional_set: tuple[complex, ...] | None = None

    # Decoupling-curve sampling (regular part).
    curve_res: float = 1e-3
    max_points: int = 200_000
    x_span: float = 50.0
    grid_points: int = 2048

    # Singular sweep.
    root_tol: float = 1e-8
    fit_tol: float = 1e-7
    dedupe_tol: float = 1e-9
    exc_tol: float = 1e-3
    fit_center: complex = 0j
    fit_radii: tuple[float, float] = (2.17, 4.31)
    xi_min: float = 1e-3
    xi_max: float = 1e3
    xi_points: int = 400

    # Assumption diagnostics.
    deriv_tol: float = 1e-7
    bound_cap: float = 1e8
    probe_margin: float = 1e-3

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
