"""Run and solver configuration.

:class:`SolverConfig` holds the five numeric settings that some caller
varies (the CLI the window, the benchmark the curve resolution and grids)
with pinned defaults, and refuses values the pipeline cannot use;
:func:`SolverConfig.with_overrides` also rejects unknown keys. Every other
numeric constant of the pipeline, the start of the limit trajectories
included, lives next to the code that reads it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError

Window = tuple[float, float, float, float]
"""Axis-aligned complex window (re_min, re_max, im_min, im_max)."""


@dataclass(frozen=True)
class SolverConfig:
    """The numeric settings some caller varies, with pinned defaults."""

    # Decoupling-curve sampling (regular part).
    curve_res: float = 1e-3
    grid_points: int = 2048

    # Singular sweep frequencies.
    xi_max: float = 1e3
    xi_points: int = 400

    # Output window.
    window: Window = (-10.0, 10.0, -10.0, 10.0)

    def __post_init__(self):
        if not self.curve_res > 0.0:  # refuses NaN too
            raise ConfigError("tolerance curve_res must be positive")
        if self.grid_points < 2:
            raise ConfigError("grid_points must be at least 2")
        if not (math.isfinite(self.xi_max) and self.xi_max > 0.0):
            raise ConfigError(
                f"xi_max must be finite and positive, got {self.xi_max}")
        if self.xi_points < 0:
            raise ConfigError(
                f"xi_points must be non-negative, got {self.xi_points}")
        re_min, re_max, im_min, im_max = window = self.window
        if not all(map(math.isfinite, window)):
            raise ConfigError(f"window bounds must be finite, got {window}")
        if not (re_min < re_max and im_min < im_max):
            raise ConfigError(f"window must be non-degenerate, got {window}")

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
