"""Exception types shared across the package.

Every error raised on purpose by this package derives from
:class:`MatspectraError`, so callers (and the CLI) can distinguish domain
failures from programming errors.
"""

from __future__ import annotations


class MatspectraError(Exception):
    """Base class for all errors raised intentionally by this package."""


class ParseError(MatspectraError):
    """Malformed expression text. Carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class PoleError(MatspectraError):
    """Division by a value of magnitude below the pole threshold."""


class DomainError(MatspectraError):
    """Function argument outside its domain (log/sqrt at exactly 0)."""


class StructureError(MatspectraError):
    """OperatorMatrix orders break m = n + k, m even and positive."""


class NotConvergent(MatspectraError):
    """A numeric limit failed its convergence certificate.

    ``witness`` holds the tail of (sample point, increment) pairs that
    refused to settle.
    """

    def __init__(self, message: str, witness: list | None = None):
        super().__init__(message)
        self.witness = witness if witness is not None else []


class LimitRefused(MatspectraError):
    """A limit behind the closed-form tail polynomial has no certificate,
    or its recheck disagrees. ``label`` names the tree."""

    def __init__(self, label: str, reason: str):
        super().__init__(f"limit of {label} refused: {reason}")
        self.label = label


class FitError(MatspectraError):
    """Rational reconstruction failed and Newton could not rescue it."""


class RefusedFrozen(MatspectraError):
    """Coefficient limits do not certify a frozen (constant) symbol."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness if witness is not None else {}


class SizeError(MatspectraError):
    """Requested discretization exceeds the dense-solver budget."""


class ConfigError(MatspectraError):
    """Bad operator file or run configuration."""
