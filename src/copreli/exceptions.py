"""Semantic exception hierarchy for copreli.

Public functions raise these instead of bare ValueError so callers (and the
command line front end) can map failures to stable exit codes.
"""

from __future__ import annotations

__all__ = [
    "CopreliError",
    "DomainError",
    "ConfigError",
    "SingularityError",
    "CapacityError",
    "IntegrationError",
    "SamplingError",
]


class CopreliError(Exception):
    """Base class for all copreli errors."""


class DomainError(CopreliError, ValueError):
    """An input violates its documented domain (bad parameter, bad point)."""


class ConfigError(CopreliError, ValueError):
    """A spec string or config file could not be parsed.

    Carries the offending token so front ends can point at it.
    """

    def __init__(self, message: str, token: str | None = None):
        super().__init__(message)
        self.token = token


class SingularityError(CopreliError, ArithmeticError):
    """A quantity is undefined at the requested time (vanishing denominator).

    ``t`` records where the singularity was hit.
    """

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class CapacityError(CopreliError):
    """The request exceeds a hard implementation limit (e.g. subset blowup)."""


class IntegrationError(CopreliError, ArithmeticError):
    """A tail integral failed to converge."""


class SamplingError(CopreliError):
    """Conditional inversion failed while sampling; carries a diagnostic point."""

    def __init__(self, message: str, point: tuple | None = None):
        super().__init__(message)
        self.point = point
