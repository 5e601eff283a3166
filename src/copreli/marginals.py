"""Univariate lifetime distributions feeding u_i(t) = F_i(t) and uhat_i(t) = 1 - F_i(t).

One parametric family ships: Weibull (power-law hazard), with exponential
(constant hazard) as its shape-1 subclass.  Closed-form cdf/sf/pdf/hazard/
reversed hazard/quantile let every downstream quantity be cross-checked
without root finding.  At shape 1 each is the exponential form bit for bit,
as x ** 1.0 == x, x ** 0.0 == 1.0 (at 0 and inf too) and gamma(2) == 1.

Spec strings: ``exp:LAMBDA`` and ``weibull:LAMBDA,K``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DomainError, SingularityError
from .numerics import is_real, scalar_or_array

__all__ = [
    "Exponential",
    "Weibull",
    "Marginal",
    "parse_marginal",
]


def _check_time(t):
    t = np.asarray(t, dtype=float)
    if not (t >= 0).all():
        raise DomainError("lifetime argument t must be >= 0")
    return t


@dataclass(frozen=True)
class Weibull:
    """Weibull lifetime, sf(t) = exp(-(lam t)^k); hazard k lam^k t^(k-1)."""

    lam: float
    k: float

    def __post_init__(self):
        name = type(self).__name__.lower()
        if not (is_real(self.lam) and self.lam > 0) or not math.isfinite(self.lam):
            raise DomainError(f"{name} rate must be positive, got {self.lam!r}")
        if not (is_real(self.k) and self.k > 0) or not math.isfinite(self.k):
            raise DomainError(f"{name} shape must be positive, got {self.k!r}")
        object.__setattr__(self, "lam", float(self.lam))  # so spec_string prints a plain float
        object.__setattr__(self, "k", float(self.k))

    def cdf(self, t):
        tt = _check_time(t)
        return scalar_or_array(-np.expm1(-((self.lam * tt) ** self.k)))

    def sf(self, t):
        tt = _check_time(t)
        return scalar_or_array(np.exp(-((self.lam * tt) ** self.k)))

    def pdf(self, t):
        """At t = 0: 0 for k > 1, lam for k = 1, +inf for k < 1."""
        tt = _check_time(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            return scalar_or_array(self.k * self.lam * (self.lam * tt) ** (self.k - 1.0)
                                   * np.exp(-((self.lam * tt) ** self.k)))

    def hazard(self, t):
        tt = _check_time(t)
        with np.errstate(divide="ignore"):
            return scalar_or_array(self.k * self.lam * (self.lam * tt) ** (self.k - 1.0))

    def reversed_hazard(self, t):
        """pdf / cdf; SingularityError at the first t where the cdf vanishes."""
        tt = _check_time(t)
        cdf = np.asarray(self.cdf(tt))
        if np.any(cdf == 0.0):
            raise SingularityError("reversed hazard undefined where the cdf vanishes",
                                   t=float(tt.flat[np.argmax(cdf == 0.0)]))
        return scalar_or_array(np.asarray(self.pdf(tt)) / cdf)

    def quantile(self, p):
        pp = np.asarray(p, dtype=float)
        if ((pp < 0) | (pp >= 1)).any():
            raise DomainError("probability argument must lie in [0, 1)")
        return scalar_or_array((-np.log1p(-pp)) ** (1.0 / self.k) / self.lam)

    def mean(self) -> float:
        try:
            return math.gamma(1.0 + 1.0 / self.k) / self.lam
        except OverflowError:  # gamma past the float range, k below about 0.0058
            return math.inf

    def spec_string(self) -> str:
        return f"weibull:{self.lam!r},{self.k!r}"


@dataclass(frozen=True)
class Exponential(Weibull):
    """Exponential lifetime with rate ``lam`` (per unit time): sf(t) = exp(-lam t)."""

    k: float = field(default=1.0, init=False, repr=False, compare=False)

    # bench/tracing.py wraps each marginal method in its own class's __dict__
    cdf, sf, pdf, hazard, reversed_hazard, quantile = (
        Weibull.cdf, Weibull.sf, Weibull.pdf, Weibull.hazard, Weibull.reversed_hazard,
        Weibull.quantile)

    def spec_string(self) -> str:
        return f"exp:{self.lam!r}"


Marginal = Weibull  # Exponential is its shape-1 subclass


def parse_marginal(spec: str) -> Marginal:
    """Parse ``exp:LAMBDA`` or ``weibull:LAMBDA,K`` into a marginal model."""
    text = spec.strip()
    kind, sep, rest = text.partition(":")
    kind = kind.strip().lower()
    if not sep or not rest.strip():
        raise ConfigError(f"marginal spec {spec!r} must look like 'exp:1.0' or 'weibull:1.0,2.0'",
                          token=text)
    parts = [p.strip() for p in rest.split(",")]
    values = []
    for p in parts:
        try:
            values.append(float(p))
        except ValueError:
            raise ConfigError(f"marginal spec {spec!r}: {p!r} is not a number", token=p) from None
    if kind in ("exp", "exponential"):
        if len(values) != 1:
            raise ConfigError(f"marginal spec {spec!r}: exponential takes one rate", token=rest)
        return Exponential(values[0])
    if kind == "weibull":
        if len(values) != 2:
            raise ConfigError(f"marginal spec {spec!r}: weibull takes rate and shape", token=rest)
        return Weibull(values[0], values[1])
    raise ConfigError(f"unknown marginal kind {kind!r} (expected exp or weibull)", token=kind)
