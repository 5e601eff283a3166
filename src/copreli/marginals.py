"""Univariate lifetime distributions feeding u_i(t) = F_i(t) and uhat_i(t) = 1 - F_i(t).

Two parametric families ship: exponential (constant hazard) and Weibull
(power-law hazard).  Both expose closed-form cdf/sf/pdf/hazard/reversed
hazard/quantile so every downstream quantity can be cross-checked without
root finding.

Spec strings: ``exp:LAMBDA`` and ``weibull:LAMBDA,K``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _check_prob(p):
    p = np.asarray(p, dtype=float)
    if ((p < 0) | (p >= 1)).any():
        raise DomainError("probability argument must lie in [0, 1)")
    return p


def _reversed_hazard(self, t):
    """pdf / cdf; SingularityError at the first t where the cdf vanishes."""
    tt = _check_time(t)
    cdf = np.asarray(self.cdf(tt))
    if np.any(cdf == 0.0):
        raise SingularityError("reversed hazard undefined where the cdf vanishes",
                               t=float(tt.flat[np.argmax(cdf == 0.0)]))
    return scalar_or_array(np.asarray(self.pdf(tt)) / cdf)


@dataclass(frozen=True)
class Exponential:
    """Exponential lifetime with rate ``lam`` (per unit time): sf(t) = exp(-lam t)."""

    lam: float

    def __post_init__(self):
        if not (is_real(self.lam) and self.lam > 0) or not math.isfinite(self.lam):
            raise DomainError(f"exponential rate must be positive, got {self.lam!r}")
        object.__setattr__(self, "lam", float(self.lam))  # so spec_string prints a plain float

    def cdf(self, t):
        tt = _check_time(t)
        return scalar_or_array(-np.expm1(-self.lam * tt))

    def sf(self, t):
        tt = _check_time(t)
        return scalar_or_array(np.exp(-self.lam * tt))

    def pdf(self, t):
        tt = _check_time(t)
        return scalar_or_array(self.lam * np.exp(-self.lam * tt))

    def hazard(self, t):
        tt = _check_time(t)
        return scalar_or_array(np.full_like(tt, self.lam, dtype=float))

    reversed_hazard = _reversed_hazard

    def quantile(self, p):
        pp = _check_prob(p)
        return scalar_or_array(-np.log1p(-pp) / self.lam)

    def mean(self) -> float:
        return 1.0 / self.lam

    def spec_string(self) -> str:
        return f"exp:{self.lam!r}"


@dataclass(frozen=True)
class Weibull:
    """Weibull lifetime, sf(t) = exp(-(lam t)^k); hazard k lam^k t^(k-1)."""

    lam: float
    k: float

    def __post_init__(self):
        if not (is_real(self.lam) and self.lam > 0) or not math.isfinite(self.lam):
            raise DomainError(f"weibull rate must be positive, got {self.lam!r}")
        if not (is_real(self.k) and self.k > 0) or not math.isfinite(self.k):
            raise DomainError(f"weibull shape must be positive, got {self.k!r}")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "k", float(self.k))

    def cdf(self, t):
        tt = _check_time(t)
        return scalar_or_array(-np.expm1(-((self.lam * tt) ** self.k)))

    def sf(self, t):
        tt = _check_time(t)
        return scalar_or_array(np.exp(-((self.lam * tt) ** self.k)))

    def pdf(self, t):
        tt = _check_time(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.k * self.lam * (self.lam * tt) ** (self.k - 1.0) * np.exp(
                -((self.lam * tt) ** self.k)
            )
        # t = 0 limit: 0 for k > 1, lam for k = 1, +inf for k < 1
        if self.k == 1.0:
            out = np.where(np.asarray(tt) == 0, self.lam, out)
        return scalar_or_array(out)

    def hazard(self, t):
        tt = _check_time(t)
        with np.errstate(divide="ignore"):
            out = self.k * self.lam * (self.lam * tt) ** (self.k - 1.0)
        if self.k == 1.0:
            out = np.where(np.asarray(tt) == 0, self.lam, out)
        return scalar_or_array(out)

    reversed_hazard = _reversed_hazard

    def quantile(self, p):
        pp = _check_prob(p)
        return scalar_or_array((-np.log1p(-pp)) ** (1.0 / self.k) / self.lam)

    def mean(self) -> float:
        return math.gamma(1.0 + 1.0 / self.k) / self.lam

    def spec_string(self) -> str:
        return f"weibull:{self.lam!r},{self.k!r}"


Marginal = Exponential | Weibull


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
