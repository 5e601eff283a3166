"""Classic bivariate exponential distributions and their copula compositions.

Each joint survival function below can be rebuilt by feeding exponential
survival margins uhat_i(t) = exp(-lam_i t) into one of the copula families:

* Gumbel-I      <- Gumbel-Barnet with alpha = lam12 / (lam1 lam2)
* Gumbel-II     <- FGM with the same alpha
* Gumbel-III    <- Gumbel-Hougaard with its own alpha >= 1
* Marshall-Olkin bivariate exponential <- the min-family with
  alpha_i = lam12 / lam_i
* Block-Basu    <- a signed mixture of the Marshall-Olkin composition and a
  pure min term (it is deliberately not squeezed into a single copula)

Both routes are exposed so tests can pin them against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copulas import Fgm, GumbelBarnet, GumbelHougaard, MarshallOlkin
from .exceptions import DomainError

__all__ = [
    "gumbel_i_sf",
    "gumbel_i_copula_sf",
    "gumbel_ii_sf",
    "gumbel_ii_copula_sf",
    "gumbel_iii_sf",
    "gumbel_iii_copula_sf",
    "MarshallOlkinBVE",
    "BlockBasuBVE",
]


def _check_rates(lam1: float, lam2: float):
    if lam1 <= 0 or lam2 <= 0:
        raise DomainError("rates must be positive")


def _at_exponential_margins(cop, t1, t2, lam1: float, lam2: float):
    """``cop`` at the exponential survival margins (exp(-lam1 t1), exp(-lam2 t2))."""
    return cop.value(np.stack([np.exp(-lam1 * np.asarray(t1, float)),
                               np.exp(-lam2 * np.asarray(t2, float))], axis=-1))


def gumbel_i_sf(t1, t2, lam1: float, lam2: float, lam12: float):
    """exp(-lam1 t1 - lam2 t2 - lam12 t1 t2), 0 <= lam12 <= lam1 lam2."""
    _check_rates(lam1, lam2)
    if not 0.0 <= lam12 <= lam1 * lam2:
        raise DomainError("lam12 must lie in [0, lam1*lam2]")
    return np.exp(-lam1 * np.asarray(t1) - lam2 * np.asarray(t2)
                  - lam12 * np.asarray(t1) * np.asarray(t2))


def gumbel_i_copula_sf(t1, t2, lam1: float, lam2: float, lam12: float):
    return _at_exponential_margins(GumbelBarnet(alpha=lam12 / (lam1 * lam2)), t1, t2, lam1, lam2)


def gumbel_ii_sf(t1, t2, lam1: float, lam2: float, alpha: float):
    """(1 + alpha (1 - e^(-lam1 t1))(1 - e^(-lam2 t2))) e^(-lam1 t1 - lam2 t2)."""
    _check_rates(lam1, lam2)
    if not -1.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [-1, 1]")
    e1 = np.exp(-lam1 * np.asarray(t1, float))
    e2 = np.exp(-lam2 * np.asarray(t2, float))
    return (1.0 + alpha * (1.0 - e1) * (1.0 - e2)) * e1 * e2


def gumbel_ii_copula_sf(t1, t2, lam1: float, lam2: float, alpha: float):
    return _at_exponential_margins(Fgm(alpha=alpha), t1, t2, lam1, lam2)


def gumbel_iii_sf(t1, t2, lam1: float, lam2: float, alpha: float):
    """exp(-((lam1 t1)^alpha + (lam2 t2)^alpha)^(1/alpha)), alpha >= 1."""
    _check_rates(lam1, lam2)
    if alpha < 1.0:
        raise DomainError("alpha must be >= 1")
    x1 = (lam1 * np.asarray(t1, float)) ** alpha
    x2 = (lam2 * np.asarray(t2, float)) ** alpha
    return np.exp(-((x1 + x2) ** (1.0 / alpha)))


def gumbel_iii_copula_sf(t1, t2, lam1: float, lam2: float, alpha: float):
    return _at_exponential_margins(GumbelHougaard(alpha=alpha), t1, t2, lam1, lam2)


@dataclass(frozen=True)
class MarshallOlkinBVE:
    """Marshall-Olkin bivariate exponential: shared shock at rate lam12."""

    lam1: float
    lam2: float
    lam12: float

    def __post_init__(self):
        _check_rates(self.lam1, self.lam2)
        if self.lam12 <= 0:
            raise DomainError("lam12 must be positive")

    def sf(self, t1, t2):
        t1 = np.asarray(t1, float)
        t2 = np.asarray(t2, float)
        return np.exp(-self.lam1 * t1 - self.lam2 * t2 - self.lam12 * np.maximum(t1, t2))

    def copula_sf(self, t1, t2):
        cop = MarshallOlkin(alpha=(self.lam12 / self.lam1, self.lam12 / self.lam2))
        return _at_exponential_margins(cop, t1, t2, self.lam1, self.lam2)

    def series_sf(self, t):
        return self.sf(t, t)


@dataclass(frozen=True)
class BlockBasuBVE:
    """Block-Basu bivariate exponential (absolutely continuous part of Marshall-Olkin).

    Decomposes as theta * (Marshall-Olkin composition) + (1 - theta) * min
    term with theta = (lam + lam12)/lam, lam = lam1 + lam2; note 1 - theta is
    negative, so this is a signed mixture of two min-stable terms rather
    than a copula in its own right.
    """

    lam1: float
    lam2: float
    lam12: float

    def __post_init__(self):
        _check_rates(self.lam1, self.lam2)
        if self.lam12 < 0:
            raise DomainError("lam12 must be nonnegative")

    @property
    def lam(self) -> float:
        return self.lam1 + self.lam2

    @property
    def lam_star(self) -> float:
        return self.lam + self.lam12

    @property
    def theta(self) -> float:
        return self.lam_star / self.lam

    def sf(self, t1, t2):
        t1 = np.asarray(t1, float)
        t2 = np.asarray(t2, float)
        later = np.maximum(t1, t2)
        return (self.theta * np.exp(-self.lam1 * t1 - self.lam2 * t2 - self.lam12 * later)
                - (self.lam12 / self.lam) * np.exp(-self.lam_star * later))

    def copula_composition_sf(self, t1, t2):
        """theta * MO-composition + (1 - theta) * min(uhat1^delta, uhat2^gamma)."""
        t1a = np.asarray(t1, float)
        t2a = np.asarray(t2, float)
        uhat1 = np.exp(-self.lam1 * t1a)
        uhat2 = np.exp(-self.lam2 * t2a)
        mo = MarshallOlkin(alpha=(self.lam12 / self.lam1, self.lam12 / self.lam2)) if self.lam12 > 0 else None
        if mo is not None:
            head = mo.value(np.stack([uhat1, uhat2], axis=-1))
        else:
            head = uhat1 * uhat2
        delta = self.lam_star / self.lam1
        gamma = self.lam_star / self.lam2
        tail = np.minimum(uhat1**delta, uhat2**gamma)
        return self.theta * head + (1.0 - self.theta) * tail

    def series_sf(self, t):
        return self.sf(t, t)

    def series_hazard(self, t: float) -> float:
        """Closed-form check value: -d/dt ln sf(t, t)."""
        s = float(self.sf(t, t))
        num = (self.theta * self.lam_star * math.exp(-self.lam_star * t)
               - (self.lam12 / self.lam) * self.lam_star * math.exp(-self.lam_star * t))
        return num / s
