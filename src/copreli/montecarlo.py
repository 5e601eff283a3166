"""Monte Carlo and finite-difference cross-checks for the analytic machinery.

Bivariate copula samples come from the conditional (Rosenblatt) method: draw
v1 uniform, then solve dC/du1(v1, v2) = p for v2 by bisection.  The partial
derivative is itself taken numerically, so the sampler shares no formulas
with the quantities it is used to validate.

Lifetimes are materialised in one of two roles: ``distribution`` treats the
family as the copula of the joint distribution function (the parallel-system
convention, T_i = F_i^{-1}(V_i)), ``survival`` treats it as the survival
copula (the series-system convention, T_i = Fbar_i^{-1}(V_i)).

The pseudo-random stream is counter-based (Philox) and chunked, so a batch
is reproducible bit for bit from (seed, size) alone and chunks could be
drawn concurrently without changing the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copulas import Copula
from .exceptions import DomainError, SamplingError, SingularityError
from .marginals import Marginal
from .numerics import adaptive_step, richardson_pair
from .assessment import SystemPair

__all__ = [
    "SampleBatch",
    "sample_bivariate",
    "empirical_system_sf",
    "empirical_copula",
    "finite_difference_audit",
    "AuditResult",
]

_CHUNK = 1 << 14
_PARTIAL_STEP = 1e-7
_BISECT_STEPS = 48  # interval shrinks to 2^-48 ~ 3.6e-15 < 1e-10


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible bivariate draws: copula-scale coordinates plus lifetimes."""

    v1: np.ndarray
    v2: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    role: str
    seed: int
    copula: Copula
    marginals: tuple[Marginal, Marginal]

    @property
    def size(self) -> int:
        return int(self.v1.size)


def _conditional_bisect(copula: Copula, v1: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Solve dC/du1(v1, v2) = p for v2, vectorised bisection on [0, 1]."""
    d = _PARTIAL_STEP
    lo1 = np.clip(v1 - d, 0.0, 1.0)
    hi1 = np.clip(v1 + d, 0.0, 1.0)
    width = hi1 - lo1

    def conditional(v2):
        pts_hi = np.stack([hi1, v2], axis=-1)
        pts_lo = np.stack([lo1, v2], axis=-1)
        return (copula.value(pts_hi) - copula.value(pts_lo)) / width

    lo = np.zeros_like(v1)
    hi = np.ones_like(v1)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        too_low = conditional(mid) < p
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    v2 = 0.5 * (lo + hi)
    if not np.all(np.isfinite(v2)):
        bad = int(np.argmax(~np.isfinite(v2)))
        raise SamplingError("conditional inversion produced a non-finite value",
                            point=(float(v1[bad]), float(p[bad])))
    return v2


def sample_bivariate(copula: Copula, marginals, n_samples: int, seed: int,
                     role: str = "distribution") -> SampleBatch:
    """Draw ``n_samples`` dependent lifetime pairs under the given copula.

    ``role`` selects whether the family couples the joint distribution
    ("distribution", parallel-system convention) or the joint survival
    ("survival", series-system convention).
    """
    marginals = tuple(marginals)
    if copula.dim != 2 or len(marginals) != 2:
        raise DomainError("sampling is bivariate only")
    if role not in ("distribution", "survival"):
        raise DomainError(f"role must be distribution or survival, got {role!r}")
    if n_samples <= 0:
        raise DomainError("n_samples must be positive")

    v1_parts, v2_parts = [], []
    for chunk_index, start in enumerate(range(0, n_samples, _CHUNK)):
        m = min(_CHUNK, n_samples - start)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index],
                                          dtype=np.uint64))
        )
        v1 = rng.uniform(1e-9, 1.0 - 1e-9, size=m)
        p = rng.uniform(0.0, 1.0, size=m)
        v2 = _conditional_bisect(copula, v1, p)
        v1_parts.append(v1)
        v2_parts.append(v2)
    v1 = np.concatenate(v1_parts)
    v2 = np.concatenate(v2_parts)

    eps = 1e-15
    if role == "distribution":
        t1 = marginals[0].quantile(np.clip(v1, 0.0, 1.0 - eps))
        t2 = marginals[1].quantile(np.clip(v2, 0.0, 1.0 - eps))
    else:
        t1 = marginals[0].quantile(np.clip(1.0 - v1, 0.0, 1.0 - eps))
        t2 = marginals[1].quantile(np.clip(1.0 - v2, 0.0, 1.0 - eps))
    return SampleBatch(v1=v1, v2=v2, t1=t1, t2=t2, role=role, seed=seed,
                       copula=copula, marginals=marginals)


def empirical_system_sf(batch: SampleBatch, structure: str, t: float) -> tuple[float, float]:
    """Fraction of sampled systems alive at t, with its binomial standard error."""
    if structure == "series":
        alive = np.minimum(batch.t1, batch.t2) > t
    elif structure == "parallel":
        alive = np.maximum(batch.t1, batch.t2) > t
    else:
        raise DomainError(f"structure must be series or parallel, got {structure!r}")
    n = batch.size
    if n == 0:
        raise DomainError("empty batch")
    p = float(np.mean(alive))
    return p, math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def empirical_copula(batch: SampleBatch, u1: float, u2: float) -> tuple[float, float]:
    """Empirical C(u1, u2) on the copula scale, with standard error."""
    n = batch.size
    p = float(np.mean((batch.v1 <= u1) & (batch.v2 <= u2)))
    return p, math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


@dataclass(frozen=True)
class AuditResult:
    """Richardson-extrapolated agreement of the error identities with direct subtraction."""

    per_check: dict[str, float]

    @property
    def max_discrepancy(self) -> float:
        return max(self.per_check.values())


def finite_difference_audit(copula: Copula, marginals, grid) -> AuditResult:
    """Audit the hazard/reversed-hazard error identities on a grid.

    For each structure, the identity route (log-derivative of the
    dependent/independent ratio) is compared against direct subtraction of
    the two systems' rates; both sides are evaluated at steps h and h/2 and
    Richardson-extrapolated before comparing.  Each system is evaluated over
    the whole grid once per structure, measure and step.  The first grid
    point where a route is undefined raises SingularityError; a NaN
    discrepancy is ignored.
    """
    marginals = tuple(marginals)
    grid = np.asarray(grid, dtype=float)
    h = adaptive_step(grid)
    out: dict[str, float] = {}
    for structure in ("series", "parallel"):
        pair = SystemPair(copula=copula, marginals=marginals, structure=structure)
        for measure, which in (("hr", "sf"), ("rhr", "cdf")):
            ident_h, dep_h, ind_h = pair._log_rates(grid, h, which)
            ident_h2, dep_h2, ind_h2 = pair._log_rates(grid, h / 2, which)
            # rows in the order a point-by-point audit meets them at each t
            reasons = np.stack([r for _, r in (ident_h, ident_h2, dep_h, ind_h, dep_h2, ind_h2)])
            undefined = reasons != ""
            if undefined.any():
                col = int(np.argmax(undefined.any(axis=0)))
                row = int(np.argmax(undefined[:, col]))
                raise SingularityError(str(reasons[row, col]), t=float(grid[col]))
            ident = richardson_pair(ident_h[0], ident_h2[0])
            direct = richardson_pair(dep_h[0] - ind_h[0], dep_h2[0] - ind_h2[0])
            out[f"{structure}_{measure}"] = float(
                np.fmax.reduce(np.abs(ident - direct), initial=0.0))
    return AuditResult(per_check=out)
