"""Monte Carlo and finite-difference cross-checks for the analytic machinery.

Bivariate copula samples come from the conditional (Rosenblatt) method: draw
v1 uniform and p uniform, then solve h(v1, v2) = p for v2, where
h = dC/du1 is the conditional distribution of V2 given V1 = v1.  h is taken
from the copula kernel alone, exact to rounding, by a ``numerics.Dual`` u1
row, with no family formula for h or its inverse, so the sampler stays
independent of the quantities it is used to validate.  The solve is a
vectorised Illinois (modified regula falsi) iteration on the bracket [0, 1]
(Dowell & Jarratt 1971), first split where the kernel switches branch
(``Copula._switch_v2``), so Illinois meets only smooth pieces of h and a p
inside a jump of h settles on the switch; points not settled after 16 rounds
are finished by bisection on the same h.  Where p >= h(v1, 1), which happens
only for families without uniform margins, v2 is the upper end 1.

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
from .numerics import DEFINED, REASONS, Dual, adaptive_step, richardson_pair
from .systems import System

__all__ = [
    "SampleBatch",
    "sample_bivariate",
    "conditional_cdf",
    "empirical_system_sf",
    "finite_difference_audit",
    "AuditResult",
]

_CHUNK = 1 << 14
_V2_TOL = 4e-15  # a point is settled once its bracket is this narrow ...
_H_TOL = 2e-16  # ... or, in an Illinois round, its residual h(v1, v2) - p this small
_ILLINOIS_ROUNDS = 16  # then bisection; 12 leave smooth points to it, more gain nothing
_SPLIT = _V2_TOL / 4  # h is read this far either side of a branch switch
# the seed du1, a power of two so h is exact, small so no derivative row overflows
# (AMH's reach 1e326 at v1 = 1e-9, u2 = 1e-300 with du1 = 1)
_DU1 = 2.0**-64


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


def conditional_cdf(copula: Copula, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """h(v1, v2) = dC/du1 at (v1, v2), by a dual u1 row through the kernel."""
    with np.errstate(divide="ignore", invalid="ignore"):  # in derivatives where() drops
        return copula._raw(Dual(v1, _DU1), v2).dx / _DU1


def _settle(v2, done, value, idx, *state):
    """Write ``value`` at the ``done`` points into v2; return idx and the state
    arrays of the points still open."""
    v2[idx[done]] = value[done]
    open_ = ~done
    return [x[open_] for x in (idx, *state)]


def _conditional_inverse(copula: Copula, v1: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Solve h(v1, v2) = p for v2 on [0, 1], over an active set of points.

    h(v1, 0) = 0 for every grounded copula, so the bracket [0, 1] starts with
    residuals -p and h(v1, 1) - p, and a point with p >= h(v1, 1) takes the
    upper end.  Where the kernel switches branch at k (clipped to [2 _SPLIT,
    1 - 2 _SPLIT]), h at k -+ _SPLIT cuts the bracket to [0, k - _SPLIT] or
    [k + _SPLIT, 1], or settles a p inside the jump at k.  Each round then
    evaluates h once at the open points: at the Illinois point for
    _ILLINOIS_ROUNDS rounds, then at the midpoint, keeping only the bracket,
    until it is _V2_TOL narrow.  A point where h is NaN settles at NaN.
    """
    v2 = np.ones_like(v1)
    fb = conditional_cdf(copula, v1, v2) - p
    idx = np.flatnonzero(~(fb <= 0.0))
    x1, q, fb = v1[idx], p[idx], fb[idx]
    a, b, fa = np.zeros(idx.size), np.ones(idx.size), -q
    k = copula._switch_v2(x1)
    if k is not None:
        k = np.clip(k, 2.0 * _SPLIT, 1.0 - 2.0 * _SPLIT)
        lo, hi = (conditional_cdf(copula, np.tile(x1, 2), np.concatenate(
            [k - _SPLIT, k + _SPLIT])) - np.tile(q, 2)).reshape(2, -1)
        nan = np.isnan(lo + hi)
        below, above = (lo > 0.0) & ~nan, (hi < 0.0) & (lo <= 0.0)
        b, fb = np.where(below, k - _SPLIT, b), np.where(below, lo, fb)
        a, fa = np.where(above, k + _SPLIT, a), np.where(above, hi, fa)
        idx, x1, q, a, b, fa, fb = _settle(v2, ~(below | above), np.where(nan, np.nan, k),
                                           idx, x1, q, a, b, fa, fb)
    moved_a = moved_b = np.zeros(idx.size, dtype=bool)
    for _ in range(_ILLINOIS_ROUNDS):
        if not idx.size:
            break
        c = a + (b - a) * (fa / (fa - fb))
        fc = conditional_cdf(copula, x1, c) - q
        left = fc < 0.0
        # Illinois: an end kept twice running has its residual halved
        fa = np.where(~left & moved_b, 0.5 * fa, fa)
        fb = np.where(left & moved_a, 0.5 * fb, fb)
        a, fa = np.where(left, c, a), np.where(left, fc, fa)
        b, fb = np.where(left, b, c), np.where(left, fb, fc)
        moved_a, moved_b = left, ~left
        hit, nan = np.abs(fc) <= _H_TOL, np.isnan(fc)
        done = hit | nan | (b - a <= _V2_TOL)
        if done.any():
            value = np.where(hit, c, np.where(nan, np.nan, 0.5 * (a + b)))
            idx, x1, q, a, b, fa, fb, moved_a, moved_b = _settle(
                v2, done, value, idx, x1, q, a, b, fa, fb, moved_a, moved_b)
    while idx.size:
        c = 0.5 * (a + b)
        fc = conditional_cdf(copula, x1, c)
        left = fc < q
        a, b = np.where(left, c, a), np.where(left, b, c)
        nan = np.isnan(fc)
        done = nan | (b - a <= _V2_TOL)
        if done.any():
            value = np.where(nan, np.nan, 0.5 * (a + b))
            idx, x1, q, a, b = _settle(v2, done, value, idx, x1, q, a, b)
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
        v2 = _conditional_inverse(copula, v1, p)
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


def empirical_system_sf(batch: SampleBatch, structure: str, t: float,
                        expected: float | None = None) -> tuple[float, float]:
    """Fraction of sampled systems alive at t, with its binomial standard error
    at that fraction or, for a score test (Wilson 1927), at the model's
    probability ``expected``; p(1 - p) is floored at 1/n either way."""
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
    at = p if expected is None else float(expected)
    return p, math.sqrt(max(at * (1.0 - at), 1.0 / n) / n)


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
    Richardson-extrapolated before comparing.  Both systems are evaluated
    over the whole grid in one call per structure and step.  The first grid
    point where a route is undefined raises SingularityError; a NaN
    discrepancy is ignored.
    """
    marginals = tuple(marginals)
    grid = np.asarray(grid, dtype=float)
    h = adaptive_step(grid)
    out: dict[str, float] = {}
    for structure in ("series", "parallel"):
        system = System(marginals, structure, "dependent", copula)
        (rate_h, code_h, _), (rate_h2, code_h2, _) = (system._rates(grid, s) for s in (h, h / 2))
        for measure, ident in (("hr", 0), ("rhr", 3)):
            dep, ind = ident + 1, ident + 2
            # rows in the order a point-by-point audit meets them at each t:
            # the identity at h and h/2, then both rates at h, then at h/2
            codes = np.concatenate([code_h[[ident]], code_h2[[ident]], code_h[dep:ind + 1],
                                    code_h2[dep:ind + 1]])
            undefined = codes != DEFINED
            if undefined.any():
                col = int(np.argmax(undefined.any(axis=0)))
                raise SingularityError(REASONS[codes[np.argmax(undefined[:, col]), col]],
                                       t=float(grid[col]))
            identity = richardson_pair(rate_h[ident], rate_h2[ident])
            direct = richardson_pair(rate_h[dep] - rate_h[ind], rate_h2[dep] - rate_h2[ind])
            out[f"{structure}_{measure}"] = float(
                np.fmax.reduce(np.abs(identity - direct), initial=0.0))
    return AuditResult(per_check=out)
