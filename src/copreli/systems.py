"""Series/parallel system lifetimes under dependent or independent components.

A series system fails at the first component failure, a parallel system at
the last.  With dependence described by a copula family, the survival
function of the series system is the family formula applied to the marginal
survival values (the formula acting in its survival-copula role), and the
distribution function of the parallel system is the formula applied to the
marginal distribution values.  Under the independence assumption both
collapse to plain products.

``System.sides`` is the one place where marginals meet the copula; ``sf`` and
``cdf`` read its rows.  No closed-form densities exist for general families,
so one stencil routine (``System._rates``) takes every rate of a system and
its independent twin, and their log-ratio errors, from one ``sides`` call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import tables
from .copulas import Copula
from .exceptions import DomainError, IntegrationError, SingularityError
from .marginals import Marginal, _check_time
from .numerics import (AI_NEEDS_POSITIVE_T, AI_UNDEFINED, CDF_VANISHED, DEFINED, REASONS,
                       SF_VANISHED, Stencil, defined_or_raise, scalar_or_array)

__all__ = ["System", "ReliabilityCurve", "CURVE_COLUMNS"]

CURVE_COLUMNS = ("sf", "hr", "rhr", "mrl", "ai")

_SF_FLOOR = 1e-12

# the code of each row of System._rates where its side vanished at t
_VANISHED = (DEFINED, SF_VANISHED, SF_VANISHED, DEFINED, CDF_VANISHED, CDF_VANISHED)


# Mean residual life quadrature: QUADPACK's qk21 (Piessens, de Doncker-Kapenga, Ueberhuber &
# Kahaner 1983, after Kronrod 1965), the 21-point Gauss-Kronrod rule on [-1, 1], as the doubles
# nearest its xgk, wgk and wg from 1 down to 0.  A panel takes its Kronrod value, and its error
# is the distance to the 10-point Gauss rule on the odd-indexed nodes.  No node touches a
# panel's ends, so the pieces are split at the copula's kink times first (``System._kinks``),
# as QUADPACK's qagp takes breakpoints.
_XK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
                0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
                0.2943928627014602, 0.14887433898163122, 0.0])
_WK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                0.07503967481091996, 0.0931254545836976, 0.10938715880229764, 0.12349197626206584,
                0.13470921731147334, 0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
_WG = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                0.26926671930999635, 0.29552422471475287])
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])  # ascending, the Gauss nodes at odd indices
_KRONROD21, _GAUSS10 = np.concatenate([_WK[:-1], _WK[::-1]]), np.concatenate([_WG, _WG[::-1]])
_START_PANELS = 4
_MAX_PANELS = 200
_RTOL = 1e-8
_ATOL = 1e-14
_CANDIDATES = 8  # t + s, t + 2s, ... meets the cap t + 50s by the 7th, or far out the 8th
_KINK_PROBES = np.linspace(0.0, 1.0, 1024)  # exponents of the log-spaced kink probes


def _integrate(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over [a[i], b[i]] of ``f``, which maps an array of points to an
    array, and the mask of those that failed (NaN).

    Adaptive bisection: each round evaluates every open panel of every integral
    in one call of ``f``.  A panel is settled once its Gauss-10 value agrees
    with its Kronrod-21 value to within its share, by width, of
    max(_ATOL, _RTOL * |integral|); the others are halved.  An integral fails
    when its partition would exceed _MAX_PANELS panels.  Each integral's panels
    stay in the order a lone call keeps them and ``np.bincount`` adds them in
    that order, so each value is the one the integral gets alone.
    """
    # np.linspace's arithmetic, bit for bit, without its overhead
    edges = a[:, None] + ((b - a) / _START_PANELS)[:, None] * np.arange(_START_PANELS + 1.0)
    edges[:, -1] = b
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    owner = np.repeat(np.arange(a.size), _START_PANELS)
    panels = np.full(a.size, _START_PANELS)
    settled = np.zeros(a.size)
    failed = np.zeros(a.size, dtype=bool)
    while lo.size:
        half = 0.5 * (hi - lo)
        x = (lo + half)[:, None] + half[:, None] * _NODES
        values = f(x.ravel()).reshape(x.shape)
        # row sums, not BLAS products, whose rounding depends on the row count
        best = half * (values * _KRONROD21).sum(axis=1)
        error = np.abs(best - half * (values[:, 1::2] * _GAUSS10).sum(axis=1))
        tol = np.maximum(_ATOL, _RTOL * np.abs(settled + np.bincount(owner, best, a.size)))
        done = error <= tol[owner] * (hi - lo) / (b - a)[owner]
        settled += np.bincount(owner[done], best[done], a.size)
        panels += np.bincount(owner[~done], minlength=a.size)
        failed |= panels > _MAX_PANELS
        keep = ~done & ~failed[owner]
        lo, hi, owner = lo[keep], hi[keep], owner[keep]
        mid = 0.5 * (lo + hi)
        # each integral's left halves, then its right halves, as a lone call orders them
        order = np.argsort(np.concatenate([owner, owner]), kind="stable")
        lo, hi = np.concatenate([lo, mid])[order], np.concatenate([mid, hi])[order]
        owner = np.concatenate([owner, owner])[order]
    return np.where(failed, np.nan, settled), failed


def _raise_first(errors: list) -> None:
    """Raise the first of ``errors`` that is not None."""
    for error in errors:
        if error is not None:
            raise error


def _aging_intensity(t: np.ndarray, hr: np.ndarray, code: np.ndarray,
                     sf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Aging intensity t hr / -ln sf at each t, with its reason code, from the
    hazard, the hazard's reason code, and sf at t (``System._rates``)."""
    code = np.where((_SF_FLOOR < sf) & (sf < 1.0 - 1e-15), code, AI_UNDEFINED)
    code = np.where(t > 0, code, AI_NEEDS_POSITIVE_T)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(code == DEFINED, t * hr / -np.log(sf), np.nan), code


@dataclass(frozen=True)
class System:
    """A series or parallel system over ``marginals`` with copula dependence.

    ``mode='independent'`` ignores the copula entirely (``copula`` may be
    None).  A single-component system is allowed and degenerates to its
    marginal in either structure.
    """

    marginals: tuple[Marginal, ...]
    structure: str  # "series" | "parallel"
    mode: str = "independent"  # "dependent" | "independent"
    copula: Copula | None = None

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(self.marginals))
        if self.structure not in ("series", "parallel"):
            raise DomainError(f"structure must be series or parallel, got {self.structure!r}")
        if self.mode not in ("dependent", "independent"):
            raise DomainError(f"mode must be dependent or independent, got {self.mode!r}")
        if not self.marginals:
            raise DomainError("a system needs at least one component")
        n = len(self.marginals)
        if self.mode == "dependent" and n > 1:
            if self.copula is None:
                raise DomainError("dependent mode needs a copula")
            if self.copula.dim != n:
                raise DomainError(
                    f"copula dimension {self.copula.dim} != component count {n}"
                )

    @property
    def n(self) -> int:
        return len(self.marginals)

    def sides(self, t) -> tuple[np.ndarray, np.ndarray]:
        """sf and cdf at t, each with a row for this system and one for its independent
        twin; the copula (or the product) at the marginals' cdf values for a parallel system
        of several components and at their sf values otherwise, the other side one minus it.
        The marginal values lie in [0, 1] and reach the kernel unchecked, as 1-d rows even
        for a number t: numpy rounds a scalar's ``**`` unlike an array's."""
        parallel = self.n > 1 and self.structure == "parallel"
        rows = np.array([(m.cdf if parallel else m.sf)(t) for m in self.marginals])
        if rows.ndim > 2:
            raise DomainError("t must be a number or a one-dimensional array")
        twin = rows.prod(axis=0)  # a lone component's own value
        dependent = self.mode == "dependent" and self.n > 1
        joint = np.array([self.copula._raw(*rows.reshape(self.n, -1)).reshape(twin.shape)
                          if dependent else twin, twin])
        return (1.0 - joint, joint) if parallel else (joint, 1.0 - joint)

    def sf(self, t):
        """Survival probability of the system lifetime at t, a number or a
        one-dimensional array of times; a float or an array of the same length."""
        return scalar_or_array(self.sides(t)[0][0])

    def cdf(self, t):
        """Distribution function of the system lifetime at t, shaped like ``sf``."""
        return scalar_or_array(self.sides(t)[1][0])

    def _rates(self, t, h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Six rows of values at each t, their reason codes, and sf at each t
        the marginals accept (all but t < 0): the hr error (the log-derivative
        of this system's sf over its twin's), this system's hazard and its
        twin's, then the same three for the reversed hazard (cdf); from one
        ``sides`` call at those t and the stencil points."""
        stencil = Stencil(t, h)
        kept = ~(stencil.t < 0.0)
        k = np.count_nonzero(kept)
        sides = self.sides(np.concatenate([stencil.t[kept], stencil.points]))
        rows, at = [], np.full((6, stencil.t.size), np.nan)
        for i, (own, twin) in enumerate(sides):
            with np.errstate(divide="ignore", invalid="ignore"):
                rows += [own[k:] / twin[k:], own[k:], twin[k:]]
            at[3 * i + 1, kept], at[3 * i + 2, kept] = own[:k], twin[:k]
        rate, code = stencil.log_derivative(np.array(rows), at, _VANISHED)
        rate[:3] = -rate[:3]  # hazards are -d/dt ln sf
        return rate, code, sides[0][0, :k]

    def hazard(self, t, h=None):
        """-d/dt ln sf(t) by central differences with an adaptive step.

        ``t`` is a number or a one-dimensional array; raises DomainError if any
        t < 0, else SingularityError at the first t where it is undefined.
        """
        rate, code, _ = self._rates(_check_time(t), h)
        return defined_or_raise(t, rate[1], code[1])

    def reversed_hazard(self, t, h=None):
        """+d/dt ln cdf(t) by central differences, shaped and raising like ``hazard``."""
        rate, code, _ = self._rates(_check_time(t), h)
        return defined_or_raise(t, rate[4], code[4])

    def _kinks(self, lo: float, hi: float) -> np.ndarray:
        """The sorted times in (lo, hi) where the copula switches branch
        (``Copula._kink``), found from the marginals alone.  Each sign change of
        ln(-phi_i(u_i)) - ln(-phi_j(u_j)), which has the sign changes of
        phi_i - phi_j and is nearly linear in t, between 1024 log-spaced times
        from max(lo, 1e-12 hi) to hi is refined by five Illinois steps."""
        kink = self.copula._kink() if self.mode == "dependent" and self.n > 1 else None
        if kink is None:
            return np.empty(0)
        scale, flipped = (np.array(x)[:, None] for x in kink)
        on_cdf = flipped != (self.structure == "parallel")  # where phi_i reads a cdf
        i, j = np.array(list(itertools.combinations(range(self.n), 2))).T

        def gaps(x):
            cdf = np.array([m.cdf(x) for m in self.marginals])
            sf = np.array([m.sf(x) for m in self.marginals])
            w, c = np.where(on_cdf, cdf, sf), np.where(on_cdf, sf, cdf)  # c = 1 - w
            with np.errstate(divide="ignore", invalid="ignore"):
                # ln w from the side that keeps its digits: far out, w rounds to 1
                y = np.log(-scale * np.where(w > 0.5, np.log1p(-c), np.log(w)))
                g = y[i] - y[j]
            return np.where(np.isfinite(g), g, np.nan)  # where a side underflows

        first = max(lo, 1e-12 * hi)
        x = first * (hi / first) ** _KINK_PROBES
        g = gaps(x)
        pair, k = np.nonzero(g[:, :-1] * g[:, 1:] < 0.0)
        a, b, fa, fb = x[k], x[k + 1], g[pair, k], g[pair, k + 1]
        for _ in range(5 if pair.size else 0):
            c = b - fb * ((b - a) / (fb - fa))
            fc = gaps(c)[pair, np.arange(c.size)]
            # Illinois: the end kept has its value halved
            swap = fc * fb < 0.0
            a, fa = np.where(swap, b, a), np.where(swap, fb, 0.5 * fa)
            b, fb = c, fc
        return np.unique(b[(lo < b) & (b < hi)])

    def _mrl(self, t: np.ndarray, sft=None) -> tuple[np.ndarray, list]:
        """Mean residual life at each t of a one-dimensional array and each
        point's error (None where it is defined), from sf at t (``sft``, one sf
        call if not given), one sf call at the truncation candidates of the
        points above _SF_FLOOR and one batched quadrature of the pieces between
        the distinct t that decay and the kink times, and one tail to the
        farthest truncation point.  A t's integral is the sum of the pieces from
        it on: each is >= 0 and within the tolerance relative to itself, so the
        sum is too, and a failed piece fails every sum that holds it."""
        if sft is None:
            sft = self.sf(t)
        errors = [SingularityError("survival function vanished", t=x) if s <= _SF_FLOOR
                  else None for x, s in zip(t.tolist(), sft.tolist())]
        live = np.flatnonzero(~(sft <= _SF_FLOOR))
        start, sft = t[live], sft[live]
        scale = max(m.mean() for m in self.marginals)
        if not np.isfinite(scale):  # a component mean past the float range
            return np.full(t.shape, np.nan), [e or IntegrationError(
                f"truncation scale {scale} is not finite; refusing to truncate") for e in errors]
        cap = start + 50.0 * scale
        uppers = [start + scale]
        # far out, t + s == t: a t whose candidates stall there is refused below
        for _ in range(_CANDIDATES - 1):
            uppers.append(np.minimum(cap, start + 2.0 * (uppers[-1] - start)))
        uppers = np.stack(uppers, axis=-1)
        values = self.sf(uppers.ravel()).reshape(uppers.shape)
        k = np.argmax((uppers >= cap[:, None]) | ~(values > 1e-12 * sft[:, None]), axis=1)
        upper, values = (x[np.arange(k.size), k] for x in (uppers, values))
        decays = ~(values > 1e-6 * sft)
        left = right = np.unique(start[decays])
        if left.size:
            far = upper[decays].max()
            left = np.union1d(left, self._kinks(left[0], far))
            right = np.append(left[1:], far)
        pieces, bad = _integrate(self.sf, left, right)
        owner = np.searchsorted(left, start[decays])
        integral = np.cumsum(pieces[::-1])[::-1][owner]
        failed = np.logical_or.accumulate(bad[::-1])[::-1][owner]
        mrl = np.full(t.shape, np.nan)
        mrl[live[decays]] = integral / sft[decays]
        for i in np.flatnonzero(~decays):
            errors[live[i]] = IntegrationError(f"survival function is not decaying on "
                                               f"({start[i]}, {upper[i]}); refusing to truncate")
        for i in np.flatnonzero(decays)[failed]:
            errors[live[i]] = IntegrationError(f"quadrature on ({start[i]}, {upper[i]}) did "
                                               f"not converge within {_MAX_PANELS} panels")
        return mrl, errors

    def mrl(self, t):
        """Mean residual life: integral of sf over (t, inf) divided by sf(t).

        ``t`` is a number or a one-dimensional array; raises the error of the
        first t where it is undefined.  A t is refused unless sf falls to 1e-6
        of sf(t) by the first of t + s, t + 2s, t + 4s, ... (s the largest
        component mean, capped at t + 50s) where it has fallen to 1e-12 of
        sf(t); the integral then runs to the farthest such point of all t.  The
        candidates of all t are evaluated in one sf call, and the integrals
        from one quadrature of the gaps between the t and the copula's kink
        times, and one shared tail.
        """
        values, errors = self._mrl(np.atleast_1d(np.asarray(t, dtype=float)))
        _raise_first(errors)
        return scalar_or_array(values.reshape(np.shape(t)))

    def ai(self, t):
        """Aging intensity t hr(t) / -ln sf(t) at a number or a one-dimensional
        array; DomainError if any t <= 0, else SingularityError at the first t
        where it is undefined."""
        if np.any(np.asarray(t) <= 0):
            raise DomainError(REASONS[AI_NEEDS_POSITIVE_T])
        rate, code, sf = self._rates(t, None)
        return defined_or_raise(t, *_aging_intensity(np.atleast_1d(t), rate[1], code[1], sf))

    def curve(self, grid) -> "ReliabilityCurve":
        return ReliabilityCurve.build(self, grid)


@dataclass(frozen=True)
class ReliabilityCurve:
    """Grid evaluation of all aging functions for one system.

    Cells that are undefined at a grid point (singularities at the support
    edges) hold NaN and carry an entry in ``flags`` instead of a silent zero.
    """

    grid: np.ndarray
    sf: np.ndarray
    hr: np.ndarray
    rhr: np.ndarray
    mrl: np.ndarray
    ai: np.ndarray
    flags: tuple[tuple[int, str, str], ...] = field(default_factory=tuple)

    @staticmethod
    def build(system: System, grid) -> "ReliabilityCurve":
        """sf, hr and rhr from one evaluation at the grid and its stencil, ai
        from those, and mrl from one batched quadrature; flags in row order,
        then column order."""
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1:
            raise DomainError("grid must be one-dimensional")
        if grid.size and (np.any(np.diff(grid) <= 0) or grid[0] < 0):
            raise DomainError("grid must be strictly increasing and nonnegative")
        rate, code, sf = system._rates(grid, None)
        ai, ai_code = _aging_intensity(grid, rate[1], code[1], sf)
        mrl, errors = system._mrl(grid, sf)
        # a column per entry of CURVE_COLUMNS, sf always defined, mrl 1 where it is not
        codes = np.stack([np.zeros_like(ai_code), code[1], code[4],
                          [e is not None for e in errors], ai_code], axis=-1)
        flags = tuple((int(i), CURVE_COLUMNS[j],
                       str(errors[i]) if CURVE_COLUMNS[j] == "mrl" else REASONS[codes[i, j]])
                      for i, j in zip(*np.nonzero(codes)))
        return ReliabilityCurve(grid, sf, rate[1], rate[4], mrl, ai, flags)

    def _table(self) -> tuple[tuple[str, ...], list[np.ndarray]]:
        return ("t",) + CURVE_COLUMNS, [self.grid, *(getattr(self, n) for n in CURVE_COLUMNS)]

    def to_csv(self, provenance: dict | None = None) -> str:
        return tables.to_csv(*self._table(), provenance)

    def to_markdown(self, provenance: dict | None = None) -> str:
        return tables.to_markdown(*self._table(), provenance)

    def to_json(self, provenance: dict | None = None) -> str:
        flags = [{"row": i, "column": c, "reason": r} for i, c, r in self.flags]
        return tables.to_json({**dict(zip(*self._table())), "flags": flags}, provenance)
