"""Shared derivative helpers: finite differences and the complex step.

All hazard-type quantities in this package are log-derivatives of smooth,
strictly positive functions, so a central stencil with a step proportional
to t is accurate to ~1e-8 relative and exact for log-quadratic laws.

The stencil works on whole grids: each function is evaluated once, on both
sides of every point, and a stack of functions gives one row each.  Every
point carries a reason code, an index into ``REASONS`` (0 where it is
defined); the message is looked up only where a point is flagged or raised.
``scalar_or_array`` is the package's one rule for results: one with no axes
is returned as a python float.
``complex_step`` takes exact first derivatives of functions that accept
complex arguments (the copula kernels).
"""

from __future__ import annotations

from collections.abc import Callable
from numbers import Real

import numpy as np

from .exceptions import DomainError, SingularityError

__all__ = [
    "scalar_or_array",
    "is_real",
    "adaptive_step",
    "Stencil",
    "REASONS",
    "defined_or_raise",
    "central_log_derivative",
    "central_derivative",
    "richardson_pair",
    "complex_step",
]

_TINY = 1e-12
_COMPLEX_STEP = 1e-30

# why a value is undefined, indexed by its reason code
REASONS = ("",
           "log-derivative needs an interior point t > 0",
           "function vanishes inside the stencil",
           "survival function vanished",
           "distribution function vanished",
           "aging intensity needs t > 0",
           "aging intensity undefined where sf is 0 or 1",
           "independent-counterpart survival vanished",
           "relative error undefined: the independent rate is 0")
(DEFINED, NOT_INTERIOR, VANISHES, SF_VANISHED, CDF_VANISHED, AI_NEEDS_POSITIVE_T,
 AI_UNDEFINED, IND_SF_VANISHED, ZERO_RATE) = range(len(REASONS))


def scalar_or_array(x):
    """``x`` as a python float when it has no axes, otherwise unchanged."""
    return float(x) if np.ndim(x) == 0 else x


def is_real(x) -> bool:
    """Whether ``x`` is a real number, numpy's included; a bool is not one."""
    return isinstance(x, Real) and not isinstance(x, bool)


def adaptive_step(t):
    """max(1e-6, 1e-4 t), for a number or an array of times."""
    return np.maximum(1e-6, 1e-4 * np.asarray(t, dtype=float))


class Stencil:
    """The central-difference stencil of a grid of times.

    The step defaults to ``adaptive_step(t)`` and shrinks to t/2 near 0; a
    time t <= 0 has no stencil.  ``points`` holds t - h, then t + h, for
    every time that has one: evaluate a function there in one call and pass
    the values to ``log_derivative``.
    """

    def __init__(self, t, h=None):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.ndim > 1:
            raise DomainError("t must be a number or a one-dimensional array")
        h = adaptive_step(t) if h is None else np.asarray(h, dtype=float)
        h = np.where(t - h <= 0.0, t / 2.0, h)
        self.t, self.h, self.interior = t, h, h > 0.0
        self.points = np.concatenate([(t - h)[self.interior], (t + h)[self.interior]])

    def log_derivative(self, values, at=None, vanished=None) -> tuple[np.ndarray, np.ndarray]:
        """(d/dt ln f, reason code) at each time, one row per row of ``values``,
        which holds each function f at ``points``.

        A code is 0 where the derivative is defined; elsewhere the derivative
        is NaN.  A value that is not finite counts as vanished (a ratio whose
        denominator underflowed).  With ``at``, each row's f at the times (NaN
        where not evaluated), a time where f <= 1e-12 gets that row's code in
        ``vanished`` instead.
        """
        values = np.asarray(values, dtype=float)
        lo, hi = np.full((2, values.shape[0], self.t.size), np.nan)
        half = values.shape[1] // 2
        lo[:, self.interior], hi[:, self.interior] = values[:, :half], values[:, half:]
        alive = (np.minimum(lo, hi) > _TINY) & (np.maximum(lo, hi) < np.inf)
        code = np.where(self.interior, np.where(alive, DEFINED, VANISHES), NOT_INTERIOR)
        if at is not None:
            code = np.where(at <= _TINY, np.asarray(vanished)[:, None], code)
        with np.errstate(divide="ignore", invalid="ignore"):
            derivative = np.where(code == DEFINED, (np.log(hi) - np.log(lo)) / (2.0 * self.h),
                                  np.nan)
        return derivative, code


def defined_or_raise(t, values: np.ndarray, code: np.ndarray):
    """``values`` shaped like ``t`` (a float for a number), or SingularityError
    with the reason of the first point whose ``code`` is not 0."""
    bad = np.flatnonzero(code)
    if bad.size:
        raise SingularityError(REASONS[code[bad[0]]], t=float(np.ravel(t)[bad[0]]))
    return scalar_or_array(values.reshape(np.shape(t)))


def central_log_derivative(f: Callable, t, h=None):
    """d/dt ln f(t) by central differences; the step shrinks near t = 0.

    ``t`` is a number or a one-dimensional array and ``f`` maps an array of
    times to an array.  Raises SingularityError at the first undefined point.
    """
    stencil = Stencil(t, h)
    rate, code = stencil.log_derivative([f(stencil.points)])
    return defined_or_raise(t, rate[0], code[0])


def central_derivative(f: Callable, t, h=None):
    """d/dt f(t) by central differences, for a number or an array of times.

    ``f`` maps an array of times to an array, or to a stack of arrays with
    one row per function; the step defaults to
    ``adaptive_step(t)`` and shrinks to t/2 near 0 (1e-6 at t <= 0).
    """
    t = np.asarray(t, dtype=float)
    h = adaptive_step(t) if h is None else np.asarray(h, dtype=float)
    h = np.where(t - h < 0.0, np.where(t > 0, t / 2.0, 1e-6), h)
    return scalar_or_array((f(t + h) - f(t - h)) / (2.0 * h))


def richardson_pair(coarse, fine, order: int = 2, ratio: float = 2.0):
    """Combine estimates at step h and h/ratio, cancelling the O(h^order) term."""
    factor = ratio**order
    return (factor * fine - coarse) / (factor - 1.0)


def complex_step(f: Callable, x: np.ndarray) -> np.ndarray:
    """df/dx at real ``x`` as Im f(x + i eps) / eps, with eps = 1e-30.

    ``f`` must accept complex arguments.  No difference of two values is
    taken, so nothing cancels and the result is exact to rounding wherever f
    is analytic (Squire & Trapp 1998).  At a kink, numpy orders complex
    numbers by real part and then by imaginary part, so f takes one branch
    and the result is that branch's one-sided derivative.
    """
    return f(x + 1j * _COMPLEX_STEP).imag / _COMPLEX_STEP
