"""Shared derivative helpers: finite differences and dual numbers.

All hazard-type quantities in this package are log-derivatives of smooth,
strictly positive functions, so a central stencil with a step proportional
to t is accurate to ~1e-8 relative and exact for log-quadratic laws.

The stencil works on whole grids: each function is evaluated once, on both
sides of every point, and a stack of functions gives one row each.  Every
point carries a reason code, an index into ``REASONS`` (0 where it is
defined); the message is looked up only where a point is flagged or raised.
``scalar_or_array`` is the package's one rule for results: one with no axes
is returned as a python float.
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
    "Dual",
]

_TINY = 1e-12

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


class Dual(np.lib.mixins.NDArrayOperatorsMixin):
    """A value row ``x`` and its derivative row ``dx`` for forward-mode
    differentiation (Griewank & Walther 2008, ch. 3): the complex step's exact
    first derivative in real arithmetic.  The ufuncs in ``_RULES`` (operators
    too) and ``np.where`` act on both rows; a comparison, ``minimum`` or
    ``maximum`` breaks an exact tie of values by the derivative, as numpy
    orders complex numbers, so a kink gives the complex step's one-sided
    derivative.  Another ufunc, a dual exponent, ``abs`` or ``float()`` raises.
    """

    def __init__(self, x, dx):
        self.x, self.dx = x, dx

    shape = property(lambda self: np.shape(self.x))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rule = _RULES.get(ufunc) if method == "__call__" and not kwargs else None
        return NotImplemented if rule is None else rule(*(p for a in inputs for p in _parts(a)))

    def __array_function__(self, func, types, args, kwargs):
        if func is not np.where or len(args) != 3 or kwargs:
            return NotImplemented
        (x, dx), (y, dy) = _parts(args[1], 0.0), _parts(args[2], 0.0)
        return Dual(np.where(args[0], x, y), np.where(args[0], dx, dy))


def _parts(a, zero=None):
    """(value, derivative); None, a plain operand's, is a zero that makes no pass and no inf * 0."""
    return (a.x, a.dx) if isinstance(a, Dual) else (a, zero)


def _plus(dx, dy, y=1.0):  # dx + y dy, either derivative None
    return dx if dy is None else dy * y if dx is None else dx + dy * y


def _ordered(op, value=None):
    """``op`` on the values, on the derivatives where they tie; with ``value``,
    the Dual of value(x, y) and the derivative that ``op`` picks."""
    def rule(x, dx, y, dy):
        dx, dy = (0.0 if d is None else d for d in (dx, dy))
        first = np.where(x == y, op(dx, dy), op(x, y))
        return first if value is None else Dual(value(x, y), np.where(first, dx, dy))
    return rule


_RULES = {
    np.add: lambda x, dx, y, dy: Dual(x + y, _plus(dx, dy)),
    np.subtract: lambda x, dx, y, dy: Dual(x - y, _plus(dx, dy, -1.0)),
    np.multiply: lambda x, dx, y, dy: Dual(x * y, _plus(None if dx is None else dx * y, dy, x)),
    # (dx - q dy) / y, with no 0/0 where y^2 underflows
    np.true_divide: lambda x, dx, y, dy: (lambda q: Dual(q, _plus(dx, dy, -q) / y))(x / y),
    np.power: lambda x, dx, y, dy: NotImplemented if dy is not None else Dual(
        x**y, y * x ** (y - 1.0) * dx),
    np.negative: lambda x, dx: Dual(-x, -dx),
    np.log: lambda x, dx: Dual(np.log(x), dx / x),
    np.log1p: lambda x, dx: Dual(np.log1p(x), dx / (1.0 + x)),
    np.exp: lambda x, dx: (lambda y: Dual(y, y * dx))(np.exp(x)),
    np.expm1: lambda x, dx: Dual(np.expm1(x), np.exp(x) * dx),
    np.isfinite: lambda x, dx: np.isfinite(x),
    np.isnan: lambda x, dx: np.isnan(x),
    np.minimum: _ordered(np.less_equal, np.minimum),
    np.maximum: _ordered(np.greater_equal, np.maximum),
    **{op: _ordered(op) for op in (np.less, np.less_equal, np.greater, np.greater_equal,
                                   np.equal, np.not_equal)},
}
