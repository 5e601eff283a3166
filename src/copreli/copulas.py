"""Copula families and their survival counterparts.

Twelve families ship: the independence product, Farlie-Gumbel-Morgenstern,
Fischer-Kock, Clayton, Gumbel-Hougaard, Gumbel-Barnet, Nelsen's tenth
family, Marshall-Olkin, Ali-Mikhail-Haq, Fischer-Hinzmann, an n-variate
extension of the Rodriguez-Lallena / Ubeda-Flores perturbation, and the
bivariate linear Spearman copula.

Every family evaluates at points of the unit hypercube of shape (..., dim),
through a kernel taking one row per coordinate.  ``survival_value`` returns
the survival copula of every family through the inclusion-exclusion
conversion ``poincare_survival``.

Spec strings look like ``fgm:alpha=0.5`` or
``marshall_olkin:alpha1=0.5,alpha2=1.5``; ``parse_copula`` and
``Copula.spec_string`` round-trip bit-exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields
from numbers import Integral
from typing import ClassVar

import numpy as np

from .exceptions import CapacityError, ConfigError, DomainError
from .numerics import is_real, scalar_or_array

__all__ = [
    "Copula",
    "Independence",
    "Fgm",
    "FischerKock",
    "Clayton",
    "GumbelHougaard",
    "GumbelBarnet",
    "NelsenTen",
    "MarshallOlkin",
    "Amh",
    "FischerHinzmann",
    "RluExtended",
    "LinearSpearman",
    "poincare_survival",
    "parse_copula",
    "FAMILIES",
    "MAX_POINCARE_DIM",
]

MAX_POINCARE_DIM = 20
_TINY = np.finfo(float).tiny
# the product of the rows; math.prod would start with 1 * u1, a whole pass on a Dual row
_prod = functools.partial(functools.reduce, operator.mul)


def _boolean(text: str) -> bool:
    """true/1/yes or false/0/no, in any case; ValueError otherwise."""
    word = text.lower()
    if word not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(text)
    return word in ("true", "1", "yes")


def _as_points(u, dim: int) -> np.ndarray:
    pts = np.asarray(u, dtype=float)
    if pts.shape[-1:] != (dim,):
        raise DomainError(
            f"point has {pts.shape[-1] if pts.ndim else 0} coordinates, copula has dimension {dim}"
        )
    if ((pts < 0.0) | (pts > 1.0)).any():
        raise DomainError("copula arguments must lie in the unit hypercube")
    return pts


def _rows(pts: np.ndarray) -> np.ndarray:
    """Points (..., dim) as 1-d rows: numpy rounds a scalar's ``**`` unlike an array's."""
    return pts.reshape(-1, pts.shape[-1]).T


class Copula:
    """Common machinery for all families; concrete families are frozen dataclasses.

    ``radially_symmetric`` marks the families that the source material treats
    as radially symmetric.  It only selects which families get the radial
    duality check (``check_radial_duality``, ``copreli verify``); it plays no
    part in ``survival_value``, because the substitution it suggests is exact
    only for the bivariate FGM family.

    Each family declares its parameters once, as class data that validation,
    ``parse_copula`` and ``spec_string`` read.  ``domain`` maps every field
    but the boolean flags, in order, to ``(low, high, brackets)`` such as
    ``(0.0, inf, "(]")`` (values must also be finite); its ``dim`` entry is
    None for any integer >= 2, or the one dimension the family takes.
    ``vectors`` names the fields holding one value per coordinate; each entry
    obeys the field's interval, and ``dim`` defaults to the first one's
    length.  A new family is a frozen dataclass giving ``family``,
    ``domain``, ``vectors`` if any, ``_raw`` and, for a kernel that switches
    branch, ``_kink``.

    Parameters are checked once, when an instance is built: an instance
    outside its domain raises DomainError listing the scalar entries in
    ``domain`` order, then each vector of the wrong length, then each vector
    entry out of range; so ``param_violations()`` of a built copula is
    empty.  Numpy scalars are accepted: a built copula holds python floats
    and an int ``dim``.
    """

    family: ClassVar[str]
    radially_symmetric: ClassVar[bool] = False
    margin_axiom_exempt: ClassVar[bool] = False
    domain: ClassVar[dict[str, tuple[float, float, str] | int | None]]
    vectors: ClassVar[tuple[str, ...]] = ()

    dim: int

    def __init_subclass__(cls):
        # bench/tracing.py and the tests wrap param_violations in each family's own __dict__
        cls.param_violations = Copula.param_violations

    def param_violations(self) -> list[str]:
        """Total validation: a list of human-readable violations, empty when ok."""
        def outside(name, value, low, high, brackets):
            if is_real(value) and math.isfinite(value) and (
                    low < value if brackets[0] == "(" else low <= value) and (
                    value < high if brackets[1] == ")" else value <= high):
                return []
            return [f"{name}={value!r} outside {brackets[0]}{low!r}, {high!r}{brackets[1]}"]

        out, lengths, entries = [], [], []
        for name, bounds in self.domain.items():
            value = getattr(self, name)
            if name in self.vectors:
                if len(value) != self.dim:
                    lengths.append(f"{name} has {len(value)} entries for dimension {self.dim}")
                for i, x in enumerate(value, 1):
                    entries += outside(f"{name}{i}", x, *bounds)
            elif name != "dim":
                out += outside(name, value, *bounds)
            elif bounds is not None and not (isinstance(value, Integral) and value == bounds):
                out.append(f"dim={value!r} must be {bounds} for {self.family}")
            elif bounds is None and not (isinstance(value, Integral) and value >= 2):
                out.append(f"dim={value!r} must be an integer >= 2")
        return out + lengths + entries

    def _raw(self, *u) -> np.ndarray:
        """C at checked points, one row per coordinate: arrays or numbers that
        broadcast together, the first maybe a ``numerics.Dual`` and the others
        real.  It uses numpy ufuncs in ``Dual``'s rule table, ``_prod`` and
        ``np.where``; no ``abs``, ``float()`` or ``math``, because
        ``montecarlo.conditional_cdf`` differentiates through it.  Where it
        switches branch is ``_kink``."""
        raise NotImplementedError

    def _kink(self) -> tuple[tuple[float, ...], tuple[bool, ...]] | None:
        """(scale, flipped) of a kernel that switches branch wherever phi_i(u_i) =
        phi_j(u_j) for two coordinates, phi_i(u) = scale_i ln u, or scale_i
        ln(1 - u) where flipped_i, each scale_i > 0; None for a smooth kernel."""
        return None

    def _switch_v2(self, v1: np.ndarray) -> np.ndarray | None:
        """The v2 where the bivariate kernel switches branch when u1 = v1, phi_2(v2)
        = phi_1(v1), or None for a smooth kernel; the sampler splits its bracket there."""
        kink = self._kink()
        if kink is None:
            return None
        (s1, s2), flipped = kink
        w = (1.0 - v1 if flipped[0] else v1) ** (s1 / s2)
        return 1.0 - w if flipped[1] else w

    def __post_init__(self):
        for name in self.vectors:
            entries = np.array(getattr(self, name), dtype=object, ndmin=1)
            object.__setattr__(self, name, tuple(float(x) if is_real(x) else x for x in entries))
        if self.dim is None and self.vectors:
            object.__setattr__(self, "dim", len(getattr(self, self.vectors[0])))
        bad = self.param_violations()
        if bad:
            raise DomainError(f"invalid {self.family} parameters: " + "; ".join(bad))
        for name in self.domain:  # after the check, so messages show the values as given
            if name not in self.vectors:
                convert = operator.index if name == "dim" else float
                object.__setattr__(self, name, convert(getattr(self, name)))

    def value(self, u):
        """Copula value C(u); raises DomainError on points outside the unit hypercube."""
        pts = _as_points(u, self.dim)
        return scalar_or_array(self._raw(*_rows(pts)).reshape(pts.shape[:-1]))

    def survival_value(self, uhat):
        """Survival copula at uhat, by inclusion-exclusion over coordinate subsets.

        Equals ``poincare_survival(self, 1 - uhat)``; raises DomainError on
        points outside the unit hypercube.
        """
        return poincare_survival(self, 1.0 - _as_points(uhat, self.dim))

    def spec_string(self) -> str:
        parts = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "dim":
                if v != 2:
                    parts.append(f"dim={v}")
            elif f.name in self.vectors:
                parts.extend(f"{f.name}{i + 1}={x!r}" for i, x in enumerate(v))
            elif f.name not in self.domain:
                if v:
                    parts.append(f"{f.name}=true")
            else:
                parts.append(f"{f.name}={v!r}")
        if not parts:
            return self.family
        return self.family + ":" + ",".join(parts)

    def __str__(self) -> str:
        return self.spec_string()


def poincare_survival(copula: Copula, u) -> float | np.ndarray:
    """Joint survival value 1 - S1 + S2 - ... from copula values at ``u``.

    ``S_k`` sums the copula over all k-subsets of coordinates, with the
    remaining coordinates marginalised by setting them to 1.  For the
    independence copula this reduces to prod(1 - u_i).
    """
    pts = _as_points(u, copula.dim)
    n = copula.dim
    if n > MAX_POINCARE_DIM:
        raise CapacityError(
            f"inclusion-exclusion over {n} coordinates needs 2^{n} copula evaluations"
        )
    rows, total = _rows(pts), 1.0
    for k in range(1, n + 1):
        sign = (-1.0) ** k
        for subset in itertools.combinations(range(n), k):
            total += sign * copula._raw(*(rows[i] if i in subset else 1.0 for i in range(n)))
    return scalar_or_array(total.reshape(pts.shape[:-1]))


@dataclass(frozen=True)
class Independence(Copula):
    """Product copula: C(u) = prod u_i."""

    dim: int = 2
    family: ClassVar[str] = "independence"
    domain: ClassVar[dict] = {"dim": None}

    def _raw(self, *u):
        return _prod(u)


@dataclass(frozen=True)
class Fgm(Copula):
    """Farlie-Gumbel-Morgenstern: (prod u_i) (1 + alpha prod (1 - u_i)), alpha in [-1, 1].

    The one genuinely radially symmetric family here, and only bivariately:
    in odd dimensions the survival copula is the FGM(-alpha) formula.
    """

    alpha: float
    dim: int = 2
    family: ClassVar[str] = "fgm"
    domain: ClassVar[dict] = {"alpha": (-1.0, 1.0, "[]"), "dim": None}
    radially_symmetric: ClassVar[bool] = True

    def _raw(self, *u):
        return _prod(u) * (1.0 + self.alpha * _prod(1.0 - v for v in u))


@dataclass(frozen=True)
class FischerKock(Copula):
    """Fischer-Kock: (prod u_i) (1 + alpha prod (1 - u_i^(1/r)))^r, r >= 1, alpha in [-1, 1].

    Coincides with FGM at r = 1.  Flagged radially symmetric following the
    source material's usage; the substitution identity is exact only at r = 1
    in two dimensions.
    """

    r: float
    alpha: float
    dim: int = 2
    family: ClassVar[str] = "fischer_kock"
    domain: ClassVar[dict] = {"r": (1.0, math.inf, "[]"), "alpha": (-1.0, 1.0, "[]"), "dim": None}
    radially_symmetric: ClassVar[bool] = True

    def _raw(self, *u):
        inner = 1.0 + self.alpha * _prod(1.0 - v ** (1.0 / self.r) for v in u)
        return _prod(u) * inner**self.r


@dataclass(frozen=True)
class Clayton(Copula):
    """Clayton: (sum u_i^(-alpha) - (n - 1))^(-1/alpha), alpha > 0.

    The -(n-1) constant keeps uniform margins in every dimension and matches
    the bivariate -1 form.
    """

    alpha: float
    dim: int = 2
    family: ClassVar[str] = "clayton"
    domain: ClassVar[dict] = {"alpha": (0.0, math.inf, "(]"), "dim": None}

    def _raw(self, *u):
        m = functools.reduce(np.minimum, u)
        # factor out min(u)^(-alpha) so no intermediate overflows
        ratios = (np.where(v > 0, m / np.where(v > 0, v, 1.0), 1.0) for v in u)
        inner = sum(x**self.alpha for x in ratios) - (self.dim - 1) * m**self.alpha
        return np.where(m > 0.0, m * inner ** (-1.0 / self.alpha), 0.0)


@dataclass(frozen=True)
class GumbelHougaard(Copula):
    """Gumbel-Hougaard: exp(-(sum (-ln u_i)^alpha)^(1/alpha)), alpha >= 1."""

    alpha: float
    dim: int = 2
    family: ClassVar[str] = "gumbel_hougaard"
    domain: ClassVar[dict] = {"alpha": (1.0, math.inf, "[]"), "dim": None}

    def _raw(self, *u):
        with np.errstate(divide="ignore", invalid="ignore"):
            x = [-np.log(v) for v in u]
            big = functools.reduce(np.maximum, x)
            interior = np.isfinite(big) & (big > 0)
            scale = np.where(interior, big, 1.0)
            ratios = (np.where(np.isfinite(v), v, 0.0) / scale for v in x)
            s = scale * sum(r**self.alpha for r in ratios) ** (1.0 / self.alpha)
            # big = 0: all coordinates at 1
            return np.where(interior, np.exp(-s), np.where(big == 0.0, 1.0, 0.0))


@dataclass(frozen=True)
class GumbelBarnet(Copula):
    """Gumbel-Barnet: (prod u_i) exp(-alpha prod ln u_i), alpha in [0, 1].

    The log product changes sign with dimension parity; only the bivariate
    form observes the min(u_i) upper bound, so dimensions above 2 are for
    exploratory use.
    """

    alpha: float
    dim: int = 2
    family: ClassVar[str] = "gumbel_barnet"
    domain: ClassVar[dict] = {"alpha": (0.0, 1.0, "[]"), "dim": None}

    def _raw(self, *u):
        safe = [np.where(v > 0, v, 0.5) for v in u]
        val = _prod(safe) * np.exp(-self.alpha * _prod(np.log(v) for v in safe))
        return np.where(functools.reduce(np.minimum, u) == 0.0, 0.0, val)


@dataclass(frozen=True)
class NelsenTen(Copula):
    """Nelsen's family ten: prod u_i / (1 + prod (1 - u_i^alpha))^(1/alpha), alpha in (0, 1]."""

    alpha: float
    dim: int = 2
    family: ClassVar[str] = "nelsen_ten"
    domain: ClassVar[dict] = {"alpha": (0.0, 1.0, "(]"), "dim": None}

    def _raw(self, *u):
        prod_term = _prod(1.0 - v**self.alpha for v in u)
        return _prod(u) * np.exp(-np.log1p(prod_term) / self.alpha)


@dataclass(frozen=True)
class MarshallOlkin(Copula):
    """Marshall-Olkin (as used here): (prod u_i) min_i u_i^(alpha_i), alpha_i > 0.

    This literal form does not have uniform margins, so it is exempted from
    the margin axiom; it is flagged radially symmetric following the source
    usage, although its survival copula differs from the formula.
    """

    alpha: tuple[float, ...]
    dim: int | None = None  # None: the length of alpha
    family: ClassVar[str] = "marshall_olkin"
    domain: ClassVar[dict] = {"dim": None, "alpha": (0.0, math.inf, "(]")}
    vectors: ClassVar[tuple[str, ...]] = ("alpha",)
    margin_axiom_exempt: ClassVar[bool] = True
    radially_symmetric: ClassVar[bool] = True

    def _raw(self, *u):
        return _prod(u) * functools.reduce(np.minimum, [v**a for v, a in zip(u, self.alpha)])

    def _kink(self):
        return self.alpha, (False,) * self.dim


@dataclass(frozen=True)
class Amh(Copula):
    """Ali-Mikhail-Haq: (1 - alpha) / (prod ((1 - alpha)/u_i + alpha) - alpha), alpha in [-1, 1].

    Evaluated as 1 / (1 + sum_k (1 - alpha)^(k-1) e_k(w)), w_i = (1 - u_i)/u_i,
    whose terms are all >= 0, so nothing cancels as alpha -> 1.  C <= min(u),
    so a point with a u below the smallest normal float reads 0 and w stays finite.
    """

    alpha: float
    dim: int = 2
    family: ClassVar[str] = "amh"
    domain: ClassVar[dict] = {"alpha": (-1.0, 1.0, "[]"), "dim": None}

    def _raw(self, *u):
        safe = (np.where(v < _TINY, 0.5, v) for v in u)
        s, *w = [(1.0 - v) / v for v in safe]
        with np.errstate(over="ignore"):  # s = inf only where C underflows
            for x in w:  # the sum over k, one coordinate at a time
                s = s * (1.0 + (1.0 - self.alpha) * x) + x
        return np.where(functools.reduce(np.minimum, u) < _TINY, 0.0, 1.0 / (1.0 + s))


@dataclass(frozen=True)
class FischerHinzmann(Copula):
    """Fischer-Hinzmann: [ (alpha min_i u_i)^m + ((1-alpha) prod u_i)^m ]^(1/m).

    m >= 1, alpha in [0, 1].  The literal form above scales margins by
    (alpha^m + (1-alpha)^m)^(1/m) and is therefore margin-exempt; with
    ``corrected=True`` the weights sit outside the power,
    [ alpha (min u)^m + (1-alpha) (prod u)^m ]^(1/m), which restores uniform
    margins.
    """

    m: float
    alpha: float
    dim: int = 2
    corrected: bool = False
    family: ClassVar[str] = "fischer_hinzmann"
    domain: ClassVar[dict] = {"m": (1.0, math.inf, "[]"), "alpha": (0.0, 1.0, "[]"), "dim": None}
    radially_symmetric: ClassVar[bool] = True

    @property
    def margin_axiom_exempt(self) -> bool:
        return not self.corrected

    def _raw(self, *u):
        least = functools.reduce(np.minimum, u)
        prod_u = _prod(u)
        if self.corrected:
            # least (a + (1 - a) r^m)^(1/m), r = prod/least in [0, 1], with the larger of a and
            # r^m factored out leaves a sum in [1, 2]; at u = (1, ..., 1) it is fl(1 - a) + a = 1
            a, r = self.alpha, prod_u / np.where(least > 0, least, 1.0)
            rm = r ** self.m
            root = np.where(rm >= a, r, a ** (1.0 / self.m))
            rest = np.where(rm >= a, 1.0 - a + a / np.maximum(rm, a or 1.0),
                            1.0 + (1.0 - a) * np.minimum(rm, a) / (a or 1.0))
            return least * root * rest ** (1.0 / self.m)
        # factor out the dominant term before taking m-th powers so large m
        # cannot underflow the sum
        x = self.alpha * least
        y = (1.0 - self.alpha) * prod_u
        big = np.maximum(x, y)
        small = np.minimum(x, y)
        safe = np.where(big > 0, big, 1.0)
        return big * (1.0 + (small / safe) ** self.m) ** (1.0 / self.m)

    def _kink(self):
        return (1.0,) * self.dim, (False,) * self.dim


@dataclass(frozen=True)
class RluExtended(Copula):
    """n-variate Rodriguez-Lallena / Ubeda-Flores perturbation of independence.

    C(u) = prod u_i + alpha prod u_i^(a_i) (1 - u_i)^(b_i), a_i, b_i >= 1,
    alpha in [0, 1].  The perturbation peaks where u_i = a_i/(a_i + b_i),
    which is what makes the ratio against the product copula non-monotone.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    alpha: float
    dim: int | None = None  # None: the length of a
    family: ClassVar[str] = "rlu_extended"
    domain: ClassVar[dict] = {"dim": None, "alpha": (0.0, 1.0, "[]"),
                              "a": (1.0, math.inf, "[]"), "b": (1.0, math.inf, "[]")}
    vectors: ClassVar[tuple[str, ...]] = ("a", "b")

    def _raw(self, *u):
        bump = _prod(v**a * (1.0 - v) ** b for v, a, b in zip(u, self.a, self.b))
        return _prod(u) + self.alpha * bump

    def ratio_thresholds(self) -> tuple[float, ...]:
        """k_i = (a_i - 1)/(a_i + b_i - 1): where the i-th bump factor peaks on the u scale."""
        return tuple((ai - 1.0) / (ai + bi - 1.0) for ai, bi in zip(self.a, self.b))


@dataclass(frozen=True)
class LinearSpearman(Copula):
    """Bivariate linear Spearman copula, theta in [-1, 1].

    theta >= 0: u1 u2 + theta min(u1, u2) (1 - max(u1, u2));
    theta <  0: (1 + theta) u1 u2 on u1 + u2 < 1,
                u1 u2 + theta (1 - u1)(1 - u2) elsewhere.
    Carries a singular component of mass |theta| on the diagonal.
    """

    theta: float
    dim: int = 2
    family: ClassVar[str] = "linear_spearman"
    domain: ClassVar[dict] = {"theta": (-1.0, 1.0, "[]"), "dim": 2}

    def _raw(self, u1, u2):
        base = u1 * u2
        if self.theta >= 0.0:
            lo = np.minimum(u1, u2)
            hi = np.maximum(u1, u2)
            return base + self.theta * lo * (1.0 - hi)
        return np.where(
            u1 + u2 < 1.0,
            (1.0 + self.theta) * base,
            base + self.theta * (1.0 - u1) * (1.0 - u2),
        )

    def _kink(self):  # u1 = u2 for theta >= 0, u1 = 1 - u2 below
        return (1.0, 1.0), (False, self.theta < 0.0)


FAMILIES: dict[str, type[Copula]] = {
    cls.family: cls
    for cls in (
        Independence,
        Fgm,
        FischerKock,
        Clayton,
        GumbelHougaard,
        GumbelBarnet,
        NelsenTen,
        MarshallOlkin,
        Amh,
        FischerHinzmann,
        RluExtended,
        LinearSpearman,
    )
}


def parse_copula(spec: str) -> Copula:
    """Parse ``family:key=value,...`` into a copula instance.

    Keys are the family's dataclass fields.  Vector parameters use indexed
    keys (``alpha1=...,alpha2=...``); the dimension is ``dim=N`` when given,
    else the length of the first vector, else the family default.
    """
    text = spec.strip()
    name, sep, rest = text.partition(":")
    name = name.strip().lower()
    if name not in FAMILIES:
        raise ConfigError(
            f"unknown copula family {name!r} (known: {', '.join(sorted(FAMILIES))})", token=name
        )
    kv: dict[str, str] = {}
    if sep and rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if not eq or not key or not value:
                raise ConfigError(f"copula spec {spec!r}: expected key=value, got {item!r}",
                                  token=item.strip())
            if key in kv:
                raise ConfigError(f"copula spec {spec!r}: duplicate key {key!r}", token=key)
            kv[key] = value
    elif sep:
        raise ConfigError(f"copula spec {spec!r}: empty parameter list", token=text)

    def take(key: str, convert=float, kind="a number"):
        raw = kv.pop(key)
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"copula spec {spec!r}: {key}={raw!r} is not {kind}",
                              token=raw) from None

    cls = FAMILIES[name]
    params = {"dim": take("dim", int, "an integer")} if "dim" in kv else {}
    for f in fields(cls):
        if f.name == "dim":
            continue
        if f.name not in cls.domain:  # a boolean flag
            params[f.name] = f.name in kv and take(f.name, _boolean, "yes/no, true/false or 1/0")
        elif f.name in cls.vectors:
            count = next(i for i in itertools.count(1) if f"{f.name}{i}" not in kv) - 1
            if not count:
                raise ConfigError(f"copula spec {spec!r}: missing vector parameter "
                                  f"{f.name}1, {f.name}2, ...", token=f.name)
            params[f.name] = tuple(take(f"{f.name}{i}") for i in range(1, count + 1))
        elif f.name in kv:
            params[f.name] = take(f.name)
        else:
            raise ConfigError(f"copula spec {spec!r}: missing parameter {f.name!r}", token=f.name)
    if kv:
        extra = ", ".join(sorted(kv))
        raise ConfigError(f"copula spec {spec!r}: unknown parameter(s) {extra}", token=extra)
    return cls(**params)
