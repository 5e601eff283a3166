"""Error measures for wrongly assuming independent components, with OA/UA verdicts.

All errors are signed ``dependent minus independent``; a negative value is an
over-assessment (OA) of the function in question, a positive value an
under-assessment (UA).  Survival-function errors have closed forms in the
copula; hazard and reversed-hazard errors are log-derivatives of the
corresponding ratios, taken with both systems' rates from one
``System._rates`` call, so the two routes agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tables
from .copulas import Copula
from .exceptions import DomainError, SingularityError
from .marginals import Marginal
from .numerics import (DEFINED, IND_SF_VANISHED, REASONS, ZERO_RATE, defined_or_raise,
                       scalar_or_array)
from .systems import _SF_FLOOR, System, _raise_first

__all__ = [
    "SystemPair",
    "ErrorReport",
    "VERDICT_TOL",
    "classify_assessment",
]

VERDICT_TOL = 1e-10

MEASURES = ("sf", "hr", "rhr", "mrl")


@dataclass(frozen=True)
class SystemPair:
    """A dependent system and its independence-assumption twin."""

    copula: Copula
    marginals: tuple[Marginal, ...]
    structure: str

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(self.marginals))
        if self.structure not in ("series", "parallel"):
            raise DomainError(f"structure must be series or parallel, got {self.structure!r}")

    @cached_property
    def dependent(self) -> System:
        return System(marginals=self.marginals, structure=self.structure,
                      mode="dependent", copula=self.copula)

    @cached_property
    def independent(self) -> System:
        return System(marginals=self.marginals, structure=self.structure, mode="independent")

    # --- survival function -------------------------------------------------

    def _sf_errors(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(raw, relative, reason code) survival-function errors at each t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        (dep, ind), _ = self.dependent.sides(t)
        vanished = ind <= _SF_FLOOR
        raw = np.where(vanished, np.nan, dep - ind)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = raw / ind
        return raw, rel, np.where(vanished, IND_SF_VANISHED, DEFINED)

    def sf_error(self, t):
        """(raw, relative) survival-function error at t, a number or an array."""
        raw, rel, code = self._sf_errors(t)
        return defined_or_raise(t, raw, code), defined_or_raise(t, rel, code)

    # --- hazard-type errors (log-ratio derivatives) ------------------------

    def hr_error(self, t, h=None):
        """Hazard-rate error: -d/dt ln( sf_dep / sf_ind ), at a number or an array."""
        rate, code, _ = self.dependent._rates(t, h)
        return defined_or_raise(t, rate[0], code[0])

    def rhr_error(self, t, h=None):
        """Reversed-hazard error: +d/dt ln( cdf_dep / cdf_ind ), at a number or an array."""
        rate, code, _ = self.dependent._rates(t, h)
        return defined_or_raise(t, rate[3], code[3])

    def mrl_error(self, t):
        """(raw, relative) mean-residual-life error at t, a number or an array;
        raises the first error in t order, the dependent system's first."""
        raw, rel, errors = self._mrl_errors(t)
        _raise_first(errors)
        return tuple(scalar_or_array(x.reshape(np.shape(t))) for x in (raw, rel))

    def error_report(self, grid, measure: str = "sf") -> "ErrorReport":
        """Evaluate one error measure over a grid, with per-point OA/UA verdicts.

        Each measure is evaluated on the whole grid at once, mrl by one
        batched quadrature per system.  A row whose error is undefined is NaN
        and flagged with the reason; a hazard-type row whose independent rate
        is undefined or 0 keeps its raw error, with the relative error NaN and
        the row flagged.  An mrl error other than a SingularityError is raised at
        the first t where it occurs, the dependent system's first.
        """
        if measure not in MEASURES:
            raise DomainError(f"measure must be one of {MEASURES}, got {measure!r}")
        grid = np.asarray(grid, dtype=float)
        if measure == "mrl":
            raw, rel, errors = self._mrl_errors(grid)
            _raise_first([e for e in errors if not isinstance(e, SingularityError)])
            flags = tuple((i, str(e)) for i, e in enumerate(errors) if e is not None)
        else:
            if measure == "sf":
                raw, rel, code = self._sf_errors(grid)
            else:
                rate, codes, _ = self.dependent._rates(grid, None)
                row = 0 if measure == "hr" else 3
                raw, code, ind, ind_code = rate[row], codes[row], rate[row + 2], codes[row + 2]
                code = np.where(code == DEFINED, ind_code, code)
                code = np.where((code == DEFINED) & (ind == 0.0), ZERO_RATE, code)
                with np.errstate(divide="ignore", invalid="ignore"):
                    rel = np.where(ind == 0.0, np.nan, raw / ind)
            flags = tuple((int(i), REASONS[code[i]]) for i in np.flatnonzero(code))
        return ErrorReport(grid=grid, raw=raw, relative=rel, measure=measure,
                           structure=self.structure, flags=flags)

    def _mrl_errors(self, t) -> tuple[np.ndarray, np.ndarray, list]:
        """(raw, relative, error) mean-residual-life errors at each t, from both
        systems' sf at t in one ``sides`` call and one batched quadrature per
        system; the error (None where defined) is the dependent system's at
        that t, else the independent one's."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        sft = self.dependent.sides(t)[0]
        (dep, dep_errors), (ind, ind_errors) = (self.dependent._mrl(t, sft[0]),
                                                self.independent._mrl(t, sft[1]))
        errors = [d or i for d, i in zip(dep_errors, ind_errors)]
        raw = np.where([e is None for e in errors], dep - ind, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            return raw, raw / ind, errors


def _verdict(raw: float) -> str:
    if np.isnan(raw):
        return "undefined"
    if raw < -VERDICT_TOL:
        return "OA"
    if raw > VERDICT_TOL:
        return "UA"
    return "zero"


@dataclass(frozen=True)
class ErrorReport:
    """Signed error of one measure on a grid, dependent minus independent."""

    grid: np.ndarray
    raw: np.ndarray
    relative: np.ndarray
    measure: str
    structure: str
    flags: tuple[tuple[int, str], ...] = ()

    @property
    def verdict_per_t(self) -> list[str]:
        return [_verdict(x) for x in self.raw]

    def _table(self) -> tuple[tuple[str, ...], list]:
        return ("t", "raw", "relative", "verdict"), [self.grid, self.raw, self.relative,
                                                     self.verdict_per_t]

    def to_csv(self, provenance: dict | None = None) -> str:
        return tables.to_csv(*self._table(), provenance)

    def to_markdown(self, provenance: dict | None = None) -> str:
        return tables.to_markdown(*self._table(), provenance,
                                  footer=f"\nclassification: {classify_assessment(self)}\n")

    def to_json(self, provenance: dict | None = None) -> str:
        return tables.to_json({
            "measure": self.measure,
            "structure": self.structure,
            **dict(zip(*self._table())),
            "classification": classify_assessment(self),
            "flags": [{"row": i, "reason": r} for i, r in self.flags],
        }, provenance)


def classify_assessment(report: ErrorReport) -> str:
    """Collapse per-point verdicts: uniform OA, uniform UA, zero, or mixed."""
    verdicts = {v for v in report.verdict_per_t if v != "undefined"}
    if not verdicts:
        raise DomainError("error report has no defined grid points")
    if verdicts <= {"OA", "zero"}:
        return "uniform OA" if "OA" in verdicts else "zero"
    if verdicts <= {"UA", "zero"}:
        return "uniform UA"
    return "mixed"
