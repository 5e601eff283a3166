"""Stochastic-order certification by numerical monotonicity of copula ratios.

For an n-component parallel system, the ratio of the dependent to the
independent distribution function is C(u(t)) / prod u_i(t); if it increases
in t the dependent lifetime dominates in the reversed-hazard order (and
hence the usual stochastic order), if it decreases the domination flips.
The series analogue uses the family formula in its survival-copula role,
C(uhat(t)) / prod uhat_i(t), and certifies hazard-rate order, which carries
the mean-residual-life and usual stochastic orders with it.

Verdicts here are numerical: each one records the grid it was certified on
and, when a ratio is found non-monotone, a pair of witnesses for each
direction.

``build_ordering_report`` reproduces the published per-family summary table
from these primitives and flags the cells where the published arrows
contradict the proofs (or direct computation); see the row notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tables
from .copulas import (
    Amh,
    Clayton,
    Copula,
    Fgm,
    FischerHinzmann,
    FischerKock,
    GumbelBarnet,
    GumbelHougaard,
    LinearSpearman,
    MarshallOlkin,
    NelsenTen,
    RluExtended,
)
from .exceptions import DomainError
from .marginals import Exponential
from .numerics import central_derivative, scalar_or_array
from .systems import System

__all__ = [
    "MonotonicityVerdict",
    "OrderingVerdict",
    "default_grid",
    "ratio_function",
    "classify_monotonicity",
    "infer_ordering",
    "verify_theorem1",
    "Theorem1Result",
    "check_radial_duality",
    "DualityResult",
    "check_lr_linear_spearman",
    "LrResult",
    "OrderingCell",
    "OrderingReportRow",
    "OrderingReport",
    "build_ordering_report",
    "DEFAULT_REPORT_ROWS",
]

RATIO_KINDS = ("C_over_C1", "Chat_over_Chat1", "C_over_Chat")
_MOVE_TOL = 1e-9  # a ratio step is a move beyond this, relative to 1 + |ratio|
_SLACK_TOL = 1e-10  # theorem 1 passes while every survival slack is above -this
_LR_TOL = 1e-8  # the density ratio may rise this much in a step and still pass


def _dependent(copula: Copula, marginals, structure: str) -> System:
    """The ``structure`` system over ``marginals`` with dependence through ``copula``."""
    marginals = tuple(marginals)
    if copula.dim != len(marginals):
        raise DomainError(f"copula dimension {copula.dim} != marginal count {len(marginals)}")
    return System(marginals, structure, "dependent", copula)


def default_grid(marginals, points: int = 64, lo: float = 1e-3, hi: float = 0.999) -> np.ndarray:
    """Log-spaced grid spanning the slowest marginal's central support."""
    slowest = max(marginals, key=lambda m: m.quantile(hi))
    return np.geomspace(slowest.quantile(lo), slowest.quantile(hi), points)


def ratio_function(copula: Copula, marginals, kind: str) -> Callable:
    """t -> copula ratio of the requested kind along the diagonal: dependent
    over independent parallel cdf (C/C1) or series sf (Chat/Chat1), or the
    dependent parallel cdf over the dependent series sf (C/Chat).

    The function takes a number (returning a float) or a one-dimensional
    array of times (returning an array), with one ``System.sides`` call per
    structure.
    """
    if kind not in RATIO_KINDS:
        raise DomainError(f"kind must be one of {RATIO_KINDS}, got {kind!r}")
    parallel, series = (_dependent(copula, marginals, s) for s in ("parallel", "series"))

    def ratio(t):
        t = np.asarray(t, dtype=float)
        if kind == "C_over_C1":
            num, den = parallel.sides(t)[1]
        elif kind == "Chat_over_Chat1":
            num, den = series.sides(t)[0]
        else:
            num, den = parallel.sides(t)[1][0], series.sides(t)[0][0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return scalar_or_array(np.divide(num, den))

    return ratio


@dataclass(frozen=True)
class MonotonicityVerdict:
    """Sign-pattern classification of a function on a grid.

    ``grid`` is the grid given and ``values`` the function on it, but only
    the points with a finite value are classified; ``certified_range`` is
    the first and the last of those.  Witnesses are ((t_a, v_a), (t_b, v_b))
    pairs of neighbouring grid points with the largest step in each
    direction; they are populated only for non-monotone verdicts.
    """

    classification: str  # increasing | decreasing | constant | non_monotone
    grid: np.ndarray
    values: np.ndarray
    increase_witness: tuple[tuple[float, float], tuple[float, float]] | None = None
    decrease_witness: tuple[tuple[float, float], tuple[float, float]] | None = None
    certified_range: tuple[float, float] | None = None


def classify_monotonicity(fn: Callable, grid) -> MonotonicityVerdict:
    """Classify fn on the grid points where it is finite.

    ``fn`` is called once, with the grid as a one-dimensional array of
    times; a scalar result is broadcast to it.  A step between neighbouring
    finite values is a move when it exceeds 1e-9 (1 + the larger |value|).
    A value that is not finite (a ratio whose denominator underflowed) is
    left out; DomainError if fewer than 16 grid points have a finite value.
    """
    ts = np.asarray(grid, dtype=float)
    vs = np.empty(ts.shape)
    vs[...] = fn(ts)
    finite = np.isfinite(vs)
    if np.count_nonzero(finite) < 16:
        raise DomainError("monotonicity classification needs at least 16 grid points "
                          "with a finite value")
    fts, fvs = ts[finite], vs[finite]
    diffs = np.diff(fvs)
    tols = _MOVE_TOL * (1.0 + np.maximum(np.abs(fvs[:-1]), np.abs(fvs[1:])))
    up, down = bool((diffs > tols).any()), bool((diffs < -tols).any())
    certified = (float(fts[0]), float(fts[-1]))
    if up and down:
        def witness(i):
            return tuple((float(fts[j]), float(fvs[j])) for j in (i, i + 1))

        return MonotonicityVerdict("non_monotone", ts, vs, witness(int(np.argmax(diffs))),
                                   witness(int(np.argmin(diffs))), certified)
    classification = "increasing" if up else "decreasing" if down else "constant"
    return MonotonicityVerdict(classification, ts, vs, certified_range=certified)


@dataclass(frozen=True)
class OrderingVerdict:
    """A certified stochastic-order relation between dependent and independent lifetimes.

    ``proper`` records whether the dependent model normalises
    (C(1, ..., 1) = 1).  When it does not, the ratio arrow is still reported
    but the weaker orders are not claimed: the "dependent lifetime" is then
    defective and the implication chain has nothing to bite on.
    """

    structure: str  # series | parallel
    relation: str  # hr (series) | rhr (parallel)
    direction: str  # D_ge_I | D_le_I | equal | none
    implied: tuple[str, ...]
    monotonicity: MonotonicityVerdict
    proper: bool = True

    def describe(self) -> str:
        side = "T_S" if self.structure == "series" else "T_P"
        if self.direction == "none":
            return f"no {self.relation} order certified ({side}^D vs {side}^I ratio non-monotone)"
        if self.direction == "equal":
            return f"{side}^D equal to {side}^I in the {self.relation} order"
        op = ">=" if self.direction == "D_ge_I" else "<="
        out = f"{side}^D {op}_{self.relation} {side}^I"
        if self.implied:
            out += " (implies " + ", ".join(f"{op}_{r}" for r in self.implied) + ")"
        if not self.proper:
            out += " [ratio only: the dependent model is defective at the corner]"
        return out


_IMPLIED = {"series": ("mrl", "st"), "parallel": ("st",)}
_DIRECTION = {"increasing": "D_ge_I", "decreasing": "D_le_I", "constant": "equal",
              "non_monotone": "none"}


def infer_ordering(copula: Copula, marginals, structure: str,
                   grid=None) -> OrderingVerdict:
    """Certify the hr (series) or rhr (parallel) order from the copula ratio."""
    if structure not in ("series", "parallel"):
        raise DomainError(f"structure must be series or parallel, got {structure!r}")
    marginals = tuple(marginals)
    if grid is None:
        grid = default_grid(marginals)
    kind = "Chat_over_Chat1" if structure == "series" else "C_over_C1"
    mono = classify_monotonicity(ratio_function(copula, marginals, kind), grid)
    relation = "hr" if structure == "series" else "rhr"
    direction = _DIRECTION[mono.classification]
    proper = abs(float(copula.value(np.ones(copula.dim))) - 1.0) <= 1e-12
    implied = _IMPLIED[structure] if proper and direction in ("D_ge_I", "D_le_I") else ()
    return OrderingVerdict(structure=structure, relation=relation, direction=direction,
                           implied=implied, monotonicity=mono, proper=proper)


@dataclass(frozen=True)
class Theorem1Result:
    """Worst slack of the four parallel-over-series survival inequalities."""

    passed: bool
    worst_slack: float
    worst_t: float
    worst_inequality: str


_THEOREM1_INEQUALITIES = ("P_I >= S_I", "P_I >= S_D", "P_D >= S_I", "P_D >= S_D")


def verify_theorem1(copula: Copula, marginals, grid=None) -> Theorem1Result:
    """Check F_P^I, F_P^D >= F_S^I, F_S^D (as survival functions) pointwise."""
    parallel, series = (_dependent(copula, marginals, s) for s in ("parallel", "series"))
    if grid is None:
        grid = default_grid(marginals)
    t = np.asarray(grid, dtype=float)
    ((p_d, p_i), _), ((s_d, s_i), _) = parallel.sides(t), series.sides(t)
    # one row per grid point, in the order of _THEOREM1_INEQUALITIES
    slack = np.stack([p_i - s_i, p_i - s_d, p_d - s_i, p_d - s_d], axis=-1)
    slack = np.where(np.isnan(slack), np.inf, slack).ravel()
    if not np.any(slack < np.inf):
        return Theorem1Result(passed=True, worst_slack=float("inf"), worst_t=float("nan"),
                              worst_inequality="")
    at = int(np.argmin(slack))  # the first minimum in (t, inequality) order
    worst = float(slack[at])
    return Theorem1Result(passed=bool(worst >= -_SLACK_TOL), worst_slack=worst,
                          worst_t=float(t[at // 4]),
                          worst_inequality=_THEOREM1_INEQUALITIES[at % 4])


@dataclass(frozen=True)
class DualityResult:
    passed: bool
    parallel: MonotonicityVerdict
    series: MonotonicityVerdict


def check_radial_duality(copula: Copula, marginals, grid=None) -> DualityResult:
    """For radially symmetric families the two ratios must move oppositely."""
    if not copula.radially_symmetric:
        raise DomainError(f"{copula.family} is not flagged radially symmetric")
    marginals = tuple(marginals)
    if grid is None:
        grid = default_grid(marginals)
    par = classify_monotonicity(ratio_function(copula, marginals, "C_over_C1"), grid)
    ser = classify_monotonicity(ratio_function(copula, marginals, "Chat_over_Chat1"), grid)
    opposite = {("increasing", "decreasing"), ("decreasing", "increasing"),
                ("constant", "constant")}
    return DualityResult(passed=(par.classification, ser.classification) in opposite,
                         parallel=par, series=ser)


@dataclass(frozen=True)
class LrResult:
    passed: bool
    grid: np.ndarray
    ratio: np.ndarray
    worst_increase: float
    worst_at: float


def check_lr_linear_spearman(theta: float, marginals, grid=None) -> LrResult:
    """Likelihood-ratio check for the linear Spearman parallel system.

    For identically distributed components with decreasing reversed
    hazard and theta in [0, 1], the density ratio f_P^D / f_P^I equals
    (1 - theta) + theta / (2 F(t)), which is nonincreasing, so
    T_P^D <=_lr T_P^I.  The decreasing reversed hazard is verified on the
    grid and a violation raises DomainError.

    For marginals that are not identical the theorem does not apply and
    `passed` only reports what the grid shows.  With unequal exponential
    rates lam2 > lam1 the ratio 1 + theta (f1 S2 - F1 f2) / (f1 F2 + F1 f2)
    falls below 1 and climbs back towards it, so `passed=False` is the
    right answer there.

    The densities are finite-difference derivatives of the two
    distribution functions along the diagonal.  `worst_increase` is the
    largest step ratio[i+1] - ratio[i] and `worst_at` the grid point
    where that step starts; when no step increases, this is where the
    ratio falls least.  On a grid of fewer than two points
    `worst_increase` is 0 and `worst_at` is nan.
    """
    marginals = tuple(marginals)
    if len(marginals) != 2:
        raise DomainError("the likelihood-ratio check is bivariate")
    if not 0.0 <= theta <= 1.0:
        raise DomainError("theta must lie in [0, 1] for this check")
    if grid is None:
        grid = default_grid(marginals)
    grid = np.asarray(grid, dtype=float)
    # precondition: decreasing reversed hazards, verified on the grid
    for m in marginals:
        rhr = m.reversed_hazard(grid)
        if np.any(np.diff(rhr) > 1e-12 * (1.0 + np.abs(rhr[:-1]))):
            raise DomainError("marginal reversed hazard is not decreasing on the grid")
    parallel = _dependent(LinearSpearman(theta=theta), marginals, "parallel")
    dep, ind = central_derivative(lambda x: parallel.sides(x)[1], grid)
    ratio = dep / ind
    increases = np.diff(ratio)
    if increases.size:
        at = int(np.argmax(increases))
        worst, worst_at = float(increases[at]), float(grid[at])
    else:
        worst, worst_at = 0.0, float("nan")
    return LrResult(passed=bool(worst <= _LR_TOL), grid=grid, ratio=ratio, worst_increase=worst,
                    worst_at=worst_at)


# ---------------------------------------------------------------------------
# Published-table reproduction
# ---------------------------------------------------------------------------

_ARROW = {"increasing": "up", "decreasing": "down", "constant": "constant",
          "non_monotone": "non-monotone"}


@dataclass(frozen=True)
class OrderingCell:
    machine: str
    published: str | None
    agrees: bool | None
    ordering: OrderingVerdict
    note: str = ""


@dataclass(frozen=True)
class OrderingReportRow:
    label: str
    copula_spec: str
    parallel: OrderingCell
    series: OrderingCell


@dataclass(frozen=True)
class _RowSpec:
    label: str
    copula: Copula
    published_parallel: str | None
    published_series: str | None
    parallel_note: str = ""
    series_note: str = ""


# Published arrows as printed, with notes where the printed cell contradicts
# the family's own proof or a direct computation.  Conflicted cells surface
# as agrees=False rather than being silently corrected.
DEFAULT_REPORT_ROWS: tuple[_RowSpec, ...] = (
    _RowSpec("fgm (alpha>0)", Fgm(alpha=0.5), "decreasing", "increasing"),
    _RowSpec("fgm (alpha<0)", Fgm(alpha=-0.5), "increasing", "decreasing"),
    _RowSpec("fischer_kock (alpha>0)", FischerKock(r=2.0, alpha=0.5), "decreasing", "decreasing",
             series_note="published series arrow contradicts the family's own ratio theorem"),
    _RowSpec("fischer_kock (alpha<0)", FischerKock(r=2.0, alpha=-0.5), "increasing", "increasing",
             series_note="published series arrow contradicts the family's own ratio theorem"),
    _RowSpec("clayton", Clayton(alpha=1.0), "increasing", "decreasing",
             parallel_note="published arrow holds only for the negative-parameter branch, "
                           "not the alpha>0 family shipped here",
             series_note="published arrow holds only for the negative-parameter branch, "
                         "not the alpha>0 family shipped here"),
    _RowSpec("gumbel_hougaard", GumbelHougaard(alpha=2.0), "decreasing", "increasing"),
    _RowSpec("gumbel_barnet", GumbelBarnet(alpha=0.5), "decreasing", "increasing",
             parallel_note="published arrow contradicts direct computation "
                           "(the family sits below the product copula)",
             series_note="published arrow contradicts the bivariate exponential worked example, "
                         "whose hazard error is positive"),
    _RowSpec("nelsen_ten", NelsenTen(alpha=1.0), "increasing", "decreasing"),
    _RowSpec("marshall_olkin", MarshallOlkin(alpha=(0.5, 0.5)), "increasing", "decreasing",
             parallel_note="published side condition on the parameter is spurious; "
                           "the min lemma gives the direction for all alpha_i > 0",
             series_note="published conclusion is garbled; direction taken from the min lemma"),
    _RowSpec("amh (alpha>0)", Amh(alpha=0.5), "decreasing", "increasing"),
    _RowSpec("amh (alpha<0)", Amh(alpha=-0.5), "increasing", "decreasing"),
    _RowSpec("fischer_hinzmann", FischerHinzmann(m=2.0, alpha=0.5), "decreasing", "increasing"),
    _RowSpec("rlu_extended", RluExtended(a=(2.0, 2.0), b=(3.0, 3.0), alpha=1.0),
             "non_monotone", "non_monotone"),
    _RowSpec("linear_spearman (theta>0)", LinearSpearman(theta=0.5), "decreasing", None),
    _RowSpec("linear_spearman (theta<0)", LinearSpearman(theta=-0.5), "increasing", None,
             parallel_note="published: constant below the median crossing, increasing above; "
                           "classified nondecreasing overall"),
)


@dataclass(frozen=True)
class OrderingReport:
    rows: tuple[OrderingReportRow, ...]
    marginals_spec: tuple[str, ...]
    grid_points: int

    def conflicted_cells(self) -> list[tuple[str, str]]:
        return [(row.label, name) for row in self.rows for name in ("parallel", "series")
                if getattr(row, name).agrees is False]

    def to_markdown(self, provenance: dict | None = None) -> str:
        header = ("family", "parallel ratio C/C1", "parallel order", "series ratio Chat/Chat1",
                  "series order", "flags")
        rows = [(row.label, _ARROW[row.parallel.machine], row.parallel.ordering.describe(),
                 _ARROW[row.series.machine], row.series.ordering.describe(),
                 "; ".join(f"{name} cell conflicts with published table"
                           for name in ("parallel", "series")
                           if getattr(row, name).agrees is False) or "-")
                for row in self.rows]
        return tables.to_markdown(header, zip(*rows), provenance)

    def to_csv(self, provenance: dict | None = None) -> str:
        header = ("family", "cell", "machine", "published", "agrees", "ordering", "note")
        rows = [(row.label, name, cell.machine, cell.published, cell.agrees,
                 cell.ordering.describe(), cell.note)
                for row in self.rows
                for name, cell in (("parallel", row.parallel), ("series", row.series))]
        return tables.to_csv(header, zip(*rows), provenance)

    def to_json(self, provenance: dict | None = None) -> str:
        def cell(c: OrderingCell):
            return {
                "machine": c.machine,
                "published": c.published,
                "agrees": c.agrees,
                "ordering": c.ordering.describe(),
                "direction": c.ordering.direction,
                "implied": c.ordering.implied,
                "note": c.note,
            }

        return tables.to_json({
            "marginals": self.marginals_spec,
            "grid_points": self.grid_points,
            "rows": [
                {"family": r.label, "copula": r.copula_spec,
                 "parallel": cell(r.parallel), "series": cell(r.series)}
                for r in self.rows
            ],
        }, provenance)


def _report_row(spec: _RowSpec, marginals, grid) -> OrderingReportRow:
    def make_cell(structure: str, published: str | None, note: str) -> OrderingCell:
        verdict = infer_ordering(spec.copula, marginals, structure, grid=grid)
        machine = verdict.monotonicity.classification
        agrees = None if published is None else (machine == published)
        return OrderingCell(machine=machine, published=published, agrees=agrees,
                            ordering=verdict, note=note)

    return OrderingReportRow(
        label=spec.label,
        copula_spec=spec.copula.spec_string(),
        parallel=make_cell("parallel", spec.published_parallel, spec.parallel_note),
        series=make_cell("series", spec.published_series, spec.series_note),
    )


def build_ordering_report(marginals=None, rows=DEFAULT_REPORT_ROWS,
                          grid_points: int = 64) -> OrderingReport:
    """Machine verdicts for every family/regime, side by side with the published arrows."""
    if marginals is None:
        marginals = (Exponential(1.0), Exponential(1.0))
    marginals = tuple(marginals)
    grid = default_grid(marginals, points=grid_points)
    return OrderingReport(rows=tuple(_report_row(s, marginals, grid) for s in rows),
                          marginals_spec=tuple(m.spec_string() for m in marginals),
                          grid_points=grid_points)
