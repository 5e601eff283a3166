"""Seeded op generators and executors for the four benchmark workloads.

An op is a plain dict: ``kind`` names what it runs and the other keys are
its inputs (copula and marginal objects, grids, argv lists).  Every input
comes from ``numpy.random.default_rng`` streams keyed on (seed, cycle), so
the same seed gives the same ops and the program receives only the
generated inputs.

Each workload is an endless sequence of fixed-shape cycles.  The shape of a
cycle (which op kinds, structures, dimensions, marginal kinds and sizes sit
in which slot) is the same for every seed; the seed draws the parameter
values.  That keeps the mix of work in a run of fixed length the same
across seeds, which is what makes the end-to-end numbers steady.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

import copreli
import copreli.cli
from copreli import (
    Amh,
    Clayton,
    Exponential,
    Fgm,
    FischerHinzmann,
    FischerKock,
    GumbelBarnet,
    GumbelHougaard,
    Independence,
    LinearSpearman,
    MarshallOlkin,
    NelsenTen,
    RluExtended,
    Weibull,
)

WORKLOADS = ("cli", "curves", "orderings", "sampling")

# The full valid parameter ranges of tests/conftest.py::FAMILY_SAMPLERS.
FAMILY_SAMPLERS = {
    "independence": (lambda rng, dim: Independence(dim=dim), (2, 3)),
    "fgm": (lambda rng, dim: Fgm(alpha=rng.uniform(-1, 1), dim=dim), (2, 3)),
    "fischer_kock": (
        lambda rng, dim: FischerKock(r=rng.uniform(1, 4), alpha=rng.uniform(-1, 1), dim=dim),
        (2, 3),
    ),
    "clayton": (lambda rng, dim: Clayton(alpha=rng.uniform(0.2, 6), dim=dim), (2, 3)),
    "gumbel_hougaard": (
        lambda rng, dim: GumbelHougaard(alpha=rng.uniform(1, 6), dim=dim), (2, 3)),
    "gumbel_barnet": (lambda rng, dim: GumbelBarnet(alpha=rng.uniform(0, 1), dim=dim), (2,)),
    "nelsen_ten": (lambda rng, dim: NelsenTen(alpha=rng.uniform(0.05, 1), dim=dim), (2, 3)),
    "marshall_olkin": (
        lambda rng, dim: MarshallOlkin(alpha=tuple(rng.uniform(0.1, 3, size=dim)), dim=dim),
        (2, 3),
    ),
    "amh": (lambda rng, dim: Amh(alpha=rng.uniform(-1, 1), dim=dim), (2, 3)),
    "fischer_hinzmann": (
        lambda rng, dim: FischerHinzmann(m=rng.uniform(1, 4), alpha=rng.uniform(0, 1), dim=dim),
        (2, 3),
    ),
    "rlu_extended": (
        lambda rng, dim: RluExtended(
            a=tuple(rng.uniform(1, 4, size=dim)),
            b=tuple(rng.uniform(1, 4, size=dim)),
            alpha=rng.uniform(0, 1),
            dim=dim,
        ),
        (2, 3),
    ),
    "linear_spearman": (lambda rng, dim: LinearSpearman(theta=rng.uniform(-1, 1)), (2,)),
}
FAMILY_NAMES = tuple(FAMILY_SAMPLERS)

# Weibull shapes below 0.8 put so much mass past the mean-residual-life
# truncation cap (50 mean lifetimes) that System.mrl refuses by design; the
# curves and mrl measures need a decaying tail, so shapes start at 0.8.
RATE_RANGE = (0.5, 2.0)
SHAPE_RANGE = (0.8, 3.0)

GRID_POINTS = 25  # the CLI's default grid
AUDIT_GRID_POINTS = 12
# 32768 appears twice so the median op falls inside one size, not between two.
SAMPLE_SIZES = (16384, 32768, 32768, 65536, 100000)
CLI_SAMPLES = 10000
STRATA = 4


class Stratified:
    """Uniform draws stratified over the instances of one family (a Latin hypercube).

    Each range is cut into ``STRATA`` equal slices.  The j-th parameter of
    the n-th instance falls in slice ``order_j[n mod STRATA]`` at a seeded
    point inside it, where ``order_j`` is a seeded permutation of the slices
    for that parameter.  Any STRATA consecutive instances of a family thus
    cover every parameter's whole range, so a run's total work varies less
    from seed to seed; the permutations are independent per parameter and
    per seed, so no joint region of the parameters is left out.
    """

    def __init__(self, rng: np.random.Generator, key: tuple, occurrence: int):
        self._rng = rng
        self._key = key
        self._occurrence = occurrence
        self._draw = 0

    def uniform(self, lo: float, hi: float, size: int | None = None):
        count = 1 if size is None else size
        u = np.empty(count)
        for i in range(count):
            order = np.random.default_rng([*self._key, self._draw]).permutation(STRATA)
            u[i] = (order[self._occurrence % STRATA] + self._rng.random()) / STRATA
            self._draw += 1
        values = lo + (hi - lo) * u
        return float(values[0]) if size is None else values


def family_instance(name: str, rng: np.random.Generator, dim: int, occurrence: int,
                    key: tuple):
    """A seeded ``name`` copula; ``key`` is (seed, workload index)."""
    maker, dims = FAMILY_SAMPLERS[name]
    if dim not in dims:
        raise ValueError(f"{name} is not sampled at dim {dim}")
    return maker(Stratified(rng, (*key, FAMILY_NAMES.index(name)), occurrence), dim)


def draw_marginals(rng: np.random.Generator, name: str, dim: int, kind: str,
                   occurrence: int, key: tuple) -> tuple:
    """Seeded marginals for an op on family ``name``, stratified like its parameters."""
    rng = Stratified(rng, (*key, len(FAMILY_NAMES) + FAMILY_NAMES.index(name)), occurrence)
    if kind == "exp":
        return tuple(Exponential(float(rng.uniform(*RATE_RANGE))) for _ in range(dim))
    return tuple(Weibull(float(rng.uniform(*RATE_RANGE)), float(rng.uniform(*SHAPE_RANGE)))
                 for _ in range(dim))


def quantile_grid(marginals, points: int, rng: np.random.Generator) -> tuple[float, ...]:
    """Log-spaced grid between low and high marginal quantiles, as the CLI builds it."""
    p_lo = float(rng.uniform(0.005, 0.02))
    p_hi = float(rng.uniform(0.95, 0.99))
    lo = min(float(m.quantile(p_lo)) for m in marginals)
    hi = max(float(m.quantile(p_hi)) for m in marginals)
    return tuple(float(x) for x in np.geomspace(lo, hi, points))


# A copula kernel with a min, max or branch (linear Spearman, Fischer-Hinzmann,
# Marshall-Olkin) puts a kink in the system survival function wherever the
# kernel switches branch.  Within a stencil of a kink, and on the steep side of
# the linear Spearman anti-diagonal kink as theta nears -1, the program's
# central-difference hazards miss the density by more than 1e-5 relative (see
# NOTES.md, "Hazards near a kink"), so curve grids are shifted clear of them.
KINK_WINDOW = 2e-3  # relative half-width kept clear around a kink
ANTI_DIAGONAL_WINDOW = 3e-2
KINK_SHIFT_STEP = 5e-3  # grids move by multiples of this, in log t
KINK_SHIFTS = 60  # ... up to this many steps either way


def _log_coordinates(marginals, structure: str, t: np.ndarray) -> list[np.ndarray]:
    """ln of the point where the system evaluates the copula: survival values
    for a series system, cdf values for a parallel one."""
    z = [(m.lam * t) ** getattr(m, "k", 1.0) for m in marginals]
    if structure == "series":
        return [-zi for zi in z]
    return [np.log(-np.expm1(-zi)) for zi in z]


def kinks(copula, marginals, structure: str, lo: float, hi: float) -> list[tuple[float, float]]:
    """(time, relative half-width) of each branch switch of ``copula`` in [lo, hi]."""
    ts = np.geomspace(lo, hi, 4001)
    logp = _log_coordinates(marginals, structure, ts)
    pairs = list(itertools.combinations(range(len(marginals)), 2))
    if copula.family == "linear_spearman" and copula.theta < 0:
        gaps = [(np.exp(logp[0]) + np.exp(logp[1]) - 1.0, ANTI_DIAGONAL_WINDOW)]
    elif copula.family in ("linear_spearman", "fischer_hinzmann"):
        gaps = [(logp[i] - logp[j], KINK_WINDOW) for i, j in pairs]
    elif copula.family == "marshall_olkin":
        a = copula.alpha
        gaps = [(a[i] * logp[i] - a[j] * logp[j], KINK_WINDOW) for i, j in pairs]
    else:
        gaps = []
    out = []
    for gap, width in gaps:
        for i in np.flatnonzero(np.sign(gap[:-1]) * np.sign(gap[1:]) < 0):
            w = gap[i] / (gap[i] - gap[i + 1])
            out.append((float(ts[i] * (ts[i + 1] / ts[i]) ** w), width))
    return out


def clear_of_kinks(copula, marginals, structure: str, lo: float, hi: float,
                   points: int) -> tuple[float, float]:
    """(lo, hi) scaled by the factor nearest 1 whose log grid of ``points``
    keeps every point outside every kink window."""
    reach = math.exp(KINK_SHIFT_STEP * KINK_SHIFTS + ANTI_DIAGONAL_WINDOW)
    found = kinks(copula, marginals, structure, lo / reach, hi * reach)
    if not found:
        return lo, hi
    at = np.log([k for k, _ in found])
    width = np.array([w for _, w in found])
    for step in sorted(range(-KINK_SHIFTS, KINK_SHIFTS + 1), key=abs):
        f = math.exp(KINK_SHIFT_STEP * step)
        grid = np.log(np.geomspace(lo * f, hi * f, points))
        if np.all(np.abs(grid[:, None] - at[None, :]) > width[None, :]):
            return lo * f, hi * f
    raise ValueError("no shift of the grid clears the kinks")


def curve_grid(copula, marginals, structure: str, grid) -> tuple[float, ...]:
    """``grid`` (log-spaced) shifted clear of the kinks of ``copula``."""
    lo, hi = clear_of_kinks(copula, marginals, structure, grid[0], grid[-1], len(grid))
    return tuple(float(x) for x in np.geomspace(lo, hi, len(grid)))


def series_hr_grid(grid, marginals) -> tuple[float, ...]:
    """``grid`` ended at the fastest component's 0.99 quantile.

    Up to that point every component survives with probability at least
    0.01, so the independent series survival function, the denominator of
    ``SystemPair.hr_error``'s ratio, stays above 0.01**dim.  Past it that
    denominator can underflow to 0.0, where ``hr_error`` raises
    ZeroDivisionError instead of flagging the row (see NOTES.md, "A
    failure at the seed commit").  The series system itself has at most 1%
    survival left there, so the grid still spans its whole working life.
    """
    hi = min(grid[-1], min(float(m.quantile(0.99)) for m in marginals))
    return tuple(float(x) for x in np.geomspace(grid[0], hi, len(grid)))


def _dim_for(name: str, want: int) -> int:
    return want if want in FAMILY_SAMPLERS[name][1] else 2


# ---------------------------------------------------------------------------
# cycle builders: fixed shape, seeded values
# ---------------------------------------------------------------------------


def _curves_cycle(rng: np.random.Generator, cycle: int, key: tuple) -> list[dict]:
    # Two curves to one error table: the median op is a curve and the p90 op
    # an error table, rather than either sitting between the two kinds.
    ops = []
    slots = itertools.product((2, 3), ("series", "parallel"), ("curve", "curve", "error_mrl"))
    for i, (dim, structure, kind) in enumerate(slots):
        name = FAMILY_NAMES[(i + 5 * cycle) % len(FAMILY_NAMES)]
        dim = _dim_for(name, dim)
        kind_of_marginals = "exp" if (i // 3 + cycle) % 2 == 0 else "weibull"
        marginals = draw_marginals(rng, name, dim, kind_of_marginals, cycle, key)
        cop = family_instance(name, rng, dim, cycle, key)
        grid = quantile_grid(marginals, GRID_POINTS, rng)
        if kind == "curve":
            grid = curve_grid(cop, marginals, structure, grid)
        ops.append({"kind": kind, "copula": cop, "marginals": marginals,
                    "structure": structure, "grid": grid})
    return ops


def _orderings_cycle(rng: np.random.Generator, cycle: int, key: tuple) -> list[dict]:
    ops = []
    for i, name in enumerate(FAMILY_NAMES):
        dim = _dim_for(name, 3 if (i + cycle) % 2 else 2)
        kind_of_marginals = "exp" if (i + cycle) % 3 else "weibull"
        marginals = draw_marginals(rng, name, dim, kind_of_marginals, cycle, key)
        cop = family_instance(name, rng, dim, cycle, key)
        grid = quantile_grid(marginals, GRID_POINTS, rng)
        base = {"copula": cop, "marginals": marginals}
        sf_structure = "series" if (i + cycle) % 2 else "parallel"
        ops.append({"kind": "error_sf", **base, "structure": sf_structure, "grid": grid})
        ops.append({"kind": "error_hr", **base, "structure": "series",
                    "grid": series_hr_grid(grid, marginals)})
        ops.append({"kind": "error_rhr", **base, "structure": "parallel", "grid": grid})
        ops.append({"kind": "infer", **base, "structure": "series"})
        ops.append({"kind": "infer", **base, "structure": "parallel"})
        ops.append({"kind": "theorem1", **base})
        audit_grid = tuple(float(x) for x in np.geomspace(
            max(grid[0], 1e-2), float(marginals[0].quantile(0.95)), AUDIT_GRID_POINTS))
        ops.append({"kind": "audit", **base, "grid": audit_grid})
        if cop.radially_symmetric:
            ops.append({"kind": "duality", **base})
    lam = float(rng.uniform(*RATE_RANGE))
    ops.append({"kind": "report", "marginals": (Exponential(lam), Exponential(lam))})
    return ops


def _sampling_cycle(rng: np.random.Generator, cycle: int, key: tuple) -> list[dict]:
    ops = []
    for i, name in enumerate(FAMILY_NAMES):
        k = cycle * len(FAMILY_NAMES) + i
        role = "distribution" if (i + cycle) % 2 == 0 else "survival"
        kind_of_marginals = "exp" if (k // 2) % 2 == 0 else "weibull"
        marginals = draw_marginals(rng, name, 2, kind_of_marginals, cycle, key)
        probs = np.sort(rng.uniform(0.1, 0.9, size=4))
        ts = tuple(float(marginals[0].quantile(p)) for p in probs)
        ops.append({"kind": "sample", "copula": family_instance(name, rng, 2, cycle, key),
                    "marginals": marginals, "role": role,
                    "n": SAMPLE_SIZES[(i + cycle) % len(SAMPLE_SIZES)],
                    "sample_seed": int(rng.integers(0, 2**31)), "ts": ts})
    return ops


def _cli_marg_args(marginals) -> list[str]:
    out = []
    for m in marginals:
        out += ["--marginal", m.spec_string()]
    return out


def _cli_cycle(rng: np.random.Generator, cycle: int, key: tuple) -> list[dict]:
    n = len(FAMILY_NAMES)
    name = FAMILY_NAMES[cycle % n]
    dim = _dim_for(name, 3 if cycle % 2 else 2)
    structure = "series" if cycle % 2 == 0 else "parallel"
    ops = []

    marg = draw_marginals(rng, name, dim, "exp" if cycle % 3 else "weibull", cycle, key)
    cop = family_instance(name, rng, dim, cycle, key)
    # the CLI's default grid, shifted clear of kinks like the curves grids
    lo, hi = clear_of_kinks(cop, marg, structure, min(float(m.quantile(0.01)) for m in marg),
                            max(float(m.quantile(0.99)) for m in marg), GRID_POINTS)
    ops.append({"kind": "cli", "sub": "eval", "copula": cop, "marginals": marg,
                "structure": structure,
                "argv": ["eval", "--copula", cop.spec_string(), *_cli_marg_args(marg),
                         "--structure", structure, "--mode", "dependent",
                         "--grid-min", repr(lo), "--grid-max", repr(hi)]})

    name = FAMILY_NAMES[(cycle + 3) % n]
    dim = _dim_for(name, 2 if cycle % 2 else 3)
    marg = draw_marginals(rng, name, dim, "weibull" if cycle % 3 else "exp", cycle, key)
    cop = family_instance(name, rng, dim, cycle, key)
    measure = ("sf", "hr", "rhr", "mrl")[cycle % 4]
    ops.append({"kind": "cli", "sub": "error-table", "copula": cop, "marginals": marg,
                "structure": structure, "measure": measure,
                "argv": ["error-table", "--copula", cop.spec_string(), *_cli_marg_args(marg),
                         "--structure", structure, "--measure", measure]})

    name = FAMILY_NAMES[(cycle + 6) % n]
    dim = _dim_for(name, 3 if cycle % 2 else 2)
    marg = draw_marginals(rng, name, dim, "exp", cycle, key)
    cop = family_instance(name, rng, dim, cycle, key)
    other = "parallel" if structure == "series" else "series"
    ops.append({"kind": "cli", "sub": "ordering", "copula": cop, "marginals": marg,
                "structure": other,
                "argv": ["ordering", "--copula", cop.spec_string(), *_cli_marg_args(marg),
                         "--structure", other]})

    ops.append({"kind": "cli", "sub": "table1", "argv": ["table1", "--format", "csv"]})

    name = FAMILY_NAMES[(cycle + 9) % n]
    marg = draw_marginals(rng, name, 2, "exp", cycle, key)
    cop = family_instance(name, rng, 2, cycle, key)
    ops.append({"kind": "cli", "sub": "verify", "copula": cop, "marginals": marg,
                "argv": ["verify", "--copula", cop.spec_string(), *_cli_marg_args(marg),
                         "--format", "json"]})

    name = FAMILY_NAMES[(cycle * 5 + 1) % n]
    marg = draw_marginals(rng, name, 2, "exp" if cycle % 2 else "weibull", cycle, key)
    cop = family_instance(name, rng, 2, cycle, key)
    role = "distribution" if cycle % 2 == 0 else "survival"
    sample_seed = int(rng.integers(0, 2**31))
    probs = np.sort(rng.uniform(0.1, 0.9, size=4))
    ts = tuple(float(marg[0].quantile(p)) for p in probs)
    ops.append({"kind": "cli", "sub": "sample", "copula": cop, "marginals": marg,
                "role": role, "n": CLI_SAMPLES, "ts": ts,
                "argv": ["sample", "--copula", cop.spec_string(), *_cli_marg_args(marg),
                         "--samples", str(CLI_SAMPLES), "--seed", str(sample_seed),
                         "--role", role]})
    return ops


_CYCLES = {
    "cli": _cli_cycle,
    "curves": _curves_cycle,
    "orderings": _orderings_cycle,
    "sampling": _sampling_cycle,
}


def generate(workload: str, seed: int):
    """Endless, deterministic op stream for ``workload`` under ``seed``."""
    build = _CYCLES[workload]
    key = (seed, WORKLOADS.index(workload))
    for cycle in itertools.count():
        yield from build(np.random.default_rng([*key, cycle]), cycle, key)


def take(workload: str, seed: int, count: int) -> list[dict]:
    return list(itertools.islice(generate(workload, seed), count))


# ---------------------------------------------------------------------------
# execution: the only place the benchmark calls into the program
# ---------------------------------------------------------------------------
# Calls go through module attributes looked up at call time, so a traced run
# that swaps those attributes for wrappers sees every call.


def run_in_process(op: dict):
    """Run one in-process op and return its raw result."""
    kind = op["kind"]
    if kind == "curve":
        system = copreli.System(marginals=op["marginals"], structure=op["structure"],
                                mode="dependent", copula=op["copula"])
        return system.curve(np.asarray(op["grid"]))
    if kind.startswith("error_"):
        pair = copreli.SystemPair(copula=op["copula"], marginals=op["marginals"],
                                  structure=op["structure"])
        return pair.error_report(np.asarray(op["grid"]), measure=kind[len("error_"):])
    if kind == "infer":
        return copreli.ordering.infer_ordering(op["copula"], op["marginals"], op["structure"])
    if kind == "theorem1":
        return copreli.ordering.verify_theorem1(op["copula"], op["marginals"])
    if kind == "audit":
        return copreli.montecarlo.finite_difference_audit(op["copula"], op["marginals"],
                                                          np.asarray(op["grid"]))
    if kind == "duality":
        return copreli.ordering.check_radial_duality(op["copula"], op["marginals"])
    if kind == "report":
        return copreli.ordering.build_ordering_report(marginals=op["marginals"])
    if kind == "sample":
        batch = copreli.montecarlo.sample_bivariate(op["copula"], op["marginals"], op["n"],
                                                    op["sample_seed"], role=op["role"])
        structure = "parallel" if op["role"] == "distribution" else "series"
        emp = [copreli.montecarlo.empirical_system_sf(batch, structure, t) for t in op["ts"]]
        return batch, emp
    if kind == "cli":
        return run_cli_in_process(op["argv"])
    raise ValueError(f"unknown op kind {kind!r}")


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    """``copreli.cli.main(argv)`` with stdout captured: (exit code, stdout)."""
    import io

    buf = io.StringIO()
    saved = sys.stdout
    sys.stdout = buf
    try:
        code = copreli.cli.main(list(argv))
    finally:
        sys.stdout = saved
    return code, buf.getvalue()
