"""Output checks for benchmark ops: invariants for every op, a golden file for one seed.

The invariants hold for any correct implementation, so they are checked on
every op of every run:

* survival functions lie in [0, 1], do not increase along the grid, and
  ``System.cdf`` equals 1 - sf;
* hazards are >= 0 where defined, hr * sf equals rhr * cdf (both are the
  density), the aging intensity equals t * hr / (-ln sf), mrl > 0, and the
  mean residual life brackets the integral of sf between grid points;
* error reports agree with the independent system, which the benchmark
  computes from its own closed forms and quadrature, and their verdicts
  follow the sign of the error;
* ``verify_theorem1`` passes, every classification is one of four, and
  ordering verdicts, duality results and the ordering report are consistent
  with the classifications they carry;
* Monte Carlo empirical system survival lies within 6 standard errors of
  ``System.sf`` for the matching role and structure.

``summarize`` reduces an op's output to categorical fields (compared
exactly: verdicts, classifications, flag rows, exit codes) and numbers
(compared with a tolerance); ``compare_golden`` checks one against the
golden file written at the reference seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

CLASSIFICATIONS = ("increasing", "decreasing", "constant", "non_monotone")
THEOREM1_NAMES = ("P_I >= S_I", "P_I >= S_D", "P_D >= S_I", "P_D >= S_D")
AUDIT_KEYS = ("parallel_hr", "parallel_rhr", "series_hr", "series_rhr")
VERDICT_TOL = 1e-10
# Below this a survival or distribution value counts as vanished: hazards,
# mean residual life and audits there may be refused instead of computed.
VANISHED = 1e-9
# Above this, finite-difference log-derivatives are resolved to better than
# 1e-5 relative, so identities between them are checked to that tolerance.
RESOLVED = 1e-6
MC_SIGMAS = 6.0
REL_TOL = 1e-6
ABS_TOL = 1e-9
LOOSE_ABS_TOL = 3e-4  # empirical sf: a few samples either side of t

# Cells of the published per-family table that the machine verdicts
# contradict, for identically distributed exponential components.  A scale
# change of the rate maps the default grid onto itself, so the set does not
# depend on the rate.
KNOWN_CONFLICTS = frozenset({
    ("fischer_kock (alpha>0)", "series"),
    ("fischer_kock (alpha<0)", "series"),
    ("clayton", "parallel"),
    ("clayton", "series"),
    ("gumbel_barnet", "parallel"),
    ("gumbel_barnet", "series"),
})
REPORT_ROWS = 15


# ---------------------------------------------------------------------------
# the benchmark's own closed forms for the independent side
# ---------------------------------------------------------------------------


def _marginal(m, t: np.ndarray):
    """(cdf, sf, pdf) of an exponential or Weibull marginal, from its parameters."""
    if hasattr(m, "k"):
        z = (m.lam * t) ** m.k
        sf = np.exp(-z)
        pdf = m.k * m.lam * (m.lam * t) ** (m.k - 1.0) * sf
    else:
        z = m.lam * t
        sf = np.exp(-z)
        pdf = m.lam * sf
    return -np.expm1(-z), sf, pdf


def _mean(m) -> float:
    return math.gamma(1.0 + 1.0 / m.k) / m.lam if hasattr(m, "k") else 1.0 / m.lam


def independent(marginals, structure: str, t) -> dict[str, np.ndarray]:
    """sf, cdf, density, hazard and reversed hazard of the independent system."""
    t = np.asarray(t, dtype=float)
    parts = [_marginal(m, t) for m in marginals]
    factor = [p[1] if structure == "series" else p[0] for p in parts]
    prod = np.prod(factor, axis=0)
    dens = sum(parts[i][2] * np.prod([factor[j] for j in range(len(parts)) if j != i], axis=0)
               for i in range(len(parts)))
    if structure == "series":
        sf, cdf = prod, 1.0 - prod
    else:
        cdf, sf = prod, 1.0 - prod
    with np.errstate(divide="ignore", invalid="ignore"):
        return {"sf": sf, "cdf": cdf, "pdf": dens, "hr": dens / sf, "rhr": dens / cdf}


def independent_mrl(marginals, structure: str, t) -> np.ndarray:
    """Mean residual life of the independent system by Gauss-Legendre panels."""
    t = np.asarray(t, dtype=float)
    span = 60.0 * max(_mean(m) for m in marginals)
    edges = span * np.linspace(0.0, 1.0, 241) ** 2
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    offsets = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    out = np.empty(t.shape)
    for i, ti in enumerate(t):
        s = independent(marginals, structure, ti + offsets)["sf"]
        out[i] = float(np.dot(w, s)) / independent(marginals, structure, ti)["sf"]
    return out


def defect(copula) -> float:
    """1 - C(1, ..., 1): positive when the family formula does not normalise."""
    return 1.0 - float(copula.value(np.ones(copula.dim)))


def default_grid(marginals, points: int = 64) -> np.ndarray:
    """The grid copreli's ordering checks use when given none."""
    slowest = max(marginals, key=lambda m: float(m.quantile(0.999)))
    return np.geomspace(float(slowest.quantile(1e-3)), float(slowest.quantile(0.999)), points)


def verify_audit_grid(marginals) -> np.ndarray:
    """The audit grid of ``copreli verify``."""
    grid = default_grid(marginals, points=32)
    return np.geomspace(max(grid[0], 1e-2), float(marginals[0].quantile(0.95)), 12)


def least_alive(copula, marginals, grid) -> float:
    """Smallest sf or cdf of either structure, dependent or independent, on ``grid``."""
    import copreli

    t = np.asarray(grid, dtype=float)
    lows = []
    for structure in ("series", "parallel"):
        comp = independent(marginals, structure, t)
        system = copreli.System(marginals=tuple(marginals), structure=structure,
                                mode="dependent", copula=copula)
        dep = np.array([system.sf(float(x)) for x in t])
        lows += [comp["sf"].min(), comp["cdf"].min(), dep.min(), (1.0 - dep).min()]
    return float(min(lows))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _close(a, b, rel, abs_):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def check_curve(op, t, cols: dict[str, np.ndarray], flagged: set | None,
                system) -> list[str]:
    """Invariants of one reliability curve; ``flagged`` holds (row, column) pairs.

    A cell may be undefined only at an edge row, where sf or cdf is below
    ``VANISHED`` and the log-derivatives fall under double resolution; every
    other cell must hold a value.
    """
    p = []
    t = np.asarray(t, dtype=float)
    sf, hr, rhr, mrl, ai = (np.asarray(cols[c], dtype=float)
                            for c in ("sf", "hr", "rhr", "mrl", "ai"))
    if flagged is not None:
        nan_cells = {(i, c) for c in ("sf", "hr", "rhr", "mrl", "ai")
                     for i in np.flatnonzero(np.isnan(cols[c]))}
        if nan_cells != set(flagged):
            p.append("flagged cells differ from NaN cells")
    if np.isnan(sf).any():
        p.append("sf undefined")
        return p
    if np.any(sf < -1e-12) or np.any(sf > 1 + 1e-12):
        p.append("sf outside [0, 1]")
    if np.any(np.diff(sf) > 1e-12):
        p.append("sf increases along the grid")
    cdf = np.array([system.cdf(float(x)) for x in t])
    if np.any(np.abs(cdf - (1.0 - sf)) > 1e-12):
        p.append("cdf != 1 - sf")
    edge = (sf <= VANISHED) | (cdf <= VANISHED)
    refuse = mrl_refusal_expected(op)
    for name, col in (("hr", hr), ("rhr", rhr), ("ai", ai), ("mrl", mrl)):
        if np.any(np.isnan(col) & ~edge) and not (name == "mrl" and refuse is not False):
            p.append(f"{name} undefined where the system is neither new nor gone")
    if refuse and not np.all(np.isnan(mrl)):
        p.append("mrl defined although sf does not decay")
    if np.any(hr[~np.isnan(hr)] < -1e-7) or np.any(rhr[~np.isnan(rhr)] < -1e-7):
        p.append("negative hazard")
    for i in np.flatnonzero(~np.isnan(hr) & ~np.isnan(rhr) & (sf > RESOLVED) & (cdf > RESOLVED)):
        if not _close(hr[i] * sf[i], rhr[i] * cdf[i], 1e-5, 1e-12):
            p.append(f"hr*sf != rhr*cdf at row {i}")
            break
    for i in np.flatnonzero(~np.isnan(ai)):
        if not _close(ai[i], t[i] * hr[i] / -math.log(sf[i]), 1e-9, 1e-12):
            p.append(f"ai != t*hr/(-ln sf) at row {i}")
            break
    if np.any(mrl[~np.isnan(mrl)] <= 0):
        p.append("mrl <= 0")
    p += _mrl_bracket(t, sf, mrl)
    return p


def _mrl_bracket(t, sf, mrl) -> list[str]:
    """sf(t_i+1) dt <= mrl_i sf_i - mrl_i+1 sf_i+1 <= sf(t_i) dt, up to quadrature error."""
    tail = mrl * sf
    for i in range(t.size - 1):
        if np.isnan(tail[i]) or np.isnan(tail[i + 1]):
            continue
        piece = tail[i] - tail[i + 1]
        dt = t[i + 1] - t[i]
        slack = 1e-6 * tail[i] + 1e-12
        if not (sf[i + 1] * dt - slack <= piece <= sf[i] * dt + slack):
            return [f"mrl does not bracket the sf integral at row {i}"]
    return []


def _verdict(raw: float) -> str:
    if np.isnan(raw):
        return "undefined"
    if raw < -VERDICT_TOL:
        return "OA"
    if raw > VERDICT_TOL:
        return "UA"
    return "zero"


def _classification(verdicts) -> str | None:
    seen = {v for v in verdicts if v != "undefined"}
    if not seen:
        return None
    if seen <= {"zero"}:
        return "zero"
    if seen <= {"OA", "zero"}:
        return "uniform OA"
    if seen <= {"UA", "zero"}:
        return "uniform UA"
    return "mixed"


def check_error(op, measure: str, t, raw, rel, verdicts, flag_rows: set | None,
                classification: str | None, system) -> list[str]:
    """Invariants of one error table, dependent minus independent."""
    p = []
    t = np.asarray(t, dtype=float)
    raw = np.asarray(raw, dtype=float)
    rel = np.asarray(rel, dtype=float)
    structure, marginals, copula = op["structure"], op["marginals"], op["copula"]
    if list(verdicts) != [_verdict(x) for x in raw]:
        p.append("verdicts do not follow the sign of the error")
    if flag_rows is not None and flag_rows != set(
            np.flatnonzero(np.isnan(raw) | np.isnan(rel)).tolist()):
        p.append("flag rows differ from rows with an undefined cell")
    if classification is not None and classification != _classification(verdicts):
        p.append("classification does not collapse the verdicts")
    ok = ~np.isnan(raw)
    comp = independent(marginals, structure, t)
    dep_sf = np.array([system.sf(float(x)) for x in t])
    low = np.minimum.reduce([comp["sf"], comp["cdf"], dep_sf, 1.0 - dep_sf])
    if np.any((np.isnan(raw) | np.isnan(rel)) & (low > VANISHED)):
        p.append("error undefined away from the support edges")
    if measure == "mrl":
        ind = independent_mrl(marginals, structure, t)
    else:
        ind = comp[measure]
    with np.errstate(divide="ignore", invalid="ignore"):
        expect_rel = raw / ind
    sharp = ok & (low > RESOLVED)
    if np.any(np.abs(rel[sharp] - expect_rel[sharp]) > 1e-5 * np.abs(expect_rel[sharp]) + 1e-12):
        p.append("relative error disagrees with the independent system")
    dep = raw + ind
    if measure == "sf":
        sfs = np.array([_marginal(m, t)[1] for m in marginals])
        cdfs = 1.0 - sfs
        if np.any(dep < -1e-12) or np.any(dep > 1 + 1e-12):
            p.append("dependent sf outside [0, 1]")
        if np.any(np.diff(dep[ok]) > 1e-12):
            p.append("dependent sf increases along the grid")
        if structure == "series":
            upper, lower = sfs.min(axis=0), np.maximum(0.0, sfs.sum(axis=0) - (len(marginals) - 1))
        else:
            upper = 1.0 - np.maximum(0.0, cdfs.sum(axis=0) - (len(marginals) - 1))
            lower = 1.0 - cdfs.min(axis=0)
        if structure == "series" and np.any(dep > upper + 1e-12):
            p.append("dependent series sf above the upper Frechet bound")
        if structure == "parallel" and np.any(dep < lower - 1e-12):
            p.append("dependent parallel sf below the bound from C <= min")
        if not copula.margin_axiom_exempt:
            if structure == "series" and np.any(dep < lower - 1e-12):
                p.append("dependent series sf below the lower Frechet bound")
            if structure == "parallel" and np.any(dep > upper + 1e-12):
                p.append("dependent parallel sf above the lower Frechet bound")
    elif measure in ("hr", "rhr"):
        if np.any(dep[ok] < -1e-7 * (1.0 + np.abs(ind[ok]))):
            p.append(f"negative dependent {measure}")
    else:
        if np.any(dep[ok] <= 0):
            p.append("dependent mrl <= 0")
        p += _mrl_bracket(t, dep_sf, np.where(ok, dep, np.nan))
    return p


def mrl_refusal_expected(op) -> bool | None:
    """True: the mrl must be refused; False: it must not; None: either is fine."""
    if op["structure"] != "parallel":
        return False
    c = defect(op["copula"])
    if c > 1e-3:
        return True
    return False if c <= 1e-9 else None


def _significant(values, tol_scale=1e-9):
    diffs = np.diff(values)
    tols = tol_scale * (1.0 + np.maximum(np.abs(values[:-1]), np.abs(values[1:])))
    return bool((diffs > tols).any()), bool((diffs < -tols).any())


def _expected_class(values) -> str:
    up, down = _significant(np.asarray(values, dtype=float))
    if up and down:
        return "non_monotone"
    return "increasing" if up else "decreasing" if down else "constant"


def check_mono(mono, marginals, structure: str) -> list[str]:
    """A ratio classification: allowed, and consistent with its own values.

    The ratio C / prod is 0/0 where the product of the components' survival
    (series) or distribution (parallel) values underflows to zero; values
    there may be non-finite and are left out of the consistency check.
    """
    p = []
    if mono.classification not in CLASSIFICATIONS:
        p.append(f"classification {mono.classification!r} not allowed")
    if mono.grid.size < 16 or np.any(np.diff(mono.grid) < 0):
        p.append("classification grid too small or unsorted")
    defined = independent(marginals, structure, mono.grid)[
        "sf" if structure == "series" else "cdf"] > 0.0
    finite = np.isfinite(mono.values)
    if np.any(defined & ~finite):
        p.append("non-finite ratio where the ratio is defined")
    elif _expected_class(mono.values[finite]) != mono.classification:
        p.append("classification disagrees with its own values")
    witnessed = mono.increase_witness is not None and mono.decrease_witness is not None
    if witnessed != (mono.classification == "non_monotone"):
        p.append("witnesses present iff non-monotone is violated")
    return p


_DIRECTION = {"increasing": "D_ge_I", "decreasing": "D_le_I", "constant": "equal",
              "non_monotone": "none"}


def check_ordering_verdict(copula, marginals, structure: str, verdict) -> list[str]:
    p = check_mono(verdict.monotonicity, marginals, structure)
    cls = verdict.monotonicity.classification
    if verdict.structure != structure or verdict.relation != (
            "hr" if structure == "series" else "rhr"):
        p.append("wrong structure or relation")
    if verdict.direction != _DIRECTION.get(cls):
        p.append("direction does not follow the classification")
    proper = abs(defect(copula)) <= 1e-12
    if verdict.proper != proper:
        p.append("proper flag wrong")
    implied = (("mrl", "st") if structure == "series" else ("st",)) \
        if proper and verdict.direction in ("D_ge_I", "D_le_I") else ()
    if tuple(verdict.implied) != implied:
        p.append("implied orders wrong")
    return p


def _statement_ok(structure: str, cls: str, statement: str) -> bool:
    side = "T_S" if structure == "series" else "T_P"
    rel = "hr" if structure == "series" else "rhr"
    if cls == "non_monotone":
        return statement.startswith(f"no {rel} order certified")
    if cls == "constant":
        return statement.startswith(f"{side}^D equal to {side}^I")
    op = ">=" if cls == "increasing" else "<="
    return statement.startswith(f"{side}^D {op}_{rel} {side}^I")


def check_theorem1(res) -> list[str]:
    p = []
    if not res.passed or res.worst_slack < -1e-10:
        p.append("parallel-dominates-series check failed")
    if res.worst_inequality not in THEOREM1_NAMES:
        p.append("unknown inequality name")
    return p


def check_report_rows(rows) -> list[str]:
    """rows: (label, cell, machine, published, agrees) tuples."""
    p = []
    if len(rows) != 2 * REPORT_ROWS:
        p.append(f"report has {len(rows)} cells, expected {2 * REPORT_ROWS}")
    conflicts = set()
    for label, cell, machine, published, agrees in rows:
        if machine not in CLASSIFICATIONS:
            p.append(f"classification {machine!r} not allowed")
        if published is None and agrees is not None:
            p.append("agreement claimed without a published cell")
        if published is not None and agrees != (machine == published):
            p.append("agreement flag disagrees with the cells")
        if agrees is False:
            conflicts.add((label, cell))
    if conflicts != KNOWN_CONFLICTS:
        p.append(f"conflicted cells {sorted(conflicts)} differ from the known six")
    return p


def check_sample(op, t1, t2, emp, system) -> list[str]:
    p = []
    t1 = np.asarray(t1)
    t2 = np.asarray(t2)
    if t1.size != op["n"] or t2.size != op["n"]:
        p.append("wrong sample count")
    if not (np.all(np.isfinite(t1)) and np.all(np.isfinite(t2))) or t1.min() < 0 or t2.min() < 0:
        p.append("lifetimes not finite and nonnegative")
    values = [e[0] for e in emp]
    if any(not 0.0 <= v <= 1.0 for v in values) or np.any(np.diff(values) > 0):
        p.append("empirical sf outside [0, 1] or increasing")
    # The literal Marshall-Olkin form has a u1-partial above 1 on a set of
    # positive measure, so the conditional sampler cannot reproduce it.
    if op["copula"].family != "marshall_olkin":
        for t, (value, se) in zip(op["ts"], emp):
            if abs(value - system.sf(float(t))) > MC_SIGMAS * se + 1e-12:
                p.append(f"empirical sf off by more than {MC_SIGMAS} SE at t={t:.4g}")
                break
    return p


# ---------------------------------------------------------------------------
# per-op dispatch
# ---------------------------------------------------------------------------


def _system(op, structure=None):
    import copreli

    return copreli.System(marginals=op["marginals"], structure=structure or op["structure"],
                          mode="dependent", copula=op["copula"])


def check(op: dict, outcome: tuple) -> list[str]:
    """Problems with one op's outcome; an empty list means the op passed."""
    kind = op["kind"]
    if kind == "cli":
        return check_cli(op, outcome)
    if kind == "error_mrl" and outcome[0] == "raised":
        if outcome[1] == "IntegrationError" and mrl_refusal_expected(op) is not False:
            return []
    if kind == "audit" and outcome[0] == "raised" and outcome[1] == "SingularityError":
        if least_alive(op["copula"], op["marginals"], op["grid"]) <= VANISHED:
            return []
    if outcome[0] == "raised":
        return [f"raised {outcome[1]}: {outcome[2]}"]
    if kind == "error_mrl" and mrl_refusal_expected(op) is True:
        return ["mrl not refused although sf does not decay"]
    res = outcome[1]
    if kind == "curve":
        cols = {c: getattr(res, c) for c in ("sf", "hr", "rhr", "mrl", "ai")}
        return check_curve(op, res.grid, cols, {(i, c) for i, c, _ in res.flags}, _system(op))
    if kind.startswith("error_"):
        from copreli import classify_assessment

        return check_error(op, res.measure, res.grid, res.raw, res.relative, res.verdict_per_t,
                           {i for i, _ in res.flags}, classify_assessment(res), _system(op))
    if kind == "infer":
        return check_ordering_verdict(op["copula"], op["marginals"], op["structure"], res)
    if kind == "theorem1":
        return check_theorem1(res)
    if kind == "audit":
        vals = res.per_check
        if tuple(sorted(vals)) != AUDIT_KEYS or not all(
                math.isfinite(v) and v >= 0 for v in vals.values()):
            return ["audit keys or values wrong"]
        return []
    if kind == "duality":
        p = (check_mono(res.parallel, op["marginals"], "parallel")
             + check_mono(res.series, op["marginals"], "series"))
        pair = (res.parallel.classification, res.series.classification)
        opposite = {("increasing", "decreasing"), ("decreasing", "increasing"),
                    ("constant", "constant")}
        if res.passed != (pair in opposite):
            p.append("duality verdict disagrees with the two classifications")
        return p
    if kind == "report":
        rows = []
        for row in res.rows:
            for name in ("parallel", "series"):
                cell = getattr(row, name)
                rows.append((row.label, name, cell.machine, cell.published, cell.agrees))
                if cell.ordering.monotonicity.classification != cell.machine:
                    return ["report cell disagrees with its ordering verdict"]
        return check_report_rows(rows)
    if kind == "sample":
        batch, emp = res
        return check_sample(op, batch.t1, batch.t2, emp,
                            _system(op, "parallel" if op["role"] == "distribution" else "series"))
    return [f"no check for op kind {kind!r}"]


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------


def _body(stdout: str) -> list[str]:
    return [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]


def _csv(stdout: str):
    lines = _body(stdout)
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def parse_cli(op: dict, stdout: str) -> dict:
    """Structured view of one subcommand's stdout."""
    sub = op["sub"]
    if sub == "eval":
        header, rows = _csv(stdout)
        cols = {h: np.array([float(r[j]) for r in rows]) for j, h in enumerate(header)}
        return {"t": cols["t"], "cols": cols}
    if sub == "error-table":
        header, rows = _csv(stdout)
        return {"t": np.array([float(r[0]) for r in rows]),
                "raw": np.array([float(r[1]) for r in rows]),
                "relative": np.array([float(r[2]) for r in rows]),
                "verdicts": [r[3] for r in rows]}
    if sub == "ordering":
        statement, ratio = _body(stdout)[:2]
        return {"statement": statement, "classification": ratio.split()[1]}
    if sub == "table1":
        header, rows = _csv(stdout)
        cells = []
        for r in rows:
            agrees = {"true": True, "false": False, "": None}[r[4]]
            cells.append((r[0], r[1], r[2], r[3] or None, agrees))
        return {"cells": cells}
    if sub == "verify":
        return json.loads(stdout)
    if sub == "sample":
        header, rows = _csv(stdout)
        return {"t1": np.array([float(r[0]) for r in rows]),
                "t2": np.array([float(r[1]) for r in rows])}
    raise ValueError(sub)


def check_cli(op: dict, outcome: tuple) -> list[str]:
    if outcome[0] == "raised":
        return [f"raised {outcome[1]}: {outcome[2]}"]
    code, stdout = outcome[1]
    sub = op["sub"]
    allowed = {0}
    if sub == "error-table" and op["measure"] == "mrl":
        allowed = {True: {3}, False: {0}, None: {0, 3}}[mrl_refusal_expected(op)]
    if sub == "verify":
        allowed = {0, 4}
        if least_alive(op["copula"], op["marginals"],
                       verify_audit_grid(op["marginals"])) <= VANISHED:
            allowed.add(3)  # the audit refuses where sf or cdf vanishes
    if code not in allowed:
        return [f"{sub} exited {code}, expected one of {sorted(allowed)}"]
    if code not in (0, 4):
        return []
    try:
        out = parse_cli(op, stdout)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"{sub} output does not parse: {exc}"]
    if sub == "eval":
        return check_curve(op, out["t"], out["cols"], None, _system(op))
    if sub == "error-table":
        return check_error(op, op["measure"], out["t"], out["raw"], out["relative"],
                           out["verdicts"], None, None, _system(op))
    if sub == "ordering":
        if out["classification"] not in CLASSIFICATIONS:
            return [f"classification {out['classification']!r} not allowed"]
        if not _statement_ok(op["structure"], out["classification"], out["statement"]):
            return ["ordering statement does not follow the classification"]
        return []
    if sub == "table1":
        return check_report_rows(out["cells"])
    if sub == "verify":
        p = []
        names = [c["check"] for c in out["checks"]]
        want = ["parallel_dominates_series"] + [f"identity_{k}" for k in AUDIT_KEYS]
        if op["copula"].radially_symmetric:
            want.append("radial_duality")
        if names != want:
            p.append("verify ran the wrong checks")
        if out["passed"] != all(c["passed"] for c in out["checks"]):
            p.append("overall verdict disagrees with the checks")
        if (code == 0) != out["passed"]:
            p.append("exit code disagrees with the verdict")
        if not out["checks"][0]["passed"]:
            p.append("parallel-dominates-series check failed")
        return p
    if sub == "sample":
        structure = "parallel" if op["role"] == "distribution" else "series"
        t1, t2 = out["t1"], out["t2"]
        alive = np.maximum(t1, t2) if structure == "parallel" else np.minimum(t1, t2)
        emp = []
        for t in op["ts"]:
            pr = float(np.mean(alive > t))
            emp.append((pr, math.sqrt(max(pr * (1 - pr), 1.0 / t1.size) / t1.size)))
        return check_sample(op, t1, t2, emp, _system(op, structure))
    return [f"no check for subcommand {sub!r}"]


# ---------------------------------------------------------------------------
# golden summaries
# ---------------------------------------------------------------------------


def _nums(values) -> list:
    return [None if (v is None or math.isnan(v)) else float(v) for v in np.asarray(values, float)]


def summarize(op: dict, outcome: tuple) -> dict:
    """Categorical fields (exact) and numbers (tolerance) of one op's outcome."""
    if outcome[0] == "raised":
        return {"cat": {"raised": outcome[1]}, "num": {}}
    res = outcome[1]
    kind = op["kind"]
    if kind == "curve":
        return {"cat": {"flags": sorted([i, c] for i, c, _ in res.flags)},
                "num": {c: _nums(getattr(res, c)) for c in ("sf", "hr", "rhr", "mrl", "ai")}}
    if kind.startswith("error_"):
        from copreli import classify_assessment

        return {"cat": {"verdicts": res.verdict_per_t, "flags": sorted(i for i, _ in res.flags),
                        "classification": classify_assessment(res)},
                "num": {"raw": _nums(res.raw), "relative": _nums(res.relative)}}
    if kind == "infer":
        return {"cat": {"classification": res.monotonicity.classification,
                        "direction": res.direction, "relation": res.relation,
                        "implied": list(res.implied), "proper": bool(res.proper)}, "num": {}}
    if kind == "theorem1":
        return {"cat": {"passed": bool(res.passed)},
                "num": {"worst_slack": [float(res.worst_slack)]}}
    if kind == "audit":
        return {"cat": {k: bool(v <= 1e-5) for k, v in sorted(res.per_check.items())}, "num": {}}
    if kind == "duality":
        return {"cat": {"passed": bool(res.passed), "parallel": res.parallel.classification,
                        "series": res.series.classification}, "num": {}}
    if kind == "report":
        return {"cat": {"rows": [[r.label, r.parallel.machine, r.parallel.agrees,
                                  r.parallel.ordering.direction, r.series.machine,
                                  r.series.agrees, r.series.ordering.direction]
                                 for r in res.rows]}, "num": {}}
    if kind == "sample":
        batch, emp = res
        return {"cat": {},
                "num": {"mean_t1": [float(np.mean(batch.t1))],
                        "mean_t2": [float(np.mean(batch.t2))],
                        "head_t1": _nums(batch.t1[:4]), "head_t2": _nums(batch.t2[:4])},
                "loose": {"empirical_sf": [e[0] for e in emp]}}
    if kind == "cli":
        code, stdout = res[0], res[1]
        cat: dict = {"exit": code}
        num: dict = {}
        if code not in (0, 4):
            return {"cat": cat, "num": num}
        out = parse_cli(op, stdout)
        sub = op["sub"]
        if sub == "eval":
            num = {c: _nums(out["cols"][c]) for c in ("sf", "hr", "rhr", "mrl", "ai")}
        elif sub == "error-table":
            cat["verdicts"] = out["verdicts"]
            num = {"raw": _nums(out["raw"]), "relative": _nums(out["relative"])}
        elif sub == "ordering":
            cat.update(out)
        elif sub == "table1":
            cat["cells"] = [list(c) for c in out["cells"]]
        elif sub == "verify":
            cat["checks"] = [[c["check"], c["passed"]] for c in out["checks"]]
            num["slack"] = [out["checks"][0]["margin"]]
        elif sub == "sample":
            num = {"mean_t1": [float(out["t1"].mean())], "mean_t2": [float(out["t2"].mean())],
                   "head_t1": _nums(out["t1"][:4]), "head_t2": _nums(out["t2"][:4])}
        return {"cat": cat, "num": num}
    raise ValueError(kind)


def compare_golden(got: dict, want: dict) -> list[str]:
    p = []
    if json.loads(json.dumps(got["cat"])) != want["cat"]:
        p.append("categorical fields differ from the golden file")
    for group, rel, abs_ in (("num", REL_TOL, ABS_TOL), ("loose", 0.0, LOOSE_ABS_TOL)):
        g, w = got.get(group, {}), want.get(group, {})
        if sorted(g) != sorted(w):
            p.append(f"{group} fields differ from the golden file")
            continue
        for key in w:
            a, b = g[key], w[key]
            if len(a) != len(b) or any(
                    (x is None) != (y is None) or (x is not None and not _close(x, y, rel, abs_))
                    for x, y in zip(a, b)):
                p.append(f"{key} differs from the golden file")
    return p
