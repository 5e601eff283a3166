"""Batch command line front end.

Subcommands::

    eval         reliability curve (t, sf, hr, rhr, mrl, ai) for one system
    error-table  signed error of one measure, dependent minus independent
    ordering     certify the hr/rhr stochastic order for a copula + structure
    table1       per-family ordering summary with published-table comparison
    verify       inequality + identity audit bundle (exit 4 on failure)
    sample       dependent lifetime pairs as CSV

Every run is deterministic given its configuration (including the seed).
Exit codes: 0 ok, 2 configuration error, 3 numerical error, 4 verification
failure.  A config file of ``key = value`` lines can stand in for flags;
explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .assessment import SystemPair, classify_assessment
from .copulas import Copula, parse_copula
from .exceptions import (
    CapacityError,
    ConfigError,
    CopreliError,
    DomainError,
    IntegrationError,
    SamplingError,
    SingularityError,
)
from .marginals import Marginal, parse_marginal
from .montecarlo import finite_difference_audit, sample_bivariate
from .ordering import (
    build_ordering_report,
    check_radial_duality,
    default_grid,
    infer_ordering,
    verify_theorem1,
)
from .systems import CURVE_COLUMNS, System

__all__ = ["main", "RunConfig", "parse_config_text"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4


@dataclass
class RunConfig:
    """Resolved configuration of one CLI run; prints back to parseable text."""

    command: str = "eval"
    copula: str | None = None
    marginal: list[str] = field(default_factory=list)
    structure: str = "series"
    mode: str | None = None
    grid_min: float | None = None
    grid_max: float | None = None
    grid_count: int = 25
    grid_spacing: str = "log"
    format: str = "csv"
    measure: str = "sf"
    seed: int = 20240901
    samples: int = 10000
    role: str = "distribution"

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            if f.name == "marginal":
                lines.extend(f"marginal = {m}" for m in v)
            elif isinstance(v, float):
                lines.append(f"{f.name} = {v!r}")
            else:
                lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    # --- resolution helpers -------------------------------------------------

    def copula_obj(self) -> Copula | None:
        return parse_copula(self.copula) if self.copula else None

    def marginal_objs(self) -> tuple[Marginal, ...]:
        if not self.marginal:
            raise ConfigError("at least one --marginal is required")
        return tuple(parse_marginal(m) for m in self.marginal)

    def resolved_mode(self) -> str:
        if self.mode is not None:
            return self.mode
        return "dependent" if self.copula else "independent"

    def grid(self, marginals) -> np.ndarray:
        if self.grid_count <= 0:
            raise ConfigError(f"empty grid: grid_count = {self.grid_count}")
        lo = self.grid_min
        hi = self.grid_max
        if lo is None:
            lo = min(m.quantile(0.01) for m in marginals)
        if hi is None:
            hi = max(m.quantile(0.99) for m in marginals)
        if not (lo > 0 if self.grid_spacing == "log" else lo >= 0):
            raise ConfigError(f"grid minimum {lo!r} invalid for {self.grid_spacing} spacing")
        if hi < lo:
            raise ConfigError(f"grid maximum {hi!r} below minimum {lo!r}")
        if self.grid_count == 1:
            return np.array([lo])
        if self.grid_spacing == "log":
            return np.geomspace(lo, hi, self.grid_count)
        if self.grid_spacing == "linear":
            return np.linspace(lo, hi, self.grid_count)
        raise ConfigError(f"grid spacing must be log or linear, got {self.grid_spacing!r}")


_INT_KEYS = {"grid_count", "seed", "samples"}
_FLOAT_KEYS = {"grid_min", "grid_max"}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; unknown keys and bad values carry positions."""
    known = {f.name for f in fields(RunConfig)}
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq or not value:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}",
                              token=raw.strip())
        if key not in known:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}", token=key)
        try:
            if key in _INT_KEYS:
                parsed = int(value)
            elif key in _FLOAT_KEYS:
                parsed = float(value)
            else:
                parsed = value
        except ValueError:
            raise ConfigError(f"config line {lineno}: bad value {value!r} for {key}",
                              token=value) from None
        if key == "marginal":
            out.setdefault("marginal", []).append(parsed)
        else:
            out[key] = parsed
    return out


def _provenance(config: RunConfig) -> dict:
    prov = {"tool": "copreli", "version": __version__, "command": config.command}
    if config.copula:
        prov["copula"] = config.copula
    if config.marginal:
        prov["marginals"] = ",".join(config.marginal)
    prov["structure"] = config.structure
    prov["mode"] = config.resolved_mode()
    grid_lo = "auto" if config.grid_min is None else repr(config.grid_min)
    grid_hi = "auto" if config.grid_max is None else repr(config.grid_max)
    prov["grid"] = f"{grid_lo}:{grid_hi}:{config.grid_count}:{config.grid_spacing}"
    prov["seed"] = config.seed
    return prov


def _comment_header(prov: dict) -> str:
    return "".join(f"# {k}={v}\n" for k, v in prov.items())


def _with_provenance(report_json: str, prov: dict) -> str:
    """A report's JSON text with the run's provenance added."""
    record = json.loads(report_json)
    record["provenance"] = prov
    return json.dumps(record, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(config: RunConfig) -> tuple[str, int]:
    marginals = config.marginal_objs()
    mode = config.resolved_mode()
    system = System(marginals=marginals, structure=config.structure, mode=mode,
                    copula=config.copula_obj())
    curve = system.curve(config.grid(marginals))
    prov = _provenance(config)
    if config.format == "json":
        return _with_provenance(curve.to_json(), prov), EXIT_OK
    if config.format == "md":
        names = ("t",) + CURVE_COLUMNS
        lines = ["| " + " | ".join(names) + " |", "|" + " --- |" * len(names)]
        for row in zip(curve.grid, *(getattr(curve, name) for name in CURVE_COLUMNS)):
            lines.append("| " + " | ".join(f"{x:.6g}" for x in row) + " |")
        return _comment_header(prov) + "\n".join(lines) + "\n", EXIT_OK
    return _comment_header(prov) + curve.to_csv(), EXIT_OK


def _require_copula(config: RunConfig) -> Copula:
    copula = config.copula_obj()
    if copula is None:
        raise ConfigError("this subcommand needs --copula")
    return copula


def _cmd_error_table(config: RunConfig) -> tuple[str, int]:
    marginals = config.marginal_objs()
    copula = _require_copula(config)
    pair = SystemPair(copula=copula, marginals=marginals, structure=config.structure)
    report = pair.error_report(config.grid(marginals), measure=config.measure)
    if report.flags and np.all(np.isnan(report.raw)):
        # isolated singular points are flagged in the table, but a report
        # with no defined cell is a numerical failure, not a result
        first_bad = float(report.grid[report.flags[0][0]])
        raise SingularityError(report.flags[0][1], t=first_bad)
    prov = _provenance(config)
    if config.format == "json":
        return _with_provenance(report.to_json(), prov), EXIT_OK
    if config.format == "md":
        lines = ["| t | raw | relative | verdict |", "| --- | --- | --- | --- |"]
        for t, raw, rel, v in zip(report.grid, report.raw, report.relative,
                                  report.verdict_per_t):
            lines.append(f"| {t:.6g} | {raw:.6g} | {rel:.6g} | {v} |")
        lines.append("")
        lines.append(f"classification: {classify_assessment(report)}")
        return _comment_header(prov) + "\n".join(lines) + "\n", EXIT_OK
    return _comment_header(prov) + report.to_csv(), EXIT_OK


def _cmd_ordering(config: RunConfig) -> tuple[str, int]:
    marginals = config.marginal_objs()
    copula = _require_copula(config)
    verdict = infer_ordering(copula, marginals, config.structure)
    prov = _provenance(config)
    if config.format == "json":
        mono = verdict.monotonicity
        record = {
            "provenance": prov,
            "structure": verdict.structure,
            "relation": verdict.relation,
            "direction": verdict.direction,
            "implied": list(verdict.implied),
            "ratio_classification": mono.classification,
            "certified_on_grid_points": int(mono.grid.size),
            "statement": verdict.describe(),
        }
        if mono.increase_witness:
            record["increase_witness"] = mono.increase_witness
        if mono.decrease_witness:
            record["decrease_witness"] = mono.decrease_witness
        return json.dumps(record, indent=2) + "\n", EXIT_OK
    text = (f"{verdict.describe()}\n"
            f"ratio: {verdict.monotonicity.classification} "
            f"(certified on {verdict.monotonicity.grid.size} grid points)\n")
    return _comment_header(prov) + text, EXIT_OK


def _cmd_table1(config: RunConfig) -> tuple[str, int]:
    marginals = config.marginal_objs() if config.marginal else None
    report = build_ordering_report(marginals=marginals)
    prov = _provenance(config)
    if config.format == "json":
        return _with_provenance(report.to_json(), prov), EXIT_OK
    if config.format == "csv":
        return _comment_header(prov) + report.to_csv(), EXIT_OK
    return _comment_header(prov) + report.to_markdown(), EXIT_OK


def _cmd_verify(config: RunConfig) -> tuple[str, int]:
    marginals = config.marginal_objs()
    copula = _require_copula(config)
    grid = default_grid(marginals, points=32)
    audit_grid = np.geomspace(max(grid[0], 1e-2), marginals[0].quantile(0.95), 12)
    checks = []
    th = verify_theorem1(copula, marginals, grid)
    checks.append({"check": "parallel_dominates_series", "passed": bool(th.passed),
                   "margin": float(th.worst_slack),
                   "detail": f"worst slack {th.worst_slack:.3e} at t={th.worst_t:.6g} "
                             f"({th.worst_inequality})"})
    audit = finite_difference_audit(copula, marginals, audit_grid)
    for name, disc in sorted(audit.per_check.items()):
        checks.append({"check": f"identity_{name}", "passed": bool(disc <= 1e-5),
                       "margin": float(disc), "detail": f"max discrepancy {disc:.3e}"})
    if copula.radially_symmetric:
        dual = check_radial_duality(copula, marginals, grid)
        checks.append({"check": "radial_duality", "passed": dual.passed,
                       "margin": 0.0,
                       "detail": f"parallel {dual.parallel.classification}, "
                                 f"series {dual.series.classification}"})
    all_passed = all(c["passed"] for c in checks)
    prov = _provenance(config)
    code = EXIT_OK if all_passed else EXIT_VERIFICATION
    if config.format == "json":
        return json.dumps({"provenance": prov, "passed": all_passed, "checks": checks},
                          indent=2) + "\n", code
    lines = [f"{'PASS' if c['passed'] else 'FAIL'}  {c['check']}: {c['detail']}"
             for c in checks]
    lines.append("all checks passed" if all_passed else "verification FAILED")
    return _comment_header(prov) + "\n".join(lines) + "\n", code


def _cmd_sample(config: RunConfig) -> tuple[str, int]:
    marginals = config.marginal_objs()
    if len(marginals) != 2:
        raise ConfigError("sample needs exactly two --marginal entries")
    copula = _require_copula(config)
    batch = sample_bivariate(copula, marginals, n_samples=config.samples,
                             seed=config.seed, role=config.role)
    prov = _provenance(config)
    prov["samples"] = config.samples
    prov["role"] = config.role
    if config.format == "json":
        return json.dumps({"provenance": prov,
                           "t1": [float(x) for x in batch.t1],
                           "t2": [float(x) for x in batch.t2]}) + "\n", EXIT_OK
    body = "t1,t2\n" + "".join(f"{float(a)!r},{float(b)!r}\n"
                               for a, b in zip(batch.t1, batch.t2))
    return _comment_header(prov) + body, EXIT_OK


_DISPATCH = {
    "eval": _cmd_eval,
    "error-table": _cmd_error_table,
    "ordering": _cmd_ordering,
    "table1": _cmd_table1,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copreli",
        description="Copula-based error assessment for series/parallel reliability systems",
    )
    parser.add_argument("--version", action="version", version=f"copreli {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("eval", "reliability curve for one system"),
        ("error-table", "dependent-minus-independent error of one measure"),
        ("ordering", "certify the stochastic order for a copula and structure"),
        ("table1", "per-family ordering summary with published-table comparison"),
        ("verify", "inequality and identity audit bundle"),
        ("sample", "draw dependent lifetime pairs"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config file of key = value lines (flags win)")
        p.add_argument("--copula", help="copula spec, e.g. fgm:alpha=0.5")
        p.add_argument("--marginal", action="append",
                       help="marginal spec, e.g. exp:1.0 (repeatable)")
        p.add_argument("--structure", choices=["series", "parallel"])
        p.add_argument("--mode", choices=["dependent", "independent"])
        p.add_argument("--grid-min", type=float, dest="grid_min")
        p.add_argument("--grid-max", type=float, dest="grid_max")
        p.add_argument("--grid-count", type=int, dest="grid_count")
        p.add_argument("--grid-spacing", choices=["log", "linear"], dest="grid_spacing")
        p.add_argument("--format", choices=["csv", "json", "md"])
        p.add_argument("--measure", choices=["sf", "hr", "rhr", "mrl"])
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--role", choices=["distribution", "survival"])
        p.add_argument("--output", help="write to this file instead of stdout")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        for key, value in file_values.items():
            setattr(config, key, value)
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        text, code = _DISPATCH[args.command](config)
    except (ConfigError, DomainError) as exc:
        print(f"copreli: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularityError, IntegrationError, SamplingError, CapacityError) as exc:
        extra = f" at t={exc.t:.6g}" if isinstance(exc, SingularityError) and exc.t is not None else ""
        print(f"copreli: numerical error: {exc}{extra}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CopreliError as exc:  # safety net for future error classes
        print(f"copreli: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
