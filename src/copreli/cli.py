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
failure.  Each option is defined once, as a field of ``RunConfig``, and is
both a flag (``--grid-min``) and a config-file key (``grid_min``) of the
subcommands that read it; any other subcommand refuses it with exit 2.  A
config file of ``key = value`` lines can stand in for flags; its values are
converted and checked by the flags' own parser, and explicit flags win.
Every output (csv, json or md) is written by ``copreli.tables``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from . import __version__, tables
from .assessment import SystemPair
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
from .systems import System

__all__ = ["main", "RunConfig", "parse_config_text"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

_GRID = ("eval", "error-table")  # the subcommands that read a time grid
_SYSTEM = (*_GRID, "ordering")  # ... a structure
_COPULA = (*_SYSTEM, "verify", "sample")  # ... a copula
_ALL = (*_COPULA, "table1")


def _option(commands, default=None, **flag):
    """A RunConfig field set by the flag ``--<name>`` and the config key
    ``<name>`` of the subcommands in ``commands``, those that read it; ``flag``
    holds the argparse keywords (type, choices, action, help), which convert
    and check a config-file value too."""
    return field(default=default, metadata={"commands": commands, "flag": flag})


@dataclass
class RunConfig:
    """Resolved configuration of one CLI run."""

    command: str = "eval"
    copula: str | None = _option(_COPULA, help="copula spec, e.g. fgm:alpha=0.5")
    marginal: list[str] = field(default_factory=list, metadata={
        "commands": _ALL,
        "flag": {"action": "append", "help": "marginal spec, e.g. exp:1.0 (repeatable)"}})
    structure: str = _option(_SYSTEM, "series", choices=["series", "parallel"])
    mode: str | None = _option(("eval",), choices=["dependent", "independent"])
    grid_min: float | None = _option(_GRID, type=float)
    grid_max: float | None = _option(_GRID, type=float)
    grid_count: int = _option(_GRID, 25, type=int)
    grid_spacing: str = _option(_GRID, "log", choices=["log", "linear"])
    format: str = _option(_ALL, "csv", choices=["csv", "json", "md"])
    measure: str = _option(("error-table",), "sf", choices=["sf", "hr", "rhr", "mrl"])
    seed: int = _option(("sample",), 20240901, type=int)
    samples: int = _option(("sample",), 10000, type=int)
    role: str = _option(("sample",), "distribution", choices=["distribution", "survival"])

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
        if self.grid_spacing == "log":
            return np.geomspace(lo, hi, self.grid_count)
        if self.grid_spacing == "linear":
            return np.linspace(lo, hi, self.grid_count)
        raise ConfigError(f"grid spacing must be log or linear, got {self.grid_spacing!r}")


# every field but ``command``, which the subcommand sets
_OPTIONS = tuple(f for f in fields(RunConfig) if f.metadata)


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    for f in _OPTIONS:
        if command in f.metadata["commands"]:
            parser.add_argument("--" + f.name.replace("_", "-"), **f.metadata["flag"])


def parse_config_text(text: str, command: str) -> dict:
    """Parse ``key = value`` lines for ``command`` through its flags' own
    parser, so each value is converted and checked as its flag is and a key
    it does not read is refused; errors carry line numbers."""
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    _add_options(parser, command)
    names = {f.name for f in _OPTIONS if command in f.metadata["commands"]}
    values = argparse.Namespace()
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
        if key not in names:
            raise ConfigError(f"config line {lineno}: {command} does not read {key!r}", token=key)
        try:
            parser.parse_args([f"--{key.replace('_', '-')}={value}"], namespace=values)
        except argparse.ArgumentError as exc:
            raise ConfigError(f"config line {lineno}: {key}: {exc.message}",
                              token=value) from None
    return {k: v for k, v in vars(values).items() if v is not None}


def _provenance(config: RunConfig) -> dict:
    """The tool and subcommand, then each option the subcommand reads (as
    ``_add_options`` scopes them) and holds a value for, under its header key."""
    lo, hi = ("auto" if x is None else repr(x) for x in (config.grid_min, config.grid_max))
    header = {"copula": ("copula", config.copula),
              "marginal": ("marginals", ",".join(config.marginal)),
              "structure": ("structure", config.structure),
              "mode": ("mode", config.resolved_mode()),
              "grid_min": ("grid", f"{lo}:{hi}:{config.grid_count}:{config.grid_spacing}"),
              "measure": ("measure", config.measure), "seed": ("seed", config.seed),
              "samples": ("samples", config.samples), "role": ("role", config.role)}
    read = [header[f.name] for f in _OPTIONS
            if f.name in header and config.command in f.metadata["commands"]]
    return {"tool": "copreli", "version": __version__, "command": config.command,
            **{key: value for key, value in read if value not in (None, "")}}


@dataclass(frozen=True)
class _Result:
    """A result the CLI builds itself: ``to_csv`` and ``to_markdown`` take the
    provenance to text, and ``record`` led by the provenance is the json."""

    to_csv: Callable[[dict], str]
    to_markdown: Callable[[dict], str]
    record: dict
    indent: int | None = 2

    def to_json(self, provenance: dict) -> str:
        return tables.to_json(self.record, provenance, provenance_first=True,
                              indent=self.indent)


_RENDER = {"csv": "to_csv", "json": "to_json", "md": "to_markdown"}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(config: RunConfig):
    """reliability curve for one system"""
    marginals = config.marginal_objs()
    mode = config.resolved_mode()
    system = System(marginals=marginals, structure=config.structure, mode=mode,
                    copula=config.copula_obj())
    return system.curve(config.grid(marginals)), EXIT_OK


def _require_copula(config: RunConfig) -> Copula:
    copula = config.copula_obj()
    if copula is None:
        raise ConfigError("this subcommand needs --copula")
    return copula


def _cmd_error_table(config: RunConfig):
    """dependent-minus-independent error of one measure"""
    marginals = config.marginal_objs()
    copula = _require_copula(config)
    pair = SystemPair(copula=copula, marginals=marginals, structure=config.structure)
    report = pair.error_report(config.grid(marginals), measure=config.measure)
    if report.flags and np.all(np.isnan(report.raw)):
        # isolated singular points are flagged in the table, but a report
        # with no defined cell is a numerical failure, not a result
        first_bad = float(report.grid[report.flags[0][0]])
        raise SingularityError(report.flags[0][1], t=first_bad)
    return report, EXIT_OK


def _cmd_ordering(config: RunConfig):
    """certify the stochastic order for a copula and structure"""
    marginals = config.marginal_objs()
    copula = _require_copula(config)
    verdict = infer_ordering(copula, marginals, config.structure)
    mono = verdict.monotonicity
    record = {
        "structure": verdict.structure,
        "relation": verdict.relation,
        "direction": verdict.direction,
        "implied": verdict.implied,
        "ratio_classification": mono.classification,
        "certified_on_grid_points": int(mono.grid.size),
        "statement": verdict.describe(),
    }
    if mono.increase_witness:
        record["increase_witness"] = mono.increase_witness
    if mono.decrease_witness:
        record["decrease_witness"] = mono.decrease_witness
    text = partial(tables.to_text, f"{verdict.describe()}\n"
                   f"ratio: {mono.classification} (certified on {mono.grid.size} grid points)\n")
    return _Result(text, text, record), EXIT_OK


def _cmd_table1(config: RunConfig):
    """per-family ordering summary with published-table comparison"""
    marginals = config.marginal_objs() if config.marginal else None
    return build_ordering_report(marginals=marginals), EXIT_OK


def _cmd_verify(config: RunConfig):
    """inequality and identity audit bundle"""
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
    lines = [f"{'PASS' if c['passed'] else 'FAIL'}  {c['check']}: {c['detail']}"
             for c in checks]
    lines.append("all checks passed" if all_passed else "verification FAILED")
    text = partial(tables.to_text, "\n".join(lines) + "\n")
    return (_Result(text, text, {"passed": all_passed, "checks": checks}),
            EXIT_OK if all_passed else EXIT_VERIFICATION)


def _cmd_sample(config: RunConfig):
    """draw dependent lifetime pairs"""
    marginals = config.marginal_objs()
    if len(marginals) != 2:
        raise ConfigError("sample needs exactly two --marginal entries")
    copula = _require_copula(config)
    batch = sample_bivariate(copula, marginals, n_samples=config.samples,
                             seed=config.seed, role=config.role)
    pairs = {"t1": batch.t1, "t2": batch.t2}
    csv, md = (partial(w, pairs.keys(), pairs.values()) for w in (tables.to_csv, tables.to_markdown))
    return _Result(csv, md, pairs, indent=None), EXIT_OK


# a subcommand's docstring is its line in ``copreli --help``
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
    for name, command in _DISPATCH.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", help="config file of key = value lines (flags win)")
        _add_options(p, name)
        p.add_argument("--output", help="write to this file instead of stdout")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                values = parse_config_text(fh.read(), args.command)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
    for f in _OPTIONS:
        if getattr(args, f.name, None) is not None:  # a subcommand has its own flags only
            values[f.name] = getattr(args, f.name)
    return RunConfig(command=args.command, **values)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        output, code = _DISPATCH[args.command](config)
        text = getattr(output, _RENDER[config.format])(_provenance(config))
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
