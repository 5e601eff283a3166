"""Span tracing of copreli's layers, installed from outside the package.

``Tracer.install`` swaps each layer's public functions and methods for thin
wrappers.  A function is replaced in every copreli module that binds it, so
a caller that imported the name (``systems.central_log_derivative``,
``cli.infer_ordering``) goes through the wrapper too.  Methods are replaced
on their classes.  ``Tracer.uninstall`` puts every original back.

Each wrapper records one span: name, start, end, parent span, op id and a
work size (points, samples, grid cells).  Spans live in flat arrays while
the run goes on and are written out at the end.  A span's self time is its
duration minus the durations of its direct children; spans nest strictly
(one thread), so the children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

SPANS_FORMAT = "copreli-bench-spans/1"


def _points(shape) -> int:
    return int(np.prod(shape[:-1])) if len(shape) else 1


class Tracer:
    """Records spans around copreli's layer boundaries while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._op = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def set_op(self, op_id: int) -> None:
        self._op[0] = op_id

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, span: str, fn, note=None):
        """``fn`` recording a ``span`` per call; ``note(args, kwargs, result)`` gives its size."""
        nid = self._name_id(span)
        names, parents, ops, sizes = self.name, self.parent, self.op, self.size
        starts, ends, stack, op = self.start, self.end, self._stack, self._op
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op[0])
            sizes.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if note is not None:
                sizes[i] = note(args, kwargs, result)
            return result

        return wrapper

    # --- installing --------------------------------------------------------

    def _patch_function(self, modules, owner, attr: str, span: str, note=None) -> None:
        original = getattr(owner, attr)
        wrapped = self.wrap(span, original, note)
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, wrapped)
                self._undo.append((module, key, original))

    def _patch_method(self, cls, attr: str, span: str, note=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(span, raw.__func__, note))
        else:
            new = self.wrap(span, raw, note)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def install(self) -> None:
        import copreli
        import copreli.cli
        from copreli import assessment, copulas, marginals, montecarlo, numerics, ordering, systems

        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "copreli" or name.startswith("copreli.")]

        self._patch_method(copulas.Copula, "value", "copulas.value",
                           lambda a, k, r: _points(np.shape(a[1])))
        for cls in copulas.FAMILIES.values():
            self._patch_method(cls, "param_violations", "copulas.param_violations")
            self._patch_method(cls, "_raw", "copulas.raw", lambda a, k, r: _points(a[1].shape))

        for cls in (marginals.Exponential, marginals.Weibull):
            for meth in ("cdf", "sf", "pdf", "hazard", "reversed_hazard", "quantile"):
                self._patch_method(cls, meth, f"marginals.{meth}",
                                   lambda a, k, r: int(np.size(a[1])))

        for fn in ("adaptive_step", "central_log_derivative", "central_derivative",
                   "richardson_pair"):
            self._patch_function(modules, numerics, fn, f"numerics.{fn}")

        for meth in ("sf", "cdf", "hazard", "reversed_hazard", "mrl", "ai"):
            self._patch_method(systems.System, meth, f"systems.{meth}")
        self._patch_method(systems.ReliabilityCurve, "build", "systems.curve",
                           lambda a, k, r: int(r.grid.size))

        self._patch_method(assessment.SystemPair, "error_report", "assessment.error_report",
                           lambda a, k, r: int(r.grid.size))

        self._patch_function(modules, ordering, "classify_monotonicity", "ordering.classify",
                             self._note_classify)
        self._patch_function(modules, ordering, "infer_ordering", "ordering.infer")
        self._patch_function(modules, ordering, "verify_theorem1", "ordering.theorem1")
        self._patch_function(modules, ordering, "check_radial_duality", "ordering.duality")
        self._patch_function(modules, ordering, "build_ordering_report", "ordering.report")

        self._patch_function(modules, montecarlo, "sample_bivariate", "montecarlo.sample",
                             lambda a, k, r: int(r.size))
        self._patch_function(modules, montecarlo, "empirical_system_sf",
                             "montecarlo.empirical_sf")
        self._patch_function(modules, montecarlo, "finite_difference_audit", "montecarlo.audit")

        self._patch_function(modules, copreli.cli, "main", "cli.main")
        for cls, meths in ((systems.ReliabilityCurve, ("to_csv", "to_json")),
                           (assessment.ErrorReport, ("to_csv", "to_json")),
                           (ordering.OrderingReport, ("to_csv", "to_json", "to_markdown"))):
            for meth in meths:
                self._patch_method(cls, meth, "cli.format")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _note_classify(self, args, kwargs, result) -> int:
        evals = int(result.grid.size)
        grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
        budget = kwargs.get("refine_budget", args[2] if len(args) > 2 else 256)
        refine = evals - int(np.size(grid))
        self.counters["ordering.classify.refine_evals"] += refine
        self.counters["ordering.classify.budget_exhausted"] += int(refine >= budget)
        return evals

    # --- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.array(getattr(self, key))
                for key in ("name", "parent", "op", "size", "start", "end")}

    def save(self, path) -> None:
        np.savez_compressed(path, format=np.array(SPANS_FORMAT),
                            names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the total duration of its direct children."""
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    return duration - covered


CLI_SUBCOMMANDS = ("eval", "error-table", "ordering", "table1", "verify", "sample")


def layer_metrics(names: list[str], spans: dict[str, np.ndarray],
                  counters: Counter) -> dict[str, float]:
    """Per-layer counts and self times from one traced pass."""
    ids = spans["name"]
    parent = spans["parent"]
    duration = spans["end"] - spans["start"]
    own = self_times(parent, duration)
    size = spans["size"]
    n_names = len(names)
    parent_id = np.where(parent >= 0, ids[np.maximum(parent, 0)], -1)

    calls_by = np.bincount(ids, minlength=n_names)
    own_by = np.bincount(ids, weights=own, minlength=n_names)
    dur_by = np.bincount(ids, weights=duration, minlength=n_names)
    size_by = np.bincount(ids, weights=size, minlength=n_names)

    def pick(by, prefix: str) -> float:
        if prefix.endswith("."):
            return float(sum(by[i] for i, n in enumerate(names) if n.startswith(prefix)))
        return float(by[names.index(prefix)]) if prefix in names else 0.0

    def under(child: str, parent_name: str) -> np.ndarray:
        if child not in names or parent_name not in names:
            return np.zeros(ids.size, dtype=bool)
        return (ids == names.index(child)) & (parent_id == names.index(parent_name))

    def ratio(num, den):
        return float(num) / den if den else 0.0

    value_calls = int(pick(calls_by, "copulas.value"))
    value_points = int(pick(size_by, "copulas.value"))
    mrl_calls = int(pick(calls_by, "systems.mrl"))
    samples = int(pick(size_by, "montecarlo.sample"))
    marg_calls = int(pick(calls_by, "marginals."))
    return {
        "copulas.value.calls": value_calls,
        "copulas.value.points": value_points,
        "copulas.value.points_per_call": ratio(value_points, value_calls),
        "copulas.value.self_s": pick(own_by, "copulas.value") + pick(own_by, "copulas.raw"),
        "copulas.value.ns_per_point": ratio(pick(dur_by, "copulas.value") * 1e9, value_points),
        "copulas.raw.self_s": pick(own_by, "copulas.raw"),
        "copulas.param_violations.calls": int(pick(calls_by, "copulas.param_violations")),
        "copulas.param_violations.self_s": pick(own_by, "copulas.param_violations"),
        "marginals.calls": marg_calls,
        "marginals.points_per_call": ratio(pick(size_by, "marginals."), marg_calls),
        "marginals.self_s": pick(own_by, "marginals."),
        "numerics.calls": int(pick(calls_by, "numerics.")),
        "numerics.self_s": pick(own_by, "numerics."),
        "systems.sf.calls": int(pick(calls_by, "systems.sf")),
        "systems.sf.self_s": pick(own_by, "systems.sf"),
        "systems.mrl.calls": mrl_calls,
        "systems.mrl.self_s": pick(own_by, "systems.mrl"),
        "systems.sf_calls_per_mrl": ratio(
            np.count_nonzero(under("systems.sf", "systems.mrl")), mrl_calls),
        "systems.hazard.self_s": pick(own_by, "systems.hazard"),
        "systems.reversed_hazard.self_s": pick(own_by, "systems.reversed_hazard"),
        "systems.curve.self_s": pick(own_by, "systems.curve"),
        "assessment.error_report.calls": int(pick(calls_by, "assessment.error_report")),
        "assessment.error_report.self_s": pick(own_by, "assessment.error_report"),
        "assessment.cells": int(pick(size_by, "assessment.error_report")),
        "ordering.classify.calls": int(pick(calls_by, "ordering.classify")),
        "ordering.classify.evals": int(pick(size_by, "ordering.classify")),
        "ordering.classify.refine_evals": int(counters["ordering.classify.refine_evals"]),
        "ordering.classify.budget_exhausted": int(counters["ordering.classify.budget_exhausted"]),
        "ordering.classify.self_s": pick(own_by, "ordering.classify"),
        "ordering.infer.self_s": pick(own_by, "ordering.infer"),
        "ordering.theorem1.self_s": pick(own_by, "ordering.theorem1"),
        "ordering.report.self_s": pick(own_by, "ordering.report"),
        "montecarlo.samples": samples,
        "montecarlo.sample.self_s": pick(own_by, "montecarlo.sample"),
        "montecarlo.kernel_points_per_sample": ratio(
            size[under("copulas.value", "montecarlo.sample")].sum(), samples),
        "montecarlo.ns_per_sample": ratio(pick(dur_by, "montecarlo.sample") * 1e9, samples),
        "montecarlo.audit.self_s": pick(own_by, "montecarlo.audit"),
        "cli.format_s": pick(own_by, "cli.main") + pick(own_by, "cli.format"),
    }
