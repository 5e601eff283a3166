"""Tests of the benchmark itself (not of copreli).

    PYTHONPATH=src python3 bench/selftest.py

They check that the generators are seeded, that the output check catches
planted wrong values, that self times add up on a hand-built span tree, and
that a traced pass counts the same work twice for the same seed.
"""

import dataclasses
import json
import tempfile
import unittest
from pathlib import Path

import numpy as np

import checks
import tracing
import worker
import workloads

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def first_op(workload: str, kind: str, seed: int = worker.REFERENCE_SEED, **match) -> dict:
    for op in workloads.take(workload, seed, 200):
        if op["kind"] == kind and all(op.get(k) == v for k, v in match.items()):
            return op
    raise LookupError(kind)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_ops_and_other_seed_other_ops(self):
        for workload in workloads.WORKLOADS:
            a = repr(workloads.take(workload, 7, 40))
            self.assertEqual(a, repr(workloads.take(workload, 7, 40)), workload)
            self.assertNotEqual(a, repr(workloads.take(workload, 8, 40)), workload)

    def test_cycle_shape_does_not_depend_on_seed(self):
        def shape(ops):
            return [(op["kind"], op.get("sub"), op.get("structure"), op.get("n"),
                     len(op.get("grid", ())), len(op.get("marginals", ())))
                    for op in ops]

        for workload in workloads.WORKLOADS:
            self.assertEqual(shape(workloads.take(workload, 1, 100)),
                             shape(workloads.take(workload, 2, 100)), workload)


class PlantedErrorTest(unittest.TestCase):
    def assert_caught(self, op, outcome, golden=None):
        self.assertTrue(checks.check(op, outcome), "invariants missed a planted error")
        if golden is not None:
            self.assertTrue(checks.compare_golden(checks.summarize(op, outcome), golden),
                            "golden comparison missed a planted error")

    def golden_of(self, workload, index):
        want = json.loads(worker.GOLDEN.read_text())["workloads"][workload]
        return next(g["summary"] for g in want if g["index"] == index)

    def test_clean_outputs_pass(self):
        for workload, kind in (("curves", "curve"), ("curves", "error_mrl"),
                               ("orderings", "infer"), ("orderings", "error_sf"),
                               ("sampling", "sample")):
            op = first_op(workload, kind)
            self.assertEqual(checks.check(op, worker.execute(op)), [], (workload, kind))

    def test_survival_off_by_1e_3(self):
        op = workloads.take("curves", worker.REFERENCE_SEED, 1)[0]
        res = worker.execute(op)[1]
        sf = res.sf.copy()
        sf[3] += 1e-3
        self.assert_caught(op, ("ok", dataclasses.replace(res, sf=sf)),
                           self.golden_of("curves", 0))

    def test_error_off_by_1e_3(self):
        op = workloads.take("orderings", worker.REFERENCE_SEED, 1)[0]
        res = worker.execute(op)[1]
        raw = res.raw.copy()
        raw[5] += 1e-3
        self.assert_caught(op, ("ok", dataclasses.replace(res, raw=raw)),
                           self.golden_of("orderings", 0))

    def test_flipped_verdict(self):
        ops = workloads.take("orderings", worker.REFERENCE_SEED, 5)
        index = next(i for i, op in enumerate(ops) if op["kind"] == "infer")
        op = ops[index]
        res = worker.execute(op)[1]
        mono = res.monotonicity
        flipped = {"increasing": "decreasing", "decreasing": "increasing",
                   "constant": "increasing", "non_monotone": "constant"}[mono.classification]
        bad = dataclasses.replace(res, monotonicity=dataclasses.replace(
            mono, classification=flipped))
        self.assert_caught(op, ("ok", bad), self.golden_of("orderings", index))

    def test_sample_shifted(self):
        op = first_op("sampling", "sample", role="distribution")
        batch, emp = worker.execute(op)[1]
        moved = [(value + 0.05, se) for value, se in emp]
        self.assert_caught(op, ("ok", (batch, moved)))

    def test_cli_exit_code_and_unexpected_exception(self):
        op = first_op("cli", "cli", sub="ordering")
        code, out = worker.execute(op, cli_in_process=True)[1]
        self.assertEqual(checks.check(op, ("ok", (code, out))), [])
        self.assertTrue(checks.check(op, ("ok", (2, out))))
        curve_op = first_op("curves", "curve")
        self.assertTrue(checks.check(curve_op, ("raised", "IntegrationError", "planted")))


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_on_hand_built_tree(self):
        # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
        parent = np.array([-1, 0, 1, 0])
        start = np.array([0.0, 1.0, 2.0, 5.0])
        end = np.array([10.0, 4.0, 3.0, 9.0])
        own = tracing.self_times(parent, end - start)
        np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 4.0])

    def test_self_times_of_real_wrappers_add_up(self):
        tracer = tracing.Tracer()

        def leaf(x):
            return sum(range(x))

        traced_leaf = tracer.wrap("leaf", leaf)

        def mid(x):
            return traced_leaf(x) + traced_leaf(2 * x)

        traced_root = tracer.wrap("root", lambda x: tracer.wrap("mid", mid)(x) + traced_leaf(x))
        traced_root(20000)
        spans = tracer.arrays()
        duration = spans["end"] - spans["start"]
        own = tracing.self_times(spans["parent"], duration)
        self.assertEqual(list(spans["parent"]), [-1, 0, 1, 1, 0])
        self.assertAlmostEqual(own.sum(), duration[0], places=12)
        self.assertTrue(np.all(own >= 0))


class TracedCountTest(unittest.TestCase):
    def test_counts_repeat_for_the_same_seed(self):
        spec = json.loads(BENCHMARK.read_text())
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"
                  and m["name"] not in ("copulas.value.ns_per_point", "montecarlo.ns_per_sample",
                                        "trace.overhead_ratio")]
        with tempfile.TemporaryDirectory() as tmp:
            for workload in ("orderings", "cli"):
                runs = [worker.traced_run(workload, 3, Path(tmp) / f"{workload}{i}.npz")
                        for i in range(2)]
                for run in runs:
                    self.assertEqual(run["failures"], [])
                first, second = ({k: r["metrics"][k] for k in counts if k in r["metrics"]}
                                 for r in runs)
                self.assertEqual(first, second, workload)
                self.assertGreater(first["copulas.value.calls"], 0)


class KnownDefectTest(unittest.TestCase):
    """The program defects that the workloads' grids stay clear of.

    Each is marked as an expected failure while the program has it: once it
    is fixed, the test reports an unexpected success, and the mark and the
    grid rule that avoids it (``workloads.series_hr_grid``,
    ``workloads.curve_grid``) can go.
    """

    @unittest.expectedFailure
    def test_series_hr_on_the_cli_default_grid(self):
        from copreli import MarshallOlkin, SystemPair, Weibull

        marginals = (Weibull(1.7913190580699387, 2.748260610637292),
                     Weibull(0.5637169418659368, 0.9069634832251845),
                     Weibull(1.0962210981969736, 0.8197876113467362))
        copula = MarshallOlkin(alpha=(0.3887870827033031, 1.5751037601909295,
                                      0.2675059305740639), dim=3)
        grid = np.geomspace(min(m.quantile(0.01) for m in marginals),
                            max(m.quantile(0.99) for m in marginals), 25)
        pair = SystemPair(copula=copula, marginals=marginals, structure="series")
        op = {"kind": "error_hr", "copula": copula, "marginals": marginals,
              "structure": "series", "grid": tuple(grid)}
        try:
            outcome = ("ok", pair.error_report(grid, measure="hr"))
        except Exception as exc:
            outcome = ("raised", type(exc).__name__, str(exc))
        self.assertEqual(checks.check(op, outcome), [])

    @unittest.expectedFailure
    def test_hazard_identity_next_to_a_kink(self):
        # t lies 4e-5 (relative) from the linear Spearman anti-diagonal kink
        # F1 + F2 = 1, inside the program's central-difference stencil.
        from copreli import Exponential, LinearSpearman, System

        system = System(marginals=(Exponential(1.3299407174150601),
                                   Exponential(1.8661034265765228)),
                        structure="parallel", mode="dependent",
                        copula=LinearSpearman(theta=-0.4422524490498133))
        t = 0.43808541799532624
        sf, cdf = system.sf(t), system.cdf(t)
        self.assertAlmostEqual(system.hazard(t) * sf / (system.reversed_hazard(t) * cdf), 1.0,
                               delta=1e-5)

    def test_curve_grids_keep_clear_of_kinks(self):
        ops = [op for op in workloads.take("curves", 11, 240) if op["kind"] == "curve"]
        ops += [op for op in workloads.take("cli", 11, 60) if op.get("sub") == "eval"]
        shifted = 0
        for op in ops:
            if "grid" in op:
                grid = np.asarray(op["grid"])
            else:
                argv = op["argv"]
                grid = np.geomspace(float(argv[argv.index("--grid-min") + 1]),
                                    float(argv[argv.index("--grid-max") + 1]),
                                    workloads.GRID_POINTS)
            found = workloads.kinks(op["copula"], op["marginals"], op["structure"],
                                    grid[0] / 2, grid[-1] * 2)
            for k, width in found:
                self.assertTrue(np.all(np.abs(np.log(grid / k)) > width))
            shifted += bool(found)
        self.assertGreater(shifted, 10)

    def test_series_hr_grid_keeps_the_denominator_representable(self):
        for op in workloads.take("orderings", 11, 300):
            if op["kind"] != "error_hr":
                continue
            t = op["grid"][-1] * 1.01  # past the last point, as the stencil reaches
            ind = np.prod([float(m.sf(t)) for m in op["marginals"]])
            self.assertGreater(ind, 1e-8)


class GoldenTest(unittest.TestCase):
    def test_program_matches_golden_file(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(worker.check_golden(workload), [], workload)


if __name__ == "__main__":
    unittest.main()
