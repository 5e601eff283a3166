"""One workload run in a fresh interpreter; started by run.py, prints one JSON line.

The clock reading right after ``import copreli`` is this process's set-up
end point.  An untimed warm-up op comes first; then ops run in a closed loop
(one client, one op in flight) until the ops' own time, scaled to the
reference speed (calibrate.py), adds up to ``--seconds``.  Each op's output
is checked between ops, off the clock.
After the loop the golden ops of the reference seed run and are compared
with ``golden.json``.

With ``--trace 1`` a fixed number of ops runs twice: once plain, timed, and
once under the tracer; the per-layer metrics come from the second pass.
"""

import time

import copreli  # noqa: F401  (set-up ends when this import finishes)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
REFERENCE_SEED = 20240901
CLI_TIMEOUT_S = 150
WALL_LIMIT_S = 150
CALIBRATE_EVERY_S = 0.25
RAW_LIMIT = 1.2  # on a very slow host a run stops at this many --seconds of raw op time
# Ops in one traced pass: whole cycles, so every op kind of the workload runs.
TRACE_OPS = {"cli": 12, "curves": 12, "orderings": 89, "sampling": 12}
GOLDEN_OPS = {"cli": 6, "curves": 4, "orderings": 16, "sampling": 2}


def execute(op: dict, cli_in_process: bool = False) -> tuple:
    """Run one op: ("ok", result) or ("raised", type name, message)."""
    try:
        if op["kind"] == "cli" and not cli_in_process:
            proc = subprocess.run([sys.executable, "-m", "copreli.cli", *op["argv"]],
                                  capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            return ("ok", (proc.returncode, proc.stdout))
        if op["kind"] == "cli":
            return ("ok", workloads.run_cli_in_process(op["argv"]))
        return ("ok", workloads.run_in_process(op))
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return ("raised", type(exc).__name__, str(exc))


def golden_ops(workload: str) -> list[tuple[int, dict]]:
    """(index, op) pairs of the reference seed that the golden file pins."""
    count = GOLDEN_OPS[workload]
    picked = list(enumerate(workloads.take(workload, REFERENCE_SEED, count)))
    if workload == "orderings":
        for i, op in enumerate(workloads.generate(workload, REFERENCE_SEED)):
            if op["kind"] == "report":
                picked.append((i, op))
                break
    return picked


def golden_summaries(workload: str) -> list[dict]:
    return [{"index": i, "summary": checks.summarize(op, execute(op, cli_in_process=True))}
            for i, op in golden_ops(workload)]


def check_golden(workload: str) -> list[str]:
    want = json.loads(GOLDEN.read_text())
    if want["reference_seed"] != REFERENCE_SEED:
        return ["golden file was written for another reference seed"]
    problems = []
    for got, ref in zip(golden_summaries(workload), want["workloads"][workload]):
        problems += [f"golden op {ref['index']}: {p}"
                     for p in checks.compare_golden(got["summary"], ref["summary"])]
    return problems


def _describe(op: dict) -> str:
    parts = [op["kind"]]
    if "sub" in op:
        parts.append(op["sub"])
    if "copula" in op:
        parts.append(op["copula"].spec_string())
    if "structure" in op:
        parts.append(op["structure"])
    return " ".join(parts)


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    cal_t, cal_s = [], []

    def calibrate_now():
        start = time.perf_counter()
        cal_s.append(calibrate.kernel_seconds())
        cal_t.append(0.5 * (start + time.perf_counter()))

    gen = workloads.generate(workload, seed)
    calibrate_now()
    execute(next(gen))  # warm-up, discarded
    latencies, mids, failures = [], [], []
    busy = 0.0  # op time at the reference speed, so runs hold the same work
    raw_busy = 0.0
    wall_end = time.monotonic() + WALL_LIMIT_S
    while (busy < seconds and raw_busy < RAW_LIMIT * seconds
           and time.monotonic() < wall_end):
        op = next(gen)
        t0 = time.perf_counter()
        outcome = execute(op)
        dt = time.perf_counter() - t0
        latencies.append(dt)
        mids.append(t0 + 0.5 * dt)
        busy += dt * calibrate.scale_at([t0], cal_t, cal_s)[0]
        raw_busy += dt
        problems = checks.check(op, outcome)
        if problems:
            failures.append({"op": _describe(op), "problems": problems})
        if time.perf_counter() - cal_t[-1] >= CALIBRATE_EVERY_S:
            calibrate_now()
    calibrate_now()
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    scaled = np.asarray(latencies) * calibrate.scale_at(mids, cal_t, cal_s)
    return {"latencies_s": scaled.tolist(), "raw_latencies_s": latencies, "op_mid_t": mids,
            "calibration_s": cal_s, "calibration_t": cal_t, "failures": failures,
            "peak_rss_mb": peak_kib / 1024.0}


def traced_run(workload: str, seed: int, spans_path: Path) -> dict:
    ops = workloads.take(workload, seed, TRACE_OPS[workload] + 1)
    execute(ops[0], cli_in_process=True)
    ops = ops[1:]
    plain = []
    for op in ops:
        t0 = time.perf_counter()
        execute(op, cli_in_process=True)
        plain.append(time.perf_counter() - t0)

    tracer = tracing.Tracer()
    outcomes, traced = [], []
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.set_op(i)
            t0 = time.perf_counter()
            outcomes.append(execute(op, cli_in_process=True))
            traced.append(time.perf_counter() - t0)
    finally:
        tracer.uninstall()

    failures = []
    for op, outcome in zip(ops, outcomes):
        problems = checks.check(op, outcome)
        if problems:
            failures.append({"op": _describe(op), "problems": problems})

    metrics = tracing.layer_metrics(tracer.names, tracer.arrays(), tracer.counters)
    for sub in tracing.CLI_SUBCOMMANDS:
        times = [dt for op, dt in zip(ops, plain) if op.get("sub") == sub]
        metrics[f"cli.{sub}.run_s"] = statistics.median(times) if times else 0.0
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans_path)
    return {"metrics": metrics, "failures": failures, "ops": len(ops),
            "spans": len(tracer.start), "spans_file": str(spans_path),
            "plain_s": sum(plain), "traced_s": sum(traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        spans = Path(".bench_out") / f"spans-{args.workload}-{args.seed}.npz"
        result = traced_run(args.workload, args.seed, spans)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    result["golden_problems"] = check_golden(args.workload)
    result["ready"] = READY
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
