"""copreli benchmark runner.

Run from the root of a checkout:

    python3 bench/run.py --workload {cli,curves,orderings,sampling} \
        --seed N --seconds S --trace {0,1}

The runner pins the children's environment (``PYTHONPATH=src``, one BLAS
and OpenMP thread, no ``COPRELI_THREADS``), measures set-up as the time from
spawning a fresh interpreter to the end of ``import copreli`` (the median
over several interpreters, the workload's own child among them), runs the
workload in a fresh child (worker.py) and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  Lines before it give the environment and
a readable summary; the full record goes to ``.bench_out/``.

It exits non-zero without a result when the checkout has no copreli
sources, when a child fails, or when the metrics it measured do not match
the names BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli", "curves", "orderings", "sampling")
SETUP_PROBES = 2  # plus one discarded warm-up probe and the worker's own reading
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 175

PROBE = ("import copreli\nimport time\n"
         "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("COPRELI_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def pin_to_quickest_cpu() -> dict:
    """Pin this process, and so every child, to the CPU that runs the kernel fastest.

    The cores of a shared host are not equally busy; a process that migrates
    between them changes speed from one op to the next, faster than any
    calibration between ops can follow.  One client needs only one core.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return {"pinned": None}
    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = statistics.median(calibrate.kernel_seconds() for _ in range(7))
    best = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {best})
    return {"pinned": best, "kernel_s_per_cpu": speeds}


def setup_probe(env) -> float:
    """Seconds from spawning an interpreter to the end of its ``import copreli``,
    scaled to the reference speed measured just before and after."""
    before = [calibrate.kernel_seconds() for _ in range(3)]
    spawned = clock()
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    seconds = float(proc.stdout.strip()) - spawned
    after = [calibrate.kernel_seconds() for _ in range(3)]
    return seconds * calibrate.REFERENCE_S / statistics.median(before + after)


def importtime_probe(env) -> dict[str, float]:
    """import.total_s, import.scipy_s and import.numpy_s from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import copreli"],
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    total = scipy = numpy = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].strip()
        if name == "copreli":
            total = cum_us / 1e6
        top = name.split(".")[0]
        scipy += self_us / 1e6 if top == "scipy" else 0.0
        numpy += self_us / 1e6 if top == "numpy" else 0.0
    return {"import.total_s": total, "import.scipy_s": scipy, "import.numpy_s": numpy}


def run_worker(env, args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    before = [calibrate.kernel_seconds() for _ in range(3)]
    spawned = clock()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: worker exited with code {proc.returncode}")
    worker = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        # the worker's own set-up reading, scaled by the kernel times around it
        kernel = statistics.median(before + worker["calibration_s"][:3])
        worker["setup_s"] = (worker["ready"] - spawned) * calibrate.REFERENCE_S / kernel
    return worker


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(path.as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(worker: dict) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {"nproc": os.cpu_count(), "python": worker["versions"]["python"],
            "numpy": worker["versions"]["numpy"], "scipy": scipy_version,
            "commit": commit(), "src_sha256_16": source_digest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="copreli benchmark runner")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not Path("src/copreli/__init__.py").is_file():
        sys.stderr.write("bench: run from the root of a copreli checkout (no src/copreli)\n")
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    env = child_env()
    pinning = pin_to_quickest_cpu()
    if args.trace:
        probes = [importtime_probe(env) for _ in range(IMPORTTIME_PROBES + 1)][1:]
        worker = run_worker(env, args)
        measured = dict(worker["metrics"])
        for key in probes[0]:
            measured[key] = statistics.median(p[key] for p in probes)
        attempted = worker["ops"]
    else:
        setup_probe(env)  # warm-up: byte-compiles the sources once
        setups = [setup_probe(env) for _ in range(SETUP_PROBES)]
        worker = run_worker(env, args)
        setups.append(worker["setup_s"])
        lat = worker["latencies_s"]
        attempted = len(lat)
        measured = {
            "setup_s": statistics.median(setups),
            "ops_per_s": attempted / sum(lat),
            "op_p50_ms": 1e3 * percentile(lat, 50),
            "op_p90_ms": 1e3 * percentile(lat, 90),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        worker["setup_samples_s"] = setups
    if set(measured) != set(units):
        sys.stderr.write("bench: measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(measured) ^ set(units))}\n")
        return 1

    failed = len(worker["failures"])
    correct = failed == 0 and not worker["golden_problems"]
    env_record = {**environment(worker), **pinning}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env_record, "worker": worker,
              "metrics": measured}
    out_dir = Path(".bench_out")
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("environment: " + json.dumps(env_record))
    print(f"workload {args.workload}: closed loop, one client, one op in flight; "
          "no layer has a queue or a second worker, so there is no wait time")
    if args.trace:
        print(f"traced {attempted} ops, {worker['spans']} spans -> {worker['spans_file']}")
    else:
        print(f"ops {attempted}, failed {failed}, fail_ratio {failed / attempted:.4g}, "
              f"latency samples {attempted} (p90 has {attempted - int(0.9 * attempted)} beyond it)")
    for problem in worker["failures"][:5] + worker["golden_problems"][:5]:
        print(f"check failed: {problem}")
    for name in units:
        value = measured[name]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} = {shown} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": measured[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
