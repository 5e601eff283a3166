"""Fresh-interpreter checks: the package imports without scipy and every demo runs.

Also checks that the benchmark's span tracer still finds every name it wraps.
"""

import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


def test_import_does_not_load_scipy():
    proc = run_python("-c", "import sys, copreli, copreli.cli; "
                            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_does_not_load_numpy_polynomial():
    # the quadrature's Gauss-Kronrod constants are written out, not computed
    proc = run_python("-c", "import sys, copreli, copreli.cli; print(sorted(m for m in "
                            "sys.modules if m.startswith('numpy.polynomial')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_bench_tracer_wraps_and_restores_the_package(monkeypatch):
    # bench/tracing.py wraps copreli's layers by name; a rename here would
    # otherwise only show as a failing `bench/run.py --trace 1`
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("copreli_bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from copreli import Clayton, Exponential, System, copulas

    original = copulas.Copula.value, copulas.Clayton._raw
    tracer = tracing.Tracer()
    tracer.install()
    try:
        system = System(marginals=(Exponential(1.0), Exponential(2.0)), structure="series",
                        mode="dependent", copula=Clayton(alpha=2.0))
        system.curve(np.geomspace(0.1, 2.0, 5))
    finally:
        tracer.uninstall()
    assert (copulas.Copula.value, copulas.Clayton._raw) == original
    calls = Counter(tracer.names[i] for i in tracer.name)
    assert calls["systems.curve"] == 1 and calls["copulas.raw"] > 0
    assert calls["copulas.param_violations"] == 1  # the construction, nothing after it
