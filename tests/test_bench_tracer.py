"""The benchmark's span tracer (bench/tracing.py) still installs on the package.

The tracer swaps named functions and methods for wrappers, reading each
method from its own class's ``__dict__``.  A name that moves (to a base
class, a mixin or another module) makes ``install`` fail or miss spans, and
the traced benchmark runs with it.
"""

import contextlib
import importlib.util
import io
import pathlib

import pytest

import copreli.cli
from copreli.assessment import ErrorReport
from copreli.ordering import OrderingReport
from copreli.systems import ReliabilityCurve

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
PATCHED_NAMES = 82

# methods the tracer times as output formatting ("cli.format")
FORMAT_METHODS = ((ReliabilityCurve, ("to_csv", "to_json")),
                  (ErrorReport, ("to_csv", "to_json")),
                  (OrderingReport, ("to_csv", "to_json", "to_markdown")))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("copreli_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


@pytest.fixture
def tracer():
    tracer = _load_tracer()
    before = {(cls, meth): cls.__dict__[meth] for cls, meths in FORMAT_METHODS for meth in meths}
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
    assert all(cls.__dict__[meth] is raw for (cls, meth), raw in before.items())


def test_tracer_installs_on_every_name(tracer):
    assert len(tracer._undo) == PATCHED_NAMES


@pytest.mark.parametrize("argv", [
    ["eval", "--marginal", "exp:1", "--grid-count", "3"],
    ["eval", "--marginal", "exp:1", "--grid-count", "3", "--format", "json"],
    ["error-table", "--copula", "fgm:alpha=0.5", "--marginal", "exp:1", "--marginal", "exp:1",
     "--grid-count", "3"],
    ["table1", "--format", "md"],
])
def test_cli_output_goes_through_the_traced_report_methods(tracer, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert copreli.cli.main(argv) == 0
    recorded = [tracer.names[i] for i in tracer.name]
    assert recorded.count("cli.main") == 1
    assert recorded.count("cli.format") == 1


def test_the_sampler_runs_under_the_tracer(tracer):
    # the tracer sizes a copulas.raw span by the first row's .shape, and the
    # sampler passes that row as a numerics.Dual
    argv = ["sample", "--copula", "clayton:alpha=2", "--marginal", "exp:1", "--marginal", "exp:1",
            "--samples", "200"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert copreli.cli.main(argv) == 0
    assert [tracer.names[i] for i in tracer.name].count("copulas.raw") >= 1
