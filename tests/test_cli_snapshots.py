"""CLI stdout compared byte for byte with committed snapshots.

The cases are the README commands in every output format, two grids with
undefined cells (NaN in csv and md, null in json, with flags), and one run
driven by a config file.  Regenerate the snapshots only for an intended
output change: ``PYTHONPATH=src python tests/test_cli_snapshots.py``.
"""

import contextlib
import io
import pathlib
import tempfile

import pytest

from copreli.cli import EXIT_OK, main

SNAPSHOTS = pathlib.Path(__file__).with_name("snapshots")

TWO_EXP = ["--marginal", "exp:1", "--marginal", "exp:1"]
README_COMMANDS = {
    "eval": ["eval", "--copula", "fgm:alpha=0.5", *TWO_EXP,
             "--structure", "series", "--mode", "dependent"],
    "error-table": ["error-table", "--copula", "clayton:alpha=1", *TWO_EXP,
                    "--structure", "parallel", "--measure", "sf"],
    "ordering": ["ordering", "--copula", "amh:alpha=-0.5", *TWO_EXP, "--structure", "parallel"],
    "table1": ["table1"],
    "verify": ["verify", "--copula", "fgm:alpha=0.5", *TWO_EXP],
    "sample": ["sample", "--copula", "gumbel_hougaard:alpha=2", "--marginal", "exp:1",
               "--marginal", "exp:2", "--samples", "50", "--seed", "7"],
    "eval-flags": ["eval", "--copula", "clayton:alpha=1", *TWO_EXP, "--structure", "parallel",
                   "--grid-min", "0", "--grid-max", "60", "--grid-count", "3",
                   "--grid-spacing", "linear"],
    "error-table-flags": ["error-table", "--copula", "fgm:alpha=0.5", *TWO_EXP,
                          "--structure", "series", "--measure", "rhr", "--grid-min", "0",
                          "--grid-max", "60", "--grid-count", "3", "--grid-spacing", "linear"],
}
CASES = {f"{name}-{fmt}": [*argv, "--format", fmt]
         for name, argv in README_COMMANDS.items() for fmt in ("csv", "json", "md")}

CONFIG_TEXT = """\
# a stored run
copula = fgm:alpha=0.5
marginal = exp:1
marginal = exp:2
structure = series
measure = hr
grid_min = 0.25
grid_max = 2.5
grid_count = 6
grid_spacing = linear
format = json
"""


def run_case(case: str) -> str:
    """Stdout of one case; the exit code must be 0."""
    with tempfile.TemporaryDirectory() as tmp:
        if case == "config":
            cfg = pathlib.Path(tmp) / "run.cfg"
            cfg.write_text(CONFIG_TEXT, encoding="utf-8")
            argv = ["error-table", "--config", str(cfg)]
        else:
            argv = CASES[case]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code == EXIT_OK
    return out.getvalue()


@pytest.mark.parametrize("case", [*CASES, "config"])
def test_stdout_matches_snapshot(case):
    expected = (SNAPSHOTS / f"{case}.out").read_text(encoding="utf-8")
    assert run_case(case) == expected


if __name__ == "__main__":
    SNAPSHOTS.mkdir(exist_ok=True)
    for name in [*CASES, "config"]:
        (SNAPSHOTS / f"{name}.out").write_text(run_case(name), encoding="utf-8")
