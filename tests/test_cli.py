import argparse
import csv
import io
import json
import math
from dataclasses import fields

import pytest

from copreli import ConfigError
from copreli.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from copreli.cli import RunConfig, build_parser, parse_config_text

LN2 = repr(math.log(2.0))
TWO_EXP = ["--marginal", "exp:1", "--marginal", "exp:1"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def parse_csv(text):
    return list(csv.DictReader(io.StringIO("\n".join(data_lines(text)))))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_fgm_row(capsys):
    code, out, _ = run(
        capsys, "eval", "--copula", "fgm:alpha=0.5", "--marginal", "exp:1",
        "--marginal", "exp:1", "--structure", "series", "--mode", "dependent",
        "--grid-min", LN2, "--grid-max", LN2, "--grid-count", "1",
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["sf"]) == pytest.approx(0.28125, abs=1e-12)
    assert "# copula=fgm:alpha=0.5" in out  # provenance header


def test_eval_rejects_invalid_parameter_naming_interval(capsys):
    code, _, err = run(
        capsys, "eval", "--copula", "fgm:alpha=2", "--marginal", "exp:1",
        "--marginal", "exp:1", "--structure", "series",
    )
    assert code == EXIT_CONFIG
    assert "[-1.0, 1.0]" in err


def test_eval_rejects_a_dim_that_contradicts_the_vector(capsys):
    code, _, err = run(
        capsys, "eval", "--copula", "marshall_olkin:alpha1=1,alpha2=2,dim=3",
        "--marginal", "exp:1", "--marginal", "exp:1", "--marginal", "exp:1",
        "--structure", "series", "--mode", "dependent",
    )
    assert code == EXIT_CONFIG
    assert "alpha has 2 entries for dimension 3" in err


def test_eval_rejects_a_bad_boolean_in_the_copula_spec(capsys):
    code, out, err = run(
        capsys, "eval", "--copula", "fischer_hinzmann:m=2,alpha=0.5,corrected=maybe",
        "--marginal", "exp:1", "--marginal", "exp:1", "--mode", "dependent",
    )
    assert code == EXIT_CONFIG
    assert not out
    assert "corrected='maybe'" in err


def test_eval_rejects_empty_grid(capsys):
    code, _, err = run(
        capsys, "eval", "--marginal", "exp:1", "--grid-count", "0",
    )
    assert code == EXIT_CONFIG
    assert "empty grid" in err


@pytest.mark.parametrize("argv,keys", [
    (["sample", "--copula", "fgm:alpha=0.5", *TWO_EXP, "--samples", "5"],
     ["copula", "marginals", "seed", "samples", "role"]),
    (["table1"], []),
    (["verify", "--copula", "fgm:alpha=0.5", *TWO_EXP], ["copula", "marginals"]),
    (["ordering", "--copula", "amh:alpha=-0.5", *TWO_EXP], ["copula", "marginals", "structure"]),
    (["eval", "--marginal", "exp:1", "--grid-count", "2"],
     ["marginals", "structure", "mode", "grid"]),
    (["error-table", "--copula", "fgm:alpha=0.5", *TWO_EXP, "--grid-count", "2"],
     ["copula", "marginals", "structure", "grid", "measure"]),
])
def test_the_provenance_header_names_only_options_the_subcommand_reads(capsys, argv, keys):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    header = [line[2:].split("=")[0] for line in out.splitlines() if line.startswith("# ")]
    assert header == ["tool", "version", "command", *keys]


def test_a_component_mean_past_the_float_range_is_a_numerical_error(capsys):
    code, _, err = run(capsys, "error-table", "--copula", "fgm:alpha=0.5", "--marginal",
                       "weibull:1,0.005", "--marginal", "exp:1", "--grid-min", "0.5",
                       "--grid-max", "1", "--grid-count", "2", "--measure", "mrl")
    assert code == EXIT_NUMERICAL
    assert "truncation scale inf is not finite" in err


def test_eval_json_is_machine_parseable(capsys):
    code, out, _ = run(
        capsys, "eval", "--copula", "fgm:alpha=0.5", "--marginal", "exp:1",
        "--marginal", "exp:1", "--structure", "series", "--format", "json",
        "--grid-min", "0.5", "--grid-max", "1.5", "--grid-count", "3",
    )
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["provenance"]["copula"] == "fgm:alpha=0.5"
    assert len(record["sf"]) == 3


def test_eval_md_format(capsys):
    code, out, _ = run(
        capsys, "eval", "--marginal", "exp:1", "--marginal", "exp:1",
        "--structure", "series", "--format", "md",
        "--grid-min", "0.5", "--grid-max", "1.0", "--grid-count", "2",
    )
    assert code == EXIT_OK
    assert "| t | sf | hr | rhr | mrl | ai |" in out


def test_eval_deterministic(capsys):
    argv = ["eval", "--copula", "clayton:alpha=1", "--marginal", "exp:1",
            "--marginal", "exp:2", "--structure", "parallel",
            "--grid-min", "0.2", "--grid-max", "2.0", "--grid-count", "5"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


# ---------------------------------------------------------------------------
# error-table / ordering / table1
# ---------------------------------------------------------------------------


def test_error_table_values(capsys):
    code, out, _ = run(
        capsys, "error-table", "--copula", "fgm:alpha=0.5", "--marginal", "exp:1",
        "--marginal", "exp:1", "--structure", "series", "--measure", "sf",
        "--grid-min", LN2, "--grid-max", LN2, "--grid-count", "1",
    )
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert float(row["raw"]) == pytest.approx(0.03125, abs=1e-12)
    assert float(row["relative"]) == pytest.approx(0.125, abs=1e-12)
    assert row["verdict"] == "UA"


def test_error_table_mrl_measure(capsys):
    code, out, _ = run(
        capsys, "error-table", "--copula", "fgm:alpha=0.5", "--marginal", "exp:1",
        "--marginal", "exp:1", "--structure", "series", "--measure", "mrl",
        "--grid-min", "0.2", "--grid-max", "1.0", "--grid-count", "3",
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert all(r["verdict"] == "UA" for r in rows)  # positive dependence lengthens life


def test_ordering_command(capsys):
    code, out, _ = run(
        capsys, "ordering", "--copula", "amh:alpha=-0.5", "--marginal", "exp:1",
        "--marginal", "exp:1", "--structure", "parallel", "--format", "json",
    )
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["direction"] == "D_ge_I"
    assert record["relation"] == "rhr"
    assert "st" in record["implied"]


def test_table1_reproduces_key_rows(capsys):
    code, out, _ = run(capsys, "table1", "--format", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    rows = {r["family"]: r for r in record["rows"]}
    assert rows["fgm (alpha>0)"]["parallel"]["machine"] == "decreasing"
    assert rows["fgm (alpha>0)"]["series"]["machine"] == "increasing"
    assert rows["gumbel_hougaard"]["series"]["machine"] == "increasing"
    assert rows["nelsen_ten"]["series"]["machine"] == "decreasing"
    assert rows["clayton"]["parallel"]["agrees"] is False  # flagged conflict


def test_table1_markdown(capsys):
    code, out, _ = run(capsys, "table1", "--format", "md")
    assert code == EXIT_OK
    assert out.count("|") > 50
    assert "conflicts with published table" in out


# ---------------------------------------------------------------------------
# verify / sample
# ---------------------------------------------------------------------------


def test_verify_passes_for_independence(capsys):
    code, out, _ = run(
        capsys, "verify", "--copula", "independence", "--marginal", "exp:1",
        "--marginal", "exp:1",
    )
    assert code == EXIT_OK
    assert "all checks passed" in out


def test_verify_json_carries_margins(capsys):
    code, out, _ = run(
        capsys, "verify", "--copula", "fgm:alpha=0.5", "--marginal", "exp:1",
        "--marginal", "exp:1", "--format", "json",
    )
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["passed"] is True
    assert all("margin" in c for c in record["checks"])
    names = {c["check"] for c in record["checks"]}
    assert "parallel_dominates_series" in names
    assert "radial_duality" in names  # fgm is flagged radially symmetric


def test_sample_csv_and_determinism(capsys):
    argv = ["sample", "--copula", "fgm:alpha=0.5", "--marginal", "exp:1",
            "--marginal", "exp:1", "--samples", "50", "--seed", "7"]
    code, out1, _ = run(capsys, *argv)
    assert code == EXIT_OK
    rows = parse_csv(out1)
    assert len(rows) == 50
    assert all(float(r["t1"]) >= 0 and float(r["t2"]) >= 0 for r in rows)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    assert "# seed=7" in out1


def test_sample_needs_two_marginals(capsys):
    code, _, err = run(
        capsys, "sample", "--copula", "fgm:alpha=0.5", "--marginal", "exp:1",
    )
    assert code == EXIT_CONFIG
    assert "two" in err


def test_numerical_error_exit_code(capsys):
    # a report whose every grid point is past the survival floor is a
    # numerical failure carrying the offending t, not a half-empty table
    code, _, err = run(
        capsys, "error-table", "--copula", "fgm:alpha=0.5", "--marginal", "exp:1",
        "--marginal", "exp:1", "--structure", "series", "--measure", "sf",
        "--grid-min", "60", "--grid-max", "60", "--grid-count", "1",
        "--grid-spacing", "linear",
    )
    assert code == EXIT_NUMERICAL
    assert "t=60" in err


def test_mrl_error_table_refuses_non_decaying_survival(capsys):
    code, _, err = run(
        capsys, "error-table", "--copula", "fischer_hinzmann:m=2.0,alpha=0.5",
        "--marginal", "exp:1", "--marginal", "exp:2", "--structure", "parallel",
        "--measure", "mrl",
    )
    assert code == EXIT_NUMERICAL
    assert "not decaying" in err


def test_partially_singular_report_is_flagged_not_fatal(capsys):
    code, out, _ = run(
        capsys, "error-table", "--copula", "fgm:alpha=0.5", "--marginal", "exp:1",
        "--marginal", "exp:1", "--structure", "series", "--measure", "sf",
        "--grid-min", "0.5", "--grid-max", "60", "--grid-count", "3",
        "--grid-spacing", "linear",
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert rows[0]["verdict"] == "UA"
    assert rows[-1]["verdict"] == "undefined"


def test_series_hr_table_where_the_independent_sf_underflows(capsys):
    code, out, _ = run(
        capsys, "error-table", "--copula",
        "marshall_olkin:alpha1=0.3887870827033031,alpha2=1.5751037601909295,"
        "alpha3=0.2675059305740639,dim=3",
        "--marginal", "weibull:1.7913190580699387,2.748260610637292",
        "--marginal", "weibull:0.5637169418659368,0.9069634832251845",
        "--marginal", "weibull:1.0962210981969736,0.8197876113467362",
        "--structure", "series", "--measure", "hr",
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 25
    assert rows[0]["verdict"] == "UA"
    assert rows[-1]["verdict"] == "undefined"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, out, _ = run(
        capsys, "eval", "--marginal", "exp:1", "--grid-min", "0.5",
        "--grid-max", "1.0", "--grid-count", "2", "--output", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    assert "t,sf,hr,rhr,mrl,ai" in target.read_text()


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a stored run\n"
        "copula = fgm:alpha=0.5\n"
        "marginal = exp:1\n"
        "marginal = exp:1\n"
        "structure = series\n"
        "grid_min = 0.5\n"
        "grid_max = 2.0\n"
        "grid_count = 1\n"
    )
    code, out, _ = run(capsys, "eval", "--config", str(cfg))
    assert code == EXIT_OK
    assert len(parse_csv(out)) == 1
    # flags win over the file
    code, out, _ = run(capsys, "eval", "--config", str(cfg), "--grid-count", "3")
    assert code == EXIT_OK
    assert len(parse_csv(out)) == 3


def test_config_errors_carry_position(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("structure = series\nbogus_key = 1\n")
    code, _, err = run(capsys, "eval", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "line 2" in err and "bogus_key" in err


# the fields whose flags take one of a fixed set of values
CHOICE_FIELDS = ("structure", "mode", "grid_spacing", "format", "measure", "role")


def _readers(name):
    """The subcommands that read the option ``name``."""
    return next(f for f in fields(RunConfig) if f.name == name).metadata["commands"]


@pytest.mark.parametrize("key", CHOICE_FIELDS)
def test_config_values_are_checked_like_flags(tmp_path, capsys, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"marginal = exp:1\nmarginal = exp:1\nformat = csv\n{key} = bogus\n")
    for command in _readers(key):
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert out == ""
        assert "line 4" in err and key in err and "'bogus'" in err


def _flag_actions(parser, command):
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in subcommands.choices[command]._actions if a.option_strings}


GRID = {"grid_min", "grid_max", "grid_count", "grid_spacing"}
# the options each subcommand reads, as its code in copreli.cli reads them
READS = {
    "eval": {"copula", "marginal", "structure", "mode", *GRID, "format"},
    "error-table": {"copula", "marginal", "structure", *GRID, "measure", "format"},
    "ordering": {"copula", "marginal", "structure", "format"},
    "table1": {"marginal", "format"},
    "verify": {"copula", "marginal", "format"},
    "sample": {"copula", "marginal", "seed", "samples", "role", "format"},
}
# a value each option's flag accepts
GOOD = {"copula": "fgm:alpha=0.5", "marginal": "exp:1", "structure": "parallel",
        "mode": "dependent", "grid_min": "0.5", "grid_max": "2", "grid_count": "3",
        "grid_spacing": "linear", "format": "json", "measure": "hr", "seed": "3",
        "samples": "5", "role": "survival"}


def test_each_subcommand_takes_the_flags_it_reads():
    parser = build_parser()
    for command, names in READS.items():
        assert set(_flag_actions(parser, command)) - {"help", "config", "output"} == names


@pytest.mark.parametrize("command", READS)
def test_a_flag_or_key_the_subcommand_does_not_read_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    for name in sorted(set(GOOD) - READS[command]):
        flag = "--" + name.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main([command, *TWO_EXP, flag, GOOD[name]])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        cfg.write_text(f"marginal = exp:1\n{name} = {GOOD[name]}\n")
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == EXIT_CONFIG and out == ""
        assert f"config line 2: {command} does not read {name!r}" in err


def test_sample_writes_markdown(capsys):
    code, out, _ = run(capsys, "sample", "--copula", "fgm:alpha=0.5", *TWO_EXP,
                       "--samples", "3", "--format", "md")
    assert code == EXIT_OK
    assert data_lines(out)[:2] == ["| t1 | t2 |", "| --- | --- |"]
    assert len(data_lines(out)) == 5


def test_every_field_is_a_flag_and_a_config_key_parsed_alike():
    parser = build_parser()
    names = {f.name for f in fields(RunConfig)} - {"command"}
    assert set().union(*READS.values()) == names
    # (values both accept, a value both refuse) by the flag's converter
    samples = {int: (["7"], "1.5"), float: (["0.5"], "abc"), None: (["exp:1"], None)}
    for name in sorted(names):
        command = _readers(name)[0]
        action = _flag_actions(parser, command)[name]
        good, bad = (action.choices, "bogus") if action.choices else samples[action.type]
        for value in good:
            argv = [command, action.option_strings[0], value]
            from_flag = getattr(parser.parse_args(argv), name)
            from_file = parse_config_text(f"{name} = {value}", command)[name]
            assert from_file == from_flag and type(from_file) is type(from_flag), name
        if bad is not None:
            with pytest.raises(SystemExit):
                parser.parse_args([command, action.option_strings[0], bad])
            with pytest.raises(ConfigError):
                parse_config_text(f"{name} = {bad}", command)
