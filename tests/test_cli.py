"""End-to-end command-line workflows."""

import json
import os
import subprocess
import sys

import pytest

import golden
from plchp import parse_dl_model, parse_st
from plchp.cli import NAME_KINDS, main
from plchp.st_syntax import tokenize
from plchp.translate import DEFAULT_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data(name):
    return str(golden.DATA / name)


def test_st2hp_matches_golden(tmp_path, capsys):
    out = tmp_path / "generated_model.dlhp"
    code, _, err = run(
        capsys, "st2hp", data("watertank_original.st"),
        "--plant", data("watertank_plant.dlhp"),
        "--assumptions", data("watertank_assumptions.dlhp"),
        "--safety", data("watertank_safety.dlhp"),
        "--out", str(out),
    )
    assert code == 0
    assert "outputs: V1, P, V2" in err
    generated = parse_dl_model(out.read_text())
    assert generated == golden.compiled_model_golden()


def test_st2hp_usage_error_without_plant(capsys):
    with pytest.raises(SystemExit) as info:
        main(["st2hp", data("watertank_original.st")])
    assert info.value.code == 2


def test_st2hp_plant_clash(tmp_path, capsys):
    clash = tmp_path / "clash.st"
    clash.write_text("PROGRAM p VAR_INPUT t : REAL; END_VAR t := 1; END_PROGRAM")
    code, _, err = run(
        capsys, "st2hp", str(clash),
        "--plant", data("watertank_plant.dlhp"),
        "--assumptions", data("watertank_safety.dlhp"),
        "--safety", data("watertank_safety.dlhp"),
    )
    assert code == 1
    assert "collides" in err


def test_hp2st_safe_model_produces_safe_body(tmp_path, capsys):
    out = tmp_path / "regenerated.st"
    code, _, _ = run(
        capsys, "hp2st", data("watertank_safe_model.dlhp"), "--epsilon", "1", "--out", str(out),
    )
    assert code == 0
    unit = parse_st(out.read_text())
    want = [
        (t.kind, t.value)
        for t in tokenize((golden.DATA / "watertank_safe_body.st").read_text())
    ]
    from plchp.st_syntax import print_st_statement

    got = [(t.kind, t.value) for t in tokenize(print_st_statement(unit.body))]
    assert got == want
    assert unit.config.interval == 1.0


def test_hp2st_missing_epsilon(capsys):
    code, _, err = run(capsys, "hp2st", data("watertank_original_model.dlhp"))
    assert code == 1
    assert "symbolic" in err


def test_hp2st_minimal_model(tmp_path, capsys):
    model = tmp_path / "tiny.dlhp"
    model.write_text("eps=1 -> [{ u:=*; y:=u; t:=0; {x'=y, t'=1 & t<=eps} }*] x>=0\n")
    code, out, _ = run(capsys, "hp2st", str(model))
    assert code == 0
    assert "PROGRAM prog0" in out
    assert "VAR_INPUT" in out and "y" in out


def test_analyze_watertank(capsys):
    code, out, _ = run(capsys, "analyze", data("watertank_original_model.dlhp"))
    assert code == 0
    assert "BV(ctrl): P, V1, V2" in out
    assert "epsilon: symbolic (eps)" in out


def test_analyze_rejects_non_normal_form(tmp_path, capsys):
    bad = tmp_path / "bad.dlhp"
    bad.write_text("x>=0 -> [{ y:=1; {x'=1, t'=1 & t<=eps} }*] x>=0\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "clock reset" in err


def test_difftest_cli(tmp_path, capsys):
    report_file = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, "difftest", "--n", "50", "--seed", "1", "--depth", "4",
        "--report", str(report_file),
    )
    assert code == 0
    assert out.strip() == "total=50 failed=0"
    lines = report_file.read_text().splitlines()
    assert lines.count("PASS") == 50
    assert lines[-1] == "total=50 failed=0"


def test_simulate_and_comply_round_trip(tmp_path, capsys):
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "params": {str(k): v for k, v in golden.SCENARIO_PARAMS.items()},
        "init": {str(k): v for k, v in golden.SCENARIO_INIT.items()},
        "inputs": {
            "mode": "constant",
            "values": {str(k): v for k, v in golden.SCENARIO_INPUTS.items()},
        },
    }))
    trace = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "simulate", "--model", data("watertank_safe_model.dlhp"), "--inputs", str(run_cfg),
        "--cycles", "20", "--epsilon", "10", "--out", str(trace),
    )
    assert code == 0
    assert out.strip().endswith("cycles=20 violations=0")

    code, out, _ = run(capsys, "comply", "--model", data("watertank_safe_model.dlhp"), "--trace", str(trace))
    assert code == 0
    assert "instances=0" in out

    # flip one actuator value: one instance, exit code 1
    lines = trace.read_text().splitlines()
    header = lines[0].split(",")
    v1_col = header.index("V1")
    row = lines[6].split(",")
    row[v1_col] = repr(1.0 - float(row[v1_col]))
    lines[6] = ",".join(row)
    trace.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "comply", "--model", data("watertank_safe_model.dlhp"), "--trace", str(trace))
    assert code == 1
    assert "instances=1" in out


def test_simulate_with_unsafe_st_body(tmp_path, capsys):
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "params": {str(k): v for k, v in golden.SCENARIO_PARAMS.items()},
        "init": {str(k): v for k, v in golden.SCENARIO_INIT.items()},
        "inputs": {
            "mode": "constant",
            "values": {str(k): v for k, v in golden.SCENARIO_INPUTS.items()},
        },
    }))
    trace = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "simulate", "--model", data("watertank_original_model.dlhp"), "--st", data("watertank_original.st"),
        "--inputs", str(run_cfg), "--cycles", "3", "--epsilon", "10",
        "--out", str(trace),
    )
    assert code == 0
    assert "violation cycle=0 phase=post_plant" in out


def test_parse_errors_carry_file_position(tmp_path, capsys):
    bad = tmp_path / "bad.st"
    bad.write_text("PROGRAM p\n  x := ;\nEND_PROGRAM\n")
    code, _, err = run(
        capsys, "st2hp", str(bad),
        "--plant", data("watertank_plant.dlhp"),
        "--assumptions", data("watertank_safety.dlhp"),
        "--safety", data("watertank_safety.dlhp"),
    )
    assert code == 1
    assert f"{bad}:2:8" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


# ---------------------------------------------------------------------------
# Hostile input files end in a one-line error with exit code 1, not a
# Python traceback. Each runs the command in a fresh interpreter so that
# stderr is exactly what a user sees.

SRC = str(golden.DATA.parent.parent / "src")


def process(cwd, *argv):
    """`python -m plchp ARGV`, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "plchp", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def run_process(tmp_path, *argv):
    proc = process(tmp_path, *argv)
    assert "Traceback" not in proc.stderr
    return proc.returncode, proc.stderr


def test_python_m_plchp_runs_main(tmp_path, capsys):
    model = data("watertank_safe_model.dlhp")
    proc = process(tmp_path, "analyze", model)
    code, out, _ = run(capsys, "analyze", model)
    assert code == 0 and out.startswith("FV(ctrl): ")
    assert (proc.returncode, proc.stdout) == (code, out)


def _simulate_with(tmp_path, config_text):
    config = tmp_path / "run.json"
    config.write_text(config_text)
    return run_process(
        tmp_path, "simulate", "--model", data("watertank_safe_model.dlhp"),
        "--inputs", "run.json", "--cycles", "1", "--out", "trace.csv",
    )


def test_comply_trace_with_non_numeric_cell(tmp_path):
    header = "cycle,f1,f2,x1,x2,HH,H1,L1,LL,L2,H2,FL,eps,V1,P,V2"
    (tmp_path / "bad.csv").write_text(
        header + "\n# comment\n0" + ",1" * 15 + "\n1,2,abc" + ",1" * 13 + "\n")
    code, err = run_process(
        tmp_path, "comply", "--model", data("watertank_safe_model.dlhp"), "--trace", "bad.csv")
    assert code == 1
    assert "bad.csv:4: column 3 (f2): not a number: 'abc'" in err


def test_comply_missing_trace_file(tmp_path):
    code, err = run_process(
        tmp_path, "comply", "--model", data("watertank_safe_model.dlhp"), "--trace", "gone.csv")
    assert code == 1
    assert "gone.csv: No such file or directory" in err


def test_simulate_truncated_run_configuration(tmp_path):
    code, err = _simulate_with(tmp_path, '{"params": {"HH": 1000,\n  "H1": 8')
    assert code == 1
    assert "run.json:2:" in err


def test_simulate_csv_mode_without_path(tmp_path):
    code, err = _simulate_with(tmp_path, '{"inputs": {"mode": "csv"}}')
    assert code == 1
    assert "run.json: input mode 'csv' needs a 'path' string" in err


@pytest.mark.parametrize("config_text, line", [
    ('{"params": {"HH": NaN}}', "'params': 'HH': not a finite number: nan"),
    ('{"init": {"x1": Infinity}}', "'init': 'x1': not a finite number: inf"),
    ('{"inputs": {"values": {"f1": -1e999}}}', "'values': 'f1': not a finite number: -inf"),
    ('{"inputs": {"mode": "uniform", "ranges": {"f1": [0, 1e999]}}}',
     "'ranges': 'f1': not a finite number: inf"),
    ('{"inputs": {"mode": "uniform", "seed": Infinity}}',
     "'seed': cannot convert float infinity to integer"),
    # Nor is a seed that is not an integer read as one.
    ('{"inputs": {"mode": "uniform", "seed": 1.9}}', "'seed': not an integer: 1.9"),
    ('{"inputs": {"mode": "uniform", "seed": true}}', "'seed': not an integer: true"),
    ('{"inputs": {"mode": "uniform", "seed": "7"}}', "'seed': not an integer: \"7\""),
], ids=["NaN", "Infinity", "-1e999", "range", "seed", "seed 1.9", "seed true", "seed string"])
def test_simulate_refuses_a_number_that_is_not_finite(tmp_path, config_text, line):
    assert _simulate_with(tmp_path, config_text) == (1, f"error: run.json: {line}\n")


@pytest.mark.parametrize("argv", [
    ("comply", "--model", "bad.txt", "--trace", "trace.csv"),
    ("comply", "--model", data("watertank_safe_model.dlhp"), "--trace", "bad.txt"),
], ids=["model", "trace"])
def test_a_file_that_is_not_utf8_is_one_line(tmp_path, argv):
    (tmp_path / "bad.txt").write_bytes(b"cycle,f1\n0,\xff\n")
    assert run_process(tmp_path, *argv) == (1, "error: bad.txt: not UTF-8 text\n")


# A numeric option out of range is a usage error: exit 2 and a usage line.
SIMULATE = ("simulate", "--model", data("watertank_safe_model.dlhp"),
            "--inputs", "run.json", "--out", "trace.csv")


@pytest.mark.parametrize("argv, message", [
    (("difftest", "--depth", "0"), "argument --depth: must be from 1 to 32, got 0"),
    (("difftest", "--depth", "33"), "argument --depth: must be from 1 to 32, got 33"),
    (("difftest", "--vars", "0"), "argument --vars: must be from 1 to 26, got 0"),
    (("difftest", "--vars", "27"), "argument --vars: must be from 1 to 26, got 27"),
    (("difftest", "--n", "-1"), "argument --n: must be at least 0, got -1"),
    ((*SIMULATE, "--cycles", "1", "--substeps", "0"), "argument --substeps: must be at least 1, got 0"),
    ((*SIMULATE, "--cycles", "-1"), "argument --cycles: must be at least 0, got -1"),
], ids=["depth 0", "depth 33", "vars 0", "vars 27", "n -1", "substeps 0", "cycles -1"])
def test_numeric_option_out_of_range_is_a_usage_error(tmp_path, argv, message):
    code, err = run_process(tmp_path, *argv)
    assert code == 2
    assert err.startswith(f"usage: plchp {argv[0]} ")
    assert err.endswith(f"plchp {argv[0]}: error: {message}\n")


# A generated name that ST cannot declare is a usage error naming the option.
NAME_OPTIONS = ("program", "config", "resource", "task", "instance")
BAD_NAMES = [("1bad", "invalid identifier: '1bad'"),
             ("end_var", "reserved keyword cannot be an identifier: 'end_var'")]


@pytest.mark.parametrize("kind", NAME_OPTIONS)
@pytest.mark.parametrize("name, message", BAD_NAMES, ids=["malformed", "reserved"])
def test_hp2st_name_option_takes_only_an_identifier(capsys, kind, name, message):
    with pytest.raises(SystemExit) as info:
        main(["hp2st", data("watertank_safe_model.dlhp"), f"--{kind}-name", name])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: plchp hp2st ")
    assert err.endswith(f"plchp hp2st: error: argument --{kind}-name: {message}\n")


def test_hp2st_name_options_name_the_generated_unit(capsys):
    assert set(NAME_OPTIONS) == set(NAME_KINDS) == set(DEFAULT_NAMES)
    names = [f"{kind}_x" for kind in NAME_OPTIONS]
    argv = [a for kind, name in zip(NAME_OPTIONS, names) for a in (f"--{kind}-name", name)]
    code, out, _ = run(capsys, "hp2st", data("watertank_safe_model.dlhp"), "--epsilon", "1", *argv)
    assert code == 0
    assert all(name in out for name in names)
    code, out, _ = run(capsys, "hp2st", data("watertank_safe_model.dlhp"), "--epsilon", "1")
    assert code == 0 and "PROGRAM prog0" in out and "CONFIGURATION Config0" in out


def test_affine_integrator_on_a_nonaffine_plant_is_one_error_line(tmp_path):
    text = (golden.DATA / "watertank_safe_model.dlhp").read_text()
    (tmp_path / "rk4.dlhp").write_text(text.replace("x2'=V2*P*f2,", "x2'=V2*P*f2-0.002*x2,"))
    (tmp_path / "run.json").write_text(json.dumps({
        "params": {str(k): v for k, v in golden.SCENARIO_PARAMS.items()},
        "init": {str(k): v for k, v in golden.SCENARIO_INIT.items()},
        "inputs": {"values": {str(k): v for k, v in golden.SCENARIO_INPUTS.items()}},
    }))
    assert run_process(tmp_path, "simulate", "--model", "rk4.dlhp", "--inputs", "run.json",
                       "--cycles", "1", "--epsilon", "10", "--integrator", "affine",
                       "--out", "trace.csv") == (
        1, "error: plant is not affine; use rk4 or auto\n")


def test_st2hp_deeply_nested_expression(tmp_path):
    (tmp_path / "deep.st").write_text(
        "PROGRAM p\n  x := " + "(" * 1000 + "1" + ")" * 1000 + ";\nEND_PROGRAM\n")
    code, _ = run_process(
        tmp_path, "st2hp", "deep.st", "--plant", data("watertank_plant.dlhp"),
        "--assumptions", data("watertank_safety.dlhp"),
        "--safety", data("watertank_safety.dlhp"), "--out", "deep.dlhp",
    )
    assert code == 0
    assert "x:=1;" in (tmp_path / "deep.dlhp").read_text()
    assert run_process(tmp_path, "hp2st", "deep.dlhp", "--epsilon", "1", "--out", "back.st")[0] == 0
    assert "\n  x := 1;\n" in (tmp_path / "back.st").read_text()


def test_hp2st_deeply_nested_model(tmp_path):
    (tmp_path / "deep.dlhp").write_text(
        "eps=1 -> [{ u:=*; y:=u; t:=0; {x'=y, t'=1 & t<=eps} }*]\n"
        + "(" * 1000 + "x>=0" + ")" * 1000 + "\n")
    assert run_process(tmp_path, "hp2st", "deep.dlhp", "--out", "back.st")[0] == 0
    assert st2hp(tmp_path, "back.st", "again.dlhp")[0] == 0
    assert (parse_dl_model((tmp_path / "again.dlhp").read_text())
            == parse_dl_model((tmp_path / "deep.dlhp").read_text()))


# ---------------------------------------------------------------------------
# Hostile shapes. Statement lists, ELSIF chains, nested blocks and nested
# expressions of any size go st2hp -> hp2st -> st2hp and give the same model
# text both times. Texts are compared, not trees: IR equality recurses down a
# long sequence.

UNIT = ("PROGRAM p\nVAR_INPUT\n  u : LREAL;\nEND_VAR\nVAR_OUTPUT\n  y : LREAL;\nEND_VAR\n"
        "{}END_PROGRAM\n")


def st2hp(tmp_path, source, out):
    (tmp_path / "plant.dlhp").write_text("t:=0;\n{x'=y, t'=1 & t<=eps}\n")
    (tmp_path / "assume.dlhp").write_text("eps=1\n")
    (tmp_path / "safety.dlhp").write_text("x>=0\n")
    return run_process(tmp_path, "st2hp", source, "--plant", "plant.dlhp",
                       "--assumptions", "assume.dlhp", "--safety", "safety.dlhp", "--out", out)


def round_trip(tmp_path, body):
    (tmp_path / "source.st").write_text(UNIT.format(body))
    assert st2hp(tmp_path, "source.st", "model.dlhp")[0] == 0
    assert run_process(tmp_path, "hp2st", "model.dlhp", "--out", "back.st")[0] == 0
    assert st2hp(tmp_path, "back.st", "again.dlhp")[0] == 0
    model = (tmp_path / "model.dlhp").read_text()
    assert (tmp_path / "again.dlhp").read_text() == model
    return model


def test_round_trip_10000_statements(tmp_path):
    model = round_trip(tmp_path, "".join(f"y := y + {i};\n" for i in range(10000)))
    assert model.count("y:=y+") == 10000


def test_round_trip_2000_elsif_arms(tmp_path):
    model = round_trip(tmp_path, "IF u > 0 THEN y := 0;\n"
                       + "".join(f"ELSIF u > {i} THEN y := {i};\n" for i in range(1, 2000))
                       + "ELSE y := 1;\nEND_IF;\n")
    assert model.count("++") == 2000


def test_round_trip_1000_nested_ifs(tmp_path):
    model = round_trip(tmp_path, "IF u > 0 THEN\n" * 1000 + "y := 1;\n" + "END_IF;\n" * 1000)
    assert model.count("++") == 1000


def test_round_trip_1000_nested_braces(tmp_path):
    (tmp_path / "braces.dlhp").write_text(
        "eps=1 -> [{ u:=*; " + "{" * 1000 + "y:=u;" + "}" * 1000
        + " t:=0; {x'=y, t'=1 & t<=eps} }*] x>=0\n")
    assert run_process(tmp_path, "hp2st", "braces.dlhp", "--out", "braces.st")[0] == 0
    body = (tmp_path / "braces.st").read_text().split("END_VAR\n\n")[1].split("END_PROGRAM")[0]
    assert body == "  y := u;\n"
    round_trip(tmp_path, body)


@pytest.mark.parametrize("op, body", [
    ("NOT", "IF {}u > 0 THEN y := 1; END_IF;\n"),
    ("-", "y := {}u;\n"),
], ids=["not", "minus"])
def test_1000_prefix_operators(tmp_path, op, body):
    # A printed negation is `!(` or `NOT(`, and the complement guard adds one
    # more level, so what st2hp writes nests deeper than what it read.
    for n in (150, 1000):
        round_trip(tmp_path, body.format(f"{op} " * n))


@pytest.mark.parametrize("body", [
    "y := " + "(" * 10000 + "u" + ")" * 10000 + ";\n",
    "IF " + "NOT " * 10000 + "u > 0 THEN y := 1; END_IF;\n",
    "y := " + "- " * 10000 + "u;\n",
], ids=["parentheses", "not", "minus"])
def test_round_trip_10000_deep_expressions(tmp_path, body):
    round_trip(tmp_path, body)


# ---------------------------------------------------------------------------
# Long expressions. Sums, conjunctions and power chains of any length go
# st2hp -> hp2st -> st2hp and give the same model text both times.
# `simulate` and `comply` refuse an expression nested past
# `compiled.MAX_DEPTH` with a one-line error.

def chain(op, n, operand="u"):
    return f" {op} ".join([operand] * n)


def test_round_trip_10000_term_sum(tmp_path):
    model = round_trip(tmp_path, f"y := {chain('+', 10000)};\n")
    assert model.count("u+") == 9999


def test_round_trip_10000_conjunct_guard(tmp_path):
    guard = " AND ".join(f"u > {i}" for i in range(10000))
    model = round_trip(tmp_path, f"IF {guard} THEN y := 1; END_IF;\n")
    assert model.count(" & u>") == 2 * 9999  # the guard and its complement


def test_round_trip_10000_power_chain(tmp_path):
    model = round_trip(tmp_path, f"y := {chain('**', 10000)};\n")
    assert model.count("^") == 9999


RUN = '{"init": {"x": 1, "y": 0}, "inputs": {"mode": "constant", "values": {"u": 1}}}'


def simulate(tmp_path, model, *argv):
    (tmp_path / "run.json").write_text(RUN)
    return run_process(tmp_path, "simulate", "--model", model, "--inputs", "run.json",
                       "--cycles", "2", "--out", "trace.csv", *argv)


def test_300_term_sum_simulates_and_complies(tmp_path):
    (tmp_path / "small.st").write_text(UNIT.format("y := u;\n"))
    (tmp_path / "sum.st").write_text(UNIT.format(f"y := {chain('+', 300)};\n"))
    assert st2hp(tmp_path, "small.st", "small.dlhp")[0] == 0
    assert st2hp(tmp_path, "sum.st", "sum.dlhp")[0] == 0
    assert simulate(tmp_path, "small.dlhp", "--st", "sum.st") == (0, "")
    assert run_process(tmp_path, "comply", "--model", "sum.dlhp", "--trace", "trace.csv") == (0, "")
    assert simulate(tmp_path, "sum.dlhp") == (0, "")


def test_10000_term_sum_is_refused_by_simulate_and_comply(tmp_path):
    (tmp_path / "small.st").write_text(UNIT.format("y := u;\n"))
    (tmp_path / "sum.st").write_text(UNIT.format(f"y := {chain('+', 10000)};\n"))
    assert st2hp(tmp_path, "small.st", "small.dlhp")[0] == 0
    assert st2hp(tmp_path, "sum.st", "sum.dlhp")[0] == 0
    assert simulate(tmp_path, "small.dlhp") == (0, "")
    for code, err in (
        simulate(tmp_path, "small.dlhp", "--st", "sum.st"),
        simulate(tmp_path, "sum.dlhp"),
        run_process(tmp_path, "comply", "--model", "sum.dlhp", "--trace", "trace.csv"),
    ):
        assert code == 1
        assert err.startswith("error: expression nested too deeply") and err.count("\n") == 1


def nested_ifs(n):
    return "IF u > 0 THEN\n" * n + "y := 1;\n" + "END_IF;\n" * n


def test_250_nested_ifs_simulate_and_comply(tmp_path):
    (tmp_path / "small.st").write_text(UNIT.format("y := u;\n"))
    (tmp_path / "deep.st").write_text(UNIT.format(nested_ifs(250)))
    assert st2hp(tmp_path, "small.st", "small.dlhp")[0] == 0
    assert st2hp(tmp_path, "deep.st", "deep.dlhp")[0] == 0
    assert simulate(tmp_path, "small.dlhp", "--st", "deep.st") == (0, "")
    assert run_process(tmp_path, "comply", "--model", "deep.dlhp", "--trace", "trace.csv") == (0, "")
    assert simulate(tmp_path, "deep.dlhp") == (0, "")


def test_1000_nested_ifs_are_refused_by_simulate_and_comply(tmp_path):
    (tmp_path / "small.st").write_text(UNIT.format("y := u;\n"))
    (tmp_path / "deep.st").write_text(UNIT.format(nested_ifs(1000)))
    assert st2hp(tmp_path, "small.st", "small.dlhp")[0] == 0
    assert st2hp(tmp_path, "deep.st", "deep.dlhp")[0] == 0
    assert simulate(tmp_path, "small.dlhp") == (0, "")
    for outcome in (
        simulate(tmp_path, "small.dlhp", "--st", "deep.st"),
        simulate(tmp_path, "deep.dlhp"),
        run_process(tmp_path, "comply", "--model", "deep.dlhp", "--trace", "trace.csv"),
    ):
        assert outcome == (
            1, "error: expression nested too deeply to compile (more than 300 levels)\n")


def test_comply_on_an_empty_trace(tmp_path, capsys):
    (tmp_path / "small.st").write_text(UNIT.format("y := u;\n"))
    assert st2hp(tmp_path, "small.st", "small.dlhp")[0] == 0
    (tmp_path / "run.json").write_text(RUN)
    assert run_process(tmp_path, "simulate", "--model", "small.dlhp", "--inputs", "run.json",
                       "--cycles", "0", "--out", "trace.csv") == (0, "")
    assert run(capsys, "comply", "--model", str(tmp_path / "small.dlhp"),
               "--trace", str(tmp_path / "trace.csv")) == (0, "checked=0 instances=0\n", "")
