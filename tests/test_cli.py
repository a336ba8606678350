"""End-to-end command-line workflows."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden
from plchp import Program, parse_dl_model, parse_st, validate_scan_cycle_form
from plchp import compiled, sim  # noqa: F401  (loaded before a test wraps their names)
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


TANK_MODEL = data("watertank_safe_model.dlhp")
TANK_PLANT = ("--plant", data("watertank_plant.dlhp"),
              "--assumptions", data("watertank_assumptions.dlhp"),
              "--safety", data("watertank_safety.dlhp"))
TANK_RUN = json.dumps({"params": {str(k): v for k, v in golden.SCENARIO_PARAMS.items()},
                       "init": {str(k): v for k, v in golden.SCENARIO_INIT.items()},
                       "inputs": {"mode": "constant", "values": {
                           str(k): v for k, v in golden.SCENARIO_INPUTS.items()}}})


@pytest.mark.parametrize("rows", ["", "0,1\n"], ids=["no rows", "one row"])
def test_comply_checks_the_columns_of_the_header(tmp_path, capsys, rows):
    (tmp_path / "trace.csv").write_text("cycle,f1\n" + rows)
    code, out, err = run(capsys, "comply", "--model", TANK_MODEL,
                         "--trace", str(tmp_path / "trace.csv"))
    assert (code, out) == (1, "")
    assert err == "error: trace is missing columns: FL, HH, L1, L2, LL, P, V1, V2, eps, " \
                  "f2, x1, x2\n"


def test_comply_on_the_header_of_a_tank_run_of_no_cycles(tmp_path, capsys):
    (tmp_path / "run.json").write_text(TANK_RUN)
    trace = str(tmp_path / "trace.csv")
    assert run(capsys, "simulate", "--model", TANK_MODEL, "--inputs", str(tmp_path / "run.json"),
               "--cycles", "0", "--epsilon", "10", "--out", trace)[0] == 0
    assert run(capsys, "comply", "--model", TANK_MODEL, "--trace", trace) == \
        (0, "checked=0 instances=0\n", "")


@pytest.mark.parametrize("kind", ["st", "dlhp", "run", "trace"])
def test_an_input_may_start_with_a_byte_order_mark(tmp_path, capsys, kind):
    # Each kind of input file, read with and without a UTF-8 BOM, gives the
    # same output; an output is written without one.
    (tmp_path / "run.json").write_text(TANK_RUN)
    trace, out = tmp_path / "trace.csv", tmp_path / "out.csv"
    simulate = ("simulate", "--model", TANK_MODEL, "--cycles", "5", "--epsilon", "10")
    assert run(capsys, *simulate, "--inputs", str(tmp_path / "run.json"),
               "--out", str(trace))[0] == 0
    source, argv = {
        "st": (data("watertank_original.st"), lambda f: ("st2hp", f, *TANK_PLANT)),
        "dlhp": (TANK_MODEL, lambda f: ("analyze", f)),
        "run": (tmp_path / "run.json", lambda f: (*simulate, "--inputs", f, "--out", str(out))),
        "trace": (trace, lambda f: ("comply", "--model", TANK_MODEL, "--trace", f)),
    }[kind]
    source = Path(source)
    marked = tmp_path / f"marked_{source.name}"
    marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    outputs = []
    for path in (source, marked):
        out.unlink(missing_ok=True)
        outputs.append((run(capsys, *argv(str(path))), out.exists() and out.read_bytes()))
    assert outputs[0][0][0] == 0
    assert outputs[1] == outputs[0]


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


@pytest.mark.parametrize("integrator", ["affine", "rk4"])
def test_a_plant_state_that_is_not_finite_is_one_error_line(tmp_path, integrator):
    # x1 grows by f1 = 40 a second over 1e307 seconds, past binary64's range.
    run_cfg = json.loads(TANK_RUN)
    del run_cfg["params"]["eps"]
    (tmp_path / "run.json").write_text(json.dumps(run_cfg))
    assert run_process(tmp_path, "simulate", "--model", data("watertank_original_model.dlhp"),
                       "--inputs", "run.json", "--cycles", "3", "--epsilon", "1e307",
                       "--substeps", "2", "--integrator", integrator, "--out", "trace.csv") == (
        1, "error: plant state x1 is not finite: inf\n")


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
# `simulate` and `comply` run them at any depth too.

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


def test_10000_term_sum_simulates_and_complies(tmp_path):
    (tmp_path / "small.st").write_text(UNIT.format("y := u;\n"))
    (tmp_path / "sum.st").write_text(UNIT.format(f"y := {chain('+', 10000)};\n"))
    assert st2hp(tmp_path, "small.st", "small.dlhp")[0] == 0
    assert st2hp(tmp_path, "sum.st", "sum.dlhp")[0] == 0
    assert simulate(tmp_path, "small.dlhp", "--st", "sum.st") == (0, "")
    assert run_process(tmp_path, "comply", "--model", "sum.dlhp", "--trace", "trace.csv") == (0, "")
    assert simulate(tmp_path, "sum.dlhp") == (0, "")
    assert run_process(tmp_path, "comply", "--model", "sum.dlhp", "--trace", "trace.csv") == (0, "")
    # u is 1 in every cycle, so y is the number of terms.
    assert (tmp_path / "trace.csv").read_text().splitlines()[1].endswith(",10000.0")


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


def test_1000_nested_ifs_simulate_and_comply(tmp_path):
    (tmp_path / "small.st").write_text(UNIT.format("y := u;\n"))
    (tmp_path / "deep.st").write_text(UNIT.format(nested_ifs(1000)))
    assert st2hp(tmp_path, "small.st", "small.dlhp")[0] == 0
    assert st2hp(tmp_path, "deep.st", "deep.dlhp")[0] == 0
    assert simulate(tmp_path, "small.dlhp", "--st", "deep.st") == (0, "")
    assert run_process(tmp_path, "comply", "--model", "deep.dlhp", "--trace", "trace.csv") == (0, "")
    assert simulate(tmp_path, "deep.dlhp") == (0, "")
    assert run_process(tmp_path, "comply", "--model", "deep.dlhp", "--trace", "trace.csv") == (0, "")
    # u is 1 in every cycle, so the innermost assignment runs.
    assert (tmp_path / "trace.csv").read_text().splitlines()[1].endswith(",1.0")


def test_comply_on_an_empty_trace(tmp_path, capsys):
    (tmp_path / "small.st").write_text(UNIT.format("y := u;\n"))
    assert st2hp(tmp_path, "small.st", "small.dlhp")[0] == 0
    (tmp_path / "run.json").write_text(RUN)
    assert run_process(tmp_path, "simulate", "--model", "small.dlhp", "--inputs", "run.json",
                       "--cycles", "0", "--out", "trace.csv") == (0, "")
    assert run(capsys, "comply", "--model", str(tmp_path / "small.dlhp"),
               "--trace", str(tmp_path / "trace.csv")) == (0, "checked=0 instances=0\n", "")


# ---------------------------------------------------------------------------
# A task interval longer than the model's scan cycle duration

EXCEEDS = "warning [epsilon-exceeds-model]: task interval {} s is longer than the scan " \
          "cycle duration {} s the model was verified for\n"
BOUNDED = "true -> [{{ u:=*; y:=u; t:=0; {{x'=y, t'=1 & t<={}}} }}*] x>=0\n"


def st2hp_watertank(capsys, out, assumptions=None):
    return run(
        capsys, "st2hp", data("watertank_original.st"),
        "--plant", data("watertank_plant.dlhp"),
        "--assumptions", assumptions or data("watertank_assumptions.dlhp"),
        "--safety", data("watertank_safety.dlhp"), "--out", str(out),
    )


@pytest.mark.parametrize("model, epsilon, warning", [
    ("generated", "10", EXCEEDS.format(10, 1)),
    ("generated", "1", ""),
    ("generated", "0.5", ""),
    (BOUNDED.format(1), "2", EXCEEDS.format(2, 1)),
    (BOUNDED.format(1), "1", ""),
    (BOUNDED.format("eps").replace("true", "eps=1 & eps=2"), "3", ""),
], ids=["longer", "equal", "shorter", "bound-longer", "bound-equal", "conflicting"])
def test_hp2st_warns_of_an_interval_longer_than_the_model(tmp_path, capsys, model, epsilon,
                                                          warning):
    path = tmp_path / "model.dlhp"
    if model == "generated":
        assert st2hp_watertank(capsys, path)[0] == 0
    else:
        path.write_text(model)
    code, out, err = run(capsys, "hp2st", str(path), "--epsilon", epsilon)
    assert (code, err) == (0, warning)
    assert f"INTERVAL:=T#{epsilon} s," in out.replace("T#500 ms", "T#0.5 s")


@pytest.mark.parametrize("eps, warning", [
    ("0.5", EXCEEDS.format(1, 0.5)),
    ("1", ""),
    ("2", ""),
], ids=["longer", "equal", "shorter"])
def test_st2hp_warns_of_an_interval_longer_than_the_model(tmp_path, capsys, eps, warning):
    assumptions = tmp_path / "assumptions.dlhp"
    assumptions.write_text(f"{golden.DATA.joinpath('watertank_assumptions.dlhp').read_text().strip()}"
                           f" & eps={eps}\n")
    model = tmp_path / "model.dlhp"
    code, out, err = st2hp_watertank(capsys, model, str(assumptions))
    assert (code, out) == (0, "")
    summary, _, rest = err.partition("params: ")
    assert summary.startswith("inputs: ")
    assert rest.partition("\n")[2] == warning
    assert f"eps={eps}" in model.read_text()


# ---------------------------------------------------------------------------
# simulate's stop line

@pytest.mark.parametrize("model, u, stop, summary", [
    ("eps=1 -> [{ u:=*; y:=u; t:=0; {x'=y, t'=1 & t<=eps & x*x<=9} }*] x<=10", 2,
     "run stopped at cycle 1: domain violated at t=0.501: x*x<=9\n", "cycles=2 violations=0\n"),
    ("eps=1 -> [{ u:=*; x:=u; t:=0; {x'=1, t'=1 & t<=eps & x<=3} }*] x<=10", 5,
     "run stopped at cycle 0: domain violated at t=0: x<=3\n", "cycles=1 violations=0\n"),
], ids=["grid", "start"])
def test_simulate_prints_where_the_run_stopped(tmp_path, capsys, model, u, stop, summary):
    (tmp_path / "m.dlhp").write_text(model + "\n")
    (tmp_path / "run.json").write_text(json.dumps(
        {"init": {"x": 0}, "inputs": {"mode": "constant", "values": {"u": u}}}))
    assert run(capsys, "simulate", "--model", str(tmp_path / "m.dlhp"),
               "--inputs", str(tmp_path / "run.json"), "--cycles", "5",
               "--out", str(tmp_path / "trace.csv")) == (0, summary, stop)


# ---------------------------------------------------------------------------
# The interval warning reads upper bounds in the assumptions, and simulate
# gives it too

OUTSIDE = "warning [epsilon-exceeds-model]: task interval {} s is outside the scan cycle " \
          "durations {} s the model was verified for\n"
SYMBOLIC = "{} -> [{{ u:=*; y:=u; t:=0; {{x'=y, t'=1 & t<=eps}} }}*] x>=-100\n"


@pytest.mark.parametrize("assumptions, epsilon, warning", [
    ("eps>0 & eps<=1", "10", OUTSIDE.format(10, "up to 1")),
    ("eps<1", "10", OUTSIDE.format(10, "below 1")),
    ("eps<1", "1", OUTSIDE.format(1, "below 1")),
    ("1>=eps & eps>0", "2", OUTSIDE.format(2, "up to 1")),
    ("1>eps", "1", OUTSIDE.format(1, "below 1")),
    ("eps<=2 & eps<=0.5 & eps<3", "1", OUTSIDE.format(1, "up to 0.5")),
    ("eps<=1 & eps<1", "1", OUTSIDE.format(1, "below 1")),
    ("eps=1 & eps<=0.5", "1", OUTSIDE.format(1, "up to 0.5")),
    ("eps=1 & eps<=3", "2", EXCEEDS.format(2, 1)),
    ("eps<=1", "1", ""),
    ("eps<=1", "0.5", ""),
    ("eps>=1", "10", ""),
    ("eps>1", "10", ""),
    ("eps<=x", "10", ""),
    ("eps+0<=1", "10", ""),
    ("!eps>1", "10", ""),
    ("eps<=1 | eps<=2", "10", ""),
], ids=["le", "lt", "lt-equal", "ge-reversed", "gt-reversed-equal", "shortest", "strict-first",
        "bound-under-duration", "duration-under-bound", "le-equal", "le-shorter", "lower-bound",
        "strict-lower-bound", "symbolic-bound", "not-a-variable", "negated", "disjunction"])
def test_hp2st_warns_of_an_interval_past_an_upper_bound(tmp_path, capsys, assumptions, epsilon,
                                                        warning):
    path = tmp_path / "model.dlhp"
    path.write_text(SYMBOLIC.format(assumptions))
    code, out, err = run(capsys, "hp2st", str(path), "--epsilon", epsilon)
    assert (code, err) == (0, warning)
    assert f"INTERVAL:=T#{epsilon} s," in out.replace("T#500 ms", "T#0.5 s")


def test_hp2st_still_needs_a_duration_beside_an_upper_bound(tmp_path, capsys):
    path = tmp_path / "model.dlhp"
    path.write_text(SYMBOLIC.format("eps>0 & eps<=1"))
    code, out, err = run(capsys, "hp2st", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: scan cycle duration eps is symbolic;")


def test_st2hp_warns_of_its_interval_past_an_upper_bound(tmp_path, capsys):
    # The watertank unit's task interval is 1 s, which st2hp adds as eps=1.
    assumptions = tmp_path / "assumptions.dlhp"
    assumptions.write_text(f"{golden.DATA.joinpath('watertank_assumptions.dlhp').read_text().strip()}"
                           " & eps<=0.5\n")
    code, out, err = st2hp_watertank(capsys, tmp_path / "model.dlhp", str(assumptions))
    assert (code, out) == (0, "")
    assert err.partition("params: ")[2].partition("\n")[2] == OUTSIDE.format(1, "up to 0.5")


@pytest.mark.parametrize("model, argv, warning", [
    (SYMBOLIC.format("eps=1"), ["--epsilon", "10"], EXCEEDS.format(10, 1)),
    (BOUNDED.format(1), ["--epsilon", "10"], EXCEEDS.format(10, 1)),
    (SYMBOLIC.format("eps>0 & eps<=1"), ["--epsilon", "2"], OUTSIDE.format(2, "up to 1")),
    (SYMBOLIC.format("eps=1 & eps<0.5"), [], OUTSIDE.format(1, "below 0.5")),
    (SYMBOLIC.format("eps=1"), ["--epsilon", "1"], ""),
    (SYMBOLIC.format("eps=1"), [], ""),
    (SYMBOLIC.format("eps>0"), ["--epsilon", "10"], ""),
], ids=["longer", "bound-longer", "past-bound", "duration-past-bound", "equal", "own",
        "no-duration"])
def test_simulate_warns_of_an_interval_longer_than_the_model(tmp_path, capsys, model, argv,
                                                             warning):
    (tmp_path / "m.dlhp").write_text(model)
    (tmp_path / "run.json").write_text(json.dumps(
        {"init": {"x": 0}, "inputs": {"mode": "constant", "values": {"u": 1}}}))
    trace = tmp_path / "trace.csv"
    assert run(capsys, "simulate", "--model", str(tmp_path / "m.dlhp"),
               "--inputs", str(tmp_path / "run.json"), "--cycles", "2", *argv,
               "--out", str(trace)) == (0, "cycles=2 violations=0\n", warning)
    assert trace.read_text().splitlines() == ["cycle,u,y", "0,1.0,1.0", "1,1.0,1.0"]


# ---------------------------------------------------------------------------
# The CSV input mode reads cycle k from the row whose `cycle` is k

def simulate_csv(tmp_path, capsys, rows, cycles):
    (tmp_path / "m.dlhp").write_text(SYMBOLIC.format("eps=1"))
    (tmp_path / "in.csv").write_text("".join(f"{row}\n" for row in ["cycle,u", *rows]))
    (tmp_path / "run.json").write_text(json.dumps(
        {"init": {"x": 0}, "inputs": {"mode": "csv", "path": str(tmp_path / "in.csv")}}))
    trace = tmp_path / "trace.csv"
    code, out, err = run(capsys, "simulate", "--model", str(tmp_path / "m.dlhp"),
                         "--inputs", str(tmp_path / "run.json"), "--cycles", str(cycles),
                         "--out", str(trace))
    return code, out, err, trace.read_text().splitlines()[1:] if trace.exists() else None


def test_simulate_reads_csv_inputs_by_cycle(tmp_path, capsys):
    assert simulate_csv(tmp_path, capsys, ["0,2", "1,5", "2,-1"], 3) == (
        0, "cycles=3 violations=0\n", "", ["0,2.0,2.0", "1,5.0,5.0", "2,-1.0,-1.0"])


def test_simulate_matches_csv_rows_by_their_cycle_column(tmp_path, capsys):
    assert simulate_csv(tmp_path, capsys, ["1,5", "0,2"], 2) == (
        0, "cycles=2 violations=0\n", "", ["0,2.0,2.0", "1,5.0,5.0"])


@pytest.mark.parametrize("rows, cycles, message", [
    (["7,5"], 1, "error: input trace has no row for cycle 0\n"),
    (["0,1", "2,3"], 3, "error: input trace has no row for cycle 1\n"),
    (["0,1"], 2, "error: input trace has no row for cycle 1\n"),
    (["0,1", "1,2", "0,3"], 1, "error: {}: two rows for cycle 0\n"),
], ids=["no-cycle-0", "gap", "short", "repeated"])
def test_simulate_refuses_csv_inputs_that_miss_a_cycle(tmp_path, capsys, rows, cycles, message):
    code, out, err, _ = simulate_csv(tmp_path, capsys, rows, cycles)
    assert (code, out, err) == (1, "", message.format(tmp_path / "in.csv"))


# ---------------------------------------------------------------------------
# One pass over the controller per command

def test_each_command_folds_the_model_controller_once(tmp_path, capsys, monkeypatch):
    # A validated model derives its controller's facts by one fold, and every
    # command reads them there; only st2hp walks the ST body, once, first.
    calls = []

    def recording(name, real):
        def wrapper(node, *args):
            calls.append((name, node))
            return real(node, *args)
        return wrapper

    for module in [m for name, m in sys.modules.items() if name.partition(".")[0] == "plchp"]:
        for name in ("program_facts", "collect_vars"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording(name, getattr(module, name)))

    def passes(*argv):
        """The calls on statements that one command run makes."""
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        return [(name, node) for name, node in calls if isinstance(node, Program)]

    generated = tmp_path / "generated.dlhp"
    st2hp = passes("st2hp", data("watertank_original.st"), "--plant", data("watertank_plant.dlhp"),
                   "--assumptions", data("watertank_assumptions.dlhp"),
                   "--safety", data("watertank_safety.dlhp"), "--out", str(generated))
    body = parse_st((golden.DATA / "watertank_original.st").read_text()).body
    ctrl = validate_scan_cycle_form(parse_dl_model(generated.read_text())).ctrl
    assert st2hp == [("collect_vars", body), ("program_facts", ctrl)]

    model = golden.DATA / "watertank_safe_model.dlhp"
    ctrl = validate_scan_cycle_form(parse_dl_model(model.read_text())).ctrl
    config, trace = tmp_path / "run.json", tmp_path / "trace.csv"
    config.write_text(json.dumps({
        "params": {str(k): v for k, v in golden.SCENARIO_PARAMS.items()},
        "init": {str(k): v for k, v in golden.SCENARIO_INIT.items()},
        "inputs": {"mode": "constant",
                   "values": {str(k): v for k, v in golden.SCENARIO_INPUTS.items()}},
    }))
    model = str(model)
    for argv in (["hp2st", model, "--epsilon", "1"], ["analyze", model],
                 ["simulate", "--model", model, "--inputs", str(config), "--cycles", "3",
                  "--epsilon", "10", "--out", str(trace)],
                 ["comply", "--model", model, "--trace", str(trace)]):
        assert passes(*argv) == [("program_facts", ctrl)], argv[0]
