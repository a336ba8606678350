"""End-to-end command-line workflows."""

import json
import os
import subprocess
import sys

import pytest

import golden
from plchp import parse_dl_model, parse_st
from plchp.cli import main
from plchp.st_syntax import tokenize


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


def run_process(tmp_path, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "plchp.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert "Traceback" not in proc.stderr
    return proc.returncode, proc.stderr


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
