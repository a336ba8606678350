"""The benchmark's layer tracer still finds every name it wraps.

`perfbench/tracing.py` times a traced run by replacing, by name, the
functions through which one plchp module calls another. A name that
disappears from a module breaks the traced run, so this test loads the
tracer as it is and resolves every boundary it lists.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import golden
from plchp import State, parse_dl_model, simulate, validate_scan_cycle_form
from plchp.sim import ConstantInputs, IntegratorConfig, SimConfig
from plchp.translate import prog_hp_to_st

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves():
    tracing = load_tracing()
    for owner, attr, name in tracing.BOUNDARIES:
        target = getattr(tracing._resolve(owner), attr, None)
        assert callable(target), f"{owner}.{attr} ({name}) is gone"


def test_rk4_span_covers_one_cycle_of_substeps():
    # sim.rk4_substep_us divides the time spent in `_integrate_rk4` by the
    # substeps run, so each cycle must call it exactly once.
    tracer = load_tracing().Tracer()
    text = (golden.DATA / "watertank_safe_model.dlhp").read_text()
    model = validate_scan_cycle_form(parse_dl_model(
        text.replace("x2'=V2*P*f2,", "x2'=V2*P*f2-0.002*x2,")))
    body, _ = prog_hp_to_st(model.ctrl)
    initial = State(dict(golden.SCENARIO_PARAMS) | dict(golden.SCENARIO_INIT))
    tracer.install()
    try:
        records = simulate(model, body, ConstantInputs(golden.SCENARIO_INPUTS), 3, initial,
                           SimConfig(epsilon=10.0, integrator=IntegratorConfig(substeps=20)))
    finally:
        tracer.uninstall()
    assert len(records) == 3
    assert tracer.calls("sim.integrate_rk4") == 3
    assert tracer.calls("sim.integrate_plant") == 3


# A traced run in a fresh interpreter, where `plchp.cli` has bound none of
# its lazily imported names yet when the tracer looks them up.
TRACED_COMMANDS = r"""
import contextlib, importlib.util, io, json, sys
import plchp.cli as cli

spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
commands = json.loads(sys.argv[2])
tracer.install()
try:
    for command, argv in commands.items():
        tracer.command = command
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0, command
finally:
    tracer.uninstall()
boundaries = [(attr, name) for owner, attr, name in tracing.BOUNDARIES if owner == "plchp.cli"]
counts = {command: {name: tracer.calls(name, command=command)
                    for _, name in boundaries if tracer.calls(name, command=command)}
          for command in commands}
# The original of each name: the function of the module the span is named after.
restored = all(
    vars(cli)[attr] is getattr(importlib.import_module("plchp." + name.split(".")[0]), attr)
    for attr, name in boundaries if attr in vars(cli))
bound = sorted(attr for attr, _ in boundaries if attr in vars(cli))
print(json.dumps({"counts": counts, "restored": restored, "bound": bound}))
"""


def test_cli_boundaries_count_each_call_once_through_lazy_names(tmp_path):
    data = {name: str(golden.DATA / f"watertank_{name}") for name in (
        "original.st", "plant.dlhp", "assumptions.dlhp", "safety.dlhp", "safe_model.dlhp")}
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "params": {str(k): v for k, v in golden.SCENARIO_PARAMS.items()},
        "init": {str(k): v for k, v in golden.SCENARIO_INIT.items()},
        "inputs": {"values": {str(k): v for k, v in golden.SCENARIO_INPUTS.items()}},
    }))
    trace = str(tmp_path / "trace.csv")
    commands = {
        "st2hp": ["st2hp", data["original.st"], "--plant", data["plant.dlhp"],
                  "--assumptions", data["assumptions.dlhp"], "--safety", data["safety.dlhp"]],
        "hp2st": ["hp2st", data["safe_model.dlhp"], "--epsilon", "1"],
        "simulate": ["simulate", "--model", data["safe_model.dlhp"], "--inputs", str(config),
                     "--cycles", "3", "--epsilon", "10", "--out", trace],
        "comply": ["comply", "--model", data["safe_model.dlhp"], "--trace", trace],
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_COMMANDS, str(TRACING), json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    # One span per call: only st2hp calls a boundary twice, to parse its
    # assumptions and its safety formula. hp2st's classify_io and comply's
    # prog_hp_to_st are the calls that translate and sim make by those names.
    validated = {"cli.main": 1, "dl_syntax.parse_dl_model": 1,
                 "analysis.validate_scan_cycle_form": 1, "analysis.classify_io": 1}
    assert got["counts"] == {
        "st2hp": {"cli.main": 1, "st_syntax.parse_st": 1, "dl_syntax.parse_dl_program": 1,
                  "dl_syntax.parse_dl_formula": 2, "translate.task_st_to_hp": 1,
                  "dl_syntax.print_dl_model": 1, "analysis.validate_scan_cycle_form": 1,
                  "analysis.classify_io": 1},
        "hp2st": {**validated, "translate.task_hp_to_st": 1, "st_syntax.print_st": 1},
        "simulate": {**validated, "translate.prog_hp_to_st": 1, "sim.simulate": 1,
                     "sim.write_trace_file": 1, "sim.check_safety": 1},
        "comply": {**validated, "translate.prog_hp_to_st": 1, "sim.read_trace_file": 1,
                   "sim.check_compliance": 1},
    }
    # Every name the tracer swapped is a module attribute again, and the original.
    tracing = load_tracing()
    assert got["bound"] == sorted(attr for owner, attr, _ in tracing.BOUNDARIES
                                  if owner == "plchp.cli")
    assert got["restored"] is True
