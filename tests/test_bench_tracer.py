"""The benchmark's layer tracer still finds every name it wraps.

`perfbench/tracing.py` times a traced run by replacing, by name, the
functions through which one plchp module calls another. A name that
disappears from a module breaks the traced run, so this test loads the
tracer as it is and resolves every boundary it lists.
"""

import importlib.util
from pathlib import Path

import golden
from plchp import State, parse_dl_model, simulate, validate_scan_cycle_form
from plchp.sim import ConstantInputs, IntegratorConfig, SimConfig
from plchp.translate import prog_hp_to_st

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
