"""Plant integration, scan-cycle simulation, safety, compliance."""

import io
import random

import pytest

import golden
from plchp import (
    Assign, Ident, Number, PlantSpec, State, Var,
    check_compliance, check_safety, classify_io, integrate_plant,
    parse_dl_model, simulate, validate_scan_cycle_form,
)
from plchp.errors import (
    InputFileError, MissingInput, NondeterministicCtrl, SchemaError,
)
from plchp.ir import Cmp, GE, GuardedChoice, Neg, TRUE
from plchp.semantics import derive_seed
from plchp.sim import (
    ConstantInputs, CsvInputs, IntegratorConfig, SimConfig,
    UniformInputs, plant_is_affine, read_trace, write_trace,
)
from plchp.translate import prog_hp_to_st


def ident(n):
    return Ident(n)


def state(**bindings):
    return State({Ident(k): float(v) for k, v in bindings.items()})


def scenario_state():
    return State(
        dict(golden.SCENARIO_PARAMS)
        | dict(golden.SCENARIO_INIT)
        | dict(golden.SCENARIO_INPUTS)
        | {ident("t"): 0.0}
    )


def test_affine_fast_path_exact():
    # x1' = V1*f1 - V2*P*f2 with V1=1, V2=0: x1 grows by f1 * duration.
    s = scenario_state()
    out, exit_info = integrate_plant(golden.PLANT, s, 10.0)
    assert exit_info is None
    assert out.get(ident("x1")) == 790.0 + 40.0 * 10.0
    assert out.get(ident("x2")) == 600.0
    assert out.get(ident("t")) == 10.0


def test_zero_duration_unchanged():
    s = scenario_state()
    out, exit_info = integrate_plant(golden.PLANT, s, 0.0)
    assert out == s and exit_info is None


def test_domain_exit_linear_crossing():
    # x' = -1 from 0.5 with domain x >= 0 exits at t = 0.5.
    plant = PlantSpec(
        odes=((ident("x"), Neg(Number("1"))),),
        clock=ident("t"),
        domain=Cmp(GE, Var(ident("x")), Number("0")),
        bound=Var(ident("eps")),
    )
    s = state(x=0.5, t=0, eps=10)
    out, exit_info = integrate_plant(plant, s, 10.0)
    assert exit_info is not None
    assert abs(exit_info.time - 0.5) <= 10.0 / 1000  # step tolerance
    assert abs(out.get(ident("x"))) <= 1e-9


def test_rk4_matches_affine_within_tolerance():
    s = scenario_state()
    exact, _ = integrate_plant(golden.PLANT, s, 10.0, IntegratorConfig(method="affine"))
    rk4, _ = integrate_plant(golden.PLANT, s, 10.0, IntegratorConfig(method="rk4"))
    for x in (ident("x1"), ident("x2"), ident("t")):
        a, b = exact.get(x), rk4.get(x)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_rk4_on_state_dependent_plant():
    # x' = x: exact solution e^t.
    import math

    plant = PlantSpec(
        odes=((ident("x"), Var(ident("x"))),),
        clock=ident("t"),
        domain=TRUE,
        bound=Var(ident("eps")),
    )
    assert not plant_is_affine(plant)
    out, _ = integrate_plant(plant, state(x=1, t=0), 1.0)
    assert abs(out.get(ident("x")) - math.e) < 1e-10


def test_integrator_rejects_affine_on_nonaffine_plant():
    plant = PlantSpec(
        odes=((ident("x"), Var(ident("x"))),),
        clock=ident("t"),
        domain=TRUE,
        bound=Var(ident("eps")),
    )
    with pytest.raises(ValueError):
        integrate_plant(plant, state(x=1, t=0), 1.0, IntegratorConfig(method="affine"))


def _original_model():
    return validate_scan_cycle_form(
        parse_dl_model((golden.DATA / "watertank_original_model.dlhp").read_text())
    )


def _safe_model():
    return validate_scan_cycle_form(
        parse_dl_model((golden.DATA / "watertank_safe_model.dlhp").read_text())
    )


def _scenario_initial():
    return State(dict(golden.SCENARIO_PARAMS) | dict(golden.SCENARIO_INIT))


def test_simulate_original_overflows_within_three_cycles():
    model = _original_model()
    records = simulate(
        model,
        golden.ORIGINAL_BODY,
        ConstantInputs(golden.SCENARIO_INPUTS),
        3,
        _scenario_initial(),
        SimConfig(epsilon=10.0),
    )
    assert records[0].post_ctrl.get(ident("V1")) == 1.0  # 790 < H1: valve stays open
    assert records[0].post_plant.get(ident("x1")) == 1190.0
    violations = check_safety(records, model.safety)
    assert violations
    assert violations[0].cycle == 0 and violations[0].phase == "post_plant"


def test_simulate_safe_body_closes_valve_and_stays_safe():
    model = _safe_model()
    body, _ = prog_hp_to_st(model.ctrl)
    records = simulate(
        model,
        body,
        ConstantInputs(golden.SCENARIO_INPUTS),
        5,
        _scenario_initial(),
        SimConfig(epsilon=10.0),
    )
    # guard f1 > (HH-x1)/eps is 40 > 21: close V1 immediately
    assert records[0].post_ctrl.get(ident("V1")) == 0.0
    assert records[0].post_plant.get(ident("x1")) == 790.0
    assert check_safety(records, model.safety) == []


def test_simulate_zero_cycles():
    model = _original_model()
    assert simulate(
        model, golden.ORIGINAL_BODY, ConstantInputs(golden.SCENARIO_INPUTS), 0,
        _scenario_initial(), SimConfig(epsilon=10.0),
    ) == []


def test_simulate_missing_input():
    model = _original_model()
    with pytest.raises(MissingInput):
        simulate(
            model, golden.ORIGINAL_BODY, ConstantInputs({ident("f1"): 40.0}), 1,
            _scenario_initial(), SimConfig(epsilon=10.0),
        )


def test_clock_discipline_and_param_frame():
    model = _safe_model()
    body, _ = prog_hp_to_st(model.ctrl)
    records = simulate(
        model, body, ConstantInputs(golden.SCENARIO_INPUTS), 4,
        _scenario_initial(), SimConfig(epsilon=10.0),
    )
    for rec in records:
        assert rec.post_plant.get(ident("t")) == 10.0  # advances by exactly eps
        assert rec.t_abs == rec.index * 10.0
        for param, value in golden.SCENARIO_PARAMS.items():
            assert rec.pre.get(param) == value
            assert rec.post_plant.get(param) == value


def test_simulate_stops_on_domain_exit():
    # x' = -1 exits x >= 0 partway through the first cycle
    text = (
        "eps=1 -> [{ u:=*; y:=u; t:=0; {x'=0-1, t'=1 & t<=eps & x>=0} }*] x>=0"
    )
    model = validate_scan_cycle_form(parse_dl_model(text))
    body, _ = prog_hp_to_st(model.ctrl)
    records = simulate(
        model, body, ConstantInputs({ident("u"): 0.0}), 5,
        state(x=0.25, y=0.0), SimConfig(),
    )
    assert len(records) == 1
    assert records[0].domain_exit is not None
    assert abs(records[0].domain_exit.time - 0.25) <= 1e-9


def test_uniform_inputs_deterministic():
    provider = UniformInputs({ident("f1"): (0.0, 50.0)}, seed=7)
    assert provider.values(3) == provider.values(3)
    assert provider.values(3) != provider.values(4)


def test_uniform_inputs_draw_in_name_order():
    # One Random per cycle, seeded from (seed, cycle), draws the inputs in
    # the order of their names, whatever the order of the ranges given.
    ranges = {ident("f2"): (0.0, 50.0), ident("a"): (-1.0, 1.0), ident("f1"): (10.0, 20.0)}
    provider = UniformInputs(ranges, seed=7)
    for cycle in range(5):
        rng = random.Random(derive_seed(7, cycle))
        expected = [(name, rng.uniform(*ranges[ident(name)])) for name in ("a", "f1", "f2")]
        got = provider.values(cycle)
        assert [(x.name, value.hex()) for x, value in got.items()] == \
            [(name, value.hex()) for name, value in expected]


def _safe_trace(cycles=50):
    model = _safe_model()
    body, _ = prog_hp_to_st(model.ctrl)
    records = simulate(
        model, body, ConstantInputs(golden.SCENARIO_INPUTS), cycles,
        _scenario_initial(), SimConfig(epsilon=10.0),
    )
    io_spec = classify_io(model)
    buffer = io.StringIO()
    write_trace(buffer, records, io_spec)
    buffer.seek(0)
    header, rows = read_trace(buffer)
    return model, io_spec, header, rows


def test_trace_round_trip_and_self_compliance():
    model, io_spec, header, rows = _safe_trace()
    assert header[0] == "cycle"
    assert len(rows) == 50
    report = check_compliance(model.ctrl, rows, io_spec)
    assert report.instances == ()
    assert report.checked == 50
    # idempotence
    again = check_compliance(model.ctrl, rows, io_spec)
    assert again == report


def test_compliance_flags_injected_windows():
    model, io_spec, _, rows = _safe_trace()
    v1 = ident("V1")
    flipped = []
    for row in rows:
        row = dict(row)
        if row["cycle"] in (10, 11, 12, 40):
            row[v1] = 1.0 - row[v1]
        flipped.append(row)
    report = check_compliance(model.ctrl, flipped, io_spec)
    spans = [(i.start_cycle, i.end_cycle) for i in report.instances]
    assert spans == [(10, 12), (40, 40)]


def test_compliance_requires_deterministic_ctrl():
    model, io_spec, _, rows = _safe_trace(cycles=2)
    nondet = GuardedChoice(
        Cmp(GE, Var(ident("x1")), Number("0")),
        Assign(ident("V1"), Number("0")),
        Assign(ident("V1"), Number("1")),
        complemented=False,
    )
    with pytest.raises(NondeterministicCtrl):
        check_compliance(nondet, rows, io_spec)


def test_compliance_schema_error():
    model, io_spec, _, rows = _safe_trace(cycles=2)
    broken = [{k: v for k, v in row.items() if k != ident("V1")} for row in rows]
    with pytest.raises(SchemaError, match="V1"):
        check_compliance(model.ctrl, broken, io_spec)


def test_csv_inputs_provider():
    provider = CsvInputs(({ident("f1"): 1.0}, {ident("f1"): 2.0}))
    assert provider.values(1) == {ident("f1"): 2.0}
    with pytest.raises(MissingInput):
        provider.values(2)


def test_trace_comment_lines_ignored():
    text = "# a comment\ncycle,f1\n0,1.5\n# mid-file note\n1,2.5\n"
    header, rows = read_trace(io.StringIO(text))
    assert header == ["cycle", "f1"]
    assert [r[ident("f1")] for r in rows] == [1.5, 2.5]
    assert [r["cycle"] for r in rows] == [0, 1]


def test_trace_missing_cycle_column():
    with pytest.raises(SchemaError):
        read_trace(io.StringIO("f1\n1.0\n"))


@pytest.mark.parametrize("text, message", [
    ("cycle,f1\n0,1.5\n1,x\n", "<trace>:3: column 2 (f1): not a number: 'x'"),
    ("cycle,f1\n0.5,1\n", "<trace>:2: column 1 (cycle): not a number: '0.5'"),
    ("# note\ncycle,f1,f2\n0,1\n", "<trace>:3: row has 2 cells but the header has 3"),
    ("cycle,1f\n0,1\n", "<trace>:1: column 2: invalid identifier: '1f'"),
    ("cycle,f1\n0,nan\n", "<trace>:2: column 2 (f1): not a finite number: 'nan'"),
    ("cycle,f1\n0,1\n1,-inf\n", "<trace>:3: column 2 (f1): not a finite number: '-inf'"),
    ("cycle,f1\n0,1.5,9\n", "<trace>:2: row has 3 cells but the header has 2"),
    ("cycle,f1,f1\n0,1.0,2.0\n", "<trace>:1: column 3: f1 is also column 2"),
    ("cycle,cycle,f1\n0,5,2.0\n", "<trace>:1: column 2: cycle is also column 1"),
    ("# note\ncycle,f1, f1\n0,1,2\n", "<trace>:2: column 3: f1 is also column 2"),
])
def test_malformed_trace_names_the_line(text, message):
    with pytest.raises(InputFileError) as info:
        read_trace(io.StringIO(text))
    assert str(info.value) == message


def test_duplicate_column_at_the_end_of_a_wide_header():
    names = ["cycle"] + [f"c{i}" for i in range(1, 4999)] + ["c1"]
    text = ",".join(names) + "\n" + ",".join(["0"] * len(names)) + "\n"
    with pytest.raises(InputFileError) as info:
        read_trace(io.StringIO(text))
    assert str(info.value) == "<trace>:1: column 5000: c1 is also column 2"
    header, rows = read_trace(io.StringIO(text.replace(",c1\n", ",d\n")))
    assert len(header) == 5000 and rows[0][ident("d")] == 0.0 and rows[0]["cycle"] == 0


def test_simulate_check_assumptions_flag():
    from plchp.errors import PlchpError

    model = _original_model()
    bad_initial = _scenario_initial().set(ident("x1"), -5.0)  # violates L1<=x1
    with pytest.raises(PlchpError, match="assumptions"):
        simulate(
            model, golden.ORIGINAL_BODY, ConstantInputs(golden.SCENARIO_INPUTS), 1,
            bad_initial, SimConfig(epsilon=10.0, check_assumptions=True),
        )
