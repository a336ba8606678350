"""The scan-cycle loop held to a reference loop built from `State`s.

`reference_simulate`, `reference_safety` and `reference_trace` below are the
scan cycle written with the reference pieces only: `State` updates,
`run_st` for the controller, `integrate_plant` on `State`s, `eval_formula`
for the safety property and `State.get` for the trace cells. Every case
runs through them and through `simulate`, `check_safety` and `write_trace`,
and the two must agree bit for bit: every record snapshot by `float.hex`,
domain exits, violations, the trace CSV text (also when writing stops
part-way), and the class and message of any error raised.
"""

import csv
import io
import itertools
import random
from collections import namedtuple

import pytest

import golden
from plchp import (
    CycleRecord, Ident, IoClassification, State, check_safety, classify_io,
    integrate_plant, parse_dl_model, simulate, validate_scan_cycle_form,
)
from plchp.compiled import Layout
from plchp.dl_syntax import print_dl_formula
from plchp.errors import ConflictingEpsilon, MissingInput, PlchpError
from plchp.semantics import eval_formula, run_st
from plchp.sim import (
    CompiledPlant, ConstantInputs, CsvInputs, InputProvider, IntegratorConfig, SimConfig,
    UniformInputs, resolve_epsilon, trace_columns, write_trace,
)
from plchp.translate import prog_hp_to_st


def ident(name):
    return Ident(name)


# ---------------------------------------------------------------------------
# The reference loop

Record = namedtuple("Record", "index t_abs pre post_ctrl post_plant domain_exit")


def reference_simulate(m, body, inputs, cycles, initial, cfg):
    epsilon = resolve_epsilon(m, cfg.epsilon)
    state = initial
    if m.plant.clock not in state:
        state = state.set(m.plant.clock, 0.0)
    if isinstance(m.epsilon, Ident):
        if m.epsilon in state and state.get(m.epsilon) != epsilon:
            raise ConflictingEpsilon(f"the initial state binds {m.epsilon} to "
                                     f"{state.get(m.epsilon)}, but the scan cycle duration is {epsilon}")
        state = state.set(m.epsilon, epsilon)
    if cfg.check_assumptions and not eval_formula(m.assumptions, state):
        raise PlchpError("initial state does not satisfy the assumptions")
    records = []
    for index in range(cycles):
        provided = inputs.values(index)
        missing = [x for x in m.inputs if x not in provided]
        if missing:
            raise MissingInput(
                "input provider lacks values for: " + ", ".join(str(x) for x in missing))
        pre = state.set_many({x: provided[x] for x in m.inputs})
        post_ctrl = run_st(body, pre)
        post_plant, domain_exit = integrate_plant(
            m.plant, post_ctrl.set(m.plant.clock, 0.0), epsilon, cfg.integrator)
        records.append(Record(index, index * epsilon, pre, post_ctrl, post_plant, domain_exit))
        state = post_plant
        if domain_exit is not None:
            break
    return records


def reference_safety(records, safety):
    violations = []
    for rec in records:
        if not eval_formula(safety, rec.pre):
            violations.append((rec.index, "pre", rec.pre))
        if not eval_formula(safety, rec.post_plant):
            violations.append((rec.index, "post_plant", rec.post_plant))
    return violations


def reference_trace(stream, records, io_spec):
    columns = trace_columns(io_spec)
    writer = csv.writer(stream)
    writer.writerow(["cycle"] + [c.name for c in columns])
    actuators = set(io_spec.outputs)
    for rec in records:
        row = [rec.index]
        for col in columns:
            source = rec.post_ctrl if col in actuators else rec.pre
            row.append(repr(source.get(col)))
        writer.writerow(row)


# ---------------------------------------------------------------------------
# Comparison

def hexes(s: State) -> dict:
    return {x.name: v.hex() for x, v in s.items()}


def error(exc) -> tuple:
    return type(exc).__name__, str(exc)


def outcome(run_simulate, run_safety, run_trace, case) -> dict:
    """Everything observable of one run, as plain comparable values."""
    model, body, inputs, cycles, initial, cfg = case
    try:
        records = run_simulate(model, body, inputs, cycles, initial, cfg)
    except PlchpError as exc:
        return {"simulate": error(exc)}
    result = {"records": [
        (rec.index, rec.t_abs.hex(), hexes(rec.pre), hexes(rec.post_ctrl),
         hexes(rec.post_plant),
         rec.domain_exit and (rec.domain_exit.time.hex(), rec.domain_exit.conjunct))
        for rec in records
    ]}
    stream = io.StringIO()
    try:
        run_trace(stream, records, classify_io(model))
    except PlchpError as exc:
        result["trace_error"] = error(exc)
    result["trace"] = stream.getvalue()
    try:
        result["violations"] = [
            (v[0], v[1], hexes(v[2])) for v in run_safety(records, model.safety)]
    except PlchpError as exc:
        result["safety_error"] = error(exc)
    return result


def plchp_safety(records, safety):
    return [(v.cycle, v.phase, v.state) for v in check_safety(records, safety)]


def assert_same(case):
    expected = outcome(reference_simulate, reference_safety, reference_trace, case)
    got = outcome(simulate, plchp_safety, write_trace, case)
    assert got == expected
    return got


# ---------------------------------------------------------------------------
# Models and generated cases

def load(name, edit=None):
    text = (golden.DATA / name).read_text()
    if edit:
        text = text.replace(*edit)
    return validate_scan_cycle_form(parse_dl_model(text))


def exit_model(ode, domain):
    return validate_scan_cycle_form(parse_dl_model(
        f"eps=1 -> [{{ u:=*; y:=u; t:=0; {{x'={ode}, t'=1 & t<=eps & {domain}}} }}*] x>=0"))


MODELS = {
    "safe": load("watertank_safe_model.dlhp"),
    "original": load("watertank_original_model.dlhp"),
    "rk4": load("watertank_safe_model.dlhp", ("x2'=V2*P*f2,", "x2'=V2*P*f2-0.002*x2,")),
    "affine-exit": exit_model("0-1", "x>=0"),
    "rk4-exit": exit_model("-x", "x>=0.5"),
}
TANKS = ("safe", "original", "rk4")
INPUT_KINDS = ("constant", "uniform", "csv")
SUBSTEPS = (1, 7, 50)
CYCLES = (0, 1, 5, 20)
CASES = list(itertools.product(MODELS, INPUT_KINDS, SUBSTEPS, CYCLES))


def tank_initial(rng):
    return State(dict(golden.SCENARIO_PARAMS) | {
        ident("x1"): rng.uniform(300.0, 990.0),
        ident("x2"): rng.uniform(300.0, 990.0),
        ident("V1"): float(rng.randrange(2)),
        ident("V2"): float(rng.randrange(2)),
        ident("P"): float(rng.randrange(2)),
    })


def provider(kind, names, cycles, rng):
    if kind == "constant":
        # Integers too: the state holds every value as a float.
        return ConstantInputs({x: rng.choice((rng.uniform(0.0, 50.0), rng.randrange(50)))
                               for x in names})
    if kind == "uniform":
        return UniformInputs({x: (0.0, 50.0) for x in names}, seed=rng.randrange(2**31))
    # Now and then the trace runs out of rows before the run ends.
    rows = cycles if rng.random() < 0.8 else cycles // 2
    return CsvInputs(tuple({x: rng.uniform(0.0, 50.0) for x in names} for _ in range(rows)))


def generated(seed):
    name, kind, substeps, cycles = CASES[seed]
    rng = random.Random(seed)
    model = MODELS[name]
    body, _ = prog_hp_to_st(model.ctrl)
    if name in TANKS:
        initial = tank_initial(rng)
        names = (ident("f1"), ident("f2"))
        epsilon = 10.0
    else:
        initial = State({ident("x"): rng.uniform(0.6, 3.0), ident("y"): 0.0})
        names = (ident("u"),)
        epsilon = None  # resolved from the model's assumption eps=1
    cfg = SimConfig(epsilon=epsilon, integrator=IntegratorConfig(substeps=substeps))
    return model, body, provider(kind, names, cycles, rng), cycles, initial, cfg


@pytest.mark.parametrize("seed", range(len(CASES)))
def test_generated_runs_match_reference(seed):
    assert_same(generated(seed))


def test_generated_runs_cover_each_outcome():
    outcomes = [assert_same(generated(seed)) for seed in range(len(CASES))]
    assert any(o.get("violations") for o in outcomes)
    assert any(o.get("violations") == [] and o["records"] for o in outcomes)
    assert any(o.get("records") and o["records"][-1][-1] for o in outcomes)  # domain exits
    assert any(o.get("simulate", ("",))[0] == "MissingInput" for o in outcomes)
    assert any(o.get("records") and len(o["records"]) == 20 for o in outcomes)
    assert sum(len(o.get("records", ())) for o in outcomes) > 500


# ---------------------------------------------------------------------------
# Hand cases: errors and partial output

def scenario(model="safe", initial=None, inputs=None, cycles=5, **cfg):
    m = MODELS[model]
    body, _ = prog_hp_to_st(m.ctrl)
    if initial is None:
        initial = State(dict(golden.SCENARIO_PARAMS) | dict(golden.SCENARIO_INIT))
    if inputs is None:
        inputs = ConstantInputs(golden.SCENARIO_INPUTS)
    return m, body, inputs, cycles, initial, SimConfig(**({"epsilon": 10.0} | cfg))


def without(name, *, model="safe", check_assumptions=False, **bindings):
    values = dict(golden.SCENARIO_PARAMS) | dict(golden.SCENARIO_INIT)
    values |= {ident(k): v for k, v in bindings.items()}
    del values[ident(name)]
    return scenario(model, initial=State(values), check_assumptions=check_assumptions)


def test_missing_input():
    got = assert_same(scenario(inputs=ConstantInputs({ident("f1"): 40.0})))
    assert got == {"simulate": ("MissingInput", "input provider lacks values for: f2")}


def test_actuator_the_controller_reads_is_unbound():
    # x2 above L2 leaves V2 unwritten before the shutdown guard reads it.
    got = assert_same(without("V2"))
    assert got == {"simulate": ("UnboundVariable", "unbound variable V2")}


def test_unbound_trace_column_stops_writing_part_way():
    # x1 >= H1 throughout, so the original controller never reads L1, but
    # the trace has an L1 column; the header is written before the error.
    got = assert_same(without("L1", model="original", x1=900.0, V1=0.0))
    assert len(got["records"]) == 5 and got["violations"] == []
    assert got["trace_error"] == ("UnboundVariable", "unbound variable L1")
    assert got["trace"].count("\n") == 1


# Hand-made records, since the records of a run never lose a binding. The
# columns are f (sensor), a, b (actuators), p, q (params); a row is the
# pre-state and post-control snapshots over the names f, a, b, p[, q].
HAND_IO = IoClassification(inputs=(ident("f"),), outputs=(ident("a"), ident("b")),
                           params=(ident("p"), ident("q")))
BOUND = ((1.5, None, None, 2.0, 3.0), (1.5, 1.0, 0.25, 2.0, 3.0))
HEADER_AND_TWO_ROWS = ["cycle,f,a,b,p,q", "0,1.5,1.0,0.25,2.0,3.0", "1,1.5,1.0,0.25,2.0,3.0"]


@pytest.mark.parametrize("names, rows, message, written", [
    # an actuator, in the third row
    ("fabpq", [BOUND, BOUND, ((1.5, None, None, 2.0, 3.0), (1.5, 1.0, None, 2.0, 3.0)), BOUND],
     "unbound variable b", HEADER_AND_TWO_ROWS),
    # an actuator and a param after it, which the pre-state snapshot holds
    ("fabpq", [BOUND, BOUND, ((1.5, None, None, None, 3.0), (1.5, 1.0, None, None, 3.0))],
     "unbound variable b", HEADER_AND_TWO_ROWS),
    # a param the run never had, after an actuator unbound in the first row
    ("fabp", [((1.5, None, None, 2.0), (1.5, None, 0.25, 2.0))],
     "unbound variable a", HEADER_AND_TWO_ROWS[:1]),
])
def test_trace_names_the_first_unbound_column(names, rows, message, written):
    layout = Layout(ident(n) for n in names)
    records = [CycleRecord(i, 10.0 * i, layout, pre, ctrl, ctrl)
               for i, (pre, ctrl) in enumerate(rows)]
    streams = io.StringIO(), io.StringIO()
    for stream, writer in zip(streams, (reference_trace, write_trace)):
        with pytest.raises(PlchpError) as err:
            writer(stream, records, HAND_IO)
        assert error(err.value) == ("UnboundVariable", message)
    assert streams[1].getvalue() == streams[0].getvalue()
    assert streams[1].getvalue().splitlines() == written


def test_unbound_variable_in_safety_property():
    got = assert_same(without("HH", model="original", V1=0.0))
    assert got["safety_error"] == ("UnboundVariable", "unbound variable HH")


def test_division_by_zero_in_controller():
    m = load("watertank_safe_model.dlhp", ("(HH-x1)/eps", "(HH-x1)/FL"))
    body, _ = prog_hp_to_st(m.ctrl)
    initial = State(dict(golden.SCENARIO_PARAMS) | dict(golden.SCENARIO_INIT) | {ident("FL"): 0.0})
    got = assert_same((m, body, ConstantInputs(golden.SCENARIO_INPUTS), 5, initial,
                       SimConfig(epsilon=10.0)))
    assert got == {"simulate": ("DivisionByZero", "division by zero in (HH-x1)/FL")}


def test_initial_state_binding_another_duration():
    got = assert_same(scenario(initial=State(
        dict(golden.SCENARIO_PARAMS) | dict(golden.SCENARIO_INIT) | {ident("eps"): 0.0})))
    assert got == {"simulate": (
        "ConflictingEpsilon", "the initial state binds eps to 0.0, but the scan cycle duration is 10.0")}


def test_failing_check_assumptions():
    initial = State(dict(golden.SCENARIO_PARAMS) | dict(golden.SCENARIO_INIT)
                    | {ident("x1"): -5.0})
    got = assert_same(scenario("original", initial=initial, check_assumptions=True))
    assert got == {"simulate": ("PlchpError", "initial state does not satisfy the assumptions")}


def test_passing_check_assumptions():
    initial = State(dict(golden.SCENARIO_PARAMS) | dict(golden.SCENARIO_INIT)
                    | {ident("V1"): 0.0})
    got = assert_same(scenario("original", initial=initial, check_assumptions=True))
    assert len(got["records"]) == 5


def test_unbound_variable_in_assumptions():
    got = assert_same(without("FL", model="original", check_assumptions=True))
    assert got == {"simulate": ("UnboundVariable", "unbound variable FL")}


class LoggedInputs(InputProvider):
    """u = 2 every cycle, noting each cycle it is asked for."""

    def __init__(self):
        self.asked = []

    def values(self, cycle):
        self.asked.append(cycle)
        return {ident("u"): 2.0}


def test_unbound_read_first_reached_at_a_later_cycle():
    # x falls by 1 a cycle from 3.5; the branch that reads the unbound z is
    # first taken at cycle 3, when x is 0.5.
    model = validate_scan_cycle_form(parse_dl_model(
        "eps=1 -> [{ u:=*; {?x<1; y:=z;} ++ {?!(x<1); y:=u;} t:=0; "
        "{x'=0-1, t'=1 & t<=eps} }*] x>=-100"))
    body, _ = prog_hp_to_st(model.ctrl)
    initial = State({ident("x"): 3.5, ident("y"): 0.0})
    for cycles in (3, 6):
        inputs = LoggedInputs()
        got = assert_same((model, body, inputs, cycles, initial, SimConfig()))
        if cycles == 3:  # the cycles before it run
            assert [rec[2]["x"] for rec in got["records"]] == [
                (3.5).hex(), (2.5).hex(), (1.5).hex()]
        else:
            assert got == {"simulate": ("UnboundVariable", "unbound variable z")}
        assert inputs.asked == list(range(min(cycles, 4))) * 2  # the reference, then simulate


def test_symbolic_epsilon_without_a_value():
    got = assert_same(scenario(epsilon=None))
    assert got["simulate"][0] == "MissingEpsilon"


def test_explicit_rk4_on_an_affine_plant():
    assert_same(scenario(cycles=4, integrator=IntegratorConfig(method="rk4", substeps=7)))


def test_domain_exit_in_the_first_cycle():
    for model in ("affine-exit", "rk4-exit"):
        got = assert_same(scenario(
            model, initial=State({ident("x"): 0.25, ident("y"): 0.0}),
            inputs=ConstantInputs({ident("u"): 1.0}), epsilon=None,
            integrator=IntegratorConfig(substeps=7)))
        assert len(got["records"]) == 1 and got["records"][0][-1] is not None


def first_grid_failure(holds, duration, substeps):
    """The first `duration*k/substeps` at which `holds` is false."""
    return next(t for t in (duration * k / substeps for k in range(substeps + 1)) if not holds(t))


@pytest.mark.parametrize("substeps", [1, 7, 1000])
def test_affine_exit_of_a_nonlinear_conjunct_is_on_the_grid(substeps):
    # x*x<=9 is not linear in x, so the closed form scans the substep grid.
    # Cycle 0 takes x from 0 to 2; in cycle 1, x = 2 + 2t leaves the domain.
    model = exit_model("y", "x*x<=9")
    body, _ = prog_hp_to_st(model.ctrl)
    cfg = SimConfig(integrator=IntegratorConfig(substeps=substeps, method="affine"))
    records = simulate(model, body, ConstantInputs({ident("u"): 2.0}), 5,
                       State({ident("x"): 0.0}), cfg)
    expected = first_grid_failure(lambda t: (2.0 + 2.0 * t) * (2.0 + 2.0 * t) <= 9, 1.0, substeps)
    assert [rec.domain_exit for rec in records[:-1]] == [None]
    exit_ = records[-1].domain_exit
    assert records[-1].index == 1 and exit_.time == expected
    assert print_dl_formula(exit_.conjunct) == "x*x<=9"
    assert records[-1].post_plant.get(ident("x")) == 2.0 + 2.0 * expected


def test_affine_exit_when_the_controller_leaves_the_domain():
    model = validate_scan_cycle_form(parse_dl_model(
        "eps=1 -> [{ u:=*; x:=u; t:=0; {x'=1, t'=1 & t<=eps & x<=3} }*] x<=10"))
    body, _ = prog_hp_to_st(model.ctrl)
    records = simulate(model, body, ConstantInputs({ident("u"): 5.0}), 5,
                       State({ident("x"): 0.0}), SimConfig())
    assert len(records) == 1 and records[0].domain_exit.time == 0.0
    assert records[0].domain_exit.describe() == "domain violated at t=0: x<=3"
    assert records[0].post_plant.get(ident("x")) == 5.0


# ---------------------------------------------------------------------------
# The loop's saving: a cycle builds no State

@pytest.mark.parametrize("model", ["safe", "rk4"])
def test_cycles_build_no_state(monkeypatch, model):
    # Counted at State.__init__, which every construction passes through.
    built = [0]
    init = State.__init__

    def counting(self, bindings=()):
        built[0] += 1
        init(self, bindings)

    monkeypatch.setattr(State, "__init__", counting)

    def states(cycles):
        m, body, inputs, _, initial, cfg = scenario(
            model, cycles=cycles, integrator=IntegratorConfig(substeps=7))
        start = built[0]
        records = simulate(m, body, inputs, cycles, initial, cfg)
        assert check_safety(records, m.safety) == []
        write_trace(io.StringIO(), records, classify_io(m))
        assert len(records) == cycles
        return built[0] - start

    assert states(5) == states(50)


@pytest.mark.parametrize("model, method", [("safe", "affine"), ("rk4", "rk4")])
def test_integrate_plant_in_place_matches_state_path(model, method):
    plant = MODELS[model].plant
    s = State(dict(golden.SCENARIO_PARAMS) | dict(golden.SCENARIO_INIT)
              | dict(golden.SCENARIO_INPUTS) | {ident("t"): 0.0, ident("P"): 1.0,
                                                 ident("V2"): 1.0})
    cfg = IntegratorConfig(method=method, substeps=7)
    expected, expected_exit = integrate_plant(plant, s, 10.0, cfg)
    layout = Layout(x for x, _ in s.items())
    values = layout.load(s)
    same, domain_exit = integrate_plant(CompiledPlant(plant, layout), values, 10.0, cfg)
    assert same is values and domain_exit == expected_exit
    assert hexes(layout.state(values)) == hexes(expected)
    with pytest.raises(TypeError):
        integrate_plant(plant, values, 10.0, cfg)


def test_records_compare_by_their_states():
    m, body, inputs, cycles, initial, cfg = scenario(cycles=3)
    first = simulate(m, body, inputs, cycles, initial, cfg)
    again = simulate(m, body, inputs, cycles, initial, cfg)
    assert first == again and first[0] != first[1]
    assert hash(first[2]) == hash(again[2])
