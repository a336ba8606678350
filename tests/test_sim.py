"""Plant integration, scan-cycle simulation, safety, compliance."""

import io
import random
import re
from collections import Counter
from dataclasses import replace
from itertools import product
from math import inf, nextafter

import pytest

import golden
from plchp import (
    Assign, Ident, Number, PlantSpec, State, Var,
    check_compliance, check_safety, classify_io, eval_formula, integrate_plant,
    parse_dl_formula, parse_dl_model, simulate, validate_scan_cycle_form,
)
from plchp.compiled import Layout
from plchp.errors import (
    DomainError, EvalError, InputFileError, MissingInput, NondeterministicCtrl, SchemaError,
)
from plchp.ir import (
    BinOp, Cmp, DIV, GE, GT, GuardedChoice, HP, LE, LT, Neg, Not, POW, TRUE, collect_vars,
    conjoin, walk,
)
from plchp.semantics import GenConfig, derive_seed, gen_formula, gen_state, gen_term
from plchp.sim import (
    CompiledPlant, ConstantInputs, CsvInputs, IntegratorConfig, SimConfig,
    UniformInputs, _integrate_affine, _integrate_rk4, plant_is_affine, read_trace, write_trace,
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


@pytest.mark.parametrize("method", ["affine", "rk4"])
def test_a_plant_state_that_is_not_finite_raises(method):
    # x1 grows by f1 = 40 a second over 1e307 seconds, past binary64's range.
    s = scenario_state()
    layout = Layout(x for x, _ in s.items())
    values = layout.load(s)
    with pytest.raises(DomainError, match="^plant state x1 is not finite: inf$"):
        integrate_plant(CompiledPlant(golden.PLANT, layout), values, 1e307,
                        IntegratorConfig(method=method, substeps=2))
    assert values == layout.load(s)  # left as it was


# ---------------------------------------------------------------------------
# The closed form against RK4 on generated affine plants (differential
# testing; McKeeman, Digital Technical Journal 10(1), 1998)

A, B, C, D, T = (ident(n) for n in "abcdt")
COMPLEMENT = {LT: GE, LE: GT}


def holding(f, s):
    """`f`, or its complement where it is false on `s`: mostly the domain
    holds at the start, so the cycle runs until something leaves it."""
    try:
        if eval_formula(f, s):
            return f
    except EvalError:
        return f
    return Cmp(COMPLEMENT[f.rel], f.left, f.right) if f.__class__ is Cmp and f.rel in COMPLEMENT \
        else Not(f)


def affine_case(seed):
    """Rates of a and b over the parameters c and d; a domain of one to
    three generated conjuncts over a, b, c, d and the clock t, and one
    linear bound on a among them; a start state, sometimes with a
    variable unbound; and the number of substeps."""
    rng = random.Random(seed)
    pool = (A, B, C, D, T)
    s = gen_state(GenConfig(var_pool=pool, seed=seed))
    if seed % 10 == 0:
        s = State({x: v for x, v in s.items() if x != pool[seed // 10 % 5]})
    rates = GenConfig(max_depth=3, var_pool=(C, D), seed=seed)
    odes = ((A, gen_term(rates)), (B, gen_term(replace(rates, seed=seed + 10**6))))
    parts = [gen_formula(GenConfig(max_depth=2, var_pool=pool, seed=seed + k * 10**6), HP)
             for k in range(2, 3 + rng.randrange(3))]
    parts.insert(rng.randrange(len(parts) + 1),
                 Cmp(rng.choice((LT, LE)), Var(A), rng.choice((Var(C), Number(rng.choice("0123"))))))
    if seed % 7:  # else the domain may fail at the start
        parts = [holding(part, s) for part in parts]
    plant = PlantSpec(odes=odes, clock=T, domain=conjoin(parts), bound=Var(ident("eps")))
    return plant, s, (1, 2, 7, 50)[seed % 4]


def step_outcome(kernel, plant, s, substeps):
    """The error of one cycle of `kernel`, or its domain exit and end state."""
    values = plant.layout.load(s)
    try:
        domain_exit = kernel(plant, values, 1.0, IntegratorConfig(substeps=substeps))
    except EvalError as exc:
        return (type(exc), str(exc)), None, None
    return None, domain_exit, plant.layout.state(values)


def holds_nearby(conjunct, s):
    """Whether `conjunct` holds on a state within rounding of `s`: each
    evolving variable it reads moved by up to two ulps or 1e-12 relative."""
    names = [x for x in (A, B, T) if x in collect_vars(conjunct)]

    def near(v):
        ulps = (nextafter(nextafter(v, -inf), -inf), nextafter(v, -inf), v,
                nextafter(v, inf), nextafter(nextafter(v, inf), inf))
        return (*ulps, v - 1e-12 * max(1.0, abs(v)), v + 1e-12 * max(1.0, abs(v)))

    for moved in product(*(near(s.get(x)) for x in names)):
        try:
            if eval_formula(conjunct, s.set_many(dict(zip(names, moved)))):
                return True
        except EvalError:
            pass
    return False


def closed_form(plant, s, t):
    """The affine plant's state at `t` from `s`, as the closed form computes it."""
    rates = [f(plant.layout.load(s)) for f in plant.rates]
    return s.set_many({**{x: s.get(x) + r * t for (x, _), r in zip(plant.odes, rates)},
                       T: s.get(T) + t})


def test_affine_agrees_with_rk4_on_generated_plants():
    # The two integrators differ only in how they advance the state. They
    # must raise the same error or both exit within one substep, each at a
    # conjunct that is false on its own exit state, or both end the cycle
    # at states equal up to rounding. The allowances, each counted:
    # - "on the boundary": the closed form exits at a linear conjunct's
    #   exact crossing, where the conjunct holds with equality or by
    #   rounding, and fails within rounding of it;
    # - "affine only" / "rk4 only": one side exits, at a conjunct that
    #   holds within rounding of its exit state, so the other side's state,
    #   rounded the other way, stays inside;
    # - "rk4 raises past the crossing": RK4 sees the domain only at
    #   substep ends, so where the closed form exits at an exact crossing
    #   inside a substep, RK4 may raise at that substep's end, on the error
    #   the domain raises on the closed form's state there. A crossing
    #   search for RK4 would remove it.
    # The first case is a crossing on a grid point, where both raise.
    hand = PlantSpec(odes=((A, Number("1")), (B, Number("0"))), clock=T,
                     domain=parse_dl_formula("a<=0.5 & 1/(0.5-t)>=0"), bound=Var(ident("eps")))
    cases = [(hand, State({A: 0.0, B: 0.0, T: 0.0}), 2), *map(affine_case, range(2000))]
    kinds, allowed, divides = Counter(), Counter(), 0

    def assert_left(side, domain_exit, end):
        """The exit's conjunct is false on the exit state, or on the boundary."""
        if eval_formula(domain_exit.conjunct, end):
            assert side == "affine" and any(part is domain_exit.conjunct for part, _, _ in plant.linear)
            assert holds_nearby(Not(domain_exit.conjunct), end)
            allowed["on the boundary"] += 1

    for spec, s, substeps in cases:
        assert plant_is_affine(spec)
        divides += any(node.__class__ is BinOp and node.op in (DIV, POW) for node in walk(spec.domain))
        plant = CompiledPlant(spec, Layout(x for x, _ in s.items()))
        error, affine_exit, affine_end = step_outcome(_integrate_affine, plant, s, substeps)
        rk4_error, rk4_exit, rk4_end = step_outcome(_integrate_rk4, plant, s, substeps)
        h = 1.0 / substeps
        if rk4_error and affine_exit and error is None:
            grid = -(-affine_exit.time // h) * h  # the substep end after the crossing
            assert grid > affine_exit.time
            with pytest.raises(rk4_error[0], match=f"^{re.escape(rk4_error[1])}$"):
                eval_formula(spec.domain, closed_form(plant, s, grid))
            allowed["rk4 raises past the crossing"] += 1
        elif error or rk4_error:
            assert error == rk4_error
            kinds["error"] += 1
        elif affine_exit and rk4_exit:
            assert abs(affine_exit.time - rk4_exit.time) <= h * (1 + 1e-12)
            kinds["exit at start" if rk4_exit.time == 0.0 else "exit"] += 1
            assert_left("affine", affine_exit, affine_end)
            assert_left("rk4", rk4_exit, rk4_end)
        elif affine_exit or rk4_exit:
            side, domain_exit, end = ("affine", affine_exit, affine_end) if affine_exit \
                else ("rk4", rk4_exit, rk4_end)
            assert_left(side, domain_exit, end)
            assert holds_nearby(domain_exit.conjunct, end)
            allowed[side + " only"] += 1
        else:
            for x in (A, B, T):
                scale = abs(s.get(x)) + abs(affine_end.get(x) - s.get(x)) + 1.0
                assert abs(affine_end.get(x) - rk4_end.get(x)) <= 1e-12 * scale
            kinds["no exit"] += 1
    assert min(kinds.values()) > 100 and len(kinds) == 4, kinds
    assert divides > 500, divides


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
