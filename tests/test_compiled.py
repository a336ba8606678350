"""The compiled functions and the emitted source against the reference
interpreters.

Each case runs a tree through the interpreter (`eval_term`, `eval_formula`,
`run_st`) and through its compiled function, and requires the same outcome:
bit-equal values (`float.hex`, bit-pattern `State` equality), or the same
`EvalError` subclass with the same message. Random cases come from the
difftest generators at depth 5 (ST bodies also at depths 1 to 4), on full
states and on states with variables left unbound, where the compiled code
raises from its own check at the first unbound read. Terms and formulas
written by `Source.render`, which reads without a check, are held to the
interpreters the same way on full states, and the emitted RK4 loop to a copy
of the closure loop it replaced. Last, the water-tank runs count what they
pay for, RK4 loop emissions and `compile()` calls, and show that no module
they compile calls an interpreter.
"""

import io
import random
from collections import Counter
from dataclasses import replace

import pytest

import golden
from plchp import (
    State, classify_io, eval_formula, eval_term, parse_dl_formula, parse_dl_model,
    parse_dl_term, parse_st_statements, run_st, simulate, validate_scan_cycle_form,
)
from plchp import compiled, sim
from plchp.compiled import (
    MAX_DEPTH, Layout, Source, compile_formula, compile_st, compile_term, read,
)
from plchp.errors import DivisionByZero, DomainError, EvalError, PlchpError, UnboundVariable
from plchp.ir import HP, ST, TRUE, GuardedChoice, Ident, IfThen, PlantSpec, Var
from plchp.semantics import GenConfig, gen_formula, gen_st, gen_state, gen_term
from plchp.sim import (
    CompiledPlant, ConstantInputs, DomainExit, IntegratorConfig, SimConfig, _integrate_rk4,
    check_compliance, check_safety, read_trace, write_trace,
)
from plchp.st_syntax import parse_st_expression
from plchp.translate import prog_hp_to_st

SEEDS = range(1000)


def ident(n):
    return Ident(n)


def state(**bindings):
    return State({Ident(k): float(v) for k, v in bindings.items()})


def outcome(run):
    """The value `run()` returns, or the class and message of the
    evaluation error it raises."""
    try:
        value = run()
    except EvalError as exc:
        return type(exc), str(exc)
    return value.hex() if isinstance(value, float) else value


def term_outcomes(t, s):
    layout = Layout()
    f = compile_term(t, layout)
    return outcome(lambda: eval_term(t, s)), outcome(lambda: f(layout.load(s)))


def formula_outcomes(f, s):
    layout = Layout()
    g = compile_formula(f, layout)
    return outcome(lambda: eval_formula(f, s)), outcome(lambda: g(layout.load(s)))


def st_outcomes(p, s):
    layout = Layout()
    body = compile_st(p, layout)

    def compiled():
        values = layout.load(s)
        body(values)
        return layout.store(s, values)

    return outcome(lambda: run_st(p, s)), outcome(compiled)


def states(seed):
    """A full random state, and the same state with some variables unbound."""
    full = gen_state(GenConfig(seed=seed))
    rng = random.Random(seed)
    partial = State({x: value for x, value in full.items() if rng.random() < 0.7})
    return full, partial


def kind(result):
    return result[0].__name__ if isinstance(result, tuple) else "value"


def check_random(compare, generate):
    kinds = Counter()
    for seed in SEEDS:
        tree = generate(GenConfig(max_depth=5, seed=seed))
        for s in states(seed):
            reference, compiled = compare(tree, s)
            assert compiled == reference, (seed, tree, s)
            kinds[kind(reference)] += 1
    return kinds


def test_random_terms():
    kinds = check_random(term_outcomes, gen_term)
    # Every outcome is exercised, not only the error-free one.
    assert {"value", "DivisionByZero", "DomainError", "UnboundVariable"} <= set(kinds)


@pytest.mark.parametrize("dialect", [ST, HP])
def test_random_formulas(dialect):
    kinds = check_random(formula_outcomes, lambda cfg: gen_formula(cfg, dialect))
    assert {"value", "DivisionByZero", "UnboundVariable"} <= set(kinds)


def test_random_st_bodies():
    kinds = check_random(st_outcomes, gen_st)
    assert {"value", "DivisionByZero", "UnboundVariable"} <= set(kinds)


@pytest.mark.parametrize("text", [
    "1 < 2 & 1/0 > 0",
    "1 > 2 & 1/0 > 0",
    "1 < 2 | 1/0 > 0",
    "1 > 2 -> 1/0 > 0",
    "!(1 > 2) <-> 0^(0-1) > 0",
])
def test_connectives_are_strict(text):
    # The left side decides the result, yet the right side still raises.
    reference, compiled = formula_outcomes(parse_dl_formula(text), State())
    assert compiled == reference
    assert reference[0] in (DivisionByZero, DomainError)


def test_error_order_follows_evaluation_order():
    s = State()
    div_first = term_outcomes(parse_st_expression("1/0 + x"), s)
    read_first = term_outcomes(parse_st_expression("x + 1/0"), s)
    assert div_first[0][0] is DivisionByZero and div_first[1] == div_first[0]
    assert read_first[0][0] is UnboundVariable and read_first[1] == read_first[0]


def test_read_before_write_is_unbound():
    body = parse_st_statements("y := x; x := 1;")
    reference, compiled = st_outcomes(body, state(y=0))
    assert reference == (UnboundVariable, "unbound variable x")
    assert compiled == reference
    # Written first, the same variable reads fine.
    reference, compiled = st_outcomes(parse_st_statements("x := 1; y := x;"), state(y=0))
    assert compiled == reference == state(x=1, y=1)


def test_unbound_variable_in_branch_not_taken():
    body = parse_st_statements("IF a > 0 THEN y := z; ELSE y := a; END_IF;")
    reference, compiled = st_outcomes(body, state(a=-1, y=0))
    assert compiled == reference == state(a=-1, y=-1)


def test_negative_zero():
    assert term_outcomes(parse_st_expression("-0"), State()) == ("-0x0.0p+0",) * 2
    assert term_outcomes(parse_st_expression("0 * (0 - 1)"), State()) == ("-0x0.0p+0",) * 2
    reference, compiled = st_outcomes(parse_st_statements("y := -x;"), state(x=0, y=1))
    assert compiled == reference
    assert compiled != state(x=0, y=0)  # -0.0 and 0.0 differ by bits
    assert compiled.get(ident("y")).hex() == "-0x0.0p+0"


def test_non_st_statement_fails_only_when_reached():
    # Like run_st, a compiled body rejects a hybrid-program choice when it
    # runs into one, not when it is compiled.
    choice = GuardedChoice(parse_dl_formula("a>=0"), parse_st_statements("a := 1;"), None,
                           complemented=True)
    body = IfThen(parse_st_expression("a > 0"), choice)
    reference, compiled = st_outcomes(body, state(a=-1))
    assert compiled == reference == state(a=-1)
    layout = Layout()
    run = compile_st(body, layout)
    for execute in (lambda: run_st(body, state(a=1)), lambda: run(layout.load(state(a=1)))):
        with pytest.raises(TypeError, match="run_st executes ST statements, not GuardedChoice"):
            execute()


# ---------------------------------------------------------------------------
# Emitted source against the interpreters

def emitted_outcome(node, s):
    """`node` written by `Source` as the body of a function of the values
    of `s`, and run on them."""
    names = {x: f"x{i}" for i, (x, _) in enumerate(s.items())}
    source = Source()
    source.line(0, f"def f({', '.join(names.values())}):")
    for text in source.render("result", node, names.__getitem__):
        source.line(1, text)
    source.line(1, "return result")
    f = source.define("f")
    return outcome(lambda: f(*(value for _, value in s.items())))


def check_emitted(interpret, generate):
    kinds = Counter()
    for seed in SEEDS:
        tree = generate(GenConfig(max_depth=5, seed=seed))
        s = states(seed)[0]  # emitted code reads locals without an unbound check
        reference = outcome(lambda: interpret(tree, s))
        assert emitted_outcome(tree, s) == reference, (seed, tree, s)
        kinds[kind(reference)] += 1
    return kinds


def test_emitted_terms():
    kinds = check_emitted(eval_term, gen_term)
    assert {"value", "DivisionByZero", "DomainError"} <= set(kinds)


@pytest.mark.parametrize("dialect", [ST, HP])
def test_emitted_formulas(dialect):
    kinds = check_emitted(eval_formula, lambda cfg: gen_formula(cfg, dialect))
    assert {"value", "DivisionByZero"} <= set(kinds)


def nested_product(levels, inner):
    """`1*(1*(...(inner)...))`, right-nested `*` around `inner` until the
    tree is `levels` deep (`inner` is two deep)."""
    return "1*(" * (levels - 2) + inner + ")" * (levels - 2)


def test_emitted_deep_trees_are_written_flat():
    s = state(x=3, y=0.5)
    term = parse_dl_term(nested_product(MAX_DEPTH, "x/y"))
    formula = parse_dl_formula(nested_product(MAX_DEPTH - 1, "x-y") + ">=0")
    # Both operands divide by zero: the left one's error is raised.
    zero = parse_dl_term(f"({nested_product(100, 'x/(y-y)')}) + ({nested_product(100, 'y/(x-x)')})")
    for tree, interpret in ((term, eval_term), (formula, eval_formula), (zero, eval_term)):
        assert emitted_outcome(tree, s) == outcome(lambda: interpret(tree, s))
    assert emitted_outcome(zero, s) == (DivisionByZero, "division by zero in x/(y-y)")


# ---------------------------------------------------------------------------
# The emitted RK4 loop against the closure loop it replaced

def closure_rk4(plant, v, duration, cfg):
    """The RK4 cycle as a loop over the plant's compiled rates and domain,
    as it ran before the loop was emitted."""
    clock = plant.clock
    t0 = read(v, clock, plant.spec.clock)
    n = cfg.substeps
    h = duration / n
    half = h / 2
    rates, domain = plant.rates, plant.domain
    slots = [i for _, i in plant.odes]

    if domain is not None and not domain(v):
        return DomainExit(0.0, plant.failing_conjunct(v))
    unbound = [x for x, i in plant.odes if v[i] is None]
    if unbound:
        for f in rates:
            f(v)
        raise UnboundVariable(unbound[0])
    w = v.copy()
    for k in range(n):
        t_mid = duration * k / n + half
        t_next = duration * (k + 1) / n
        k1 = [f(v) for f in rates]
        for i, r in zip(slots, k1):
            w[i] = v[i] + r * half
        w[clock] = t0 + t_mid
        k2 = [f(w) for f in rates]
        for i, r in zip(slots, k2):
            w[i] = v[i] + r * half
        k3 = [f(w) for f in rates]
        for i, r in zip(slots, k3):
            w[i] = v[i] + r * h
        w[clock] = t0 + t_next
        k4 = [f(w) for f in rates]
        for i, a, b, c, d in zip(slots, k1, k2, k3, k4):
            v[i] = v[i] + (a + 2 * b + 2 * c + d) / 6 * h
        v[clock] = t0 + t_next
        if domain is not None and not domain(v):
            return DomainExit(t_next, plant.failing_conjunct(v))
    v[clock] = t0 + duration
    return None


def rk4_outcome(integrate, plant, s, duration, substeps):
    """The slots and domain exit of one RK4 cycle from `s`, or the class
    and message of the error it raises."""
    layout = Layout(x for x, _ in s.items())
    compiled = CompiledPlant(plant, layout)
    values = layout.load(s)
    try:
        domain_exit = integrate(compiled, values, duration,
                                IntegratorConfig(method="rk4", substeps=substeps))
    except EvalError as exc:
        return type(exc), str(exc)
    return ([value and value.hex() for value in values],
            domain_exit and (domain_exit.time.hex(), domain_exit.conjunct))


def rk4_kind(result):
    if isinstance(result[0], type):
        return result[0].__name__
    if result[1] is None:
        return "value"
    return "exit at start" if result[1][0] == "0x0.0p+0" else "exit mid-cycle"


def assert_same_rk4(plant, s, duration=1.0, substeps=7):
    expected = rk4_outcome(closure_rk4, plant, s, duration, substeps)
    assert rk4_outcome(_integrate_rk4, plant, s, duration, substeps) == expected
    return rk4_kind(expected)


A, B, C, D, T = (Ident(n) for n in "abcdt")


def generated_plant(seed):
    """Rates for a and b and a domain over a, b, the clock t and the
    parameters c and d."""
    pool = GenConfig(max_depth=3, var_pool=(A, B, C, D, T), seed=seed)
    rates = ((A, gen_term(pool)), (B, gen_term(replace(pool, seed=seed + 10**6))))
    domain = gen_formula(replace(pool, seed=seed + 2 * 10**6), HP) if seed % 4 else TRUE
    return PlantSpec(odes=rates, clock=T, domain=domain, bound=Var(Ident("eps")))


@pytest.mark.parametrize("substeps", [1, 7, 200])
def test_emitted_rk4_on_generated_plants(substeps):
    kinds = Counter()
    for seed in range(150):
        s = gen_state(GenConfig(var_pool=(A, B, C, D, T), seed=seed))
        kinds[assert_same_rk4(generated_plant(seed), s, 0.5, substeps)] += 1
    assert {"value", "exit at start", "DivisionByZero"} <= set(kinds), kinds
    if substeps > 1:
        assert kinds["exit mid-cycle"], kinds


def hand_plant(rates, domain="true"):
    return PlantSpec(odes=tuple((Ident(x), parse_dl_term(rhs)) for x, rhs in rates),
                     clock=T, domain=parse_dl_formula(domain), bound=Var(Ident("eps")))


@pytest.mark.parametrize("substeps", [1, 7, 200])
def test_emitted_rk4_exits_mid_cycle(substeps):
    # x' = -x leaves x >= 0.5 at ln 2 ≈ 0.69 of the cycle.
    plant = hand_plant([("x", "0-x"), ("y", "t*x")], "t>=0 & x>=0.5")
    assert assert_same_rk4(plant, state(x=1, y=0, t=0), 1.0, substeps) == "exit mid-cycle"


@pytest.mark.parametrize("rates, stage", [
    ([("x", "1"), ("y", "1/(x-0.5)")], "second"),  # x is 0.5 at the mid-point
    ([("x", "1"), ("y", "1/(t-0.5)")], "second"),  # so is the clock
    ([("x", "1"), ("y", "1/(x-1)")], "fourth"),  # x is 1 at the end
])
def test_emitted_rk4_division_by_zero_in_a_later_stage(rates, stage):
    s = state(x=0, y=0, t=0)
    for _, rhs in rates:  # the first stage divides by a non-zero value
        eval_term(parse_dl_term(rhs), s)
    assert assert_same_rk4(hand_plant(rates), s, 1.0, 1) == "DivisionByZero"


@pytest.mark.parametrize("rates, domain, s, message", [
    ([("x", "c*x")], "true", state(x=1, t=0), "unbound variable c"),  # parameter in a rate
    ([("x", "0-x")], "x>=d", state(x=1, t=0), "unbound variable d"),  # parameter in the domain
    ([("x", "1"), ("y", "x")], "true", state(y=1, t=0), "unbound variable x"),  # evolving
    ([("x", "1"), ("y", "1/0")], "true", state(y=1, t=0), "division by zero in 1/0"),
])
def test_emitted_rk4_unbound_variables(rates, domain, s, message):
    assert assert_same_rk4(hand_plant(rates, domain), s) != "value"
    assert rk4_outcome(_integrate_rk4, hand_plant(rates, domain), s, 1.0, 7)[1] == message


# ---------------------------------------------------------------------------
# The emitted loop on a deep plant, and who pays for emitting it

def deep_model(rate_levels, domain_levels):
    # x' = -x in a rate `rate_levels` deep; the domain x >= 0.5, `domain_levels` deep.
    rate = nested_product(rate_levels, "0-x")
    domain = nested_product(domain_levels - 1, "x-0.5") + ">=0"
    return validate_scan_cycle_form(parse_dl_model(
        f"eps=1 -> [{{ u:=*; y:=u; t:=0; {{x'={rate}, t'=1 & t<=eps & {domain}}} }}*] x>=0"))


def deep_case(model, substeps):
    body, _ = prog_hp_to_st(model.ctrl)
    cfg = SimConfig(integrator=IntegratorConfig(substeps=substeps))
    return model, body, ConstantInputs({Ident("u"): 1.0}), 3, state(x=1, y=0), cfg


@pytest.mark.parametrize("substeps", [7, 200])
def test_deep_rk4_plant_simulates(substeps):
    from test_sim_reference import assert_same

    model = deep_model(MAX_DEPTH, MAX_DEPTH)
    got = assert_same(deep_case(model, substeps))
    assert len(got["records"]) == 1 and got["records"][0][-1] is not None  # exits at ln 2
    assert assert_same_rk4(model.plant, state(x=1, t=0), 1.0, substeps) == "exit mid-cycle"


@pytest.mark.parametrize("rate_levels, domain_levels", [
    (MAX_DEPTH + 1, MAX_DEPTH), (MAX_DEPTH, MAX_DEPTH + 1)])
def test_deeper_rk4_plant_is_refused(rate_levels, domain_levels):
    from test_sim_reference import assert_same

    got = assert_same(deep_case(deep_model(rate_levels, domain_levels), 7))
    assert got == {"simulate": (
        "PlchpError", f"expression nested too deeply to compile (more than {MAX_DEPTH} levels)")}


def compiled_sources(monkeypatch):
    """The source text of each `compile()` call of `plchp.compiled` from now on."""
    texts = []

    def recording(text, *args):
        texts.append(text)
        return compile(text, *args)

    monkeypatch.setattr(compiled, "compile", recording, raising=False)
    return texts


def tank_run(edit, method, cycles):
    text = (golden.DATA / "watertank_safe_model.dlhp").read_text()
    if edit is not None:
        text = text.replace(*edit)
    model = validate_scan_cycle_form(parse_dl_model(text))
    body, _ = prog_hp_to_st(model.ctrl)
    initial = State(dict(golden.SCENARIO_PARAMS) | dict(golden.SCENARIO_INIT))
    cfg = SimConfig(epsilon=10.0, integrator=IntegratorConfig(method=method, substeps=20))
    records = simulate(model, body, ConstantInputs(golden.SCENARIO_INPUTS), cycles, initial, cfg)
    assert len(records) == cycles
    return model, records


AFFINE = None
OUTFLOW = ("x2'=V2*P*f2,", "x2'=V2*P*f2-0.002*x2,")
RUNS = [(AFFINE, "auto"), (OUTFLOW, "auto"), (AFFINE, "rk4")]


def counted_rk4_emissions(monkeypatch):
    """How many times a run emits the RK4 loop from now on."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return compiled.emit_rk4(*args)

    monkeypatch.setattr(sim, "emit_rk4", counting)
    return calls


@pytest.mark.parametrize("method", ["auto", "affine"])
def test_affine_runs_never_emit_the_rk4_loop(monkeypatch, method):
    emissions = counted_rk4_emissions(monkeypatch)
    tank_run(AFFINE, method, cycles=20)
    assert emissions[0] == 0


@pytest.mark.parametrize("edit, method", [(OUTFLOW, "auto"), (AFFINE, "rk4")])
def test_rk4_runs_emit_once_per_run(monkeypatch, edit, method):
    emissions = counted_rk4_emissions(monkeypatch)
    tank_run(edit, method, cycles=20)
    assert emissions[0] == 1
    tank_run(edit, method, cycles=5)
    assert emissions[0] == 2


@pytest.mark.parametrize("edit, method", RUNS)
def test_compiles_do_not_grow_with_the_cycle_count(monkeypatch, edit, method):
    texts = compiled_sources(monkeypatch)
    counts = []
    for cycles in (1, 20):
        compiled._code.cache_clear()
        before = len(texts)
        tank_run(edit, method, cycles)
        counts.append(len(texts) - before)
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("edit, method", RUNS)
def test_a_repeated_run_compiles_nothing(monkeypatch, edit, method):
    texts = compiled_sources(monkeypatch)
    compiled._code.cache_clear()
    tank_run(edit, method, cycles=20)
    first = len(texts)
    assert first > 0
    tank_run(edit, method, cycles=20)
    assert len(texts) == first


# ---------------------------------------------------------------------------
# One execution path: the emitted code never calls an interpreter

@pytest.mark.parametrize("edit, method", RUNS)
def test_tank_runs_never_fall_back(monkeypatch, edit, method):
    texts = compiled_sources(monkeypatch)
    compiled._code.cache_clear()
    model, records = tank_run(edit, method, cycles=20)
    assert check_safety(records, model.safety) == []
    io_spec = classify_io(model.ctrl, model.inputs, model.plant)
    trace = io.StringIO()
    write_trace(trace, records, io_spec)
    trace.seek(0)
    _, rows = read_trace(trace)
    assert check_compliance(model.ctrl, rows, io_spec).instances == ()
    # A body with a free variable unbound raises from its own read of it.
    body = parse_st_statements("IF a > 0 THEN y := z; END_IF;")
    assert st_outcomes(body, state(a=1, y=0)) == ((UnboundVariable, "unbound variable z"),) * 2
    assert texts
    for text in texts:
        assert not any(name in text for name in ("eval_term", "eval_formula", "run_st(")), text


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_emitted_st_bodies_at_each_depth(depth):
    kinds = Counter()
    for seed in range(300):
        body = gen_st(GenConfig(max_depth=depth, seed=seed))
        for s in states(seed):  # a partial state raises at its first unbound read
            reference, emitted = st_outcomes(body, s)
            assert emitted == reference, (seed, body, s)
            kinds[kind(reference)] += 1
    assert {"value", "UnboundVariable"} <= set(kinds), kinds


def test_long_elsif_chain_and_deep_nesting_run_in_process():
    # The chain is written flat and each nested IF is a function of its own,
    # so neither meets CPython's limit of 100 indentation levels.
    arms = "".join(f"ELSIF u < {k} THEN y := {k};\n" for k in range(1, 2000))
    chain = parse_st_statements(f"IF u < 0 THEN y := 0;\n{arms}ELSE y := u; END_IF;\n")
    deepest = MAX_DEPTH - 2  # each IF is a level, and its guard two more
    nested = parse_st_statements("IF u > 0 THEN\n" * deepest + "y := 1;\n" + "END_IF;\n" * deepest)
    for body in (chain, nested):
        for u in (-1, 0.5, 1234.5, 5000):
            reference, emitted = st_outcomes(body, state(u=u, y=-2))
            assert emitted == reference and not isinstance(reference, tuple)
    too_deep = "IF u > 0 THEN\n" * (deepest + 1) + "y := 1;\n" + "END_IF;\n" * (deepest + 1)
    with pytest.raises(PlchpError, match="expression nested too deeply"):
        compile_st(parse_st_statements(too_deep), Layout())
