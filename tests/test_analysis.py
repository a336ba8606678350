"""Static semantics, I/O classification, normal-form validation, epsilon."""

import dataclasses
import gc
import math
import signal
import time

import pytest

import golden
from plchp import (
    Assign, Ident, Number, Seq, Var,
    classify_io, parse_dl_formula, parse_dl_model, validate_scan_cycle_form,
    var_sets,
)
from plchp.analysis import extract_epsilon
from plchp.dl_syntax import DlSafetyFormula, parse_dl_program
from plchp.errors import ConflictingEpsilon, NotNormalForm
from plchp.ir import TRUE, Loop, ScanCycleModel, program_facts
from plchp.semantics import GenConfig, gen_hp
from plchp.st_syntax import parse_st, parse_st_statements
from plchp.translate import task_st_to_hp


def ident(n):
    return Ident(n)


def classify(ctrl, inputs=(), plant=golden.PLANT):
    """`classify_io` of a raw controller, in a model around it."""
    return classify_io(ScanCycleModel(TRUE, inputs, ctrl, plant, 1.0, TRUE))


def test_var_sets_assignment():
    vs = var_sets(Assign(ident("x"), Number("1")))
    assert vs.free == frozenset()
    assert vs.bound == vs.must_bound == frozenset({ident("x")})


def test_var_sets_sequence_must_bound():
    prog = Seq(
        Assign(ident("x"), Var(ident("y"))),
        Assign(ident("z"), Var(ident("x"))),
    )
    vs = var_sets(prog)
    assert vs.free == frozenset({ident("y")})
    assert vs.bound == vs.must_bound == frozenset({ident("x"), ident("z")})


def test_var_sets_original_ctrl():
    vs = var_sets(golden.ORIGINAL_CTRL)
    assert vs.bound == frozenset({ident("V1"), ident("V2"), ident("P")})
    assert vs.must_bound == frozenset()  # every write sits under a guard


def test_must_bound_subset_of_bound_on_generated_programs():
    for seed in range(300):
        prog = gen_hp(GenConfig(max_depth=5, seed=seed))
        vs = var_sets(prog)
        assert vs.must_bound <= vs.bound


def test_classify_io_watertank():
    io = classify(golden.ORIGINAL_CTRL, golden.MODEL_INPUTS)
    assert set(io.inputs) >= {ident("f1"), ident("f2"), ident("x1"), ident("x2")}
    assert io.outputs == (ident("V1"), ident("P"), ident("V2"))
    assert set(io.params) == {
        ident("H1"), ident("L1"), ident("L2"), ident("LL"), ident("FL"), ident("H2")
    }
    assert not io.warnings


def test_classify_io_param_only():
    io = classify(Assign(ident("a"), Var(ident("b"))))
    assert io.inputs == ()
    assert io.outputs == (ident("a"),)
    assert io.params == (ident("b"),)


def test_classify_io_trivial():
    io = classify(Assign(ident("a"), Number("1")))
    assert io.inputs == () and io.params == ()
    assert io.outputs == (ident("a"),)


def test_validate_watertank_model():
    model = validate_scan_cycle_form(parse_dl_model((golden.DATA / "watertank_original_model.dlhp").read_text()))
    assert model.plant.domain == golden.PLANT.domain  # t<=eps removed
    assert model.inputs == (ident("f1"), ident("f2"))
    assert model.epsilon == ident("eps")


def test_a_model_keeps_the_facts_of_its_controller():
    model = validate_scan_cycle_form(parse_dl_model((golden.DATA / "watertank_original_model.dlhp").read_text()))
    assert model.facts == program_facts(model.ctrl) and "facts" not in repr(model)
    # Derived, not given: `replace` derives them again, and `==` does not read them.
    other = dataclasses.replace(model, ctrl=Assign(ident("a"), Number("1")))
    assert other.facts.assigned == (ident("a"),) and other.facts.zero_one == {ident("a")}
    assert dataclasses.replace(other, ctrl=model.ctrl) == model
    # A controller outside the translatable fragment has none.
    with pytest.raises(TypeError, match="translatable fragment, not Loop"):
        dataclasses.replace(model, ctrl=Loop(Assign(ident("a"), Number("1"))))


def _model_with_body(body_text: str) -> DlSafetyFormula:
    return DlSafetyFormula(TRUE, parse_dl_program(body_text), TRUE)


def test_validate_rejects_ode_outside_plant():
    bad = _model_with_body("{x'=1, t'=1 & t<=eps} y:=1; t:=0; {x'=1, t'=1 & t<=eps}")
    with pytest.raises(NotNormalForm, match="ODE outside plant"):
        validate_scan_cycle_form(bad)


def test_validate_rejects_missing_clock_reset():
    bad = _model_with_body("f1:=*; y:=1; {x'=1, t'=1 & t<=eps}")
    with pytest.raises(NotNormalForm, match="clock reset"):
        validate_scan_cycle_form(bad)


def test_validate_rejects_missing_clock_ode():
    bad = _model_with_body("y:=1; t:=0; {x'=1 & t<=eps}")
    with pytest.raises(NotNormalForm, match="clock ODE"):
        validate_scan_cycle_form(bad)


def test_validate_rejects_missing_bound():
    bad = _model_with_body("y:=1; t:=0; {x'=1, t'=1 & x>=0}")
    with pytest.raises(NotNormalForm, match="clock bound"):
        validate_scan_cycle_form(bad)


def test_validate_rejects_bare_test():
    bad = _model_with_body("?x>=1; y:=1; t:=0; {x'=1, t'=1 & t<=eps}")
    with pytest.raises(NotNormalForm, match="test outside guarded choice"):
        validate_scan_cycle_form(bad)


def test_validate_rejects_unguarded_choice():
    bad = _model_with_body("{y:=1;} ++ {y:=2;} t:=0; {x'=1, t'=1 & t<=eps}")
    with pytest.raises(NotNormalForm, match="choice without a guarded first branch"):
        validate_scan_cycle_form(bad)


def test_validate_rejects_clock_in_ctrl():
    bad = _model_with_body("t:=1; t:=0; {x'=1, t'=1 & t<=eps}")
    with pytest.raises(NotNormalForm):
        validate_scan_cycle_form(bad)


def test_validate_rejects_missing_plant():
    bad = _model_with_body("y:=1;")
    with pytest.raises(NotNormalForm, match="plant ODE"):
        validate_scan_cycle_form(bad)


def test_validate_rejects_duplicate_input():
    lines = (golden.DATA / "watertank_safe_model.dlhp").read_text().splitlines()
    lines.insert(5, "  f1:=*;")  # after f1:=*; f2:=*;
    with pytest.raises(NotNormalForm) as info:
        validate_scan_cycle_form(parse_dl_model("\n".join(lines)))
    assert str(info.value) == "6:3: duplicate input f1"
    assert info.value.location == (6, 3)


def test_validate_accepts_reassociated_bound():
    # bound written with flipped operands and nested conjunction
    body = "y:=1; t:=0; {x'=1, t'=1 & (x>=0 & eps>=t) & x<=10}"
    model = validate_scan_cycle_form(_model_with_body(body))
    assert model.epsilon == ident("eps")
    assert model.plant.domain == parse_dl_formula("x>=0 & x<=10")


def test_extract_epsilon():
    assert extract_epsilon(parse_dl_formula("x>=0 & eps=1")) == 1.0
    assert extract_epsilon(parse_dl_formula("2=eps & x>=0")) == 2.0
    assert extract_epsilon(parse_dl_formula("eps>=0 & FL>0")) is None
    assert extract_epsilon(parse_dl_formula("eps=1 & eps=1.0")) == 1.0
    with pytest.raises(ConflictingEpsilon):
        extract_epsilon(parse_dl_formula("eps=1 & eps=2"))


def test_extract_epsilon_custom_name():
    f = parse_dl_formula("cycle=0.5 & x>=0")
    assert extract_epsilon(f, ident("cycle")) == 0.5
    assert extract_epsilon(f) is None


# ---------------------------------------------------------------------------
# Cost growth: the analysis of a controller is linear in its size, so eight
# times the statements take about eight times as long. Work that grows with
# statements times variables takes 64 times as long and more.

SCALE_LIMIT = 24


class _TooSlow(Exception):
    pass


def _seconds(run, limit: float) -> float:
    """Wall time of `run()` with the garbage collector off, as timeit takes
    it; inf once the run passes `limit` seconds, where a timer cuts it short."""
    def cut(signum, frame):
        if running:
            raise _TooSlow

    running = True
    old = signal.signal(signal.SIGALRM, cut)
    gc.collect()
    gc.disable()
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        run()
        elapsed, running = time.perf_counter() - start, False
    except _TooSlow:
        elapsed = math.inf
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        gc.enable()
    return elapsed


def _growth(small, large) -> float:
    """Best of three times of `large` over best of three of `small`; a
    large run is cut short once it passes SCALE_LIMIT times the small one."""
    t_small = min(_seconds(small, 60.0) for _ in range(3))
    t_large = min(_seconds(large, SCALE_LIMIT * t_small) for _ in range(3))
    return t_large / t_small


def _distinct_model(n: int) -> DlSafetyFormula:
    """`v<i> := u<i> + 1` for i < n, with n inputs and n outputs, as st2hp builds it."""
    inputs = ", ".join(f"u{i}" for i in range(n))
    outputs = ", ".join(f"v{i}" for i in range(n))
    body = "\n".join(f"v{i} := u{i} + 1;" for i in range(n))
    unit = parse_st(f"PROGRAM p VAR_INPUT {inputs} : REAL; END_VAR "
                    f"VAR_OUTPUT {outputs} : REAL; END_VAR\n{body}\nEND_PROGRAM")
    return task_st_to_hp(unit, golden.PLANT, golden.ASSUMPTIONS, golden.SAFETY)


def _elsif_chain(arms: int):
    return parse_st_statements("\n".join(
        f"{'ELSIF' if i else 'IF'} c{i} > 0 THEN y{i} := x{i};" for i in range(arms)) + " END_IF;")


def test_model_analysis_is_linear_in_the_controller():
    def analysis(f):
        def run():
            m = validate_scan_cycle_form(f)
            var_sets(m.ctrl)
            classify_io(m)
        return run

    small, large = _distinct_model(1000), _distinct_model(8000)
    growth = _growth(analysis(small), analysis(large))
    assert growth <= SCALE_LIMIT
    io = classify(validate_scan_cycle_form(large).ctrl)
    assert len(io.outputs) == len(io.params) == 8000


def test_elsif_chain_analysis_is_linear_in_its_arms():
    def analysis(p):
        return lambda: (var_sets(p), classify(p))

    small, large = _elsif_chain(500), _elsif_chain(4000)
    growth = _growth(analysis(small), analysis(large))
    assert growth <= SCALE_LIMIT
    assert len(var_sets(large).bound) == 4000
