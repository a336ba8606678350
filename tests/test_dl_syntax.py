"""dL frontend: parsing, complement detection, printing, round-trips."""

import pytest

import golden
from plchp import (
    Assign, Choice, Cmp, GuardedChoice, Ident, Imply, Loop, Not, Number,
    OdeSystem, RandomAssign, TestStmt, Var,
    detect_complement, parse_dl, parse_dl_formula, parse_dl_model,
    parse_dl_program, parse_dl_term, print_dl,
    validate_scan_cycle_form,
)
from plchp.dl_syntax import DlSafetyFormula, print_dl_model
from plchp.errors import ParseError
from plchp.ir import GE, seq_to_list
from plchp.semantics import GenConfig, gen_formula, gen_hp, gen_term


def test_parse_assignment():
    assert parse_dl_program("x := 0;") == Assign(Ident("x"), Number("0"))


def test_parse_guarded_choice_complemented():
    prog = parse_dl_program("{?x>=1; y:=1; ++ ?!(x>=1); y:=0;}")
    assert prog == GuardedChoice(
        Cmp(GE, Var(Ident("x")), Number("1")),
        Assign(Ident("y"), Number("1")),
        Assign(Ident("y"), Number("0")),
        complemented=True,
    )
    # the two-group surface form parses identically
    assert parse_dl_program("{?x>=1; y:=1;} ++ {?!(x>=1); y:=0;}") == prog


def test_parse_if_then_form():
    prog = parse_dl_program("{?x>=1; y:=1;} ++ {?!(x>=1);}")
    assert prog == GuardedChoice(
        Cmp(GE, Var(Ident("x")), Number("1")),
        Assign(Ident("y"), Number("1")),
        None,
        complemented=True,
    )


def test_parse_default_beta():
    prog = parse_dl_program("{?x>=1; y:=1;} ++ {y:=0;}")
    assert prog == GuardedChoice(
        Cmp(GE, Var(Ident("x")), Number("1")),
        Assign(Ident("y"), Number("1")),
        Assign(Ident("y"), Number("0")),
        complemented=False,
    )


def test_non_complementary_tests_become_default_beta():
    # Semantically complementary, but not syntactically negated.
    prog = parse_dl_program("{?x>=1; y:=1;} ++ {?x<1; y:=0;}")
    assert isinstance(prog, GuardedChoice)
    assert not prog.complemented
    assert isinstance(seq_to_list(prog.else_)[0], TestStmt)


def test_unguarded_choice_is_raw():
    prog = parse_dl_program("{x:=1;} ++ {y:=2;}")
    assert isinstance(prog, Choice)


def test_detect_complement():
    x_ge_1 = Cmp(GE, Var(Ident("x")), Number("1"))
    assert detect_complement(x_ge_1, Not(x_ge_1))
    assert detect_complement(Not(x_ge_1), x_ge_1)  # symmetric
    assert not detect_complement(x_ge_1, Cmp("lt", Var(Ident("x")), Number("1")))
    assert detect_complement(Not(Not(x_ge_1)), Not(x_ge_1))  # double negation


def test_parse_random_assign_and_ode():
    prog = parse_dl_program("f1:=*; t:=0; {x1'=f1, t'=1 & t<=eps}")
    stmts = seq_to_list(prog)
    assert stmts[0] == RandomAssign(Ident("f1"))
    assert stmts[1] == Assign(Ident("t"), Number("0"))
    assert isinstance(stmts[2], OdeSystem)
    assert stmts[2].odes[0] == (Ident("x1"), Var(Ident("f1")))


def test_parse_loop_is_raw():
    prog = parse_dl_program("{x:=1;}*")
    assert prog == Loop(Assign(Ident("x"), Number("1")))


def test_formula_precedence():
    f = parse_dl_formula("a>=1 -> b>=1 -> c>=1")
    assert isinstance(f, Imply)
    assert isinstance(f.right, Imply)  # right-associative
    g = parse_dl_formula("!x>=1 | y<1 & z=0")
    # ! binds tighter than & and |; & tighter than |
    assert g == parse_dl_formula("(!(x>=1)) | ((y<1) & (z=0))")


def test_parse_original_model():
    model_raw = parse_dl_model((golden.DATA / "watertank_original_model.dlhp").read_text())
    assert model_raw.assumptions == golden.ASSUMPTIONS
    assert model_raw.safety == golden.SAFETY
    model = validate_scan_cycle_form(model_raw)
    assert model.inputs == golden.MODEL_INPUTS
    assert model.ctrl == golden.ORIGINAL_CTRL
    assert model.plant == golden.PLANT
    assert model.epsilon == Ident("eps")


def test_parse_safe_model():
    model = validate_scan_cycle_form(parse_dl_model((golden.DATA / "watertank_safe_model.dlhp").read_text()))
    assert model.ctrl == golden.SAFE_CTRL


def test_plant_printing_matches_canonical_form():
    text = print_dl(golden.PLANT)
    assert text == (
        "t:=0;\n"
        "{x1'=V1*f1-V2*P*f2, x2'=V2*P*f2, t'=1 & t<=eps & x1>=0 & x2>=0 & f1>=0 & f2>=0}"
    )


def test_print_parse_identity_golden_files():
    for name in ("watertank_original_model.dlhp", "watertank_safe_model.dlhp"):
        raw = parse_dl_model((golden.DATA / name).read_text())
        assert parse_dl_model(print_dl_model(raw)) == raw
    for name in ("watertank_assumptions.dlhp", "watertank_safety.dlhp"):
        f = parse_dl_formula((golden.DATA / name).read_text())
        assert parse_dl_formula(print_dl(f)) == f
    plant_prog = parse_dl_program((golden.DATA / "watertank_plant.dlhp").read_text())
    assert parse_dl_program(print_dl(plant_prog)) == plant_prog


def test_print_parse_fixpoint_after_one_pass():
    source = (golden.DATA / "watertank_original_model.dlhp").read_text()
    once = print_dl_model(parse_dl_model(source))
    assert print_dl_model(parse_dl_model(once)) == once


def test_round_trip_generated_values():
    from plchp.dl_syntax import print_dl_formula, print_dl_program, print_dl_term

    for seed in range(300):
        cfg = GenConfig(max_depth=4, seed=seed)
        term = gen_term(cfg)
        assert parse_dl_term(print_dl_term(term)) == term
        formula = gen_formula(cfg, "hp")
        assert parse_dl_formula(print_dl_formula(formula)) == formula
        prog = gen_hp(cfg)
        assert parse_dl_program(print_dl_program(prog)) == prog


def test_parse_dl_sniffs_category():
    assert isinstance(parse_dl("x + 1"), type(parse_dl_term("x + 1")))
    assert isinstance(parse_dl("x >= 1"), Cmp)
    assert isinstance(parse_dl("x := 1;"), Assign)
    assert isinstance(parse_dl((golden.DATA / "watertank_original_model.dlhp").read_text()), DlSafetyFormula)
    # Input no category accepts reports the program parse's error.
    with pytest.raises(ParseError) as info:
        parse_dl("x > 0 -> [{x := ;}*] x > 0")
    assert str(info.value) == "1:3: found op '>' (expected ':=')"
    assert (info.value.line, info.value.col) == (1, 3)


def test_syntax_errors_have_positions():
    with pytest.raises(ParseError) as info:
        parse_dl_program("x := ;")
    assert info.value.line == 1
    assert info.value.col == 6
