"""Compilation rules: terms, formulas, programs, tasks."""

import pytest

import golden
from plchp import (
    And, Assign, Cmp, Equiv, GuardedChoice, Ident, IfThen,
    Imply, Not, Number, Or, Seq, Var, Xor,
    formula_hp_to_st, formula_st_to_hp, parse_dl_formula, parse_dl_model,
    parse_st, print_st_statement, prog_hp_to_st, prog_st_to_hp,
    task_hp_to_st, task_st_to_hp, term_hp_to_st, term_st_to_hp,
    validate_scan_cycle_form,
)
from plchp.errors import (
    DialectError, MissingEpsilon, PlantVariableClash,
)
from plchp.ir import EQ, GE, LE, NE, BinOp, GT, POW
from plchp.st_syntax import print_st_term, tokenize
from plchp.dl_syntax import print_dl_term


def cmp(rel, a, b):
    return Cmp(rel, a, b)


def test_terms_compile_identically():
    from plchp.ir import Neg

    t = BinOp(POW, Var(Ident("x")), Number("2"))
    assert term_st_to_hp(t) == t
    assert term_hp_to_st(t) == t
    assert print_dl_term(t) == "x^2"
    assert print_st_term(t) == "x**2"
    neg = Neg(Var(Ident("f2")))
    assert term_hp_to_st(neg) == neg
    assert term_st_to_hp(neg) == neg


def test_comparisons_map_one_to_one():
    st = cmp(GE, Var(Ident("x1")), Var(Ident("H1")))
    assert formula_st_to_hp(st) == st
    ne = cmp(NE, Var(Ident("a")), Number("0"))
    assert formula_hp_to_st(ne) == ne


def test_xor_rewrites():
    a = cmp(GE, Var(Ident("a")), Number("1"))
    b = cmp(LE, Var(Ident("b")), Number("2"))
    compiled = formula_st_to_hp(Xor(a, b))
    assert compiled == Or(And(Not(a), b), And(Not(b), a))
    assert compiled.dialect is None  # usable on the HP side


def test_imply_and_equiv_rewrite():
    a = cmp(GE, Var(Ident("a")), Number("1"))
    b = cmp(LE, Var(Ident("b")), Number("2"))
    assert formula_hp_to_st(Imply(a, b)) == Or(Not(a), b)
    assert formula_hp_to_st(Equiv(a, b)) == Or(And(Not(a), Not(b)), And(a, b))


def test_dialect_preconditions():
    a = cmp(GE, Var(Ident("a")), Number("1"))
    with pytest.raises(DialectError):
        formula_st_to_hp(Imply(a, a))
    with pytest.raises(DialectError):
        formula_hp_to_st(Xor(a, a))


def test_original_body_compiles_to_model_ctrl():
    unit = parse_st((golden.DATA / "watertank_original.st").read_text())
    assert prog_st_to_hp(unit.body) == golden.ORIGINAL_CTRL


def test_if_then_compiles_to_complemented_choice():
    stmt = IfThen(cmp(GT, Var(Ident("c")), Number("0")), Assign(Ident("a"), Number("1")))
    compiled = prog_st_to_hp(stmt)
    assert compiled == GuardedChoice(
        cmp(GT, Var(Ident("c")), Number("0")),
        Assign(Ident("a"), Number("1")),
        None,
        complemented=True,
    )


def test_identity_assignment():
    stmt = Assign(Ident("x"), Var(Ident("x")))
    assert prog_st_to_hp(stmt) == stmt


def test_hp_to_st_on_safe_ctrl_yields_safe_body_tokens():
    body, diags = prog_hp_to_st(golden.SAFE_CTRL)
    assert not diags.warnings
    printed = print_st_statement(body)
    want = (golden.DATA / "watertank_safe_body.st").read_text()
    got_tokens = [(t.kind, t.value) for t in tokenize(printed)]
    want_tokens = [(t.kind, t.value) for t in tokenize(want)]
    assert got_tokens == want_tokens


def test_default_beta_linearizes_with_warning():
    choice = GuardedChoice(
        cmp(GE, Var(Ident("x")), Number("1")),
        Assign(Ident("y"), Number("1")),
        Assign(Ident("y"), Number("0")),
        complemented=False,
    )
    body, diags = prog_hp_to_st(choice)
    assert body == IfThen(
        cmp(GE, Var(Ident("x")), Number("1")),
        Assign(Ident("y"), Number("1")),
        Assign(Ident("y"), Number("0")),
    )
    assert [w.code for w in diags.warnings] == ["linearized-choice"]


def test_seq_and_assign_commute_with_compilation():
    a = Assign(Ident("x"), Number("1"))
    b = Assign(Ident("y"), Number("2"))
    assert prog_st_to_hp(Seq(a, b)) == Seq(prog_st_to_hp(a), prog_st_to_hp(b))
    st, _ = prog_hp_to_st(Seq(a, b))
    assert st == Seq(a, b)


def test_task_st_to_hp_matches_model_golden():
    unit = parse_st((golden.DATA / "watertank_original.st").read_text())
    assumptions = parse_dl_formula((golden.DATA / "watertank_assumptions.dlhp").read_text())
    safety = parse_dl_formula((golden.DATA / "watertank_safety.dlhp").read_text())
    formula = task_st_to_hp(unit, golden.PLANT, assumptions, safety)
    assert formula == golden.compiled_model_golden()


def test_task_st_to_hp_adds_interval_conjunct():
    unit = parse_st((golden.DATA / "watertank_original.st").read_text())
    assumptions = parse_dl_formula((golden.DATA / "watertank_assumptions.dlhp").read_text())
    safety = parse_dl_formula((golden.DATA / "watertank_safety.dlhp").read_text())
    formula = task_st_to_hp(unit, golden.PLANT, assumptions, safety)
    assert formula.assumptions == And(
        assumptions, Cmp(EQ, Var(Ident("eps")), Number("1"))
    )
    # when the conjunct is already present it is not duplicated
    with_eps = And(assumptions, Cmp(EQ, Var(Ident("eps")), Number("2")))
    formula2 = task_st_to_hp(unit, golden.PLANT, with_eps, safety)
    assert formula2.assumptions == with_eps


def test_task_st_to_hp_plant_clash():
    unit = parse_st("PROGRAM p VAR_INPUT t : REAL; END_VAR t := 1; END_PROGRAM")
    assumptions = parse_dl_formula("eps>=0")
    with pytest.raises(PlantVariableClash):
        task_st_to_hp(unit, golden.PLANT, assumptions, assumptions)


def test_task_hp_to_st_safe_model_scaffolding():
    model = validate_scan_cycle_form(parse_dl_model((golden.DATA / "watertank_safe_model.dlhp").read_text()))
    unit, diags = task_hp_to_st(model, epsilon=1.0)
    assert unit.program_name == Ident("prog0")
    assert unit.config.interval == 1.0
    assert unit.config.config_name == Ident("Config0")
    assert unit.declared("output") == (Ident("V1"), Ident("P"), Ident("V2"))
    assert set(unit.declared("input")) == {Ident("x1"), Ident("x2"), Ident("f1"), Ident("f2")}
    assert set(unit.declared("external")) == {
        Ident("HH"), Ident("eps"), Ident("L1"), Ident("L2"), Ident("LL"), Ident("FL")
    }
    # outputs only ever assigned 0/1 are BOOL
    out_block = [b for b in unit.var_blocks if b.kind == "output"][0]
    assert all(ty == "BOOL" for _, ty in out_block.decls)


def test_task_hp_to_st_requires_concrete_epsilon():
    model = validate_scan_cycle_form(parse_dl_model((golden.DATA / "watertank_original_model.dlhp").read_text()))
    with pytest.raises(MissingEpsilon):
        task_hp_to_st(model)
    unit, _ = task_hp_to_st(model, epsilon=1.0)
    assert unit.config.interval == 1.0


def test_task_hp_to_st_reads_eps_conjunct():
    text = (
        "eps=2 & x>=0 -> [{ i:=*; y:=i; t:=0; {x'=y, t'=1 & t<=eps} }*] x>=0"
    )
    model = validate_scan_cycle_form(parse_dl_model(text))
    unit, _ = task_hp_to_st(model)
    assert unit.config.interval == 2.0


def test_task_hp_to_st_io_conflict_warns():
    # ctrl x:=x with x declared as an input: input-and-output resolves to output
    text = "eps=1 -> [{ x:=*; x:=x; t:=0; {y'=x, t'=1 & t<=eps} }*] y>=0"
    model = validate_scan_cycle_form(parse_dl_model(text))
    unit, diags = task_hp_to_st(model)
    assert unit.declared("output") == (Ident("x"),)
    assert unit.declared("input") == ()
    assert any(w.code == "io-conflict" for w in diags.warnings)


def test_round_trip_st_hp_st_on_generated_programs():
    from plchp.semantics import GenConfig, gen_st

    for seed in range(500):
        stmt = gen_st(GenConfig(max_depth=5, seed=seed))
        back, diags = prog_hp_to_st(prog_st_to_hp(stmt))
        assert back == stmt
        assert not diags.warnings


def test_round_trip_hp_st_hp_on_complemented_programs():
    from plchp.semantics import GenConfig, fully_complemented, gen_hp

    strengthened = 0
    for seed in range(500):
        prog = gen_hp(GenConfig(max_depth=5, seed=seed))
        back = prog_st_to_hp(prog_hp_to_st(prog)[0])
        if fully_complemented(prog):
            assert back == prog
        else:
            # default-beta inputs come back as the complemented strengthening
            assert back == _complement_all(prog)
            strengthened += 1
    assert strengthened > 0


def _complement_all(p):
    if isinstance(p, Seq):
        return Seq(*map(_complement_all, p.stmts))
    if isinstance(p, GuardedChoice):
        else_ = None if p.else_ is None else _complement_all(p.else_)
        return GuardedChoice(p.guard, _complement_all(p.then), else_, complemented=True)
    return p


def test_model_round_trips_through_both_task_compilers():
    model = validate_scan_cycle_form(parse_dl_model((golden.DATA / "watertank_original_model.dlhp").read_text()))
    unit, _ = task_hp_to_st(model, epsilon=1.0)
    formula = task_st_to_hp(unit, model.plant, model.assumptions, model.safety)
    back = validate_scan_cycle_form(formula)
    assert back.ctrl == model.ctrl
    assert back.inputs == model.inputs
    assert back.plant == model.plant
    assert back.safety == model.safety
    # the unit's task interval re-enters as an eps = 1 conjunct
    assert back.assumptions == And(
        model.assumptions, Cmp(EQ, Var(Ident("eps")), Number("1"))
    )
