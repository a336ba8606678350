"""ST frontend: lexing, parsing, desugaring, printing, round-trips."""

import random

import pytest

import golden
from plchp import (
    Assign, BinOp, BoolConst, Cmp, Ident, IfThen, Not, Number,
    Or, Seq, State, Var,
    parse_st, parse_st_expression, parse_st_statements, print_st,
    print_st_statement, run_st,
)
from plchp.errors import ParseError
from plchp.ir import ADD, GE, LE, POW
from plchp.semantics import GenConfig, gen_st
from plchp.st_syntax import format_interval, print_st_formula


def test_parse_watertank_unit():
    unit = parse_st((golden.DATA / "watertank_original.st").read_text())
    assert unit.program_name == Ident("prog0")
    assert unit.declared("input") == (Ident("x1"), Ident("x2"), Ident("f1"), Ident("f2"))
    assert unit.declared("output") == (Ident("V1"), Ident("V2"), Ident("P"))
    assert unit.body == golden.ORIGINAL_BODY
    assert unit.config is not None
    assert unit.config.interval == 1.0
    assert unit.config.priority == 0
    assert unit.config.task_name == Ident("Main")


def test_assignment():
    assert parse_st_statements("V1 := 0;") == Assign(Ident("V1"), Number("0"))


def test_nested_if_then():
    body = parse_st_statements(
        "IF a > 0 THEN IF b > 0 THEN x:=1; END_IF; END_IF;"
    )
    a = Cmp("gt", Var(Ident("a")), Number("0"))
    b = Cmp("gt", Var(Ident("b")), Number("0"))
    assert body == IfThen(a, IfThen(b, Assign(Ident("x"), Number("1"))))


def test_elsif_desugars_to_nested_conditionals():
    body = parse_st_statements(
        "IF a > 1 THEN x:=1; ELSIF a > 0 THEN x:=2; ELSE x:=3; END_IF;"
    )
    assert body == IfThen(
        Cmp("gt", Var(Ident("a")), Number("1")),
        Assign(Ident("x"), Number("1")),
        IfThen(
            Cmp("gt", Var(Ident("a")), Number("0")),
            Assign(Ident("x"), Number("2")),
            Assign(Ident("x"), Number("3")),
        ),
    )
    # without ELSE, the tail is an if-then
    body = parse_st_statements("IF a > 1 THEN x:=1; ELSIF a > 0 THEN x:=2; END_IF;")
    assert isinstance(body.else_, IfThen) and body.else_.else_ is None


def test_empty_else_normalizes_to_if_then():
    body = parse_st_statements("IF a > 0 THEN x:=1; ELSE END_IF;")
    assert body == IfThen(Cmp("gt", Var(Ident("a")), Number("0")), Assign(Ident("x"), Number("1")))


def test_statement_lists_fold_right():
    body = parse_st_statements("x:=1; y:=2; z:=3;")
    assert body == Seq(
        Assign(Ident("x"), Number("1")),
        Seq(Assign(Ident("y"), Number("2")), Assign(Ident("z"), Number("3"))),
    )


def test_expression_precedence():
    expr = parse_st_expression("x1 <= LL OR f2 <= FL OR x2 >= H2")
    assert expr == Or(
        Or(
            Cmp(LE, Var(Ident("x1")), Var(Ident("LL"))),
            Cmp(LE, Var(Ident("f2")), Var(Ident("FL"))),
        ),
        Cmp(GE, Var(Ident("x2")), Var(Ident("H2"))),
    )
    expr = parse_st_expression("a ** 2 + 1")
    assert expr == BinOp(ADD, BinOp(POW, Var(Ident("a")), Number("2")), Number("1"))
    assert parse_st_expression("NOT (TRUE)") == Not(BoolConst(True))


def test_comparisons_non_associative():
    with pytest.raises(ParseError):
        parse_st_expression("a < b < c")


def test_unsupported_constructs_are_named():
    with pytest.raises(ParseError, match="WHILE"):
        parse_st_statements("WHILE x > 0 DO x := x - 1; END_WHILE;")
    with pytest.raises(ParseError, match="CASE"):
        parse_st_statements("CASE x OF 1: y:=1; END_CASE;")
    with pytest.raises(ParseError, match="function call"):
        parse_st_statements("x := f(1);")
    with pytest.raises(ParseError, match="unsupported type"):
        parse_st("PROGRAM p VAR_INPUT x : INT; END_VAR x:=1; END_PROGRAM")


def test_errors_carry_positions():
    try:
        parse_st_statements("x :=\n  ;")
    except ParseError as exc:
        assert exc.line == 2
        assert exc.col == 3
    else:
        pytest.fail("expected a parse error")


def test_comments_are_discarded():
    body = parse_st_statements("(* setup *) x := 1; // trailing\ny := 2;")
    assert body == Seq(Assign(Ident("x"), Number("1")), Assign(Ident("y"), Number("2")))


def test_duplicate_declarations_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_st("PROGRAM p VAR_INPUT x : REAL; END_VAR VAR x : REAL; END_VAR x:=1; END_PROGRAM")


def test_keywords_case_insensitive():
    body = parse_st_statements("if a > 0 then x:=1; end_if;")
    assert isinstance(body, IfThen)


def test_duration_literals():
    unit = parse_st(
        "PROGRAM p x:=1; END_PROGRAM\n"
        "CONFIGURATION c RESOURCE r ON PLC TASK m(INTERVAL:=T#500 ms, PRIORITY:=1);\n"
        "PROGRAM i WITH m : p; END_RESOURCE END_CONFIGURATION"
    )
    assert unit.config.interval == 0.5
    assert unit.config.priority == 1
    assert format_interval(0.5) == "T#500 ms"
    assert format_interval(1.0) == "T#1 s"


def test_print_parse_round_trip_watertank():
    unit = parse_st((golden.DATA / "watertank_original.st").read_text())
    assert parse_st(print_st(unit)) == unit


def test_print_assignment():
    text = print_st_statement(Assign(Ident("V1"), Number("0")))
    assert text.strip() == "V1 := 0;"


def test_round_trip_generated_statements():
    for seed in range(300):
        cfg = GenConfig(max_depth=4, seed=seed)
        stmt = gen_st(cfg)
        printed = print_st_statement(stmt)
        assert parse_st_statements(printed) == stmt, printed


def test_round_trip_generated_expressions():
    from plchp.semantics import gen_formula, gen_term
    from plchp.st_syntax import print_st_term

    for seed in range(300):
        cfg = GenConfig(max_depth=4, seed=seed)
        term = gen_term(cfg)
        assert parse_st_expression(print_st_term(term)) == term
        formula = gen_formula(cfg, "st")
        assert parse_st_expression(print_st_formula(formula)) == formula


def _random_elsif_chain(rng):
    """Source text of a random ELSIF chain plus its direct evaluation oracle."""
    n_arms = rng.randint(1, 4)
    arms = []
    for _ in range(n_arms):
        var_name = rng.choice("abcd")
        lit = rng.choice(["0", "1", "2"])
        target = rng.choice("xyz")
        value = str(rng.randint(0, 9))
        arms.append((var_name, lit, target, value))
    has_else = rng.random() < 0.5
    else_assign = ("x", str(rng.randint(10, 19))) if has_else else None

    lines = []
    for i, (v, lit, tgt, val) in enumerate(arms):
        kw = "IF" if i == 0 else "ELSIF"
        lines.append(f"{kw} {v} > {lit} THEN {tgt} := {val};")
    if else_assign:
        lines.append(f"ELSE {else_assign[0]} := {else_assign[1]};")
    lines.append("END_IF;")
    text = "\n".join(lines)

    def oracle(state: State) -> State:
        for v, lit, tgt, val in arms:
            if state.get(Ident(v)) > float(lit):
                return state.set(Ident(tgt), float(val))
        if else_assign:
            return state.set(Ident(else_assign[0]), float(else_assign[1]))
        return state

    return text, oracle


def test_elsif_desugaring_matches_direct_oracle():
    rng = random.Random(1234)
    names = [Ident(c) for c in "abcdxyz"]
    for _ in range(1000):
        text, oracle = _random_elsif_chain(rng)
        stmt = parse_st_statements(text)
        state = State({n: float(rng.randint(0, 3)) for n in names})
        assert run_st(stmt, state) == oracle(state), text
