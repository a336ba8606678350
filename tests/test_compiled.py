"""The compiled closures against the reference interpreters.

Each case runs a tree through the interpreter (`eval_term`, `eval_formula`,
`run_st`) and through its compiled closure, and requires the same outcome:
bit-equal values (`float.hex`, bit-pattern `State` equality), or the same
`EvalError` subclass with the same message. Random cases come from the
difftest generators at depth 5, on full states and on states with
variables left unbound.
"""

import random
from collections import Counter

import pytest

from plchp import State, eval_formula, eval_term, parse_dl_formula, parse_st_statements, run_st
from plchp.compiled import Layout, compile_formula, compile_st, compile_term
from plchp.errors import DivisionByZero, DomainError, EvalError, UnboundVariable
from plchp.ir import HP, ST, GuardedChoice, Ident, IfThen
from plchp.semantics import GenConfig, gen_formula, gen_st, gen_state, gen_term
from plchp.st_syntax import parse_st_expression

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
