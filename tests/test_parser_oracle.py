"""Both parsers, held to the ones they were before each parse kept a
hash-consing table (`oracle.ReferenceStParser`, `oracle.ReferenceDlParser`).

Every entry point runs once with its module's parser and once with the
reference parser in its place. The two must give `==` trees with the same
statement positions and the same printed text, or raise the same error
class with the same message and line:col. The texts: generated programs,
formulas and terms and their translations, printed in both dialects, for
1000 seeds; every data file and each of its token prefixes; the
benchmark's controllers of 900 and 1100 statements and their `st2hp`
models; every input of tests/test_syntax_errors.py; and the shapes of a dL
choice, whose grammar takes a branch's leading test off before it builds it.
"""

import functools
import importlib.util
import random
from pathlib import Path

import pytest

import golden
import oracle
from test_syntax_errors import CASES
from plchp import dl_syntax, st_syntax
from plchp.analysis import plant_fragment
from plchp.dl_syntax import (
    DlSafetyFormula, parse_dl, parse_dl_formula, parse_dl_model, parse_dl_program, parse_dl_term,
    print_dl, print_dl_model,
)
from plchp.ir import HP, ST, Program, walk
from plchp.semantics import GenConfig, gen_formula, gen_hp, gen_st, gen_term
from plchp.st_syntax import (
    StUnit, parse_st, parse_st_expression, parse_st_statements, print_st, print_st_formula,
    print_st_statement, print_st_term,
)
from plchp.translate import (
    formula_hp_to_st, formula_st_to_hp, prog_hp_to_st, prog_st_to_hp, task_st_to_hp,
)

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
REFERENCE = {st_syntax: oracle.ReferenceStParser, dl_syntax: oracle.ReferenceDlParser}
ST_PARSES = (parse_st, parse_st_statements, parse_st_expression)
DL_PARSES = (parse_dl, parse_dl_model, parse_dl_program, parse_dl_formula, parse_dl_term)


def outcome(parse, text):
    """What `parse` gives on `text`: the tree, each statement's position and
    the printed text, or the error's class, message and line:col."""
    try:
        tree = parse(text)
    except Exception as exc:  # noqa: BLE001 - any error must be the same error
        return "raised", type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return "parsed", tree, positions(tree), printed(tree)


def positions(tree) -> list:
    root = tree.body if isinstance(tree, (StUnit, DlSafetyFormula)) else tree
    return [getattr(n, "pos", None) for n in walk(root)]


def printed(tree) -> str:
    if isinstance(tree, StUnit):
        return print_st(tree)
    if isinstance(tree, DlSafetyFormula):
        return print_dl_model(tree)
    try:
        return print_dl(tree)
    except TypeError:  # an ST conditional, or an ST-dialect formula
        return print_st_statement(tree) if isinstance(tree, Program) else print_st_formula(tree)


def reference(parse, text):
    """What `parse` gives with its module's parser swapped for the reference."""
    module = st_syntax if parse.__module__ == st_syntax.__name__ else dl_syntax
    saved = module._Parser
    module._Parser = REFERENCE[module]
    try:
        return outcome(parse, text)
    finally:
        module._Parser = saved


def check(parse, text) -> str:
    """Both parsers on `text`; whether they parsed it."""
    new, old = outcome(parse, text), reference(parse, text)
    assert new == old, (parse.__name__, text[:200], new[:3], old[:3])
    return new[0]


def check_all(parses, text) -> set:
    return {check(parse, text) for parse in parses}


def texts(seed: int):
    """Generated trees of one seed, printed: (dialect, text) pairs."""
    cfg = GenConfig(max_depth=1 + seed % 5, seed=seed)
    st, hp = gen_st(cfg), gen_hp(cfg)
    f_st, f_hp, t = gen_formula(cfg, ST), gen_formula(cfg, HP), gen_term(cfg)
    yield "st", print_st_statement(st)
    yield "dl", dl_syntax.print_dl_program(prog_st_to_hp(st))
    yield "dl", dl_syntax.print_dl_program(hp)
    yield "st", print_st_statement(prog_hp_to_st(hp)[0])
    for f in (f_st, f_hp, formula_st_to_hp(f_st), formula_hp_to_st(f_hp)):
        if f.dialect != HP:
            yield "st", print_st_formula(f)
        if f.dialect != ST:
            yield "dl", dl_syntax.print_dl_formula(f)
    yield "st", print_st_term(t)
    yield "dl", dl_syntax.print_dl_term(t)


def test_generated_texts_parse_as_before():
    outcomes = set()
    for seed in range(1000):
        for dialect, text in texts(seed):
            outcomes |= check_all(ST_PARSES if dialect == "st" else DL_PARSES, text)
    assert outcomes == {"parsed", "raised"}


def _parses(path: Path):
    return ST_PARSES if path.suffix == ".st" else DL_PARSES


@pytest.mark.parametrize("path", sorted(golden.DATA.iterdir()), ids=lambda p: p.name)
def test_data_files_and_their_prefixes_parse_as_before(path):
    text = path.read_text()
    parses = _parses(path)
    assert "parsed" in check_all(parses, text)
    # Each prefix that ends after a token: most are errors, of every rule.
    lexer = st_syntax.ST if path.suffix == ".st" else dl_syntax.DL
    for end in sorted(set(lexer.lex(text)[2]))[1:]:
        check_all(parses, text[:end])


@functools.lru_cache(maxsize=None)
def controller(statements: int) -> tuple[str, str]:
    """The benchmark's seed-1 controller of that many statements, and the
    model `st2hp` writes for it with the tank's plant and formulas."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    plant = plant_fragment(parse_dl_program((golden.DATA / "watertank_plant.dlhp").read_text()))
    assumptions = parse_dl_formula((golden.DATA / "watertank_assumptions.dlhp").read_text())
    safety = parse_dl_formula((golden.DATA / "watertank_safety.dlhp").read_text())
    st = inputs.st_controller(random.Random(1), statements)[0]
    return st, print_dl_model(task_st_to_hp(parse_st(st), plant, assumptions, safety))


@pytest.mark.parametrize("statements", [900, 1100])
def test_controllers_and_their_models_parse_as_before(statements):
    st, model = controller(statements)
    assert check(parse_st, st) == "parsed"
    assert check(parse_dl_model, model) == "parsed"


@pytest.mark.parametrize("parse, text", [(parse, text) for parse, text, _ in CASES],
                         ids=[f"{i:02d}-{parse.__name__}" for i, (parse, _, _) in enumerate(CASES)])
def test_syntax_error_inputs_fail_as_before(parse, text):
    assert check(parse, text) == "raised"
    check_all(ST_PARSES if parse in ST_PARSES else DL_PARSES, text)


# Choices whose branches open with a test, a bare test, a nested group with
# a test, or none; inner choices, loops and ODE systems among them.
CHOICES = [
    "{?x>0; a:=1;} ++ {?!(x>0); b:=1;}",
    "{?x>0; a:=1;} ++ {?!(x>0);}",
    "{?x>0; a:=1;} ++ {?!!!(x>0); b:=1;}",
    "{?!(x>0); a:=1;} ++ {?x>0; b:=1;}",
    "{?x>0; a:=1;} ++ {?y>0; b:=1;}",
    "{?x>0; a:=1;} ++ {b:=1;}",
    "{?x>0;} ++ {?!(x>0); b:=1;}",
    "{?x>0;} ++ {b:=1;}",
    "{a:=1;} ++ {?x>0; b:=1;}",
    "{a:=1;} ++ {b:=1;} ++ {c:=1;}",
    "{?x>0; a:=1;} ++ {?!(x>0); b:=1;} ++ {c:=1;}",
    "{?x>0; a:=1; ++ ?!(x>0); b:=1;}",
    "{?x>0; a:=1; ++ b:=1; ++ ?y>0;}",
    "{{?x>0; a:=1;} b:=2;} ++ {?!(x>0); c:=1;}",
    "{{?x>0;} b:=2;} ++ {?!(x>0);}",
    "{{?x>0;}} ++ {?!(x>0);}",
    "{{{?x>0; a:=1;} b:=1;} c:=1;} ++ {?!(x>0); d:=1;}",
    "{?x>0; a:=1;} ++ {{?!(x>0); b:=1;} c:=1;}",
    "{{?x>0; a:=1;} ++ {?!(x>0);}} ++ {b:=1;}",
    "{?x>0; {?y>0; a:=1;} ++ {?!(y>0);}} ++ {?!(x>0);}",
    "{?x>0; a:=1;}*",
    "{?x>0;}*",
    "{?x>0; a:=1; ++ b:=1;}*",
    "{x'=1} ++ {?x>0; a:=1;}",
    "{?x>0; a:=1;} ++ {x'=1 & x<=1}",
    "{?x>0; a:=1;}; {?!(x>0);}; b:=1;",
    "{} ++ {a:=1;}",
    "{?x>0; a:=1;} ++ {}",
    "{?x>0; a:=1;} ++ {?!(x>0)",
    "{?x>0 a:=1;} ++ {b:=1;}",
    "{?x>0; a:=1;} ++ b:=1;",
    "{?x; a:=1;} ++ {b:=1;}",
]


@pytest.mark.parametrize("text", CHOICES)
def test_choice_shapes_parse_as_before(text):
    check_all(DL_PARSES, text)
    check_all(DL_PARSES, f"x>0 -> [{{ {text} t:=0; {{t'=1 & t<=1}} }}*] x>0")


# A leaf the table knows, then a parenthesis: a call in ST, an error in both.
# Shared subtrees across operators and levels, and errors after them.
EXPRESSIONS = [
    "y := x + 1; z := x(1);",
    "y := x + 1; z := 1 + x (1);",
    "y := 1; z := 1(1);",
    "y := x; z := TRUE(1);",
    "IF x > 1 AND NOT (x > 1) THEN y := -x; z := -x - -x; END_IF;",
    "IF x > 1 THEN y := x; ELSIF x > 1 XOR x > 1 THEN y := x ** 2 ** x; END_IF;",
    "y := (x + 1) * (x + 1); z := x + 1 > x + 1;",
    "y := x + 1; z := (x + 1 > 2) + 1;",
    "y := x + 1; z := x + 1 < x + 1 < 2;",
    "y := 1e400 + 1; z := 1e400;",
    "y := x; z := x + (x;",
    "x > 1 & !(x > 1) | x > 1 -> (x > 1 <-> !(x > 1))",
    "x + 1 > 0 & (x + 1 > 0) + 1 > 0",
    "x > 0 & x > 0 & x + (x > 0)",
    "-x > 0 & -(-x) > 0 & --x > 0 & x^x^x > x^(x^x)",
    "x(1) > 0",
    "x > 0 & x(1) > 0",
    "true & true & !(true) & (true) > 1",
]


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_expressions_parse_as_before(text):
    check_all(ST_PARSES, text)
    check_all(DL_PARSES, text)
