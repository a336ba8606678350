"""The translators and the facts fold: one fold per tree, held to the code
they replaced.

`prog_st_to_hp`, `prog_hp_to_st`, `formula_st_to_hp`, `formula_hp_to_st`
and `ir.program_facts` each fold their tree once, guards and right-hand
sides included. They must agree with the copies in tests/oracle.py, which
fold every guard, or walk every right-hand side, again inside their own
fold: equal trees, equal printed text and equal warnings, or the same error
class, message and position. The inputs: generated programs, formulas and
terms, the same programs with out-of-fragment statements planted in them,
the tank files and the 900-statement controller of the benchmark. The fold
and walk counts are pinned by monkeypatching, and every translated
statement keeps its source statement's position.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import golden
import oracle
from plchp import ir, translate
from plchp.analysis import validate_scan_cycle_form
from plchp.dl_syntax import parse_dl_model, parse_dl_program, print_dl_formula, print_dl_program
from plchp.ir import (
    GT, HP, HP_STATEMENTS, ST, ST_STATEMENTS, TRUE, Assign, Choice, Cmp, GuardedChoice, Ident,
    IfThen, Loop, Number, Seq, TestStmt, Var, program_facts, walk,
)
from plchp.semantics import GenConfig, gen_formula, gen_hp, gen_st, gen_term
from plchp.st_syntax import parse_st, print_st_formula, print_st_statement
from plchp.translate import formula_hp_to_st, formula_st_to_hp, prog_hp_to_st, prog_st_to_hp

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
SEEDS = range(1000)

# Each pass: (the one-fold version, the reference, the printer of its tree).
PASSES = {
    "prog_st_to_hp": (prog_st_to_hp, oracle.prog_st_to_hp, print_dl_program),
    "prog_hp_to_st": (prog_hp_to_st, oracle.prog_hp_to_st, print_st_statement),
    "formula_st_to_hp": (formula_st_to_hp, oracle.formula_st_to_hp, print_dl_formula),
    "formula_hp_to_st": (formula_hp_to_st, oracle.formula_hp_to_st, print_st_formula),
    # Facts are not printed: their variables, in first-seen order.
    "program_facts": (program_facts, oracle.program_facts, lambda f: f.read + f.assigned),
}
PROGRAM_PASSES = ("prog_st_to_hp", "prog_hp_to_st", "program_facts")


def config(seed: int) -> GenConfig:
    return GenConfig(max_depth=1 + seed % 5, seed=seed)


def outcome(fn, show, arg):
    """The tree, its printed text and the warnings `fn(arg)` gives, or the
    class, message and position of what it raises."""
    try:
        result = fn(arg)
    except Exception as exc:  # the reference decides which errors are expected
        return "raised", type(exc), str(exc), getattr(exc, "location", None)
    tree, diagnostics = result if result.__class__ is tuple else (result, None)
    return "ok", tree, show(tree), diagnostics


def agree(name, arg) -> str:
    """Whether pass `name` returned or raised on `arg`, after checking that
    it did what its reference does."""
    new, reference, show = PASSES[name]
    got = outcome(new, show, arg)
    assert got == outcome(reference, show, arg), (name, arg)
    return got[0]


def bad_statement(language, rng, pos):
    """A statement that `language`'s translator refuses."""
    x = Ident(rng.choice("abc"))
    inner = Assign(x, Number("1"), pos=(pos[0], pos[1] + 1))
    test = Cmp(GT, Var(x), Number("0"))
    if language == "st":
        return rng.choice((GuardedChoice(test, inner, None, True, pos=pos), Loop(inner, pos=pos)))
    return rng.choice((IfThen(test, inner, pos=pos), TestStmt(test, pos=pos),
                       Choice(inner, TestStmt(TRUE, pos=(pos[0], pos[1] + 2)), pos=pos)))


def plant(p, language, rng):
    """`p` with some of its assignments replaced by `bad_statement`s."""
    cls = p.__class__
    if cls is Assign:
        if rng.random() >= 0.3:
            return p
        return bad_statement(language, rng, (rng.randrange(1, 99), rng.randrange(1, 99)))
    if cls is Seq:
        return Seq(*(plant(s, language, rng) for s in p.stmts))
    else_ = None if p.else_ is None else plant(p.else_, language, rng)
    if cls is IfThen:
        return IfThen(p.cond, plant(p.then, language, rng), else_, pos=p.pos)
    return GuardedChoice(p.guard, plant(p.then, language, rng), else_,
                         p.complemented or else_ is None, pos=p.pos)


@pytest.fixture(scope="module")
def tank_and_controller():
    """The tank's ST body and the controllers of its two models, the
    900-statement controller's ST body, and the HP translation of that."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    models = [validate_scan_cycle_form(parse_dl_model((golden.DATA / name).read_text()))
              for name in ("watertank_original_model.dlhp", "watertank_safe_model.dlhp")]
    body = parse_st(inputs.st_controller(random.Random(1), 900)[0]).body
    st = [parse_st((golden.DATA / "watertank_original.st").read_text()).body, body]
    hp = [m.ctrl for m in models] + [prog_st_to_hp(body)]
    formulas = [f for m in models for f in (m.assumptions, m.safety)]
    return st, hp, formulas


@pytest.mark.parametrize("kind", ["st", "hp"])
def test_generated_programs_agree(kind):
    generate, forward = {"st": (gen_st, "prog_st_to_hp"), "hp": (gen_hp, "prog_hp_to_st")}[kind]
    for seed in SEEDS:
        p = generate(config(seed))
        for name in PROGRAM_PASSES:
            agree(name, p)
        assert agree(forward, p) == "ok"
        translated = PASSES[forward][0](p)
        for name in PROGRAM_PASSES:
            agree(name, translated[0] if kind == "hp" else translated)


@pytest.mark.parametrize("dialect", [ST, HP])
def test_generated_formulas_and_terms_agree(dialect):
    # Each formula and term also goes to every pass that refuses it: a
    # formula of the other dialect, and a formula or term given as a program.
    wrong = "formula_hp_to_st" if dialect == ST else "formula_st_to_hp"
    refused = 0
    for seed in SEEDS:
        cfg = config(seed)
        f, t = gen_formula(cfg, dialect), gen_term(cfg)
        for name in PASSES:
            agree(name, f)
            agree(name, t)
        refused += agree(wrong, f) == "raised"
    assert refused > len(SEEDS) // 10


def test_tank_files_and_the_900_statement_controller_agree(tank_and_controller):
    st, hp, formulas = tank_and_controller
    plant = parse_dl_program((golden.DATA / "watertank_plant.dlhp").read_text())
    for p in (*st, *hp, plant):
        for name in PROGRAM_PASSES:
            agree(name, p)
    for p in st:
        assert agree("prog_st_to_hp", p) == "ok"
    for p in hp:
        assert agree("prog_hp_to_st", p) == "ok"
    for f in formulas:
        assert agree("formula_hp_to_st", f) == "ok"
        agree("formula_st_to_hp", f)


@pytest.mark.parametrize("language", ["st", "hp"])
def test_out_of_fragment_statements_raise_as_the_reference_does(language):
    generate, forward = {"st": (gen_st, "prog_st_to_hp"), "hp": (gen_hp, "prog_hp_to_st")}[language]
    raised = 0
    for seed in SEEDS:
        p = plant(generate(config(seed)), language, random.Random(seed))
        for name in PROGRAM_PASSES:
            agree(name, p)
        raised += agree(forward, p) == "raised"
    assert raised > len(SEEDS) // 2


def count_traversals(monkeypatch) -> tuple[list, list]:
    """The roots of the folds and walks that `translate` and `ir` start from now on."""
    folds, walks = [], []
    real_fold, real_walk = ir.fold, ir.walk

    def counted_fold(node, combine, children=ir.CHILDREN):
        folds.append(node)
        return real_fold(node, combine, children)

    def counted_walk(node, children=ir.CHILDREN):
        walks.append(node)
        return real_walk(node, children)

    for module in (translate, ir):
        monkeypatch.setattr(module, "fold", counted_fold)
        monkeypatch.setattr(module, "walk", counted_walk, raising=False)
    return folds, walks


def test_each_pass_folds_its_tree_once_and_walks_nothing(tank_and_controller, monkeypatch):
    st, hp, formulas = tank_and_controller
    guards = [n.cond for p in st for n in walk(p, ST_STATEMENTS) if n.__class__ is IfThen]
    guards += [n.guard for p in hp for n in walk(p, HP_STATEMENTS) if n.__class__ is GuardedChoice]
    runs = [(prog_st_to_hp, p) for p in st] + [(prog_hp_to_st, p) for p in hp]
    runs += [(program_facts, p) for p in (*st, *hp)]
    runs += [(formula_st_to_hp, f) for f in guards if f.dialect != HP]
    runs += [(formula_hp_to_st, f) for f in guards + formulas if f.dialect != ST]
    assert len(guards) > 300 and {fn for fn, _ in runs} >= {formula_st_to_hp, formula_hp_to_st}
    folds, walks = count_traversals(monkeypatch)
    for fn, tree in runs:
        fn(tree)
        assert folds == [tree] and walks == [], fn.__name__
        folds.clear()


def test_translated_statements_keep_their_source_positions(tank_and_controller):
    st, hp, _ = tank_and_controller
    pairs = [(p, prog_st_to_hp(p), ST_STATEMENTS, HP_STATEMENTS) for p in st]
    pairs += [(p, prog_hp_to_st(p)[0], HP_STATEMENTS, ST_STATEMENTS) for p in hp]
    for source, translated, source_table, table in pairs:
        statements = list(zip(walk(source, source_table), walk(translated, table), strict=True))
        assert sum(a.__class__ is not Seq for a, _ in statements) >= 10
        for a, b in statements:
            if a.__class__ is not Seq:
                assert a.pos is not None and b.pos == a.pos, (a, b)
