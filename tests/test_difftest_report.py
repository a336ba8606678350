"""difftest's failure report, reached by breaking one piece at a time.

Each test swaps one translator or the reachability oracle for a broken
one, so that some trials fail, and checks the kind of each failure and the
detail that names its program and state.
"""

from dataclasses import replace

import pytest

from plchp import dl_syntax, semantics, st_syntax
from plchp.cli import main
from plchp.dl_syntax import parse_dl, parse_dl_formula, parse_dl_program
from plchp.ir import (
    ADD, HP, ST, Assign, BinOp, Formula, Ident, IfThen, Not, Number, State, list_to_seq,
    seq_to_list,
)
from plchp.semantics import (
    GenConfig, ReachSet, derive_seed, difftest, gen_formula, gen_hp, gen_st, gen_term,
)
from plchp.st_syntax import parse_st_expression, parse_st_statements
from plchp.translate import CompileDiagnostics

CFG = GenConfig(max_depth=4, seed=3)
N = 30


def drop_last(compile_):
    def broken(p):
        stmts = seq_to_list(p)
        return compile_(list_to_seq(stmts[:-1]) if len(stmts) > 1 else p)
    return broken


def failures(n=N):
    report = difftest(CFG, n)
    found = report.failures()
    assert found, "the broken piece made no trial fail"
    for failure in found:
        program, state = failure.detail.split("\nstate: ")
        assert program.startswith("program: ")
        assert state.startswith("State({") and state.endswith("})")
        assert "\n" not in state
    return found


def generated(failure, salt, gen):
    """The program trial `failure` generated with `salt`."""
    return gen(replace(CFG, seed=derive_seed(failure.seed, salt)))


def program_text(failure) -> str:
    return failure.detail.split("\nstate: ")[0].removeprefix("program: ")


def test_a_dropped_statement_is_kind_a_printed_as_st(monkeypatch):
    monkeypatch.setattr(semantics, "prog_st_to_hp", drop_last(semantics.prog_st_to_hp))
    found = failures()
    assert {f.kind for f in found} == {"a"}
    printed_as_st = 0
    for failure in found:
        program = generated(failure, 1, gen_st)
        if any(isinstance(s, IfThen) for s in seq_to_list(program)):
            assert parse_st_statements(program_text(failure)) == program
            printed_as_st += 1
        else:
            assert parse_dl_program(program_text(failure)) == program
    assert printed_as_st


def test_a_constant_st_program_is_kind_b_printed_in_dl(monkeypatch):
    constant = Assign(Ident("a"), Number("12345"))
    monkeypatch.setattr(semantics, "prog_hp_to_st", lambda p: (constant, CompileDiagnostics()))
    found = failures()
    assert {f.kind for f in found} == {"b"}
    for failure in found:
        assert parse_dl_program(program_text(failure)) == generated(failure, 2, gen_hp)


def reparse(text, expression):
    """`text` read back as `_describe_program` printed `expression`."""
    if isinstance(expression, Formula) and expression.dialect == HP:
        return parse_dl_formula(text)
    return parse_st_expression(text)


def plus_one(t):
    return BinOp(ADD, t, Number("1"))


@pytest.mark.parametrize("name, broken, salt, gen", [
    ("term_st_to_hp", plus_one, 3, gen_term),
    ("term_hp_to_st", plus_one, 3, gen_term),
    ("formula_st_to_hp", Not, 4, lambda cfg: gen_formula(cfg, ST)),
    ("formula_hp_to_st", Not, 5, lambda cfg: gen_formula(cfg, HP)),
])
def test_a_changed_expression_is_kind_c(monkeypatch, name, broken, salt, gen):
    compile_ = getattr(semantics, name)
    monkeypatch.setattr(semantics, name, lambda e: broken(compile_(e)))
    found = failures()
    assert {f.kind for f in found} == {"c"}
    assert len(found) == N
    for failure in found:
        expression = generated(failure, salt, gen)
        assert reparse(program_text(failure), expression) == expression


def test_a_program_that_cannot_be_printed_is_described_by_its_repr(monkeypatch):
    monkeypatch.setattr(semantics, "prog_st_to_hp", drop_last(semantics.prog_st_to_hp))

    def unprintable(node):
        raise TypeError("no printer")

    monkeypatch.setattr(dl_syntax, "print_dl", unprintable)
    monkeypatch.setattr(st_syntax, "print_st_statement", unprintable)
    for failure in failures():
        assert program_text(failure) == repr(generated(failure, 1, gen_st))


def test_an_extra_reachable_state_is_kind_d(monkeypatch):
    reachable = semantics.hp_reachable
    extra = State({Ident("zz"): 0.0})

    def broken(p, s):
        return ReachSet(reachable(p, s).states | {extra})

    monkeypatch.setattr(semantics, "hp_reachable", broken)
    found = failures()
    assert {f.kind for f in found} == {"d"}
    for failure in found:
        assert parse_dl(program_text(failure)) == generated(failure, 2, gen_hp)


def test_cli_prints_each_failure_before_the_summary(monkeypatch, capsys):
    monkeypatch.setattr(semantics, "prog_st_to_hp", drop_last(semantics.prog_st_to_hp))
    code = main(["difftest", "--n", "5", "--seed", "3", "--depth", "4"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    failed = [line for line in out if line.startswith("FAIL ")]
    assert failed
    assert out[-1] == f"total=5 failed={len(failed)}"
    for line in out[:-1]:
        assert line.startswith(("FAIL seed=", "# "))
    assert out[0].startswith("FAIL seed=") and out[0].endswith(" kind=a")
    assert out[1].startswith("# program: ")
    assert sum(line.startswith("# state: State({") for line in out) == len(failed)


@pytest.mark.parametrize("bindings, text", [
    ({}, "State({})"),
    ({Ident("b"): 1.5, Ident("a"): -0.0}, "State({a: -0.0, b: 1.5})"),
])
def test_state_repr_sorts_by_name(bindings, text):
    assert repr(State(bindings)) == text
