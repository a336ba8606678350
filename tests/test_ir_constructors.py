"""The IR node constructors: their parameters, and their checks' errors
and order."""

import inspect

import pytest

from plchp.errors import DialectError
from plchp.ir import (
    ADD, GE, GT, TRUE, And, Assign, BinOp, BoolConst, Choice, Cmp, Equiv, GuardedChoice, Ident,
    IfThen, Imply, Loop, Neg, Not, Number, OdeSystem, Or, PlantSpec, RandomAssign, ScanCycleModel,
    Seq, TestStmt, Var, Xor,
)

SIGNATURES = {
    Number: "(lexeme)",
    Var: "(ident)",
    Neg: "(operand)",
    BinOp: "(op, left, right)",
    BoolConst: "(value)",
    Cmp: "(rel, left, right)",
    Not: "(operand)",
    **dict.fromkeys((And, Or, Imply, Equiv, Xor), "(left, right)"),
    Assign: "(target, value, *, pos=None)",
    Seq: "(*stmts)",
    IfThen: "(cond, then, else_=None, *, pos=None)",
    GuardedChoice: "(guard, then, else_, complemented, *, pos=None)",
    RandomAssign: "(target, *, pos=None)",
    TestStmt: "(cond, *, pos=None)",
    OdeSystem: "(odes, domain, *, pos=None)",
    Loop: "(body, *, pos=None)",
    Choice: "(left, right, *, pos=None)",
}


@pytest.mark.parametrize("cls, text", SIGNATURES.items(), ids=[c.__name__ for c in SIGNATURES])
def test_constructor_parameters(cls, text):
    # Names, order, kinds and defaults; annotations are not part of the API.
    sig = inspect.signature(cls)
    bare = sig.replace(parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
                       return_annotation=sig.empty)
    assert str(bare) == text
    assert [*sig.parameters][:len(cls.FIELDS)] == [*cls.FIELDS]


_x = Ident("x")
_a = Cmp(GE, Var(_x), Number("1"))
_hp, _st = Imply(_a, _a), Xor(_a, _a)
_s = Assign(_x, Number("1"))
_dup = ((_x, Number("1")), (_x, Number("2")))
_plant = PlantSpec(((_x, Number("1")),), Ident("t"), TRUE, Number("1"))

# Each check, and where a constructor has two, the one that comes first.
CHECKS = [
    (lambda: Number("-1"), ValueError, "invalid number literal: '-1'"),
    (lambda: BinOp("mod", _a, _a), ValueError, "unknown binary operator: 'mod'"),
    (lambda: Cmp("lt=", _a, _a), ValueError, "unknown relation: 'lt='"),
    (lambda: Assign(_x, _a), TypeError, "not a term: Cmp"),
    (lambda: And(_hp, _st), DialectError, "cannot mix hp-dialect and st-dialect formulas under AND"),
    (lambda: Not(And(_st, _hp)), DialectError,
     "cannot mix st-dialect and hp-dialect formulas under AND"),
    (lambda: IfThen(_hp, _s), DialectError, "IF condition must be an ST-dialect formula"),
    (lambda: GuardedChoice(_st, _s, None, False), DialectError,
     "choice guard must be an HP-dialect formula"),
    (lambda: GuardedChoice(_a, _s, None, False), ValueError,
     "default-beta choice requires an explicit default branch"),
    (lambda: TestStmt(_st), DialectError, "test condition must be an HP-dialect formula"),
    (lambda: OdeSystem(_dup, _st), DialectError, "evolution domain must be an HP-dialect formula"),
    (lambda: OdeSystem(_dup, TRUE), ValueError, "duplicate differential equation for x"),
    (lambda: Seq(_s, _a), TypeError, "not a statement: Cmp"),
    (lambda: IfThen(_a, _s, _a), TypeError, "not a statement: Cmp"),
    (lambda: GuardedChoice(_a, _a, None, False), TypeError, "not a statement: Cmp"),
    (lambda: Choice(_s, _a), TypeError, "not a statement: Cmp"),
    (lambda: Loop(_a), TypeError, "not a statement: Cmp"),
    (lambda: IfThen(Var(_x), _a), TypeError, "not a formula: Var"),
    (lambda: GuardedChoice(Var(_x), _a, None, False), TypeError, "not a formula: Var"),
    (lambda: TestStmt(Var(_x)), TypeError, "not a formula: Var"),
    (lambda: OdeSystem(_dup, Var(_x)), TypeError, "not a formula: Var"),
    (lambda: Not(Var(_x)), TypeError, "not a formula: Var"),
    (lambda: Xor(_a, Var(_x)), TypeError, "not a formula: Var"),
    (lambda: PlantSpec(((_x, Number("1")),), Ident("t"), Var(_x), Number("1")), TypeError,
     "not a formula: Var"),
    (lambda: ScanCycleModel(Var(_x), (), _s, _plant, 1.0, TRUE), TypeError, "not a formula: Var"),
    (lambda: ScanCycleModel(TRUE, (), _s, _plant, 1.0, Var(_x)), TypeError, "not a formula: Var"),
    (lambda: BinOp(ADD, Var(_x), TRUE), TypeError, "not a term: BoolConst"),
    (lambda: Neg(_a), TypeError, "not a term: Cmp"),
    (lambda: Cmp(GT, TRUE, Number("1")), TypeError, "not a term: BoolConst"),
]


@pytest.mark.parametrize("build, error, message", CHECKS, ids=[
    "Number", "BinOp", "Cmp", "Assign", "And", "Not", "IfThen", "GuardedChoice-dialect",
    "GuardedChoice-default", "TestStmt", "OdeSystem-dialect", "OdeSystem-duplicate",
    "Seq-statement", "IfThen-statement", "GuardedChoice-statement", "Choice-statement",
    "Loop-statement", "IfThen-formula", "GuardedChoice-formula", "TestStmt-formula",
    "OdeSystem-formula", "Not-formula", "Connective-formula", "PlantSpec-formula",
    "ScanCycleModel-assumptions", "ScanCycleModel-safety", "BinOp-term", "Neg-term", "Cmp-term"])
def test_constructor_checks(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert caught.type is error and str(caught.value) == message


def test_derived_fields_and_keywords():
    assert Not(_hp).dialect == "hp" and Or(_a, _st).dialect == "st"
    assert Assign(target=_x, value=Number("2"), pos=(1, 2)).pos == (1, 2)
    assert GuardedChoice(_a, _s, None, complemented=True).pos is None
    assert IfThen(_a, _s, pos=(3, 4)).else_ is None
    assert not hasattr(Seq(_s, _s), "pos")
    with pytest.raises(TypeError):
        Seq(_s, _s, pos=(1, 1))
    with pytest.raises(TypeError):
        Assign(_x, Number("2"), (1, 2))
    assert BoolConst(True) == BoolConst(value=True)
    assert RandomAssign(_x, pos=(1, 1)) == RandomAssign(_x) and Loop(_s).body is _s
    assert Neg(Var(_x)).operand == Var(_x) and Choice(_s, _s).right is _s
