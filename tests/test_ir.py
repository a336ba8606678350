"""Core AST and state types."""

import copy
import dataclasses
import pickle
import re
import sys
import threading
import uuid

import pytest

from plchp import (
    And, Assign, Cmp, Equiv, GuardedChoice, Ident, IfThen, Imply,
    Not, Number, OdeSystem, Or, PlantSpec, Seq, State, Var, Xor, collect_vars,
)
from plchp.errors import DialectError, UnboundVariable
from plchp.ir import GE, GT, HP, LE, ST, BinOp, DIV, SUB, TRUE


def test_ident_rejects_reserved_and_malformed():
    with pytest.raises(ValueError):
        Ident("IF")
    with pytest.raises(ValueError):
        Ident("if")  # keywords are case-insensitive
    with pytest.raises(ValueError):
        Ident("2x")
    with pytest.raises(ValueError):
        Ident("")
    assert Ident("eps").name == "eps"


def test_ident_is_one_object_per_name():
    x = Ident("x")
    assert Ident("x") is x and Ident(name="x") is x
    assert Ident("y") is not x and Ident("y") != x
    assert x != "x" and {x: 1}[Ident("x")] == 1
    assert repr(x) == "Ident(name='x')" and str(x) == "x"


def test_copying_and_pickling_keep_the_one_object():
    x = Ident("x")
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    assert copy.deepcopy([x, (x,)]) == [x, (x,)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(x, protocol)) is x


def test_ident_is_frozen():
    x = Ident("x")
    with pytest.raises(dataclasses.FrozenInstanceError, match=r"\Acannot assign to field 'name'\Z"):
        x.name = "y"
    with pytest.raises(dataclasses.FrozenInstanceError, match=r"\Acannot assign to field 'other'\Z"):
        x.other = 1
    with pytest.raises(dataclasses.FrozenInstanceError, match=r"\Acannot delete field 'name'\Z"):
        del x.name
    assert x.name == "x" and Ident("x") is x


@pytest.mark.parametrize("name, message", [
    ("IF", "reserved keyword cannot be an identifier: 'IF'"),
    ("End_Var", "reserved keyword cannot be an identifier: 'End_Var'"),
    ("2x", "invalid identifier: '2x'"),
    ("x-y", "invalid identifier: 'x-y'"),
    ("", "invalid identifier: ''"),
])
def test_ident_errors_every_time(name, message):
    # A refused name is not remembered: the second try is refused the same way.
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            Ident(name)
        assert str(err.value) == message


@pytest.mark.parametrize("name", [5, None, ["x"], b"x"])
def test_ident_refuses_a_name_that_is_not_a_string(name):
    with pytest.raises(TypeError) as err:
        Ident(name)
    # The regular expression's own message, also for an unhashable name.
    with pytest.raises(TypeError) as expected:
        re.compile("x").match(name)
    assert str(err.value) == str(expected.value)


def test_threads_racing_on_a_new_name_get_one_object():
    name = "fresh_" + uuid.uuid4().hex
    start = threading.Barrier(8, timeout=10)
    got = []

    def make():
        start.wait()
        got.append(Ident(name))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=make) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(x is Ident(name) for x in got)


def test_number_keeps_lexeme():
    assert Number("1.50").value == 1.5
    assert Number("1.50") != Number("1.5")
    with pytest.raises(ValueError):
        Number("-1")  # negatives are Neg(Number)


def test_collect_vars_examples():
    # x + 3 reads only x
    assert collect_vars(BinOp("add", Var(Ident("x")), Number("3"))) == {Ident("x")}
    # TRUE reads nothing
    assert collect_vars(TRUE) == set()
    # the repaired controller's first guard reads f1, HH, x1, eps
    guard = Cmp(
        GT,
        Var(Ident("f1")),
        BinOp(DIV, BinOp(SUB, Var(Ident("HH")), Var(Ident("x1"))), Var(Ident("eps"))),
    )
    assert collect_vars(guard) == {Ident("f1"), Ident("HH"), Ident("x1"), Ident("eps")}


def test_state_get_set_frame():
    x, y = Ident("x"), Ident("y")
    s = State({x: 2.0})
    assert s.get(x) == 2.0
    s2 = s.set(x, 5.0)
    assert s2.get(x) == 5.0
    assert s.get(x) == 2.0  # persistence
    s3 = s.set(y, 1.0)
    assert s3.get(x) == 2.0  # frame
    with pytest.raises(UnboundVariable):
        s.get(y)


def test_state_bit_pattern_equality():
    x = Ident("x")
    assert State({x: 0.0}) != State({x: -0.0})
    assert State({x: 1.0}) == State({x: 1.0})
    nan = float("nan")
    assert State({x: nan}) == State({x: nan})


def test_dialect_closed_under_construction():
    a = Cmp(GE, Var(Ident("a")), Number("1"))
    b = Cmp(LE, Var(Ident("b")), Number("2"))
    assert Xor(a, b).dialect == ST
    assert Imply(a, b).dialect == HP
    assert Equiv(a, b).dialect == HP
    assert And(a, b).dialect is None
    with pytest.raises(DialectError):
        And(Xor(a, b), Imply(a, b))
    with pytest.raises(DialectError):
        Imply(Xor(a, b), b)
    with pytest.raises(DialectError):
        Xor(Imply(a, b), b)
    with pytest.raises(DialectError):
        Not(Xor(a, Imply(a, b)))


def test_program_constructors_enforce_dialect():
    a = Cmp(GE, Var(Ident("a")), Number("1"))
    hp_only = Imply(a, a)
    st_only = Xor(a, a)
    with pytest.raises(DialectError):
        IfThen(hp_only, Assign(Ident("x"), Number("1")))
    with pytest.raises(DialectError):
        GuardedChoice(st_only, Assign(Ident("x"), Number("1")), None, complemented=True)
    with pytest.raises(ValueError):
        GuardedChoice(a, Assign(Ident("x"), Number("1")), None, complemented=False)


def test_positions_do_not_affect_equality():
    x = Ident("x")
    assert Assign(x, Number("1"), pos=(3, 7)) == Assign(x, Number("1"))
    s1 = Seq(Assign(x, Number("1")), Assign(x, Number("2")))
    s2 = Seq(Assign(x, Number("1"), pos=(1, 1)), Assign(x, Number("2"), pos=(2, 2)))
    assert s1 == s2


# One row per connective: (class, dialect over neutral operands, the operands
# that mix two dialects under it, the message that mixing gives).
_a = Cmp(GE, Var(Ident("a")), Number("1"))
_HP, _ST = Imply(_a, _a), Xor(_a, _a)
CONNECTIVES = [
    (And, None, (_ST, _HP), "cannot mix st-dialect and hp-dialect formulas under AND"),
    (Or, None, (_HP, _ST), "cannot mix hp-dialect and st-dialect formulas under OR"),
    (Xor, ST, (_HP, _a), "cannot mix st-dialect and hp-dialect formulas under XOR"),
    (Imply, HP, (_a, _ST), "cannot mix hp-dialect and st-dialect formulas under ->"),
    (Equiv, HP, (_ST, _a), "cannot mix hp-dialect and st-dialect formulas under <->"),
]


@pytest.mark.parametrize("cls, dialect, mixed, message", CONNECTIVES,
                         ids=[row[0].__name__ for row in CONNECTIVES])
def test_connective_dialect_message_and_repr(cls, dialect, mixed, message):
    f = cls(_a, _a)
    assert f.dialect == dialect
    assert cls(_a, _a) == f and hash(cls(_a, _a)) == hash(f)
    assert repr(f).startswith(f"{cls.__name__}(left=Cmp(rel='ge', ")
    with pytest.raises(DialectError) as err:
        cls(*mixed)
    assert str(err.value) == message
    if dialect is None:
        assert cls(_a, _HP).dialect == HP and cls(_ST, _a).dialect == ST


def test_not_dialect_and_repr():
    # NOT has one operand, so it takes that operand's dialect and never mixes.
    assert Not(_a).dialect is None
    assert Not(_HP).dialect == HP and Not(_ST).dialect == ST
    assert repr(Not(_a)).startswith("Not(operand=Cmp(rel='ge', ")


def test_connectives_compare_by_class():
    assert And(_a, _a) != Or(_a, _a)
    assert Imply(_a, _a) != Equiv(_a, _a)
    assert len({cls(_a, _a) for cls, *_ in CONNECTIVES}) == len(CONNECTIVES)


def test_one_duplicate_ode_message():
    x, t = Ident("x"), Ident("t")
    odes = ((x, Number("1")), (x, Number("2")))
    with pytest.raises(ValueError) as system:
        OdeSystem(odes, TRUE)
    with pytest.raises(ValueError) as plant:
        PlantSpec(odes, t, TRUE, Var(Ident("eps")))
    assert str(system.value) == str(plant.value) == "duplicate differential equation for x"
    with pytest.raises(ValueError, match=r"\Aduplicate differential equation for t\Z"):
        PlantSpec(((t, Number("1")),), t, TRUE, Var(Ident("eps")))


def test_if_then_with_else_checks_its_condition():
    x = Assign(Ident("x"), Number("1"))
    with pytest.raises(DialectError, match=r"\AIF condition must be an ST-dialect formula\Z"):
        IfThen(_HP, x, x)
    assert IfThen(_ST, x, x).else_ == x and IfThen(_ST, x).else_ is None
