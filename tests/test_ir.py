"""Core AST and state types."""

import copy
import dataclasses
import os
import pickle
import re
import sys
import threading
import uuid

import pytest

from plchp import (
    And, Assign, BoolConst, Choice, Cmp, Equiv, GuardedChoice, Ident, IfThen, Imply, Loop, Neg,
    Not, Number, OdeSystem, Or, PlantSpec, RandomAssign, Seq, State, TestStmt, Var, Xor,
    collect_vars, parse_dl_model, print_dl, validate_scan_cycle_form,
)
from plchp.errors import DialectError, UnboundVariable
from plchp.ir import FALSE, GE, GT, HP, LE, ST, BinOp, DIV, SUB, TRUE, list_to_seq


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


@pytest.mark.parametrize("cls, fresh", [
    (Ident, lambda: "fresh_" + uuid.uuid4().hex),
    (Number, lambda: str(uuid.uuid4().int)),  # a lexeme no other test uses
], ids=["Ident", "Number"])
def test_threads_racing_on_a_new_name_get_one_object(cls, fresh):
    name = fresh()
    start = threading.Barrier(8, timeout=10)
    got = []

    def make():
        start.wait()
        got.append(cls(name))

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
    assert len(got) == 8 and all(x is cls(name) for x in got)


def test_every_leaf_is_one_object_per_value():
    x = Ident("x")
    assert Var(x) is Var(x) and Var(ident=x) is Var(Ident("x")) and Var(Ident("y")) is not Var(x)
    assert BoolConst(True) is TRUE and BoolConst(value=False) is FALSE
    n = Number("1")
    assert Number("1") is n and Number(lexeme="1") is n and Number("1.0") is not n
    copies = [copy.copy(n), copy.deepcopy(n), copy.deepcopy(Cmp(GE, Var(x), n)).right]
    copies += [pickle.loads(pickle.dumps(n, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(twin is n for twin in copies)
    # So a leaf's == is `is`, and its hash the identity hash, both object's own.
    for leaf in (x, Var(x), n, TRUE):
        cls = leaf.__class__
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
        assert cls.interned[getattr(leaf, cls.FIELDS[0])] is leaf


@pytest.mark.parametrize("lexeme, message", [
    ("-1", "invalid number literal: '-1'"),
    ("1e400", "number literal out of range: '1e400'"),
])
def test_a_refused_number_is_not_remembered(lexeme, message):
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            Number(lexeme)
        assert str(err.value) == message
    assert lexeme not in Number.interned


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


# ---------------------------------------------------------------------------
# Tree nodes: the behaviour they had as frozen dataclasses, at any depth.

_x, _one = Ident("x"), Number("1")
_t, _f, _p = Var(_x), BoolConst(True), RandomAssign(_x)
_T, _F, _P = "Var(ident=Ident(name='x'))", "BoolConst(value=True)", "RandomAssign(target=Ident(name='x'))"
REPRS = [
    (_one, "Number(lexeme='1')"),
    (_t, _T),
    (Neg(_t), f"Neg(operand={_T})"),
    (BinOp(SUB, _t, _one), f"BinOp(op='sub', left={_T}, right=Number(lexeme='1'))"),
    (_f, _F),
    (Cmp(GE, _t, _one), f"Cmp(rel='ge', left={_T}, right=Number(lexeme='1'))"),
    (Not(_f), f"Not(operand={_F})"),
    *((cls(_f, _f), f"{cls.__name__}(left={_F}, right={_F})") for cls, *_ in CONNECTIVES),
    (Assign(_x, _one, pos=(1, 2)), "Assign(target=Ident(name='x'), value=Number(lexeme='1'))"),
    (Seq(_p, _p), f"Seq(stmts=({_P}, {_P}))"),
    (IfThen(_f, _p, pos=(1, 1)), f"IfThen(cond={_F}, then={_P}, else_=None)"),
    (IfThen(_f, _p, _p), f"IfThen(cond={_F}, then={_P}, else_={_P})"),
    (GuardedChoice(_f, _p, None, True), f"GuardedChoice(guard={_F}, then={_P}, else_=None, complemented=True)"),
    (GuardedChoice(_f, _p, _p, False), f"GuardedChoice(guard={_F}, then={_P}, else_={_P}, complemented=False)"),
    (_p, _P),
    (TestStmt(_f), f"TestStmt(cond={_F})"),
    (OdeSystem(((_x, _one), (Ident("y"), _t)), _f),
     f"OdeSystem(odes=((Ident(name='x'), Number(lexeme='1')), (Ident(name='y'), {_T})), domain={_F})"),
    (Loop(_p), f"Loop(body={_P})"),
    (Choice(_p, _p, pos=(5, 6)), f"Choice(left={_P}, right={_P})"),
]
NODE_IDS = [type(node).__name__ for node, _ in REPRS]


@pytest.mark.parametrize("node, text", REPRS, ids=NODE_IDS)
def test_node_repr_is_the_dataclass_repr(node, text):
    assert repr(node) == text


@pytest.mark.parametrize("node", [node for node, _ in REPRS], ids=NODE_IDS)
def test_node_copies_and_pickles_to_an_equal_node(node):
    copies = [copy.copy(node), copy.deepcopy(node)]
    copies += [pickle.loads(pickle.dumps(node, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert twin == node and hash(twin) == hash(node) and repr(twin) == repr(node)
        assert getattr(twin, "pos", None) == getattr(node, "pos", None)


@pytest.mark.parametrize("node, text", REPRS, ids=NODE_IDS)
def test_node_is_frozen_with_the_dataclass_messages(node, text):
    field = text[text.index("(") + 1:text.index("=")]  # the first field
    with pytest.raises(dataclasses.FrozenInstanceError, match=rf"\Acannot assign to field '{field}'\Z"):
        setattr(node, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError, match=rf"\Acannot delete field '{field}'\Z"):
        delattr(node, field)
    with pytest.raises(dataclasses.FrozenInstanceError, match=r"\Acannot assign to field 'pos'\Z"):
        node.pos = (1, 1)


def test_number_keeps_the_float_of_its_lexeme():
    n = Number("2.50")
    assert n.value == 2.5 and n.value.__class__ is float and Number.FIELDS == ("lexeme",)
    # Equality, hash, repr and pickling read the lexeme alone.
    assert n == Number("2.50") and hash(n) == hash(Number("2.50")) and n != Number("2.5")
    assert repr(n) == "Number(lexeme='2.50')" and n.__reduce__() == (Number, ("2.50",), None)
    copies = [copy.copy(n), copy.deepcopy(n)]
    copies += [pickle.loads(pickle.dumps(n, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert twin == n and twin.value == 2.5
    with pytest.raises(dataclasses.FrozenInstanceError, match=r"\Acannot assign to field 'value'\Z"):
        n.value = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError, match=r"\Acannot delete field 'value'\Z"):
        del n.value


def test_equality_and_hash_ignore_pos():
    rows = [
        (lambda pos: Assign(_x, _one, pos=pos)),
        (lambda pos: IfThen(_f, _p, _p, pos=pos)),
        (lambda pos: GuardedChoice(_f, _p, None, True, pos=pos)),
        (lambda pos: RandomAssign(_x, pos=pos)),
        (lambda pos: TestStmt(_f, pos=pos)),
        (lambda pos: OdeSystem(((_x, _one),), _f, pos=pos)),
        (lambda pos: Loop(_p, pos=pos)),
        (lambda pos: Choice(_p, _p, pos=pos)),
    ]
    for make in rows:
        a, b = make((1, 2)), make(None)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a.pos == (1, 2) and b.pos is None


def test_nodes_of_different_classes_with_equal_fields_differ():
    pairs = [(Seq(_p, _p), Choice(_p, _p)), (Neg(_p), Loop(_p)), (Not(_f), TestStmt(_f)),
             (Var(_x), RandomAssign(_x)), (And(_f, _f), Xor(_f, _f))]
    for a, b in pairs:
        assert a != b and b != a and not a == b


def test_fields_that_are_not_nodes_take_part_in_equality():
    assert Assign(_x, _one) != Assign(Ident("y"), _one)
    assert IfThen(_f, _p) != IfThen(_f, _p, _p)
    assert GuardedChoice(_f, _p, _p, True) != GuardedChoice(_f, _p, _p, False)
    assert OdeSystem(((_x, _one),), _f) != OdeSystem(((Ident("y"), _one),), _f)
    assert BinOp(SUB, _t, _one) != BinOp(DIV, _t, _one)


DEPTH = 5000


# Each builder takes the lexeme of the tree's last literal: "1", or "2" for a
# tree that differs from the "1" tree only at the bottom.
def _binop_chain(last):
    t = Number(last)
    for _ in range(DEPTH):
        t = BinOp(SUB, t, _one)
    return t


def _not_chain(last):
    f = BoolConst(last == "1")
    for _ in range(DEPTH):
        f = Not(f)
    return f


def _statements(last):
    return list_to_seq([Assign(_x, _one, pos=(i, 1)) for i in range(DEPTH - 1)]
                       + [Assign(_x, Number(last))])


def _if_nest(last):
    # Each IF's body is a Seq, whose tuple holds the next IF.
    p = Assign(_x, Number(last))
    for _ in range(DEPTH):
        p = IfThen(_f, Seq(Assign(_x, _one), p))
    return p


_A = "Assign(target=Ident(name='x'), value=Number(lexeme='1'))"
DEEP = [
    (_binop_chain, "BinOp(op='sub', left=" * DEPTH + "Number(lexeme='1')"
     + ", right=Number(lexeme='1'))" * DEPTH),
    (_not_chain, "Not(operand=" * DEPTH + _F + ")" * DEPTH),
    (_statements, "Seq(stmts=(" + ", ".join([_A] * DEPTH) + "))"),
    (_if_nest, f"IfThen(cond={_F}, then=Seq(stmts=({_A}, " * DEPTH + _A + ")), else_=None)" * DEPTH),
]


@pytest.mark.parametrize("build, text", DEEP,
                         ids=["BinOp chain", "Not chain", "Seq of statements", "IF nest of Seqs"])
def test_deep_trees_compare_hash_and_print(build, text):
    a, b, other = build("1"), build("1"), build("2")
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and other != b  # they differ only at the bottom
    # Compared as a bool: pytest would diff two failing texts this long for minutes.
    printed = repr(a)
    if printed != text:
        pytest.fail(f"repr is {len(printed)} characters, not {len(text)}, and differs "
                    f"from offset {len(os.path.commonprefix([printed, text]))}")


# ---------------------------------------------------------------------------
# Flat sequences: a Seq holds its statements in one tuple, however grouped

_s1, _s2, _s3 = (Assign(Ident(name), _one) for name in ("a", "b", "c"))


def test_every_grouping_of_a_sequence_is_one_flat_seq():
    right, left, flat = Seq(_s1, Seq(_s2, _s3)), Seq(Seq(_s1, _s2), _s3), Seq(_s1, _s2, _s3)
    assert right == left == flat
    assert hash(right) == hash(left) == hash(flat)
    assert repr(right) == repr(left) == repr(flat) == f"Seq(stmts=({_s1!r}, {_s2!r}, {_s3!r}))"
    assert right.stmts == left.stmts == flat.stmts == (_s1, _s2, _s3)
    assert Seq(Seq(_s1, _s2), Seq(_s2, _s3)).stmts == (_s1, _s2, _s2, _s3)


def test_a_seq_holds_at_least_two_statements():
    for stmts in [(), (_s1,)]:
        with pytest.raises(TypeError, match=rf"\Aa Seq holds two or more statements, not {len(stmts)}\Z"):
            Seq(*stmts)
    with pytest.raises(ValueError, match=r"\Aempty statement list\Z"):
        list_to_seq([])
    assert list_to_seq([_s1]) is _s1 and list_to_seq([_s1, Seq(_s2, _s3)]) == Seq(_s1, _s2, _s3)


def test_braced_groups_in_a_dl_body_do_not_change_the_model():
    text = "x>=0 -> [{{u:=*; {body} t:=0; {{x'=u, t'=1 & t<=eps}}}}*] x>=0"
    left = parse_dl_model(text.format(body="{y:=u; z:=1;} w:=2;"))
    right = parse_dl_model(text.format(body="y:=u; {z:=1; w:=2;}"))
    assert left == right and print_dl(left) == print_dl(right)
    assert left.body.stmts[1:4] == (
        Assign(Ident("y"), Var(Ident("u"))), Assign(Ident("z"), _one), Assign(Ident("w"), Number("2")))
    assert validate_scan_cycle_form(left) == validate_scan_cycle_form(right)


def test_a_flat_seq_copies_and_pickles_flat():
    node = Seq(_s1, _s2, _s3)
    copies = [copy.copy(node), copy.deepcopy(node)]
    copies += [pickle.loads(pickle.dumps(node, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert twin.__class__ is Seq and twin.stmts == (_s1, _s2, _s3) and twin == node
        assert not hasattr(twin, "pos")
