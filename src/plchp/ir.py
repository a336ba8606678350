"""Shared AST, state, and scan-cycle model types.

Both surface languages (the PLC structured-text subset and the translatable
hybrid-program fragment) share one term language and one pool of program
constructors. Formulas carry an inferred dialect ("hp", "st", or None when
valid in both) so connectives that exist in only one language cannot leak
into the other: the constructors refuse to mix dialects.

Everything in this module is immutable after construction and safe to share
between threads. Identifiers are interned: one object per name; `==` is
`is`.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterator, Optional, Union

from .errors import DialectError, NotNormalForm, UnboundVariable

# Words that may not be used as identifiers in either surface syntax.
RESERVED_WORDS = frozenset({
    "PROGRAM", "END_PROGRAM", "VAR_INPUT", "VAR_OUTPUT", "VAR", "VAR_EXTERNAL",
    "END_VAR", "IF", "THEN", "ELSE", "ELSIF", "END_IF", "AND", "OR", "XOR",
    "NOT", "TRUE", "FALSE", "CONFIGURATION", "END_CONFIGURATION", "RESOURCE",
    "END_RESOURCE", "ON", "TASK", "WITH", "INTERVAL", "PRIORITY",
    "LREAL", "REAL", "BOOL",
})

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NUMBER_RE = re.compile(r"\d+(\.\d+)?([eE][+-]?\d+)?\Z")

# Formula dialects.
HP = "hp"
ST = "st"

Pos = tuple  # (line, col), attached by the parsers, excluded from equality


# Name -> its one Ident. Entries are never removed; a process holds one per
# distinct name it has seen.
_INTERNED: dict[str, "Ident"] = {}


class Ident:
    """A variable name, valid in both surface syntaxes.

    Interned: `Ident(name)` returns the one object for that name, so `==`
    is `is`, and the hash is the identity hash. Both run in C, and every
    dict and set keyed by variables (states, trace rows, layouts) pays
    for them. The name is checked the first time it is seen. The object
    is immutable like a frozen dataclass, and copying or unpickling it
    gives back the same object.
    """

    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str) -> "Ident":
        # A name that is not a plain str takes the checks, which raise the
        # constructor's own TypeError for a non-string.
        ident = _INTERNED.get(name) if name.__class__ is str else None
        if ident is None:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid identifier: {name!r}")
            if name.upper() in RESERVED_WORDS:
                raise ValueError(f"reserved keyword cannot be an identifier: {name!r}")
            ident = object.__new__(cls)
            object.__setattr__(ident, "name", name)
            # Of two threads racing on a new name, both get the first insert.
            ident = _INTERNED.setdefault(name, ident)
        return ident

    def __setattr__(self, attr, value):
        raise FrozenInstanceError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise FrozenInstanceError(f"cannot delete field {attr!r}")

    def __reduce__(self):
        return Ident, (self.name,)

    def __repr__(self) -> str:
        return f"Ident(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Tree nodes

_set = object.__setattr__


class Node:
    """Base class of terms, formulas and statements: slotted and immutable,
    as a frozen dataclass is. `FIELDS` names a class's fields in constructor
    order; `==`, `hash` and `repr` read those and no others (not `pos`), on
    an explicit stack, so a tree of any depth is in reach of each."""

    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            for name in a.FIELDS:
                x, y = getattr(a, name), getattr(b, name)
                if x is y:
                    continue
                if not isinstance(x, Node):
                    if x != y:
                        return False
                elif y.__class__ is not x.__class__:
                    return False
                else:
                    stack.append((x, y))
        return True

    def __hash__(self) -> int:
        # Each node's class, then its fields, a field that holds a node
        # giving that node's own sequence: equal trees give equal sequences.
        flat, stack = [], [self]
        while stack:
            n = stack.pop()
            if isinstance(n, Node):
                flat.append(n.__class__)
                stack += [getattr(n, name) for name in reversed(n.FIELDS)]
            else:
                flat.append(n)
        return hash(tuple(flat))

    def __repr__(self) -> str:
        out, stack = [], [self]
        while stack:
            n = stack.pop()
            if n.__class__ is str:
                out.append(n)
                continue
            parts = [f"{n.__class__.__qualname__}("]
            for i, name in enumerate(n.FIELDS):
                label, value = f"{', ' if i else ''}{name}=", getattr(n, name)
                parts += (label, value) if isinstance(value, Node) else (f"{label}{value!r}",)
            stack += reversed((*parts, ")"))
        return "".join(out)

    def __reduce__(self):
        # The constructor call, then `pos`, which constructors take by keyword.
        fields = tuple(map(self.__getattribute__, self.FIELDS))
        return self.__class__, fields, getattr(self, "pos", None)

    def __setstate__(self, pos):
        _set(self, "pos", pos)


# ---------------------------------------------------------------------------
# Terms

ADD, SUB, MUL, DIV, POW = "add", "sub", "mul", "div", "pow"
BINARY_OPS = (ADD, SUB, MUL, DIV, POW)


class Term(Node):
    """Base class for arithmetic terms (shared by both languages)."""

    __slots__ = ()


class Number(Term):
    """Numeric literal. The source lexeme is kept so printing is lossless;
    two literals are equal only if their lexemes agree."""

    __slots__ = FIELDS = ("lexeme",)

    def __init__(self, lexeme: str):
        if not _NUMBER_RE.match(lexeme):
            raise ValueError(f"invalid number literal: {lexeme!r}")
        _set(self, "lexeme", lexeme)

    @property
    def value(self) -> float:
        return float(self.lexeme)


class Var(Term):
    __slots__ = FIELDS = ("ident",)

    def __init__(self, ident: Ident):
        _set(self, "ident", ident)

    def __str__(self) -> str:
        return self.ident.name


class Neg(Term):
    __slots__ = FIELDS = ("operand",)

    def __init__(self, operand: Term):
        _set(self, "operand", operand)


class BinOp(Term):
    __slots__ = FIELDS = ("op", "left", "right")  # op: one of BINARY_OPS

    def __init__(self, op: str, left: Term, right: Term):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator: {op!r}")
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


def number_lexeme(value: float) -> str:
    """Canonical lexeme for a synthesized non-negative literal."""
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"cannot render {value!r} as a number literal")
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


# ---------------------------------------------------------------------------
# Formulas

EQ, NE, GT, GE, LT, LE = "eq", "ne", "gt", "ge", "lt", "le"
RELATIONS = (EQ, NE, GT, GE, LT, LE)


def _merge_dialects(node: str, own: Optional[str], children) -> Optional[str]:
    merged = own
    for child in children:
        d = child.dialect
        if d is None:
            continue
        if merged is None:
            merged = d
        elif merged != d:
            raise DialectError(
                f"cannot mix {merged}-dialect and {d}-dialect formulas under {node}"
            )
    return merged


class Formula(Node):
    """Base class for boolean formulas.

    `dialect` is "hp" when the tree contains a connective only hybrid
    programs have (->, <->), "st" when it contains XOR, and None when the
    formula is valid in both languages.
    """

    __slots__ = ()
    dialect: Optional[str] = None


class BoolConst(Formula):
    __slots__ = FIELDS = ("value",)

    def __init__(self, value: bool):
        _set(self, "value", value)


class Cmp(Formula):
    __slots__ = FIELDS = ("rel", "left", "right")  # rel: one of RELATIONS

    def __init__(self, rel: str, left: Term, right: Term):
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation: {rel!r}")
        _set(self, "rel", rel)
        _set(self, "left", left)
        _set(self, "right", right)


class Not(Formula):
    FIELDS = ("operand",)
    __slots__ = (*FIELDS, "dialect")

    def __init__(self, operand: Formula):
        _set(self, "operand", operand)
        _set(self, "dialect", _merge_dialects("NOT", None, (operand,)))


class Connective(Formula):
    """A binary connective. Each subclass sets its `spelling` (the name
    dialect errors give it) and its `own` dialect, None when both languages
    have it."""

    FIELDS = ("left", "right")
    __slots__ = (*FIELDS, "dialect")

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "dialect", _merge_dialects(self.spelling, self.own, (left, right)))


class And(Connective):
    __slots__ = ()
    spelling, own = "AND", None


class Or(Connective):
    __slots__ = ()
    spelling, own = "OR", None


class Imply(Connective):
    """Implication; hybrid-program dialect only."""

    __slots__ = ()
    spelling, own = "->", HP


class Equiv(Connective):
    """Biconditional; hybrid-program dialect only."""

    __slots__ = ()
    spelling, own = "<->", HP


class Xor(Connective):
    """Exclusive or; structured-text dialect only."""

    __slots__ = ()
    spelling, own = "XOR", ST


TRUE = BoolConst(True)
FALSE = BoolConst(False)


def conjuncts(f: Formula) -> list[Formula]:
    """Flatten a conjunction tree into its list of conjuncts."""
    return [part for part in walk(f, _AND) if part.__class__ is not And]


def conjoin(parts) -> Formula:
    """Left-fold a list of formulas with AND; empty list yields TRUE."""
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


# ---------------------------------------------------------------------------
# Programs
#
# The two languages share Assign and Seq. IfThen belongs to the ST
# statement language, GuardedChoice to the translatable hybrid-program
# fragment. RandomAssign, TestStmt, OdeSystem, Loop, and Choice only appear
# in raw parsed hybrid programs (the scan-cycle wrapper and ill-formed
# inputs); validation rejects them inside a controller. A statement's `pos`
# is its (line, col) in the source it was parsed from, or None.


class Program(Node):
    """Base class for statements of both languages."""

    __slots__ = ("pos",)  # unset on a Seq


class Assign(Program):
    __slots__ = FIELDS = ("target", "value")

    def __init__(self, target: Ident, value: Term, *, pos: Optional[Pos] = None):
        _set(self, "target", target)
        _set(self, "value", value)
        _set(self, "pos", pos)


class Seq(Program):
    __slots__ = FIELDS = ("first", "second")

    def __init__(self, first: Program, second: Program):
        _set(self, "first", first)
        _set(self, "second", second)


class IfThen(Program):
    """ST conditional; `else_` is None when there is no ELSE branch, as in
    GuardedChoice."""

    __slots__ = FIELDS = ("cond", "then", "else_")

    def __init__(self, cond: Formula, then: Program, else_: Optional[Program] = None, *,
                 pos: Optional[Pos] = None):
        if cond.dialect == HP:
            raise DialectError("IF condition must be an ST-dialect formula")
        _set(self, "cond", cond)
        _set(self, "then", then)
        _set(self, "else_", else_)
        _set(self, "pos", pos)


class GuardedChoice(Program):
    """Nondeterministic choice whose left branch opens with a test.

    complemented=True means the right branch is guarded by the negated test
    (if-then-else when `else_` is present, if-then when absent);
    complemented=False is the default-beta form, where `else_` is an
    unguarded branch that may run regardless of the guard.
    """

    __slots__ = FIELDS = ("guard", "then", "else_", "complemented")

    def __init__(self, guard: Formula, then: Program, else_: Optional[Program],
                 complemented: bool, *, pos: Optional[Pos] = None):
        if guard.dialect == ST:
            raise DialectError("choice guard must be an HP-dialect formula")
        if not complemented and else_ is None:
            raise ValueError("default-beta choice requires an explicit default branch")
        _set(self, "guard", guard)
        _set(self, "then", then)
        _set(self, "else_", else_)
        _set(self, "complemented", complemented)
        _set(self, "pos", pos)


class RandomAssign(Program):
    """Nondeterministic assignment `x := *`; legal only in the input section."""

    __slots__ = FIELDS = ("target",)

    def __init__(self, target: Ident, *, pos: Optional[Pos] = None):
        _set(self, "target", target)
        _set(self, "pos", pos)


class TestStmt(Program):
    """A bare test `?F`; legal only as the head of a choice branch."""

    __test__ = False  # not a pytest class
    __slots__ = FIELDS = ("cond",)

    def __init__(self, cond: Formula, *, pos: Optional[Pos] = None):
        if cond.dialect == ST:
            raise DialectError("test condition must be an HP-dialect formula")
        _set(self, "cond", cond)
        _set(self, "pos", pos)


def _reject_duplicate_odes(odes, *seen: Ident) -> None:
    """Raise ValueError unless every equation in `odes` has its own
    variable, distinct from the names in `seen`."""
    seen = set(seen)
    for x, _ in odes:
        if x in seen:
            raise ValueError(f"duplicate differential equation for {x}")
        seen.add(x)


class OdeSystem(Program):
    """Raw parsed differential equation system `{x'=e, ... & domain}`."""

    __slots__ = FIELDS = ("odes", "domain")

    def __init__(self, odes: tuple[tuple[Ident, Term], ...], domain: Formula, *,
                 pos: Optional[Pos] = None):
        if domain.dialect == ST:
            raise DialectError("evolution domain must be an HP-dialect formula")
        _reject_duplicate_odes(odes)
        _set(self, "odes", odes)
        _set(self, "domain", domain)
        _set(self, "pos", pos)


class Loop(Program):
    """Raw parsed repetition `{p}*`; legal only around the scan cycle body."""

    __slots__ = FIELDS = ("body",)

    def __init__(self, body: Program, *, pos: Optional[Pos] = None):
        _set(self, "body", body)
        _set(self, "pos", pos)


class Choice(Program):
    """Raw parsed choice whose left branch does not open with a test."""

    __slots__ = FIELDS = ("left", "right")

    def __init__(self, left: Program, right: Program, *, pos: Optional[Pos] = None):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "pos", pos)


# ---------------------------------------------------------------------------
# Traversal
#
# One table knows the children of every node class, and the tree walkers are
# a `walk` or a `fold` over it: the uniplate pattern (Mitchell & Runciman,
# "Uniform boilerplate and list processing", Haskell Workshop 2007). Both
# keep their work on an explicit stack, so a statement list or an ELSIF
# chain of any length is in reach of every walker.


def _pair(n):
    return n.left, n.right


def _branches(n):
    return (n.then,) if n.else_ is None else (n.then, n.else_)


# Node class -> the node's children, in field order. Missing classes
# (numbers, variables, truth values, `x := *`) are leaves; assignment
# targets and ODE variables are identifiers, not nodes.
CHILDREN = {
    **dict.fromkeys((BinOp, Cmp, And, Or, Imply, Equiv, Xor, Choice), _pair),
    **dict.fromkeys((Neg, Not), lambda n: (n.operand,)),
    Assign: lambda n: (n.value,),
    Seq: lambda n: (n.first, n.second),
    IfThen: lambda n: (n.cond, n.then) if n.else_ is None else (n.cond, n.then, n.else_),
    GuardedChoice: lambda n: (n.guard, n.then) if n.else_ is None else (n.guard, n.then, n.else_),
    TestStmt: lambda n: (n.cond,),
    OdeSystem: lambda n: (*(rhs for _, rhs in n.odes), n.domain),
    Loop: lambda n: (n.body,),
}

# The children that are statements. A table cut down to some classes makes
# the other statements leaves: a walk or fold over it does not enter them,
# and meets them in source order, so a walker can reject them there.
STATEMENTS = {
    Seq: CHILDREN[Seq],
    **dict.fromkeys((IfThen, GuardedChoice), _branches),
    Loop: CHILDREN[Loop],
    Choice: _pair,
}
ST_STATEMENTS = {cls: STATEMENTS[cls] for cls in (Seq, IfThen)}
HP_STATEMENTS = {cls: STATEMENTS[cls] for cls in (Seq, GuardedChoice)}
_AND = {And: _pair}


def walk(node, children=CHILDREN) -> Iterator:
    """Every node of the tree under `node`, `node` first, in pre-order and
    left to right. `children` maps a node class to the node's children; a
    class it lacks is a leaf."""
    stack = [node]
    pop, push, get = stack.pop, stack.extend, children.get
    while stack:
        node = pop()
        yield node
        kids = get(node.__class__)
        if kids is not None:
            push(kids(node)[::-1])


def fold(node, combine, children=CHILDREN):
    """Bottom-up over the tree under `node`: call `combine(n, results)` on
    every node n, where `results` holds what combine returned for the
    children of n, in order, and return the result for `node`. Nodes are
    combined in post-order, left to right, so side effects of combine
    happen in source order."""
    get = children.get
    if get(node.__class__) is None:
        return combine(node, ())
    # The reverse of a right-to-left pre-order is the left-to-right post-order.
    order = []
    stack = [node]
    pop, push, visit = stack.pop, stack.extend, order.append
    while stack:
        n = pop()
        kids = get(n.__class__)
        kids = () if kids is None else kids(n)
        visit((n, len(kids)))
        push(kids)
    results = []
    keep = results.append
    for n, k in reversed(order):
        if k:
            args = results[-k:]
            del results[-k:]
            keep(combine(n, args))
        else:
            keep(combine(n, ()))
    return results[0]


def operator_key(n):
    """What names the operator of node `n`: a BinOp's operator, a Cmp's
    relation, or else the node's class."""
    cls = n.__class__
    return n.op if cls is BinOp else n.rel if cls is Cmp else cls


# `a == b` on two trees, under the name it had before `==` took any depth.
same = operator.eq


def seq_to_list(p: Program) -> list[Program]:
    """Flatten a Seq tree into the statement list it folds, in linear time
    and without recursion, so that long statement lists stay in reach."""
    out: list[Program] = []
    stack = [p]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack.append(node.second)
            stack.append(node.first)
        else:
            out.append(node)
    return out


def list_to_seq(stmts) -> Program:
    """Fold a non-empty statement list right into a Seq tree."""
    stmts = list(stmts)
    if not stmts:
        raise ValueError("empty statement list")
    out = stmts[-1]
    for s in reversed(stmts[:-1]):
        out = Seq(s, out)
    return out


def collect_vars(node: Union[Term, Formula, Program]) -> set[Ident]:
    """All identifiers occurring anywhere in a term, formula, or program."""
    out: set[Ident] = set()
    for n in walk(node):
        cls = n.__class__
        if cls is Var:
            out.add(n.ident)
        elif cls is Assign or cls is RandomAssign:
            out.add(n.target)
        elif cls is OdeSystem:
            out.update(x for x, _ in n.odes)
    return out


# ---------------------------------------------------------------------------
# States


class State:
    """Immutable total map from Ident to a 64-bit float.

    Lookups of unbound names raise UnboundVariable. Updates return new
    states; the original never changes. Equality and hashing use the exact
    bit pattern of every value, matching the bit-exact differential-testing
    contract (so 0.0 and -0.0 differ, and NaNs compare by payload).
    """

    __slots__ = ("_bindings", "_key")

    def __init__(self, bindings=()):
        data = dict(bindings)
        clean: dict[Ident, float] = {}
        for name, value in data.items():
            if not isinstance(name, Ident):
                raise TypeError(f"state keys must be Ident, got {type(name).__name__}")
            clean[name] = float(value)
        object.__setattr__(self, "_bindings", clean)
        object.__setattr__(self, "_key", None)

    def get(self, name: Ident) -> float:
        try:
            return self._bindings[name]
        except KeyError:
            raise UnboundVariable(name) from None

    def values_at(self, names) -> list:
        """The value of each name in turn, None where unbound."""
        get = self._bindings.get
        return [get(name) for name in names]

    def set(self, name: Ident, value: float) -> "State":
        if not isinstance(name, Ident):
            raise TypeError("state keys must be Ident")
        new = dict(self._bindings)
        new[name] = float(value)
        return State(new)

    def set_many(self, mapping) -> "State":
        new = dict(self._bindings)
        for name, value in dict(mapping).items():
            if not isinstance(name, Ident):
                raise TypeError("state keys must be Ident")
            new[name] = float(value)
        return State(new)

    def names(self) -> set[Ident]:
        return set(self._bindings)

    def items(self) -> Iterator[tuple[Ident, float]]:
        return iter(self._bindings.items())

    def __contains__(self, name: Ident) -> bool:
        return name in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def _bits(self):
        key = self._key
        if key is None:
            key = frozenset(
                (name.name, struct.pack("<d", value))
                for name, value in self._bindings.items()
            )
            object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self._bits() == other._bits()

    def __hash__(self) -> int:
        return hash(self._bits())

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {v!r}" for n, v in sorted(self._bindings.items(), key=lambda kv: kv[0].name))
        return "State({" + inner + "})"

    def __setattr__(self, *_):
        raise AttributeError("State is immutable")


# ---------------------------------------------------------------------------
# Scan-cycle model


@dataclass(frozen=True)
class PlantSpec:
    """Continuous dynamics of one scan cycle.

    `odes` excludes the clock equation (`clock' = 1` is implied), and
    `domain` is the evolution constraint with the mandatory clock bound
    removed; the bound term (symbolic name or concrete number) is kept in
    `bound`.
    """

    odes: tuple[tuple[Ident, Term], ...]
    clock: Ident
    domain: Formula
    bound: Term

    def __post_init__(self):
        if self.domain.dialect == ST:
            raise DialectError("evolution domain must be an HP-dialect formula")
        if not isinstance(self.bound, (Var, Number)):
            raise ValueError("clock bound must be a variable or a number literal")
        _reject_duplicate_odes(self.odes, self.clock)

    def state_vars(self) -> tuple[Ident, ...]:
        return tuple(x for x, _ in self.odes)


@dataclass(frozen=True)
class ScanCycleModel:
    """A validated scan-cycle hybrid system: assumptions, the repeated
    input/control/plant body, the cycle duration, and the safety property."""

    assumptions: Formula
    inputs: tuple[Ident, ...]
    ctrl: Program
    plant: PlantSpec
    epsilon: Union[float, Ident]
    safety: Formula

    def __post_init__(self):
        if self.assumptions.dialect == ST or self.safety.dialect == ST:
            raise DialectError("assumptions and safety must be HP-dialect formulas")
        clock = self.plant.clock
        if clock in self.inputs or clock in collect_vars(self.ctrl):
            raise NotNormalForm(f"plant clock {clock} appears in ctrl or inputs")
