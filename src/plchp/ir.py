"""Shared AST, state, and scan-cycle model types.

Both surface languages (the PLC structured-text subset and the translatable
hybrid-program fragment) share one term language and one pool of program
constructors. Formulas carry an inferred dialect ("hp", "st", or None when
valid in both) so connectives that exist in only one language cannot leak
into the other: the constructors refuse to mix dialects.

Everything in this module is immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .errors import DialectError, UnboundVariable

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


@dataclass(frozen=True)
class Ident:
    """A variable name, valid in both surface syntaxes."""

    name: str

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise ValueError(f"invalid identifier: {self.name!r}")
        if self.name.upper() in RESERVED_WORDS:
            raise ValueError(f"reserved keyword cannot be an identifier: {self.name!r}")

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Terms

ADD, SUB, MUL, DIV, POW = "add", "sub", "mul", "div", "pow"
BINARY_OPS = (ADD, SUB, MUL, DIV, POW)


@dataclass(frozen=True)
class Term:
    """Base class for arithmetic terms (shared by both languages)."""


@dataclass(frozen=True)
class Number(Term):
    """Numeric literal. The source lexeme is kept so printing is lossless;
    two literals are equal only if their lexemes agree."""

    lexeme: str

    def __post_init__(self):
        if not _NUMBER_RE.match(self.lexeme):
            raise ValueError(f"invalid number literal: {self.lexeme!r}")

    @property
    def value(self) -> float:
        return float(self.lexeme)

    @classmethod
    def from_value(cls, value: float) -> "Number":
        return cls(number_lexeme(value))


@dataclass(frozen=True)
class Var(Term):
    ident: Ident

    def __str__(self) -> str:
        return self.ident.name


@dataclass(frozen=True)
class Neg(Term):
    operand: Term


@dataclass(frozen=True)
class BinOp(Term):
    op: str  # one of BINARY_OPS
    left: Term
    right: Term

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator: {self.op!r}")


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


@dataclass(frozen=True)
class Formula:
    """Base class for boolean formulas.

    `dialect` is "hp" when the tree contains a connective only hybrid
    programs have (->, <->), "st" when it contains XOR, and None when the
    formula is valid in both languages.
    """

    @property
    def dialect(self) -> Optional[str]:
        return getattr(self, "_dialect", None)


@dataclass(frozen=True)
class BoolConst(Formula):
    value: bool


@dataclass(frozen=True)
class Cmp(Formula):
    rel: str  # one of RELATIONS
    left: Term
    right: Term

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise ValueError(f"unknown relation: {self.rel!r}")


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula

    def __post_init__(self):
        object.__setattr__(self, "_dialect", _merge_dialects("NOT", None, (self.operand,)))


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __post_init__(self):
        object.__setattr__(self, "_dialect", _merge_dialects("AND", None, (self.left, self.right)))


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __post_init__(self):
        object.__setattr__(self, "_dialect", _merge_dialects("OR", None, (self.left, self.right)))


@dataclass(frozen=True)
class Imply(Formula):
    """Implication; hybrid-program dialect only."""

    left: Formula
    right: Formula

    def __post_init__(self):
        object.__setattr__(self, "_dialect", _merge_dialects("->", HP, (self.left, self.right)))


@dataclass(frozen=True)
class Equiv(Formula):
    """Biconditional; hybrid-program dialect only."""

    left: Formula
    right: Formula

    def __post_init__(self):
        object.__setattr__(self, "_dialect", _merge_dialects("<->", HP, (self.left, self.right)))


@dataclass(frozen=True)
class Xor(Formula):
    """Exclusive or; structured-text dialect only."""

    left: Formula
    right: Formula

    def __post_init__(self):
        object.__setattr__(self, "_dialect", _merge_dialects("XOR", ST, (self.left, self.right)))


TRUE = BoolConst(True)
FALSE = BoolConst(False)


def conjuncts(f: Formula) -> list[Formula]:
    """Flatten a conjunction tree into its list of conjuncts."""
    if isinstance(f, And):
        return conjuncts(f.left) + conjuncts(f.right)
    return [f]


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
# The two languages share Assign and Seq. IfThen/IfThenElse belong to the ST
# statement language, GuardedChoice to the translatable hybrid-program
# fragment. RandomAssign, TestStmt, OdeSystem, Loop, and Choice only appear
# in raw parsed hybrid programs (the scan-cycle wrapper and ill-formed
# inputs); validation rejects them inside a controller.


@dataclass(frozen=True)
class Program:
    """Base class for statements of both languages."""


@dataclass(frozen=True)
class Assign(Program):
    target: Ident
    value: Term
    pos: Optional[Pos] = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Seq(Program):
    first: Program
    second: Program


@dataclass(frozen=True)
class IfThen(Program):
    """ST conditional without an else branch."""

    cond: Formula
    then: Program
    pos: Optional[Pos] = field(default=None, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        if self.cond.dialect == HP:
            raise DialectError("IF condition must be an ST-dialect formula")


@dataclass(frozen=True)
class IfThenElse(Program):
    cond: Formula
    then: Program
    else_: Program
    pos: Optional[Pos] = field(default=None, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        if self.cond.dialect == HP:
            raise DialectError("IF condition must be an ST-dialect formula")


@dataclass(frozen=True)
class GuardedChoice(Program):
    """Nondeterministic choice whose left branch opens with a test.

    complemented=True means the right branch is guarded by the negated test
    (if-then-else when `else_` is present, if-then when absent);
    complemented=False is the default-beta form, where `else_` is an
    unguarded branch that may run regardless of the guard.
    """

    guard: Formula
    then: Program
    else_: Optional[Program]
    complemented: bool
    pos: Optional[Pos] = field(default=None, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        if self.guard.dialect == ST:
            raise DialectError("choice guard must be an HP-dialect formula")
        if not self.complemented and self.else_ is None:
            raise ValueError("default-beta choice requires an explicit default branch")


@dataclass(frozen=True)
class RandomAssign(Program):
    """Nondeterministic assignment `x := *`; legal only in the input section."""

    target: Ident
    pos: Optional[Pos] = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class TestStmt(Program):
    """A bare test `?F`; legal only as the head of a choice branch."""

    __test__ = False  # not a pytest class

    cond: Formula
    pos: Optional[Pos] = field(default=None, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        if self.cond.dialect == ST:
            raise DialectError("test condition must be an HP-dialect formula")


@dataclass(frozen=True)
class OdeSystem(Program):
    """Raw parsed differential equation system `{x'=e, ... & domain}`."""

    odes: tuple[tuple[Ident, Term], ...]
    domain: Formula
    pos: Optional[Pos] = field(default=None, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        if self.domain.dialect == ST:
            raise DialectError("evolution domain must be an HP-dialect formula")
        seen = set()
        for x, _ in self.odes:
            if x in seen:
                raise ValueError(f"duplicate differential equation for {x}")
            seen.add(x)


@dataclass(frozen=True)
class Loop(Program):
    """Raw parsed repetition `{p}*`; legal only around the scan cycle body."""

    body: Program
    pos: Optional[Pos] = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Choice(Program):
    """Raw parsed choice whose left branch does not open with a test."""

    left: Program
    right: Program
    pos: Optional[Pos] = field(default=None, compare=False, repr=False, kw_only=True)


def seq_to_list(p: Program) -> list[Program]:
    """Flatten a Seq tree into the statement list it folds."""
    if isinstance(p, Seq):
        return seq_to_list(p.first) + seq_to_list(p.second)
    return [p]


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
    _collect(node, out)
    return out


def _collect(node, out: set[Ident]) -> None:
    if isinstance(node, Number) or isinstance(node, BoolConst):
        return
    if isinstance(node, Var):
        out.add(node.ident)
    elif isinstance(node, Neg):
        _collect(node.operand, out)
    elif isinstance(node, BinOp):
        _collect(node.left, out)
        _collect(node.right, out)
    elif isinstance(node, Cmp):
        _collect(node.left, out)
        _collect(node.right, out)
    elif isinstance(node, Not):
        _collect(node.operand, out)
    elif isinstance(node, (And, Or, Imply, Equiv, Xor)):
        _collect(node.left, out)
        _collect(node.right, out)
    elif isinstance(node, Assign):
        out.add(node.target)
        _collect(node.value, out)
    elif isinstance(node, Seq):
        _collect(node.first, out)
        _collect(node.second, out)
    elif isinstance(node, IfThen):
        _collect(node.cond, out)
        _collect(node.then, out)
    elif isinstance(node, IfThenElse):
        _collect(node.cond, out)
        _collect(node.then, out)
        _collect(node.else_, out)
    elif isinstance(node, GuardedChoice):
        _collect(node.guard, out)
        _collect(node.then, out)
        if node.else_ is not None:
            _collect(node.else_, out)
    elif isinstance(node, RandomAssign):
        out.add(node.target)
    elif isinstance(node, TestStmt):
        _collect(node.cond, out)
    elif isinstance(node, OdeSystem):
        for x, rhs in node.odes:
            out.add(x)
            _collect(rhs, out)
        _collect(node.domain, out)
    elif isinstance(node, Loop):
        _collect(node.body, out)
    elif isinstance(node, Choice):
        _collect(node.left, out)
        _collect(node.right, out)
    else:
        raise TypeError(f"cannot collect variables from {type(node).__name__}")


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
        seen = {self.clock}
        for x, _ in self.odes:
            if x in seen:
                raise ValueError(f"duplicate differential equation for {x}")
            seen.add(x)

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
            raise ValueError(f"plant clock {clock} must not appear in ctrl or inputs")
