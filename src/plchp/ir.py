"""Shared AST, state, and scan-cycle model types.

Both surface languages (the PLC structured-text subset and the translatable
hybrid-program fragment) share one term language and one pool of program
constructors. Formulas carry an inferred dialect ("hp", "st", or None when
valid in both) so connectives that exist in only one language cannot leak
into the other: the constructors refuse to mix dialects.

Everything in this module is immutable after construction and safe to share
between threads. The leaves (identifiers, variables, number literals and
truth values) are interned: one object per process for each name, lexeme or
truth value, so `==` on them is `is`.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import FrozenInstanceError, dataclass, field
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

# The lexemes of a name and of a number literal, the same in both surface
# syntaxes: `_syntax` builds its lexer from them, and `Ident` and `Number`
# check what they are given against them.
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
NUMBER = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_IDENT_RE = re.compile(IDENT + r"\Z")
_NUMBER_RE = re.compile(NUMBER + r"\Z")

# Formula dialects.
HP = "hp"
ST = "st"

Pos = tuple  # (line, col), attached by the parsers, excluded from equality


# ---------------------------------------------------------------------------
# Tree nodes

_set = object.__setattr__


class Node:
    """Base class of identifiers, terms, formulas and statements: slotted
    and immutable, as a frozen dataclass is. `FIELDS` names a class's fields
    in constructor order; `==` and `hash` read one pre-order flattening of
    them (not `pos`) and of the items of a tuple field, `repr` writes them,
    and each works on an explicit stack, so any depth is in reach of each.

    A class that declares `FIELDS` and no `__init__` gets a constructor with
    one parameter per field, in that order, and `pos` by keyword on a
    statement. It stores them, then calls the class's `__post_init__`, if
    any, which checks them and sets derived fields.

    A class declared with `interned=True` is a leaf of one field, and its
    constructor returns the one node for each value of that field: it looks
    the value up in the class's table, `interned`, and only on a miss builds
    and checks a node, then stores it. A refused value is not stored. So
    `==` is `is`, and `==` and `hash` are object's own, in C; copying and
    unpickling go through the constructor and give back the same node."""

    __slots__ = ()
    FIELDS: tuple[str, ...] = ()
    interned: Optional[dict] = None  # an interned class's table: value -> its node

    def __init_subclass__(cls, interned=False):
        # The constructor is compiled once per class, as a dataclass's is.
        if "FIELDS" not in cls.__dict__ or "__init__" in cls.__dict__:
            return
        params, body = [*cls.FIELDS], [f"_set(self, {f!r}, {f})" for f in cls.FIELDS]
        if hasattr(cls, "pos"):  # statements inherit `Program`'s `pos` slot
            params += ["*", "pos=None"]
            body.append("_set(self, 'pos', pos)")
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {"_set": _set, "__name__": __name__, "new": object.__new__}
        if interned:
            # A miss, or an unhashable value, which the checks then refuse,
            # builds a node. Of two threads racing on a new value, both get
            # the first insert.
            (f,) = params
            namespace["table"] = cls.interned = {}
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
            name, params = "__new__", ["cls", f]
            body = [f"try:\n        return table[{f}]\n    except (KeyError, TypeError):\n        pass",
                    "self = new(cls)", *body, f"return table.setdefault({f}, self)"]
        else:
            name, params = "__init__", ["self", *params]
        exec(f"def {name}({', '.join(params)}):\n    " + "\n    ".join(body), namespace)
        setattr(cls, name, namespace[name])
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _flat(self) -> list:
        """Each node's class, then its fields, and each tuple's `tuple` and
        length, then its items, in place of the node or tuple; an interned
        leaf stands for itself. Equal trees give equal lists."""
        flat, stack = [], [self]
        while stack:
            n = stack.pop()
            if n.__class__ is tuple:
                flat += (tuple, len(n))
                stack += reversed(n)
            elif isinstance(n, Node) and n.interned is None:
                flat.append(n.__class__)
                stack += [getattr(n, name) for name in reversed(n.FIELDS)]
            else:
                flat.append(n)
        return flat

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._flat() == other._flat()

    def __hash__(self) -> int:
        return hash(tuple(self._flat()))

    def __repr__(self) -> str:
        # The stack holds text to write, and nodes and tuples to write out.
        out, stack = [], [self]
        while stack:
            n = stack.pop()
            cls = n.__class__
            if cls is str:
                out.append(n)
                continue
            tup = cls is tuple
            items = zip([""] * len(n), n) if tup else [(f"{f}=", getattr(n, f)) for f in cls.FIELDS]
            parts = ["(" if tup else f"{cls.__qualname__}("]
            for i, (label, value) in enumerate(items):
                label = f"{', ' if i else ''}{label}"
                parts += (label, value) if isinstance(value, (Node, tuple)) else (f"{label}{value!r}",)
            stack += reversed((*parts, ",)" if tup and len(n) == 1 else ")"))
        return "".join(out)

    def __reduce__(self):
        # The constructor call, then `pos`, which constructors take by keyword.
        fields = tuple(map(self.__getattribute__, self.FIELDS))
        return self.__class__, fields, getattr(self, "pos", None)

    def __setstate__(self, pos):
        _set(self, "pos", pos)


class Ident(Node, interned=True):
    """A variable name, valid in both surface syntaxes; a name is checked
    the first time it is seen. Interned, like every leaf: every dict and set
    keyed by variables (states, trace rows, layouts) compares and hashes its
    keys in C."""

    __slots__ = FIELDS = ("name",)

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


class Term(Node):
    """Base class for arithmetic terms (shared by both languages)."""

    __slots__ = ()


def _terms(*terms) -> None:
    """TypeError unless each of `terms` is a term."""
    for t in terms:
        if not isinstance(t, Term):
            raise TypeError(f"not a term: {type(t).__name__}")


class Number(Term, interned=True):
    """Numeric literal. The source lexeme is kept so printing is lossless;
    there is one literal per lexeme, and `value` is its float. A lexeme past
    the range of binary64 (value `inf`) is refused."""

    FIELDS = ("lexeme",)
    __slots__ = (*FIELDS, "value")

    def __post_init__(self):
        if not _NUMBER_RE.match(self.lexeme):
            raise ValueError(f"invalid number literal: {self.lexeme!r}")
        value = float(self.lexeme)
        if math.isinf(value):
            raise ValueError(f"number literal out of range: {self.lexeme!r}")
        _set(self, "value", value)


class Var(Term, interned=True):
    __slots__ = FIELDS = ("ident",)

    def __str__(self) -> str:
        return self.ident.name


class Neg(Term):
    __slots__ = FIELDS = ("operand",)

    def __post_init__(self):
        _terms(self.operand)


class BinOp(Term):
    __slots__ = FIELDS = ("op", "left", "right")  # op: one of BINARY_OPS

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator: {self.op!r}")
        _terms(self.left, self.right)


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


def _dialect(f) -> Optional[str]:
    """The dialect of formula `f`; TypeError if `f` is not a formula."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {type(f).__name__}")
    return f.dialect


def _merge_dialects(node: str, own: Optional[str], children) -> Optional[str]:
    merged = own
    for child in children:
        d = _dialect(child)
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


class BoolConst(Formula, interned=True):
    __slots__ = FIELDS = ("value",)


class Cmp(Formula):
    __slots__ = FIELDS = ("rel", "left", "right")  # rel: one of RELATIONS

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise ValueError(f"unknown relation: {self.rel!r}")
        _terms(self.left, self.right)


class Not(Formula):
    FIELDS = ("operand",)
    __slots__ = (*FIELDS, "dialect")

    def __post_init__(self):
        _set(self, "dialect", _merge_dialects("NOT", None, (self.operand,)))


class Connective(Formula):
    """A binary connective. Each subclass sets its `spelling` (the name
    dialect errors give it) and its `own` dialect, None when both languages
    have it."""

    FIELDS = ("left", "right")
    __slots__ = (*FIELDS, "dialect")

    def __post_init__(self):
        _set(self, "dialect", _merge_dialects(self.spelling, self.own, (self.left, self.right)))


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
# The two languages share Assign and Seq. A statement list of either
# language is one flat Seq, or its lone statement. IfThen belongs to the ST
# statement language, GuardedChoice to the translatable hybrid-program
# fragment. RandomAssign, TestStmt, OdeSystem, Loop, and Choice only appear
# in raw parsed hybrid programs (the scan-cycle wrapper and ill-formed
# inputs); validation rejects them inside a controller. A statement's `pos`
# is its (line, col) in the source it was parsed from, or that of the
# statement it was translated from, or None.


class Program(Node):
    """Base class for statements of both languages."""

    __slots__ = ("pos",)  # unset on a Seq


def _statements(*stmts) -> tuple:
    """`stmts`, if each is a statement; else TypeError."""
    for s in stmts:
        if not isinstance(s, Program):
            raise TypeError(f"not a statement: {type(s).__name__}")
    return stmts


class Assign(Program):
    __slots__ = FIELDS = ("target", "value")

    def __post_init__(self):
        _terms(self.value)


class Seq(Program):
    """`a; b; c`: two or more statements, none a Seq. The constructor splices
    in any Seq it is given, so every grouping builds the same node."""

    __slots__ = FIELDS = ("stmts",)

    def __init__(self, *stmts: Program):
        flat = []
        for s in stmts:
            flat += s.stmts if s.__class__ is Seq else (s,)
        if len(flat) < 2:
            raise TypeError(f"a Seq holds two or more statements, not {len(flat)}")
        _set(self, "stmts", _statements(*flat))

    def __reduce__(self):
        return Seq, self.stmts


class IfThen(Program):
    """ST conditional; `else_` is None when there is no ELSE branch, as in
    GuardedChoice."""

    __slots__ = FIELDS = ("cond", "then", "else_")

    def __init__(self, cond: Formula, then: Program, else_: Optional[Program] = None, *,
                 pos: Optional[Pos] = None):
        if _dialect(cond) == HP:
            raise DialectError("IF condition must be an ST-dialect formula")
        _set(self, "cond", cond)
        _set(self, "then", then)
        _set(self, "else_", else_)
        _set(self, "pos", pos)
        _statements(*_branches(self))


class GuardedChoice(Program):
    """Nondeterministic choice whose left branch opens with a test.

    complemented=True means the right branch is guarded by the negated test
    (if-then-else when `else_` is present, if-then when absent);
    complemented=False is the default-beta form, where `else_` is an
    unguarded branch that may run regardless of the guard.
    """

    __slots__ = FIELDS = ("guard", "then", "else_", "complemented")

    def __post_init__(self):
        if _dialect(self.guard) == ST:
            raise DialectError("choice guard must be an HP-dialect formula")
        _statements(*_branches(self))
        if not self.complemented and self.else_ is None:
            raise ValueError("default-beta choice requires an explicit default branch")


class RandomAssign(Program):
    """Nondeterministic assignment `x := *`; legal only in the input section."""

    __slots__ = FIELDS = ("target",)


class TestStmt(Program):
    """A bare test `?F`; legal only as the head of a choice branch."""

    __test__ = False  # not a pytest class
    __slots__ = FIELDS = ("cond",)

    def __post_init__(self):
        if _dialect(self.cond) == ST:
            raise DialectError("test condition must be an HP-dialect formula")


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

    def __post_init__(self):
        if _dialect(self.domain) == ST:
            raise DialectError("evolution domain must be an HP-dialect formula")
        _reject_duplicate_odes(self.odes)


class Loop(Program):
    """Raw parsed repetition `{p}*`; legal only around the scan cycle body."""

    __slots__ = FIELDS = ("body",)

    def __post_init__(self):
        _statements(self.body)


class Choice(Program):
    """Raw parsed choice whose left branch does not open with a test."""

    __slots__ = FIELDS = ("left", "right")

    def __post_init__(self):
        _statements(self.left, self.right)


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
    Seq: lambda n: n.stmts,
    IfThen: lambda n: (n.cond, n.then) if n.else_ is None else (n.cond, n.then, n.else_),
    GuardedChoice: lambda n: (n.guard, n.then) if n.else_ is None else (n.guard, n.then, n.else_),
    TestStmt: lambda n: (n.cond,),
    OdeSystem: lambda n: (*(rhs for _, rhs in n.odes), n.domain),
    Loop: lambda n: (n.body,),
}

# Tables cut down to some classes make the other nodes leaves: a walk or fold
# over one does not enter them, and meets them in source order, so a walker
# can reject them there. The statements of either language, and an ST tree
# with its terms and formulas, in which hybrid-program statements are leaves.
ST_STATEMENTS = {Seq: CHILDREN[Seq], IfThen: _branches}
HP_STATEMENTS = {Seq: CHILDREN[Seq], GuardedChoice: _branches}
ST_CHILDREN = {cls: kids for cls, kids in CHILDREN.items()
               if not issubclass(cls, Program) or cls in (Assign, Seq, IfThen)}
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
    nodes, counts = [], []
    stack = [node]
    pop, push, visit, count = stack.pop, stack.extend, nodes.append, counts.append
    while stack:
        n = pop()
        visit(n)
        kids = get(n.__class__)
        if kids is None:
            count(0)
        else:
            kids = kids(n)
            count(len(kids))
            push(kids)
    results = []
    keep = results.append
    for n, k in zip(reversed(nodes), reversed(counts)):
        if k:
            args = results[-k:]
            del results[-k:]
            keep(combine(n, args))
        else:
            keep(combine(n, ()))
    return results[0]


def flatten(rope, pad: str, step: str) -> list[str]:
    """The lines of the ropes in list `rope`, each after `pad` and its
    indent. A rope is a line, a list of ropes at its own level, or a tuple
    of ropes one `step` deeper (Boehm, Atkinson & Plass, "Ropes: an
    alternative to strings", 1995): a printer holds its parts' ropes without
    copying them, and this lays out the whole once, on an explicit stack."""
    out, stack = [], []  # stack: the open ropes around `items`, with their pads
    keep, push, pop = out.append, stack.append, stack.pop
    items = iter(rope)
    while True:
        for item in items:
            if item.__class__ is str:
                keep(pad + item)
            else:
                push((items, pad))
                items = iter(item)
                if item.__class__ is tuple:
                    pad += step
                break
        else:
            if not stack:
                return out
            items, pad = pop()


def operator_key(n):
    """What names the operator of node `n`: a BinOp's operator, a Cmp's
    relation, or else the node's class."""
    cls = n.__class__
    return n.op if cls is BinOp else n.rel if cls is Cmp else cls


def seq_to_list(p: Program) -> list[Program]:
    """The statement list that `p` is: a Seq's statements, or `p` alone."""
    return list(p.stmts) if p.__class__ is Seq else [p]


def list_to_seq(stmts) -> Program:
    """The lone statement of a non-empty statement list, or a Seq of them all."""
    stmts = tuple(stmts)
    if not stmts:
        raise ValueError("empty statement list")
    return stmts[0] if len(stmts) == 1 else Seq(*stmts)


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


@dataclass(frozen=True)
class VarSets:
    """Free, bound, and must-bound (bound on all paths) variables."""

    free: frozenset[Ident]
    bound: frozenset[Ident]
    must_bound: frozenset[Ident]

    def __post_init__(self):
        if not self.must_bound <= self.bound:
            raise ValueError("must-bound variables must be a subset of bound variables")


@dataclass(frozen=True)
class ProgramFacts:
    """A program's VarSets; the variables it reads and assigns, in first-seen
    order; those it only ever assigns the literal 0 or 1."""

    var_sets: VarSets
    read: tuple[Ident, ...]
    assigned: tuple[Ident, ...]
    zero_one: frozenset[Ident]


# The translatable statements of both languages, with their terms and formulas.
_FACT_CHILDREN = {**ST_CHILDREN, GuardedChoice: CHILDREN[GuardedChoice]}


def program_facts(p: Program) -> ProgramFacts:
    """The facts of a translatable program (ST statements included), from one
    fold over it, its guards and right-hand sides; TypeError on any other
    statement. Assignment: FV = vars(rhs), BV = MBV = {target}. Sequence:
    FV(a) united with FV(b) minus MBV(a); BV and MBV are unions.
    Conditionals: the guard's variables are free, BV is the union of the
    branches, MBV the intersection (an absent branch contributes nothing).
    Only a parent reads the sets of its children, so each step grows the
    larger operand in place: Seq and ELSIF chains cost linear set work."""
    read, assigned = {}, {}  # assigned: variable -> only ever assigned 0 or 1

    def combine(n, kids):
        cls = n.__class__
        if cls is Assign:
            ok = n.value.__class__ is Number and n.value.value in (0.0, 1.0)
            assigned[n.target] = assigned.get(n.target, True) and ok
            return kids[0], {n.target}, {n.target}
        if cls is Seq:
            free, bound, must = kids[0]
            for f, b, m in kids[1:]:
                f -= must  # iterates the smaller of the two sets
                free, bound, must = _grow(free, f), _grow(bound, b), _grow(must, m)
            return free, bound, must
        if cls is IfThen or cls is GuardedChoice:
            guard, (ft, bt, mt), (fe, be, me) = (
                kids if len(kids) == 3 else (*kids, (set(), set(), set())))
            return _grow(_grow(guard, ft), fe), _grow(bt, be), mt & me
        if n is p or isinstance(n, Program):
            raise TypeError(f"var_sets is defined on the translatable fragment, not {cls.__name__}")
        if cls is Var:
            read[n.ident] = None
            return {n.ident}
        return _grow(*kids) if len(kids) == 2 else kids[0] if kids else set()

    free, bound, must = fold(p, combine, _FACT_CHILDREN)
    return ProgramFacts(VarSets(frozenset(free), frozenset(bound), frozenset(must)), tuple(read),
                        tuple(assigned), frozenset(x for x, ok in assigned.items() if ok))


def _grow(a: set, b: set) -> set:
    if len(a) < len(b):
        a, b = b, a
    a |= b
    return a


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
        if _dialect(self.domain) == ST:
            raise DialectError("evolution domain must be an HP-dialect formula")
        if not isinstance(self.bound, (Var, Number)):
            raise ValueError("clock bound must be a variable or a number literal")
        _reject_duplicate_odes(self.odes, self.clock)

    def state_vars(self) -> tuple[Ident, ...]:
        return tuple(x for x, _ in self.odes)


@dataclass(frozen=True)
class ScanCycleModel:
    """A validated scan-cycle hybrid system: assumptions, the repeated input/control/plant
    body, the cycle duration, the safety property, and the facts of `ctrl`, derived once."""

    assumptions: Formula
    inputs: tuple[Ident, ...]
    ctrl: Program
    plant: PlantSpec
    epsilon: Union[float, Ident]
    safety: Formula
    facts: ProgramFacts = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if _dialect(self.assumptions) == ST or _dialect(self.safety) == ST:
            raise DialectError("assumptions and safety must be HP-dialect formulas")
        facts = program_facts(self.ctrl)
        clock = self.plant.clock
        if clock in self.inputs or clock in facts.read or clock in facts.assigned:
            raise NotNormalForm(f"plant clock {clock} appears in ctrl or inputs")
        object.__setattr__(self, "facts", facts)
