"""Closure compilation of terms, formulas and ST statements.

`compile_term`, `compile_formula` and `compile_st` turn a tree, once, into
nested Python closures over a flat list of floats (Feeley & Lapalme, "Using
closures for code generation", Computer Languages 12(1), 1987). A `Layout`
maps each variable to its slot in that list; a slot holds None while its
variable is unbound.

The closures are a faster form of the reference interpreters `eval_term`,
`eval_formula` and `run_st`, not a second semantics: both take what each
operator computes from `semantics.OPERATORS` and `semantics.divide`. The
closures apply them in the same order, left operand before right;
connectives stay strict, so both sides are evaluated and an error on the
right still propagates; and reading an unbound slot raises
`UnboundVariable` at the point where the tree walk would read it. The tests
hold them to the interpreters bit for bit, and to the class of every error
raised.

A term or formula compiles in one fold over its tree (`ir.fold`), so any
length compiles in bounded stack; the closures it builds still run one
Python frame per level, so a tree deeper than MAX_DEPTH is refused.
"""

from __future__ import annotations

from typing import Callable

from .errors import PlchpError, UnboundVariable
from .ir import (
    Assign, BoolConst, DIV, Formula, Ident, IfThen, IfThenElse,
    Neg, Not, Number, POW, Program, Seq, State, Term, Var, fold, operator_key,
    seq_to_list,
)
from .semantics import OPERATORS, divide

Slots = list  # list[Optional[float]], indexed by a Layout's slots
TermFn = Callable[[Slots], float]
FormulaFn = Callable[[Slots], bool]
StatementFn = Callable[[Slots], None]


class Layout:
    """Variable-to-slot map shared by the closures compiled for one run.
    Compiling a tree adds a slot for every variable it mentions; `names`
    gives the first slots, in order."""

    def __init__(self, names=()):
        self.slots: dict[Ident, int] = {}
        self.names: list[Ident] = []
        for name in names:
            self.slot(name)

    def slot(self, name: Ident) -> int:
        i = self.slots.get(name)
        if i is None:
            i = self.slots[name] = len(self.names)
            self.names.append(name)
        return i

    def load(self, s: State) -> Slots:
        """The values of `s` by slot, None where unbound."""
        return s.values_at(self.names)

    def store(self, s: State, values: Slots) -> State:
        """`s` updated with every bound slot of `values`."""
        return s.set_many({x: value for x, value in zip(self.names, values) if value is not None})

    def state(self, values) -> State:
        """The State binding every bound slot of `values`."""
        return State({x: value for x, value in zip(self.names, values) if value is not None})


def read(values: Slots, i: int, name: Ident) -> float:
    """Slot `i`, which holds `name`; raises when it is unbound."""
    value = values[i]
    if value is None:
        raise UnboundVariable(name)
    return value


def _deferred(error: str):
    """A closure raising TypeError when run, as the interpreters do on a
    node they cannot execute; a branch never taken never raises."""
    def fail(v):
        raise TypeError(error)
    return fail


# Deepest expression, counted in nodes from root to leaf, that compiles. A
# closure calls its operands' closures, one Python frame per level. At 300
# that fits inside the default recursion limit of 1000 with room left for
# the caller's frames (a test runner or a tracer adds dozens); the message
# of a division by zero prints its term with the iterative dL printer, so
# it needs no stack of its own.
MAX_DEPTH = 300


def compile_term(t: Term, layout: Layout) -> TermFn:
    if not isinstance(t, Term):
        return _deferred(f"not a term: {type(t).__name__}")
    return _compile(t, layout)


def compile_formula(f: Formula, layout: Layout) -> FormulaFn:
    if not isinstance(f, Formula):
        return _deferred(f"not a formula: {type(f).__name__}")
    return _compile(f, layout)


def _compile(node, layout: Layout):
    """One fold over the expression, building each node's closure from its
    operands' closures. Alongside, it counts each node's depth and refuses a
    tree deeper than MAX_DEPTH."""
    def combine(n, kids):
        depth = 1 + max([d for _, d in kids], default=0)
        if depth > MAX_DEPTH:
            raise PlchpError(
                f"expression nested too deeply to compile (more than {MAX_DEPTH} levels)")
        return _closure(n, [f for f, _ in kids], layout), depth
    return fold(node, combine)[0]


def _closure(n, kids, layout: Layout):
    """The closure for node `n`, given its operands' closures `kids`."""
    cls = n.__class__
    if cls is Number or cls is BoolConst:
        value = n.value
        return lambda v: value
    if cls is Var:
        name = n.ident
        i = layout.slot(name)
        return lambda v: read(v, i, name)
    if cls is Neg:
        f, = kids
        return lambda v: -f(v)
    if cls is Not:
        a, = kids
        return lambda v: not a(v)
    key = operator_key(n)
    if key == DIV:
        f, g = kids
        return lambda v: divide(f(v), g(v), n)
    op = OPERATORS[key]
    if key != POW:
        return _binary(op, n, kids, layout)
    f, g = kids
    return lambda v: op(f(v), g(v))


def _binary(op, n, kids, layout: Layout) -> Callable[[Slots], object]:
    """`op(left, right)` for the operands of `n`. A variable or number
    operand is read inline rather than through its closure, which saves
    most of the calls in a typical right-hand side or comparison; the reads
    keep their order and their unbound check. A connective's operands are
    formulas, so it takes the last case: both sides run, left first, and
    the connective stays strict."""
    left, right = n.left, n.right
    if left.__class__ is Var and right.__class__ is Var:
        x, y = left.ident, right.ident
        i, j = layout.slot(x), layout.slot(y)

        def var_var(v):
            a = v[i]
            if a is None:
                raise UnboundVariable(x)
            b = v[j]
            if b is None:
                raise UnboundVariable(y)
            return op(a, b)
        return var_var
    if left.__class__ is Var and right.__class__ is Number:
        x, b = left.ident, right.value
        i = layout.slot(x)

        def var_number(v):
            a = v[i]
            if a is None:
                raise UnboundVariable(x)
            return op(a, b)
        return var_number
    if left.__class__ is Number and right.__class__ is Var:
        a, y = left.value, right.ident
        j = layout.slot(y)

        def number_var(v):
            b = v[j]
            if b is None:
                raise UnboundVariable(y)
            return op(a, b)
        return number_var
    f, g = kids
    if right.__class__ is Var:
        y = right.ident
        j = layout.slot(y)

        def term_var(v):
            a = f(v)
            b = v[j]
            if b is None:
                raise UnboundVariable(y)
            return op(a, b)
        return term_var
    return lambda v: op(f(v), g(v))


def compile_st(p: Program, layout: Layout) -> StatementFn:
    """A loop-free ST statement as a closure that updates the slots in
    place. On an error the slots are left part-way; callers discard them."""
    if isinstance(p, Assign):
        i = layout.slot(p.target)
        f = compile_term(p.value, layout)

        def assign(v):
            v[i] = f(v)
        return assign
    if isinstance(p, Seq):
        steps = [compile_st(s, layout) for s in seq_to_list(p)]

        def seq(v):
            for step in steps:
                step(v)
        return seq
    if isinstance(p, (IfThen, IfThenElse)):
        # An ELSIF chain nests in the else branches; compile it as one list
        # of arms that one loop runs.
        arms = []
        while isinstance(p, (IfThen, IfThenElse)):
            arms.append((compile_formula(p.cond, layout), compile_st(p.then, layout)))
            p = p.else_ if isinstance(p, IfThenElse) else None
        else_ = None if p is None else compile_st(p, layout)

        def if_chain(v):
            for cond, then in arms:
                if cond(v):
                    then(v)
                    return
            if else_ is not None:
                else_(v)
        return if_chain
    return _deferred(f"run_st executes ST statements, not {type(p).__name__}")
