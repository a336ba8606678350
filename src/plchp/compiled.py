"""Closure compilation of terms, formulas and ST statements.

`compile_term`, `compile_formula` and `compile_st` turn a tree, once, into
nested Python closures over a flat list of floats (Feeley & Lapalme, "Using
closures for code generation", Computer Languages 12(1), 1987). A `Layout`
maps each variable to its slot in that list; a slot holds None while its
variable is unbound.

The closures are a faster form of the reference interpreters `eval_term`,
`eval_formula` and `run_st`, not a second semantics. They perform the same
float operations in the same order, left operand before right; connectives
stay strict, so both sides are evaluated and an error on the right still
propagates; division and powers make the same checks with the same
messages; and reading an unbound slot raises `UnboundVariable` at the point
where the tree walk would read it. The tests hold them to the interpreters
bit for bit, and to the class of every error raised.
"""

from __future__ import annotations

import operator
from typing import Callable

from .errors import DivisionByZero, UnboundVariable
from .ir import (
    ADD, And, Assign, BinOp, BoolConst, Cmp, DIV, EQ, Equiv, Formula, GE, GT,
    Ident, IfThen, IfThenElse, Imply, LE, LT, MUL, NE, Neg, Not, Number, Or,
    POW, Program, SUB, Seq, State, Term, Var, Xor, seq_to_list,
)
from .semantics import power

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


def compile_term(t: Term, layout: Layout) -> TermFn:
    if isinstance(t, Number):
        value = t.value
        return lambda v: value
    if isinstance(t, Var):
        name = t.ident
        i = layout.slot(name)
        return lambda v: read(v, i, name)
    if isinstance(t, Neg):
        f = compile_term(t.operand, layout)
        return lambda v: -f(v)
    if isinstance(t, BinOp):
        if t.op in _ARITHMETIC:
            return _binary(_ARITHMETIC[t.op], t.left, t.right, layout)
        f = compile_term(t.left, layout)
        g = compile_term(t.right, layout)
        if t.op == DIV:
            def div(v):
                left = f(v)
                right = g(v)
                if right == 0.0:
                    raise DivisionByZero(f"division by zero in {t}")
                return left / right
            return div
        if t.op == POW:
            return lambda v: power(f(v), g(v))
    return _deferred(f"not a term: {type(t).__name__}")


_ARITHMETIC = {ADD: operator.add, SUB: operator.sub, MUL: operator.mul}
_RELATIONS = {
    EQ: operator.eq, NE: operator.ne, GT: operator.gt,
    GE: operator.ge, LT: operator.lt, LE: operator.le,
}


def _binary(op, left: Term, right: Term, layout: Layout) -> Callable[[Slots], object]:
    """`op(left, right)`. A variable or number operand is read inline
    rather than through a closure of its own, which saves most of the calls
    in a typical right-hand side or comparison; the reads keep their order
    and their unbound check."""
    if isinstance(left, Var) and isinstance(right, Var):
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
    if isinstance(left, Var) and isinstance(right, Number):
        x, b = left.ident, right.value
        i = layout.slot(x)

        def var_number(v):
            a = v[i]
            if a is None:
                raise UnboundVariable(x)
            return op(a, b)
        return var_number
    if isinstance(left, Number) and isinstance(right, Var):
        a, y = left.value, right.ident
        j = layout.slot(y)

        def number_var(v):
            b = v[j]
            if b is None:
                raise UnboundVariable(y)
            return op(a, b)
        return number_var
    f = compile_term(left, layout)
    if isinstance(right, Var):
        y = right.ident
        j = layout.slot(y)

        def term_var(v):
            a = f(v)
            b = v[j]
            if b is None:
                raise UnboundVariable(y)
            return op(a, b)
        return term_var
    g = compile_term(right, layout)
    return lambda v: op(f(v), g(v))


def compile_formula(f: Formula, layout: Layout) -> FormulaFn:
    if isinstance(f, BoolConst):
        value = f.value
        return lambda v: value
    if isinstance(f, Cmp):
        return _binary(_RELATIONS[f.rel], f.left, f.right, layout)
    if isinstance(f, Not):
        a = compile_formula(f.operand, layout)
        return lambda v: not a(v)
    if isinstance(f, (And, Or, Imply, Equiv, Xor)):
        a = compile_formula(f.left, layout)
        b = compile_formula(f.right, layout)
        if isinstance(f, And):
            def and_(v):
                left = a(v)
                right = b(v)
                return left and right
            return and_
        if isinstance(f, Or):
            def or_(v):
                left = a(v)
                right = b(v)
                return left or right
            return or_
        if isinstance(f, Imply):
            def imply(v):
                left = a(v)
                right = b(v)
                return (not left) or right
            return imply
        if isinstance(f, Equiv):
            return lambda v: a(v) == b(v)
        return lambda v: a(v) != b(v)
    return _deferred(f"not a formula: {type(f).__name__}")


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
