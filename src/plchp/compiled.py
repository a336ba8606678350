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

A term, formula or ST body compiles in one fold over its tree (`ir.fold`),
so any length compiles in bounded stack; the closures it builds still run
one Python frame per level, so a tree deeper than MAX_DEPTH is refused.

One loop runs as emitted Python source instead: `emit_rk4` writes a plant's
whole RK4 substep loop as one function, with the right-hand sides and the
evolution domain as straight-line assignments over locals, one per
operation, and `compile()`s it once. `Source` writes those assignments with
another fold over the same trees, and the tests hold it to the interpreters
the same way.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Optional

from .errors import PlchpError, UnboundVariable
from .ir import (
    CHILDREN, Assign, BoolConst, DIV, Formula, Ident, IfThen, Neg, Not, Number,
    POW, PlantSpec, Program, Seq, State, TRUE, Term, Var, collect_vars, fold,
    operator_key, seq_to_list,
)
from .semantics import OPERATORS, divide, power

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


# Deepest tree that compiles, counted in expression nodes and IF statements
# from root to leaf. A closure calls its children's closures, one Python
# frame per level; a statement list and an assignment add an uncounted frame,
# at most one of each between two IFs. So at most about 600 frames run, inside
# the default recursion limit of 1000 with room for the caller's. A division
# by zero prints its term with the iterative dL printer, which needs no stack.
MAX_DEPTH = 300


def compile_term(t: Term, layout: Layout) -> TermFn:
    if not isinstance(t, Term):
        return _deferred(f"not a term: {type(t).__name__}")
    return _compile(t, layout)


def compile_formula(f: Formula, layout: Layout) -> FormulaFn:
    if not isinstance(f, Formula):
        return _deferred(f"not a formula: {type(f).__name__}")
    return _compile(f, layout)


def compile_st(p: Program, layout: Layout) -> StatementFn:
    """A loop-free ST statement as a closure that updates the slots in
    place. On an error the slots are left part-way; callers discard them."""
    return _compile(p, layout)


def _arms(n: IfThen) -> list:
    """An IF and its ELSIF arms as one node: each condition and branch, then any ELSE."""
    kids = []
    while n.__class__ is IfThen:
        kids += (n.cond, n.then)
        n = n.else_
    if n is not None:
        kids.append(n)
    return kids


# The compile fold's children: a statement list and an IF chain are one node
# each, and the statements of hybrid programs are leaves.
_COMPILED = {
    **{cls: kids for cls, kids in CHILDREN.items() if not issubclass(cls, Program)},
    Assign: CHILDREN[Assign], Seq: seq_to_list, IfThen: _arms,
}


def _compile(node, layout: Layout):
    """One fold over the tree, building each node's closure from its
    children's closures. Alongside, it counts each node's depth and refuses a
    tree deeper than MAX_DEPTH."""
    def combine(n, kids):
        cls = n.__class__
        depth = max([d for _, d in kids], default=0) + (cls is not Seq and cls is not Assign)
        if depth > MAX_DEPTH:
            raise PlchpError(
                f"expression nested too deeply to compile (more than {MAX_DEPTH} levels)")
        return _closure(n, [f for f, _ in kids], layout), depth
    return fold(node, combine, _COMPILED)[0]


def _closure(n, kids, layout: Layout):
    """The closure for node `n`, given its children's closures `kids`."""
    cls = n.__class__
    if cls is Assign:
        i = layout.slot(n.target)
        f, = kids

        def assign(v):
            v[i] = f(v)
        return assign
    if cls is Seq:
        def seq(v):
            for step in kids:
                step(v)
        return seq
    if cls is IfThen:
        arms = list(zip(kids[0::2], kids[1::2]))
        else_ = kids[-1] if len(kids) % 2 else None

        def if_chain(v):
            for cond, then in arms:
                if cond(v):
                    then(v)
                    return
            if else_ is not None:
                else_(v)
        return if_chain
    if isinstance(n, Program):
        return _deferred(f"run_st executes ST statements, not {cls.__name__}")
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


# ---------------------------------------------------------------------------
# Emitted Python source

# The Python operator that computes each function of `OPERATORS` on floats
# and truth values. `_INFIX` reads each entry's symbol from it, so a new
# entry that is neither here nor `power` fails at import. Power, and
# division (not in `OPERATORS`), are calls of `power` and `divide`.
_SYMBOL = {
    operator.add: "+", operator.sub: "-", operator.mul: "*",
    operator.eq: "==", operator.ne: "!=", operator.gt: ">",
    operator.ge: ">=", operator.lt: "<", operator.le: "<=",
    operator.and_: "&", operator.or_: "|",
}
_INFIX = {key: _SYMBOL[f] for key, f in OPERATORS.items() if f is not power}


class Source:
    """A Python function being written as source: `line` adds a statement,
    `assign` the statements that evaluate a term or formula, and `define`
    compiles it all once and returns the function it defines.

    A term or formula is written one operation per assignment, in the
    closures' order: each operator of `OPERATORS` as the Python operator
    that computes it, division and power as calls of `divide` and `power`
    (a division's term bound as a constant, for its message), left operand
    before right, and the connectives strict. No line nests parentheses, so
    CPython's limit of 200 nested parentheses never applies. Literals are
    `repr` of their value (`inf`, for a literal past the float range, is
    bound as a constant). Variables are read from locals without an
    unbound check, so every variable a tree reads must be bound when it
    runs."""

    def __init__(self):
        self.lines: list[str] = []
        self.constants = {"divide": divide, "power": power, "inf": math.inf}
        self._temps = 0

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def assign(self, target: str, node, name: Callable[[Ident], str], indent: int) -> None:
        """Assignments at `indent` that evaluate term or formula `node`
        into the local `target`, reading variable x as the local
        `name(x)`."""
        def write(n, kids):
            text = self._operation(n, kids, name)
            if n is node:
                local = target
            elif not kids:
                return text  # a literal or a variable is an operand as it is
            else:
                local = f"e{self._temps}"
                self._temps += 1
            self.line(indent, f"{local} = {text}")
            return local
        fold(node, write)

    def _operation(self, n, kids: list[str], name) -> str:
        """The source of one operation `n` on its operands `kids`, each a
        local or a literal."""
        cls = n.__class__
        if cls is Number or cls is BoolConst:
            return repr(n.value)
        if cls is Var:
            return name(n.ident)
        if cls is Neg:
            return f"-{kids[0]}"
        if cls is Not:
            return f"not {kids[0]}"
        key = operator_key(n)
        if key == DIV:
            return f"divide({kids[0]}, {kids[1]}, {self._constant(n)})"
        if key == POW:
            return f"power({kids[0]}, {kids[1]})"
        return f"{kids[0]} {_INFIX[key]} {kids[1]}"

    def _constant(self, node) -> str:
        name = f"term{len(self.constants)}"
        self.constants[name] = node
        return name

    def define(self, name: str):
        namespace = dict(self.constants)
        exec(compile("\n".join(self.lines), f"<plchp {name}>", "exec"), namespace)
        return namespace[name]


def emit_rk4(plant: PlantSpec, layout: Layout):
    """The RK4 substep loop of `plant` as one compiled Python function
    `rk4(v, t0, duration, n)`. It runs `n` substeps of `duration / n` on
    the slot list `v` of `layout` whose clock reads `t0`, and returns the
    substep end time at which the state first leaves the evolution domain,
    or None. It reads every slot it needs into locals once, writes the
    evolving variables and the clock back at the end or at a domain exit,
    and leaves `v` as it was on an error. Every slot it reads must be bound.

    Each substep is the same float operations in the same order as a loop
    over closures: the four stages (the stage state `w` moves the clock to
    the middle of the substep for the second and third and to its end for
    the fourth), then `v[i] + (a + 2 * b + 2 * c + d) / 6 * h`, then the
    domain test at the substep end."""
    evolving = {x: j for j, (x, _) in enumerate(plant.odes)}
    ode_slots = [layout.slot(x) for x in evolving]
    clock = layout.slot(plant.clock)
    domain = None if plant.domain == TRUE else plant.domain
    mentioned = set().union(*(collect_vars(rhs) for _, rhs in plant.odes))
    if domain is not None:
        mentioned |= collect_vars(domain)
    params = sorted(layout.slot(x) for x in mentioned - set(evolving) - {plant.clock})

    def at(state: str, now: str) -> Callable[[Ident], str]:
        """Variable names in one stage: the evolving variables are
        `state`0, `state`1, ..., the clock `now`."""
        def name(x):
            j = evolving.get(x)
            if j is not None:
                return f"{state}{j}"
            return now if x == plant.clock else f"p{layout.slot(x)}"
        return name

    src = Source()
    line = src.line

    def stage(rate: str, name, update: Optional[str]) -> None:
        for j, (_, rhs) in enumerate(plant.odes):
            src.assign(f"{rate}{j}", rhs, name, 2)
        if update is not None:
            for j in range(len(ode_slots)):
                line(2, f"w{j} = x{j} + {rate}{j} * {update}")

    def write_back(indent: int, now: str) -> None:
        for j, i in enumerate(ode_slots):
            line(indent, f"v[{i}] = x{j}")
        line(indent, f"v[{clock}] = {now}")

    line(0, "def rk4(v, t0, duration, n):")
    for i in params:
        line(1, f"p{i} = v[{i}]")
    for j, i in enumerate(ode_slots):
        line(1, f"x{j} = v[{i}]")
    line(1, "clock = t0")
    line(1, "h = duration / n")
    line(1, "half = h / 2")
    line(1, "for k in range(n):")
    line(2, "t_mid = duration * k / n + half")
    line(2, "t_next = duration * (k + 1) / n")
    stage("a", at("x", "clock"), "half")
    line(2, "clock_mid = t0 + t_mid")
    stage("b", at("w", "clock_mid"), "half")
    stage("c", at("w", "clock_mid"), "h")
    line(2, "clock = t0 + t_next")
    stage("d", at("w", "clock"), None)
    for j in range(len(ode_slots)):
        line(2, f"x{j} = x{j} + (a{j} + 2 * b{j} + 2 * c{j} + d{j}) / 6 * h")
    if domain is not None:
        src.assign("inside", domain, at("x", "clock"), 2)
        line(2, "if not inside:")
        write_back(3, "clock")
        line(3, "return t_next")
    write_back(1, "t0 + duration")
    line(1, "return None")
    return src.define("rk4")
