"""Terms, formulas and ST statements compiled to Python source.

`compile_term`, `compile_formula` and `compile_st` turn a tree, once, into a
Python function over a flat list of floats, which `Source` writes as Python
source, one assignment per operation, and `compile()`s. A `Layout` maps each
variable to its slot in that list; a slot holds None while its variable is
unbound. `emit_rk4` writes a plant's whole RK4 substep loop the same way.

The emitted code is a faster form of the reference interpreters `eval_term`,
`eval_formula` and `run_st`, not a second semantics: it takes what each
operator computes from `semantics.OPERATORS` and `semantics.divide`, applies
them in the same order, left operand before right, and keeps the
connectives strict. Each variable read loads its slot into a local and
raises UnboundVariable there if the slot is None, so an error is the one
the interpreters raise at the same point of the same left-to-right walk,
and every call runs the emitted code alone. The tests hold the two to each
other bit for bit, and to the class and message of every error.

A tree is written in one fold (`ir.fold`), in bounded stack. The source stays
inside CPython's compiler limits: no line nests parentheses, an ELSIF chain
is written flat, and an IF branch that holds an IF is a function of its own,
so no block nests more than three deep. `compile()` is the costly step, so
the runs of one process share each code object, keyed on its source text.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable

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
    """Variable-to-slot map shared by the functions compiled for one run.
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


# Deepest tree that compiles, counted in expression nodes and IF statements
# from root to leaf. The emitted code runs each IF branch that holds an IF as
# a function of its own, one Python frame per level, so it runs at most about
# 300 frames, inside the default recursion limit of 1000 with room for the
# caller's. A division by zero prints its term with the iterative dL
# printer, which needs no stack.
MAX_DEPTH = 300


def compile_term(t: Term, layout: Layout) -> TermFn:
    return _compile(t, layout)


def compile_formula(f: Formula, layout: Layout) -> FormulaFn:
    return _compile(f, layout)


def compile_st(p: Program, layout: Layout) -> StatementFn:
    """A loop-free ST statement as a function that updates the slots in
    place. On an error the slots are left part-way; callers discard them."""
    return _compile(p, layout)


def _compile(node, layout: Layout):
    source = Source()
    return source.define(source.function(node, layout))


def _arms(n: IfThen) -> list:
    """An IF and its ELSIF arms as one node: each condition and branch, then any ELSE."""
    kids = []
    while n.__class__ is IfThen:
        kids += (n.cond, n.then)
        n = n.else_
    if n is not None:
        kids.append(n)
    return kids


# The emitting fold's children: a statement list and an IF chain are one node
# each, and the statements of hybrid programs are leaves.
_COMPILED = {
    **{cls: kids for cls, kids in CHILDREN.items() if not issubclass(cls, Program)},
    Assign: CHILDREN[Assign], Seq: seq_to_list, IfThen: _arms,
}

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


@functools.lru_cache(maxsize=128)
def _code(text: str):
    """The code object of module source `text`, compiled once per process."""
    return compile(text, "<plchp>", "exec")


class Source:
    """A Python module being written: `function` adds a function of a slot
    list for a tree, `line` a statement, `render` the statements that
    evaluate a term or formula, and `module` runs it all, compiled once.

    A term or formula is written one operation per assignment: each
    operator of `OPERATORS` as the Python operator that computes it, and
    division and power as calls of `divide` and `power` (a division's term
    bound as a constant, for its message). Literals are `repr` of their
    value (`inf`, past the float range, is bound as a constant)."""

    def __init__(self):
        self.lines: list[str] = []
        self.constants = {
            "divide": divide, "power": power, "inf": math.inf, "UnboundVariable": UnboundVariable,
        }
        self._temps = 0
        self._functions = 0

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def function(self, node, layout: Layout) -> str:
        """Add `node` as a function of a slot list `v` of `layout`, and
        return its name. For a term or formula it returns the value; for an
        ST statement it updates `v` in place. Each variable read loads its
        slot into a local, which raises UnboundVariable where it is None."""
        written = self._write(node, lambda x: f"v[{layout.slot(x)}]", checked=True)
        body = written[1]
        if not isinstance(node, Program):
            body.append(f"return {written[2]}")
        function = self._name()
        self.line(0, f"def {function}(v):")
        self.lines += ["    " + text for text in body]
        return function

    def render(self, target: str, node, name: Callable[[Ident], str]) -> list[str]:
        """Unindented assignments that evaluate term or formula `node` into
        `target`, reading variable x as `name(x)`."""
        _, lines, text, _ = self._write(node, name)
        return lines + [f"{target} = {text}"]

    def _write(self, node, name, checked: bool = False) -> tuple:
        """One fold over `node` that writes it and refuses it when it is
        deeper than MAX_DEPTH. A term or formula gives (depth, lines, text,
        pending): the assignments that evaluate its operands, and its own
        operation, or operand when `pending` is false. A statement gives
        (depth, lines, holds an IF). Lines are unindented. When `checked`,
        each variable read is a local that raises UnboundVariable if None."""
        def combine(n, kids):
            cls = n.__class__
            depth = max([kid[0] for kid in kids], default=0)
            depth += cls is not Seq and cls is not Assign
            if depth > MAX_DEPTH:
                raise PlchpError(
                    f"expression nested too deeply to compile (more than {MAX_DEPTH} levels)")
            if cls is Seq:
                lines = []
                for _, kid_lines, _ in kids:
                    lines += kid_lines
                return depth, lines, any(kid[2] for kid in kids)
            if cls is Assign:
                (_, lines, text, _), = kids
                lines.append(f"{name(n.target)} = {text}")
                return depth, lines, False
            if cls is IfThen:
                return depth, self._chain(kids), True
            if isinstance(n, Program):
                message = f"run_st executes ST statements, not {cls.__name__}"
                return depth, [f"raise TypeError({message!r})"], False
            if cls is Var and checked:
                temp = self._temp()
                x = n.ident
                self.constants[f"n_{x.name}"] = x
                return depth, [f"{temp} = {name(x)}",
                               f"if {temp} is None: raise UnboundVariable(n_{x.name})"], temp, False
            lines, operands = [], []
            for _, kid_lines, text, pending in kids:
                lines += kid_lines
                if pending:
                    temp = self._temp()
                    lines.append(f"{temp} = {text}")
                    text = temp
                operands.append(text)
            return depth, lines, self._operation(n, operands, name), bool(kids)
        return fold(node, combine, _COMPILED)

    def _chain(self, kids) -> list[str]:
        """An IF and its ELSIF arms, written flat: each later guard runs
        under `if not taken:`, and `taken` holds the last guard evaluated."""
        lines = []
        for k in range(0, len(kids) - 1, 2):
            (_, guard, text, _), (_, branch, holds_if) = kids[k:k + 2]
            indent = "    " if k else ""
            if k:
                lines.append("if not taken:")
            lines += [indent + text_line for text_line in guard]
            lines += [f"{indent}taken = {text}", f"{indent}if taken:"]
            lines += self._branch(branch, holds_if, indent + "    ")
        if len(kids) % 2:
            _, branch, holds_if = kids[-1]
            lines.append("if not taken:")
            lines += self._branch(branch, holds_if, "    ")
        return lines

    def _branch(self, lines: list[str], holds_if: bool, indent: str) -> list[str]:
        """A branch's lines at `indent`: a branch that holds an IF is a
        function of its own, called here, so blocks never nest deeper."""
        if holds_if:
            function = self._name()
            self.line(0, f"def {function}(v):")
            self.lines += ["    " + text for text in lines]
            lines = [f"{function}(v)"]
        return [indent + text for text in lines]

    def _operation(self, n, operands: list[str], name) -> str:
        """The source of one operation `n` on its operands, each a local or
        a literal."""
        cls = n.__class__
        if cls is Number or cls is BoolConst:
            return repr(n.value)
        if cls is Var:
            return name(n.ident)
        if cls is Neg:
            return f"-{operands[0]}"
        if cls is Not:
            return f"not {operands[0]}"
        key = operator_key(n)
        if key == DIV:
            return f"divide({operands[0]}, {operands[1]}, {self._constant(n)})"
        if key == POW:
            return f"power({operands[0]}, {operands[1]})"
        return f"{operands[0]} {_INFIX[key]} {operands[1]}"

    def _constant(self, node) -> str:
        name = f"tree{len(self.constants)}"
        self.constants[name] = node
        return name

    def _temp(self) -> str:
        self._temps += 1
        return f"e{self._temps - 1}"

    def _name(self) -> str:
        self._functions += 1
        return f"f{self._functions}"

    def module(self) -> dict:
        """Run the module written so far; its namespace."""
        namespace = dict(self.constants)
        exec(_code("\n".join(self.lines)), namespace)
        return namespace

    def define(self, name: str):
        return self.module()[name]


def emit_rk4(plant: PlantSpec, layout: Layout):
    """The RK4 substep loop of `plant` as one compiled Python function
    `rk4(v, t0, duration, n)`. It runs `n` substeps of `duration / n` on
    the slot list `v` of `layout` whose clock reads `t0`, and returns the
    substep end time at which the state first leaves the evolution domain,
    or None. It reads every slot it needs into locals once, writes the
    evolving variables and the clock back at the end or at a domain exit,
    and leaves `v` as it was on an error. Every slot it reads must be bound.

    Each substep is the same float operations in the same order as a loop
    over the compiled right-hand sides: the four stages (the stage state `w`
    moves the clock to the middle of the substep for the second and third
    and to its end for the fourth), then `v[i] + (a + 2 * b + 2 * c + d) / 6
    * h`, then the domain test at the substep end. Each tree is written
    once, with format fields for its rate, stage state and clock."""
    evolving = {x: j for j, (x, _) in enumerate(plant.odes)}
    ode_slots = [layout.slot(x) for x in evolving]
    clock = layout.slot(plant.clock)
    domain = None if plant.domain == TRUE else plant.domain
    mentioned = set().union(*(collect_vars(rhs) for _, rhs in plant.odes))
    if domain is not None:
        mentioned |= collect_vars(domain)
    params = sorted(layout.slot(x) for x in mentioned - set(evolving) - {plant.clock})

    def field(x: Ident) -> str:
        j = evolving.get(x)
        if j is not None:
            return f"{{s}}{j}"
        return "{now}" if x == plant.clock else f"p{layout.slot(x)}"

    src = Source()
    line = src.line
    rate_lines = [text for j, (_, rhs) in enumerate(plant.odes)
                  for text in src.render(f"{{rate}}{j}", rhs, field)]

    def stage(rate: str, state: str, now: str, update) -> None:
        for text in rate_lines:
            line(2, text.format(rate=rate, s=state, now=now))
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
    stage("a", "x", "clock", "half")
    line(2, "clock_mid = t0 + t_mid")
    stage("b", "w", "clock_mid", "half")
    stage("c", "w", "clock_mid", "h")
    line(2, "clock = t0 + t_next")
    stage("d", "w", "clock", None)
    for j in range(len(ode_slots)):
        line(2, f"x{j} = x{j} + (a{j} + 2 * b{j} + 2 * c{j} + d{j}) / 6 * h")
    if domain is not None:
        for text in src.render("inside", domain, field):
            line(2, text.format(s="x", now="clock"))
        line(2, "if not inside:")
        write_back(3, "clock")
        line(3, "return t_next")
    write_back(1, "t0 + duration")
    line(1, "return None")
    return src.define("rk4")
