"""Terms, formulas and ST statements compiled to Python source.

`compile_term`, `compile_formula` and `compile_st` turn a tree, once, into a
Python function over a flat list of floats, which `Source` writes as Python
source, one assignment per operation, and `compile()`s. A `Layout` maps each
variable to its slot in that list; a slot holds None while its variable is
unbound. `emit_rk4` writes a plant's whole RK4 substep loop the same way,
and computes what reads neither an evolving variable nor the clock once, in
a prologue before the loop: `render`, given the names that vary, writes each
largest operation that reads none of them there. Those are the same float
operations on the same operands, computed fewer times, and the checks that
precede the loop have raised any error they could (see `emit_rk4`).

The emitted code is a faster form of the reference interpreters `eval_term`,
`eval_formula` and `run_st`, not a second semantics: it takes what each
operator computes from `semantics.OPERATORS` and `semantics.divide`, applies
them in the same order, left operand before right, and keeps the
connectives strict. Each variable read loads its slot into a local and
raises UnboundVariable there if the slot is None, so an error is the one
the interpreters raise at the same point of the same left-to-right walk,
and every call runs the emitted code alone. The tests hold the two to each
other bit for bit, and to the class and message of every error.

A tree is written in one fold (`ir.fold`), in bounded stack, as one
function. The fold's results hold their lines as ropes, and `ir.flatten`,
which lays out the ST printer's lines too, writes each function's once.
The source stays inside CPython's compiler limits at any depth: no line
nests parentheses, and every IF is written flat under guard locals, so no
line sits more than two levels below its `def`. `compile()` is the
costly step, so the runs of one process share each code object, keyed on
its source text.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable

from .errors import UnboundVariable
from .ir import (
    Assign, BoolConst, DIV, Formula, Ident, IfThen, Neg, Not, Number, POW,
    PlantSpec, Program, ST_CHILDREN, Seq, State, TRUE, Term, Var, collect_vars,
    flatten, fold, operator_key,
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
_INDENT = "    "


@functools.lru_cache(maxsize=128)
def _code(text: str):
    """The code object of module source `text`, compiled once per process."""
    return compile(text, "<plchp>", "exec")


class Source:
    """A Python module being written: `function` adds a function of a slot
    list for a tree to `lines`, `render` gives the statements that evaluate
    a term or formula (and `prologue` those of its parts that `render`
    hoists), and `module` runs it all, compiled once.

    A term or formula is written one operation per assignment: each
    operator of `OPERATORS` as the Python operator that computes it, and
    division and power as calls of `divide` and `power` (a division's term
    bound as a constant, for its message). Literals are `repr` of their
    value."""

    def __init__(self):
        self.lines: list[str] = []
        self.prologue: list = []  # a rope (see `ir.flatten`)
        self.constants = {"divide": divide, "power": power, "UnboundVariable": UnboundVariable}
        self._temps = 0
        self._functions = 0

    def function(self, node, layout: Layout) -> str:
        """Add `node` as a function of a slot list `v` of `layout`, and
        return its name. For a term or formula it returns the value; for an
        ST statement it updates `v` in place. Each variable read loads its
        slot into a local, which raises UnboundVariable where it is None."""
        written = self._write(node, lambda x: f"v[{layout.slot(x)}]", checked=True)
        if isinstance(node, Program):
            body = self._under(None, written)
        else:
            body = written[0]
            body.append(f"return {written[1]}")
        function = self._name()
        self.lines += flatten([f"def {function}(v):", (body,)], "", _INDENT)
        return function

    def render(self, target: str, node, name: Callable[[Ident], str], varying=None) -> list[str]:
        """Unindented assignments that evaluate term or formula `node` into
        `target`, reading variable x as `name(x)`. Given the set `varying`,
        each largest operation that reads no name in it is written once, to
        `prologue`, and its temp stands in for it; a `node` that reads none
        is written to `prologue` whole, and this returns no lines."""
        lines, text, _, varies = self._write(node, name, varying=varying)
        lines.append(f"{target} = {text}")
        if varying is None or varies:
            return flatten(lines, "", _INDENT)
        self.prologue.append(lines)
        return []

    def _write(self, node, name, checked: bool = False, varying=None):
        """One fold over `node` that writes it, in time linear in its size:
        lines are ropes (see `ir.flatten`), so a parent holds its kids' lines
        without copying them. A term or formula gives (lines, text, pending,
        varies): the lines that evaluate its operands, and its own
        operation, or operand when `pending` is false, and whether it reads
        a name in `varying`. An operand that does not, of an operation that
        does, goes to `prologue`. A statement gives its segments (see
        `_under`). When `checked`, each variable read is a local that
        raises UnboundVariable if None."""
        varying = varying or ()

        def combine(n, kids):
            cls = n.__class__
            if cls is Seq:
                return [segment for kid in kids for segment in kid]
            if cls is Assign:
                (lines, text, _, _), = kids
                lines.append(f"{name(n.target)} = {text}")
                return [(None, None, lines, ())]
            if cls is IfThen:
                return self._chain(kids)
            if isinstance(n, Program):
                message = f"run_st executes ST statements, not {cls.__name__}"
                return [(None, None, [f"raise TypeError({message!r})"], ())]
            if cls is Var:
                x = n.ident
                if not checked:
                    return [], name(x), False, x in varying
                temp = self._temp()
                self.constants[f"n_{x.name}"] = x
                return [f"{temp} = {name(x)}",
                        f"if {temp} is None: raise UnboundVariable(n_{x.name})"], temp, False, False
            varies = any(kid[3] for kid in kids)
            lines, operands = [], []
            for kid_lines, text, pending, kid_varies in kids:
                into = lines if kid_varies or not varies else self.prologue
                into.append(kid_lines)
                if pending:
                    temp = self._temp()
                    into.append(f"{temp} = {text}")
                    text = temp
                operands.append(text)
            return lines, self._operation(n, operands), bool(kids), varies
        return fold(node, combine, ST_CHILDREN)

    def _chain(self, kids) -> list:
        """An IF as one segment. Its guard goes into a local `taken` of its
        own, which its branch runs under. An IF with an ELSE also has a
        local `entry`, which its parent sets to whether the IF runs, the
        guard clears when it holds, and the ELSE runs under. So an ELSIF
        chain, like any IF in a branch, runs flat at any length or depth."""
        (guard, text, _, _), branch, *else_ = kids
        taken = self._temp()
        guard.append(f"{taken} = {text}")
        after = [self._under(taken, branch)]
        entry = None
        if else_:
            entry = self._temp()
            guard.append(f"{entry} = not {taken}")
            after.append(self._under(entry, else_[0]))
        return [(entry, taken, guard, after)]

    def _under(self, guard, segments) -> list:
        """The lines that run a statement's segments when local `guard` is
        true, or always when it is None. A segment is `(entry, taken,
        lines, after)`: `lines` run under the guard, `after` unguarded.
        An assignment has no `entry`, `taken` or `after`. An IF's `lines`
        evaluate its guard into `taken`, which is first set False where
        they may not run; an IF without ELSE has no `entry` and tests
        `guard` itself (see `_chain`). A guarded segment's lines are a
        block under its `if`, which holds them without copying."""
        lines = []
        for entry, taken, kid_lines, after in segments:
            if guard is None:
                lines.append(kid_lines)
            else:
                if entry is not None:
                    lines.append(f"{entry} = {guard}")
                if taken is not None:
                    lines.append(f"{taken} = False")
                lines += f"if {entry or guard}:", (kid_lines,)
            lines.append(after)
        return lines

    def _operation(self, n, operands: list[str]) -> str:
        """The source of one operation `n` on its operands, each a local or
        a literal."""
        cls = n.__class__
        if cls is Number or cls is BoolConst:
            return repr(n.value)
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
    and leaves `v` as it was on an error.

    Each substep is the same float operations in the same order as a loop
    over the compiled right-hand sides: the four stages (the stage state `w`
    moves the clock to the middle of the substep for the second and third
    and to its end for the fourth), then `v[i] + (a + 2 * b + 2 * c + d) / 6
    * h`, then the domain test at the substep end. Each tree is written
    once, with format fields for its rate, stage state and clock. What
    reads neither an evolving variable nor the clock is computed once, in a
    prologue before the loop: each largest such operation of a rate or the
    domain, and a rate that is wholly such, with its increment
    `(r + 2 * r + 2 * r + r) / 6 * h`. The loop writes no stage state that
    no rate reads, and the clock only where a rate or the domain reads it;
    the substep's end time is computed at a domain exit.

    The caller's contract: every slot the loop reads is bound, and the
    domain and every rate have been evaluated on the start state without an
    error. The connectives are strict and terms have no branches, so each
    operation of the prologue has then been computed on the same operands
    once already, and computing it again cannot raise; every value is the
    same float operation on the same operands as in the loop it replaces.
    """
    evolving = {x: j for j, (x, _) in enumerate(plant.odes)}
    ode_slots = [layout.slot(x) for x in evolving]
    clock = layout.slot(plant.clock)
    domain = None if plant.domain == TRUE else plant.domain
    reads = [collect_vars(rhs) for _, rhs in plant.odes]
    read = set().union(*reads)
    mentioned = read if domain is None else read | collect_vars(domain)
    params = sorted(layout.slot(x) for x in mentioned - set(evolving) - {plant.clock})
    varying = {*evolving, plant.clock}
    invariant = [not (names & varying) for names in reads]
    staged = [j for x, j in evolving.items() if x in read]
    timed = plant.clock in read
    clocked = plant.clock in mentioned

    def field(x: Ident) -> str:
        j = evolving.get(x)
        if j is not None:
            return f"{{s}}{j}"
        return "{now}" if x == plant.clock else f"p{layout.slot(x)}"

    def rate(j: int, stage: str) -> str:
        return f"r{j}" if invariant[j] else f"{stage}{j}"

    src = Source()
    rate_lines = [text for j, (_, rhs) in enumerate(plant.odes)
                  for text in src.render(rate(j, "{rate}"), rhs, field, varying)]
    inside = [] if domain is None else src.render("inside", domain, field, varying)
    src.prologue += [f"q{j} = (r{j} + 2 * r{j} + 2 * r{j} + r{j}) / 6 * h"
                     for j in range(len(ode_slots)) if invariant[j]]

    def stage(name: str, state: str, now: str, update) -> list[str]:
        lines = [text.format(rate=name, s=state, now=now) for text in rate_lines]
        if update is not None:
            lines += (f"w{j} = x{j} + {rate(j, name)} * {update}" for j in staged)
        return lines

    def write_back(now: str) -> list[str]:
        return [*(f"v[{i}] = x{j}" for j, i in enumerate(ode_slots)), f"v[{clock}] = {now}"]

    loop = ["t_mid = duration * k / n + half"] if timed else []
    loop += stage("a", "x", "clock", "half")
    if timed:
        loop.append("clock_mid = t0 + t_mid")
    loop += stage("b", "w", "clock_mid", "half") + stage("c", "w", "clock_mid", "h")
    if clocked:
        loop.append("clock = t0 + duration * (k + 1) / n")
    loop += stage("d", "w", "clock", None)
    loop += (f"x{j} = x{j} + q{j}" if invariant[j]
             else f"x{j} = x{j} + (a{j} + 2 * b{j} + 2 * c{j} + d{j}) / 6 * h"
             for j in range(len(ode_slots)))
    if domain is not None:
        loop += (text.format(s="x", now="clock") for text in inside)
        loop += "if not inside:", ("t_next = duration * (k + 1) / n", write_back("t0 + t_next"),
                                   "return t_next")
    body = [*(f"p{i} = v[{i}]" for i in params), *(f"x{j} = v[{i}]" for j, i in enumerate(ode_slots)),
            "clock = t0", "h = duration / n", "half = h / 2", src.prologue,
            "for k in range(n):", (loop,), write_back("t0 + duration"), "return None"]
    src.lines += flatten(["def rk4(v, t0, duration, n):", (body,)], "", _INDENT)
    return src.define("rk4")
