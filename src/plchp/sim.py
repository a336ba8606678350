"""Scan-cycle simulation against an ODE plant, plus trace compliance.

Each cycle reads inputs, runs the controller body to completion, then
integrates the plant for exactly the scan cycle duration (the model's
nondeterministic dwell time is resolved to its maximum); leaving the
evolution domain stops the run with a diagnostic. Fixed-step RK4 and, when
no rate reads an evolving variable, the exact closed form take one plant
step: it reads the clock, checks the domain, evaluates every rate and checks
that every evolving variable is bound; its exit is the earliest time at
which the strict conjunction of the domain is false or raises, reported as
that error or the first false conjunct, and nothing is evaluated past it.
A step that makes a plant state inf or nan raises.

The controller, the plant's right-hand sides and the conjuncts of its
evolution domain are compiled once per run into Python functions over one
list of slot-indexed floats (see `compiled`), and so is the per-plant
analysis. The RK4 substep loop is emitted for the plant too, by the first
RK4 cycle of a run; an affine run never emits it. The runs of one process
share the code objects, so a run of a model seen before compiles nothing.
Each cycle runs on that list in place and records its snapshots as tuples
of it, so a cycle builds no `State`; a record builds one only when a
snapshot is read. The safety property and the trace columns are read from
the tuples the same way. The emitted code performs the reference
interpreters' float operations in the same order and raises the same
errors, and the tests hold it to `eval_term`, `eval_formula` and `run_st`
bit for bit, and the whole loop to one built from `State`s.

Compliance checking replays recorded sensor values through a deterministic
controller and flags rows whose recorded actuations deviate, aggregated
into maximal ranges of consecutive cycles.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite
from operator import itemgetter, ne
from typing import Optional, Sequence

from .analysis import IoClassification, resolve_epsilon
from .compiled import Layout, Slots, Source, compile_formula, compile_st, emit_rk4, read
from .dl_syntax import print_dl_formula
from .errors import (
    ConflictingEpsilon, DomainError, InputFileError, MissingInput, NondeterministicCtrl,
    NotAffine, PlchpError, SchemaError, UnboundVariable,
)
from .ir import (
    ADD, BinOp, Cmp, DIV, Formula, GE, GT, Ident, LE, LT, MUL, Neg, Number,
    PlantSpec, Program, ScanCycleModel, State, SUB, TRUE, Var, collect_vars,
    conjuncts, fold,
)
from .semantics import OPERATORS, derive_seed, fully_complemented
# Not called here, since evaluation is compiled and the cycle duration is
# `resolve_epsilon`'s, but the benchmark's layer tracer
# (perfbench/tracing.py) wraps these names in this module.
from .analysis import extract_epsilon  # noqa: F401
from .semantics import eval_formula, eval_term, run_st  # noqa: F401
from .translate import prog_hp_to_st


# ---------------------------------------------------------------------------
# Plant integration

@dataclass(frozen=True)
class IntegratorConfig:
    substeps: int = 1000
    method: str = "auto"  # auto | affine | rk4

    def __post_init__(self):
        if self.substeps < 1:
            raise ValueError("substeps must be at least 1")
        if self.method not in ("auto", "affine", "rk4"):
            raise ValueError(f"unknown integrator {self.method!r}")


@dataclass(frozen=True)
class DomainExit:
    """First detected violation of the evolution domain."""

    time: float  # offset within the cycle
    conjunct: Formula

    def describe(self) -> str:
        return f"domain violated at t={self.time:.6g}: {print_dl_formula(self.conjunct)}"


def plant_is_affine(plant: PlantSpec) -> bool:
    """True when no right-hand side mentions an evolving variable, so every
    derivative is constant over the cycle and states are linear in time."""
    evolving = set(plant.state_vars()) | {plant.clock}
    return all(not (collect_vars(rhs) & evolving) for _, rhs in plant.odes)


class CompiledPlant:
    """A plant compiled once for all the cycles of a run, into one module
    over one layout (a new one unless given): a function for each
    right-hand side, for each conjunct of the evolution domain and, on an
    affine plant, for each linear conjunct's `left - right` (a comparison
    affine in the evolving variables). The RK4 substep loop is emitted the
    first time a cycle needs it."""

    def __init__(self, plant: PlantSpec, layout: Optional[Layout] = None):
        self.spec = plant
        self.layout = layout = Layout() if layout is None else layout
        self.odes = [(x, layout.slot(x)) for x, _ in plant.odes]
        self.clock = layout.slot(plant.clock)
        self.written = [*self.odes, (plant.clock, self.clock)]
        self.affine = plant_is_affine(plant)
        evolving = set(plant.state_vars()) | {plant.clock}
        src = Source()
        rates = [src.function(rhs, layout) for _, rhs in plant.odes]
        parts, linear = [], []
        for part in [] if plant.domain == TRUE else conjuncts(plant.domain):
            parts.append((part, src.function(part, layout)))
            if self.affine and isinstance(part, Cmp) and part.rel in (LT, LE, GT, GE) and \
                    _is_affine_term(part.left, evolving) and _is_affine_term(part.right, evolving):
                linear.append((part, OPERATORS[part.rel],
                               src.function(BinOp(SUB, part.left, part.right), layout)))
        defined = src.module().get
        self.rates = [defined(f) for f in rates]
        self.parts = [(part, defined(holds)) for part, holds in parts]
        self.linear = [(part, rel, defined(difference)) for part, rel, difference in linear]
        self.gridded = len(linear) < len(parts)

    @cached_property
    def rk4(self):
        """The RK4 substep loop, emitted the first time a cycle needs it."""
        return emit_rk4(self.spec, self.layout)

    def failing_conjunct(self, values: Slots) -> Optional[Formula]:
        """The first conjunct of the domain that is false on `values`, or
        None. Every conjunct is evaluated, in order, so an error is the one
        the strict conjunction of them all raises."""
        failing = None
        for part, holds in self.parts:
            if not holds(values) and failing is None:
                failing = part
        return failing


def integrate_plant(
    plant: PlantSpec | CompiledPlant,
    s: State | Slots,
    duration: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> tuple[State | Slots, Optional[DomainExit]]:
    """Advance the plant state by `duration`, checking the evolution domain.

    The clock advances by exactly `duration` (the implied bound
    `clock <= eps` is enforced by the caller's choice of duration, not
    re-checked here). Given a `State`, this returns a new one; given a slot
    list of a `CompiledPlant`'s layout, it advances that list in place and
    returns it, or on an error leaves it as it was (a step writes it only
    once its end state is computed and found finite).

    Given a `PlantSpec`, this compiles the plant, and an RK4 call its
    substep loop, for this one call (only the first call on a plant runs
    `compile()`, but each writes the source); a caller integrating a plant
    repeatedly passes it once compiled, as a `CompiledPlant`.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if duration == 0:
        return s, None
    if not isinstance(plant, CompiledPlant):
        if not isinstance(s, State):
            raise TypeError("a slot list needs the CompiledPlant of its layout")
        plant = CompiledPlant(plant)
    if cfg.method == "affine" and not plant.affine:
        raise NotAffine("plant is not affine; use rk4 or auto")
    affine = cfg.method == "affine" or cfg.method == "auto" and plant.affine
    kernel = _integrate_affine if affine else _integrate_rk4
    v = plant.layout.load(s) if isinstance(s, State) else s
    domain_exit = kernel(plant, v, duration, cfg)
    return (s if v is s else plant.layout.store(s, v)), domain_exit


def _is_affine_term(t, evolving) -> bool:
    """Degree at most one in the evolving variables, constant coefficients."""
    # Each node's result: (affine, mentions an evolving variable).
    def affine(t, kids) -> tuple[bool, bool]:
        cls = t.__class__
        if cls is Number:
            return True, False
        if cls is Var:
            return True, t.ident in evolving
        if cls is Neg:
            return kids[0]
        if cls is not BinOp:
            return False, False
        (left, left_has), (right, right_has) = kids
        has = left_has or right_has
        if t.op in (ADD, SUB):
            return left and right, has
        if t.op == MUL:
            return left and right and not (left_has and right_has), has
        if t.op == DIV:
            return left and not right_has, has
        return not has, has  # POW

    return fold(t, affine)[0]


def _start(plant: CompiledPlant, v: Slots) -> DomainExit | list[float]:
    """The start of every plant step, in its order (see the module's
    docstring): the exit at 0 where the domain is false, else the rates.
    After it, every slot that the step reads is bound."""
    read(v, plant.clock, plant.spec.clock)
    failing = plant.failing_conjunct(v)
    if failing is not None:
        return DomainExit(0.0, failing)
    rates = [f(v) for f in plant.rates]
    unbound = [x for x, i in plant.odes if v[i] is None]
    if unbound:
        raise UnboundVariable(unbound[0])
    return rates


def _finish(plant: CompiledPlant, v: Slots, end: Slots) -> None:
    """Write a step's end state to `v`, or raise if it makes an evolving
    variable or the clock inf or nan."""
    for x, i in plant.written:
        if not isfinite(end[i]):
            raise DomainError(f"plant state {x} is not finite: {end[i]!r}")
    v[:] = end


def _integrate_affine(plant: CompiledPlant, v: Slots, duration, cfg) -> Optional[DomainExit]:
    """One cycle of the closed form, advancing `v` in place. Each linear
    conjunct (whose divisors read no evolving variable) is solved for its
    exact crossing, and the earliest cuts the cycle short. If some conjunct
    is not linear, the whole domain is checked at each of the `substeps`
    grid points up to that cut, one on it too, up to the first that fails."""
    rates = _start(plant, v)
    if isinstance(rates, DomainExit):
        return rates

    def at(t: float) -> Slots:
        w = v.copy()
        for (_, i), rate in zip(plant.odes, rates):
            w[i] = v[i] + rate * t
        w[plant.clock] = v[plant.clock] + t
        return w

    end = at(duration)
    domain_exit = None
    for part, holds, difference in plant.linear:
        d1 = difference(end)  # `left rel right` is `d rel 0`
        if not holds(d1, 0.0):
            # d(t) = d0 + (d1 - d0) * t / duration crosses the boundary once.
            d0 = difference(v)
            hit = duration * d0 / (d0 - d1)
            if domain_exit is None or hit < domain_exit.time:
                domain_exit = DomainExit(hit, part)
    if plant.gridded:
        for k in range(1, cfg.substeps + 1):
            t = duration * k / cfg.substeps
            if domain_exit is not None and t > domain_exit.time:
                break
            failing = plant.failing_conjunct(at(t))
            if failing is not None:
                domain_exit = DomainExit(t, failing)
                break
    _finish(plant, v, end if domain_exit is None else at(domain_exit.time))
    return domain_exit


def _integrate_rk4(plant: CompiledPlant, v: Slots, duration, cfg) -> Optional[DomainExit]:
    """One cycle of fixed-step RK4, advancing `v` in place with the plant's
    emitted substep loop, up to the first substep end outside the domain."""
    start = _start(plant, v)
    if isinstance(start, DomainExit):
        return start
    end = v.copy()
    exit_time = plant.rk4(end, v[plant.clock], duration, cfg.substeps)
    _finish(plant, v, end)
    return None if exit_time is None else DomainExit(exit_time, plant.failing_conjunct(v))


# ---------------------------------------------------------------------------
# Input providers

class InputProvider:
    """Supplies a value for every declared input variable each cycle."""

    def values(self, cycle: int) -> dict[Ident, float]:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantInputs(InputProvider):
    bindings: dict

    def values(self, cycle: int) -> dict[Ident, float]:
        return dict(self.bindings)


@dataclass(frozen=True)
class UniformInputs(InputProvider):
    """Per cycle and per input, an independent uniform draw; deterministic
    in (seed, cycle). The inputs draw in the order of their names."""

    ranges: dict  # Ident -> (lo, hi)
    seed: int = 0
    _draws: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_draws", tuple(
            sorted(self.ranges.items(), key=lambda kv: kv[0].name)))

    def values(self, cycle: int) -> dict[Ident, float]:
        rng = random.Random(derive_seed(self.seed, cycle))
        return {name: rng.uniform(lo, hi) for name, (lo, hi) in self._draws}


@dataclass(frozen=True)
class CsvInputs(InputProvider):
    """Input values of cycle k from `rows[k]`, column-mapped from a trace."""

    rows: tuple[dict, ...]  # each maps Ident -> float

    def values(self, cycle: int) -> dict[Ident, float]:
        if cycle >= len(self.rows):
            raise MissingInput(f"input trace has no row for cycle {cycle}")
        return dict(self.rows[cycle])


# ---------------------------------------------------------------------------
# Scan-cycle simulation

@dataclass(frozen=True, eq=False)
class CycleRecord:
    """Snapshots of one scan cycle.

    `pre` is the state after the input read (before control), `post_ctrl`
    after the controller ran, `post_plant` after the plant evolved. The
    plant clock contribution equals the cycle duration unless `domain_exit`
    is set. Each snapshot is kept as a tuple of slot values of `layout`,
    None where unbound, and is built into a `State` each time it is read.
    """

    index: int
    t_abs: float
    layout: Layout
    pre_values: tuple
    ctrl_values: tuple
    plant_values: tuple
    domain_exit: Optional[DomainExit] = None

    @property
    def pre(self) -> State:
        return self.layout.state(self.pre_values)

    @property
    def post_ctrl(self) -> State:
        return self.layout.state(self.ctrl_values)

    @property
    def post_plant(self) -> State:
        return self.layout.state(self.plant_values)

    def _key(self) -> tuple:
        return (self.index, self.t_abs, self.pre, self.post_ctrl, self.post_plant,
                self.domain_exit)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycleRecord):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True)
class SimConfig:
    epsilon: Optional[float] = None  # overrides the model's duration
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    check_assumptions: bool = False


def simulate(
    m: ScanCycleModel,
    st_body: Program,
    inputs: InputProvider,
    cycles: int,
    initial: State,
    cfg: SimConfig = SimConfig(),
) -> list[CycleRecord]:
    """Run `cycles` scan cycles: read inputs, execute the ST body, evolve
    the plant for exactly the cycle duration. Stops early (keeping the
    partial record) when the plant leaves its evolution domain. Raises
    ConflictingEpsilon when `initial` binds the duration to another value."""
    epsilon = resolve_epsilon(m, cfg.epsilon)
    # The whole state of the run lives in one slot list: every name of the
    # initial state, of the controller, of the plant and the inputs.
    layout = Layout(x for x, _ in initial.items())
    control = compile_st(st_body, layout)
    plant = CompiledPlant(m.plant, layout)
    feeds = [(x, layout.slot(x)) for x in m.inputs]
    clock = plant.clock
    eps = layout.slot(m.epsilon) if isinstance(m.epsilon, Ident) else None
    assumed = compile_formula(m.assumptions, layout) if cfg.check_assumptions else None
    values = layout.load(initial)
    if values[clock] is None:
        values[clock] = 0.0
    if eps is not None:
        if values[eps] not in (None, epsilon):
            raise ConflictingEpsilon(f"the initial state binds {m.epsilon} to {values[eps]}, "
                                     f"but the scan cycle duration is {epsilon}")
        values[eps] = epsilon
    if assumed is not None and not assumed(values):
        raise PlchpError("initial state does not satisfy the assumptions")

    records: list[CycleRecord] = []
    for index in range(cycles):
        provided = inputs.values(index)
        missing = [x for x in m.inputs if x not in provided]
        if missing:
            raise MissingInput(
                "input provider lacks values for: " + ", ".join(str(x) for x in missing)
            )
        for x, i in feeds:
            values[i] = float(provided[x])
        pre = tuple(values)
        control(values)
        post_ctrl = tuple(values)
        values[clock] = 0.0
        _, domain_exit = integrate_plant(plant, values, epsilon, cfg.integrator)
        records.append(CycleRecord(
            index, index * epsilon, layout, pre, post_ctrl, tuple(values), domain_exit))
        if domain_exit is not None:
            break
    return records


@dataclass(frozen=True)
class SafetyViolation:
    cycle: int
    phase: str  # pre | post_plant
    state: State


def check_safety(records: Sequence[CycleRecord], safety: Formula) -> list[SafetyViolation]:
    """Evaluate the safety property on every pre and post-plant state of
    the records of one run. The property is compiled once over the layout
    they were taken on."""
    violations: list[SafetyViolation] = []
    if not records:
        return violations
    layout = records[0].layout
    # Variables the run never had get slots past the snapshot's end.
    wider = Layout(layout.names)
    holds = compile_formula(safety, wider)
    unbound = (None,) * (len(wider.names) - len(layout.names))
    for rec in records:
        if not holds(rec.pre_values + unbound):
            violations.append(SafetyViolation(rec.index, "pre", rec.pre))
        if not holds(rec.plant_values + unbound):
            violations.append(SafetyViolation(rec.index, "post_plant", rec.post_plant))
    return violations


# ---------------------------------------------------------------------------
# Trace CSV

CYCLE_COLUMN = "cycle"


def _getter(keys):
    """The function from a row or snapshot to the tuple of its items at
    `keys`: an `itemgetter`, which returns a bare item for one key."""
    if len(keys) == 1:
        key, = keys
        return lambda cells: (cells[key],)
    return itemgetter(*keys) if keys else lambda cells: ()


def trace_columns(io_spec: IoClassification) -> list[Ident]:
    return list(io_spec.inputs) + list(io_spec.outputs) + list(io_spec.params)


def write_trace(stream, records: Sequence[CycleRecord], io_spec: IoClassification) -> None:
    """One row per cycle of the records of one run: sensors/params from the
    pre state, actuators from the post-control state. A cell whose variable
    is unbound there raises UnboundVariable, after the rows before it are
    written."""
    columns = trace_columns(io_spec)
    writer = csv.writer(stream)
    writer.writerow([CYCLE_COLUMN] + [c.name for c in columns])
    if not records:
        return
    actuators = set(io_spec.outputs)
    slots = records[0].layout.slots
    width = len(records[0].layout.names)
    # Each cell is read from a record's pre-state and post-control snapshots
    # laid end to end, then a None for a variable the run never had.
    cells = _getter([2 * width if i is None else i + width * (col in actuators)
                     for col in columns for i in [slots.get(col)]])
    for rec in records:
        row = cells([*rec.pre_values, *rec.ctrl_values, None])
        if None in row:
            raise UnboundVariable(next(col for col, value in zip(columns, row) if value is None))
        writer.writerow([rec.index, *map(repr, row)])


def write_trace_file(path, records, io_spec) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_trace(handle, records, io_spec)


def read_trace(stream) -> tuple[list[str], list[dict]]:
    """Parse a trace CSV; `#`-prefixed lines are comments. A malformed or
    repeated column name, a row whose length is not the header's, or a cell
    that is not a finite number raises InputFileError with the stream's name
    and the line."""
    source = getattr(stream, "name", "<trace>")
    line = 0

    def content():
        nonlocal line
        for line, text in enumerate(stream, 1):
            if not text.lstrip().startswith("#"):
                yield text

    reader = csv.reader(content())
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError([CYCLE_COLUMN]) from None
    header = [h.strip() for h in header]
    if CYCLE_COLUMN not in header:
        raise SchemaError([CYCLE_COLUMN])
    keys: list = []
    firsts: dict[str, int] = {}
    for col, name in enumerate(header, 1):
        first = firsts.setdefault(name, col)
        if first != col:
            raise InputFileError(source, f"column {col}: {name} is also column {first}", line)
        try:
            keys.append(CYCLE_COLUMN if name == CYCLE_COLUMN else Ident(name))
        except ValueError as exc:
            raise InputFileError(source, f"column {col}: {exc}", line) from None
    at = firsts[CYCLE_COLUMN] - 1

    def by_cell(raw) -> dict:
        """The row of `raw`, read one cell at a time; raises at the first
        cell that is not a number (an integer in the cycle column) or not
        finite."""
        row: dict = {}
        for col, (name, key, cell) in enumerate(zip(header, keys, raw), 1):
            try:
                if name == CYCLE_COLUMN:
                    row[key] = int(cell)
                    continue
                row[key] = value = float(cell)
            except ValueError:
                raise InputFileError(
                    source, f"column {col} ({name}): not a number: {cell!r}", line) from None
            if not isfinite(value):
                raise InputFileError(
                    source, f"column {col} ({name}): not a finite number: {cell!r}", line)
        return row

    rows = []
    for raw in reader:
        if not raw:
            continue
        if len(raw) != len(header):
            raise InputFileError(
                source, f"row has {len(raw)} cells but the header has {len(header)}", line)
        # The whole row at once; a row this rejects goes through `by_cell`,
        # which names the first bad cell, or reads a cycle number too large
        # for a float.
        try:
            cells = [*map(float, raw)]
            ok = all(map(isfinite, cells))
            if ok:
                cells[at] = int(raw[at])
        except ValueError:
            ok = False
        rows.append(dict(zip(keys, cells)) if ok else by_cell(raw))
    return header, rows


def read_trace_file(path) -> tuple[list[str], list[dict]]:
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            return read_trace(handle)
        except UnicodeDecodeError:
            raise InputFileError(path, "not UTF-8 text") from None


# ---------------------------------------------------------------------------
# Compliance checking

@dataclass(frozen=True)
class ComplianceInstance:
    start_cycle: int
    end_cycle: int
    description: str


@dataclass(frozen=True)
class ComplianceReport:
    """Maximal disjoint ranges of consecutive cycles whose recorded
    actuations deviate from the controller's expected choice."""

    instances: tuple[ComplianceInstance, ...]
    checked: int

    def serialize(self) -> str:
        lines = []
        if self.checked:
            lines.append("# first cycle's prior actuator state initialized from the first trace row")
        lines.append(f"checked={self.checked} instances={len(self.instances)}")
        for inst in self.instances:
            lines.append(
                f"instance {inst.start_cycle}..{inst.end_cycle}: {inst.description}"
            )
        return "\n".join(lines) + "\n"


def check_compliance(
    ctrl: Program,
    rows: Sequence[dict],
    io_spec: IoClassification,
    header: Optional[Sequence[str]] = None,
) -> ComplianceReport:
    """Replay recorded sensor/parameter values through the deterministic
    controller and compare expected actuations with the recorded ones.
    The trace's columns are those of `header`, else the keys of its first
    row; one the model needs and the trace lacks raises SchemaError.

    Actuator values persist across cycles unless written: each row's run
    starts from the previous row's recorded actuators (the first row seeds
    itself, noted in the report header).
    """
    if not fully_complemented(ctrl):
        raise NondeterministicCtrl(
            "controller contains default-branch choices; compliance checking "
            "requires a fully complemented controller"
        )
    st_body, _ = prog_hp_to_st(ctrl)

    if header is None and rows:
        header = [str(key) for key in rows[0]]
    if header is not None:
        have = set(header)
        missing = sorted({x for x in trace_columns(io_spec) if x.name not in have},
                         key=lambda x: x.name)
        if missing:
            raise SchemaError(missing)

    # The sensors take the first slots and the actuators the next ones, so a
    # row's slot list is built in one go. An actuator listed as a sensor too
    # starts from its previous recorded value, as it is written last.
    outputs = list(dict.fromkeys(io_spec.outputs))
    sensors = [x for x in dict.fromkeys((*io_spec.inputs, *io_spec.params))
               if x not in io_spec.outputs]
    layout = Layout(sensors + outputs)
    control = compile_st(st_body, layout)
    sensed, recorded = _getter(sensors), _getter(outputs)
    acted = slice(len(sensors), len(sensors) + len(outputs))
    unbound = [None] * (len(layout.names) - acted.stop)
    violating: list[tuple[int, str]] = []
    prev_actuators = None
    for row in rows:
        if prev_actuators is None:
            prev_actuators = recorded(row)
        values: Slots = [*map(float, sensed(row)), *map(float, prev_actuators), *unbound]
        control(values)
        expected, prev_actuators = values[acted], recorded(row)
        if any(map(ne, expected, prev_actuators)):
            for x, want, got in zip(outputs, expected, prev_actuators):
                if want != got:
                    violating.append(
                        (row[CYCLE_COLUMN], f"{x} expected {want!r} recorded {got!r}"))
                    break

    instances: list[ComplianceInstance] = []
    for cycle, description in violating:
        if instances and cycle == instances[-1].end_cycle + 1:
            last = instances[-1]
            instances[-1] = ComplianceInstance(last.start_cycle, cycle, last.description)
        else:
            instances.append(ComplianceInstance(cycle, cycle, description))
    return ComplianceReport(tuple(instances), checked=len(rows))
