"""Scan-cycle simulation against an ODE plant, plus trace compliance.

Each cycle reads inputs, runs the controller body to completion, then
integrates the plant for exactly the scan cycle duration (the model's
nondeterministic dwell time is resolved to its maximum); leaving the
evolution domain stops the run with a diagnostic. The integrator is a
fixed-step RK4 with an exact closed form when every right-hand side is
constant in the evolving variables over the cycle.

The controller, the plant's right-hand sides and its evolution domain are
compiled once per run into Python functions over one list of slot-indexed
floats (see `compiled`), and so is the per-plant analysis. The RK4 substep
loop is emitted for the plant too, by the first RK4 cycle of a run; an
affine run never emits it. The runs of one process share the code objects,
so a run of a model seen before compiles nothing. Each cycle runs on that
list in place and records its snapshots as tuples of it, so a cycle builds
no `State`; a record builds one only when a snapshot is read. The safety
property and the trace columns are read from the tuples the same way. The
emitted code performs the reference interpreters' float operations in the
same order and raises the same errors, and the tests hold it to
`eval_term`, `eval_formula` and `run_st` bit for bit, and the whole loop to
one built from `State`s.

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
from typing import Optional, Sequence

from .analysis import IoClassification, resolve_epsilon
from .compiled import (
    Layout, Slots, Source, compile_formula, compile_st, emit_rk4, read,
)
from .dl_syntax import print_dl_formula
from .errors import (
    ConflictingEpsilon, InputFileError, MissingInput, NondeterministicCtrl, NotAffine,
    PlchpError, SchemaError, UnboundVariable,
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
    """A plant compiled once for all the cycles of a run: right-hand sides,
    evolution domain and its conjuncts as functions emitted into one module
    over one layout (a new one unless given), plus the per-plant analysis
    (affinity, which conjuncts are solved exactly)."""

    def __init__(self, plant: PlantSpec, layout: Optional[Layout] = None):
        self.spec = plant
        self.layout = layout = Layout() if layout is None else layout
        self.odes = [(x, layout.slot(x)) for x, _ in plant.odes]
        self.clock = layout.slot(plant.clock)
        self.affine = plant_is_affine(plant)
        src = Source()
        rates = [src.function(rhs, layout) for _, rhs in plant.odes]
        domain = None if plant.domain == TRUE else src.function(plant.domain, layout)
        # (conjunct, its function, (relation, left - right) when it is a
        # comparison affine in the evolving variables, else None)
        parts = []
        if domain is not None:
            evolving = set(plant.state_vars()) | {plant.clock}
            for part in conjuncts(plant.domain):
                linear = None
                if isinstance(part, Cmp) and part.rel in (LT, LE, GT, GE) and \
                        _is_affine_term(part.left, evolving) and _is_affine_term(part.right, evolving):
                    linear = (part.rel, src.function(BinOp(SUB, part.left, part.right), layout))
                parts.append((part, src.function(part, layout), linear))
        defined = src.module().get
        self.rates = [defined(f) for f in rates]
        self.domain = defined(domain)
        self.parts = [(part, defined(holds), linear and (linear[0], defined(linear[1])))
                      for part, holds, linear in parts]

    @cached_property
    def rk4(self):
        """The RK4 substep loop, emitted the first time a cycle needs it."""
        return emit_rk4(self.spec, self.layout)

    def failing_conjunct(self, values: Slots) -> Formula:
        for part, holds, _ in self.parts:
            if not holds(values):
                return part
        return self.spec.domain


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
    returns it, or on an error leaves it as it was (both integrators write
    it only once the cycle's step is computed).

    Given a `PlantSpec`, this compiles the plant for this one call, and an
    RK4 call also emits its substep loop. The process shares the code
    objects, so only the first call on a plant runs `compile()`; a repeated
    call still writes the source, about 0.4 ms for an RK4 call on the
    water-tank plant. A caller integrating the same plant repeatedly passes
    it compiled once, as a `CompiledPlant`, which emits the loop at most once.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if duration == 0:
        return s, None
    if not isinstance(plant, CompiledPlant):
        if not isinstance(s, State):
            raise TypeError("a slot list needs the CompiledPlant of its layout")
        plant = CompiledPlant(plant)
    method = cfg.method
    if method == "affine" and not plant.affine:
        raise NotAffine("plant is not affine; use rk4 or auto")
    if method == "auto":
        method = "affine" if plant.affine else "rk4"
    kernel = _integrate_affine if method == "affine" else _integrate_rk4
    if not isinstance(s, State):
        return s, kernel(plant, s, duration, cfg)
    v = plant.layout.load(s)
    domain_exit = kernel(plant, v, duration, cfg)
    return plant.layout.store(s, v), domain_exit


def _integrate_affine(plant: CompiledPlant, v: Slots, duration, cfg) -> Optional[DomainExit]:
    """One cycle of the closed form, advancing `v` in place."""
    rates = [f(v) for f in plant.rates]
    t0 = read(v, plant.clock, plant.spec.clock)

    def at(t: float) -> Slots:
        w = v.copy()
        for (x, i), rate in zip(plant.odes, rates):
            w[i] = read(v, i, x) + rate * t
        w[plant.clock] = t0 + t
        return w

    end = at(duration)
    exit_time, conjunct = _affine_domain_exit(plant, v, end, at, duration, cfg)
    if exit_time is not None:
        v[:] = at(exit_time)
        return DomainExit(exit_time, conjunct)
    v[:] = end
    return None


def _affine_domain_exit(plant: CompiledPlant, v0, end, at, duration, cfg):
    """Earliest domain violation. Comparison conjuncts affine in the
    evolving variables are solved from their endpoint values (linear in
    time); anything else falls back to a grid scan."""
    if plant.domain is None:
        return None, None
    best: tuple[float, Formula] | None = None
    for part, holds, linear in plant.parts:
        if linear is not None:
            hit = _linear_violation(linear, v0, end, duration)
        else:
            hit = _grid_violation(holds, at, duration, cfg.substeps)
        if hit is not None and (best is None or hit < best[0]):
            best = (hit, part)
    if best is None:
        return None, None
    return best


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


def _linear_violation(linear, v0: Slots, v1: Slots, duration: float) -> Optional[float]:
    """Exact first-violation time of a comparison linear in time."""
    rel, difference = linear
    d0 = difference(v0)
    d1 = difference(v1)
    holds = OPERATORS[rel]  # `left rel right` is `d rel 0`
    if not holds(d0, 0.0):
        return 0.0
    if holds(d1, 0.0):
        return None
    # d(t) = d0 + (d1 - d0) * t / duration crosses the boundary once.
    return duration * d0 / (d0 - d1)


def _grid_violation(holds, at, duration: float, substeps: int) -> Optional[float]:
    for k in range(substeps + 1):
        t = duration * k / substeps
        if not holds(at(t)):
            return t
    return None


def _integrate_rk4(plant: CompiledPlant, v: Slots, duration, cfg) -> Optional[DomainExit]:
    """One cycle of fixed-step RK4, advancing `v` in place with the plant's
    emitted substep loop."""
    t0 = read(v, plant.clock, plant.spec.clock)
    if plant.domain is not None and not plant.domain(v):
        return DomainExit(0.0, plant.failing_conjunct(v))
    # The first stage evaluates every rate before it reads an evolving
    # variable. The rates have no branches, so evaluated once here they raise
    # the first stage's error, if any; after that every slot the emitted
    # loop reads is bound.
    for f in plant.rates:
        f(v)
    unbound = [x for x, i in plant.odes if v[i] is None]
    if unbound:
        raise UnboundVariable(unbound[0])
    exit_time = plant.rk4(v, t0, duration, cfg.substeps)
    if exit_time is None:
        return None
    return DomainExit(exit_time, plant.failing_conjunct(v))


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
    in (seed, cycle)."""

    ranges: dict  # Ident -> (lo, hi)
    seed: int = 0

    def values(self, cycle: int) -> dict[Ident, float]:
        rng = random.Random(derive_seed(self.seed, cycle))
        return {
            name: rng.uniform(lo, hi)
            for name, (lo, hi) in sorted(self.ranges.items(), key=lambda kv: kv[0].name)
        }


@dataclass(frozen=True)
class CsvInputs(InputProvider):
    """Cycle-indexed input values from trace rows (column-mapped)."""

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
    actuators = set(io_spec.outputs)
    slots = records[0].layout.slots if records else {}
    # (column, 1 to read the post-control snapshot else 0, its slot)
    cells = [(col, int(col in actuators), slots.get(col)) for col in columns]
    for rec in records:
        snapshots = (rec.pre_values, rec.ctrl_values)
        row: list = [rec.index]
        for col, phase, i in cells:
            value = None if i is None else snapshots[phase][i]
            if value is None:
                raise UnboundVariable(col)
            row.append(repr(value))
        writer.writerow(row)


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
    for col, name in enumerate(header, 1):
        first = header.index(name) + 1
        if first != col:
            raise InputFileError(source, f"column {col}: {name} is also column {first}", line)
        try:
            keys.append(CYCLE_COLUMN if name == CYCLE_COLUMN else Ident(name))
        except ValueError as exc:
            raise InputFileError(source, f"column {col}: {exc}", line) from None
    rows = []
    for raw in reader:
        if not raw:
            continue
        if len(raw) != len(header):
            raise InputFileError(
                source, f"row has {len(raw)} cells but the header has {len(header)}", line)
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
        rows.append(row)
    return header, rows


def read_trace_file(path) -> tuple[list[str], list[dict]]:
    with open(path, "r", encoding="utf-8") as handle:
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
) -> ComplianceReport:
    """Replay recorded sensor/parameter values through the deterministic
    controller and compare expected actuations with the recorded ones.

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

    needed = set(trace_columns(io_spec))
    if rows:
        have = {k for k in rows[0] if isinstance(k, Ident)}
        missing = sorted((needed - have), key=lambda x: x.name)
        if missing:
            raise SchemaError(missing)

    layout = Layout()
    control = compile_st(st_body, layout)
    outputs = [(x, layout.slot(x)) for x in io_spec.outputs]
    sensors = [(x, layout.slot(x)) for x in list(io_spec.inputs) + list(io_spec.params)]
    violating: list[tuple[int, str]] = []
    prev_actuators: Optional[list] = None
    for row in rows:
        if prev_actuators is None:
            prev_actuators = [row[x] for x, _ in outputs]
        values: Slots = [None] * len(layout.names)
        for x, i in sensors:
            values[i] = float(row[x])
        for (_, i), value in zip(outputs, prev_actuators):
            values[i] = float(value)
        control(values)
        mismatches = [(x, values[i], row[x]) for x, i in outputs if values[i] != row[x]]
        if mismatches:
            x, want, got = mismatches[0]
            violating.append((row[CYCLE_COLUMN], f"{x} expected {want!r} recorded {got!r}"))
        prev_actuators = [row[x] for x, _ in outputs]

    instances: list[ComplianceInstance] = []
    for cycle, description in violating:
        if instances and cycle == instances[-1].end_cycle + 1:
            last = instances[-1]
            instances[-1] = ComplianceInstance(last.start_cycle, cycle, last.description)
        else:
            instances.append(ComplianceInstance(cycle, cycle, description))
    return ComplianceReport(tuple(instances), checked=len(rows))
