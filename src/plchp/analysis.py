"""Static semantics and scan-cycle shape checking.

Free/bound/must-bound variable computation over the translatable program
fragment, input/output classification for configuration generation, and
the scan-cycle boundary: validation of parsed safety formulas into
scan-cycle models and of plant fragments, and the one rule that gives a
model its scan cycle duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .dl_syntax import DlSafetyFormula, print_dl_formula
from .errors import ConflictingEpsilon, MissingEpsilon, NotNormalForm
from .ir import (
    Assign, Choice, Cmp, EQ, Formula, GuardedChoice, HP_STATEMENTS, Ident, LE,
    GE, Loop, Number, OdeSystem, PlantSpec, Program, RandomAssign,
    ScanCycleModel, Seq, TRANSLATABLE, TRUE, TestStmt, Var, collect_vars,
    conjoin, conjuncts, fold, list_to_seq, seq_to_list, walk,
)


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
class IoClassification:
    """Variable roles for PLC configuration generation.

    inputs, outputs, and params are pairwise disjoint after conflict
    resolution; a variable that is both read before writing and written
    lands in outputs, with a warning.
    """

    inputs: tuple[Ident, ...]
    outputs: tuple[Ident, ...]
    params: tuple[Ident, ...]
    warnings: tuple[str, ...] = ()


def var_sets(p: Program) -> VarSets:
    """FV/BV/MBV of a translatable program (ST statements included).

    Assignment: FV = vars(rhs), BV = MBV = {target}. Sequence: FV(a) united
    with FV(b) minus MBV(a); BV and MBV are unions. Conditionals: the guard's
    variables are free, BV is the union of the branches, MBV the intersection
    (an absent branch contributes nothing).
    """
    return fold(p, _var_sets, TRANSLATABLE)


_NONE = VarSets(frozenset(), frozenset(), frozenset())


def _var_sets(p: Program, kids) -> VarSets:
    cls = p.__class__
    if cls is Assign:
        target = frozenset((p.target,))
        return VarSets(frozenset(collect_vars(p.value)), target, target)
    if cls is Seq:
        first, second = kids
        return VarSets(
            first.free | (second.free - first.must_bound),
            first.bound | second.bound,
            first.must_bound | second.must_bound,
        )
    if cls not in TRANSLATABLE:
        raise TypeError(f"var_sets is defined on the translatable fragment, not {cls.__name__}")
    t, e = kids if len(kids) == 2 else (kids[0], _NONE)
    return VarSets(
        frozenset(collect_vars(p.guard if cls is GuardedChoice else p.cond)) | t.free | e.free,
        t.bound | e.bound,
        t.must_bound & e.must_bound,
    )


def classify_io(
    ctrl: Program,
    declared_inputs: tuple[Ident, ...],
    plant: PlantSpec,
) -> IoClassification:
    """Derive VAR_INPUT/VAR_OUTPUT/VAR_EXTERNAL roles from static semantics.

    Outputs are the bound variables of the controller. Inputs are the
    declared inputs plus plant state read by the controller, minus outputs.
    Whatever remains free (and is not the clock) is a parameter.
    """
    vs = var_sets(ctrl)
    # var_sets has checked that ctrl is translatable. One pass collects the
    # assignment targets and the free variables, each in first-seen order.
    assigned, read = {}, {}
    for n in walk(ctrl):
        if n.__class__ is Assign:
            assigned[n.target] = None
        elif n.__class__ is Var and n.ident in vs.free:
            read[n.ident] = None
    outputs = tuple(assigned)
    plant_states = [x for x in plant.state_vars() if x in vs.free]
    candidates = plant_states + [x for x in declared_inputs if x not in plant_states]
    warnings = tuple(
        f"variable {x} is both an input and an output; declared VAR_OUTPUT"
        for x in candidates
        if x in vs.bound
    )
    inputs = tuple(x for x in dict.fromkeys(candidates) if x not in vs.bound)
    params = tuple(
        x for x in read
        if x not in inputs and x not in vs.bound and x != plant.clock
    )
    return IoClassification(inputs, outputs, params, warnings)


# ---------------------------------------------------------------------------
# Scan-cycle normal form


def validate_scan_cycle_form(f: DlSafetyFormula) -> ScanCycleModel:
    """Check top-level shape `A -> [{in; ctrl; t:=0; {odes & Q}}*] S` and
    return the structured model; one precise NotNormalForm reason otherwise."""
    stmts = seq_to_list(f.body)

    idx = 0
    inputs: list[Ident] = []
    while idx < len(stmts) and isinstance(stmts[idx], RandomAssign):
        target = stmts[idx].target
        if target in inputs:
            raise NotNormalForm(f"duplicate input {target}", _pos(stmts[idx]))
        inputs.append(target)
        idx += 1

    if not stmts[idx:]:
        raise NotNormalForm("missing controller and plant after inputs")
    plant = plant_fragment(list_to_seq(stmts[max(idx, len(stmts) - 2):]))

    ctrl_stmts = stmts[idx:-2]
    if not ctrl_stmts:
        raise NotNormalForm("missing controller between inputs and plant")
    ctrl = list_to_seq(ctrl_stmts)
    _check_ctrl(ctrl)

    bound = plant.bound
    epsilon = bound.value if isinstance(bound, Number) else bound.ident
    # ScanCycleModel refuses a plant clock that appears in ctrl or inputs.
    return ScanCycleModel(
        assumptions=f.assumptions,
        inputs=tuple(inputs),
        ctrl=ctrl,
        plant=plant,
        epsilon=epsilon,
        safety=f.safety,
    )


def plant_fragment(p: Program) -> PlantSpec:
    """The plant `t:=0; {odes, t'=1 & t<=eps & Q}`: exactly a clock reset
    followed by the ODE, as a plant file holds it and as a scan-cycle body
    ends. One precise NotNormalForm reason otherwise."""
    stmts = seq_to_list(p)
    last = stmts[-1]
    if not isinstance(last, OdeSystem):
        raise NotNormalForm("missing plant ODE as the last statement", _pos(last))
    if len(stmts) < 2:
        raise NotNormalForm("missing clock reset before the plant ODE", _pos(last))
    if len(stmts) > 2:
        raise NotNormalForm(
            "a plant is a clock reset followed by the plant ODE, with nothing before",
            _pos(stmts[0]))
    reset = stmts[0]
    if not (isinstance(reset, Assign) and isinstance(reset.value, Number) and reset.value.value == 0.0):
        raise NotNormalForm("missing clock reset", _pos(reset))
    clock = reset.target

    odes = list(last.odes)
    clock_odes = [(x, rhs) for x, rhs in odes if x == clock]
    if not clock_odes or not (
        isinstance(clock_odes[0][1], Number) and clock_odes[0][1].value == 1.0
    ):
        raise NotNormalForm(f"missing clock ODE {clock}'=1", _pos(last))
    plant_odes = tuple((x, rhs) for x, rhs in odes if x != clock)

    bound = None
    rest: list[Formula] = []
    for part in conjuncts(last.domain):
        if bound is None:
            candidate = _clock_bound(part, clock)
            if candidate is not None:
                bound = candidate
                continue
        rest.append(part)
    if bound is None:
        raise NotNormalForm(f"missing clock bound {clock}<=eps in the evolution domain", _pos(last))
    domain = conjoin([p for p in rest if p != TRUE])
    return PlantSpec(plant_odes, clock, domain, bound)


def _clock_bound(part: Formula, clock: Ident) -> Optional[Union[Var, Number]]:
    """Match `clock <= e` or `e >= clock` with e a variable or number."""
    if not isinstance(part, Cmp):
        return None
    if part.rel == LE and part.left == Var(clock) and isinstance(part.right, (Var, Number)):
        return part.right
    if part.rel == GE and part.right == Var(clock) and isinstance(part.left, (Var, Number)):
        return part.left
    return None


# Why each statement class other than assignment, sequence and guarded
# choice is out of place in a controller.
_CTRL_ERRORS = {
    TestStmt: "test outside guarded choice",
    RandomAssign: "nondeterministic assignment outside the input section",
    OdeSystem: "ODE outside plant",
    Loop: "nested loop",
    Choice: "choice without a guarded first branch",
}


def _check_ctrl(p: Program) -> None:
    """Reject raw nodes the translatable controller grammar does not allow."""
    for s in walk(p, HP_STATEMENTS):
        cls = s.__class__
        if cls is not Assign and cls not in HP_STATEMENTS:
            reason = _CTRL_ERRORS.get(cls, f"unsupported program construct {cls.__name__}")
            raise NotNormalForm(reason, _pos(s))


def _pos(p: Program):
    return getattr(p, "pos", None)


# ---------------------------------------------------------------------------
# Scan cycle duration


def extract_epsilon(assumptions: Formula, name: Ident = Ident("eps")) -> Optional[float]:
    """Scan top-level conjuncts of the assumptions for `eps = n` (either
    operand order); return the value, or None when only symbolic.

    Raises ConflictingEpsilon when two distinct numeric bindings appear.
    """
    value: Optional[float] = None
    for part in conjuncts(assumptions):
        if not (isinstance(part, Cmp) and part.rel == EQ):
            continue
        candidate = None
        if part.left == Var(name) and isinstance(part.right, Number):
            candidate = part.right.value
        elif part.right == Var(name) and isinstance(part.left, Number):
            candidate = part.left.value
        if candidate is None:
            continue
        if value is not None and value != candidate:
            raise ConflictingEpsilon(
                f"assumptions bind {name} to both {value} and {candidate} "
                f"(in {print_dl_formula(part)})"
            )
        value = candidate
    return value


def resolve_epsilon(m: ScanCycleModel, override: Optional[float] = None) -> float:
    """The scan cycle duration of `m`, the one rule every command follows:
    the override if one is given, else the model's concrete bound, else an
    `eps = n` conjunct of the assumptions. A symbolic duration with neither,
    and a duration that is not positive or not finite, raise MissingEpsilon."""
    epsilon = override
    if epsilon is None:
        if isinstance(m.epsilon, float):
            epsilon = m.epsilon
        else:
            epsilon = extract_epsilon(m.assumptions, m.epsilon)
    if epsilon is None:
        raise MissingEpsilon(
            f"scan cycle duration {m.epsilon} is symbolic; the assumptions "
            "carry no eps = n conjunct and no override was given"
        )
    if not epsilon > 0:  # NaN included
        raise MissingEpsilon(f"scan cycle duration must be positive, got {epsilon}")
    if epsilon == math.inf:
        raise MissingEpsilon(f"scan cycle duration must be finite, got {epsilon}")
    return epsilon
