"""Static semantics and scan-cycle shape checking.

Free/bound/must-bound variable computation over the translatable program
fragment, input/output classification for configuration generation,
validation of parsed safety formulas into scan-cycle models, and extraction
of a concrete scan cycle duration from the assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .dl_syntax import DlSafetyFormula, print_dl_formula
from .errors import ConflictingEpsilon, NotNormalForm
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
    # var_sets has checked that ctrl is translatable.
    outputs = tuple(dict.fromkeys(
        s.target for s in walk(ctrl, TRANSLATABLE) if s.__class__ is Assign))
    plant_states = [x for x in plant.state_vars() if x in vs.free]
    candidates = plant_states + [x for x in declared_inputs if x not in plant_states]
    warnings = tuple(
        f"variable {x} is both an input and an output; declared VAR_OUTPUT"
        for x in candidates
        if x in vs.bound
    )
    inputs = tuple(x for x in dict.fromkeys(candidates) if x not in vs.bound)
    free_order = dict.fromkeys(
        n.ident for n in walk(ctrl) if n.__class__ is Var and n.ident in vs.free
    )
    params = tuple(
        x for x in free_order
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
    last = stmts[-1]
    if not isinstance(last, OdeSystem):
        raise NotNormalForm("missing plant ODE at the end of the loop body", _pos(last))
    if len(stmts) - idx < 2:
        raise NotNormalForm("missing clock reset before the plant ODE", _pos(last))
    reset = stmts[-2]
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

    domain_parts = conjuncts(last.domain)
    bound = None
    rest: list[Formula] = []
    for part in domain_parts:
        if bound is None:
            candidate = _clock_bound(part, clock)
            if candidate is not None:
                bound = candidate
                continue
        rest.append(part)
    if bound is None:
        raise NotNormalForm(f"missing clock bound {clock}<=eps in the evolution domain", _pos(last))
    domain = conjoin([p for p in rest if p != TRUE])

    ctrl_stmts = stmts[idx:-2]
    if not ctrl_stmts:
        raise NotNormalForm("missing controller between inputs and plant")
    ctrl = list_to_seq(ctrl_stmts)
    _check_ctrl(ctrl)

    plant = PlantSpec(plant_odes, clock, domain, bound)
    epsilon: Union[float, Ident]
    if isinstance(bound, Number):
        epsilon = bound.value
    else:
        epsilon = bound.ident

    used = collect_vars(ctrl) | set(inputs)
    if clock in used:
        raise NotNormalForm(f"plant clock {clock} appears in ctrl or inputs")

    return ScanCycleModel(
        assumptions=f.assumptions,
        inputs=tuple(inputs),
        ctrl=ctrl,
        plant=plant,
        epsilon=epsilon,
        safety=f.safety,
    )


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
