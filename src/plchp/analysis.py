"""Static semantics and scan-cycle shape checking.

Free/bound/must-bound variables (`ir.program_facts` computes them) and the
input/output classification of a model for configuration generation, and
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
    Assign, Choice, Cmp, EQ, Formula, GE, GT, HP_STATEMENTS, Ident, LE, LT, Loop, NE,
    Number, OdeSystem, PlantSpec, Program, RandomAssign, ScanCycleModel, TRUE,
    TestStmt, Var, VarSets, conjoin, conjuncts, list_to_seq, number_lexeme, program_facts,
    seq_to_list, walk,
)


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
    """FV/BV/MBV of a translatable program, by `ir.program_facts`."""
    return program_facts(p).var_sets


def classify_io(m: ScanCycleModel) -> IoClassification:
    """Derive VAR_INPUT/VAR_OUTPUT/VAR_EXTERNAL roles from the facts of the
    model's controller.

    Outputs are the bound variables of the controller. Inputs are the
    declared inputs plus plant state read by the controller, minus outputs.
    Whatever else it reads free (never the clock, in a model) is a parameter.
    """
    vs = m.facts.var_sets
    plant_states = [x for x in m.plant.state_vars() if x in vs.free]
    candidates = plant_states + [x for x in m.inputs if x not in plant_states]
    warnings = tuple(
        f"variable {x} is both an input and an output; declared VAR_OUTPUT"
        for x in candidates
        if x in vs.bound
    )
    inputs = dict.fromkeys(x for x in candidates if x not in vs.bound)
    # A variable read but not free is bound before it is read.
    params = tuple(x for x in m.facts.read if x not in inputs and x not in vs.bound)
    return IoClassification(tuple(inputs), m.facts.assigned, params, warnings)


# ---------------------------------------------------------------------------
# Scan-cycle normal form


def validate_scan_cycle_form(f: DlSafetyFormula) -> ScanCycleModel:
    """Check top-level shape `A -> [{in; ctrl; t:=0; {odes & Q}}*] S` and
    return the structured model; one precise NotNormalForm reason otherwise."""
    stmts = seq_to_list(f.body)

    inputs: dict[Ident, None] = {}
    for s in stmts:
        if not isinstance(s, RandomAssign):
            break
        if s.target in inputs:
            raise NotNormalForm(f"duplicate input {s.target}", s.pos)
        inputs[s.target] = None
    idx = len(inputs)

    if idx == len(stmts):
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
        raise NotNormalForm("missing plant ODE as the last statement", last.pos)
    if len(stmts) < 2:
        raise NotNormalForm("missing clock reset before the plant ODE", last.pos)
    if len(stmts) > 2:
        raise NotNormalForm(
            "a plant is a clock reset followed by the plant ODE, with nothing before",
            stmts[0].pos)
    reset = stmts[0]
    if not (isinstance(reset, Assign) and isinstance(reset.value, Number) and reset.value.value == 0.0):
        raise NotNormalForm("missing clock reset", reset.pos)
    clock = reset.target

    odes = list(last.odes)
    clock_odes = [(x, rhs) for x, rhs in odes if x == clock]
    if not clock_odes or not (
        isinstance(clock_odes[0][1], Number) and clock_odes[0][1].value == 1.0
    ):
        raise NotNormalForm(f"missing clock ODE {clock}'=1", last.pos)
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
        raise NotNormalForm(f"missing clock bound {clock}<=eps in the evolution domain", last.pos)
    domain = conjoin([p for p in rest if p != TRUE])
    return PlantSpec(plant_odes, clock, domain, bound)


def _clock_bound(part: Formula, clock: Ident) -> Optional[Union[Var, Number]]:
    """Match `clock <= e` or `e >= clock` with e a variable or number."""
    for rel, e in _compared(part, clock):
        if rel == LE and isinstance(e, (Var, Number)):
            return e
    return None


# `e rel x` says what `x _CONVERSE[rel] e` says.
_CONVERSE = {EQ: EQ, NE: NE, LT: GT, LE: GE, GT: LT, GE: LE}


def _compared(part: Formula, x: Ident) -> list:
    """Each reading of `part` as `x rel e`, a `(rel, e)` pair: none unless
    `part` compares variable `x` with a term, either way round."""
    if part.__class__ is not Cmp:
        return []
    left, right = part.left, part.right
    return ([(part.rel, right)] if left.__class__ is Var and left.ident is x else []) + (
        [(_CONVERSE[part.rel], left)] if right.__class__ is Var and right.ident is x else [])


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
            raise NotNormalForm(reason, s.pos)


# ---------------------------------------------------------------------------
# Scan cycle duration


def extract_epsilon(assumptions: Formula, name: Ident = Ident("eps")) -> Optional[float]:
    """Scan top-level conjuncts of the assumptions for `eps = n` (either
    operand order); return the value, or None when only symbolic.

    Raises ConflictingEpsilon when two distinct numeric bindings appear.
    """
    value: Optional[float] = None
    for part in conjuncts(assumptions):
        candidate = next((e.value for rel, e in _compared(part, name)
                          if rel == EQ and isinstance(e, Number)), None)
        if candidate is None:
            continue
        if value is not None and value != candidate:
            raise ConflictingEpsilon(
                f"assumptions bind {name} to both {value} and {candidate} "
                f"(in {print_dl_formula(part)})"
            )
        value = candidate
    return value


def model_epsilon(m: ScanCycleModel) -> Optional[float]:
    """The scan cycle duration `m` itself gives: its concrete bound, else an
    `eps = n` conjunct of the assumptions, else None. Raises
    ConflictingEpsilon as extract_epsilon does."""
    if isinstance(m.epsilon, float):
        return m.epsilon
    return extract_epsilon(m.assumptions, m.epsilon)


def interval_exceeds_model(m: ScanCycleModel, interval: float) -> Optional[str]:
    """Why a PLC task `interval` runs outside what `m` was verified for, or
    None. The model covers cycles up to the shortest duration it gives
    only: its own duration (`model_epsilon`), or a top-level `eps <= n` or
    `eps < n` of its assumptions, either way round. A model that gives
    none, or two durations that conflict, leaves nothing to compare."""
    try:
        duration = model_epsilon(m)
    except ConflictingEpsilon:
        return None
    limits = [] if duration is None else [(duration, EQ)]
    if isinstance(m.epsilon, Ident):
        limits += [(e.value, rel) for part in conjuncts(m.assumptions)
                   for rel, e in _compared(part, m.epsilon)
                   if rel in (LE, LT) and isinstance(e, Number)]
    # At one value, a strict bound is the shortest.
    limit, rel = min(limits, key=lambda pair: (pair[0], pair[1] != LT), default=(math.inf, EQ))
    if interval < limit or (interval == limit and rel != LT):
        return None
    how = ("is longer than the scan cycle duration" if rel == EQ else
           f"is outside the scan cycle durations {'up to' if rel == LE else 'below'}")
    return (f"task interval {number_lexeme(interval)} s {how} {number_lexeme(limit)} s "
            "the model was verified for")


def resolve_epsilon(m: ScanCycleModel, override: Optional[float] = None) -> float:
    """The scan cycle duration of `m`, the one rule every command follows:
    the override if one is given, else the model's concrete bound, else an
    `eps = n` conjunct of the assumptions. A symbolic duration with neither,
    and a duration that is not positive or not finite, raise MissingEpsilon."""
    epsilon = model_epsilon(m) if override is None else override
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
