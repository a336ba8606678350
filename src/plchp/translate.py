"""Bidirectional compilation between ST statements and hybrid programs.

Terms carry over unchanged (only the power operator is spelled differently
at print time). Comparisons and AND/OR/NOT map one-to-one; XOR, implication,
and biconditional are rewritten into the shared connective set before
compiling. Conditionals become test-guarded choices and back; default-beta
choices are linearized into if-then-else by favoring the guarded branch,
which is recorded as a warning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import classify_io, extract_epsilon, resolve_epsilon
from .dl_syntax import DlSafetyFormula, plant_program
from .errors import DialectError, NotNormalForm, PlantVariableClash
from .ir import (
    And, Assign, CHILDREN, Cmp, EQ, Equiv, Formula, GuardedChoice, HP,
    HP_STATEMENTS, Ident, IfThen, IfThenElse, Imply, Not, Number, Or,
    PlantSpec, Program, RandomAssign, ST, ST_STATEMENTS, ScanCycleModel, Seq,
    Term, Var, Xor, collect_vars, fold, list_to_seq, number_lexeme,
    seq_to_list, walk,
)
from .st_syntax import StConfig, StUnit, StVarBlock


@dataclass(frozen=True)
class CompileWarning:
    code: str
    message: str
    location: tuple | None = None


@dataclass(frozen=True)
class CompileDiagnostics:
    """Warnings emitted during compilation; empty for programs in the fully
    complemented deterministic fragment."""

    warnings: tuple[CompileWarning, ...] = ()

    def extend(self, more) -> "CompileDiagnostics":
        return CompileDiagnostics(self.warnings + tuple(more))


# ---------------------------------------------------------------------------
# Terms

def term_st_to_hp(t: Term) -> Term:
    """Identity on the shared term trees; operator spelling is a print-time
    concern (`**` versus `^`, `*` in both)."""
    return t


def term_hp_to_st(t: Term) -> Term:
    return t


# ---------------------------------------------------------------------------
# Formulas

def formula_st_to_hp(f: Formula) -> Formula:
    """Compile an ST formula; XOR is rewritten to (NOT p AND q) OR (NOT q AND p)."""
    if f.dialect == HP:
        raise DialectError("formula_st_to_hp expects an ST-dialect formula")
    return fold(f, _shared_connectives, _CONNECTIVES)


def formula_hp_to_st(f: Formula) -> Formula:
    """Compile an HP formula; -> and <-> are rewritten into AND/OR/NOT first."""
    if f.dialect == ST:
        raise DialectError("formula_hp_to_st expects an HP-dialect formula")
    return fold(f, _shared_connectives, _CONNECTIVES)


# Comparisons and truth values are leaves, and carry over unchanged.
_CONNECTIVES = {cls: CHILDREN[cls] for cls in (Not, And, Or, Xor, Imply, Equiv)}


def _shared_connectives(f: Formula, kids) -> Formula:
    """`f` over the connectives both languages have. A formula has the
    connectives of its own dialect only, so one rewrite serves both ways."""
    cls = f.__class__
    if cls is Xor:
        left, right = kids
        return Or(And(Not(left), right), And(Not(right), left))
    if cls is Imply:
        left, right = kids
        return Or(Not(left), right)
    if cls is Equiv:
        left, right = kids
        return Or(And(Not(left), Not(right)), And(left, right))
    if cls in _CONNECTIVES:
        return cls(*kids)
    return f


# ---------------------------------------------------------------------------
# Programs

def prog_st_to_hp(s: Program) -> Program:
    """Compile ST statements to the translatable hybrid-program fragment."""
    return fold(s, _st_to_hp, ST_STATEMENTS)


def _st_to_hp(s: Program, kids) -> Program:
    cls = s.__class__
    if cls is Assign:
        return Assign(s.target, term_st_to_hp(s.value))
    if cls is Seq:
        return Seq(*kids)
    if cls is IfThenElse or cls is IfThen:
        then, else_ = kids if cls is IfThenElse else (kids[0], None)
        return GuardedChoice(formula_st_to_hp(s.cond), then, else_, complemented=True)
    raise TypeError(f"cannot compile {cls.__name__} to a hybrid program")


def prog_hp_to_st(p: Program) -> tuple[Program, CompileDiagnostics]:
    """Compile a translatable hybrid program to ST statements.

    Default-beta choices resolve to if-then-else by favoring the guarded
    branch; each such linearization is recorded as a warning.
    """
    warnings: list[CompileWarning] = []

    def hp_to_st(p: Program, kids) -> Program:
        cls = p.__class__
        if cls is Assign:
            return Assign(p.target, term_hp_to_st(p.value))
        if cls is Seq:
            return Seq(*kids)
        if cls is not GuardedChoice:
            raise NotNormalForm(f"{cls.__name__} has no ST counterpart", getattr(p, "pos", None))
        cond = formula_hp_to_st(p.guard)
        if p.else_ is None:
            return IfThen(cond, *kids)
        if not p.complemented:
            warnings.append(CompileWarning(
                "linearized-choice",
                "default branch of a guarded choice became ELSE; the PLC favors "
                "the guarded branch, losing nondeterminism",
                getattr(p, "pos", None),
            ))
        return IfThenElse(cond, *kids)

    result = fold(p, hp_to_st, HP_STATEMENTS)
    return result, CompileDiagnostics(tuple(warnings))


# ---------------------------------------------------------------------------
# Tasks (whole-unit compilation)

GeneratedNames = dict  # program/config/resource/task/instance name overrides

# The generated names, and the defaults of hp2st's `--<kind>-name` options.
DEFAULT_NAMES = {
    "program": "prog0",
    "config": "Config0",
    "resource": "Res0",
    "task": "Main",
    "instance": "Inst0",
}


def task_hp_to_st(
    m: ScanCycleModel,
    epsilon: float | None = None,
    names: GeneratedNames | None = None,
) -> tuple[StUnit, CompileDiagnostics]:
    """Compile a scan-cycle model into a complete program unit.

    The task interval is the scan cycle duration that
    `analysis.resolve_epsilon` gives the model and the `epsilon` override.
    """
    resolved = DEFAULT_NAMES | (names or {})
    epsilon = resolve_epsilon(m, epsilon)

    body, diags = prog_hp_to_st(m.ctrl)
    io = classify_io(m.ctrl, m.inputs, m.plant)
    diags = diags.extend(CompileWarning("io-conflict", w) for w in io.warnings)

    bool_outputs = _zero_one_outputs(m.ctrl)
    blocks: list[StVarBlock] = []
    if io.inputs:
        blocks.append(StVarBlock("input", tuple((x, "LREAL") for x in io.inputs)))
    if io.outputs:
        blocks.append(StVarBlock(
            "output",
            tuple((x, "BOOL" if x in bool_outputs else "LREAL") for x in io.outputs),
        ))
    if io.params:
        blocks.append(StVarBlock("external", tuple((x, "LREAL") for x in io.params)))

    config = StConfig(
        config_name=Ident(resolved["config"]),
        resource_name=Ident(resolved["resource"]),
        task_name=Ident(resolved["task"]),
        program_instance=Ident(resolved["instance"]),
        interval=epsilon,
        priority=0,
    )
    unit = StUnit(Ident(resolved["program"]), tuple(blocks), body, config)
    return unit, diags


def _zero_one_outputs(ctrl: Program) -> set[Ident]:
    """Bound variables that are only ever assigned literal 0 or 1."""
    assigned: dict[Ident, bool] = {}
    for p in walk(ctrl, HP_STATEMENTS):
        if p.__class__ is Assign:
            ok = p.value.__class__ is Number and p.value.value in (0.0, 1.0)
            assigned[p.target] = assigned.get(p.target, True) and ok
    return {x for x, ok in assigned.items() if ok}


def task_st_to_hp(
    u: StUnit,
    plant: PlantSpec,
    assumptions: Formula,
    safety: Formula,
) -> DlSafetyFormula:
    """Compile a program unit plus a given plant into the safety formula
    `A -> [{in; ctrl; plant}*] S`.

    Declared inputs become nondeterministic assignments in declaration
    order, except plant state variables (those are driven by the ODEs, not
    read fresh each cycle). A task interval adds an `eps = n` conjunct to
    the assumptions when none is present.
    """
    if assumptions.dialect == ST or safety.dialect == ST:
        raise DialectError("assumptions and safety must be HP-dialect formulas")

    unit_vars = collect_vars(u.body) | {
        name for block in u.var_blocks for name, _ in block.decls
    }
    if plant.clock in unit_vars:
        raise PlantVariableClash(
            f"plant clock {plant.clock} collides with a program variable"
        )

    plant_states = set(plant.state_vars())
    inputs = [x for x in u.declared("input") if x not in plant_states]
    ctrl = prog_st_to_hp(u.body)

    if u.config is not None and isinstance(plant.bound, Var):
        symbol = plant.bound.ident
        if extract_epsilon(assumptions, symbol) is None:
            conjunct = Cmp(EQ, Var(symbol), Number(number_lexeme(u.config.interval)))
            assumptions = And(assumptions, conjunct)

    # Fold the flat statement list so the body parses/prints as a fixpoint.
    body = list_to_seq(
        [RandomAssign(x) for x in inputs]
        + seq_to_list(ctrl)
        + seq_to_list(plant_program(plant))
    )
    return DlSafetyFormula(assumptions, body, safety)
