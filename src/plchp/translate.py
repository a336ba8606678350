"""Bidirectional compilation between ST statements and hybrid programs.

Terms carry over unchanged (only the power operator is spelled differently
at print time). Comparisons and AND/OR/NOT map one-to-one; XOR, implication,
and biconditional are rewritten into the shared connective set where the
translating fold meets them. Conditionals become test-guarded choices and
back; default-beta choices are linearized into if-then-else by favoring the
guarded branch, which is recorded as a warning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import classify_io, extract_epsilon, interval_exceeds_model, resolve_epsilon
from .dl_syntax import DlSafetyFormula, plant_program
from .errors import DialectError, NotNormalForm, PlantVariableClash
from .ir import (
    And, Assign, BoolConst, CHILDREN, Cmp, EQ, Equiv, Formula, GuardedChoice, HP,
    Ident, IfThen, Imply, Not, Number, Or, PlantSpec, Program, RandomAssign, ST,
    ScanCycleModel, Seq, Term, Var, Xor, collect_vars, fold, number_lexeme,
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
# Terms, formulas and programs

def term_st_to_hp(t: Term) -> Term:
    """Identity on the shared term trees; operator spelling is a print-time
    concern (`**` versus `^`, `*` in both)."""
    return t


def term_hp_to_st(t: Term) -> Term:
    return t


# Each formula or program translator is one fold over its language's
# statements and the connectives. Comparisons, truth values and assignments
# are leaves, and carry over unchanged; terms are not entered.

_ST_TREE = {cls: CHILDREN[cls] for cls in (Seq, IfThen, Not, And, Or, Xor, Imply, Equiv)}
_HP_TREE = {cls: CHILDREN[cls] for cls in (Seq, GuardedChoice, Not, And, Or, Xor, Imply, Equiv)}


def formula_st_to_hp(f: Formula) -> Formula:
    """Compile an ST formula; XOR is rewritten to (NOT p AND q) OR (NOT q AND p)."""
    if f.dialect == HP:
        raise DialectError("formula_st_to_hp expects an ST-dialect formula")
    return fold(f, _shared_connectives, _ST_TREE)


def formula_hp_to_st(f: Formula) -> Formula:
    """Compile an HP formula; -> and <-> are rewritten into AND/OR/NOT first."""
    if f.dialect == ST:
        raise DialectError("formula_hp_to_st expects an HP-dialect formula")
    return fold(f, _shared_connectives, _HP_TREE)


def _shared_connectives(f: Formula, kids) -> Formula:
    """Connective `f`, given its operands' translations, over the connectives
    both languages have (a formula has only its own dialect's); a leaf as it is."""
    if not kids:
        return f
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
    return cls(*kids)


def prog_st_to_hp(s: Program) -> Program:
    """Compile ST statements to the translatable hybrid-program fragment."""
    if not isinstance(s, Program):
        raise TypeError(f"cannot compile {s.__class__.__name__} to a hybrid program")
    return fold(s, _st_to_hp, _ST_TREE)


def _st_to_hp(n, kids):
    cls = n.__class__
    if not kids:
        if cls is Assign or cls is Cmp or cls is BoolConst:
            return n
        raise TypeError(f"cannot compile {cls.__name__} to a hybrid program")
    if cls is Seq:
        return Seq(*kids)
    if cls is IfThen:
        else_ = None if n.else_ is None else kids[2]
        return GuardedChoice(kids[0], kids[1], else_, complemented=True, pos=n.pos)
    return _shared_connectives(n, kids)


def prog_hp_to_st(p: Program) -> tuple[Program, CompileDiagnostics]:
    """Compile a translatable hybrid program to ST statements.

    Default-beta choices resolve to if-then-else by favoring the guarded
    branch; each such linearization is recorded as a warning.
    """
    if not isinstance(p, Program):
        raise NotNormalForm(f"{p.__class__.__name__} has no ST counterpart")
    warnings: list[CompileWarning] = []

    def hp_to_st(n, kids):
        cls = n.__class__
        if not kids:
            if cls is Assign or cls is Cmp or cls is BoolConst:
                return n
            raise NotNormalForm(f"{cls.__name__} has no ST counterpart", n.pos)
        if cls is Seq:
            return Seq(*kids)
        if cls is GuardedChoice:
            if not n.complemented:
                warnings.append(CompileWarning("linearized-choice", "default branch of a guarded "
                                               "choice became ELSE; the PLC favors the guarded "
                                               "branch, losing nondeterminism", n.pos))
            return IfThen(*kids, pos=n.pos)
        return _shared_connectives(n, kids)

    result = fold(p, hp_to_st, _HP_TREE)
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
    `analysis.resolve_epsilon` gives the model and the `epsilon` override;
    an interval outside what the model was verified for is warned about.
    """
    resolved = DEFAULT_NAMES | (names or {})
    epsilon = resolve_epsilon(m, epsilon)

    body, diags = prog_hp_to_st(m.ctrl)
    io = classify_io(m)
    diags = diags.extend(CompileWarning("io-conflict", w) for w in io.warnings)
    exceeds = interval_exceeds_model(m, epsilon)
    if exceeds is not None:
        diags = diags.extend([CompileWarning("epsilon-exceeds-model", exceeds)])

    blocks: list[StVarBlock] = []
    if io.inputs:
        blocks.append(StVarBlock("input", tuple((x, "LREAL") for x in io.inputs)))
    if io.outputs:
        blocks.append(StVarBlock(
            "output",
            tuple((x, "BOOL" if x in m.facts.zero_one else "LREAL") for x in io.outputs),
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

    body = Seq(*[RandomAssign(x) for x in inputs], ctrl, plant_program(plant))
    return DlSafetyFormula(assumptions, body, safety)
