"""Bidirectional compiler between the IEC 61131-3 structured-text subset and
scan-cycle hybrid programs, with executable reference semantics, static
analysis, a scan-cycle simulator, and trace compliance checking."""

__version__ = "0.1.0"

from .analysis import (
    IoClassification, VarSets, classify_io, extract_epsilon,
    validate_scan_cycle_form, var_sets,
)
from .dl_syntax import (
    DlSafetyFormula, detect_complement, parse_dl, parse_dl_formula,
    parse_dl_model, parse_dl_program, parse_dl_term, print_dl,
)
from .ir import (
    Assign, BinOp, BoolConst, Choice, Cmp, Equiv, Formula, GuardedChoice,
    Ident, IfThen, Imply, Loop, Neg, Not, Number, OdeSystem, Or, And,
    PlantSpec, Program, RandomAssign, ScanCycleModel, Seq, State, Term,
    TestStmt, Var, Xor, collect_vars,
)
from .semantics import (
    DiffReport, GenConfig, ReachSet, difftest, eval_formula, eval_term,
    gen_formula, gen_hp, gen_st, gen_term, hp_reachable, run_st,
)
from .sim import (
    ComplianceReport, ConstantInputs, CsvInputs, CycleRecord, DomainExit,
    IntegratorConfig, SimConfig, UniformInputs, check_compliance,
    check_safety, integrate_plant, simulate,
)
from .st_syntax import (
    StConfig, StUnit, StVarBlock, parse_st, parse_st_expression,
    parse_st_statements, print_st, print_st_statement,
)
from .translate import (
    CompileDiagnostics, formula_hp_to_st, formula_st_to_hp, prog_hp_to_st,
    prog_st_to_hp, task_hp_to_st, task_st_to_hp, term_hp_to_st, term_st_to_hp,
)
