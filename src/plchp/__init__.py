"""Bidirectional compiler between the IEC 61131-3 structured-text subset and
scan-cycle hybrid programs, with executable reference semantics, static
analysis, a scan-cycle simulator, and trace compliance checking."""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the names the package re-exports from it. A name is imported
# on first use (PEP 562), so `import plchp` loads no submodule and a command
# loads only the modules it runs.
_EXPORTS = {
    "analysis": (
        "IoClassification", "VarSets", "classify_io", "extract_epsilon",
        "validate_scan_cycle_form", "var_sets",
    ),
    "dl_syntax": (
        "DlSafetyFormula", "detect_complement", "parse_dl", "parse_dl_formula",
        "parse_dl_model", "parse_dl_program", "parse_dl_term", "print_dl",
    ),
    "ir": (
        "Assign", "BinOp", "BoolConst", "Choice", "Cmp", "Equiv", "Formula", "GuardedChoice",
        "Ident", "IfThen", "Imply", "Loop", "Neg", "Not", "Number", "OdeSystem", "Or", "And",
        "PlantSpec", "Program", "RandomAssign", "ScanCycleModel", "Seq", "State", "Term",
        "TestStmt", "Var", "Xor", "collect_vars",
    ),
    "semantics": (
        "DiffReport", "GenConfig", "ReachSet", "difftest", "eval_formula", "eval_term",
        "gen_formula", "gen_hp", "gen_st", "gen_term", "hp_reachable", "run_st",
    ),
    "sim": (
        "ComplianceReport", "ConstantInputs", "CsvInputs", "CycleRecord", "DomainExit",
        "IntegratorConfig", "SimConfig", "UniformInputs", "check_compliance",
        "check_safety", "integrate_plant", "simulate",
    ),
    "st_syntax": (
        "StConfig", "StUnit", "StVarBlock", "parse_st", "parse_st_expression",
        "parse_st_statements", "print_st", "print_st_statement",
    ),
    "translate": (
        "CompileDiagnostics", "formula_hp_to_st", "formula_st_to_hp", "prog_hp_to_st",
        "prog_st_to_hp", "task_hp_to_st", "task_st_to_hp", "term_hp_to_st", "term_st_to_hp",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
