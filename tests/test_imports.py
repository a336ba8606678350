"""Each command loads only the modules it runs, and the package namespace
still offers every name it re-exports.

The import-graph tests run a fresh interpreter and read `sys.modules` when
it exits, so that no module another test imported can hide a load.
"""

import importlib
import os
import subprocess
import sys

import pytest

import golden
import plchp

SRC = str(golden.DATA.parent.parent / "src")

# The package's re-exports, by the module that defines each.
EXPORTS = {
    "analysis": ["IoClassification", "VarSets", "classify_io", "extract_epsilon",
                 "validate_scan_cycle_form", "var_sets"],
    "dl_syntax": ["DlSafetyFormula", "detect_complement", "parse_dl", "parse_dl_formula",
                  "parse_dl_model", "parse_dl_program", "parse_dl_term", "print_dl"],
    "ir": ["And", "Assign", "BinOp", "BoolConst", "Choice", "Cmp", "Equiv", "Formula",
           "GuardedChoice", "Ident", "IfThen", "Imply", "Loop", "Neg", "Not", "Number",
           "OdeSystem", "Or", "PlantSpec", "Program", "RandomAssign", "ScanCycleModel", "Seq",
           "State", "Term", "TestStmt", "Var", "Xor", "collect_vars"],
    "semantics": ["DiffReport", "GenConfig", "ReachSet", "difftest", "eval_formula", "eval_term",
                  "gen_formula", "gen_hp", "gen_st", "gen_term", "hp_reachable", "run_st"],
    "sim": ["ComplianceReport", "ConstantInputs", "CsvInputs", "CycleRecord", "DomainExit",
            "IntegratorConfig", "SimConfig", "UniformInputs", "check_compliance",
            "check_safety", "integrate_plant", "simulate"],
    "st_syntax": ["StConfig", "StUnit", "StVarBlock", "parse_st", "parse_st_expression",
                  "parse_st_statements", "print_st", "print_st_statement"],
    "translate": ["CompileDiagnostics", "formula_hp_to_st", "formula_st_to_hp", "prog_hp_to_st",
                  "prog_st_to_hp", "task_hp_to_st", "task_st_to_hp", "term_hp_to_st",
                  "term_st_to_hp"],
}
ALL = sorted(name for names in EXPORTS.values() for name in names)

# Runs `python -m plchp ARGV`, or without ARGV only the statement, and then
# prints the plchp modules and `csv`, if the run loaded it.
SCRIPT = r"""
import runpy, sys
before = set(sys.modules)
statement, argv = sys.argv[1], sys.argv[2:]
if argv:
    sys.argv = ["plchp", *argv]
    try:
        runpy.run_module("plchp", run_name="__main__")
    except SystemExit as exit:
        assert not exit.code, exit.code
else:
    exec(statement)
sys.stdout.flush()
added = sorted(m for m in set(sys.modules) - before if m.startswith("plchp") or m == "csv")
sys.stderr.write("\n" + " ".join(added))
"""

# What every command loads, and what the compilers add to it. Neither
# includes the simulator (`sim`, `semantics`, `compiled`, `csv`).
BACKEND = ["plchp.st_syntax", "plchp.translate"]
FRONT = ["plchp", "plchp._syntax", "plchp.analysis", "plchp.cli", "plchp.dl_syntax",
         "plchp.errors", "plchp.ir"]


def loaded(tmp_path, statement, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, statement, *map(str, argv)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_import_plchp_loads_no_submodule(tmp_path):
    assert loaded(tmp_path, "import plchp") == {"plchp"}


def test_import_cli_loads_no_backend_and_no_simulator(tmp_path):
    assert sorted(loaded(tmp_path, "import plchp.cli")) == FRONT


def data(name):
    return golden.DATA / name


def test_analyze_loads_only_the_front_end(tmp_path):
    assert sorted(loaded(tmp_path, "", "analyze", data("watertank_safe_model.dlhp"))) == FRONT


@pytest.mark.parametrize("argv", [
    ("st2hp", data("watertank_original.st"), "--plant", data("watertank_plant.dlhp"),
     "--assumptions", data("watertank_assumptions.dlhp"), "--safety", data("watertank_safety.dlhp")),
    ("hp2st", data("watertank_safe_model.dlhp"), "--epsilon", "1"),
], ids=["st2hp", "hp2st"])
def test_compilers_load_no_simulator(tmp_path, argv):
    assert sorted(loaded(tmp_path, "", *argv)) == sorted(FRONT + BACKEND)


def test_all_is_the_list_of_reexported_names():
    assert sorted(plchp.__all__) == ALL and len(set(plchp.__all__)) == len(ALL)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_owning_modules_object(module):
    owner = importlib.import_module(f"plchp.{module}")
    for name in EXPORTS[module]:
        assert getattr(plchp, name) is getattr(owner, name), name


def test_dir_and_star_import_offer_every_name():
    assert set(ALL) <= set(dir(plchp))
    namespace = {}
    exec("from plchp import *", namespace)
    assert set(ALL) <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'plchp' has no attribute 'no_such_name'"):
        plchp.no_such_name
    cli = importlib.import_module("plchp.cli")
    with pytest.raises(AttributeError, match="module 'plchp.cli' has no attribute 'no_such_name'"):
        cli.no_such_name
