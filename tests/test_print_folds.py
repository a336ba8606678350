"""The statement printers fold each tree once, and lay out its lines once.

Each printer folds a statement with its terms and formulas in one
`ir.fold`, whose step is the dialect's `render`; the ST printer's rope of
lines is laid out by `ir.flatten`. These tests count the folds on the tank
models, and print nests far deeper than the recursive reference printers
of tests/test_traversal.py can reach, against text built with string
operations.
"""

from __future__ import annotations

import golden
from plchp import _syntax, dl_syntax, ir, st_syntax
from plchp.analysis import validate_scan_cycle_form
from plchp.dl_syntax import DL, parse_dl, parse_dl_model, print_dl_model, print_dl_program
from plchp.ir import Assign, Cmp, GuardedChoice, Ident, IfThen, Number, Var, flatten, seq_to_list
from plchp.st_syntax import parse_st, print_st, print_st_statement
from plchp.translate import task_hp_to_st

DEPTH = 3000


def count_folds(monkeypatch, module) -> list:
    """The roots of the folds `module` starts from now on."""
    roots = []
    real = module.fold

    def counted(node, combine, children=ir.CHILDREN):
        roots.append(node)
        return real(node, combine, children)

    monkeypatch.setattr(module, "fold", counted)
    return roots


def test_flatten_lays_out_lists_at_their_level_and_tuples_one_step_deeper():
    rope = ["a", ["b", ("c", ["d", ("e",)]), "f"], ("g",)]
    assert flatten(rope, "> ", "..") == ["> a", "> b", "> ..c", "> ..d", "> ....e", "> f", "> ..g"]
    assert flatten([], "", "  ") == []


def test_st_printer_folds_each_body_once(monkeypatch):
    units = [parse_st((golden.DATA / "watertank_original.st").read_text())]
    for name in ("watertank_original_model.dlhp", "watertank_safe_model.dlhp"):
        model = validate_scan_cycle_form(parse_dl_model((golden.DATA / name).read_text()))
        units.append(task_hp_to_st(model, epsilon=1.0)[0])
    statements, expressions = count_folds(monkeypatch, st_syntax), count_folds(monkeypatch, _syntax)
    for unit in units:
        print_st(unit)
        assert statements == [unit.body]
        assert expressions == []
        statements.clear()


def test_dl_printer_folds_each_top_level_statement_once(monkeypatch):
    models = [parse_dl_model((golden.DATA / name).read_text())
              for name in ("watertank_original_model.dlhp", "watertank_safe_model.dlhp")]
    statements, expressions = count_folds(monkeypatch, dl_syntax), count_folds(monkeypatch, _syntax)
    for model in models:
        print_dl_model(model)
        assert statements == seq_to_list(model.body)
        assert expressions == [model.assumptions, model.safety]
        statements.clear()
        expressions.clear()


def test_parse_dl_lexes_its_text_once(monkeypatch):
    texts = []
    real = DL.lex
    monkeypatch.setattr(DL, "lex", lambda text: texts.append(text) or real(text))
    for text in ("x + 1", "x := 1;"):
        parse_dl(text)
        assert texts == [text]
        texts.clear()


def _gt(k: int) -> Cmp:
    return Cmp("gt", Var(Ident("x")), Number(str(k)))


def _set_a(k: int) -> Assign:
    return Assign(Ident("a"), Number(str(k)))


def test_deep_if_nest_prints_in_both_dialects():
    st, dl = _set_a(1), _set_a(1)
    for _ in range(DEPTH):
        st = IfThen(_gt(0), st)
        dl = GuardedChoice(_gt(0), dl, None, complemented=True)
    pads = ["  " * k for k in range(DEPTH + 1)]
    expected = "\n".join([*(f"{pad}IF (x > 0) THEN" for pad in pads[:-1]), f"{pads[-1]}a := 1;",
                          *(f"{pad}END_IF;" for pad in reversed(pads[:-1]))])
    assert print_st_statement(st) == expected
    del expected
    assert print_dl_program(dl) == "{?x>0; " * DEPTH + "a:=1;" + "} ++ {?!(x>0);}" * DEPTH


def test_long_elsif_chain_prints_in_both_dialects():
    st, dl = _set_a(DEPTH), _set_a(DEPTH)
    for k in reversed(range(DEPTH)):
        st = IfThen(_gt(k), _set_a(k), st)
        dl = GuardedChoice(_gt(k), _set_a(k), dl, complemented=True)
    pads = ["  " * k for k in range(DEPTH + 1)]
    lines = []
    for k, pad in enumerate(pads[:-1]):
        lines += f"{pad}IF (x > {k}) THEN", f"{pad}  a := {k};", f"{pad}ELSE"
    lines.append(f"{pads[-1]}a := {DEPTH};")
    lines += (f"{pad}END_IF;" for pad in reversed(pads[:-1]))
    expected = "\n".join(lines)
    del lines
    assert print_st_statement(st) == expected
    del expected
    assert print_dl_program(dl) == ("".join(f"{{?x>{k}; a:={k};}} ++ {{?!(x>{k}); " for k in range(DEPTH))
                                    + f"a:={DEPTH};" + "}" * DEPTH)
