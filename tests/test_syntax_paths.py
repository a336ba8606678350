"""Grammar paths that no other test reaches: optional semicolons, the
configuration's program check, raw choices, duplicate ODEs, the seconds
form of a task interval, the model shapes that lack a controller, the
edges of a trace file, and number literals past binary64's range."""

import io

import pytest

from plchp.analysis import validate_scan_cycle_form
from plchp.cli import main
from plchp.dl_syntax import parse_dl_formula, parse_dl_model, parse_dl_program, print_dl_program
from plchp.errors import NotNormalForm, ParseError, SchemaError
from plchp.ir import Choice, Ident, Number, TestStmt
from plchp.sim import read_trace
from plchp.st_syntax import format_interval, parse_st, parse_st_statements

UNIT = (
    "PROGRAM p VAR x : REAL; END_VAR{0} x:=1; END_PROGRAM{0}\n"
    "CONFIGURATION c RESOURCE r ON PLC TASK m(INTERVAL:=T#1 s, PRIORITY:=1){0}\n"
    "PROGRAM i WITH m : {1}{0} END_RESOURCE{0} END_CONFIGURATION{0}"
)


def test_st_semicolons_after_each_end_keyword_are_optional():
    bare = parse_st(UNIT.format("", "p"))
    assert parse_st(UNIT.format(";", "p")) == bare
    assert bare.config.program_instance == Ident("i")


@pytest.mark.parametrize("separator, column", [("", 52), (";", 55)])
def test_configuration_refers_to_unknown_program(separator, column):
    with pytest.raises(ParseError) as info:
        parse_st(UNIT.format(separator, "q"))
    assert str(info.value) == f"3:{column}: configuration refers to unknown program q"


@pytest.mark.parametrize("old, new, message", [
    ("PROGRAM p", "PROGRAM 1", "1:9: found number '1' (expected identifier)"),
    ("CONFIGURATION c", "CONFIGURATION", "2:15: found keyword RESOURCE (expected identifier)"),
    ("RESOURCE r", "RESOURCE IF", "2:26: found keyword IF (expected identifier)"),
    ("ON PLC", "ON", "2:31: found keyword TASK (expected identifier)"),
    ("TASK m", "TASK (m", "2:40: found op '(' (expected identifier)"),
    ("PROGRAM i", "PROGRAM 2", "3:9: found number '2' (expected identifier)"),
    ("WITH m", "WITH ;", "3:16: found op ';' (expected identifier)"),
    ("WITH m", "WITH n", "3:18: program bound to unknown task n (expected m)"),
    (": p", ": ;", "3:20: found op ';' (expected identifier)"),
    ("END_RESOURCE", "", "3:23: found keyword END_CONFIGURATION (expected END_RESOURCE)"),
    ("END_CONFIGURATION", "END_CONFIGURATION x",
     "3:53: unexpected trailing input: ident 'x' (expected end of file)"),
])
def test_unit_names_and_end_keywords(old, new, message):
    with pytest.raises(ParseError) as info:
        parse_st(UNIT.format("", "p").replace(old, new, 1))
    assert str(info.value) == message


def test_dl_semicolon_after_a_choice_group_is_optional():
    text = "{?x>0; a:=1;} ++ {?!(x>0); a:=2;} b:=1;"
    bare = parse_dl_program(text)
    assert parse_dl_program(text.replace("} b", "}; b")) == bare
    assert print_dl_program(bare) == "{?x>0; a:=1;} ++ {?!(x>0); a:=2;}\nb:=1;"


def test_a_choice_whose_left_branch_is_a_bare_test_is_raw():
    choice = parse_dl_program("{?x>0;} ++ {a:=1;}")
    assert choice.__class__ is Choice and choice.left.__class__ is TestStmt
    with pytest.raises(NotNormalForm) as info:
        validate_scan_cycle_form(parse_dl_model(
            "true -> [{ {?x>0;} ++ {a:=1;} t:=0; {x'=1, t'=1 & t<=1} }*] x>0"))
    assert str(info.value) == "1:12: choice without a guarded first branch"


def test_duplicate_differential_equation():
    with pytest.raises(ParseError) as info:
        parse_dl_program("a:=1;\n  {x'=1, x'=2 & x>0}")
    assert str(info.value) == "2:3: duplicate differential equation for x"


@pytest.mark.parametrize("body, reason", [
    ("u:=*;", "missing controller and plant after inputs"),
    ("u:=*; t:=0; {x'=1, t'=1 & t<=1}", "missing controller between inputs and plant"),
])
def test_a_model_without_a_controller(body, reason):
    with pytest.raises(NotNormalForm) as info:
        validate_scan_cycle_form(parse_dl_model(f"true -> [{{ {body} }}*] x>0"))
    assert str(info.value) == reason


@pytest.mark.parametrize("seconds, text", [
    (2.0, "T#2 s"), (0.25, "T#250 ms"), (0.0005, "T#0.0005 s"),
])
def test_format_interval(seconds, text):
    assert format_interval(seconds) == text


def test_hp2st_interval_below_a_millisecond_parses_back(tmp_path, capsys):
    model = tmp_path / "m.dlhp"
    model.write_text("true -> [{ u:=*; y:=u; t:=0; {x'=y, t'=1 & t<=eps} }*] x>=0\n")
    assert main(["hp2st", str(model), "--epsilon", "0.0005"]) == 0
    out = capsys.readouterr().out
    assert "INTERVAL:=T#0.0005 s," in out
    assert parse_st(out).config.interval == 0.0005


def test_read_trace_of_an_empty_file():
    with pytest.raises(SchemaError):
        read_trace(io.StringIO(""))


def test_read_trace_skips_a_blank_row():
    header, rows = read_trace(io.StringIO("cycle,x\n0,1.5\n\n1,2.5\n"))
    assert header == ["cycle", "x"]
    assert rows == [{"cycle": 0, Ident("x"): 1.5}, {"cycle": 1, Ident("x"): 2.5}]


@pytest.mark.parametrize("parse, text, at", [
    (parse_st_statements, "x := 1;\n  y := 2 * 1e400;", "2:12"),
    (parse_st_statements, "IF 1E309 > x THEN x := 0; END_IF;", "1:4"),
    (parse_dl_program, "x := 0;\n{x' = 1e400 & x <= 1}", "2:7"),
    (parse_dl_formula, "x <= 1" + "0" * 309, "1:6"),
])
def test_number_literal_past_binary64_is_a_parse_error(parse, text, at):
    # Such a literal would read as `inf`, and `1e400*0` as `nan`: it is
    # refused where it is written, in both dialects.
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value).startswith(f"{at}: number literal out of range: ")


def test_number_literals_at_the_edges_of_binary64():
    with pytest.raises(ValueError, match="number literal out of range: '1e400'"):
        Number("1e400")
    assert Number("1.7976931348623157e308").value == 1.7976931348623157e308
    assert Number("1e-400").value == 0.0  # underflow is finite
    assert parse_dl_formula("x <= 1e308").right == Number("1e308")
