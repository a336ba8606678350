"""Syntax errors of both front ends: message, line and column.

The expected values were recorded from the original per-dialect lexers and
parsers; the shared lexer and expression parser must reproduce each one.
"""

from pathlib import Path

import pytest

from plchp.dl_syntax import (
    parse_dl, parse_dl_formula, parse_dl_model, parse_dl_program, parse_dl_term,
)
from plchp.errors import ParseError, PlchpError
from plchp.st_syntax import parse_st, parse_st_expression, parse_st_statements

_TASK = (
    "PROGRAM p x:=1; END_PROGRAM\n"
    "CONFIGURATION c RESOURCE r ON PLC TASK m(INTERVAL:={}, PRIORITY:=1);\n"
    "PROGRAM i WITH m : p; END_RESOURCE END_CONFIGURATION"
)

CASES = [
    # -- structured text ----------------------------------------------------
    (parse_st_statements, "x := 1;\n\t\ty := $;",
     "2:8: unexpected character '$'"),
    (parse_st_statements, "(* setup\n   more *)\tx := 1; @",
     "2:20: unexpected character '@'"),
    (parse_st_statements, "x := 1;\n  (* never closed\n y := 2;",
     "2:3: unterminated comment"),
    (parse_st, _TASK.format("T#x ms"),
     "2:52: malformed duration literal (expected T#<number> s|ms)"),
    (parse_st, _TASK.format("T#5 h"),
     "2:52: malformed duration literal (expected unit s or ms)"),
    (parse_st_statements, "x := 1;\nWHILE x > 0 DO x := x - 1; END_WHILE;",
     "2:1: unsupported construct WHILE (outside the translatable subset)"),
    (parse_st_statements, "CASE x OF 1: y:=1; END_CASE;",
     "1:1: unsupported construct CASE (outside the translatable subset)"),
    (parse_st_statements, "x := DO;",
     "1:6: unsupported construct DO (outside the translatable subset)"),
    (parse_st_statements, "y := f(x);",
     "1:6: function call f(...) is not supported"),
    (parse_st_expression, "a < b < c",
     "1:7: comparisons are non-associative (expected AND/OR or end of expression)"),
    (parse_st_statements, "IF x THEN y := 1; END_IF;",
     "1:4: expected a Boolean condition (bare variables are not formulas)"),
    (parse_st_expression, "a AND 1",
     "1:3: expected a Boolean condition (bare variables are not formulas)"),
    (parse_st_statements, "x := a < b;",
     "1:6: can only assign arithmetic terms"),
    (parse_st_expression, "(a < b) + 1",
     "1:9: expected an arithmetic term"),
    (parse_st_expression, "-TRUE",
     "1:1: expected an arithmetic term"),
    (parse_st_expression, "TRUE + )",  # the right operand is parsed before kinds are checked
     "1:8: found op ')' (expected expression)"),
    (parse_st_expression, "x + NOT b",
     "1:5: found keyword NOT (expected expression)"),
    (parse_st_statements, "x := THEN;",
     "1:6: found keyword THEN (expected expression)"),
    (parse_st_statements, "x := t#5s;",
     "1:6: found duration 't#5s' (expected expression)"),
    (parse_st_statements, "x := 1; END_IF",
     "1:9: unexpected trailing input: keyword END_IF (expected end of input)"),
    (parse_st_expression, "a + b )",
     "1:7: unexpected trailing input: op ')' (expected end of input)"),
    (parse_st_statements, "x := 1 // no semicolon",
     "1:8: found end of input (expected ';')"),
    (parse_st_statements, "IF a > 0 THEN END_IF;",
     "1:15: statement expected (expected assignment or IF)"),
    (parse_st, "PROGRAM p VAR x : REAL; END_VAR VAR x : REAL; END_VAR x:=1; END_PROGRAM",
     "1:37: duplicate variable declaration: x"),
    # -- hybrid programs ----------------------------------------------------
    (parse_dl_program, "x := 1;\n\t\ty := $;",
     "2:8: unexpected character '$'"),
    (parse_dl_program, "/* setup\n   more */\tx := 1; @",
     "2:20: unexpected character '@'"),
    (parse_dl_program, "x := 1;\n  /* never closed\n y := 2;",
     "2:3: unterminated comment"),
    (parse_dl_program, "IF := 1;",
     "1:1: reserved keyword cannot be an identifier: 'IF'"),
    (parse_dl_formula, "a < b < c",
     "1:7: comparisons are non-associative (expected a connective or end of formula)"),
    (parse_dl_formula, "x + 1",
     "1:1: expected a formula"),
    (parse_dl_program, "?x;",
     "1:2: expected a formula"),
    (parse_dl_formula, "!x",
     "1:1: expected a formula"),
    (parse_dl_formula, "x > 1 & !(y)",
     "1:9: expected a formula"),
    (parse_dl_program, "{x'=1 & y}",
     "1:9: expected a formula"),
    (parse_dl_model, "x > 0 -> [{x := 1;}*] x > 0 -> y",
     "1:29: expected a formula"),
    (parse_dl_term, "x > 1",
     "1:1: expected an arithmetic term"),
    (parse_dl_program, "x := a > b;",
     "1:6: expected an arithmetic term"),
    (parse_dl_formula, "x > 1 & TRUE + 1 > 0",
     "1:14: expected an arithmetic term"),
    (parse_dl_formula, "x & (",
     "1:6: found end of input (expected term or formula)"),
    (parse_dl_formula, "a + !b > 1",
     "1:5: found op '!' (expected term or formula)"),
    (parse_dl_program, "true := 1;",
     "1:1: found kw 'TRUE' (expected a statement)"),
    (parse_dl_formula, "x > 1 )",
     "1:7: unexpected trailing input: op ')' (expected end of input)"),
    (parse_dl_program, "x := 1 // no semicolon",
     "1:8: found end of input (expected ';')"),
    (parse_dl_model, "x > 0 -> y > 0 -> [{x := 1;}*] x > 0",
     "1:10: found ident 'y' (expected '[')"),
    (parse_dl_program, "{x'=1, y'=x & y > 0 ++ {x := 1;}",
     "1:21: found op '++' (expected '}')"),
    (parse_dl, "x := ;",
     "1:6: found op ';' (expected term or formula)"),
    # -- task intervals (last, so that the ids above keep their numbers) ------
    (parse_st, _TASK.format("T#0 s"),
     "2:52: task interval must be positive and finite"),
    (parse_st, _TASK.format("T#1e400 s"),
     "2:52: task interval must be positive and finite"),
    # -- a name declared twice in one list, before a later syntax error -------
    (parse_st, "PROGRAM p VAR x, y,\n  x : REAL; END_VAR x := ; END_PROGRAM",
     "2:3: duplicate variable declaration: x"),
]


@pytest.mark.parametrize(
    "parse, text, message", CASES,
    ids=[f"{i:02d}-{parse.__name__}" for i, (parse, _, _) in enumerate(CASES)],
)
def test_parse_error_message_and_position(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message
    line, col = message.split(":")[:2]
    assert (info.value.line, info.value.col) == (int(line), int(col))


@pytest.mark.parametrize("parse, text", [
    (parse_st_expression, "{}1{}"),
    (parse_st_statements, "x := -{}1{};"),
    (parse_dl_formula, "{}x>=0{}"),
    (parse_dl_program, "?!{}x>=0{};"),
])
def test_nesting_limit(parse, text):
    # Parentheses nest as deep as memory allows and leave no trace in the tree.
    assert parse(text.format("(" * 10_000, ")" * 10_000)) == parse(text.format("(", ")"))


DATA = Path(__file__).parent / "data"
PREFIX_PARSERS = (parse_st, parse_st_statements, parse_st_expression, parse_dl)


@pytest.mark.parametrize("path", sorted(DATA.iterdir()), ids=lambda p: p.name)
def test_every_prefix_fails_cleanly(path):
    # A rule that looks past the end-of-input token raises IndexError, which
    # a truncated text is the likeliest way to reach.
    text = path.read_text()
    for end in range(len(text) + 1):
        for tail in ("", " x", " ("):
            for parse in PREFIX_PARSERS:
                try:
                    parse(text[:end] + tail)
                except PlchpError:
                    pass
