"""Token positions of both lexers under arbitrary layout.

Printed programs are re-spaced at random (spaces, tabs, CRLF line ends,
blank lines, block and line comments between tokens). Each re-spaced text
must lex to the same kinds and values, put every token at the line and
column its offset gives, and parse to the same tree.
"""

import random

import pytest

from plchp import ir
from plchp.dl_syntax import (
    parse_dl_formula, parse_dl_program, print_dl_formula, print_dl_program,
    tokenize as dl_tokenize,
)
from plchp.errors import ParseError
from plchp.semantics import GenConfig, gen_formula, gen_hp, gen_st
from plchp.st_syntax import (
    parse_st, parse_st_expression, parse_st_statements, print_st,
    print_st_formula, print_st_statement, tokenize as st_tokenize,
)

import golden


def _blank(rng, comment):
    """One run of layout: whitespace, a block comment or a line comment.
    A comment is preceded by a space, so it cannot fuse with an operator
    before it (`/` followed by `/*` would open a line comment)."""
    pieces = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(7)
        if kind == 0:
            pieces.append(" " * rng.randint(1, 3))
        elif kind == 1:
            pieces.append("\t")
        elif kind == 2:
            pieces.append("\r\n")
        elif kind == 3:
            pieces.append("\n\n")
        elif kind == 4:
            pieces.append(f" {comment[0]} c{rng.randrange(9)} {comment[1]}")
        elif kind == 5:
            pieces.append(f" {comment[0]} a\n\t b {comment[1]}\t")
        else:
            pieces.append(" // note\n")
    return "".join(pieces)


def _respace(text, tokenize, comment, rng):
    """`text` with the layout between its tokens replaced at random, and
    the offset of each token in the new text. Tokens the printer wrote
    adjacent stay adjacent or get layout between them."""
    tokens = tokenize(text)[:-1]
    upper = text.upper()  # keyword values are upper case, dL's `true` is not
    parts, offsets, cursor, size = [], [], 0, 0
    for tok in tokens:
        at = upper.index(tok.value.upper(), cursor)
        gap = text[cursor:at]
        assert not gap.strip(), (gap, tok)
        blank = _blank(rng, comment) if gap or rng.random() < 0.5 else ""
        cursor = at + len(tok.value)
        parts += (blank, text[at:cursor])
        offsets.append(size + len(blank))
        size += len(blank) + len(tok.value)
    parts.append(_blank(rng, comment) if rng.random() < 0.5 else "")
    return "".join(parts), tokens, offsets


def _check_positions(text, tokenize, comment, rng):
    respaced, want, offsets = _respace(text, tokenize, comment, rng)
    got = tokenize(respaced)
    assert [(t.kind, t.value) for t in got] == [(t.kind, t.value) for t in want] + [("eof", "")]
    # The layout never ends inside a line comment, so the end of input is
    # at the end of the text.
    for tok, offset in zip(got, offsets + [len(respaced)], strict=True):
        line = respaced.count("\n", 0, offset) + 1
        col = offset - respaced.rfind("\n", 0, offset)
        assert (tok.line, tok.col) == (line, col), (tok, respaced)
    return respaced


_ST = (st_tokenize, ("(*", "*)"))
_DL = (dl_tokenize, ("/*", "*/"))


@pytest.mark.parametrize("seed", range(40))
def test_respaced_st_statements(seed):
    rng = random.Random(seed)
    tree = gen_st(GenConfig(max_depth=5, seed=seed))
    text = print_st_statement(tree)
    for _ in range(3):
        parsed = parse_st_statements(_check_positions(text, *_ST, rng))
        assert parsed == tree
        assert print_st_statement(parsed) == text


@pytest.mark.parametrize("seed", range(40))
def test_respaced_dl_programs(seed):
    rng = random.Random(seed)
    tree = gen_hp(GenConfig(max_depth=5, seed=seed))
    text = print_dl_program(tree)
    for _ in range(3):
        parsed = parse_dl_program(_check_positions(text, *_DL, rng))
        assert parsed == tree
        assert print_dl_program(parsed) == text


@pytest.mark.parametrize("seed", range(20))
def test_respaced_formulas(seed):
    rng = random.Random(seed)
    cfg = GenConfig(max_depth=5, seed=seed)
    for dialect, show, parse, lexer in ((ir.ST, print_st_formula, parse_st_expression, _ST),
                                        (ir.HP, print_dl_formula, parse_dl_formula, _DL)):
        tree = gen_formula(cfg, dialect)
        parsed = parse(_check_positions(show(tree), *lexer, rng))
        assert parsed == tree


def test_respaced_unit_with_configuration():
    # The duration literal keeps its inner space; its token starts at `T#`.
    text = print_st(parse_st((golden.DATA / "watertank_original.st").read_text()))
    for seed in range(5):
        respaced = _check_positions(text, *_ST, random.Random(seed))
        assert print_st(parse_st(respaced)) == text


@pytest.mark.parametrize("tokenize, text, at", [
    (dl_tokenize, "x>=0 // c", (1, 6)),  # a trailing line comment keeps its column
    (st_tokenize, "x>=0 // c", (1, 6)),
    (dl_tokenize, "x>=0   ", (1, 8)),
    (st_tokenize, "x>=0 \t\r", (1, 8)),
    (dl_tokenize, "x /* a\n  b */ ", (2, 8)),
    (st_tokenize, "x (* a\n  b *) ", (2, 8)),
    (dl_tokenize, "x\n", (2, 1)),
    (dl_tokenize, "", (1, 1)),
    (st_tokenize, "x // c\n  ", (2, 3)),
])
def test_end_of_input_position(tokenize, text, at):
    eof = tokenize(text)[-1]
    assert (eof.kind, eof.value) == ("eof", "")
    assert (eof.line, eof.col) == at


@pytest.mark.parametrize("text, at", [
    ("IF := 1;", (1, 1)),
    ("x := 1;\n  IF := 2;", (2, 3)),
    ("x := 1;\n\ty := 2 + IF;", (2, 11)),
    ("x := IF;\ny := IF;", (1, 6)),
    ("{x' = 1, IF' = 2}", (1, 10)),
])
def test_st_reserved_word_as_dl_variable(text, at):
    with pytest.raises(ParseError) as info:
        parse_dl_program(text)
    line, col = at
    assert str(info.value) == f"{line}:{col}: reserved keyword cannot be an identifier: 'IF'"


@pytest.mark.parametrize("layout", ["", "   ", "\t \t"])
def test_duration_literal_after_layout(layout):
    # The hook that lexes `T#` is handed the literal's start, not the
    # start of the layout before it.
    head = "PROGRAM p x:=1; END_PROGRAM\nCONFIGURATION c RESOURCE r ON PLC TASK m(INTERVAL:="
    col = len(head) - head.rfind("\n") + len(layout)
    tail = ", PRIORITY:=1);\nPROGRAM i WITH m : p; END_RESOURCE END_CONFIGURATION"
    good = st_tokenize(head + layout + "T#5 ms" + tail)
    duration = next(t for t in good if t.kind == "duration")
    assert (duration.value, duration.line, duration.col, duration.seconds) == ("T#5 ms", 2, col, 0.005)
    for bad in ("T#x ms", "T#5 h"):
        with pytest.raises(ParseError) as info:
            parse_st(head + layout + bad + tail)
        assert (info.value.line, info.value.col) == (2, col)
