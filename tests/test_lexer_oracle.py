"""The one-pass lexer against the per-match lexer it replaced.

`Dialect.tokenize` (a view of `Dialect.lex`) and `oracle.ReferenceLexer`
lex the same texts. Every token must agree in kind, value, line, column
and seconds; where either side raises, both must raise a ParseError with
the same message at the same line and column. The texts: generated
programs and formulas, printed and re-spaced at random (spaces, tabs, CRLF
line ends, block and line comments between tokens), every prefix of each
source in tests/data, and single-character mutations of each source.
"""

import random

import pytest

from oracle import ReferenceLexer
from plchp import ir
from plchp.dl_syntax import DL, print_dl_formula, print_dl_program
from plchp.errors import ParseError
from plchp.semantics import GenConfig, gen_formula, gen_hp, gen_st
from plchp.st_syntax import ST, parse_st, print_st, print_st_formula, print_st_statement
from test_lexer_positions import _respace

import golden

DIALECTS = {"ST": (ST, ReferenceLexer(ST)), "dL": (DL, ReferenceLexer(DL))}
SOURCES = sorted(golden.DATA.iterdir())


def _outcome(tokenize, text):
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col)


def _agree(name, text):
    dialect, reference = DIALECTS[name]
    got = _outcome(dialect.tokenize, text)
    assert got == _outcome(reference.tokenize, text), (name, text)
    return got


def _dialect_of(path):
    return "ST" if path.suffix == ".st" else "dL"


@pytest.mark.parametrize("seed", range(30))
def test_respaced_generated_texts(seed):
    rng = random.Random(seed)
    cfg = GenConfig(max_depth=5, seed=seed)
    texts = [
        ("ST", print_st_statement(gen_st(cfg)), ST.comment),
        ("dL", print_dl_program(gen_hp(cfg)), DL.comment),
        ("ST", print_st_formula(gen_formula(cfg, ir.ST)), ST.comment),
        ("dL", print_dl_formula(gen_formula(cfg, ir.HP)), DL.comment),
    ]
    for name, text, comment in texts:
        for _ in range(3):
            respaced = _respace(text, DIALECTS[name][0].tokenize, comment, rng)[0]
            assert _agree(name, respaced)[0] != "ParseError"


def test_respaced_unit_with_configuration():
    text = print_st(parse_st((golden.DATA / "watertank_original.st").read_text()))
    for seed in range(10):
        respaced = _respace(text, ST.tokenize, ST.comment, random.Random(seed))[0]
        assert any(tok[0] == "duration" for tok in _agree("ST", respaced))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_prefix_of_each_source(path):
    # Each prefix in both dialects: the other dialect's spellings put
    # stray characters and unterminated comments at every kind of place.
    text = path.read_text()
    for name in DIALECTS:
        for end in range(len(text) + 1):
            _agree(name, text[:end])
            _agree(name, text[:end].replace("\n", "\r\n"))


# Characters that start, end or break a lexeme in either dialect. Each
# position takes the two that open comments and three more, drawn from a
# seeded stream.
COMMENTS, MUTANTS = "*/", "\n\r\t $#()'{}T5.e:=!&\"\x0b_"


def test_single_character_mutations_of_each_source():
    rng = random.Random(0)
    outcomes = set()
    for path in SOURCES:
        text = path.read_text()
        name = _dialect_of(path)
        for i in range(len(text) + 1):
            _agree(name, text[:i] + text[i + 1:])  # a deletion
            for c in COMMENTS + "".join(rng.sample(MUTANTS, 3)):
                mutant = _agree(name, text[:i] + c + text[i + 1:])
                outcomes.add(mutant[1].split(": ", 1)[1].split(" '")[0]
                             if mutant[0] == "ParseError" else "tokens")
    # Between them the mutations reach each error the lexer raises.
    assert outcomes >= {
        "tokens", "unexpected character", "unterminated comment",
        "malformed duration literal (expected T#<number> s|ms)",
        "malformed duration literal (expected unit s or ms)",
    }, outcomes


@pytest.mark.parametrize("name, text", [
    ("ST", "x (* a\n (* b *) y"),
    ("dL", "x /* a\n /* b */ y"),
    ("ST", "(*)"),
    ("dL", "/*/ x"),
    ("ST", "x // a\r\n// b"),
    ("dL", "x\r\n//"),
    ("ST", "T#5 msx t#2.5E1 S T#1e3ms"),
    ("ST", "T#5 h"),
    ("ST", "a T# b"),
    ("dL", "T#5 s"),
    ("ST", "x := 1 $ (* never closed"),
    ("ST", "(* never closed $"),
    ("dL", "٣ + x"),  # \d matches any Unicode decimal digit
    ("ST", "x\x0c:= 1"),
    ("ST", ""),
    ("dL", " \t\r\n"),
])
def test_edge_cases(name, text):
    _agree(name, text)
