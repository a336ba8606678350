"""The surface-syntax core that structured text and hybrid programs share.

Both languages have the same term language and the same comparison and
connective core; they differ in spellings. A `Dialect` holds one
language's spellings, and this module holds the machinery built from them:

- a lexer, `Dialect.lex`: one `re.split` of the whole text by the
  dialect's lexeme pattern, so the scan runs in C. The split alternates
  layout and lexemes; the layout must be spaces, tabs, carriage returns and
  newlines, and a comment is a lexeme that is dropped. A lexeme's kind
  comes from one dict lookup, in a table of the call's distinct lexemes,
  and its offset from the running sum of the lengths of the pieces before
  it. `tokenize` views the same arrays as `Token` named tuples;
- `Parser`, a cursor over those arrays with an operator-precedence
  expression parser on one explicit stack (Dijkstra's shunting yard, 1961)
  that yields a Term or a Formula and checks operand kinds. A token's
  value determines its kind (no identifier is spelled like an operator or
  a keyword), so the grammar tests values alone wherever it looks for an
  operator or keyword. Its leaves are `ir`'s interned ones: one `Var` per
  name and one `Number` per lexeme in the process, which all trees share;
- `Lines`, the line and column of an offset, by bisection over the offsets
  of the text's newlines. A parse computes them only where a node records
  its `pos` or an error is raised;
- `Dialect.render`, the step of a printing fold: terms and formulas with
  the fewest parentheses, statements by the dialect's `statement` step;
  `render_term` and `render_formula` fold a term or formula with it.

Parser and printer read the same operator table, loosest level first:
the dialect's connectives, negation, comparisons (non-associative), +/-,
*/slash (left-associative), power (right-associative), unary minus, atoms.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import partial
from itertools import accumulate, compress, count, islice
from operator import add
from typing import NamedTuple

from .errors import ParseError
from .ir import (
    ADD, DIV, EQ, GE, GT, LE, LT, MUL, NE, POW, SUB,
    IDENT, NUMBER, BinOp, BoolConst, Cmp, Formula, Ident, Neg, Not, Number, Term, Var, fold,
)

LEFT, RIGHT, NONASSOC = "left", "right", "nonassoc"
# A `T#` duration: a number, then its unit after any spaces and tabs.
_DURATION = r"[Tt]#" + NUMBER + r"[ \t]*(?i:ms|s)"
_NUMBER = re.compile(NUMBER)
_NOT_LAYOUT = re.compile(r"[^ \t\r\n]")
# Internal kinds of lexemes that are no token: a comment, which is dropped,
# and an unterminated comment or a malformed duration, which is an error.
_COMMENT, _ERROR = "comment", "error"


class Token(NamedTuple):
    kind: str  # kw | ident | number | duration | unsupported | op | eof
    value: str
    line: int
    col: int
    seconds: float = 0.0  # duration tokens only


class Lines:
    """The line and column of an offset into a text. Line n + 1 starts after
    the text's nth newline, and a column counts characters from 1 after the
    newline before it."""

    __slots__ = ("newlines",)

    def __init__(self, text: str):
        lines = text.split("\n")
        lines.pop()
        # The offset of newline k, counted from 0: the lengths of the k + 1
        # lines before it, and the k newlines between those.
        self.newlines = list(map(add, accumulate(map(len, lines)), count()))

    def __call__(self, offset: int) -> tuple[int, int]:
        newlines = self.newlines
        n = bisect_left(newlines, offset)
        return n + 1, offset - (newlines[n - 1] if n else -1)


def duration_seconds(lexeme: str) -> float:
    """The seconds a well-formed `T#` duration lexeme stands for."""
    number = _NUMBER.match(lexeme, 2)
    value = float(number.group())
    return value / 1000.0 if lexeme[number.end():].lstrip(" \t").lower() == "ms" else value


class Dialect:
    """The spellings of one surface syntax.

    `connectives` lists the binary formula connectives, loosest level
    first, as `(associativity, ((spelling, node class), ...))`. `classify`
    maps an identifier-shaped word to its token kind and value; `durations`
    says whether `T#` literals are lexemes; `statement` prints a statement
    for `render`. The three message texts are the errors the expression
    grammar raises.
    """

    def __init__(self, *, name, operators, comment, classify, statement, connectives,
                 not_op, bools, ne_op, pow_op, cmp_space,
                 formula_expected, chain_expected, operand_expected,
                 durations=False):
        self.name = name
        self.operators = operators
        self.comment = comment
        self.classify = classify
        self.statement = statement
        self.durations = durations
        # One capturing group around every lexeme, so `split` alternates
        # layout and lexemes. No alternative matches the empty string. A
        # block comment runs to its close or, unterminated, to the end of
        # the text; a `T#` with no well-formed literal after it is a lexeme
        # of its own, which the lexer reports. Where two alternatives can
        # start alike, comments come before operators and `T#` before words.
        open_, close = map(re.escape, comment)
        self.split = re.compile("(" + "|".join([
            *([_DURATION, r"[Tt]#"] if durations else []),
            IDENT,
            NUMBER,
            r"//[^\n]*",
            f"{open_}(?s:.*?)(?:{close}|\\Z)",
            *map(re.escape, operators),
        ]) + ")").split
        self.op_kinds = dict.fromkeys(operators, "op")

        self.not_op = not_op
        self.bools = bools  # (false, true)
        self.formula_expected = formula_expected
        self.chain_expected = chain_expected
        self.operand_expected = operand_expected

        # One row per binary level, loosest first: (associativity, operand
        # class, (printed text, node key, build) per operator). None marks
        # the level of negation; unary minus binds tightest.
        rels = (("=", EQ), (ne_op, NE), (">", GT), (">=", GE), ("<", LT), ("<=", LE))
        rows = [(assoc, Formula, [(f" {s} ", cls, cls) for s, cls in ops]) for assoc, ops in connectives]
        rows += [
            None,
            (NONASSOC, Term, [(cmp_space + s + cmp_space, rel, partial(Cmp, rel)) for s, rel in rels]),
            (LEFT, Term, [("+", ADD, partial(BinOp, ADD)), ("-", SUB, partial(BinOp, SUB))]),
            (LEFT, Term, [("*", MUL, partial(BinOp, MUL)), ("/", DIV, partial(BinOp, DIV))]),
            (RIGHT, Term, [(pow_op, POW, partial(BinOp, POW))]),
        ]
        self.neg_level = len(rows) + 1
        # Parsing: spelling -> (level, associativity, operand class, build).
        # Printing: BinOp op, Cmp relation or node class -> (text, level, associativity).
        self.binary: dict[str, tuple] = {}
        self.infix: dict[object, tuple] = {}
        for level, row in enumerate(rows, start=1):
            if row is None:
                self.not_level = level
                continue
            assoc, operands, ops = row
            for text, key, build in ops:
                self.binary[text.strip()] = (level, assoc, operands, build)
                self.infix[key] = (text, level, assoc)
        # Prefix operators take the same entries and bind as right-associative ones.
        self.prefix = {not_op: (self.not_level, RIGHT, Formula, Not),
                       "-": (self.neg_level, RIGHT, Term, Neg)}

    def level(self, spelling: str) -> int:
        return self.binary[spelling][0]

    def render(self, n, kids) -> tuple[str, int]:
        """The printing fold's step: the text of term or formula `n`, given
        its children's, and the level its top operator binds at. A parent
        parenthesizes an operand that binds looser than its side of the
        operator needs. Any other node goes to the dialect's `statement`
        step, which raises TypeError for a node it cannot print."""
        cls = n.__class__
        atom = self.neg_level + 1  # atoms, and negations printed as `NOT(...)`
        if cls is Number:
            return n.lexeme, atom
        if cls is Var:
            return n.ident.name, atom
        if cls is BoolConst:
            return self.bools[n.value], atom
        if cls is Not:
            return f"{self.not_op}({kids[0][0]})", atom
        if cls is Neg:
            return "-" + _wrap(*kids[0], self.neg_level), self.neg_level
        # `ir.operator_key(n)`, inline, as this runs once per printed node.
        entry = self.infix.get(n.op if cls is BinOp else n.rel if cls is Cmp else cls)
        if entry is None:
            return self.statement(n, kids)
        text, level, assoc = entry
        # The operand on the associative side may sit at the operator's
        # level; the other needs strictly tighter binding.
        right_assoc = assoc == RIGHT
        (left, left_level), (right, right_level) = kids
        return (_wrap(left, left_level, level + right_assoc) + text
                + _wrap(right, right_level, level + (not right_assoc))), level

    def lex(self, text: str) -> tuple[list[str], list[str], list[int]]:
        """The values, kinds and offsets of the tokens of `text`, then of an
        eof token. A keyword's value is its upper-case spelling. The input
        ends at the end of the text, or where a line comment ends it. The
        first layout error, in text order, is raised at its line:col."""
        parts = self.split(text)
        lexemes = parts[1::2]
        offsets = list(islice(accumulate(map(len, parts)), 0, None, 2))  # and then len(text)
        # Kinds and values come from a table of this text's distinct
        # lexemes, so no table outlives the call.
        kind_of = self.op_kinds.copy()
        renamed, comments, errors = {}, False, []
        for lexeme in set(lexemes).difference(kind_of):
            kind, value = self._classify(lexeme)
            kind_of[lexeme] = kind
            if value != lexeme:
                renamed[lexeme] = value
            if kind is _COMMENT:
                comments = True
            elif kind is _ERROR:
                errors.append(offsets[lexemes.index(lexeme)])
        if errors or _NOT_LAYOUT.search("".join(parts[0::2])):
            self._fail(text, parts, offsets, errors)
        kinds = list(map(kind_of.__getitem__, lexemes))
        values = list(map(renamed.get, lexemes, lexemes)) if renamed else lexemes
        end = offsets.pop()
        if lexemes and lexemes[-1][:2] == "//" and not parts[-1]:
            end = offsets[-1]  # a line comment closes the input, which ends where it starts
        if comments:
            keep = list(map(_COMMENT.__ne__, kinds))
            values, kinds, offsets = (list(compress(values, keep)), list(compress(kinds, keep)),
                                      list(compress(offsets, keep)))
        values.append("")
        kinds.append("eof")
        offsets.append(end)
        return values, kinds, offsets

    def _classify(self, lexeme: str) -> tuple[str, str]:
        """The kind and value of a lexeme that is not an operator."""
        first = lexeme[0]
        if first == "/" or first == "(":
            if lexeme[1] == "/" or len(lexeme) >= 4 and lexeme.endswith(self.comment[1]):
                return _COMMENT, lexeme
            return _ERROR, lexeme  # runs to the end of the text
        if lexeme[1:2] == "#":
            return ("duration" if len(lexeme) > 2 else _ERROR), lexeme
        if first.isalpha() or first == "_":
            return self.classify(lexeme)
        return "number", lexeme

    def _fail(self, text, parts, offsets, errors):
        """Raise the first layout error of `text`: a character that starts
        no lexeme, or the first of `errors`, the offsets of unterminated
        comments and malformed durations."""
        for i, gap in enumerate(parts[0::2]):
            stray = _NOT_LAYOUT.search(gap)
            if stray:
                errors.append(offsets[i] - len(gap) + stray.start())
                break
        at = min(errors)
        line, col = Lines(text)(at)
        if text.startswith(self.comment[0], at):
            raise ParseError("unterminated comment", line, col)
        if self.durations and text[at + 1:at + 2] == "#" and text[at] in "Tt":
            number = _NUMBER.match(text, at + 2)
            raise ParseError("malformed duration literal", line, col,
                             "unit s or ms" if number else "T#<number> s|ms")
        raise ParseError(f"unexpected character {text[at]!r}", line, col)

    def tokenize(self, text: str) -> list[Token]:
        """The tokens of `text`, then an eof token, as `Token`s: a view of
        `lex` for tests and tools. A column is the offset from the start of
        its line, counted in characters from 1."""
        lines = Lines(text)
        return [Token(kind, value, *lines(offset), duration_seconds(value) if kind == "duration" else 0.0)
                for value, kind, offset in zip(*self.lex(text))]


class Parser:
    """A cursor over one dialect's tokens and its expression grammar: the
    arrays of `Dialect.lex`, read by index. A rule that needs a token's
    position is handed its index.

    Subclasses set `dialect` and add their statement grammar.
    """

    dialect: Dialect

    def __init__(self, text: str):
        self.text = text
        self.values, self.kinds, self.offsets = self.dialect.lex(text)
        self.pos = 0
        self.lines = None  # built by the first `at`

    # -- token plumbing ----------------------------------------------------

    def at(self, i: int) -> tuple[int, int]:
        """The line and column of token `i`."""
        if self.lines is None:
            self.lines = Lines(self.text)
        return self.lines(self.offsets[i])

    def skip_op(self, op: str) -> bool:
        """Step over `op` if it is next, and say whether it was."""
        if self.values[self.pos] == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str, expected: str | None = None) -> int:
        """Step over `op`, and return its index."""
        i = self.pos
        if self.values[i] != op:
            self.fail(f"found {self.describe(i)}", expected or f"'{op}'")
        self.pos = i + 1
        return i

    def expect_ident(self) -> Ident:
        i = self.pos
        if self.kinds[i] != "ident":
            self.fail(f"found {self.describe(i)}", "identifier")
        self.pos = i + 1
        return self.leaf(i).ident

    def leaf(self, i: int) -> Term:
        """The Var or Number of identifier or number token `i`."""
        value = self.values[i]
        try:
            return Var(Ident(value)) if self.kinds[i] == "ident" else Number(value)
        except ValueError as exc:  # a reserved word of the other language, or past binary64
            raise ParseError(str(exc), *self.at(i)) from None

    def fail(self, message: str, expected: str | None = None):
        """Raise `message` at the next token."""
        raise ParseError(message, *self.at(self.pos), expected)

    def eof(self, expected: str = "end of input"):
        if self.kinds[self.pos] != "eof":
            self.fail(f"unexpected trailing input: {self.describe(self.pos)}", expected)

    def whole(self, rule):
        """`rule(self)`, which must read every token."""
        result = rule(self)
        self.eof()
        return result

    def describe(self, i: int) -> str:
        kind = self.kinds[i]
        if kind == "eof":
            return "end of input"
        return f"{kind} {self.values[i]!r}"

    # -- expressions ---------------------------------------------------------

    def formula(self) -> Formula:
        i = self.pos
        return self.require(self.expression(), Formula, i)

    def term(self) -> Term:
        i = self.pos
        return self.require(self.expression(), Term, i)

    def expression(self, min_level: int = 1):
        """An expression whose binary operators bind at `min_level` or tighter.

        Operands are parsed before their kinds are checked, and a failed
        check is reported at the operator token.
        """
        d = self.dialect
        binary, prefix, values = d.binary, d.prefix, self.values
        # Everything that waits for an operand waits on one stack, so no
        # nesting costs a Python frame: prefix operators, binary operators
        # with their left operands, and open parentheses (entry None). Each
        # entry keeps the level around it. An operator is reduced at the
        # first operator after its operand that binds looser than it allows:
        # `a - b - c` is `(a - b) - c` and `a ^ b ^ c` is `a ^ (b ^ c)`.
        pending = []  # (token index, left operand or None, entry or None, level around it)
        while True:
            while True:  # an operand, after its prefixes and open parentheses
                i = self.pos
                value = values[i]
                entry = prefix.get(value)
                if entry is not None and entry[0] >= min_level:
                    pending.append((i, None, entry, min_level))
                    min_level = entry[0]
                elif value == "(":
                    pending.append((i, None, None, min_level))
                    min_level = 1
                else:
                    break
                self.pos = i + 1
            left = self.atom(i)
            while True:  # then the operators after it
                entry = binary.get(values[self.pos])
                if entry is not None and entry[0] >= min_level:
                    break
                if not pending:
                    return left
                i, operand, waiting, min_level = pending.pop()
                if waiting is None:
                    self.expect_op(")")
                    continue
                level, assoc, operands, build = waiting
                if not isinstance(left, operands) or not (operand is None or isinstance(operand, operands)):
                    raise self.kind_error(operands, i)
                left = build(left) if operand is None else build(operand, left)
                if assoc == NONASSOC and entry is not None and entry[0] == level:
                    self.fail("comparisons are non-associative", d.chain_expected)
            pending.append((self.pos, left, entry, min_level))
            self.pos += 1
            min_level = entry[0] + (entry[1] != RIGHT)

    def atom(self, i: int):
        """A number, a variable or a truth value: token `i`, the next."""
        kind = self.kinds[i]
        if kind == "ident" or kind == "number":
            self.pos = i + 1
            return self.leaf(i)
        value = self.values[i]
        if value == "TRUE" or value == "FALSE":
            self.pos = i + 1
            return BoolConst(value == "TRUE")
        self.fail(f"found {self.describe(i)}", self.dialect.operand_expected)

    def require(self, value, kind: type, at: int):
        """`value` if it is a `kind` (Term or Formula), else the error at token `at`."""
        if isinstance(value, kind):
            return value
        raise self.kind_error(kind, at)

    def kind_error(self, kind: type, at: int) -> ParseError:
        """The error for an operand that is not a `kind`, at token `at`."""
        message = "expected an arithmetic term" if kind is Term else self.dialect.formula_expected
        return ParseError(message, *self.at(at))


def run_nested(parse):
    """Run a parse whose nested parses are generators too: a parse yields
    the generator of each parse nested in it and is sent back its result.
    The suspended parses wait on an explicit stack rather than the Python
    stack, so statements can nest as deep as memory allows."""
    stack = [parse]
    result = None
    while stack:
        try:
            nested = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(nested)
            result = None
    return result


def render_term(t: Term, d: Dialect) -> str:
    """Print a term with the fewest parentheses that reparse to it."""
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {type(t).__name__}")
    return fold(t, d.render)[0]


def render_formula(f: Formula, d: Dialect, min_level: int = 0) -> str:
    """Print a formula with the fewest parentheses that reparse to it, in
    parentheses if it binds looser than `min_level`."""
    if not isinstance(f, Formula):
        raise TypeError(f"cannot print {type(f).__name__} in {d.name} syntax")
    return _wrap(*fold(f, d.render), min_level)


def _wrap(text: str, level: int, min_level: int) -> str:
    return "(" + text + ")" if level < min_level else text
