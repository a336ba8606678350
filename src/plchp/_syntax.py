"""The surface-syntax core that structured text and hybrid programs share.

Both languages have the same term language and the same comparison and
connective core; they differ in spellings. A `Dialect` holds one
language's spellings, and this module holds the machinery built from them:

- a lexer, one compiled master regex dispatching on the group that matched.
  Each match takes the spaces, tabs and carriage returns before its lexeme,
  so layout costs no match of its own; a token is a `Token` named tuple,
  and its column is its offset from the start of its line;
- `Parser`, a token cursor with an operator-precedence expression parser
  on one explicit stack (Dijkstra's shunting yard, 1961) that yields a Term
  or a Formula and checks operand kinds. The hot paths index the token
  list directly, and one parse builds one `Var` per name and one `Number`
  per lexeme, which its trees share;
- `render_term` and `render_formula`, a minimal-parenthesis printer that
  folds the tree bottom up with `Dialect.render`.

Parser and printer read the same operator table, loosest level first:
the dialect's connectives, negation, comparisons (non-associative), +/-,
*/slash (left-associative), power (right-associative), unary minus, atoms.
"""

from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple

from .errors import ParseError
from .ir import (
    ADD, DIV, EQ, GE, GT, LE, LT, MUL, NE, POW, SUB,
    BinOp, BoolConst, Cmp, Formula, Ident, Neg, Not, Number, Term, Var, fold,
    operator_key,
)

LEFT, RIGHT, NONASSOC = "left", "right", "nonassoc"
NUMBER = r"\d+(\.\d+)?([eE][+-]?\d+)?"


class Token(NamedTuple):
    kind: str  # kw | ident | number | duration | unsupported | op | eof
    value: str
    line: int
    col: int
    seconds: float = 0.0  # duration tokens only


class Dialect:
    """The spellings of one surface syntax.

    `connectives` lists the binary formula connectives, loosest level
    first, as `(associativity, ((spelling, node class), ...))`. `classify`
    maps an identifier-shaped word to its token kind and value; `duration`
    lexes a `T#` literal starting at a given index. The three message
    texts are the errors the expression grammar raises.
    """

    def __init__(self, *, name, operators, comment, classify, connectives,
                 not_op, bools, ne_op, pow_op, cmp_space,
                 formula_expected, chain_expected, operand_expected,
                 duration=None):
        self.name = name
        self.classify = classify
        self.comment_close = comment[1]
        self.duration = duration
        # Layout before a lexeme is part of its match. A match with no
        # group is layout up to the end of the text or to a character
        # that starts no lexeme.
        self.pattern = re.compile(r"[ \t\r]*(?:" + "|".join([
            r"(?P<newline>\n)",
            r"(?P<line_comment>//[^\n]*)",
            f"(?P<comment>{re.escape(comment[0])})",
            *([r"(?P<duration>[Tt]#)"] if duration else []),
            r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)",
            f"(?P<number>{NUMBER})",
            "(?P<op>" + "|".join(map(re.escape, operators)) + ")",
        ]) + ")?")

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
        """The printing fold's step: the text of node `n`, given its
        children's, and the level its top operator binds at. A parent
        parenthesizes an operand that binds looser than its side of the
        operator needs."""
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
        entry = self.infix.get(operator_key(n))
        if entry is None:
            raise TypeError(f"cannot print {cls.__name__} in {self.name} syntax")
        text, level, assoc = entry
        # The operand on the associative side may sit at the operator's
        # level; the other needs strictly tighter binding.
        right_assoc = assoc == RIGHT
        (left, left_level), (right, right_level) = kids
        return (_wrap(left, left_level, level + right_assoc) + text
                + _wrap(right, right_level, level + (not right_assoc))), level

    def tokenize(self, text: str) -> list[Token]:
        """The tokens of `text`, then an eof token. A column is the offset
        from the start of its line, counted in characters from 1."""
        tokens: list[Token] = []
        append, match, classify = tokens.append, self.pattern.match, self.classify
        new = tuple.__new__  # builds a Token without the call of its Python-level __new__
        pos, line, line_start, end_at = 0, 1, -1, len(text)
        while True:
            m = match(text, pos)
            kind = m.lastgroup
            if kind is None:
                break
            start, pos = m.span(kind)
            if kind == "op" or kind == "number":
                append(new(Token, (kind, text[start:pos], line, start - line_start, 0.0)))
            elif kind == "word":
                append(new(Token, (*classify(text[start:pos]), line, start - line_start, 0.0)))
            elif kind == "newline":
                line += 1
                line_start = start
            elif kind == "comment":
                close = text.find(self.comment_close, pos)
                if close < 0:
                    raise ParseError("unterminated comment", line, start - line_start)
                pos = close + len(self.comment_close)
                newlines = text.count("\n", start, pos)
                if newlines:
                    line += newlines
                    line_start = text.rfind("\n", start, pos)
            elif kind == "duration":
                token, pos = self.duration(text, start, line, start - line_start)
                append(token)
            elif pos == end_at:  # a line comment closes the input, which ends where it starts
                end_at = start
        end = m.end()
        if end < len(text):
            raise ParseError(f"unexpected character {text[end]!r}", line, end - line_start)
        append(Token("eof", "", line, min(end, end_at) - line_start))
        return tokens


class Parser:
    """A cursor over one dialect's tokens and its expression grammar.

    Subclasses set `dialect` and add their statement grammar.
    """

    dialect: Dialect

    def __init__(self, text: str):
        self.tokens = self.dialect.tokenize(text)
        self.pos = 0
        # Terms carry no position, so a parse builds one Var per name and one
        # Number per lexeme. The keys cannot clash: no name starts with a digit.
        self.leaves: dict[str, Term] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def skip_op(self, op: str) -> bool:
        """Step over `op` if it is next, and say whether it was."""
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.value == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str, expected: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.value != op or tok.kind != "op":
            self.fail(f"found {self.describe(tok)}", expected or f"'{op}'")
        self.pos += 1
        return tok

    def expect_ident(self) -> Ident:
        tok = self.tokens[self.pos]
        if tok.kind != "ident":
            self.fail(f"found {self.describe(tok)}", "identifier")
        self.pos += 1
        return (self.leaves.get(tok.value) or self.leaf(tok)).ident

    def leaf(self, tok: Token) -> Term:
        """The Var or Number of an identifier or number token first met here."""
        try:
            leaf = Var(Ident(tok.value)) if tok.kind == "ident" else Number(tok.value)
        except ValueError as exc:  # a reserved word of the other language
            raise ParseError(str(exc), tok.line, tok.col) from None
        self.leaves[tok.value] = leaf
        return leaf

    def fail(self, message: str, expected: str | None = None):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected)

    def eof(self, expected: str = "end of input"):
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(f"unexpected trailing input: {self.describe(tok)}", expected)

    def whole(self, rule):
        """`rule(self)`, which must read every token."""
        result = rule(self)
        self.eof()
        return result

    def describe(self, tok: Token) -> str:
        if tok.kind == "eof":
            return "end of input"
        return f"{tok.kind} {tok.value!r}"

    # -- expressions ---------------------------------------------------------

    def formula(self) -> Formula:
        tok = self.tokens[self.pos]
        return self.require(self.expression(), Formula, tok)

    def term(self) -> Term:
        tok = self.tokens[self.pos]
        return self.require(self.expression(), Term, tok)

    def expression(self, min_level: int = 1):
        """An expression whose binary operators bind at `min_level` or tighter.

        Operands are parsed before their kinds are checked, and a failed
        check is reported at the operator token.
        """
        d = self.dialect
        binary, prefix, tokens = d.binary, d.prefix, self.tokens
        # Everything that waits for an operand waits on one stack, so no
        # nesting costs a Python frame: prefix operators, binary operators
        # with their left operands, and open parentheses (entry None). Each
        # entry keeps the level around it. An operator is reduced at the
        # first operator after its operand that binds looser than it allows:
        # `a - b - c` is `(a - b) - c` and `a ^ b ^ c` is `a ^ (b ^ c)`.
        pending = []  # (token, left operand or None, entry or None, level around it)
        while True:
            while True:  # an operand, after its prefixes and open parentheses
                tok = tokens[self.pos]
                entry = prefix.get(tok.value)
                if entry is not None and entry[0] >= min_level:
                    pending.append((tok, None, entry, min_level))
                    min_level = entry[0]
                elif tok.kind == "op" and tok.value == "(":
                    pending.append((tok, None, None, min_level))
                    min_level = 1
                else:
                    break
                self.pos += 1
            left = self.atom(tok)
            while True:  # then the operators after it
                op = tokens[self.pos]
                entry = binary.get(op.value)
                if entry is not None and entry[0] >= min_level:
                    break
                if not pending:
                    return left
                tok, operand, waiting, min_level = pending.pop()
                if waiting is None:
                    self.expect_op(")")
                    continue
                level, assoc, operands, build = waiting
                left = (build(self.require(left, operands, tok)) if operand is None
                        else build(self.require(operand, operands, tok), self.require(left, operands, tok)))
                if assoc == NONASSOC and entry is not None and entry[0] == level:
                    self.fail("comparisons are non-associative", d.chain_expected)
            self.pos += 1
            pending.append((op, left, entry, min_level))
            min_level = entry[0] + (entry[1] != RIGHT)

    def atom(self, tok: Token):
        """A number, a variable or a truth value."""
        if tok.kind == "ident" or tok.kind == "number":
            self.pos += 1
            return self.leaves.get(tok.value) or self.leaf(tok)
        if tok.kind == "kw" and tok.value in ("TRUE", "FALSE"):
            self.pos += 1
            return BoolConst(tok.value == "TRUE")
        self.fail(f"found {self.describe(tok)}", self.dialect.operand_expected)

    def require(self, value, kind: type, at: Token):
        """`value` if it is a `kind` (Term or Formula), else the error at `at`."""
        if isinstance(value, kind):
            return value
        message = "expected an arithmetic term" if kind is Term else self.dialect.formula_expected
        raise ParseError(message, at.line, at.col)


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
