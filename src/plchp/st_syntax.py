"""Lexer, parser, and pretty-printer for the structured-text subset.

The accepted language: expressions over LREAL/REAL/BOOL variables,
assignment, IF/ELSIF/ELSE conditionals, PROGRAM units with VAR blocks, and a
single CONFIGURATION/RESOURCE/TASK section. Keywords match
case-insensitively; `(* ... *)` and `// ...` comments are discarded.
Constructs outside the subset (loops, CASE, calls, non-numeric types) are
rejected with an error naming the construct.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from ._syntax import (
    LEFT, NUMBER, Dialect, Parser, Token, render_formula, render_term, run_nested,
)
from .errors import ParseError
from .ir import (
    And, Assign, Formula, Ident, IfThen, Or, Program,
    RESERVED_WORDS, Seq, Term, Xor, list_to_seq, number_lexeme,
)

# Recognized so that out-of-subset sources fail with a named construct
# instead of a generic syntax error.
UNSUPPORTED_KEYWORDS = frozenset({
    "WHILE", "END_WHILE", "DO", "FOR", "END_FOR", "TO", "BY", "CASE",
    "END_CASE", "OF", "REPEAT", "END_REPEAT", "UNTIL", "EXIT", "RETURN",
    "FUNCTION", "END_FUNCTION", "FUNCTION_BLOCK", "END_FUNCTION_BLOCK",
    "METHOD", "END_METHOD", "TYPE", "END_TYPE", "STRUCT", "END_STRUCT",
    "ARRAY", "VAR_IN_OUT", "VAR_GLOBAL", "VAR_TEMP",
})

VAR_KINDS = {
    "VAR_INPUT": "input",
    "VAR_OUTPUT": "output",
    "VAR": "local",
    "VAR_EXTERNAL": "external",
}
KIND_KEYWORDS = {v: k for k, v in VAR_KINDS.items()}

TYPES = ("LREAL", "REAL", "BOOL")


@dataclass(frozen=True)
class StVarBlock:
    """One VAR_* declaration block."""

    kind: str  # input | output | local | external
    decls: tuple[tuple[Ident, str], ...]  # (name, LREAL|REAL|BOOL)

    def __post_init__(self):
        if self.kind not in KIND_KEYWORDS:
            raise ValueError(f"unknown block kind: {self.kind!r}")
        for _, ty in self.decls:
            if ty not in TYPES:
                raise ValueError(f"unknown declaration type: {ty!r}")


@dataclass(frozen=True)
class StConfig:
    """CONFIGURATION/RESOURCE/TASK section; interval is in seconds."""

    config_name: Ident
    resource_name: Ident
    task_name: Ident
    program_instance: Ident
    interval: float
    priority: int = 0
    host: Ident = Ident("PLC")

    def __post_init__(self):
        if not 0 < self.interval < math.inf:
            raise ValueError("task interval must be positive and finite")
        if self.priority < 0:
            raise ValueError("task priority must be non-negative")


@dataclass(frozen=True)
class StUnit:
    """A parsed PROGRAM with its VAR blocks and optional configuration."""

    program_name: Ident
    var_blocks: tuple[StVarBlock, ...]
    body: Program
    config: Optional[StConfig] = None

    def __post_init__(self):
        seen: set[Ident] = set()
        for block in self.var_blocks:
            for name, _ in block.decls:
                if name in seen:
                    raise ValueError(f"duplicate variable declaration: {name}")
                seen.add(name)

    def declared(self, kind: str) -> tuple[Ident, ...]:
        return tuple(
            name for block in self.var_blocks if block.kind == kind for name, _ in block.decls
        )


# ---------------------------------------------------------------------------
# Lexer

_NUMBER = re.compile(NUMBER)
_UNIT = re.compile(r"[ \t]*(ms|s)", re.IGNORECASE)


def _classify(word: str) -> tuple[str, str]:
    upper = word.upper()
    if upper in RESERVED_WORDS:
        return "kw", upper
    if upper in UNSUPPORTED_KEYWORDS:
        return "unsupported", upper
    return "ident", word


def _duration(text: str, start: int, line: int, col: int) -> tuple[Token, int]:
    """The `T#<number> s|ms` literal at `start`, and the index after it."""
    number = _NUMBER.match(text, start + 2)
    if not number:
        raise ParseError("malformed duration literal", line, col, "T#<number> s|ms")
    unit = _UNIT.match(text, number.end())
    if not unit:
        raise ParseError("malformed duration literal", line, col, "unit s or ms")
    value = float(number.group(0))
    seconds = value / 1000.0 if unit.group(1).lower() == "ms" else value
    return Token("duration", text[start:unit.end()], line, col, seconds), unit.end()


ST = Dialect(
    name="ST",
    operators=("**", ":=", "<=", ">=", "<>", "<", ">", "=", "+", "-", "*", "/",
               "(", ")", ";", ":", ","),
    comment=("(*", "*)"),
    classify=_classify,
    duration=_duration,
    connectives=((LEFT, (("OR", Or), ("XOR", Xor))), (LEFT, (("AND", And),))),
    not_op="NOT",
    bools=("FALSE", "TRUE"),
    ne_op="<>",
    pow_op="**",
    cmp_space=" ",
    formula_expected="expected a Boolean condition (bare variables are not formulas)",
    chain_expected="AND/OR or end of expression",
    operand_expected="expression",
)


def tokenize(text: str) -> list[Token]:
    return ST.tokenize(text)


# ---------------------------------------------------------------------------
# Parser

class _Parser(Parser):
    dialect = ST

    def at_kw(self, *names: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.value in names

    def expect_kw(self, name: str) -> Token:
        tok = self.peek()
        if tok.kind != "kw" or tok.value != name:
            self.fail(f"found {self.describe(tok)}", name)
        return self.next()

    def named(self, keyword: str) -> Ident:
        """The identifier after `keyword`."""
        self.expect_kw(keyword)
        return self.expect_ident()

    def describe(self, tok: Token) -> str:
        if tok.kind == "kw":
            return f"keyword {tok.value}"
        return super().describe(tok)

    def reject_unsupported(self, tok: Token):
        if tok.kind == "unsupported":
            raise ParseError(
                f"unsupported construct {tok.value} (outside the translatable subset)",
                tok.line, tok.col,
            )

    def atom(self, tok: Token):
        if tok.kind == "ident":
            after = self.tokens[self.pos + 1]
            if after.value == "(" and after.kind == "op":
                raise ParseError(f"function call {tok.value}(...) is not supported", tok.line, tok.col)
        else:
            self.reject_unsupported(tok)
        return super().atom(tok)

    # -- statements ----------------------------------------------------------

    _STMT_END = ("END_IF", "ELSE", "ELSIF", "END_PROGRAM")

    def body(self) -> Program:
        return run_nested(self.statement_list())

    # Statement lists and IF statements are generators run by `run_nested`,
    # so that IF statements nest without limit.

    def statement_list(self, allow_empty: bool = False):
        stmts: list[Program] = []
        while True:
            tok = self.tokens[self.pos]
            if tok.kind == "eof" or (tok.kind == "kw" and tok.value in self._STMT_END):
                break
            self.reject_unsupported(tok)
            if tok.kind == "kw" and tok.value == "IF":
                stmts.append((yield self.if_statement()))
            else:
                stmts.append(self.assignment(tok))
        if not stmts and not allow_empty:
            self.fail("statement expected", "assignment or IF")
        return list_to_seq(stmts) if stmts else None

    def if_statement(self):
        start = self.expect_kw("IF")
        arms: list[tuple[Formula, Program]] = []
        cond = self.formula()
        self.expect_kw("THEN")
        arms.append((cond, (yield self.statement_list())))
        while self.at_kw("ELSIF"):
            self.next()
            cond = self.formula()
            self.expect_kw("THEN")
            arms.append((cond, (yield self.statement_list())))
        else_body: Optional[Program] = None
        if self.at_kw("ELSE"):
            self.next()
            else_body = yield self.statement_list(allow_empty=True)  # an empty ELSE is None
        self.expect_kw("END_IF")
        self.skip_op(";")
        return _fold_if(arms, else_body, (start.line, start.col))

    def assignment(self, tok: Token) -> Program:
        if tok.kind != "ident":
            self.fail(f"found {self.describe(tok)}", "assignment or IF")
        target = self.expect_ident()
        self.expect_op(":=")
        op = self.tokens[self.pos]
        value = self.expression()
        if not isinstance(value, Term):
            raise ParseError("can only assign arithmetic terms", op.line, op.col)
        self.expect_op(";")
        return Assign(target, value, pos=(tok.line, tok.col))

    # -- declarations and configuration ---------------------------------------

    def var_block(self, declared: set) -> StVarBlock:
        """A VAR block; each name it declares joins `declared`, and one
        already there is an error at the name."""
        kw = self.next()
        kind = VAR_KINDS[kw.value]
        decls: list[tuple[Ident, str]] = []

        def declare() -> Ident:
            tok = self.peek()
            name = self.expect_ident()
            if name in declared:
                raise ParseError(f"duplicate variable declaration: {name}", tok.line, tok.col)
            declared.add(name)
            return name

        while not self.at_kw("END_VAR"):
            names = [declare()]
            while self.skip_op(","):
                names.append(declare())
            self.expect_op(":")
            ty = self.peek()
            if ty.kind == "kw" and ty.value in TYPES:
                self.next()
            else:
                raise ParseError(
                    f"unsupported type {ty.value!r} (only LREAL, REAL, BOOL)",
                    ty.line, ty.col,
                )
            self.expect_op(";")
            decls.extend((name, ty.value) for name in names)
        self.expect_kw("END_VAR")
        self.skip_op(";")
        return StVarBlock(kind, tuple(decls))

    def configuration(self) -> tuple[StConfig, Ident]:
        config_name = self.named("CONFIGURATION")
        resource_name = self.named("RESOURCE")
        host = self.named("ON")
        task_name = self.named("TASK")
        self.expect_op("(")
        self.expect_kw("INTERVAL")
        self.expect_op(":=")
        dur = self.peek()
        if dur.kind != "duration":
            self.fail(f"found {self.describe(dur)}", "duration literal T#<n> s|ms")
        if not 0 < dur.seconds < math.inf:
            self.fail("task interval must be positive and finite")
        self.next()
        self.expect_op(",")
        self.expect_kw("PRIORITY")
        self.expect_op(":=")
        prio = self.peek()
        if prio.kind != "number" or not prio.value.isdigit():
            self.fail(f"found {self.describe(prio)}", "non-negative integer priority")
        self.next()
        self.expect_op(")")
        self.skip_op(";")
        instance = self.named("PROGRAM")
        with_task = self.named("WITH")
        if with_task != task_name:
            self.fail(f"program bound to unknown task {with_task}", str(task_name))
        self.expect_op(":")
        prog_ref = self.expect_ident()
        self.skip_op(";")
        self.expect_kw("END_RESOURCE")
        self.skip_op(";")
        self.expect_kw("END_CONFIGURATION")
        self.skip_op(";")
        return StConfig(
            config_name=config_name,
            resource_name=resource_name,
            task_name=task_name,
            program_instance=instance,
            interval=dur.seconds,
            priority=int(prio.value),
            host=host,
        ), prog_ref

    def unit(self) -> StUnit:
        program_name = self.named("PROGRAM")
        blocks: list[StVarBlock] = []
        declared: set[Ident] = set()
        while self.at_kw(*VAR_KINDS):
            blocks.append(self.var_block(declared))
        body = self.body()
        self.expect_kw("END_PROGRAM")
        self.skip_op(";")
        config = None
        if self.at_kw("CONFIGURATION"):
            config, prog_ref = self.configuration()
            if prog_ref != program_name:
                self.fail(f"configuration refers to unknown program {prog_ref}")
        self.eof("end of file")
        return StUnit(program_name, tuple(blocks), body, config)


def _fold_if(arms, else_body, pos) -> Program:
    """The IF/ELSIF arms and ELSE body as nested conditionals, each ELSIF
    in the else branch of the one before."""
    node = else_body
    for cond, body in reversed(arms):
        node = IfThen(cond, body, node, pos=pos)
    return node


def parse_st(text: str) -> StUnit:
    """Parse an entire PROGRAM unit (with optional configuration)."""
    return _Parser(text).unit()


def parse_st_statements(text: str) -> Program:
    """Parse a bare statement list (no PROGRAM wrapper)."""
    return _Parser(text).whole(_Parser.body)


def parse_st_expression(text: str):
    """Parse a single expression; returns a Term or an ST-dialect Formula."""
    return _Parser(text).whole(_Parser.expression)


# ---------------------------------------------------------------------------
# Printer

def print_st_term(t: Term) -> str:
    return render_term(t, ST)


def print_st_formula(f: Formula) -> str:
    return render_formula(f, ST)


def print_st_statement(p: Program, indent: int = 0) -> str:
    """Canonical layout: two-space indent, one statement per line."""
    # Indentation is handed down, so rather than a fold this walks an
    # explicit stack, which lets blocks nest without limit. The stack holds
    # what is still to print, next on top: statements with their indent,
    # and the ELSE and END_IF lines of open IFs.
    lines: list[str] = []
    todo: list = [(p, indent)]
    while todo:
        stmt, depth = todo.pop()
        cls = stmt.__class__
        if cls is str:
            lines.append(stmt)
            continue
        pad = "  " * depth
        if cls is Seq:
            todo += [(s, depth) for s in reversed(stmt.stmts)]
        elif cls is Assign:
            lines.append(f"{pad}{stmt.target} := {print_st_term(stmt.value)};")
        elif cls is IfThen:
            lines.append(f"{pad}IF ({print_st_formula(stmt.cond)}) THEN")
            todo.append((f"{pad}END_IF;", depth))
            if stmt.else_ is not None:
                todo += (stmt.else_, depth + 1), (f"{pad}ELSE", depth)
            todo.append((stmt.then, depth + 1))
        else:
            raise TypeError(f"cannot print {cls.__name__} as an ST statement")
    return "\n".join(lines)


def format_interval(seconds: float) -> str:
    """Render a task interval as a duration literal (whole s or ms preferred)."""
    if seconds == int(seconds):
        return f"T#{int(seconds)} s"
    millis = seconds * 1000.0
    if millis == int(millis):
        return f"T#{int(millis)} ms"
    return f"T#{number_lexeme(seconds)} s"


def print_st(unit: StUnit) -> str:
    """Print a unit in the canonical layout; reparsing yields an equal AST."""
    lines = [f"PROGRAM {unit.program_name}"]
    for block in unit.var_blocks:
        lines.append(f"  {KIND_KEYWORDS[block.kind]}")
        for name, ty in block.decls:
            lines.append(f"    {name} : {ty};")
        lines.append("  END_VAR")
    lines.append("")
    lines.append(print_st_statement(unit.body, indent=1))
    lines.append("END_PROGRAM")
    if unit.config is not None:
        cfg = unit.config
        lines.append("")
        lines.append(f"CONFIGURATION {cfg.config_name}")
        lines.append(f"  RESOURCE {cfg.resource_name} ON {cfg.host}")
        lines.append(
            f"    TASK {cfg.task_name}(INTERVAL:={format_interval(cfg.interval)}, "
            f"PRIORITY:={cfg.priority});"
        )
        lines.append(
            f"    PROGRAM {cfg.program_instance} WITH {cfg.task_name} : {unit.program_name};"
        )
        lines.append("  END_RESOURCE")
        lines.append("END_CONFIGURATION")
    return "\n".join(lines) + "\n"
