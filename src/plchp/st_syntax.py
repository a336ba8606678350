"""Lexer, parser, and pretty-printer for the structured-text subset.

The accepted language: expressions over LREAL/REAL/BOOL variables,
assignment, IF/ELSIF/ELSE conditionals, PROGRAM units with VAR blocks, and a
single CONFIGURATION/RESOURCE/TASK section. Keywords match
case-insensitively; `(* ... *)` and `// ...` comments are discarded.
Constructs outside the subset (loops, CASE, calls, non-numeric types) are
rejected with an error naming the construct.

`ST` is this language's `Dialect`: its one `re.split` pass (see `_syntax`)
gives each keyword as its upper-case value and each `T#` duration as one
lexeme, whose seconds the configuration reads. The parser walks the
token arrays by index, and asks for a token's line:col only for the `pos`
of an assignment or IF and for an error.

The printer folds a statement tree once, its terms and formulas included,
into a rope of lines that `ir.flatten` lays out, so blocks nest without
limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ._syntax import (
    LEFT, Dialect, Parser, Token, duration_seconds, render_formula, render_term, run_nested,
)
from .errors import ParseError
from .ir import (
    And, Assign, Formula, Ident, IfThen, Or, Program,
    RESERVED_WORDS, ST_CHILDREN, Seq, Term, Xor, flatten, fold, list_to_seq, number_lexeme,
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
# Dialect: the lexer's and the printer's steps

def _classify(word: str) -> tuple[str, str]:
    upper = word.upper()
    if upper in RESERVED_WORDS:
        return "kw", upper
    if upper in UNSUPPORTED_KEYWORDS:
        return "unsupported", upper
    return "ident", word


def _layout(n, kids):
    """The printing fold's step for an ST statement: its rope of lines (see
    `ir.flatten`), each branch of an IF a block one indent deeper."""
    cls = n.__class__
    if cls is Assign:
        return f"{n.target} := {kids[0][0]};"
    if cls is Seq:
        return kids
    if cls is IfThen:
        rope = [f"IF ({kids[0][0]}) THEN", (kids[1],)]
        if len(kids) == 3:
            rope += "ELSE", (kids[2],)
        rope.append("END_IF;")
        return rope
    what = "as an ST statement" if isinstance(n, Program) else "in ST syntax"
    raise TypeError(f"cannot print {cls.__name__} {what}")


ST = Dialect(
    name="ST",
    operators=("**", ":=", "<=", ">=", "<>", "<", ">", "=", "+", "-", "*", "/",
               "(", ")", ";", ":", ","),
    comment=("(*", "*)"),
    classify=_classify,
    statement=_layout,
    durations=True,
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
        return self.values[self.pos] in names

    def expect_kw(self, name: str) -> int:
        """Step over keyword `name`, and return its index."""
        i = self.pos
        if self.values[i] != name:
            self.fail(f"found {self.describe(i)}", name)
        self.pos = i + 1
        return i

    def named(self, keyword: str) -> Ident:
        """The identifier after `keyword`."""
        self.expect_kw(keyword)
        return self.expect_ident()

    def describe(self, i: int) -> str:
        if self.kinds[i] == "kw":
            return f"keyword {self.values[i]}"
        return super().describe(i)

    def reject_unsupported(self, i: int):
        if self.kinds[i] == "unsupported":
            raise ParseError(
                f"unsupported construct {self.values[i]} (outside the translatable subset)",
                *self.at(i),
            )

    def atom(self, i: int):
        if self.kinds[i] == "ident":
            if self.values[i + 1] == "(":
                raise ParseError(f"function call {self.values[i]}(...) is not supported", *self.at(i))
        else:
            self.reject_unsupported(i)
        return super().atom(i)

    # -- statements ----------------------------------------------------------

    _STMT_END = ("END_IF", "ELSE", "ELSIF", "END_PROGRAM", "")  # "": end of input

    def body(self) -> Program:
        return run_nested(self.statement_list())

    # Statement lists and IF statements are generators run by `run_nested`,
    # so that IF statements nest without limit.

    def statement_list(self, allow_empty: bool = False):
        stmts: list[Program] = []
        values, kinds = self.values, self.kinds
        while True:
            i = self.pos
            value = values[i]
            if value in self._STMT_END:
                break
            if value == "IF":
                stmts.append((yield self.if_statement()))
            elif kinds[i] == "ident":
                stmts.append(self.assignment(i))
            else:
                self.reject_unsupported(i)
                self.fail(f"found {self.describe(i)}", "assignment or IF")
        if not stmts and not allow_empty:
            self.fail("statement expected", "assignment or IF")
        return list_to_seq(stmts) if stmts else None

    def if_statement(self):
        pos = self.at(self.expect_kw("IF"))
        arms: list[tuple[Formula, Program]] = []
        cond = self.formula()
        self.expect_kw("THEN")
        arms.append((cond, (yield self.statement_list())))
        while self.at_kw("ELSIF"):
            self.pos += 1
            cond = self.formula()
            self.expect_kw("THEN")
            arms.append((cond, (yield self.statement_list())))
        else_body: Optional[Program] = None
        if self.at_kw("ELSE"):
            self.pos += 1
            else_body = yield self.statement_list(allow_empty=True)  # an empty ELSE is None
        self.expect_kw("END_IF")
        self.skip_op(";")
        return _fold_if(arms, else_body, pos)

    def assignment(self, i: int) -> Program:
        """The assignment whose target is identifier token `i`, the next."""
        target = self.expect_ident()
        self.expect_op(":=")
        op = self.pos
        value = self.expression()
        if not isinstance(value, Term):
            raise ParseError("can only assign arithmetic terms", *self.at(op))
        self.expect_op(";")
        return Assign(target, value, pos=self.at(i))

    # -- declarations and configuration ---------------------------------------

    def var_block(self, declared: set) -> StVarBlock:
        """A VAR block; each name it declares joins `declared`, and one
        already there is an error at the name."""
        kind = VAR_KINDS[self.values[self.pos]]
        self.pos += 1
        decls: list[tuple[Ident, str]] = []

        def declare() -> Ident:
            i = self.pos
            name = self.expect_ident()
            if name in declared:
                raise ParseError(f"duplicate variable declaration: {name}", *self.at(i))
            declared.add(name)
            return name

        while not self.at_kw("END_VAR"):
            names = [declare()]
            while self.skip_op(","):
                names.append(declare())
            self.expect_op(":")
            ty = self.values[self.pos]
            if ty not in TYPES:
                raise ParseError(f"unsupported type {ty!r} (only LREAL, REAL, BOOL)", *self.at(self.pos))
            self.pos += 1
            self.expect_op(";")
            decls.extend((name, ty) for name in names)
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
        if self.kinds[self.pos] != "duration":
            self.fail(f"found {self.describe(self.pos)}", "duration literal T#<n> s|ms")
        seconds = duration_seconds(self.values[self.pos])
        if not 0 < seconds < math.inf:
            self.fail("task interval must be positive and finite")
        self.pos += 1
        self.expect_op(",")
        self.expect_kw("PRIORITY")
        self.expect_op(":=")
        priority = self.values[self.pos]
        if self.kinds[self.pos] != "number" or not priority.isdigit():
            self.fail(f"found {self.describe(self.pos)}", "non-negative integer priority")
        self.pos += 1
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
            interval=seconds,
            priority=int(priority),
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
    if not isinstance(p, Program):
        raise TypeError(f"cannot print {type(p).__name__} as an ST statement")
    return "\n".join(flatten([fold(p, ST.render, ST_CHILDREN)], "  " * indent, "  "))


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
    rope = [f"PROGRAM {unit.program_name}"]
    rope += ((KIND_KEYWORDS[block.kind], tuple(f"{name} : {ty};" for name, ty in block.decls), "END_VAR")
             for block in unit.var_blocks)
    rope += "", (fold(unit.body, ST.render, ST_CHILDREN),), "END_PROGRAM"
    cfg = unit.config
    if cfg is not None:
        task = (f"TASK {cfg.task_name}(INTERVAL:={format_interval(cfg.interval)}, "
                f"PRIORITY:={cfg.priority});")
        instance = f"PROGRAM {cfg.program_instance} WITH {cfg.task_name} : {unit.program_name};"
        rope += ("", f"CONFIGURATION {cfg.config_name}",
                 (f"RESOURCE {cfg.resource_name} ON {cfg.host}", (task, instance), "END_RESOURCE"),
                 "END_CONFIGURATION")
    return "\n".join(flatten(rope, "", "  ")) + "\n"
