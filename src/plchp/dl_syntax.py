"""Parser and pretty-printer for the translatable hybrid-program fragment.

ASCII surface syntax: `:=` assignment, `:= *` nondeterministic assignment,
`?F;` test, `{a} ++ {b}` choice, `{x'=e, ... & Q}` differential equations,
`[{body}*]` the boxed scan-cycle loop, and formulas over `true false
= != > >= < <= ! & | -> <->` with `<->` binding loosest, then `->`
(right-associative), `|`, `&`, `!`, comparisons. The scan cycle duration is
written `eps`.

Programs outside the translatable fragment (bare tests, unguarded choices,
misplaced ODEs or loops) parse into raw nodes; `analysis.validate_scan_cycle_form`
rejects them with a located diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ._syntax import (
    LEFT, RIGHT, Dialect, Parser, Token, render_formula, render_term, run_nested,
)
from .errors import ParseError
from .ir import (
    LE, And, Assign, BoolConst, Choice, Cmp, Equiv, Formula, GuardedChoice,
    Ident, Imply, Loop, Not, Number, OdeSystem, Or, PlantSpec, Program,
    RandomAssign, STATEMENTS, Seq, Term, TestStmt, Var, conjoin, conjuncts,
    fold, list_to_seq, seq_to_list,
)


@dataclass(frozen=True)
class DlSafetyFormula:
    """A parsed safety formula `A -> [{body}*] S`.

    The loop body is kept raw (inputs, controller, and plant are split and
    checked by analysis.validate_scan_cycle_form).
    """

    assumptions: Formula
    body: Program
    safety: Formula


def detect_complement(left_guard: Formula, right_guard: Formula) -> bool:
    """True iff one guard is structurally the negation of the other, after
    stripping double negations. No semantic complement solving."""
    left = _strip_double_neg(left_guard)
    right = _strip_double_neg(right_guard)
    return (right.__class__ is Not and left == right.operand
            or left.__class__ is Not and right == left.operand)


def _strip_double_neg(f: Formula) -> Formula:
    while isinstance(f, Not) and isinstance(f.operand, Not):
        f = f.operand.operand
    return f


# ---------------------------------------------------------------------------
# Lexer and expression grammar


def _classify(word: str) -> tuple[str, str]:
    upper = word.upper()
    if upper in ("TRUE", "FALSE"):
        return "kw", upper
    return "ident", word


DL = Dialect(
    name="dL",
    operators=("<->", "->", "++", ":=", "!=", "<=", ">=", "=", "<", ">", "&", "|", "!",
               "{", "}", "[", "]", "(", ")", ";", ",", "?", "*", "/", "+", "-", "^", "'"),
    comment=("/*", "*/"),
    classify=_classify,
    connectives=(
        (RIGHT, (("<->", Equiv),)),
        (RIGHT, (("->", Imply),)),
        (LEFT, (("|", Or),)),
        (LEFT, (("&", And),)),
    ),
    not_op="!",
    bools=("false", "true"),
    ne_op="!=",
    pow_op="^",
    cmp_space="",
    formula_expected="expected a formula",
    chain_expected="a connective or end of formula",
    operand_expected="term or formula",
)

# Assumptions stop below `->`, so the implication introducing the box is
# unambiguous; implications inside them are parenthesized.
_ASSUMPTION_LEVEL = DL.level("|")
# ODE right-hand sides are terms, so the `& domain` separator is not swallowed.
_TERM_LEVEL = DL.level("+")


def tokenize(text: str) -> list[Token]:
    return DL.tokenize(text)


# ---------------------------------------------------------------------------
# Parser

class _Parser(Parser):
    dialect = DL

    # -- programs -------------------------------------------------------------

    _LIST_END = ("}", "]", "++")

    def program(self) -> Program:
        stmts = run_nested(self.statement_list())
        if not stmts:
            self.fail("program expected", "a statement")
        return list_to_seq(stmts)

    # Statement lists and braced groups are generators run by `run_nested`,
    # so that groups nest without limit.

    def statement_list(self):
        stmts: list[Program] = []
        while True:
            tok = self.tokens[self.pos]
            if tok.kind == "eof" or (tok.kind == "op" and tok.value in self._LIST_END):
                return stmts
            if tok.kind == "op" and tok.value == "{":
                stmts.append((yield self.group_statement(tok)))
            else:
                stmts.append(self.statement())

    def statement(self) -> Program:
        tok = self.tokens[self.pos]
        if tok.kind == "ident":
            target = self.expect_ident()
            self.expect_op(":=")
            if self.at_op("*"):
                self.next()
                self.expect_op(";")
                return RandomAssign(target, pos=(tok.line, tok.col))
            value = self.term()
            self.expect_op(";")
            return Assign(target, value, pos=(tok.line, tok.col))
        if tok.kind == "op" and tok.value == "?":
            self.next()
            cond = self.formula()
            self.expect_op(";")
            return TestStmt(cond, pos=(tok.line, tok.col))
        self.fail(f"found {self.describe(tok)}", "a statement")

    def group_statement(self, tok: Token):
        """A braced group, or a choice between several."""
        node = yield self.braced_group(tok)
        while self.at_op("++"):
            self.next()
            nxt = self.peek()
            if not self.at_op("{"):
                self.fail(f"found {self.describe(nxt)}", "'{' opening a choice branch")
            node = self.make_choice(node, (yield self.braced_group(nxt)), tok)
        if self.at_op(";"):
            self.next()
        return node

    def braced_group(self, start: Token):
        """One braced group: an ODE system, a block, an inner choice, or a loop."""
        self.expect_op("{")
        if self.tokens[self.pos].kind == "ident" and self.tokens[self.pos + 1].value == "'":
            return self.ode_system(start)
        branches = []
        while True:
            stmts = yield self.statement_list()
            if not stmts:
                raise ParseError("empty choice branch", start.line, start.col)
            branches.append(list_to_seq(stmts))
            if not self.at_op("++"):
                break
            self.pos += 1
        self.expect_op("}")
        node = branches[0]
        for right in branches[1:]:
            node = self.make_choice(node, right, start)
        if len(branches) == 1 and self.at_op("*"):
            self.next()
            return Loop(node, pos=(start.line, start.col))
        return node

    def make_choice(self, left: Program, right: Program, at: Token) -> Program:
        """Shape a parsed choice: guarded forms become GuardedChoice."""
        head, rest = _split_test(left)
        if head is None:
            return Choice(left, right, pos=(at.line, at.col))
        if rest is None:
            # Left branch is a bare test: not a guarded execution.
            return Choice(left, right, pos=(at.line, at.col))
        right_head, right_rest = _split_test(right)
        if right_head is not None and detect_complement(head.cond, right_head.cond):
            return GuardedChoice(
                head.cond, rest, right_rest, complemented=True, pos=(at.line, at.col)
            )
        return GuardedChoice(head.cond, rest, right, complemented=False, pos=(at.line, at.col))

    def ode_system(self, start: Token) -> Program:
        odes: list[tuple[Ident, Term]] = []
        while True:
            x = self.expect_ident()
            self.expect_op("'")
            self.expect_op("=")
            at = self.peek()
            odes.append((x, self.require(self.expression(_TERM_LEVEL), Term, at)))
            if self.at_op(","):
                self.next()
                continue
            break
        domain: Formula = BoolConst(True)
        if self.at_op("&"):
            self.next()
            domain = self.formula()
        self.expect_op("}")
        try:
            return OdeSystem(tuple(odes), domain, pos=(start.line, start.col))
        except ValueError as exc:
            raise ParseError(str(exc), start.line, start.col) from None

    # -- safety formula --------------------------------------------------------

    def safety_formula(self) -> DlSafetyFormula:
        tok = self.peek()
        assumptions = self.require(self.expression(_ASSUMPTION_LEVEL), Formula, tok)
        self.expect_op("->")
        self.expect_op("[")
        open_brace = self.peek()
        if not self.at_op("{"):
            self.fail(f"found {self.describe(open_brace)}", "'{' opening the loop body")
        self.next()
        body = self.program()
        self.expect_op("}")
        self.expect_op("*")
        self.expect_op("]")
        safety = self.formula()
        return DlSafetyFormula(assumptions, body, safety)


def _split_test(p: Program) -> tuple[Optional[TestStmt], Optional[Program]]:
    """Split a branch into its leading test and the remainder (if any)."""
    stmts = seq_to_list(p)
    if not isinstance(stmts[0], TestStmt):
        return None, None
    if len(stmts) == 1:
        return stmts[0], None
    return stmts[0], list_to_seq(stmts[1:])


# ---------------------------------------------------------------------------
# Entry points per syntactic category

def parse_dl_term(text: str) -> Term:
    parser = _Parser(text)
    t = parser.term()
    parser.eof()
    return t


def parse_dl_formula(text: str) -> Formula:
    parser = _Parser(text)
    f = parser.formula()
    parser.eof()
    return f


def parse_dl_program(text: str) -> Program:
    parser = _Parser(text)
    p = parser.program()
    parser.eof()
    return p


def parse_dl_model(text: str) -> DlSafetyFormula:
    parser = _Parser(text)
    m = parser.safety_formula()
    parser.eof()
    return m


def parse_dl(text: str) -> Union[DlSafetyFormula, Program, Formula, Term]:
    """Parse any syntactic category, trying the model shape first. Text no
    category accepts raises the error of the program parse, the most
    informative one."""
    errors = []
    for entry in (parse_dl_model, parse_dl_program, parse_dl_formula, parse_dl_term):
        try:
            return entry(text)
        except ParseError as exc:
            errors.append(exc)
    raise errors[1]


# ---------------------------------------------------------------------------
# Printer

def print_dl_term(t: Term) -> str:
    return render_term(t, DL)


def print_dl_formula(f: Formula) -> str:
    return render_formula(f, DL)


def print_dl_program(p: Program) -> str:
    """One top-level statement per line."""
    return "\n".join(_stmt_str(s) for s in seq_to_list(p))


# A statement list inside braces prints on one line. Statements dL has no
# syntax for are leaves, so they are rejected in source order.
_PRINTED = {Seq: seq_to_list, **{cls: STATEMENTS[cls] for cls in (GuardedChoice, Choice, Loop)}}


def _stmt_str(s: Program) -> str:
    return fold(s, _print_stmt, _PRINTED)


def _print_stmt(s: Program, kids) -> str:
    cls = s.__class__
    if cls is Seq:
        return " ".join(kids)
    if cls is Assign:
        return f"{s.target}:={print_dl_term(s.value)};"
    if cls is RandomAssign:
        return f"{s.target}:=*;"
    if cls is TestStmt:
        return f"?{print_dl_formula(s.cond)};"
    if cls is GuardedChoice:
        left = f"{{?{print_dl_formula(s.guard)}; {kids[0]}}}"
        if s.complemented:
            neg = print_dl_formula(Not(s.guard))
            if s.else_ is None:
                return f"{left} ++ {{?{neg};}}"
            return f"{left} ++ {{?{neg}; {kids[1]}}}"
        return f"{left} ++ {{{kids[1]}}}"
    if cls is Choice:
        return f"{{{kids[0]}}} ++ {{{kids[1]}}}"
    if cls is OdeSystem:
        odes = ", ".join(f"{x}'={print_dl_term(rhs)}" for x, rhs in s.odes)
        if s.domain == BoolConst(True):
            return f"{{{odes}}}"
        return f"{{{odes} & {print_dl_formula(s.domain)}}}"
    if cls is Loop:
        return f"{{{kids[0]}}}*"
    raise TypeError(f"cannot print {cls.__name__} in dL syntax")


def print_dl_plant(plant: PlantSpec) -> str:
    """The scan-cycle plant: clock reset, then ODEs with the implied bound."""
    return print_dl_program(plant_program(plant))


def plant_program(plant: PlantSpec) -> Program:
    """Rebuild the raw `t:=0; {odes, t'=1 & t<=bound & Q}` form of a plant."""
    odes = plant.odes + ((plant.clock, Number("1")),)
    bound = Cmp(LE, Var(plant.clock), plant.bound)
    extra = [] if plant.domain == BoolConst(True) else conjuncts(plant.domain)
    domain = conjoin([bound] + extra)
    return Seq(
        Assign(plant.clock, Number("0")),
        OdeSystem(odes, domain),
    )


def print_dl_model(m: DlSafetyFormula) -> str:
    """Canonical multi-line rendering of `A -> [{body}*] S`."""
    body_lines = [f"  {_stmt_str(s)}" for s in seq_to_list(m.body)]
    parts = [
        render_formula(m.assumptions, DL, _ASSUMPTION_LEVEL),
        "->",
        "[{",
        *body_lines,
        "}*]",
        print_dl_formula(m.safety),
    ]
    return "\n".join(parts) + "\n"


def print_dl(value) -> str:
    """Canonical ASCII rendering for any syntactic category."""
    if isinstance(value, DlSafetyFormula):
        return print_dl_model(value)
    if isinstance(value, PlantSpec):
        return print_dl_plant(value)
    if isinstance(value, Program):
        return print_dl_program(value)
    if isinstance(value, Formula):
        return print_dl_formula(value)
    if isinstance(value, Term):
        return print_dl_term(value)
    raise TypeError(f"cannot print {type(value).__name__}")
