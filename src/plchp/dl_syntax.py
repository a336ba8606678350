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

`DL` is this language's `Dialect`: its one `re.split` pass (see `_syntax`)
drops `/* ... */` and `// ...` comments and gives `true` and `false` as the
values `TRUE` and `FALSE`. The parser walks the token arrays by index, and
asks for a token's line:col only for the `pos` of a statement, choice, loop
or ODE system, which diagnostics cite, and for an error. The printer folds
each top-level statement once, its terms and formulas included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ._syntax import (
    LEFT, RIGHT, Dialect, Parser, Token, render_formula, render_term, run_nested,
)
from .errors import ParseError
from .ir import (
    CHILDREN, LE, TRUE, And, Assign, BoolConst, Choice, Cmp, Equiv, Formula,
    GuardedChoice, Ident, IfThen, Imply, Loop, Not, Number, OdeSystem, Or,
    PlantSpec, Program, RandomAssign, Seq, Term, TestStmt, Var, conjoin,
    conjuncts, fold, list_to_seq, seq_to_list,
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


def _inline(s, kids) -> str:
    """The printing fold's step for a hybrid-program statement: its text, on
    one line, with any statement list inside braces."""
    cls = s.__class__
    if cls is Seq:
        return " ".join(kids)
    if cls is Assign:
        return f"{s.target}:={kids[0][0]};"
    if cls is RandomAssign:
        return f"{s.target}:=*;"
    if cls is TestStmt:
        return f"?{kids[0][0]};"
    if cls is GuardedChoice:
        (guard, _), then, *else_ = kids
        left = f"{{?{guard}; {then}}}"
        if not s.complemented:
            return f"{left} ++ {{{else_[0]}}}"
        if not else_:
            return f"{left} ++ {{?!({guard});}}"
        return f"{left} ++ {{?!({guard}); {else_[0]}}}"
    if cls is Choice:
        return f"{{{kids[0]}}} ++ {{{kids[1]}}}"
    if cls is OdeSystem:
        odes = ", ".join(f"{x}'={rhs}" for (x, _), (rhs, _) in zip(s.odes, kids))
        if s.domain == TRUE:
            return f"{{{odes}}}"
        return f"{{{odes} & {kids[-1][0]}}}"
    if cls is Loop:
        return f"{{{kids[0]}}}*"
    raise TypeError(f"cannot print {cls.__name__} in dL syntax")


DL = Dialect(
    name="dL",
    operators=("<->", "->", "++", ":=", "!=", "<=", ">=", "=", "<", ">", "&", "|", "!",
               "{", "}", "[", "]", "(", ")", ";", ",", "?", "*", "/", "+", "-", "^", "'"),
    comment=("/*", "*/"),
    classify=_classify,
    statement=_inline,
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

    _LIST_END = ("}", "]", "++", "")  # "": end of input

    def program(self) -> Program:
        stmts = run_nested(self.statement_list())
        if not stmts:
            self.fail("program expected", "a statement")
        return list_to_seq(stmts)

    # Statement lists and braced groups are generators run by `run_nested`,
    # so that groups nest without limit.

    def statement_list(self):
        stmts: list[Program] = []
        values = self.values
        while True:
            i = self.pos
            value = values[i]
            if value in self._LIST_END:
                return stmts
            if value == "{":
                self.pos = i + 1
                stmts.append((yield self.group_statement(i)))
            else:
                stmts.append(self.statement())

    def statement(self) -> Program:
        i = self.pos
        if self.kinds[i] == "ident":
            target = self.expect_ident()
            self.expect_op(":=")
            if self.skip_op("*"):
                self.expect_op(";")
                return RandomAssign(target, pos=self.at(i))
            value = self.term()
            self.expect_op(";")
            return Assign(target, value, pos=self.at(i))
        if self.skip_op("?"):
            cond = self.formula()
            self.expect_op(";")
            return TestStmt(cond, pos=self.at(i))
        self.fail(f"found {self.describe(i)}", "a statement")

    def group_statement(self, start: int):
        """A braced group after its opening brace, token `start`, or a
        choice between several."""
        node = yield self.braced_group(start)
        while self.skip_op("++"):
            nxt = self.expect_op("{", "'{' opening a choice branch")
            node = self.make_choice(node, (yield self.braced_group(nxt)), start)
        self.skip_op(";")
        return node

    def braced_group(self, start: int):
        """One braced group after its opening brace, token `start`: an ODE
        system, a block, an inner choice, or a loop."""
        if self.kinds[self.pos] == "ident" and self.values[self.pos + 1] == "'":
            return self.ode_system(start)
        branches = []
        while True:
            stmts = yield self.statement_list()
            if not stmts:
                raise ParseError("empty choice branch", *self.at(start))
            branches.append(list_to_seq(stmts))
            if not self.skip_op("++"):
                break
        self.expect_op("}")
        node = branches[0]
        for right in branches[1:]:
            node = self.make_choice(node, right, start)
        if len(branches) == 1 and self.skip_op("*"):
            return Loop(node, pos=self.at(start))
        return node

    def make_choice(self, left: Program, right: Program, at: int) -> Program:
        """Shape a parsed choice: guarded forms become GuardedChoice."""
        pos = self.at(at)
        head, rest = _split_test(left)
        if rest is None:
            # The left branch has no test, or is a bare test: not a guarded execution.
            return Choice(left, right, pos=pos)
        right_head, right_rest = _split_test(right)
        if right_head is not None and detect_complement(head.cond, right_head.cond):
            return GuardedChoice(head.cond, rest, right_rest, complemented=True, pos=pos)
        return GuardedChoice(head.cond, rest, right, complemented=False, pos=pos)

    def ode_system(self, start: int) -> Program:
        odes: list[tuple[Ident, Term]] = []
        while True:
            x = self.expect_ident()
            self.expect_op("'")
            self.expect_op("=")
            at = self.pos
            odes.append((x, self.require(self.expression(_TERM_LEVEL), Term, at)))
            if not self.skip_op(","):
                break
        domain: Formula = BoolConst(True)
        if self.skip_op("&"):
            domain = self.formula()
        self.expect_op("}")
        try:
            return OdeSystem(tuple(odes), domain, pos=self.at(start))
        except ValueError as exc:
            raise ParseError(str(exc), *self.at(start)) from None

    # -- safety formula --------------------------------------------------------

    def safety_formula(self) -> DlSafetyFormula:
        i = self.pos
        assumptions = self.require(self.expression(_ASSUMPTION_LEVEL), Formula, i)
        self.expect_op("->")
        self.expect_op("[")
        self.expect_op("{", "'{' opening the loop body")
        body = self.program()
        self.expect_op("}")
        self.expect_op("*")
        self.expect_op("]")
        safety = self.formula()
        return DlSafetyFormula(assumptions, body, safety)


def _split_test(p: Program) -> tuple[Optional[TestStmt], Optional[Program]]:
    """Split a branch into its leading test and the remainder (if any)."""
    head, *rest = seq_to_list(p)
    if head.__class__ is not TestStmt:
        return None, None
    return head, list_to_seq(rest) if rest else None


# ---------------------------------------------------------------------------
# Entry points per syntactic category

def parse_dl_term(text: str) -> Term:
    return _Parser(text).whole(_Parser.term)


def parse_dl_formula(text: str) -> Formula:
    return _Parser(text).whole(_Parser.formula)


def parse_dl_program(text: str) -> Program:
    return _Parser(text).whole(_Parser.program)


def parse_dl_model(text: str) -> DlSafetyFormula:
    return _Parser(text).whole(_Parser.safety_formula)


def parse_dl(text: str) -> Union[DlSafetyFormula, Program, Formula, Term]:
    """Parse any syntactic category, trying the model shape first. Text no
    category accepts raises the error of the program parse, the most
    informative one. The text is lexed once, for every category."""
    parser = _Parser(text)
    errors = []
    for rule in (_Parser.safety_formula, _Parser.program, _Parser.formula, _Parser.term):
        parser.pos = 0
        try:
            return parser.whole(rule)
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
    return "\n".join(map(_statement_text, seq_to_list(p)))


# A printed statement's tree: its terms and formulas, and every statement but
# the ST conditional, which is a leaf, so it is rejected in source order.
_PRINTED = {cls: kids for cls, kids in CHILDREN.items() if cls is not IfThen}


def _statement_text(s: Program) -> str:
    if not isinstance(s, Program):
        raise TypeError(f"cannot print {type(s).__name__} in dL syntax")
    return fold(s, DL.render, _PRINTED)


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
    body = [f"  {text}" for text in map(_statement_text, seq_to_list(m.body))]
    parts = [render_formula(m.assumptions, DL, _ASSUMPTION_LEVEL), "->", "[{", *body, "}*]",
             print_dl_formula(m.safety)]
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
