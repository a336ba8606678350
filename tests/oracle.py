"""Reference implementations that the tests hold plchp to; no command uses them.

- The static-semantics oracle: a generator of programs on which the FV/BV
  rules are behaviorally exact, a brute-force FV/BV computed from
  `hp_reachable` over a grid of states, and a count of guarded choices.
  Criterion 6 and the generator and walker tests use them.
- `ReferenceLexer`, the per-match lexer that `Dialect.lex` replaced.
  tests/test_lexer_oracle.py holds the one-pass lexer to it.
- The four translators and `program_facts` as they were when each started
  a second fold or walk per guard or right-hand side, under their old
  names. tests/test_translate_folds.py holds the one-fold versions to them.
- `node_eq`, the equality walker `Node.__eq__` was before `==` and `hash`
  shared one flattening. tests/test_node_equality.py holds `==`, `!=` and
  `hash` to it.
"""

from __future__ import annotations

import random
import re
from typing import Optional

from plchp._syntax import Token
from plchp.errors import DialectError, NotNormalForm, ParseError
from plchp.ir import (
    ADD, And, Assign, BinOp, CHILDREN, Cmp, Equiv, Formula, GE, GT, GuardedChoice, HP,
    HP_STATEMENTS, Ident, IfThen, Imply, LE, LT, Node, Not, Number, Or, Program, ProgramFacts, ST,
    ST_STATEMENTS, Seq, State, Term, Var, VarSets, Xor, fold, list_to_seq, number_lexeme, walk,
)
from plchp.semantics import GenConfig, ReachSet, hp_reachable
from plchp.translate import CompileDiagnostics, CompileWarning, term_hp_to_st, term_st_to_hp


def count_choices(p: Program) -> int:
    """The number of guarded choices in `p`."""
    return sum(s.__class__ is GuardedChoice for s in walk(p, HP_STATEMENTS))


# ---------------------------------------------------------------------------
# Behaviorally transparent generator + brute-force oracle (static semantics)
#
# Syntactic FV over-approximates behavior on degenerate programs (x := x,
# guards that never flip, reads or branch effects that a later write masks).
# The oracle can only certify the FV/BV rules on programs where every read
# influences some observable outcome, so this generator stays inside a
# fragment where that is provable:
#
#   * guard variables and assigned variables are globally disjoint;
#   * guards are single comparisons against a constant the value grid
#     straddles, with distinct variables along any nesting path;
#   * right-hand sides are globally unique powers of two, optionally plus a
#     must-bound variable (whose removal from FV the sequence rule must
#     reproduce); every runtime value is then a sum of distinct powers whose
#     largest term identifies the assignment that produced it, so distinct
#     execution paths cannot collide on a value;
#   * a choice only ever ends a statement list, so no later write can mask
#     the difference between its branches.

GRID_VALUES = (0.0, 1.0)
_GUARD_LITERAL = "0.5"


class _TransparentGen:
    def __init__(self, rng: random.Random, pool: tuple[Ident, ...]):
        self.rng = rng
        self.pool = pool
        self.counter = 0
        self.guard_used: set[Ident] = set()
        self.written: set[Ident] = set()

    def fresh(self) -> Number:
        self.counter += 1
        return Number(number_lexeme(2.0 ** self.counter))

    def body(self, depth: int, path_guards: frozenset[Ident], must_bound: frozenset[Ident]) -> Program:
        stmts: list[Program] = []
        mb = set(must_bound)
        for _ in range(self.rng.randint(0, 2)):
            stmt = self.assign(frozenset(mb))
            stmts.append(stmt)
            mb.add(stmt.target)
        tail = self.choice(depth, path_guards, frozenset(mb))
        if tail is not None:
            stmts.append(tail)
        if not stmts:
            stmts.append(self.assign(frozenset(mb)))
        return list_to_seq(stmts)

    def assign(self, must_bound: frozenset[Ident]) -> Assign:
        targets = [x for x in self.pool if x not in self.guard_used]
        rhs: Term = self.fresh()
        if must_bound and self.rng.random() < 0.4:
            rhs = BinOp(ADD, rhs, Var(self.rng.choice(sorted(must_bound, key=str))))
        target = self.rng.choice(targets)
        self.written.add(target)
        return Assign(target, rhs)

    def choice(self, depth: int, path_guards: frozenset[Ident], must_bound: frozenset[Ident]) -> Optional[Program]:
        guard_vars = [
            x for x in self.pool
            if x not in self.guard_used and x not in self.written and x not in path_guards
        ]
        # Reserving a guard must leave at least one assignable variable.
        can_branch = (
            depth > 1
            and guard_vars
            and len(self.pool) - (len(self.guard_used) + 1) >= 1
        )
        if not can_branch or self.rng.random() < 0.3:
            return None
        g = self.rng.choice(guard_vars)
        self.guard_used.add(g)
        guard = Cmp(self.rng.choice((LT, LE, GT, GE)), Var(g), Number(_GUARD_LITERAL))
        inner = path_guards | {g}
        then = self.body(depth - 1, inner, must_bound)
        form = self.rng.random()
        if form < 0.34:
            return GuardedChoice(guard, then, None, complemented=True)
        else_ = self.body(depth - 1, inner, must_bound)
        if form < 0.67:
            return GuardedChoice(guard, then, else_, complemented=True)
        return GuardedChoice(guard, then, else_, complemented=False)


def gen_transparent_hp(cfg: GenConfig) -> Program:
    """Random program on which the FV/BV rules are behaviorally exact."""
    gen = _TransparentGen(random.Random(cfg.seed), tuple(cfg.var_pool))
    return gen.body(cfg.max_depth, frozenset(), frozenset())


def behavioral_var_sets(p: Program, pool: tuple[Ident, ...]) -> tuple[frozenset[Ident], frozenset[Ident]]:
    """Brute-force FV/BV: x is free iff two grid states differing only at x
    give different reachable outcomes on the other variables; x is bound iff
    some execution changes it."""
    grid = _grid_states(pool)
    bound: set[Ident] = set()
    for sigma in grid:
        for omega in hp_reachable(p, sigma).states:
            for x in pool:
                if omega.get(x) != sigma.get(x):
                    bound.add(x)
    free: set[Ident] = set()
    others = {x: tuple(y for y in pool if y != x) for x in pool}
    for x in pool:
        rest = others[x]
        for sigma in _grid_states(rest):
            lo = _project(hp_reachable(p, sigma.set(x, GRID_VALUES[0])), rest)
            hi = _project(hp_reachable(p, sigma.set(x, GRID_VALUES[1])), rest)
            if lo != hi:
                free.add(x)
                break
    return frozenset(free), frozenset(bound)


def _grid_states(pool) -> list[State]:
    states = [State()]
    for x in pool:
        states = [s.set(x, v) for s in states for v in GRID_VALUES]
    return states


def _project(reach: ReachSet, pool) -> frozenset:
    return frozenset(tuple(s.get(x) for x in pool) for s in reach.states)


# ---------------------------------------------------------------------------
# Reference lexer: one master-regex match per lexeme, in a Python loop.

_NUMBER = r"\d+(\.\d+)?([eE][+-]?\d+)?"
_NUMBER_RE = re.compile(_NUMBER)
_UNIT = re.compile(r"[ \t]*(ms|s)", re.IGNORECASE)


def _duration(text: str, start: int, line: int, col: int) -> tuple[Token, int]:
    """The `T#<number> s|ms` literal at `start`, and the index after it."""
    number = _NUMBER_RE.match(text, start + 2)
    if not number:
        raise ParseError("malformed duration literal", line, col, "T#<number> s|ms")
    unit = _UNIT.match(text, number.end())
    if not unit:
        raise ParseError("malformed duration literal", line, col, "unit s or ms")
    value = float(number.group(0))
    seconds = value / 1000.0 if unit.group(1).lower() == "ms" else value
    return Token("duration", text[start:unit.end()], line, col, seconds), unit.end()


class ReferenceLexer:
    """The tokens of a dialect's text, lexed one match of a master regex at
    a time. Each match takes the spaces, tabs and carriage returns before
    its lexeme; newlines and comments are counted as they pass."""

    def __init__(self, dialect):
        self.classify = dialect.classify
        self.comment_close = dialect.comment[1]
        self.duration = _duration if dialect.durations else None
        # Layout before a lexeme is part of its match. A match with no
        # group is layout up to the end of the text or to a character
        # that starts no lexeme.
        self.pattern = re.compile(r"[ \t\r]*(?:" + "|".join([
            r"(?P<newline>\n)",
            r"(?P<line_comment>//[^\n]*)",
            f"(?P<comment>{re.escape(dialect.comment[0])})",
            *([r"(?P<duration>[Tt]#)"] if self.duration else []),
            r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)",
            f"(?P<number>{_NUMBER})",
            "(?P<op>" + "|".join(map(re.escape, dialect.operators)) + ")",
        ]) + ")?")

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


# ---------------------------------------------------------------------------
# The translators and the facts fold, each folding every guard or walking
# every right-hand side again inside its own fold (copied unchanged)

def formula_st_to_hp(f: Formula) -> Formula:
    """Compile an ST formula; XOR is rewritten to (NOT p AND q) OR (NOT q AND p)."""
    if f.dialect == HP:
        raise DialectError("formula_st_to_hp expects an ST-dialect formula")
    return fold(f, _shared_connectives, _CONNECTIVES)


def formula_hp_to_st(f: Formula) -> Formula:
    """Compile an HP formula; -> and <-> are rewritten into AND/OR/NOT first."""
    if f.dialect == ST:
        raise DialectError("formula_hp_to_st expects an HP-dialect formula")
    return fold(f, _shared_connectives, _CONNECTIVES)


# Comparisons and truth values are leaves, and carry over unchanged.
_CONNECTIVES = {cls: CHILDREN[cls] for cls in (Not, And, Or, Xor, Imply, Equiv)}


def _shared_connectives(f: Formula, kids) -> Formula:
    """`f` over the connectives both languages have. A formula has the
    connectives of its own dialect only, so one rewrite serves both ways."""
    cls = f.__class__
    if cls is Xor:
        left, right = kids
        return Or(And(Not(left), right), And(Not(right), left))
    if cls is Imply:
        left, right = kids
        return Or(Not(left), right)
    if cls is Equiv:
        left, right = kids
        return Or(And(Not(left), Not(right)), And(left, right))
    if cls in _CONNECTIVES:
        return cls(*kids)
    return f


# ---------------------------------------------------------------------------
# Programs

def prog_st_to_hp(s: Program) -> Program:
    """Compile ST statements to the translatable hybrid-program fragment."""
    return fold(s, _st_to_hp, ST_STATEMENTS)


def _st_to_hp(s: Program, kids) -> Program:
    cls = s.__class__
    if cls is Assign:
        return Assign(s.target, term_st_to_hp(s.value))
    if cls is Seq:
        return Seq(*kids)
    if cls is IfThen:
        else_ = None if s.else_ is None else kids[1]
        return GuardedChoice(formula_st_to_hp(s.cond), kids[0], else_, complemented=True)
    raise TypeError(f"cannot compile {cls.__name__} to a hybrid program")


def prog_hp_to_st(p: Program) -> tuple[Program, CompileDiagnostics]:
    """Compile a translatable hybrid program to ST statements.

    Default-beta choices resolve to if-then-else by favoring the guarded
    branch; each such linearization is recorded as a warning.
    """
    warnings: list[CompileWarning] = []

    def hp_to_st(p: Program, kids) -> Program:
        cls = p.__class__
        if cls is Assign:
            return Assign(p.target, term_hp_to_st(p.value))
        if cls is Seq:
            return Seq(*kids)
        if cls is not GuardedChoice:
            raise NotNormalForm(f"{cls.__name__} has no ST counterpart", getattr(p, "pos", None))
        if not p.complemented:
            warnings.append(CompileWarning(
                "linearized-choice",
                "default branch of a guarded choice became ELSE; the PLC favors "
                "the guarded branch, losing nondeterminism",
                getattr(p, "pos", None),
            ))
        return IfThen(formula_hp_to_st(p.guard), *kids)

    result = fold(p, hp_to_st, HP_STATEMENTS)
    return result, CompileDiagnostics(tuple(warnings))


# The translatable statements, with the right-hand side of an assignment and
# the guard of a conditional as children, so a fold meets them in source order.
_FACT_CHILDREN = {cls: CHILDREN[cls] for cls in (Assign, Seq, IfThen, GuardedChoice)}


def program_facts(p: Program) -> ProgramFacts:
    """The facts of a translatable program (ST statements included), from one
    fold; TypeError on any other statement. Assignment: FV = vars(rhs), BV =
    MBV = {target}. Sequence: FV(a) united with FV(b) minus MBV(a); BV and MBV
    are unions. Conditionals: the guard's variables are free, BV is the union
    of the branches, MBV the intersection (an absent branch contributes
    nothing). Only a parent reads the sets of its children, so each step grows
    the larger operand in place: Seq and ELSIF chains cost linear set work."""
    read, assigned = {}, {}  # assigned: variable -> only ever assigned 0 or 1

    def combine(n, kids):
        cls = n.__class__
        if cls is Assign:
            ok = n.value.__class__ is Number and n.value.value in (0.0, 1.0)
            assigned[n.target] = assigned.get(n.target, True) and ok
            return kids[0], {n.target}, {n.target}
        if cls is Seq:
            free, bound, must = kids[0]
            for f, b, m in kids[1:]:
                f -= must  # iterates the smaller of the two sets
                free, bound, must = _grow(free, f), _grow(bound, b), _grow(must, m)
            return free, bound, must
        if cls is IfThen or cls is GuardedChoice:
            guard, (ft, bt, mt), (fe, be, me) = (
                kids if len(kids) == 3 else (*kids, (set(), set(), set())))
            return _grow(_grow(guard, ft), fe), _grow(bt, be), mt & me
        if n is p or isinstance(n, Program):
            raise TypeError(f"var_sets is defined on the translatable fragment, not {cls.__name__}")
        found = [v.ident for v in walk(n) if v.__class__ is Var]
        read.update(dict.fromkeys(found))
        return set(found)

    free, bound, must = fold(p, combine, _FACT_CHILDREN)
    return ProgramFacts(VarSets(frozenset(free), frozenset(bound), frozenset(must)), tuple(read),
                        tuple(assigned), frozenset(x for x, ok in assigned.items() if ok))


def _grow(a: set, b: set) -> set:
    if len(a) < len(b):
        a, b = b, a
    a |= b
    return a


# ---------------------------------------------------------------------------
# Node equality, one explicit-stack walk of two trees' fields (copied unchanged
# from `Node.__eq__`)

def node_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    stack = [(self, other)]
    while stack:
        a, b = stack.pop()
        for name in a.FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            if x is y:
                continue
            if isinstance(x, Node):
                if y.__class__ is not x.__class__:
                    return False
                stack.append((x, y))
            elif x.__class__ is y.__class__ is tuple and len(x) == len(y):
                for u, v in zip(x, y):  # a tuple field: its nodes go on the stack too
                    if isinstance(u, Node) and v.__class__ is u.__class__:
                        stack.append((u, v))
                    elif u != v:
                        return False
            elif x != y:
                return False
    return True
