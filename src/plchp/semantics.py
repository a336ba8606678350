"""Executable reference semantics and the differential tester.

`run_st` is the big-step operational interpreter for loop-free ST
statements; `hp_reachable` enumerates the exact denotational reachable set
of a translatable hybrid program (states deduplicated by bit pattern). The
seeded generators produce random terms, formulas, and programs; `difftest`
cross-checks both compilers against both semantics.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

from .dl_syntax import print_dl_term
from .errors import DivisionByZero, DomainError, EvalError
from .ir import (
    ADD, And, Assign, BinOp, BoolConst, Cmp, DIV, EQ, Equiv, Formula, GE, GT,
    GuardedChoice, HP, HP_STATEMENTS, Ident, IfThen, Imply, LE,
    LT, MUL, NE, Neg, Not, Number, Or, POW, Program, RELATIONS, ST, ST_STATEMENTS, SUB,
    Seq, State, Term, Var, Xor, number_lexeme, walk,
)
from .translate import (
    formula_hp_to_st, formula_st_to_hp, prog_hp_to_st, prog_st_to_hp,
    term_hp_to_st, term_st_to_hp,
)


# ---------------------------------------------------------------------------
# Evaluation

def power(left: float, right: float) -> float:
    """`left ** right`, with errors instead of complex or infinite results."""
    try:
        if left < 0.0 and right != int(right):
            raise DomainError("negative base with non-integer exponent")
        if left == 0.0 and right < 0.0:
            raise DivisionByZero("zero base with negative exponent")
        return left ** right
    except OverflowError:
        raise DomainError("power overflow") from None


def divide(left: float, right: float, term: BinOp) -> float:
    """`left / right`, the operands of `term`; division by zero raises."""
    if right == 0.0:
        raise DivisionByZero(f"division by zero in {print_dl_term(term)}")
    return left / right


# What every operator but division computes, keyed by BinOp operator, Cmp
# relation or connective class. The interpreters below and the source that
# `plchp.compiled` emits both read it. The connectives are
# strict functions of two truth values: implication is `<=` on them.
OPERATORS = {
    ADD: operator.add, SUB: operator.sub, MUL: operator.mul, POW: power,
    EQ: operator.eq, NE: operator.ne, GT: operator.gt,
    GE: operator.ge, LT: operator.lt, LE: operator.le,
    And: operator.and_, Or: operator.or_, Imply: operator.le,
    Equiv: operator.eq, Xor: operator.ne,
}


def eval_term(t: Term, s: State) -> float:
    """Recursive evaluation; division by zero and bad powers raise instead
    of producing IEEE special values."""
    if isinstance(t, Number):
        return t.value
    if isinstance(t, Var):
        return s.get(t.ident)
    if isinstance(t, Neg):
        return -eval_term(t.operand, s)
    if isinstance(t, BinOp):
        left = eval_term(t.left, s)
        right = eval_term(t.right, s)
        if t.op == DIV:
            return divide(left, right, t)
        return OPERATORS[t.op](left, right)
    raise TypeError(f"not a term: {type(t).__name__}")


def eval_formula(f: Formula, s: State) -> bool:
    """Classical two-valued evaluation; both dialects' connectives included.
    Strict: errors in any subterm propagate."""
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, Cmp):
        return OPERATORS[f.rel](eval_term(f.left, s), eval_term(f.right, s))
    if isinstance(f, Not):
        return not eval_formula(f.operand, s)
    if f.__class__ in OPERATORS:
        return OPERATORS[f.__class__](eval_formula(f.left, s), eval_formula(f.right, s))
    raise TypeError(f"not a formula: {type(f).__name__}")


# ---------------------------------------------------------------------------
# ST interpreter (big-step, deterministic)

def run_st(p: Program, s: State) -> State:
    """Execute a loop-free ST statement to completion."""
    todo = [p]  # statements still to run, the next one last
    while todo:
        p = todo.pop()
        if isinstance(p, Assign):
            s = s.set(p.target, eval_term(p.value, s))
        elif isinstance(p, Seq):
            todo += p.stmts[::-1]
        elif isinstance(p, IfThen):
            if eval_formula(p.cond, s):
                todo.append(p.then)
            elif p.else_ is not None:
                todo.append(p.else_)
        else:
            raise TypeError(f"run_st executes ST statements, not {type(p).__name__}")
    return s


# ---------------------------------------------------------------------------
# Hybrid-program reachability (exact denotational semantics)

@dataclass(frozen=True)
class ReachSet:
    """Exact reachable set; states deduplicated by bit pattern."""

    states: frozenset[State]

    def __contains__(self, s: State) -> bool:
        return s in self.states

    def __len__(self) -> int:
        return len(self.states)

    def single(self) -> State:
        if len(self.states) != 1:
            raise ValueError(f"reachable set has {len(self.states)} states, not 1")
        return next(iter(self.states))


def hp_reachable(p: Program, s: State) -> ReachSet:
    """All states reachable by a translatable hybrid program from s."""
    return ReachSet(frozenset(_reach(p, s)))


def _reach(p: Program, s: State) -> set[State]:
    if isinstance(p, Assign):
        return {s.set(p.target, eval_term(p.value, s))}
    if isinstance(p, Seq):
        states = {s}
        for stmt in p.stmts:
            after: set[State] = set()
            for mid in states:
                after |= _reach(stmt, mid)
            states = after
        return states
    if not isinstance(p, GuardedChoice):
        raise TypeError(f"hp_reachable executes hybrid programs, not {type(p).__name__}")
    # An ELSIF chain nests in the else branches; follow it in a loop.
    out: set[State] = set()
    while isinstance(p, GuardedChoice):
        if eval_formula(p.guard, s):
            out |= _reach(p.then, s)
            if p.complemented:  # (?g; a) ++ (?!g; b): exactly one branch is open
                return out
        # The else branch is open: the guard failed, or the choice is
        # (?g; a) ++ b, whose default branch is open whatever the guard.
        if p.else_ is None:  # (?g; a) ++ ?!g
            out.add(s)
            return out
        p = p.else_
    out |= _reach(p, s)
    return out


def fully_complemented(p: Program) -> bool:
    """True when every choice is complemented (deterministic program)."""
    return all(
        s.__class__ in (Assign, Seq) or (s.__class__ is GuardedChoice and s.complemented)
        for s in walk(p, HP_STATEMENTS)
    )


# ---------------------------------------------------------------------------
# Random generation

@dataclass(frozen=True)
class GenConfig:
    """Seeded generator configuration. Same seed, same tree."""

    max_depth: int = 5
    var_pool: tuple[Ident, ...] = tuple(Ident(n) for n in "abcdef")
    seed: int = 0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if not self.var_pool:
            raise ValueError("the variable pool must be non-empty")


LITERALS = (0.0, 1.0, 2.0, 0.5, 3.0, 10.0)
# The pool literals as nodes, in the same order, so drawing one is one choice.
_LITERAL_NODES = tuple(Number(number_lexeme(v)) for v in LITERALS)


_MIX = 0x9E3779B97F4A7C15


def derive_seed(base: int, *salts: int) -> int:
    """Deterministic seed mixing for per-trial, per-artifact streams."""
    h = base & 0xFFFFFFFFFFFFFFFF
    for salt in salts:
        h ^= (salt + _MIX + (h << 6) + (h >> 2)) & 0xFFFFFFFFFFFFFFFF
        h &= 0xFFFFFFFFFFFFFFFF
    return h


def _picks(*pairs: tuple[str, float]) -> tuple:
    """A table for `_pick`: the weighted names, and their total weight."""
    return pairs, sum(w for _, w in pairs)


def _pick(rng: random.Random, table: tuple) -> str:
    pairs, total = table
    x = rng.random() * total
    for name, w in pairs:
        x -= w
        if x <= 0:
            return name
    return pairs[-1][0]


def _literal(rng: random.Random) -> Number:
    return rng.choice(_LITERAL_NODES)


def gen_term(cfg: GenConfig) -> Term:
    return _gen_term(random.Random(cfg.seed), cfg, cfg.max_depth)


def _gen_term(rng: random.Random, cfg: GenConfig, depth: int) -> Term:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return Var(rng.choice(cfg.var_pool))
        return _literal(rng)
    if rng.random() < 0.15:
        return Neg(_gen_term(rng, cfg, depth - 1))
    op = rng.choice((ADD, SUB, MUL, DIV, POW))
    return BinOp(op, _gen_term(rng, cfg, depth - 1), _gen_term(rng, cfg, depth - 1))


def gen_formula(cfg: GenConfig, dialect: str = ST) -> Formula:
    """Random formula in the requested dialect (XOR for ST, ->/<-> for HP)."""
    return _gen_formula(random.Random(cfg.seed), cfg, cfg.max_depth, dialect)


_FORMULA_PICKS = _picks(("not", 1.0), ("and", 1.0), ("or", 1.0), ("binary2", 1.0))


def _gen_formula(rng: random.Random, cfg: GenConfig, depth: int, dialect: str) -> Formula:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.1:
            return BoolConst(rng.random() < 0.5)
        rel = rng.choice(RELATIONS)
        return Cmp(rel, _gen_term(rng, cfg, min(depth, 2)), _gen_term(rng, cfg, min(depth, 2)))
    choice = _pick(rng, _FORMULA_PICKS)
    if choice == "not":
        return Not(_gen_formula(rng, cfg, depth - 1, dialect))
    left = _gen_formula(rng, cfg, depth - 1, dialect)
    right = _gen_formula(rng, cfg, depth - 1, dialect)
    if choice == "and":
        return And(left, right)
    if choice == "or":
        return Or(left, right)
    if dialect == ST:
        return Xor(left, right)
    return Imply(left, right) if rng.random() < 0.5 else Equiv(left, right)


def _gen_guard(rng: random.Random, cfg: GenConfig) -> Formula:
    """Guards are comparisons over the variable/literal pools."""
    rel = rng.choice(RELATIONS)
    left = Var(rng.choice(cfg.var_pool))
    if rng.random() < 0.5:
        right: Term = Var(rng.choice(cfg.var_pool))
    else:
        right = _literal(rng)
    return Cmp(rel, left, right)


def _gen_assign(rng: random.Random, cfg: GenConfig, depth: int) -> Assign:
    return Assign(rng.choice(cfg.var_pool), _gen_term(rng, cfg, min(depth, 3)))


def gen_st(cfg: GenConfig) -> Program:
    """Random ST statement covering assignment, sequence, and both ifs."""
    return _gen_st(random.Random(cfg.seed), cfg, cfg.max_depth, allow_seq=True)


def _seq_picks(*weights: tuple[str, float]) -> dict[bool, tuple]:
    """The pick tables with and without "seq", keyed by `allow_seq`."""
    return {allow_seq: _picks(*(p for p in weights if allow_seq or p[0] != "seq"))
            for allow_seq in (False, True)}


_ST_PICKS = _seq_picks(("assign", 1.0), ("seq", 1.6), ("ifthen", 1.0), ("ifthenelse", 1.0))


def _gen_st(rng: random.Random, cfg: GenConfig, depth: int, allow_seq: bool) -> Program:
    if depth <= 1:
        return _gen_assign(rng, cfg, depth)
    choice = _pick(rng, _ST_PICKS[allow_seq])
    if choice == "assign":
        return _gen_assign(rng, cfg, depth)
    if choice == "seq":
        return Seq(
            _gen_st(rng, cfg, depth - 1, allow_seq=False),
            _gen_st(rng, cfg, depth - 1, allow_seq=True),
        )
    cond = _gen_guard(rng, cfg)
    then = _gen_st(rng, cfg, depth - 1, True)
    return IfThen(cond, then, None if choice == "ifthen" else _gen_st(rng, cfg, depth - 1, True))


MAX_CHOICE_NODES = 12  # keeps exact reachability enumeration tractable
_HP_PICKS = _seq_picks(
    ("assign", 1.0), ("seq", 1.6), ("ifelse", 0.8), ("ifthen", 0.8), ("default", 0.8))


def gen_hp(cfg: GenConfig) -> Program:
    """Random translatable hybrid program covering all three conditional
    forms and the default-beta choice; at most MAX_CHOICE_NODES choices."""
    rng = random.Random(cfg.seed)
    budget = [MAX_CHOICE_NODES]
    return _gen_hp(rng, cfg, cfg.max_depth, budget, allow_seq=True)


def _gen_hp(
    rng: random.Random, cfg: GenConfig, depth: int, budget: list[int], allow_seq: bool
) -> Program:
    if depth <= 1:
        return _gen_assign(rng, cfg, depth)
    choice = _pick(rng, _HP_PICKS[allow_seq])
    if choice in ("ifelse", "ifthen", "default") and budget[0] <= 0:
        choice = "assign" if not allow_seq or rng.random() < 0.5 else "seq"
    if choice == "assign":
        return _gen_assign(rng, cfg, depth)
    if choice == "seq":
        return Seq(
            _gen_hp(rng, cfg, depth - 1, budget, allow_seq=False),
            _gen_hp(rng, cfg, depth - 1, budget, allow_seq=True),
        )
    budget[0] -= 1
    guard = _gen_guard(rng, cfg)
    then = _gen_hp(rng, cfg, depth - 1, budget, True)
    if choice == "ifthen":
        return GuardedChoice(guard, then, None, complemented=True)
    else_ = _gen_hp(rng, cfg, depth - 1, budget, True)
    if choice == "ifelse":
        return GuardedChoice(guard, then, else_, complemented=True)
    return GuardedChoice(guard, then, else_, complemented=False)


def gen_state(cfg: GenConfig) -> State:
    """A random state binding every pool variable; values mix pool literals
    (to exercise guard equalities) with uniform draws."""
    rng = random.Random(cfg.seed)
    bindings = {}
    for x in cfg.var_pool:
        if rng.random() < 0.5:
            bindings[x] = rng.choice(LITERALS)
        else:
            bindings[x] = rng.uniform(-10.0, 10.0)
    return State(bindings)


# ---------------------------------------------------------------------------
# Differential testing

@dataclass(frozen=True)
class TrialResult:
    seed: int
    ok: bool
    kind: str = ""  # a | b | c | d on failure
    detail: str = ""


@dataclass(frozen=True)
class DiffReport:
    """Line-oriented report: PASS / FAIL per trial plus a summary line."""

    results: tuple[TrialResult, ...]
    regenerated: int = 0

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def failures(self) -> list[TrialResult]:
        return [r for r in self.results if not r.ok]

    def summary(self) -> str:
        return f"total={self.total} failed={self.failed}"

    def serialize(self) -> str:
        lines = []
        for r in self.results:
            if r.ok:
                lines.append("PASS")
            else:
                lines.append(f"FAIL seed={r.seed} kind={r.kind}")
                for part in r.detail.splitlines():
                    lines.append(f"# {part}")
        lines.append(self.summary())
        return "\n".join(lines) + "\n"


_MAX_REGEN = 100


def difftest(cfg: GenConfig, n: int) -> DiffReport:
    """Run n seeded trials of the four cross-checks:

    (a) the ST run is reachable by the compiled hybrid program;
    (b) the run of the compiled ST program is reachable by the source HP,
        and (d) for fully complemented HPs the reachable set is exactly the
        singleton ST result;
    (c) terms and formulas evaluate bit-exactly equal to their compiled
        counterparts, both directions.

    Trials that hit an evaluation error (division by zero, bad power) are
    regenerated with a derived seed.
    """
    results = []
    regenerated = 0
    for i in range(n):
        attempt = 0
        while True:
            try:
                result = _run_trial(cfg, i, attempt)
                break
            except EvalError:
                attempt += 1
                regenerated += 1
                if attempt > _MAX_REGEN:
                    raise
        results.append(result)
    return DiffReport(tuple(results), regenerated)


def _run_trial(cfg: GenConfig, index: int, attempt: int) -> TrialResult:
    trial_seed = derive_seed(cfg.seed, index, attempt)

    def sub(salt: int) -> GenConfig:
        return GenConfig(cfg.max_depth, cfg.var_pool, derive_seed(trial_seed, salt))

    sigma = gen_state(sub(0))

    # (a) the ST run is reachable by the compiled hybrid program
    st_prog = gen_st(sub(1))
    st_result = run_st(st_prog, sigma)
    compiled_hp = prog_st_to_hp(st_prog)
    if st_result not in hp_reachable(compiled_hp, sigma):
        return TrialResult(trial_seed, False, "a", _describe_program(st_prog, sigma))

    # (b)/(d) the compiled-ST run is reachable by the source program
    hp_prog = gen_hp(sub(2))
    reach = hp_reachable(hp_prog, sigma)
    compiled_st, _ = prog_hp_to_st(hp_prog)
    st_of_hp = run_st(compiled_st, sigma)
    if st_of_hp not in reach:
        return TrialResult(trial_seed, False, "b", _describe_program(hp_prog, sigma))
    if fully_complemented(hp_prog):
        if len(reach) != 1 or reach.single() != st_of_hp:
            return TrialResult(trial_seed, False, "d", _describe_program(hp_prog, sigma))

    # (c) bit-exact term and formula evaluation, both directions
    term = gen_term(sub(3))
    value = eval_term(term, sigma)
    if value != eval_term(term_st_to_hp(term), sigma):
        return TrialResult(trial_seed, False, "c", _describe_program(term, sigma))
    if value != eval_term(term_hp_to_st(term), sigma):
        return TrialResult(trial_seed, False, "c", _describe_program(term, sigma))
    st_formula = gen_formula(sub(4), ST)
    if eval_formula(st_formula, sigma) != eval_formula(formula_st_to_hp(st_formula), sigma):
        return TrialResult(trial_seed, False, "c", _describe_program(st_formula, sigma))
    hp_formula = gen_formula(sub(5), HP)
    if eval_formula(hp_formula, sigma) != eval_formula(formula_hp_to_st(hp_formula), sigma):
        return TrialResult(trial_seed, False, "c", _describe_program(hp_formula, sigma))

    return TrialResult(trial_seed, True)


def _describe_program(node, sigma: State) -> str:
    from .dl_syntax import print_dl
    from .st_syntax import print_st_formula, print_st_statement, print_st_term

    try:
        if isinstance(node, Term):
            text = print_st_term(node)
        elif isinstance(node, Formula):
            text = print_st_formula(node) if node.dialect != HP else print_dl(node)
        elif _is_st_only(node):
            text = print_st_statement(node)
        else:
            text = print_dl(node)
    except Exception:  # printing must never mask the actual failure
        text = repr(node)
    return f"program: {text}\nstate: {sigma!r}"


def _is_st_only(p) -> bool:
    return any(s.__class__ is IfThen for s in walk(p, ST_STATEMENTS))
