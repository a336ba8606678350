"""The static-semantics oracle: a generator of programs on which the FV/BV
rules are behaviorally exact, a brute-force FV/BV computed from
`hp_reachable` over a grid of states, and a count of guarded choices.
Criterion 6 and the generator and walker tests use them; no command does.
"""

from __future__ import annotations

import random
from typing import Optional

from plchp.ir import (
    ADD, Assign, BinOp, Cmp, GE, GT, GuardedChoice, HP_STATEMENTS, Ident, LE,
    LT, Number, Program, State, Term, Var, list_to_seq, number_lexeme, walk,
)
from plchp.semantics import GenConfig, ReachSet, hp_reachable


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
