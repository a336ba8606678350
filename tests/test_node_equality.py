"""`==`, `!=` and `hash` of IR trees, held to the walker they replaced.

`Node.__eq__` and `Node.__hash__` read one pre-order flattening of a tree's
fields. On every pair below, `==` and `!=` must give what `oracle.node_eq`,
the explicit-stack equality walker that came before, gives, and equal trees
must hash equal. The trees: generated programs, formulas and terms of both
dialects and their translations, the parsed tank files and the
900-statement controller of the benchmark. Each is paired with a copy built
anew, with its statements at other positions, with its neighbour in the
list, and with mutants that differ in one place: one lexeme, `AND` and
`OR` swapped, a `Seq` one statement shorter, `complemented` flipped, or
`else_` dropped.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import golden
import oracle
from plchp.analysis import validate_scan_cycle_form
from plchp.dl_syntax import parse_dl_model, parse_dl_program
from plchp.ir import (
    GT, HP, ST, And, Assign, Cmp, GuardedChoice, Ident, IfThen, Number, Or, Program, Seq, Var,
    list_to_seq, walk,
)
from plchp.semantics import GenConfig, gen_formula, gen_hp, gen_st, gen_term
from plchp.st_syntax import parse_st
from plchp.translate import formula_hp_to_st, formula_st_to_hp, prog_hp_to_st, prog_st_to_hp

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
SEEDS = range(300)


def rebuild(node, edit=lambda n: None, pos=None):
    """`node` built anew from its fields, with `edit(n)` in place of each
    node n for which that is not None; every statement gets `pos` if it is
    given. Interned leaves come back as themselves."""
    new = edit(node)
    if new is not None:
        return new
    if node.interned is not None:
        return node
    cls, args, *state = node.__reduce__()
    args = [_rebuild_value(a, edit, pos) for a in args]
    if cls is Seq or not isinstance(node, Program):
        return cls(*args)
    return cls(*args, pos=state[0] if pos is None else pos)


def _rebuild_value(value, edit, pos):
    if value.__class__ is tuple:
        return tuple(_rebuild_value(v, edit, pos) for v in value)
    return rebuild(value, edit, pos) if hasattr(value, "FIELDS") else value


def nth(match, k, replace):
    """An edit for `rebuild`: `replace(n)` in place of the k-th node n, in
    pre-order, for which `match(n)` holds, counted from 0."""
    seen = [0]

    def edit(n):
        if not match(n):
            return None
        seen[0] += 1
        return replace(n) if seen[0] == k + 1 else None
    return edit


def _other_lexeme(n):
    if n.__class__ is Number:
        return Number(n.lexeme + "0")  # "1.5" -> "1.50": the same value, another lexeme
    return Var(Ident(n.ident.name + "_"))


def _with_else(n, else_, complemented):
    if n.__class__ is IfThen:
        return IfThen(n.cond, n.then, else_, pos=n.pos)
    return GuardedChoice(n.guard, n.then, else_, complemented, pos=n.pos)


# Each mutation: the nodes it may change, and the changed node.
MUTATIONS = {
    "lexeme": (lambda n: n.__class__ in (Number, Var), _other_lexeme),
    "AND for OR": (lambda n: n.__class__ in (And, Or),
                   lambda n: (Or if n.__class__ is And else And)(n.left, n.right)),
    "shorter Seq": (lambda n: n.__class__ is Seq, lambda n: list_to_seq(n.stmts[:-1])),
    "complemented": (lambda n: n.__class__ is GuardedChoice and n.else_ is not None,
                     lambda n: _with_else(n, n.else_, not n.complemented)),
    "else_ dropped": (lambda n: n.__class__ in (IfThen, GuardedChoice) and n.else_ is not None,
                      lambda n: _with_else(n, None, True)),
}


def mutants(tree, rng):
    """Each mutation of `tree` at a random one of the nodes it may change."""
    nodes = list(walk(tree))
    for name, (match, replace) in MUTATIONS.items():
        count = sum(map(match, nodes))
        if count:
            yield name, rebuild(tree, nth(match, rng.randrange(count), replace))


def check(a, b):
    """`==`, `!=` and `hash` on `a` and `b`, both ways round, against the
    walker; whether the walker found them equal."""
    expected = oracle.node_eq(a, b)
    expected = expected is not NotImplemented and expected
    assert (a == b) is expected and (b == a) is expected, (a, b)
    assert (a != b) is (not expected) and (b != a) is (not expected), (a, b)
    if expected:
        assert hash(a) == hash(b), (a, b)
    return expected


def check_tree(tree, neighbour, rng):
    """`tree` against a copy, a moved copy, `neighbour` and its mutants."""
    assert check(tree, tree)
    assert check(tree, rebuild(tree))
    assert check(tree, rebuild(tree, pos=(999, 1)))
    check(tree, neighbour)
    changed = set()
    for name, mutant in mutants(tree, rng):
        equal = check(tree, mutant)
        if not equal:
            changed.add(name)
    return changed


def generated():
    """Per seed: generated ST and HP programs, formulas of both dialects,
    terms, and their translations."""
    for seed in SEEDS:
        cfg = GenConfig(max_depth=1 + seed % 5, seed=seed)
        st, hp = gen_st(cfg), gen_hp(cfg)
        f_st, f_hp = gen_formula(cfg, ST), gen_formula(cfg, HP)
        yield [st, hp, f_st, f_hp, gen_term(cfg), prog_st_to_hp(st), prog_hp_to_st(hp)[0],
               formula_st_to_hp(f_st), formula_hp_to_st(f_hp)]


def test_generated_trees_compare_and_hash_as_the_walker_does():
    rng = random.Random(0)
    changed = set()
    previous = None
    for trees in generated():
        for i, tree in enumerate(trees):
            # The neighbour: the same kind of tree from the previous seed.
            changed |= check_tree(tree, tree if previous is None else previous[i], rng)
        previous = trees
    # Every mutation made some pair unequal.
    assert changed == set(MUTATIONS)


@pytest.fixture(scope="module")
def files_and_controller():
    """The tank's ST body, plant and both models' trees, the 900-statement
    controller's ST body and its HP translation."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    trees = [parse_st((golden.DATA / "watertank_original.st").read_text()).body,
             parse_dl_program((golden.DATA / "watertank_plant.dlhp").read_text())]
    for name in ("watertank_original_model.dlhp", "watertank_safe_model.dlhp"):
        text = (golden.DATA / name).read_text()
        m = validate_scan_cycle_form(parse_dl_model(text))
        trees += [parse_dl_model(text).body, m.ctrl, m.assumptions, m.safety]
    body = parse_st(inputs.st_controller(random.Random(1), 900)[0]).body
    return trees + [body, prog_st_to_hp(body)]


def test_files_and_the_900_statement_controller_compare_and_hash_as_the_walker_does(
        files_and_controller):
    rng = random.Random(1)
    trees = files_and_controller
    changed = set()
    for i, tree in enumerate(trees):
        changed |= check_tree(tree, trees[i - 1], rng)
        # Each mutation also at the first and the last node it can change.
        nodes = list(walk(tree))
        for match, replace in MUTATIONS.values():
            count = sum(map(match, nodes))
            for k in {0, count - 1} if count else ():
                check(tree, rebuild(tree, nth(match, k, replace)))
    assert changed == set(MUTATIONS)


def test_statements_regrouped_around_a_conditional_differ():
    # Their flattenings differ only in the lengths of the two statement tuples.
    a, b, c, d, e = (Assign(Ident(name), Number("1")) for name in "abcde")
    g = Cmp(GT, Var(Ident("x")), Number("0"))
    assert not check(Seq(IfThen(g, Seq(a, b), c), d, e), Seq(IfThen(g, Seq(a, b, c), d), e))
