"""The expression folds against recursive reference copies.

The printer (`_syntax.render_term`/`render_formula`) and the closure
compiler (`compiled.compile_term`/`compile_formula`) are folds over the IR.
Each is held here to a test-local copy of its plain recursive form, over
the difftest generators at depths 1 to 5: the printer by text, the closures
by `float.hex` value or by error class and message, and by the slot layout
they build. `ir.same` is held to the generated `==`.
"""

import operator
import random

import pytest

from plchp._syntax import RIGHT, render_formula, render_term
from plchp.compiled import MAX_DEPTH, Layout, compile_formula, compile_term, read
from plchp.dl_syntax import DL, print_dl_term
from plchp.errors import DivisionByZero, EvalError, PlchpError
from plchp.ir import (
    ADD, DIV, EQ, GE, GT, HP, LE, LT, MUL, NE, ST, SUB, And, BinOp,
    BoolConst, Cmp, Equiv, Ident, Imply, Neg, Not, Number, Or, State, Var,
    same,
)
from plchp.semantics import (
    GenConfig, gen_formula, gen_state, gen_term, power,
)
from plchp.st_syntax import ST as ST_SYNTAX

SEEDS = range(500)
DIALECTS = {ST: ST_SYNTAX, HP: DL}


def config(seed: int) -> GenConfig:
    return GenConfig(max_depth=1 + seed % 5, seed=seed)


# ---------------------------------------------------------------------------
# Reference copies: the recursive printer and compiler, as the package had them


def ref_render(node, d, min_level):
    if isinstance(node, Number):
        return node.lexeme
    if isinstance(node, Var):
        return node.ident.name
    if isinstance(node, BoolConst):
        return d.bools[node.value]
    if isinstance(node, Not):
        return f"{d.not_op}({ref_render(node.operand, d, 0)})"
    if isinstance(node, Neg):
        return ref_wrap("-" + ref_render(node.operand, d, d.neg_level), d.neg_level, min_level)
    if isinstance(node, BinOp):
        key = node.op
    elif isinstance(node, Cmp):
        key = node.rel
    else:
        key = type(node)
    if key not in d.infix:
        raise TypeError(f"cannot print {type(node).__name__} in {d.name} syntax")
    text, level, assoc = d.infix[key]
    right_assoc = assoc == RIGHT
    text = (ref_render(node.left, d, level + right_assoc) + text
            + ref_render(node.right, d, level + (not right_assoc)))
    return ref_wrap(text, level, min_level)


def ref_wrap(text, level, min_level):
    return "(" + text + ")" if level < min_level else text


REF_ARITHMETIC = {ADD: operator.add, SUB: operator.sub, MUL: operator.mul}
REF_RELATIONS = {
    EQ: operator.eq, NE: operator.ne, GT: operator.gt,
    GE: operator.ge, LT: operator.lt, LE: operator.le,
}


def ref_compile_term(t, layout):
    if isinstance(t, Number):
        value = t.value
        return lambda v: value
    if isinstance(t, Var):
        name = t.ident
        i = layout.slot(name)
        return lambda v: read(v, i, name)
    if isinstance(t, Neg):
        f = ref_compile_term(t.operand, layout)
        return lambda v: -f(v)
    if t.op in REF_ARITHMETIC:
        return ref_binary(REF_ARITHMETIC[t.op], t.left, t.right, layout)
    f = ref_compile_term(t.left, layout)
    g = ref_compile_term(t.right, layout)
    if t.op == DIV:
        def div(v):
            left = f(v)
            right = g(v)
            if right == 0.0:
                raise DivisionByZero(f"division by zero in {print_dl_term(t)}")
            return left / right
        return div
    return lambda v: power(f(v), g(v))


def ref_binary(op, left, right, layout):
    if isinstance(left, Var) and isinstance(right, Var):
        i, j = layout.slot(left.ident), layout.slot(right.ident)
        return lambda v: op(read(v, i, left.ident), read(v, j, right.ident))
    if isinstance(left, Var) and isinstance(right, Number):
        i, b = layout.slot(left.ident), right.value
        return lambda v: op(read(v, i, left.ident), b)
    if isinstance(left, Number) and isinstance(right, Var):
        a, j = left.value, layout.slot(right.ident)
        return lambda v: op(a, read(v, j, right.ident))
    f = ref_compile_term(left, layout)
    if isinstance(right, Var):
        j = layout.slot(right.ident)

        def term_var(v):
            a = f(v)
            return op(a, read(v, j, right.ident))
        return term_var
    g = ref_compile_term(right, layout)
    return lambda v: op(f(v), g(v))


def ref_compile_formula(f, layout):
    if isinstance(f, BoolConst):
        value = f.value
        return lambda v: value
    if isinstance(f, Cmp):
        return ref_binary(REF_RELATIONS[f.rel], f.left, f.right, layout)
    if isinstance(f, Not):
        a = ref_compile_formula(f.operand, layout)
        return lambda v: not a(v)
    a = ref_compile_formula(f.left, layout)
    b = ref_compile_formula(f.right, layout)

    def strict(v):
        left = a(v)
        right = b(v)
        if isinstance(f, And):
            return left and right
        if isinstance(f, Or):
            return left or right
        if isinstance(f, Imply):
            return (not left) or right
        if isinstance(f, Equiv):
            return left == right
        return left != right
    return strict


# ---------------------------------------------------------------------------
# Printer


def printed(render, f, d):
    """The text, or TypeError for a connective `d` lacks. Only the class
    is compared: the recursion names the first such node it enters, the
    fold the first it combines."""
    try:
        return render(f, d, 0)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("dialect", [ST, HP])
def test_printer_matches_reference(dialect):
    own = DIALECTS[dialect]
    for seed in SEEDS:
        cfg = config(seed)
        t = gen_term(cfg)
        f = gen_formula(cfg, dialect)
        for d in DIALECTS.values():
            assert render_term(t, d) == ref_render(t, d, 0), (seed, t)
            assert printed(render_formula, f, d) == printed(ref_render, f, d), (seed, f)
        for level in range(own.neg_level + 2):
            assert render_formula(f, own, level) == ref_render(f, own, level), (seed, f, level)


# ---------------------------------------------------------------------------
# Closures


def outcome(run):
    try:
        value = run()
    except EvalError as exc:
        return type(exc), str(exc)
    return value.hex() if isinstance(value, float) else value


def compiled_outcomes(compile_new, compile_ref, tree, s):
    new_layout, ref_layout = Layout(), Layout()
    new = compile_new(tree, new_layout)
    ref = compile_ref(tree, ref_layout)
    assert new_layout.names == ref_layout.names
    return outcome(lambda: new(new_layout.load(s))), outcome(lambda: ref(ref_layout.load(s)))


def states(seed):
    full = gen_state(GenConfig(seed=seed))
    rng = random.Random(seed)
    return full, State({x: value for x, value in full.items() if rng.random() < 0.7})


@pytest.mark.parametrize("kind", ["term", ST, HP])
def test_closures_match_reference(kind):
    outcomes = set()
    for seed in SEEDS:
        cfg = GenConfig(max_depth=5, seed=seed)
        if kind == "term":
            tree, new, ref = gen_term(cfg), compile_term, ref_compile_term
        else:
            tree, new, ref = gen_formula(cfg, kind), compile_formula, ref_compile_formula
        for s in states(seed):
            got, want = compiled_outcomes(new, ref, tree, s)
            assert got == want, (seed, tree, s)
            outcomes.add(want[0] if isinstance(want, tuple) else "value")
    assert "value" in outcomes and len(outcomes) >= 3


def sum_of(height):
    """`u + u + ... + u`, left-nested, `height` nodes from root to leaf."""
    t = Var(Ident("u"))
    for _ in range(height - 1):
        t = BinOp(ADD, t, Var(Ident("u")))
    return t


def test_closures_run_up_to_the_depth_bound():
    u = Ident("u")
    layout = Layout([u])
    assert compile_term(sum_of(MAX_DEPTH), layout)([1.0]) == MAX_DEPTH
    # The error message prints the whole division, one level at a time.
    at_zero = compile_formula(Cmp(GT, BinOp(DIV, sum_of(MAX_DEPTH - 2), Number("0")),
                                  Number("0")), layout)
    with pytest.raises(DivisionByZero, match="division by zero in"):
        at_zero([1.0])
    for too_deep in (sum_of(MAX_DEPTH + 1), sum_of(10_000)):
        with pytest.raises(PlchpError, match="expression nested too deeply"):
            compile_term(too_deep, layout)
    guard = Cmp(GT, Var(u), Number("0"))
    for _ in range(10_000):
        guard = And(guard, Cmp(GT, Var(u), Number("0")))
    with pytest.raises(PlchpError):
        compile_formula(guard, layout)


# ---------------------------------------------------------------------------
# Structural equality


def test_same_matches_generated_equality():
    for seed in SEEDS:
        cfg, other = config(seed), config(seed + 1)
        pairs = [
            (gen_term(cfg), gen_term(cfg)),
            (gen_term(cfg), gen_term(other)),
            (Neg(gen_term(cfg)), gen_term(cfg)),
            (gen_formula(cfg, ST), gen_formula(cfg, ST)),
            (gen_formula(cfg, ST), gen_formula(other, ST)),
            (gen_formula(cfg, HP), gen_formula(other, HP)),
            (gen_formula(cfg, HP), Not(gen_formula(cfg, HP))),
        ]
        for a, b in pairs:
            assert same(a, b) == (a == b), (seed, a, b)


def test_same_on_a_long_chain():
    left = right = Cmp(GT, Var(Ident("u")), Number("0"))
    for i in range(10_000):
        left = And(left, Cmp(GT, Var(Ident("u")), Number(str(i))))
        right = And(right, Cmp(GT, Var(Ident("u")), Number(str(i))))
    assert same(left, right)
    assert not same(left, And(right.left, Cmp(GE, Var(Ident("u")), Number("9999"))))
