"""The IR walkers against recursive reference copies.

Each walker the package has (free/bound variables, I/O classification,
controller checks, the translators, the statement printers, the
interpreters' statement handling, the affinity check) is held here to a
test-local copy of its plain recursive form. Inputs are the difftest
generators at depths 1 to 5, the bundled data files, and generated
controllers with out-of-fragment nodes planted in them. Results must be
equal, warnings must come in the same order, and where the reference
raises, the same error class must be raised with the same message and
position.
"""

import random
from pathlib import Path

import pytest

from plchp import analysis, dl_syntax, semantics, sim, st_syntax, translate
from plchp.dl_syntax import parse_dl_model, parse_dl_program
from plchp.errors import DialectError, NotNormalForm, ParseError
from plchp.ir import (
    ADD, HP, ST, And, Assign, BinOp, BoolConst, Choice, Cmp, DIV, Equiv,
    GuardedChoice, Ident, IfThen, Imply, Loop, MUL, Neg, Not,
    Number, OdeSystem, Or, POW, PlantSpec, RandomAssign, SUB, ScanCycleModel, Seq,
    TRUE, TestStmt, Var, Xor, collect_vars, program_facts, seq_to_list,
)
from plchp.semantics import (
    GenConfig, gen_formula, gen_hp, gen_st, gen_state, gen_term,
)
from oracle import count_choices, gen_transparent_hp
from plchp.st_syntax import parse_st, parse_st_statements

SEEDS = range(500)
DATA = Path(__file__).parent / "data"
GENERATORS = {"st": gen_st, "hp": gen_hp, "transparent": gen_transparent_hp}


def config(seed: int) -> GenConfig:
    return GenConfig(max_depth=1 + seed % 5, seed=seed)


def outcome(fn, *args):
    """What `fn(*args)` returns, or the class, message and position of
    what it raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the reference decides which errors are expected
        where = (getattr(exc, "location", None), getattr(exc, "line", None),
                 getattr(exc, "col", None))
        return "raised", type(exc), str(exc), where


# ---------------------------------------------------------------------------
# Reference copies: the recursive walkers, as the package had them


def ref_collect(node, out):
    if isinstance(node, Number) or isinstance(node, BoolConst):
        return
    if isinstance(node, Var):
        out.add(node.ident)
    elif isinstance(node, Neg):
        ref_collect(node.operand, out)
    elif isinstance(node, (BinOp, Cmp, And, Or, Imply, Equiv, Xor)):
        ref_collect(node.left, out)
        ref_collect(node.right, out)
    elif isinstance(node, Not):
        ref_collect(node.operand, out)
    elif isinstance(node, Assign):
        out.add(node.target)
        ref_collect(node.value, out)
    elif isinstance(node, Seq):
        for stmt in node.stmts:
            ref_collect(stmt, out)
    elif isinstance(node, IfThen):
        ref_collect(node.cond, out)
        ref_collect(node.then, out)
        if node.else_ is not None:
            ref_collect(node.else_, out)
    elif isinstance(node, GuardedChoice):
        ref_collect(node.guard, out)
        ref_collect(node.then, out)
        if node.else_ is not None:
            ref_collect(node.else_, out)
    elif isinstance(node, RandomAssign):
        out.add(node.target)
    elif isinstance(node, TestStmt):
        ref_collect(node.cond, out)
    elif isinstance(node, OdeSystem):
        for x, rhs in node.odes:
            out.add(x)
            ref_collect(rhs, out)
        ref_collect(node.domain, out)
    elif isinstance(node, Loop):
        ref_collect(node.body, out)
    elif isinstance(node, Choice):
        ref_collect(node.left, out)
        ref_collect(node.right, out)
    else:
        raise TypeError(f"cannot collect variables from {type(node).__name__}")


def ref_collect_vars(node):
    out = set()
    ref_collect(node, out)
    return out


def ref_var_sets(p):
    VarSets = analysis.VarSets
    if isinstance(p, Assign):
        target = frozenset((p.target,))
        return VarSets(frozenset(ref_collect_vars(p.value)), target, target)
    if isinstance(p, Seq):
        first = ref_var_sets(p.stmts[0])
        for stmt in p.stmts[1:]:
            second = ref_var_sets(stmt)
            first = VarSets(
                first.free | (second.free - first.must_bound),
                first.bound | second.bound,
                first.must_bound | second.must_bound,
            )
        return first
    if isinstance(p, (GuardedChoice, IfThen)):
        if isinstance(p, GuardedChoice):
            guard, then, else_ = p.guard, p.then, p.else_
        else:
            guard, then, else_ = p.cond, p.then, p.else_
        t = ref_var_sets(then)
        e = ref_var_sets(else_) if else_ is not None else VarSets(frozenset(), frozenset(), frozenset())
        return VarSets(
            frozenset(ref_collect_vars(guard)) | t.free | e.free,
            t.bound | e.bound,
            t.must_bound & e.must_bound,
        )
    raise TypeError(f"var_sets is defined on the translatable fragment, not {type(p).__name__}")


def ref_read_order(p):
    if isinstance(p, Assign):
        return ref_term_vars(p.value)
    if isinstance(p, Seq):
        return [x for stmt in p.stmts for x in ref_read_order(stmt)]
    if isinstance(p, (GuardedChoice, IfThen)):
        guard = p.guard if isinstance(p, GuardedChoice) else p.cond
        out = ref_formula_vars(guard) + ref_read_order(p.then)
        else_ = p.else_
        if else_ is not None:
            out += ref_read_order(else_)
        return out
    raise TypeError(f"not in the translatable fragment: {type(p).__name__}")


def ref_bound_order(p):
    if isinstance(p, Assign):
        return [p.target]
    if isinstance(p, Seq):
        return [x for stmt in p.stmts for x in ref_bound_order(stmt)]
    if isinstance(p, (GuardedChoice, IfThen)):
        out = ref_bound_order(p.then)
        else_ = p.else_
        if else_ is not None:
            out += ref_bound_order(else_)
        return out
    raise TypeError(f"not in the translatable fragment: {type(p).__name__}")


def ref_term_vars(t):
    if isinstance(t, Var):
        return [t.ident]
    if isinstance(t, Neg):
        return ref_term_vars(t.operand)
    if isinstance(t, BinOp):
        return ref_term_vars(t.left) + ref_term_vars(t.right)
    return []


def ref_formula_vars(f):
    if isinstance(f, Cmp):
        return ref_term_vars(f.left) + ref_term_vars(f.right)
    if isinstance(f, Not):
        return ref_formula_vars(f.operand)
    if hasattr(f, "left") and hasattr(f, "right"):
        return ref_formula_vars(f.left) + ref_formula_vars(f.right)
    return []


def first_seen(items):
    out, seen = [], set()
    for x in items:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return tuple(out)


def ref_classify_io(ctrl, declared_inputs, plant):
    vs = ref_var_sets(ctrl)
    outputs = first_seen(x for x in ref_bound_order(ctrl) if x in vs.bound)
    plant_states = [x for x in plant.state_vars() if x in vs.free]
    candidates = plant_states + [x for x in declared_inputs if x not in plant_states]
    warnings = tuple(
        f"variable {x} is both an input and an output; declared VAR_OUTPUT"
        for x in candidates
        if x in vs.bound
    )
    inputs = tuple(x for x in first_seen(candidates) if x not in vs.bound)
    free_order = first_seen(x for x in ref_read_order(ctrl) if x in vs.free)
    params = tuple(
        x for x in free_order
        if x not in inputs and x not in vs.bound and x != plant.clock
    )
    return analysis.IoClassification(inputs, outputs, params, warnings)


def ref_check_ctrl(p):
    pos = getattr(p, "pos", None)
    if isinstance(p, Assign):
        return
    if isinstance(p, Seq):
        for stmt in p.stmts:
            ref_check_ctrl(stmt)
        return
    if isinstance(p, GuardedChoice):
        ref_check_ctrl(p.then)
        if p.else_ is not None:
            ref_check_ctrl(p.else_)
        return
    if isinstance(p, TestStmt):
        raise NotNormalForm("test outside guarded choice", pos)
    if isinstance(p, RandomAssign):
        raise NotNormalForm("nondeterministic assignment outside the input section", pos)
    if isinstance(p, OdeSystem):
        raise NotNormalForm("ODE outside plant", pos)
    if isinstance(p, Loop):
        raise NotNormalForm("nested loop", pos)
    if isinstance(p, Choice):
        raise NotNormalForm("choice without a guarded first branch", pos)
    raise NotNormalForm(f"unsupported program construct {type(p).__name__}", pos)


def ref_fully_complemented(p):
    if isinstance(p, Assign):
        return True
    if isinstance(p, Seq):
        return all(ref_fully_complemented(stmt) for stmt in p.stmts)
    if isinstance(p, GuardedChoice):
        if not p.complemented:
            return False
        if not ref_fully_complemented(p.then):
            return False
        return p.else_ is None or ref_fully_complemented(p.else_)
    return False


def ref_count_choices(p):
    if isinstance(p, Seq):
        return sum(ref_count_choices(stmt) for stmt in p.stmts)
    if isinstance(p, GuardedChoice):
        inner = ref_count_choices(p.then)
        if p.else_ is not None:
            inner += ref_count_choices(p.else_)
        return 1 + inner
    return 0


def ref_is_st_only(p):
    if isinstance(p, IfThen):
        return True
    if isinstance(p, Seq):
        return any(ref_is_st_only(stmt) for stmt in p.stmts)
    return False


def ref_f_st_to_hp(f):
    if isinstance(f, BoolConst):
        return f
    if isinstance(f, Cmp):
        return Cmp(f.rel, f.left, f.right)
    if isinstance(f, Not):
        return Not(ref_f_st_to_hp(f.operand))
    if isinstance(f, And):
        return And(ref_f_st_to_hp(f.left), ref_f_st_to_hp(f.right))
    if isinstance(f, Or):
        return Or(ref_f_st_to_hp(f.left), ref_f_st_to_hp(f.right))
    if isinstance(f, Xor):
        left = ref_f_st_to_hp(f.left)
        right = ref_f_st_to_hp(f.right)
        return Or(And(Not(left), right), And(Not(right), left))
    raise DialectError(f"{type(f).__name__} is not an ST formula")


def ref_f_hp_to_st(f):
    if isinstance(f, BoolConst):
        return f
    if isinstance(f, Cmp):
        return Cmp(f.rel, f.left, f.right)
    if isinstance(f, Not):
        return Not(ref_f_hp_to_st(f.operand))
    if isinstance(f, And):
        return And(ref_f_hp_to_st(f.left), ref_f_hp_to_st(f.right))
    if isinstance(f, Or):
        return Or(ref_f_hp_to_st(f.left), ref_f_hp_to_st(f.right))
    if isinstance(f, Imply):
        return Or(Not(ref_f_hp_to_st(f.left)), ref_f_hp_to_st(f.right))
    if isinstance(f, Equiv):
        left = ref_f_hp_to_st(f.left)
        right = ref_f_hp_to_st(f.right)
        return Or(And(Not(left), Not(right)), And(left, right))
    raise DialectError(f"{type(f).__name__} is not an HP formula")


def ref_prog_st_to_hp(s):
    f = ref_f_st_to_hp
    if isinstance(s, Assign):
        return Assign(s.target, s.value)
    if isinstance(s, Seq):
        return Seq(*map(ref_prog_st_to_hp, s.stmts))
    if isinstance(s, IfThen):
        return GuardedChoice(f(s.cond), ref_prog_st_to_hp(s.then),
                             None if s.else_ is None else ref_prog_st_to_hp(s.else_),
                             complemented=True)
    raise TypeError(f"cannot compile {type(s).__name__} to a hybrid program")


def ref_p_hp_to_st(p, warnings):
    if isinstance(p, Assign):
        return Assign(p.target, p.value)
    if isinstance(p, Seq):
        return Seq(*(ref_p_hp_to_st(stmt, warnings) for stmt in p.stmts))
    if isinstance(p, GuardedChoice):
        cond = ref_f_hp_to_st(p.guard)
        then = ref_p_hp_to_st(p.then, warnings)
        if p.else_ is None:
            return IfThen(cond, then)
        else_ = ref_p_hp_to_st(p.else_, warnings)
        if not p.complemented:
            warnings.append(translate.CompileWarning(
                "linearized-choice",
                "default branch of a guarded choice became ELSE; the PLC favors "
                "the guarded branch, losing nondeterminism",
                getattr(p, "pos", None),
            ))
        return IfThen(cond, then, else_)
    raise NotNormalForm(f"{type(p).__name__} has no ST counterpart", getattr(p, "pos", None))


def ref_prog_hp_to_st(p):
    warnings = []
    result = ref_p_hp_to_st(p, warnings)
    return result, translate.CompileDiagnostics(tuple(warnings))


def ref_zero_one_outputs(ctrl):
    assigned = {}

    def visit(p):
        if isinstance(p, Assign):
            ok = isinstance(p.value, Number) and p.value.value in (0.0, 1.0)
            assigned[p.target] = assigned.get(p.target, True) and ok
        elif isinstance(p, Seq):
            for stmt in p.stmts:
                visit(stmt)
        elif isinstance(p, GuardedChoice):
            visit(p.then)
            if p.else_ is not None:
                visit(p.else_)

    visit(ctrl)
    return {x for x, ok in assigned.items() if ok}


def ref_stmt_lines(p, indent):
    term, formula = st_syntax.print_st_term, st_syntax.print_st_formula
    pad = "  " * indent
    lines = []
    for stmt in seq_to_list(p):
        if isinstance(stmt, Assign):
            lines.append(f"{pad}{stmt.target} := {term(stmt.value)};")
        elif isinstance(stmt, IfThen):
            lines.append(f"{pad}IF ({formula(stmt.cond)}) THEN")
            lines.extend(ref_stmt_lines(stmt.then, indent + 1))
            if stmt.else_ is not None:
                lines.append(f"{pad}ELSE")
                lines.extend(ref_stmt_lines(stmt.else_, indent + 1))
            lines.append(f"{pad}END_IF;")
        else:
            raise TypeError(f"cannot print {type(stmt).__name__} as an ST statement")
    return lines


def ref_print_st_statement(p, indent=0):
    return "\n".join(ref_stmt_lines(p, indent))


def ref_fold_if(arms, else_body, pos):
    cond, body = arms[0]
    if len(arms) == 1:
        return IfThen(cond, body, else_body, pos=pos)
    return IfThen(cond, body, ref_fold_if(arms[1:], else_body, pos), pos=pos)


def ref_inline(p):
    return " ".join(ref_stmt_str(s) for s in seq_to_list(p))


def ref_stmt_str(s):
    term, formula = dl_syntax.print_dl_term, dl_syntax.print_dl_formula
    if isinstance(s, Assign):
        return f"{s.target}:={term(s.value)};"
    if isinstance(s, RandomAssign):
        return f"{s.target}:=*;"
    if isinstance(s, TestStmt):
        return f"?{formula(s.cond)};"
    if isinstance(s, GuardedChoice):
        left = f"{{?{formula(s.guard)}; {ref_inline(s.then)}}}"
        if s.complemented:
            neg = formula(Not(s.guard))
            if s.else_ is None:
                return f"{left} ++ {{?{neg};}}"
            return f"{left} ++ {{?{neg}; {ref_inline(s.else_)}}}"
        return f"{left} ++ {{{ref_inline(s.else_)}}}"
    if isinstance(s, Choice):
        return f"{{{ref_inline(s.left)}}} ++ {{{ref_inline(s.right)}}}"
    if isinstance(s, OdeSystem):
        odes = ", ".join(f"{x}'={term(rhs)}" for x, rhs in s.odes)
        if s.domain == BoolConst(True):
            return f"{{{odes}}}"
        return f"{{{odes} & {formula(s.domain)}}}"
    if isinstance(s, Loop):
        return f"{{{ref_inline(s.body)}}}*"
    raise TypeError(f"cannot print {type(s).__name__} in dL syntax")


def ref_print_dl_program(p):
    return "\n".join(ref_stmt_str(s) for s in seq_to_list(p))


def ref_is_affine_term(t, evolving):
    if isinstance(t, (Number, Var)):
        return True
    if isinstance(t, Neg):
        return ref_is_affine_term(t.operand, evolving)
    if isinstance(t, BinOp):
        if t.op in (ADD, SUB):
            return ref_is_affine_term(t.left, evolving) and ref_is_affine_term(t.right, evolving)
        if t.op == MUL:
            left_has = bool(ref_collect_vars(t.left) & evolving)
            right_has = bool(ref_collect_vars(t.right) & evolving)
            if left_has and right_has:
                return False
            return ref_is_affine_term(t.left, evolving) and ref_is_affine_term(t.right, evolving)
        if t.op == DIV:
            if ref_collect_vars(t.right) & evolving:
                return False
            return ref_is_affine_term(t.left, evolving)
        if t.op == POW:
            return not (ref_collect_vars(t) & evolving)
    return False


def ref_run_st(p, s):
    eval_term, eval_formula = semantics.eval_term, semantics.eval_formula
    if isinstance(p, Assign):
        return s.set(p.target, eval_term(p.value, s))
    if isinstance(p, Seq):
        for stmt in p.stmts:
            s = ref_run_st(stmt, s)
        return s
    if isinstance(p, IfThen):
        if eval_formula(p.cond, s):
            return ref_run_st(p.then, s)
        return s if p.else_ is None else ref_run_st(p.else_, s)
    raise TypeError(f"run_st executes ST statements, not {type(p).__name__}")


def ref_reach(p, s):
    eval_term, eval_formula = semantics.eval_term, semantics.eval_formula
    if isinstance(p, Assign):
        return {s.set(p.target, eval_term(p.value, s))}
    if isinstance(p, Seq):
        states = {s}
        for stmt in p.stmts:
            out = set()
            for mid in states:
                out |= ref_reach(stmt, mid)
            states = out
        return states
    if isinstance(p, GuardedChoice):
        guard = eval_formula(p.guard, s)
        out = set()
        if p.complemented:
            if guard:
                out |= ref_reach(p.then, s)
            elif p.else_ is not None:
                out |= ref_reach(p.else_, s)
            else:
                out.add(s)
        else:
            if guard:
                out |= ref_reach(p.then, s)
            out |= ref_reach(p.else_, s)
        return out
    raise TypeError(f"hp_reachable executes hybrid programs, not {type(p).__name__}")


def ref_hp_reachable(p, s):
    return frozenset(ref_reach(p, s))


def new_hp_reachable(p, s):
    return semantics.hp_reachable(p, s).states


# ---------------------------------------------------------------------------
# Inputs

T = Ident("t")
PLANT = PlantSpec(((Ident("a"), Number("1")), (Ident("b"), Var(Ident("c")))), T, TRUE, Var(Ident("e")))
DECLARED = (Ident("b"), Ident("d"), Ident("f"))


def data_programs():
    """The controller of every bundled model and the body of every ST file."""
    out = []
    for path in sorted(DATA.iterdir()):
        text = path.read_text()
        if path.name.endswith("_model.dlhp"):
            out.append(analysis.validate_scan_cycle_form(parse_dl_model(text)).ctrl)
        elif path.suffix == ".st":
            try:
                out.append(parse_st(text).body)
            except ParseError:  # a bare statement list, not a PROGRAM unit
                out.append(parse_st_statements(text))
        elif path.name == "watertank_plant.dlhp":
            out.append(parse_dl_program(text))
    return out


def bad_node(rng, pos):
    """A node the translatable controller grammar does not allow."""
    x = Ident(rng.choice("abcdef"))
    inner = Assign(x, Number("1"), pos=(pos[0], pos[1] + 1))
    kind = rng.randrange(7)
    if kind == 0:
        return TestStmt(Cmp("gt", Var(x), Number("0")), pos=pos)
    if kind == 1:
        return RandomAssign(x, pos=pos)
    if kind == 2:
        return OdeSystem(((x, Number("1")),), TRUE, pos=pos)
    if kind == 3:
        return Loop(inner, pos=pos)
    if kind == 4:
        return Loop(TestStmt(TRUE, pos=(pos[0], pos[1] + 2)), pos=pos)
    if kind == 5:
        return Choice(inner, TestStmt(TRUE, pos=(pos[0], pos[1] + 2)), pos=pos)
    return IfThen(Cmp("gt", Var(x), Number("0")), inner, pos=pos)


def plant_bad(p, rng, chance):
    """`p` with some of its assignments replaced by out-of-fragment nodes."""
    if isinstance(p, Assign):
        if rng.random() < chance:
            return bad_node(rng, (rng.randrange(1, 99), rng.randrange(1, 99)))
        return p
    if isinstance(p, Seq):
        return Seq(*(plant_bad(stmt, rng, chance) for stmt in p.stmts))
    if isinstance(p, GuardedChoice):
        else_ = None if p.else_ is None else plant_bad(p.else_, rng, chance)
        return GuardedChoice(p.guard, plant_bad(p.then, rng, chance), else_,
                             complemented=p.complemented if else_ is not None else True)
    if isinstance(p, IfThen):
        return IfThen(p.cond, plant_bad(p.then, rng, chance),
                      None if p.else_ is None else plant_bad(p.else_, rng, chance))
    return p


# Each entry: (new walker, reference copy); both take the program alone.
# classify_io reads the facts of a model built around the program.
PROGRAM_WALKERS = {
    "collect_vars": (collect_vars, ref_collect_vars),
    "var_sets": (analysis.var_sets, ref_var_sets),
    "classify_io": (lambda p: analysis.classify_io(ScanCycleModel(TRUE, DECLARED, p, PLANT, 1.0, TRUE)),
                    lambda p: ref_classify_io(p, DECLARED, PLANT)),
    "check_ctrl": (analysis._check_ctrl, ref_check_ctrl),
    "fully_complemented": (semantics.fully_complemented, ref_fully_complemented),
    "count_choices": (count_choices, ref_count_choices),
    "is_st_only": (semantics._is_st_only, ref_is_st_only),
    "prog_st_to_hp": (translate.prog_st_to_hp, ref_prog_st_to_hp),
    "prog_hp_to_st": (translate.prog_hp_to_st, ref_prog_hp_to_st),
    "zero_one_outputs": (lambda p: program_facts(p).zero_one, ref_zero_one_outputs),
    "print_st_statement": (st_syntax.print_st_statement, ref_print_st_statement),
    "print_dl_program": (dl_syntax.print_dl_program, ref_print_dl_program),
}


# The walkers whose reference is defined on hybrid-program controllers only:
# ref_zero_one_outputs does not enter an ST IF and skips raw statements.
HP_CONTROLLER_ONLY = {"zero_one_outputs"}


def check_program(p, sigma=None):
    hp_controller = outcome(ref_check_ctrl, p)[0] == "ok"
    for name, (new, ref) in PROGRAM_WALKERS.items():
        if hp_controller or name not in HP_CONTROLLER_ONLY:
            assert outcome(new, p) == outcome(ref, p), name
    if sigma is not None:
        assert outcome(semantics.run_st, p, sigma) == outcome(ref_run_st, p, sigma)
        assert outcome(new_hp_reachable, p, sigma) == outcome(ref_hp_reachable, p, sigma)


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_walkers_match_reference_on_generated_programs(kind):
    generate = GENERATORS[kind]
    for seed in SEEDS:
        cfg = config(seed)
        check_program(generate(cfg), gen_state(cfg))


def test_walkers_match_reference_on_data_files():
    programs = data_programs()
    assert len(programs) == 5
    for p in programs:
        check_program(p)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_out_of_fragment_errors_match_reference(kind):
    generate = GENERATORS[kind]
    raised = 0
    for seed in SEEDS:
        cfg = config(seed)
        rng = random.Random(seed)
        p = plant_bad(generate(cfg), rng, rng.choice((0.2, 0.5, 1.0)))
        check_program(p, gen_state(cfg))
        raised += outcome(analysis._check_ctrl, p)[0] == "raised"
    assert raised > len(SEEDS) // 2  # most trials exercise the error paths


def test_controller_validation_matches_reference():
    # A controller inside a full model, so positions come from the parser.
    for seed in SEEDS:
        cfg = config(seed)
        rng = random.Random(seed)
        ctrl = plant_bad(gen_hp(cfg), rng, 0.3)
        if outcome(dl_syntax.print_dl_program, ctrl)[0] == "raised":
            continue  # an ST conditional was planted
        # The leading assignment keeps planted `x:=*` out of the inputs.
        text = ("eps=1 -> [{ u:=*; y:=u;\n" + dl_syntax.print_dl_program(ctrl)
                + "\nt:=0; {x'=u, t'=1 & t<=eps} }*] x>=0")
        model = parse_dl_model(text)
        ctrl_stmts = seq_to_list(model.body)[1:-2]
        new = outcome(analysis.validate_scan_cycle_form, model)
        ref = outcome(lambda: [ref_check_ctrl(s) for s in ctrl_stmts])
        if ref[0] == "raised":
            assert new == ref
        else:
            assert new[0] == "ok"


def test_is_affine_term_matches_reference():
    pool = tuple(Ident(n) for n in "abcdef")
    for seed in SEEDS:
        t = gen_term(config(seed))
        rng = random.Random(seed)
        evolving = {x for x in pool if rng.random() < 0.5}
        assert sim._is_affine_term(t, evolving) == ref_is_affine_term(t, evolving)


def test_fold_if_matches_reference():
    rng = random.Random(0)
    for seed in SEEDS:
        cfg = config(seed)
        arms = [(Cmp("gt", Var(Ident("a")), Number(str(k))), gen_st(GenConfig(max_depth=2, seed=seed + k)))
                for k in range(1 + seed % 6)]
        else_body = None if rng.random() < 0.5 else gen_st(cfg)
        new = st_syntax._fold_if(arms, else_body, (seed, 1))
        assert new == ref_fold_if(arms, else_body, (seed, 1))
        assert st_syntax.print_st_statement(new) == ref_print_st_statement(new)


@pytest.mark.parametrize("dialect", [ST, HP])
def test_formula_translators_match_reference(dialect):
    new, ref = {
        ST: (translate.formula_st_to_hp, ref_f_st_to_hp),
        HP: (translate.formula_hp_to_st, ref_f_hp_to_st),
    }[dialect]
    for seed in SEEDS:
        f = gen_formula(config(seed), dialect)
        assert new(f) == ref(f)
        assert collect_vars(f) == ref_collect_vars(f)
