"""Interpreters, reachability, generators, and the differential tester."""

import pytest

import golden
from plchp import semantics
from plchp import (
    Assign, Cmp, GuardedChoice, Ident, Number, Seq, State, Var,
    eval_formula, eval_term, gen_formula, gen_hp, gen_st, gen_term,
    hp_reachable, parse_dl_program, parse_st_statements, run_st, var_sets,
)
from plchp.errors import DivisionByZero, DomainError, UnboundVariable
from plchp.ir import (
    And, BinOp, BoolConst, DIV, GE, IfThen, POW,
    SUB, Xor, )
from plchp.semantics import (
    DiffReport, GenConfig, MAX_CHOICE_NODES, difftest, derive_seed, gen_state,
)
from oracle import behavioral_var_sets, count_choices, gen_transparent_hp
from plchp.cli import main
from plchp.translate import prog_st_to_hp


def ident(n):
    return Ident(n)


def state(**bindings):
    return State({Ident(k): float(v) for k, v in bindings.items()})


def test_eval_term_examples():
    assert eval_term(BinOp("add", Var(ident("x")), Number("3")), state(x=2)) == 5.0
    # 2**3 and 2^3 share one Term node; both sides evaluate to the same bits
    pow_term = BinOp(POW, Number("2"), Number("3"))
    assert eval_term(pow_term, State()) == 8.0
    guard_shape = BinOp(
        DIV, BinOp(SUB, Var(ident("HH")), Var(ident("x1"))), Var(ident("eps"))
    )
    assert eval_term(guard_shape, state(x1=790, HH=1000, eps=10)) == 21.0


def test_eval_term_errors():
    with pytest.raises(UnboundVariable):
        eval_term(Var(ident("nope")), State())
    with pytest.raises(DivisionByZero):
        eval_term(BinOp(DIV, Number("1"), Number("0")), State())
    with pytest.raises(DivisionByZero):
        eval_term(BinOp(POW, Number("0"), Var(ident("x"))), state(x=-1))


def test_pow_domain_error():
    neg_base = BinOp(POW, Var(ident("x")), Number("0.5"))
    with pytest.raises(DomainError):
        eval_term(neg_base, state(x=-2))
    assert eval_term(neg_base, state(x=4)) == 2.0


def test_eval_formula_examples():
    assert eval_formula(And(BoolConst(True), BoolConst(False)), State()) is False
    assert eval_formula(Cmp(GE, Var(ident("x1")), Var(ident("H1"))), state(x1=900, H1=800))
    # exclusive-or truth table agrees with its compiled rewrite
    from plchp.translate import formula_st_to_hp

    a = Cmp(GE, Var(ident("a")), Number("1"))
    b = Cmp(GE, Var(ident("b")), Number("1"))
    xor = Xor(a, b)
    compiled = formula_st_to_hp(xor)
    for av in (0.0, 1.0):
        for bv in (0.0, 1.0):
            s = state(a=av, b=bv)
            assert eval_formula(xor, s) == eval_formula(compiled, s)


def test_run_st_examples():
    body = parse_st_statements("V1:=0; IF x1>=H1 THEN V1:=1; END_IF;")
    out = run_st(body, state(x1=5, H1=4, V1=7))
    assert out.get(ident("V1")) == 1.0

    s = state(x=3)
    assert run_st(parse_st_statements("x:=x;"), s) == s

    tank_state = state(
        x1=900, H1=800, L1=500, x2=600, L2=500, LL=250, FL=0.1, H2=800, f2=30,
        V1=1, V2=1, P=1,
    )
    out = run_st(golden.ORIGINAL_BODY, tank_state)
    assert out.get(ident("V1")) == 0.0
    assert out.get(ident("V2")) == 1.0
    assert out.get(ident("P")) == 1.0


def test_run_st_is_deterministic():
    body = gen_st(GenConfig(seed=42))
    sigma = gen_state(GenConfig(seed=43))
    assert run_st(body, sigma) == run_st(body, sigma)


def test_hp_reachable_complemented_is_singleton():
    prog = parse_dl_program("{?x>=1; y:=1;} ++ {?!(x>=1); y:=0;}")
    reach = hp_reachable(prog, state(x=2, y=9))
    assert reach.states == frozenset({state(x=2, y=1)})


def test_hp_reachable_default_beta_keeps_both():
    prog = parse_dl_program("{?x>=1; y:=1;} ++ {y:=0;}")
    reach = hp_reachable(prog, state(x=2, y=9))
    assert reach.states == frozenset({state(x=2, y=1), state(x=2, y=0)})
    # guard false: only the default branch
    reach = hp_reachable(prog, state(x=0, y=9))
    assert reach.states == frozenset({state(x=0, y=0)})


def test_hp_reachable_assignment():
    sigma = state(x=3)
    assert hp_reachable(Assign(ident("x"), Number("1")), sigma).states == frozenset(
        {state(x=1)}
    )


def test_default_beta_reach_superset_of_complemented():
    for seed in range(200):
        cfg = GenConfig(max_depth=3, seed=seed)
        guard = Cmp(GE, Var(ident("a")), Number("1"))
        then = gen_st(cfg)  # any deterministic statement works as a branch
        else_ = gen_st(GenConfig(max_depth=3, seed=seed + 10_000))
        then_hp = prog_st_to_hp(then)
        else_hp = prog_st_to_hp(else_)
        default = GuardedChoice(guard, then_hp, else_hp, complemented=False)
        complemented = GuardedChoice(guard, then_hp, else_hp, complemented=True)
        sigma = gen_state(GenConfig(seed=seed + 20_000))
        try:
            narrow = hp_reachable(complemented, sigma).states
            wide = hp_reachable(default, sigma).states
        except (DivisionByZero, DomainError):
            continue
        assert narrow <= wide


def test_reach_size_bound():
    for seed in range(200):
        prog = gen_hp(GenConfig(max_depth=5, seed=seed))
        sigma = gen_state(GenConfig(seed=seed + 1))
        try:
            reach = hp_reachable(prog, sigma)
        except (DivisionByZero, DomainError):
            continue
        assert len(reach) <= 2 ** count_choices(prog)
        assert count_choices(prog) <= MAX_CHOICE_NODES


def test_frame_property():
    for seed in range(200):
        prog = gen_hp(GenConfig(max_depth=4, seed=seed))
        sigma = gen_state(GenConfig(seed=seed + 50_000))
        bound = var_sets(prog).bound
        try:
            reach = hp_reachable(prog, sigma)
        except (DivisionByZero, DomainError):
            continue
        outside = [x for x in sigma.names() if x not in bound]
        for omega in reach.states:
            for x in outside:
                assert omega.get(x) == sigma.get(x)


def test_generators_deterministic_in_seed():
    cfg = GenConfig(max_depth=5, seed=7)
    assert gen_st(cfg) == gen_st(cfg)
    assert gen_hp(cfg) == gen_hp(cfg)
    assert gen_term(cfg) == gen_term(cfg)
    assert gen_formula(cfg, "st") == gen_formula(cfg, "st")
    assert gen_state(cfg) == gen_state(cfg)
    assert gen_transparent_hp(cfg) == gen_transparent_hp(cfg)


def test_smallest_program_is_assignment():
    assert isinstance(gen_st(GenConfig(max_depth=1, seed=0)), Assign)
    assert isinstance(gen_hp(GenConfig(max_depth=1, seed=0)), Assign)


def test_generator_covers_all_constructs():
    st_kinds = set()
    hp_kinds = set()
    for seed in range(1000):
        cfg = GenConfig(max_depth=5, seed=seed)
        st_kinds |= _st_constructs(gen_st(cfg))
        hp_kinds |= _hp_constructs(gen_hp(cfg))
    assert st_kinds == {"assign", "seq", "ifthen", "ifthenelse"}
    assert hp_kinds == {"assign", "seq", "ifthen", "ifthenelse", "default"}


def _st_constructs(p):
    if isinstance(p, Assign):
        return {"assign"}
    if isinstance(p, Seq):
        return {"seq"}.union(*map(_st_constructs, p.stmts))
    if isinstance(p, IfThen) and p.else_ is None:
        return {"ifthen"} | _st_constructs(p.then)
    if isinstance(p, IfThen):
        return {"ifthenelse"} | _st_constructs(p.then) | _st_constructs(p.else_)
    raise AssertionError(type(p))


def _hp_constructs(p):
    if isinstance(p, Assign):
        return {"assign"}
    if isinstance(p, Seq):
        return {"seq"}.union(*map(_hp_constructs, p.stmts))
    if isinstance(p, GuardedChoice):
        inner = _hp_constructs(p.then)
        if p.else_ is not None:
            inner |= _hp_constructs(p.else_)
        if not p.complemented:
            return {"default"} | inner
        return ({"ifthen"} if p.else_ is None else {"ifthenelse"}) | inner
    raise AssertionError(type(p))


def test_behavioral_oracle_agrees_on_transparent_programs():
    pool = tuple(Ident(n) for n in ("a", "b", "c", "d"))
    for seed in range(200):
        prog = gen_transparent_hp(GenConfig(max_depth=5, var_pool=pool, seed=seed))
        vs = var_sets(prog)
        free, bound = behavioral_var_sets(prog, pool)
        assert free == vs.free, prog
        assert bound == vs.bound, prog


def test_difftest_empty():
    report = difftest(GenConfig(seed=1), 0)
    assert report.summary() == "total=0 failed=0"


def test_difftest_small_run_passes():
    report = difftest(GenConfig(max_depth=5, seed=99), 200)
    assert report.failed == 0
    assert report.total == 200
    text = report.serialize()
    assert text.strip().endswith("total=200 failed=0")
    assert "PASS" in text


def test_difftest_gives_up_after_the_last_regeneration(monkeypatch, capsys):
    def divides_by_zero(p, s):
        raise DivisionByZero("division by zero in 1/0")

    attempts = []
    run_trial = semantics._run_trial

    def recorded(cfg, index, attempt):
        attempts.append((index, attempt))
        return run_trial(cfg, index, attempt)

    monkeypatch.setattr(semantics, "run_st", divides_by_zero)
    monkeypatch.setattr(semantics, "_run_trial", recorded)
    with pytest.raises(DivisionByZero, match="division by zero in 1/0"):
        difftest(GenConfig(seed=1), 3)
    assert semantics._MAX_REGEN == 100
    assert attempts == [(0, attempt) for attempt in range(101)]

    assert main(["difftest", "--n", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: division by zero in 1/0\n"


def test_derive_seed_is_stable():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


def test_diff_report_line_format():
    from plchp.semantics import TrialResult

    report = DiffReport((
        TrialResult(11, True),
        TrialResult(12, False, "b", "program: x:=1;\nstate: State({})"),
    ))
    text = report.serialize()
    lines = text.splitlines()
    assert lines[0] == "PASS"
    assert lines[1] == "FAIL seed=12 kind=b"
    assert lines[2].startswith("# program:")
    assert lines[-1] == "total=2 failed=1"
