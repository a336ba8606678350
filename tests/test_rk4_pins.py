"""Bit pins of the RK4 integrator.

Every expected value below is the `float.hex` that the tree-walking RK4
integrator produced with 200 substeps. Any change to the integrator must
keep the same float operations in the same order, so these hold exactly.
The domain-exit pins also fix where an exit is reported today: at the
first grid point found outside the domain, not at the crossing itself.
"""

import pytest

import golden
from plchp import (
    Ident, Number, PlantSpec, State, Var, integrate_plant, parse_dl_formula,
    parse_dl_model, parse_dl_term, simulate, validate_scan_cycle_form,
)
from plchp.errors import DivisionByZero, UnboundVariable
from plchp.dl_syntax import print_dl_formula
from plchp.ir import And, BinOp, Cmp, GE, MUL, Neg, SUB, TRUE
from plchp.sim import ConstantInputs, IntegratorConfig, SimConfig
from plchp.translate import prog_hp_to_st

RK4 = IntegratorConfig(method="rk4", substeps=200)


def ident(name):
    return Ident(name)


def hexes(s: State) -> dict:
    return {x.name: v.hex() for x, v in s.items()}


def test_level_outflow_tank_bits():
    # x2' = V2*P*f2 - 0.002*x2: the benchmark's non-affine tank.
    outflow = BinOp(SUB, golden.X2_RATE, BinOp(MUL, Number("0.002"), golden.x2))
    plant = PlantSpec(
        odes=((golden.x1.ident, golden.X1_RATE), (golden.x2.ident, outflow)),
        clock=golden.t,
        domain=golden.PLANT.domain,
        bound=golden.eps,
    )
    s = State(
        dict(golden.SCENARIO_PARAMS) | dict(golden.SCENARIO_INIT)
        | dict(golden.SCENARIO_INPUTS)
        | {ident("t"): 0.0, ident("V2"): 1.0, ident("P"): 1.0}
    )
    out, exit_info = integrate_plant(plant, s, 10.0, RK4)
    assert exit_info is None
    assert hexes(out) == {
        "FL": "0x1.999999999999ap-4", "H1": "0x1.9000000000000p+9",
        "H2": "0x1.9000000000000p+9", "HH": "0x1.f400000000000p+9",
        "L1": "0x1.f400000000000p+8", "L2": "0x1.f400000000000p+8",
        "LL": "0x1.f400000000000p+7", "P": "0x1.0000000000000p+0",
        "V1": "0x1.0000000000000p+0", "V2": "0x1.0000000000000p+0",
        "eps": "0x1.4000000000000p+3", "f1": "0x1.4000000000000p+5",
        "f2": "0x1.e000000000000p+4", "t": "0x1.4000000000000p+3",
        "x1": "0x1.bd00000000000p+9", "x2": "0x1.ba91ce2c2343ap+9",
    }


def test_exponential_growth_bits():
    # x' = x, the plant of test_rk4_on_state_dependent_plant.
    plant = PlantSpec(
        odes=((ident("x"), Var(ident("x"))),),
        clock=ident("t"), domain=TRUE, bound=Var(ident("eps")),
    )
    out, exit_info = integrate_plant(plant, State({ident("x"): 1.0, ident("t"): 0.0}), 1.0, RK4)
    assert exit_info is None
    assert hexes(out) == {"t": "0x1.0000000000000p+0", "x": "0x1.5bf0a8b13db65p+1"}


def test_clock_dependent_plant_bits():
    # Right-hand sides that read the clock, started off zero: every stage's
    # clock value enters the result.
    plant = PlantSpec(
        odes=((ident("x"), parse_dl_term("t-x*x")), (ident("y"), parse_dl_term("x/(1+t^2)"))),
        clock=ident("t"), domain=TRUE, bound=Var(ident("eps")),
    )
    s = State({ident("x"): 0.25, ident("y"): -1.0, ident("t"): 0.5})
    out, exit_info = integrate_plant(plant, s, 2.0, RK4)
    assert exit_info is None
    assert hexes(out) == {
        "t": "0x1.4000000000000p+1", "x": "0x1.71d8713ca23adp+0", "y": "-0x1.fdeaaf722c78cp-2",
    }


def test_linear_domain_exit_at_grid_point():
    # The plant of test_domain_exit_linear_crossing, forced onto RK4: the
    # crossing at t=0.5 is reported at the next grid point, t=0.55.
    plant = PlantSpec(
        odes=((ident("x"), Neg(Number("1"))),),
        clock=ident("t"),
        domain=Cmp(GE, Var(ident("x")), Number("0")),
        bound=Var(ident("eps")),
    )
    s = State({ident("x"): 0.5, ident("t"): 0.0, ident("eps"): 10.0})
    out, exit_info = integrate_plant(plant, s, 10.0, RK4)
    assert exit_info.time.hex() == "0x1.199999999999ap-1"
    assert print_dl_formula(exit_info.conjunct) == "x>=0"
    assert hexes(out) == {
        "eps": "0x1.4000000000000p+3", "t": "0x1.199999999999ap-1",
        "x": "-0x1.9999999999990p-5",
    }


def _decay_plant():
    # x' = -x leaves x >= 0.5 at ln 2; the failing conjunct is the second.
    return PlantSpec(
        odes=((ident("x"), Neg(Var(ident("x")))),),
        clock=ident("t"),
        domain=And(Cmp(GE, Var(ident("t")), Number("0")), Cmp(GE, Var(ident("x")), Number("0.5"))),
        bound=Var(ident("eps")),
    )


def test_nonaffine_domain_exit_conjunct_and_time():
    out, exit_info = integrate_plant(
        _decay_plant(), State({ident("x"): 1.0, ident("t"): 0.0}), 1.0, RK4)
    assert exit_info.time.hex() == "0x1.63d70a3d70a3dp-1"  # 0.695, not ln 2
    assert print_dl_formula(exit_info.conjunct) == "x>=0.5"
    assert hexes(out) == {"t": "0x1.63d70a3d70a3dp-1", "x": "0x1.ff0d5f417e28ep-2"}


def test_domain_exit_at_cycle_start():
    s = State({ident("x"): 0.25, ident("t"): 0.0})
    out, exit_info = integrate_plant(_decay_plant(), s, 1.0, RK4)
    assert exit_info.time.hex() == "0x0.0p+0"
    assert print_dl_formula(exit_info.conjunct) == "x>=0.5"
    assert out == s


def test_simulate_domain_exit_on_rk4():
    # The model of test_simulate_stops_on_domain_exit, forced onto RK4.
    text = "eps=1 -> [{ u:=*; y:=u; t:=0; {x'=0-1, t'=1 & t<=eps & x>=0} }*] x>=0"
    model = validate_scan_cycle_form(parse_dl_model(text))
    body, _ = prog_hp_to_st(model.ctrl)
    records = simulate(
        model, body, ConstantInputs({ident("u"): 0.0}), 5,
        State({ident("x"): 0.25, ident("y"): 0.0}), SimConfig(integrator=RK4),
    )
    assert len(records) == 1
    exit_info = records[0].domain_exit
    assert exit_info.time.hex() == "0x1.0000000000000p-2"
    assert print_dl_formula(exit_info.conjunct) == "x>=0"
    assert hexes(records[0].post_plant) == {
        "eps": "0x1.0000000000000p+0", "t": "0x1.0000000000000p-2",
        "u": "0x0.0p+0", "x": "-0x1.6400000000000p-53", "y": "0x0.0p+0",
    }


@pytest.mark.parametrize("method", ["rk4", "affine"])
@pytest.mark.parametrize("rhs, domain, bindings, error, message", [
    ("1", "true", {"t": 0.0}, UnboundVariable, "unbound variable x"),
    ("1/0", "true", {"t": 0.0}, DivisionByZero, "division by zero in"),  # before x is read
    ("y", "true", {"t": 0.0}, UnboundVariable, "unbound variable y"),
    ("1", "x>=0", {"t": 0.0}, UnboundVariable, "unbound variable x"),
    ("1", "true", {"x": 1.0}, UnboundVariable, "unbound variable t"),
    ("1", "z>0", {"t": 0.0, "x": 1.0}, UnboundVariable, "unbound variable z"),
])
def test_integrator_errors(method, rhs, domain, bindings, error, message):
    # Which error comes first when a variable is unbound, as the tree walk
    # raised it.
    plant = PlantSpec(
        odes=((ident("x"), parse_dl_term(rhs)),), clock=ident("t"),
        domain=parse_dl_formula(domain), bound=Var(ident("eps")),
    )
    s = State({ident(k): v for k, v in bindings.items()})
    with pytest.raises(error, match=message):
        integrate_plant(plant, s, 1.0, IntegratorConfig(method=method, substeps=4))
