"""The scan-cycle boundary: one plant decoder, one cycle-duration rule and
one plant-clock rule.

`analysis.plant_fragment` decodes the plant both as the end of a model's
loop body and as the `--plant` file of `st2hp`; `analysis.resolve_epsilon`
gives `simulate` its cycle duration and `hp2st` its task interval. Here the
two commands are held to the same value or the same error on one table of
models, and each decoder's rejections are held to one located line.
`ir.ScanCycleModel` alone refuses a plant clock in the controller or the
inputs, whether the model is validated from a file or built directly.
"""

import dataclasses
import json

import pytest

import golden
from plchp import analysis, sim
from plchp.analysis import plant_fragment, validate_scan_cycle_form
from plchp.cli import main
from plchp.dl_syntax import parse_dl_model, parse_dl_program
from plchp.errors import NotNormalForm
from plchp.ir import Assign, Ident, Number, Seq
from plchp.translate import task_hp_to_st

PLANT = "t:=0;\n{x1'=V1*f1-V2*P*f2, x2'=V2*P*f2, t'=1 & t<=eps & x1>=0 & x2>=0}\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data(name):
    return str(golden.DATA / name)


# ---------------------------------------------------------------------------
# One duration rule

def model(assumptions, bound="eps"):
    return validate_scan_cycle_form(parse_dl_model(
        f"{assumptions} -> [{{ i:=*; y:=i; t:=0; {{x'=y, t'=1 & t<={bound}}} }}*] x>=0"))


def outcome(thunk):
    try:
        return thunk()
    except Exception as exc:  # the class and message are what is compared
        return type(exc).__name__, str(exc)


DURATIONS = [
    ("concrete bound", "x>=0", "2", None, 2.0),
    ("concrete bound over a conjunct", "eps=2", "0.5", None, 0.5),
    ("eps = n conjunct", "eps=0.5 & x>=0", "eps", None, 0.5),
    ("override wins", "eps=0.5 & x>=0", "3", 0.25, 0.25),
    ("conflicting conjuncts", "eps=1 & x>=0 & eps=2", "eps", None,
     ("ConflictingEpsilon", "assumptions bind eps to both 1.0 and 2.0 (in eps=2)")),
    ("symbolic, no conjunct", "eps>=0", "eps", None,
     ("MissingEpsilon", "scan cycle duration eps is symbolic; the assumptions carry "
                        "no eps = n conjunct and no override was given")),
    ("zero bound", "x>=0", "0", None,
     ("MissingEpsilon", "scan cycle duration must be positive, got 0.0")),
    ("zero conjunct", "eps=0", "eps", None,
     ("MissingEpsilon", "scan cycle duration must be positive, got 0.0")),
    ("negative override", "eps=1", "eps", -1.0,
     ("MissingEpsilon", "scan cycle duration must be positive, got -1.0")),
    ("nan override", "eps=1", "eps", float("nan"),
     ("MissingEpsilon", "scan cycle duration must be positive, got nan")),
    ("infinite override", "eps=1", "eps", float("inf"),
     ("MissingEpsilon", "scan cycle duration must be finite, got inf")),
]


@pytest.mark.parametrize("assumptions, bound, override, expected",
                         [case[1:] for case in DURATIONS], ids=[case[0] for case in DURATIONS])
def test_simulate_and_hp2st_share_the_duration_rule(assumptions, bound, override, expected):
    m = model(assumptions, bound)
    simulated = outcome(lambda: sim.resolve_epsilon(m, override))
    interval = outcome(lambda: task_hp_to_st(m, override)[0].config.interval)
    assert simulated == interval == expected


def test_one_duration_rule():
    assert sim.resolve_epsilon is analysis.resolve_epsilon


def run_config(tmp_path, params):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "params": {str(k): v for k, v in params.items()},
        "init": {str(k): v for k, v in golden.SCENARIO_INIT.items()},
        "inputs": {"mode": "constant",
                   "values": {str(k): v for k, v in golden.SCENARIO_INPUTS.items()}},
    }))
    return str(config)


@pytest.mark.parametrize("source, edit", [
    ("watertank_original_model.dlhp", lambda text: text.replace("t<=eps", "t<=0")),
    ("watertank_safe_model.dlhp", lambda text: text.replace("H2<HH\n->", "H2<HH & eps=0\n->")),
])
def test_non_positive_duration_stops_simulate_as_it_stops_hp2st(tmp_path, capsys, source, edit):
    text = (golden.DATA / source).read_text()
    edited = tmp_path / "model.dlhp"
    edited.write_text(edit(text))
    assert edited.read_text() != text
    params = {k: v for k, v in golden.SCENARIO_PARAMS.items() if k.name != "eps"}
    line = "error: scan cycle duration must be positive, got 0.0\n"
    assert run(capsys, "hp2st", str(edited)) == (1, "", line)
    assert run(capsys, "simulate", "--model", str(edited), "--inputs", run_config(tmp_path, params),
               "--cycles", "3", "--out", str(tmp_path / "trace.csv")) == (1, "", line)


def test_analyze_applies_the_duration_rule(tmp_path, capsys):
    text = (golden.DATA / "watertank_original_model.dlhp").read_text()
    for bound, expected in (("0", (1, "", "error: scan cycle duration must be positive, got 0.0\n")),
                            ("0.5", (0, "epsilon: 0.5\n", "")),
                            ("eps", (0, "epsilon: symbolic (eps)\n", ""))):
        edited = tmp_path / "model.dlhp"
        edited.write_text(text.replace("t<=eps", f"t<={bound}"))
        code, out, err = run(capsys, "analyze", str(edited))
        assert (code, out[out.find("epsilon:"):], err) == expected


def test_division_by_zero_prints_the_term(tmp_path, capsys):
    text = (golden.DATA / "watertank_safe_model.dlhp").read_text()
    edited = tmp_path / "model.dlhp"
    edited.write_text(text.replace("(HH-x1)/eps", "(HH-x1)/FL"))
    params = dict(golden.SCENARIO_PARAMS)
    params[next(k for k in params if k.name == "FL")] = 0.0
    code, _, err = run(capsys, "simulate", "--model", str(edited),
                       "--inputs", run_config(tmp_path, params), "--cycles", "3",
                       "--epsilon", "10", "--out", str(tmp_path / "trace.csv"))
    assert (code, err) == (1, "error: division by zero in (HH-x1)/FL\n")


def test_simulate_refuses_a_run_that_binds_another_duration(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--model", data("watertank_safe_model.dlhp"),
                       "--inputs", run_config(tmp_path, golden.SCENARIO_PARAMS), "--cycles", "3",
                       "--epsilon", "1", "--out", str(tmp_path / "trace.csv"))
    assert (code, err) == (
        1, "error: the initial state binds eps to 10.0, but the scan cycle duration is 1.0\n")


# ---------------------------------------------------------------------------
# One plant decoder

def st2hp(capsys, tmp_path, monkeypatch, plant_text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plant.dlhp").write_text(plant_text)
    return run(capsys, "st2hp", data("watertank_original.st"), "--plant", "plant.dlhp",
               "--assumptions", data("watertank_assumptions.dlhp"),
               "--safety", data("watertank_safety.dlhp"))


def test_st2hp_reads_a_plant_fragment(capsys, tmp_path, monkeypatch):
    code, out, _ = st2hp(capsys, tmp_path, monkeypatch, PLANT)
    assert code == 0 and out.endswith("t:=0;\n  {x1'=V1*f1-V2*P*f2, x2'=V2*P*f2, t'=1 & "
                                      "t<=eps & x1>=0 & x2>=0}\n}*]\nLL<=x1 & x1<=HH & "
                                      "LL<=x2 & x2<=HH\n")


EXTRA = "a plant is a clock reset followed by the plant ODE, with nothing before"


@pytest.mark.parametrize("plant_text, line", [
    ("P:=7; V1:=3;\n" + PLANT, f"plant.dlhp:1:1: {EXTRA}\n"),
    ("\n  x1:=*;\n" + PLANT, f"plant.dlhp:2:3: {EXTRA}\n"),
    (PLANT.split("\n", 1)[1], "plant.dlhp:1:1: missing clock reset before the plant ODE\n"),
    ("t:=0;\n", "plant.dlhp:1:1: missing plant ODE as the last statement\n"),
    ("t:=1;\n" + PLANT.split("\n", 1)[1], "plant.dlhp:1:1: missing clock reset\n"),
], ids=["assignments first", "input first", "ODE only", "reset only", "reset to 1"])
def test_st2hp_rejects_anything_but_reset_and_ode(capsys, tmp_path, monkeypatch, plant_text, line):
    assert st2hp(capsys, tmp_path, monkeypatch, plant_text) == (1, "", line)


def test_plant_fragment_is_the_plant_of_a_model():
    whole = validate_scan_cycle_form(parse_dl_model((golden.DATA / "watertank_original_model.dlhp")
                                                    .read_text()))
    assert plant_fragment(parse_dl_program((golden.DATA / "watertank_plant.dlhp").read_text())) \
        == whole.plant == golden.PLANT
    with pytest.raises(NotNormalForm, match="^1:7: missing clock ODE t'=1$"):
        plant_fragment(parse_dl_program("t:=0; {x'=1, s'=1 & t<=eps}"))


# ---------------------------------------------------------------------------
# One plant-clock rule

CLOCK_CLASH = "plant clock t appears in ctrl or inputs"


@pytest.mark.parametrize("edit", [
    lambda m: {"ctrl": Seq(m.ctrl, Assign(Ident("t"), Number("1")))},
    lambda m: {"inputs": m.inputs + (Ident("t"),)},
], ids=["ctrl", "inputs"])
def test_a_model_built_directly_refuses_the_clock(edit):
    good = model("eps=1")
    with pytest.raises(NotNormalForm) as caught:
        dataclasses.replace(good, **edit(good))
    assert str(caught.value) == CLOCK_CLASH and caught.value.location is None


@pytest.mark.parametrize("command", ["hp2st", "analyze"])
@pytest.mark.parametrize("body, line", [
    ("i:=*; y:=t;", f"m.dlhp:{CLOCK_CLASH}\n"),
    ("t:=*; y:=1;", f"m.dlhp:{CLOCK_CLASH}\n"),
    ("i:=*; ?y>=1; y:=t;", "m.dlhp:1:19: test outside guarded choice\n"),
], ids=["ctrl", "inputs", "shape first"])
def test_commands_refuse_the_clock_in_ctrl_or_inputs(capsys, tmp_path, monkeypatch, command,
                                                     body, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.dlhp").write_text(
        f"eps=1 -> [{{ {body} t:=0; {{x'=y, t'=1 & t<=eps}} }}*] x>=0\n")
    assert run(capsys, command, "m.dlhp") == (1, "", line)
