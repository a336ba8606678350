"""Seeded input generators for the benchmark.

Everything here uses only the standard library and its own `random.Random`
streams, never plchp's `gen_*` generators, so a change to the differential
tester's generators cannot change the inputs of the other workloads.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Scenario of the water-tank acceptance test (criterion 7): limits, flow
# threshold and a 10 s scan cycle.
TANK_PARAMS = {
    "HH": 1000.0, "H1": 800.0, "L1": 500.0, "LL": 250.0,
    "L2": 500.0, "H2": 800.0, "FL": 0.1, "eps": 10.0,
}
FLOW_RANGE = (0.0, 50.0)

# Level-proportional outflow from tank 2 makes the plant non-affine, so the
# simulator's `auto` integrator selects RK4 instead of the closed form.
AFFINE_X2_ODE = "x2'=V2*P*f2,"
OUTFLOW_X2_ODE = "x2'=V2*P*f2-0.002*x2,"


def rk4_model_text(safe_model_text: str) -> str:
    """The safe water-tank model with level-proportional outflow."""
    if safe_model_text.count(AFFINE_X2_ODE) != 1:
        raise ValueError("safe model does not have the expected tank-2 ODE")
    return safe_model_text.replace(AFFINE_X2_ODE, OUTFLOW_X2_ODE)


def tank_initial(rng: random.Random) -> dict:
    """Initial levels inside the model's assumptions, actuators closed."""
    return {
        "x1": rng.uniform(TANK_PARAMS["L1"], TANK_PARAMS["H1"]),
        "x2": rng.uniform(TANK_PARAMS["L2"], TANK_PARAMS["H2"]),
        "V1": 0.0, "V2": 0.0, "P": 0.0,
    }


def write_uniform_run(path: Path, rng: random.Random) -> None:
    """Run configuration with f1, f2 drawn uniformly per cycle by plchp."""
    lo, hi = FLOW_RANGE
    path.write_text(json.dumps({
        "params": TANK_PARAMS,
        "init": tank_initial(rng),
        "inputs": {
            "mode": "uniform",
            "ranges": {"f1": [lo, hi], "f2": [lo, hi]},
            "seed": rng.randrange(2**31),
        },
    }), encoding="utf-8")


def write_csv_run(path: Path, csv_path: Path, cycles: int, rng: random.Random) -> None:
    """Run configuration reading f1, f2 from a generated input trace."""
    lo, hi = FLOW_RANGE
    lines = ["cycle,f1,f2"]
    for cycle in range(cycles):
        lines.append(f"{cycle},{rng.uniform(lo, hi)!r},{rng.uniform(lo, hi)!r}")
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    path.write_text(json.dumps({
        "params": TANK_PARAMS,
        "init": tank_initial(rng),
        "inputs": {"mode": "csv", "path": str(csv_path)},
    }), encoding="utf-8")


# ---------------------------------------------------------------------------
# Structured-text controllers
#
# Statement shapes repeat in a fixed cycle and only names, operators and
# literals are drawn at random, so a controller's token count, nesting and
# compile cost depend on its statement count and not on the seed.

ST_INPUTS = ("x1", "x2", "f1", "f2", "s0", "s1", "s2", "s3")
ST_BOOL_OUTPUTS = ("V1", "V2", "P")
ST_REAL_OUTPUTS = ("a0", "a1", "a2", "a3", "m0", "m1", "m2")
ST_EXTERNALS = ("k0", "k1")
ST_LITERALS = ("1", "2", "0.5", "2.5", "10", "250", "800")
_READABLE = ST_INPUTS + ST_REAL_OUTPUTS + ST_EXTERNALS
_CMP_OPS = ("<", "<=", ">", ">=", "=", "<>")


class _StWriter:
    """Emits ST source line by line and counts its tokens."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.lines: list[str] = []
        self.tokens = 0

    def emit(self, indent: int, tokens: list[str]) -> None:
        self.tokens += len(tokens)
        self.lines.append("  " * indent + " ".join(tokens))

    def leaf(self) -> str:
        return self.rng.choice(_READABLE)

    def binary(self) -> list[str]:
        op = self.rng.choice(("+", "-", "*", "/"))
        right = self.rng.choice(ST_LITERALS) if op == "/" else self.leaf()
        return ["(", self.leaf(), op, right, ")"]

    def guard(self) -> list[str]:
        return self.binary() + [self.rng.choice(_CMP_OPS), self.rng.choice(ST_LITERALS)]

    def real(self, indent: int, value: list[str]) -> None:
        self.emit(indent, [self.rng.choice(ST_REAL_OUTPUTS), ":="] + value + [";"])

    def flag(self, indent: int) -> None:
        self.emit(indent, [self.rng.choice(ST_BOOL_OUTPUTS), ":=", self.rng.choice("01"), ";"])

    def statement(self, j: int) -> None:
        """Statement j of the cycle: four assignments, an IF/ELSE, a nested
        IF with ELSIF and a compound guard, and a negated guard."""
        kind = j % 7
        if kind == 0:
            self.real(1, self.binary())
        elif kind == 1:
            self.flag(1)
        elif kind == 2:
            self.emit(1, ["IF"] + self.guard() + ["THEN"])
            self.real(2, self.binary())
            self.flag(2)
            self.emit(1, ["ELSE"])
            self.real(2, [self.leaf()])
            self.emit(1, ["END_IF", ";"])
        elif kind == 3:
            self.real(1, ["("] + self.binary() + [self.rng.choice("+-*"), self.leaf(), ")"])
        elif kind == 4:
            connective = self.rng.choice(("AND", "OR", "XOR"))
            self.emit(1, ["IF", "("] + self.guard() + [connective] + self.guard() + [")", "THEN"])
            self.emit(2, ["IF"] + self.guard() + ["THEN"])
            self.flag(3)
            self.emit(2, ["END_IF", ";"])
            self.emit(1, ["ELSIF"] + self.guard() + ["THEN"])
            self.real(2, self.binary())
            self.emit(1, ["END_IF", ";"])
        elif kind == 5:
            self.real(1, [self.leaf()])
        else:
            self.emit(1, ["IF", "NOT", "("] + self.guard() + [")", "THEN"])
            self.flag(2)
            self.emit(1, ["END_IF", ";"])


def _decl(kind: str, names, ty: str) -> list[str]:
    tokens = [kind]
    for i, name in enumerate(names):
        tokens += ([","] if i else []) + [name]
    return tokens + [":", ty, ";", "END_VAR"]


def st_controller(rng: random.Random, statements: int) -> tuple[str, int]:
    """A PROGRAM unit with VAR blocks, `statements` top-level statements
    and a CONFIGURATION section. Returns the source and its token count."""
    w = _StWriter(rng)
    w.emit(0, ["PROGRAM", "ctrl"])
    w.emit(1, _decl("VAR_INPUT", ST_INPUTS, "REAL"))
    w.emit(1, _decl("VAR_OUTPUT", ST_BOOL_OUTPUTS, "BOOL"))
    w.emit(1, _decl("VAR_OUTPUT", ST_REAL_OUTPUTS[:4], "LREAL"))
    w.emit(1, _decl("VAR", ST_REAL_OUTPUTS[4:], "LREAL"))
    w.emit(1, _decl("VAR_EXTERNAL", ST_EXTERNALS, "LREAL"))
    for j in range(statements):
        w.statement(j)
    w.emit(0, ["END_PROGRAM"])
    w.emit(0, ["CONFIGURATION", "Config0"])
    w.emit(1, ["RESOURCE", "Res0", "ON", "PLC"])
    w.emit(2, ["TASK", "Main", "(", "INTERVAL", ":=", "T#10s", ",",
               "PRIORITY", ":=", "0", ")", ";"])
    w.emit(2, ["PROGRAM", "Inst0", "WITH", "Main", ":", "ctrl", ";"])
    w.emit(1, ["END_RESOURCE"])
    w.emit(0, ["END_CONFIGURATION"])
    return "\n".join(w.lines) + "\n", w.tokens
