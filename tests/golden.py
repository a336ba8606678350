"""Hand-encoded golden ASTs for the water-treatment example.

These are written out constructor by constructor (not parsed from the data
files) so the parser and compiler are checked against an independent
encoding. The control groups follow the bundled watertank_original.st
program; the generated hybrid program's complements negate each guard
verbatim, and the third guard keeps the source's non-strict comparisons.
"""

from __future__ import annotations

from pathlib import Path

from plchp import (
    And, Assign, BinOp, Cmp, DlSafetyFormula, GuardedChoice, Ident,
    IfThen, Number, Or, PlantSpec, RandomAssign, Seq, Var,
)
from plchp.ir import (
    DIV, EQ, GE, GT, LE, LT, MUL, SUB, list_to_seq,
)

DATA = Path(__file__).parent / "data"


def ident(name: str) -> Ident:
    return Ident(name)


def var(name: str) -> Var:
    return Var(Ident(name))


def num(lexeme: str) -> Number:
    return Number(lexeme)


# Variables of the running example.
x1, x2, f1, f2 = var("x1"), var("x2"), var("f1"), var("f2")
V1, V2, P = var("V1"), var("V2"), var("P")
H1, H2, L1, L2, LL, HH, FL, eps = (
    var("H1"), var("H2"), var("L1"), var("L2"), var("LL"), var("HH"),
    var("FL"), var("eps"),
)
t = ident("t")


def conj(*parts):
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


# ---------------------------------------------------------------------------
# The original ST control program (watertank_original.st)

ORIGINAL_GROUP1 = IfThen(
    Cmp(GE, x1, H1),
    Assign(V1.ident, num("0")),
    IfThen(Cmp(LE, x1, L1), Assign(V1.ident, num("1"))),
)
ORIGINAL_GROUP2 = IfThen(
    Cmp(LE, x2, L2),
    Seq(Assign(P.ident, num("1")), Assign(V2.ident, num("1"))),
)
ORIGINAL_GROUP3 = IfThen(
    Or(Or(Cmp(LE, x1, LL), Cmp(LE, f2, FL)), Cmp(GE, x2, H2)),
    Seq(Assign(P.ident, num("0")), Assign(V2.ident, num("0"))),
)
ORIGINAL_BODY = Seq(ORIGINAL_GROUP1, Seq(ORIGINAL_GROUP2, ORIGINAL_GROUP3))


# ---------------------------------------------------------------------------
# The hybrid program compiled from the original controller

CTRL_GROUP1 = GuardedChoice(
    Cmp(GE, x1, H1),
    Assign(V1.ident, num("0")),
    GuardedChoice(Cmp(LE, x1, L1), Assign(V1.ident, num("1")), None, complemented=True),
    complemented=True,
)
CTRL_GROUP2 = GuardedChoice(
    Cmp(LE, x2, L2),
    Seq(Assign(P.ident, num("1")), Assign(V2.ident, num("1"))),
    None,
    complemented=True,
)
CTRL_GROUP3 = GuardedChoice(
    Or(Or(Cmp(LE, x1, LL), Cmp(LE, f2, FL)), Cmp(GE, x2, H2)),
    Seq(Assign(P.ident, num("0")), Assign(V2.ident, num("0"))),
    None,
    complemented=True,
)
ORIGINAL_CTRL = Seq(CTRL_GROUP1, Seq(CTRL_GROUP2, CTRL_GROUP3))

ASSUMPTIONS = conj(
    Cmp(LE, L1, x1), Cmp(LE, x1, H1), Cmp(LE, L2, x2), Cmp(LE, x2, H2),
    Cmp(EQ, V1, num("0")), Cmp(EQ, V2, num("0")), Cmp(EQ, P, num("0")),
    Cmp(GE, eps, num("0")), Cmp(GT, FL, num("0")),
    Cmp(LT, LL, L1), Cmp(LT, LL, L2),
    Cmp(LT, L1, H1), Cmp(LT, L2, H2), Cmp(LT, H1, HH), Cmp(LT, H2, HH),
)

SAFETY = conj(
    Cmp(LE, LL, x1), Cmp(LE, x1, HH), Cmp(LE, LL, x2), Cmp(LE, x2, HH),
)

X1_RATE = BinOp(SUB, BinOp(MUL, V1, f1), BinOp(MUL, BinOp(MUL, V2, P), f2))
X2_RATE = BinOp(MUL, BinOp(MUL, V2, P), f2)

PLANT = PlantSpec(
    odes=((x1.ident, X1_RATE), (x2.ident, X2_RATE)),
    clock=t,
    domain=conj(
        Cmp(GE, x1, num("0")), Cmp(GE, x2, num("0")),
        Cmp(GE, f1, num("0")), Cmp(GE, f2, num("0")),
    ),
    bound=eps,
)

MODEL_INPUTS = (f1.ident, f2.ident)


def original_model_body():
    """The loop body of the full original-model formula, flat right-fold."""
    from plchp.dl_syntax import plant_program
    from plchp.ir import seq_to_list

    return list_to_seq(
        [RandomAssign(f1.ident), RandomAssign(f2.ident)]
        + seq_to_list(ORIGINAL_CTRL)
        + seq_to_list(plant_program(PLANT))
    )


def compiled_model_golden() -> DlSafetyFormula:
    """What compiling the original unit with the bundled plant and
    assumption/safety fragments must produce: the original model with the
    task interval conjunct eps=1 appended."""
    return DlSafetyFormula(
        And(ASSUMPTIONS, Cmp(EQ, eps, num("1"))),
        original_model_body(),
        SAFETY,
    )


# ---------------------------------------------------------------------------
# The repaired (safe) controller

SAFE_GUARD1 = Cmp(GT, f1, BinOp(DIV, BinOp(SUB, HH, x1), eps))
SAFE_GUARD3 = Or(
    Or(
        Cmp(LT, X1_RATE, BinOp(DIV, BinOp(SUB, LL, x1), eps)),
        Cmp(LE, f2, FL),
    ),
    Cmp(GT, X2_RATE, BinOp(DIV, BinOp(SUB, HH, x2), eps)),
)

SAFE_GROUP1 = GuardedChoice(
    SAFE_GUARD1,
    Assign(V1.ident, num("0")),
    GuardedChoice(Cmp(LE, x1, L1), Assign(V1.ident, num("1")), None, complemented=True),
    complemented=True,
)
SAFE_GROUP3 = GuardedChoice(
    SAFE_GUARD3,
    Seq(Assign(P.ident, num("0")), Assign(V2.ident, num("0"))),
    None,
    complemented=True,
)
SAFE_CTRL = Seq(SAFE_GROUP1, Seq(CTRL_GROUP2, SAFE_GROUP3))


# ---------------------------------------------------------------------------
# The derived counterexample scenario (tank 1 overflow under the original
# controller; safe under the repaired one).

SCENARIO_PARAMS = {
    ident("HH"): 1000.0, ident("H1"): 800.0, ident("L1"): 500.0,
    ident("LL"): 250.0, ident("L2"): 500.0, ident("H2"): 800.0,
    ident("FL"): 0.1, ident("eps"): 10.0,
}
SCENARIO_INIT = {
    ident("x1"): 790.0, ident("x2"): 600.0,
    ident("V1"): 1.0, ident("V2"): 0.0, ident("P"): 0.0,
}
SCENARIO_INPUTS = {ident("f1"): 40.0, ident("f2"): 30.0}
