"""Trace reading and compliance checking held to cell-by-cell references.

`read_trace` converts a whole row at once, and `check_compliance` reads a
row's sensors and actuators through getters built once per trace. The
references below read every cell on its own, and replay each row as a
`State` through `run_st`. On every generated trace the two must agree on
the rows, the report, and the class and message of any error.
"""

import io
import random
from math import isfinite

import pytest

import golden
from plchp import (
    Ident, State, check_compliance, classify_io, parse_dl_model, validate_scan_cycle_form,
)
from plchp.errors import InputFileError, PlchpError
from plchp.semantics import run_st
from plchp.sim import read_trace
from plchp.translate import prog_hp_to_st


def error(exc) -> tuple:
    return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# read_trace

def reference_rows(header: list, lines: list) -> list:
    """The rows of a trace with no comments, one cell at a time."""
    rows = []
    for line, cells in enumerate(lines, 2):
        row = {}
        for col, (name, cell) in enumerate(zip(header, cells), 1):
            try:
                value = int(cell) if name == "cycle" else float(cell)
            except ValueError:
                raise InputFileError(
                    "<trace>", f"column {col} ({name}): not a number: {cell!r}", line) from None
            if name != "cycle" and not isfinite(value):
                raise InputFileError(
                    "<trace>", f"column {col} ({name}): not a finite number: {cell!r}", line)
            row["cycle" if name == "cycle" else Ident(name)] = value
        rows.append(row)
    return rows


GOOD = ("0", "1", "-2.5", "3e2", " 4 ", "1_0", "17")
BAD = ("0.5", "nan", "inf", "-inf", "1e999", "x", "", "9" * 400)


def generated_trace(seed):
    rng = random.Random(seed)
    # Two columns at least: a row of one empty cell is a blank line, skipped.
    header = ["cycle", "a", "b", "c"][:rng.randint(2, 4)]
    rng.shuffle(header)
    lines = [[rng.choice(BAD if rng.random() < 0.05 else GOOD) for _ in header]
             for _ in range(rng.randint(0, 5))]
    return header, lines


def outcome(read, header, lines):
    try:
        rows = read(header, lines)
    except PlchpError as exc:
        return error(exc)
    return [[(key, type(value), value) for key, value in row.items()] for row in rows]


def plchp_rows(header, lines):
    text = "".join(",".join(cells) + "\n" for cells in [header, *lines])
    return read_trace(io.StringIO(text))[1]


def test_rows_read_whole_match_rows_read_cell_by_cell():
    kinds = set()
    for seed in range(1500):
        header, lines = generated_trace(seed)
        expected = outcome(reference_rows, header, lines)
        assert outcome(plchp_rows, header, lines) == expected, (header, lines)
        kinds.add(expected[0] if isinstance(expected, tuple) else "rows")
    assert kinds == {"rows", "InputFileError"}


# ---------------------------------------------------------------------------
# check_compliance

def reference_violations(ctrl, rows, io_spec) -> list:
    """(cycle, description) of each row whose recorded actuators are not the
    controller's, replaying the row as a State."""
    body, _ = prog_hp_to_st(ctrl)
    violating = []
    prev = None
    for row in rows:
        if prev is None:
            prev = {x: row[x] for x in io_spec.outputs}
        sensors = {x: row[x] for x in io_spec.inputs + io_spec.params}
        after = run_st(body, State(sensors | prev))
        for x in io_spec.outputs:
            if after.get(x) != row[x]:
                violating.append((row["cycle"], f"{x} expected {after.get(x)!r} recorded {row[x]!r}"))
                break
        prev = {x: row[x] for x in io_spec.outputs}
    return violating


MODELS = [validate_scan_cycle_form(parse_dl_model((golden.DATA / name).read_text()))
          for name in ("watertank_safe_model.dlhp", "watertank_original_model.dlhp")]


def generated_rows(seed, io_spec):
    rng = random.Random(seed)
    rows = []
    for k in range(rng.randint(0, 8)):
        # Cycles two apart, so that each violation is an instance of its own.
        row = {"cycle": 2 * k} | dict(golden.SCENARIO_PARAMS)
        row |= {x: rng.uniform(200.0, 1000.0) for x in (Ident("x1"), Ident("x2"))}
        row |= {x: rng.choice((0.0, 5.0, 40.0)) for x in (Ident("f1"), Ident("f2"))}
        row |= {x: rng.choice((0.0, 1.0, 1)) for x in io_spec.outputs}
        if rng.random() < 0.03:
            row[Ident("eps")] = 0.0  # the controller divides by it
        rows.append(row)
    return rows


@pytest.mark.parametrize("model", MODELS, ids=["safe", "original"])
def test_compliance_matches_a_state_replay(model):
    io_spec = classify_io(model)
    kinds = set()
    for seed in range(300):
        rows = generated_rows(seed, io_spec)
        try:
            expected = [(c, c, text) for c, text in reference_violations(model.ctrl, rows, io_spec)]
        except PlchpError as exc:
            expected = error(exc)
        try:
            report = check_compliance(model.ctrl, rows, io_spec)
            got = [(i.start_cycle, i.end_cycle, i.description) for i in report.instances]
        except PlchpError as exc:
            got = error(exc)
        assert got == expected, seed
        kinds.add(expected[0] if isinstance(expected, tuple) else bool(expected))
    assert {True, False} <= kinds
