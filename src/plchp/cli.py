"""Command-line interface: st2hp, hp2st, analyze, difftest, simulate, comply.

Exit codes: 0 success, 1 domain failure (diagnostics on stderr), 2 usage
error. All randomness is seed-controlled, so identical invocations produce
identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from importlib import import_module
from pathlib import Path

from . import __version__
from .analysis import (
    classify_io, interval_exceeds_model, plant_fragment, resolve_epsilon,
    validate_scan_cycle_form,
)
from .dl_syntax import parse_dl_formula, parse_dl_model, parse_dl_program, print_dl_model
from .errors import InputFileError, NotNormalForm, ParseError, PlchpError
from .ir import Ident, State

# Names from modules that not every command runs. A handler binds those of
# the modules it runs (`_bind`), and `__getattr__` one looked up from
# outside. They stay module attributes, read when a handler calls them, so a
# tracer can swap one for a wrapper.
_LAZY = {
    "st_syntax": ("parse_st", "print_st"),
    "translate": ("prog_hp_to_st", "task_hp_to_st", "task_st_to_hp"),
    "semantics": ("GenConfig", "difftest"),
    "sim": (
        "CYCLE_COLUMN", "ConstantInputs", "CsvInputs", "IntegratorConfig", "SimConfig",
        "UniformInputs", "check_compliance", "check_safety", "read_trace_file", "simulate",
        "write_trace_file",
    ),
}

# hp2st's `--<kind>-name` options; `translate.DEFAULT_NAMES` holds their defaults.
NAME_KINDS = ("program", "config", "resource", "task", "instance")


def _bind(*modules: str) -> None:
    """Bind the `_LAZY` names of each of `modules`, keeping a name already
    bound, such as a tracer's wrapper."""
    for module in modules:
        source = import_module(f"{__package__}.{module}")
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(source, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, NotNormalForm) as exc:
        file = getattr(args, "_current_file", "")
        sys.stderr.write(f"{file}:{exc}\n" if file else f"{exc}\n")
        return 1
    except PlchpError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:  # a missing, unreadable or unwritable file
        sys.stderr.write(f"error: {exc.filename}: {exc.strerror}\n")
        return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `plchp` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="plchp",
        description="Bidirectional compiler between PLC structured text and "
                    "scan-cycle hybrid programs, with simulation and trace "
                    "compliance checking.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("st2hp", help="compile an ST program plus a plant into a safety formula")
    p.add_argument("st_file")
    p.add_argument("--plant", required=True, help="plant fragment (.dlhp): t:=0; {odes & domain}")
    p.add_argument("--assumptions", required=True, help="assumptions formula (.dlhp)")
    p.add_argument("--safety", required=True, help="safety formula (.dlhp)")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(handler=cmd_st2hp)

    p = sub.add_parser("hp2st", help="compile a scan-cycle model into an ST program")
    p.add_argument("dl_file")
    p.add_argument("--epsilon", type=float, help="task interval in seconds (required when symbolic)")
    p.add_argument("--out", help="output file (default: stdout)")
    for kind in NAME_KINDS:
        p.add_argument(f"--{kind}-name", type=_name)
    p.set_defaults(handler=cmd_hp2st)

    p = sub.add_parser("analyze", help="print static semantics and I/O classification of a model")
    p.add_argument("dl_file")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("difftest", help="differential test of both compilers against both semantics")
    p.add_argument("--n", type=_int_in(0), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=_int_in(1, 32), default=5)
    p.add_argument("--vars", type=_int_in(1, 26), default=6, help="size of the variable pool")
    p.add_argument("--report", help="write the full PASS/FAIL report to this file")
    p.set_defaults(handler=cmd_difftest)

    p = sub.add_parser("simulate", help="run a compiled controller against its ODE plant")
    p.add_argument("--model", required=True, help="scan-cycle model (.dlhp)")
    p.add_argument("--st", help="ST unit whose body replaces the compiled controller")
    p.add_argument("--inputs", required=True, help="JSON run configuration")
    p.add_argument("--cycles", type=_int_in(0), required=True)
    p.add_argument("--epsilon", type=float, help="cycle duration override (seconds)")
    p.add_argument("--substeps", type=_int_in(1), default=1000)
    p.add_argument("--integrator", choices=("auto", "rk4", "affine"), default="auto")
    p.add_argument("--check-assumptions", action="store_true")
    p.add_argument("--out", required=True, help="trace CSV output path")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("comply", help="check a recorded trace against a deterministic controller")
    p.add_argument("--model", required=True, help="scan-cycle model (.dlhp)")
    p.add_argument("--trace", required=True, help="trace CSV")
    p.set_defaults(handler=cmd_comply)

    return parser


def _int_in(low: int, high: int | None = None):
    """An argparse type: an integer from `low` to `high`, both included."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"from {low} to {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    return parse


def _name(text: str) -> str:
    """An argparse type: a name the generated ST can declare."""
    try:
        return Ident(text).name
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read(args, path: str) -> str:
    args._current_file = path
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise InputFileError(path, "not UTF-8 text") from None


def _model(args, path: str):
    """The scan-cycle model in file `path`, validated."""
    return validate_scan_cycle_form(parse_dl_model(_read(args, path)))


def cmd_st2hp(args) -> int:
    _bind("st_syntax", "translate")
    unit = parse_st(_read(args, args.st_file))
    plant = plant_fragment(parse_dl_program(_read(args, args.plant)))
    assumptions = parse_dl_formula(_read(args, args.assumptions))
    safety = parse_dl_formula(_read(args, args.safety))
    formula = task_st_to_hp(unit, plant, assumptions, safety)
    text = print_dl_model(formula)
    model = validate_scan_cycle_form(formula)
    io_spec = classify_io(model)
    sys.stderr.write(_io_summary(io_spec))
    if unit.config is not None:
        _warn("epsilon-exceeds-model", interval_exceeds_model(model, unit.config.interval))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_hp2st(args) -> int:
    _bind("st_syntax", "translate")
    model = _model(args, args.dl_file)
    names = {kind: name for kind in NAME_KINDS if (name := getattr(args, f"{kind}_name"))}
    unit, diags = task_hp_to_st(model, epsilon=args.epsilon, names=names)
    for warning in diags.warnings:
        _warn(warning.code, warning.message)
    text = print_st(unit)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _warn(code: str, message: str | None) -> None:
    """Print warning `message` on stderr; None warns of nothing."""
    if message is not None:
        sys.stderr.write(f"warning [{code}]: {message}\n")


def _io_summary(io_spec) -> str:
    def names(items):
        return ", ".join(str(x) for x in items) if items else "(none)"

    return (
        f"inputs: {names(io_spec.inputs)}\n"
        f"outputs: {names(io_spec.outputs)}\n"
        f"params: {names(io_spec.params)}\n"
    )


def cmd_analyze(args) -> int:
    model = _model(args, args.dl_file)
    symbolic = not isinstance(model.epsilon, float)
    epsilon = f"symbolic ({model.epsilon})" if symbolic else resolve_epsilon(model)
    vs = model.facts.var_sets
    io_spec = classify_io(model)

    def names(items) -> str:
        return ", ".join(sorted(str(x) for x in items)) if items else "(none)"

    sys.stdout.write(f"FV(ctrl): {names(vs.free)}\n")
    sys.stdout.write(f"BV(ctrl): {names(vs.bound)}\n")
    sys.stdout.write(f"MBV(ctrl): {names(vs.must_bound)}\n")
    sys.stdout.write(_io_summary(io_spec))
    sys.stdout.write(f"epsilon: {epsilon}\n")
    return 0


def cmd_difftest(args) -> int:
    _bind("semantics")
    pool = tuple(Ident(chr(ord("a") + i)) for i in range(args.vars))
    cfg = GenConfig(max_depth=args.depth, var_pool=pool, seed=args.seed)
    report = difftest(cfg, args.n)
    if args.report:
        Path(args.report).write_text(report.serialize(), encoding="utf-8")
    for failure in report.failures():
        sys.stdout.write(f"FAIL seed={failure.seed} kind={failure.kind}\n")
        for line in failure.detail.splitlines():
            sys.stdout.write(f"# {line}\n")
    sys.stdout.write(report.summary() + "\n")
    return 1 if report.failed else 0


def _load_run_config(args, model) -> tuple:
    import json  # only simulate reads JSON

    path = args.inputs
    try:
        raw = json.loads(_read(args, path))
    except json.JSONDecodeError as exc:
        raise InputFileError(path, exc.msg, exc.lineno, exc.colno) from None

    def member(obj: dict, key: str, default: dict) -> dict:
        value = obj.get(key, default)
        if not isinstance(value, dict):
            raise InputFileError(path, f"{key!r} must be a JSON object")
        return value

    def finite(v) -> float:
        # json reads NaN, Infinity and 1e999 as floats that are not finite.
        x = float(v)
        if not math.isfinite(x):
            raise ValueError(f"not a finite number: {v!r}")
        return x

    def bindings(obj: dict, key: str, value=finite) -> dict:
        """Member `key` of `obj`: an object binding variables to values."""
        out = {}
        for name, v in member(obj, key, {}).items():
            try:
                out[Ident(name)] = value(v)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputFileError(path, f"{key!r}: {name!r}: {exc}") from None
        return out

    def bounds(pair) -> tuple[float, float]:
        lo, hi = pair
        return finite(lo), finite(hi)

    if not isinstance(raw, dict):
        raise InputFileError(path, "a run configuration is a JSON object")
    params = bindings(raw, "params")
    init = bindings(raw, "init")
    spec = member(raw, "inputs", {"mode": "constant", "values": {}})
    mode = spec.get("mode", "constant")
    if mode == "constant":
        provider = ConstantInputs(bindings(spec, "values"))
    elif mode == "uniform":
        ranges = bindings(spec, "ranges", bounds)
        seed = spec.get("seed", 0)
        try:
            if seed.__class__ is bool or int(seed) != seed:
                raise ValueError(f"not an integer: {json.dumps(seed)}")
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputFileError(path, f"'seed': {exc}") from None
        provider = UniformInputs(ranges, seed=int(seed))
    elif mode == "csv":
        trace = spec.get("path")
        if not isinstance(trace, str):
            raise InputFileError(path, "input mode 'csv' needs a 'path' string")
        _, rows = read_trace_file(trace)
        by_cycle: dict = {}
        for row in rows:
            if by_cycle.setdefault(row[CYCLE_COLUMN], row) is not row:
                raise InputFileError(trace, f"two rows for cycle {row[CYCLE_COLUMN]}")
        # Cycle k reads the row of cycle k, until the first cycle with none.
        wanted, picked = set(model.inputs), []
        while len(picked) in by_cycle:
            picked.append({k: v for k, v in by_cycle[len(picked)].items() if k in wanted})
        provider = CsvInputs(tuple(picked))
    else:
        raise PlchpError(f"unknown input mode {mode!r}")
    return State(params | init), provider


def cmd_simulate(args) -> int:
    _bind("st_syntax", "translate", "sim")
    model = _model(args, args.model)
    if args.st:
        st_body = parse_st(_read(args, args.st)).body
    else:
        st_body, _ = prog_hp_to_st(model.ctrl)
    initial, provider = _load_run_config(args, model)
    cfg = SimConfig(
        epsilon=args.epsilon,
        integrator=IntegratorConfig(substeps=args.substeps, method=args.integrator),
        check_assumptions=args.check_assumptions,
    )
    records = simulate(model, st_body, provider, args.cycles, initial, cfg)
    epsilon = resolve_epsilon(model, args.epsilon)
    _warn("epsilon-exceeds-model", interval_exceeds_model(model, epsilon))
    io_spec = classify_io(model)
    write_trace_file(args.out, records, io_spec)
    if records and records[-1].domain_exit is not None:
        exit_info = records[-1].domain_exit
        sys.stderr.write(
            f"run stopped at cycle {records[-1].index}: {exit_info.describe()}\n"
        )
    violations = check_safety(records, model.safety)
    for v in violations:
        sys.stdout.write(f"violation cycle={v.cycle} phase={v.phase}\n")
    sys.stdout.write(f"cycles={len(records)} violations={len(violations)}\n")
    return 0


def cmd_comply(args) -> int:
    _bind("sim")
    model = _model(args, args.model)
    io_spec = classify_io(model)
    header, rows = read_trace_file(args.trace)
    report = check_compliance(model.ctrl, rows, io_spec, header)
    sys.stdout.write(report.serialize())
    return 1 if report.instances else 0
