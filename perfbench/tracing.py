"""Layer spans for the traced run.

plchp itself is not instrumented. The tracer replaces, for the length of one
traced operation, the module-level names through which one plchp module
calls another (for example `plchp.sim.run_st` or `plchp.cli.parse_st`) with
timing wrappers, and restores them afterwards. Only the calls that cross a
module boundary are timed: recursive calls inside a module look up their
own module's name and are not wrapped.

A span's self time is its duration minus that of the spans it caused; the
layer of a span is the first part of its name. `plchp.cli.main` is the root
span, so the self times of all layers add up to the traced operation time.
Spans are aggregated in memory as they end, keyed by command and span name.
"""

from __future__ import annotations

import importlib
from time import perf_counter

LAYERS = ("cli", "st_syntax", "dl_syntax", "translate", "analysis", "semantics", "sim", "ir")

# (calling module or class, attribute, span name)
BOUNDARIES = (
    ("plchp.cli", "main", "cli.main"),
    ("plchp.cli", "parse_st", "st_syntax.parse_st"),
    ("plchp.cli", "print_st", "st_syntax.print_st"),
    ("plchp.cli", "parse_dl_model", "dl_syntax.parse_dl_model"),
    ("plchp.cli", "parse_dl_formula", "dl_syntax.parse_dl_formula"),
    ("plchp.cli", "parse_dl_program", "dl_syntax.parse_dl_program"),
    ("plchp.cli", "print_dl_model", "dl_syntax.print_dl_model"),
    ("plchp.cli", "validate_scan_cycle_form", "analysis.validate_scan_cycle_form"),
    ("plchp.cli", "classify_io", "analysis.classify_io"),
    ("plchp.cli", "task_st_to_hp", "translate.task_st_to_hp"),
    ("plchp.cli", "task_hp_to_st", "translate.task_hp_to_st"),
    ("plchp.cli", "prog_hp_to_st", "translate.prog_hp_to_st"),
    ("plchp.cli", "difftest", "semantics.difftest"),
    ("plchp.cli", "simulate", "sim.simulate"),
    ("plchp.cli", "check_safety", "sim.check_safety"),
    ("plchp.cli", "write_trace_file", "sim.write_trace_file"),
    ("plchp.cli", "read_trace_file", "sim.read_trace_file"),
    ("plchp.cli", "check_compliance", "sim.check_compliance"),
    ("plchp.translate", "classify_io", "analysis.classify_io"),
    ("plchp.translate", "extract_epsilon", "analysis.extract_epsilon"),
    ("plchp.translate", "plant_program", "dl_syntax.plant_program"),
    ("plchp.sim", "run_st", "semantics.run_st"),
    ("plchp.sim", "eval_formula", "semantics.eval_formula"),
    ("plchp.sim", "eval_term", "semantics.eval_term"),
    ("plchp.sim", "fully_complemented", "semantics.fully_complemented"),
    ("plchp.sim", "derive_seed", "semantics.derive_seed"),
    ("plchp.sim", "prog_hp_to_st", "translate.prog_hp_to_st"),
    ("plchp.sim", "extract_epsilon", "analysis.extract_epsilon"),
    ("plchp.sim", "collect_vars", "ir.collect_vars"),
    ("plchp.sim", "conjuncts", "ir.conjuncts"),
    ("plchp.sim", "integrate_plant", "sim.integrate_plant"),
    ("plchp.sim", "_integrate_affine", "sim.integrate_affine"),
    ("plchp.sim", "_integrate_rk4", "sim.integrate_rk4"),
    ("plchp.semantics", "gen_state", "semantics.gen_state"),
    ("plchp.semantics", "gen_st", "semantics.gen_st"),
    ("plchp.semantics", "gen_hp", "semantics.gen_hp"),
    ("plchp.semantics", "gen_term", "semantics.gen_term"),
    ("plchp.semantics", "gen_formula", "semantics.gen_formula"),
    ("plchp.semantics", "hp_reachable", "semantics.hp_reachable"),
    ("plchp.semantics", "prog_st_to_hp", "translate.prog_st_to_hp"),
    ("plchp.semantics", "prog_hp_to_st", "translate.prog_hp_to_st"),
    ("plchp.semantics", "term_st_to_hp", "translate.term_st_to_hp"),
    ("plchp.semantics", "term_hp_to_st", "translate.term_hp_to_st"),
    ("plchp.semantics", "formula_st_to_hp", "translate.formula_st_to_hp"),
    ("plchp.semantics", "formula_hp_to_st", "translate.formula_hp_to_st"),
    # The State type, whoever calls it. Construction counts as one span;
    # set/set_many copy the bindings and then construct.
    ("plchp.ir:State", "__init__", "ir.State"),
    ("plchp.ir:State", "set", "ir.State.set"),
    ("plchp.ir:State", "set_many", "ir.State.set_many"),
    ("plchp.ir:State", "__eq__", "ir.State.__eq__"),
    ("plchp.ir:State", "__hash__", "ir.State.__hash__"),
)

def _resolve(owner: str):
    """`package.module` or `package.module:Class`."""
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Tracer:
    def __init__(self):
        self.command = ""
        self.stack: list[float] = []  # child time of each open span
        self.stats: dict[tuple[str, str], list] = {}  # (command, name) -> [calls, total, self]
        self.reports: list = []  # DiffReports, which alone carry regeneration counts
        self.targets = [(_resolve(owner), attr, name) for owner, attr, name in BOUNDARIES]
        self.originals = [getattr(obj, attr) for obj, attr, _ in self.targets]
        self.wrappers = [self._wrap(name, fn)
                         for (_, _, name), fn in zip(self.targets, self.originals)]

    def install(self) -> None:
        for (obj, attr, _), wrapper in zip(self.targets, self.wrappers):
            setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for (obj, attr, _), original in zip(self.targets, self.originals):
            setattr(obj, attr, original)
        self.stack.clear()

    def _wrap(self, name: str, fn):
        stack, stats = self.stack, self.stats
        kept = self.reports if name == "semantics.difftest" else None

        def traced(*args, **kwargs):
            depth = len(stack)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if kept is not None:
                    kept.append(result)
                return result
            finally:
                elapsed = perf_counter() - start
                child = stack[depth]
                del stack[depth:]
                if stack:
                    stack[-1] += elapsed
                key = (self.command, name)
                stat = stats.get(key)
                if stat is None:
                    stat = stats[key] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child

        traced.__wrapped__ = fn
        return traced

    def calls(self, *names: str, command: str = "") -> int:
        return sum(s[0] for (cmd, n), s in self.stats.items()
                   if n in names and (not command or cmd == command))

    def total(self, *names: str) -> float:
        return sum(s[1] for (_, n), s in self.stats.items() if n in names)

    def layer_self(self, layer: str) -> float:
        return sum(s[2] for (_, n), s in self.stats.items() if n.split(".")[0] == layer)


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def per_layer(tracer: Tracer, ops: list, untraced_s: float) -> dict:
    """Per-layer metrics of the traced operations `ops`. Times ending in `_s`
    are seconds per operation and include the spans a call caused; the
    `<layer>.self_s` times exclude them and add up to the operation time."""
    t = tracer
    n = len(ops)
    traced_s = sum(op.seconds for op in ops)
    cycles = sum(op.counts.get("cycles", 0) for op in ops)
    rows = sum(op.counts.get("rows", 0) for op in ops)
    substeps = sum(op.counts.get("substeps", 0) for op in ops)
    trials = sum(r.total for r in t.reports)
    regens = sum(r.regenerated for r in t.reports)
    run_st_calls = t.calls("semantics.run_st")

    m = {
        "st_syntax.parse_s": _per(t.total("st_syntax.parse_st"), n),
        "st_syntax.print_s": _per(t.total("st_syntax.print_st"), n),
        "dl_syntax.parse_s": _per(t.total(
            "dl_syntax.parse_dl_model", "dl_syntax.parse_dl_formula",
            "dl_syntax.parse_dl_program"), n),
        "dl_syntax.print_s": _per(t.total("dl_syntax.print_dl_model"), n),
        "translate.st2hp_s": _per(t.total(
            "translate.task_st_to_hp", "translate.prog_st_to_hp",
            "translate.term_st_to_hp", "translate.formula_st_to_hp"), n),
        "translate.hp2st_s": _per(t.total(
            "translate.task_hp_to_st", "translate.prog_hp_to_st",
            "translate.term_hp_to_st", "translate.formula_hp_to_st"), n),
        "analysis.validate_s": _per(t.total("analysis.validate_scan_cycle_form"), n),
        "analysis.classify_io_s": _per(t.total("analysis.classify_io"), n),
        "semantics.run_st_us": 1e6 * _per(t.total("semantics.run_st"), run_st_calls),
        "semantics.run_st_calls": _per(run_st_calls, n),
        "semantics.eval_formula_calls": _per(t.calls("semantics.eval_formula"), n),
        "ir.states_per_cycle": _per(t.calls("ir.State", command="simulate"), cycles),
        "sim.affine_cycle_us": 1e6 * _per(t.total("sim.integrate_affine"),
                                          t.calls("sim.integrate_affine")),
        "sim.check_safety_s": _per(t.total("sim.check_safety"), n),
        "sim.write_trace_s": _per(t.total("sim.write_trace_file"), n),
        "sim.read_trace_s": _per(t.total("sim.read_trace_file"), n),
        "sim.comply_row_us": 1e6 * _per(t.total("sim.check_compliance"), rows),
        "translate.prog_hp_to_st_calls": _per(t.calls("translate.prog_hp_to_st"), n),
        "analysis.classify_io_calls": _per(t.calls("analysis.classify_io"), n),
        "sim.rk4_substep_us": 1e6 * _per(t.total("sim.integrate_rk4"), substeps),
        "sim.integrate_plant_calls": _per(t.calls("sim.integrate_plant"), n),
        "semantics.hp_reachable_s": _per(t.total("semantics.hp_reachable"), n),
        "semantics.gen_s": _per(t.total(
            "semantics.gen_state", "semantics.gen_st", "semantics.gen_hp",
            "semantics.gen_term", "semantics.gen_formula"), n),
        "semantics.regen_per_trial": _per(regens, trials),
        "semantics.trial_ok_ratio": _per(trials, trials + regens),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _per(t.layer_self(layer), n)
    m["trace.overhead_pct"] = 100 * _per(traced_s - untraced_s, untraced_s)
    return m


UNITS = {"_s": "s", "_us": "us", "_calls": "count", "_pct": "%",
         "_per_cycle": "count", "_per_trial": "count", "_ratio": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {metric}")
