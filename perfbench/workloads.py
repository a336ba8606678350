"""The benchmark's workloads.

Each workload is a single-process closed loop with one client: operation
`i + 1` starts only after operation `i` and its output check completed. An
operation is one or two `plchp` commands, called in process through
`plchp.cli.main(argv)` so that it does exactly what the user's command does,
minus interpreter start-up (which `setup_s` reports). plchp only ever reads
files this module generated into the run's work directory.
"""

from __future__ import annotations

import hashlib
import io
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import plchp.cli

import inputs

# Inputs of the output check recorded in expected.json come from this seed,
# whatever seed the run itself uses.
REFERENCE_SEED = 0


@dataclass
class Call:
    """One `plchp` command: exit code (or the exception it raised), captured
    output and the time spent inside `plchp.cli.main`."""

    argv: tuple
    code: object
    out: str
    err: str
    seconds: float

    @property
    def ok(self) -> bool:
        return self.code == 0


@dataclass
class Op:
    calls: list
    units: float = 0.0  # work units: scan cycles, ST tokens or difftest trials
    work_seconds: float = 0.0  # time of the calls that produce the units
    counts: dict = field(default_factory=dict)
    index: int = 0  # position in the run's sequence of operations

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.calls)

    @property
    def crashed(self) -> Optional[str]:
        for c in self.calls:
            if not c.ok:
                return f"{c.argv[0]} exited with {c.code}"
        return None


class Cli:
    """Runs `plchp` commands in process. `tracer.command` tells a traced
    run which command its spans belong to."""

    def __init__(self):
        self.tracer = None

    def __call__(self, *argv) -> Call:
        argv = tuple(str(a) for a in argv)
        if self.tracer is not None:
            self.tracer.command = argv[0]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = plchp.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = f"SystemExit({exc.code})"
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                code = type(exc).__name__
            seconds = perf_counter() - start
        return Call(argv, code, out.getvalue(), err.getvalue(), seconds)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Workload:
    name = ""
    why = ""
    aliases: dict = {}  # end-to-end metric -> its command-specific name
    pass_size = 1  # the loop only stops after a whole pass over the input pool
    setup_code = "import plchp.cli"
    reference_ops: tuple = (0,)

    def __init__(self, root: Path, work: Path, seed: int, cli: Cli):
        self.root = root
        self.work = work
        self.cli = cli
        self.rng = random.Random(seed)
        self.seen: dict[int, dict] = {}
        work.mkdir(parents=True)
        self.prepare()

    def data(self, name: str) -> str:
        return (self.root / "tests" / "data" / name).read_text(encoding="utf-8")

    def prepare(self) -> None:
        """Write the generated inputs into the work directory."""

    def setup_args(self) -> list[str]:
        return []

    def run(self, i: int) -> Op:
        raise NotImplementedError

    def outputs(self, i: int, op: Op) -> dict:
        """Output texts of a successful operation, checked for repeatability."""
        return {}

    def check(self, i: int, op: Op) -> Optional[str]:
        """None when the operation's outputs are correct, else what is wrong.
        Repeated inputs must give byte-identical outputs, so the outputs of
        an input are checked in full only the first time it runs."""
        texts = self.outputs(i, op)
        fingerprint = {name: digest(text) for name, text in texts.items()}
        first = self.seen.get(i % self.pass_size)
        if first is not None:
            if first != fingerprint:
                return f"op {i}: outputs differ from an earlier run of the same input"
            return None
        reason = self.check_outputs(texts)
        if reason is None:
            self.seen[i % self.pass_size] = fingerprint
        return reason

    def check_outputs(self, texts: dict) -> Optional[str]:
        return None

    def may_fail(self, i: int, reason: str) -> bool:
        """Whether operation i failing for this reason is a known defect of
        plchp rather than a wrong output. Any other failure makes the run
        incorrect."""
        return False

    def rates(self, ops: list) -> list[float]:
        """Work rates of the successful operations `ops`, one per operation."""
        return [op.units / op.work_seconds for op in ops]

    def latencies_ms(self, ops: list) -> list[float]:
        """Latencies of the successful operations `ops` that the latency
        metrics cover."""
        return [op.seconds * 1e3 for op in ops]

    def extra_metrics(self, ops: list) -> dict:
        """Command-specific metrics beyond the end-to-end set: name -> (value, unit)."""
        return {}

    def reference(self) -> dict:
        """Digests of the outputs of the reference operations; a crash is
        recorded in their place, so that it shows as a mismatch."""
        record = {}
        for i in self.reference_ops:
            op = self.run(i)
            if op.crashed:
                record[f"{i}:crash"] = op.crashed
                continue
            for name, text in self.outputs(i, op).items():
                record[f"{i}:{name}"] = digest(text)
        return record


class Tank(Workload):
    """A water-tank workload: `simulate` a generated run of the model, then
    `comply` on its trace."""

    pass_size = 8
    setup_code = (
        "import sys, plchp.cli\n"
        "from plchp import parse_dl_model, validate_scan_cycle_form\n"
        "validate_scan_cycle_form(parse_dl_model(open(sys.argv[1]).read()))\n"
    )
    cycles = 0

    def prepare(self) -> None:
        self.model = self.work / "model.dlhp"
        self.model.write_text(self.model_text(), encoding="utf-8")
        self.runs = []
        for k in range(self.pass_size):
            path = self.work / f"run{k}.json"
            self.write_run(k, path)
            self.runs.append(path)

    def model_text(self) -> str:
        raise NotImplementedError

    def write_run(self, k: int, path: Path) -> None:
        raise NotImplementedError

    def simulate_argv(self, i: int) -> list:
        raise NotImplementedError

    def setup_args(self) -> list[str]:
        return [str(self.model)]

    def trace(self, i: int) -> Path:
        return self.work / f"trace{i % self.pass_size}.csv"

    def run(self, i: int) -> Op:
        sim = self.cli(*self.simulate_argv(i))
        calls = [sim]
        if sim.ok:
            calls.append(self.cli("comply", "--model", self.model, "--trace", self.trace(i)))
        return Op(calls, units=self.cycles, work_seconds=sim.seconds, counts=self.counts())

    def counts(self) -> dict:
        return {"cycles": self.cycles, "rows": self.cycles}

    def outputs(self, i: int, op: Op) -> dict:
        return {
            "simulate": op.calls[0].out,
            "trace": self.trace(i).read_text(encoding="utf-8"),
            "comply": op.calls[1].out,
        }

    def check_outputs(self, texts: dict) -> Optional[str]:
        # The repaired controller is proven safe, so every run is clean;
        # comply exits 0 only when no row deviates.
        if not texts["simulate"].endswith(f"cycles={self.cycles} violations=0\n"):
            return f"simulate reported {texts['simulate'][-60:]!r}"
        if f"checked={self.cycles} " not in texts["comply"]:
            return f"comply reported {texts['comply']!r}"
        return None


class TankAffine(Tank):
    name = "tank-affine"
    why = ("criterion-7 water tank, f1,f2 uniform in [0,50], affine closed form, "
           "each trace checked by comply: run_st, eval_formula, State, trace I/O; "
           "front end idle")
    aliases = {"work_per_s": "sim.cycles_per_s p10",
               "work_per_s_p50": "sim.cycles_per_s median"}
    cycles = 100

    def model_text(self) -> str:
        return self.data("watertank_safe_model.dlhp")

    def write_run(self, k: int, path: Path) -> None:
        inputs.write_uniform_run(path, self.rng)

    def simulate_argv(self, i: int) -> list:
        return ["simulate", "--model", self.model, "--inputs", self.runs[i % self.pass_size],
                "--cycles", self.cycles, "--epsilon", 10, "--integrator", "affine",
                "--out", self.trace(i)]

    def extra_metrics(self, ops: list) -> dict:
        return {"comply.rows_per_s": (statistics.median(
            op.counts["rows"] / op.calls[1].seconds for op in ops), "1/s")}


class TankRk4(Tank):
    name = "tank-rk4"
    why = ("same controller, tank 2 with level-proportional outflow so auto picks "
           "RK4, inputs from a generated CSV: the plant integrator does ~all the work")
    aliases = {"work_per_s": "sim.cycles_per_s p10",
               "work_per_s_p50": "sim.cycles_per_s median"}
    cycles = 3
    substeps = 200

    def model_text(self) -> str:
        return inputs.rk4_model_text(self.data("watertank_safe_model.dlhp"))

    def write_run(self, k: int, path: Path) -> None:
        inputs.write_csv_run(path, self.work / f"inputs{k}.csv", self.cycles, self.rng)

    def simulate_argv(self, i: int) -> list:
        return ["simulate", "--model", self.model, "--inputs", self.runs[i % self.pass_size],
                "--cycles", self.cycles, "--epsilon", 10, "--substeps", self.substeps,
                "--out", self.trace(i)]

    def counts(self) -> dict:
        return {**super().counts(), "substeps": self.cycles * self.substeps}


# Top-level statement counts of one pass of plc-compile: a ladder from tens
# of statements to 900, then one past the ~1000 statements (measured: 980
# compile, 1000 do not) at which `st2hp` exhausts the recursion limit.
CONTROLLER_SIZES = (30, 60, 120, 270, 900, 1100)
ST2HP_STATEMENT_LIMIT = 1000
LARGEST_COMPILED = max(size for size in CONTROLLER_SIZES if size < ST2HP_STATEMENT_LIMIT)


class PlcCompile(Workload):
    name = "plc-compile"
    why = ("st2hp then hp2st on generated ST controllers of 30 to 1100 statements; "
           "front end only. 1 of 6 is past st2hp's recursion limit, so ok_ratio is 5/6")
    aliases = {"work_per_s": "compile.tokens_per_s p10 over passes",
               "work_per_s_p50": "compile.tokens_per_s median over passes",
               "op_ms_p50": f"compile.ms_p50 of the {LARGEST_COMPILED}-statement controller",
               "op_ms_p90": f"compile.ms_p90 of the {LARGEST_COMPILED}-statement controller"}
    pass_size = len(CONTROLLER_SIZES)
    reference_ops = (0, 2, 4)  # smallest, middle and largest that compile
    setup_code = (
        "import sys, plchp.cli\n"
        "from plchp import parse_dl_formula, parse_dl_program\n"
        "parse_dl_program(open(sys.argv[1]).read())\n"
        "parse_dl_formula(open(sys.argv[2]).read())\n"
        "parse_dl_formula(open(sys.argv[3]).read())\n"
    )

    def prepare(self) -> None:
        self.fragments = []
        for part in ("plant", "assumptions", "safety"):
            path = self.work / f"{part}.dlhp"
            path.write_text(self.data(f"watertank_{part}.dlhp"), encoding="utf-8")
            self.fragments.append(path)
        self.controllers = []
        for k, size in enumerate(CONTROLLER_SIZES):
            text, tokens = inputs.st_controller(self.rng, size)
            path = self.work / f"ctrl{k}.st"
            path.write_text(text, encoding="utf-8")
            self.controllers.append((path, tokens))

    def setup_args(self) -> list[str]:
        return [str(p) for p in self.fragments]

    def run(self, i: int) -> Op:
        k = i % self.pass_size
        source, tokens = self.controllers[k]
        plant, assumptions, safety = self.fragments
        model, back = self.work / f"model{k}.dlhp", self.work / f"back{k}.st"
        calls = [self.cli("st2hp", source, "--plant", plant, "--assumptions", assumptions,
                          "--safety", safety, "--out", model)]
        if calls[0].ok:
            calls.append(self.cli("hp2st", model, "--out", back))
        op = Op(calls, units=tokens)
        op.work_seconds = op.seconds
        return op

    def may_fail(self, i: int, reason: str) -> bool:
        # The known defect: past the limit, st2hp dies with a RecursionError.
        return (CONTROLLER_SIZES[i % self.pass_size] > ST2HP_STATEMENT_LIMIT
                and reason == "st2hp exited with RecursionError")

    def rates(self, ops: list) -> list[float]:
        """Tokens per second of each pass: the tokens of the controllers
        that compiled over the time they took."""
        passes: dict[int, list] = {}
        for op in ops:
            total = passes.setdefault(op.index // self.pass_size, [0.0, 0.0])
            total[0] += op.units
            total[1] += op.work_seconds
        return [tokens / seconds for tokens, seconds in passes.values()]

    def latencies_ms(self, ops: list) -> list[float]:
        """Only the largest controller that compiles. A percentile over the
        whole ladder would land on whichever size holds its rank."""
        k = CONTROLLER_SIZES.index(LARGEST_COMPILED)
        return [op.seconds * 1e3 for op in ops if op.index % self.pass_size == k]

    def outputs(self, i: int, op: Op) -> dict:
        k = i % self.pass_size
        return {
            "model": (self.work / f"model{k}.dlhp").read_text(encoding="utf-8"),
            "st": (self.work / f"back{k}.st").read_text(encoding="utf-8"),
        }

    def check_outputs(self, texts: dict) -> Optional[str]:
        # Compare printed text: IR equality on a deep body overflows the
        # recursion limit.
        from plchp import parse_dl_model, parse_st, print_st
        from plchp.dl_syntax import print_dl_model

        if print_dl_model(parse_dl_model(texts["model"])) != texts["model"]:
            return "st2hp output is not a print/parse fixpoint"
        if print_st(parse_st(texts["st"])) != texts["st"]:
            return "hp2st output is not a print/parse fixpoint"
        return None


class Difftest(Workload):
    name = "difftest-d5"
    why = ("difftest --depth 5 --vars 6, 50 trials per op: the only user of hp_reachable, "
           "the gen_* generators and State hashing; most trials regenerate")
    aliases = {"work_per_s": "difftest.trials_per_s p10",
               "work_per_s_p50": "difftest.trials_per_s median"}
    trials = 50

    def prepare(self) -> None:
        self.seeds: list[int] = []

    def seed_of(self, i: int) -> int:
        while len(self.seeds) <= i:
            self.seeds.append(self.rng.randrange(2**31))
        return self.seeds[i]

    def argv(self, i: int) -> list:
        return ["difftest", "--n", self.trials, "--seed", self.seed_of(i),
                "--depth", 5, "--vars", 6]

    def run(self, i: int) -> Op:
        call = self.cli(*self.argv(i))
        return Op([call], units=self.trials, work_seconds=call.seconds)

    def check(self, i: int, op: Op) -> Optional[str]:
        # Every operation has its own seed, so there is no repeat to compare.
        summary = op.calls[0].out.strip()
        if summary != f"total={self.trials} failed=0":
            return f"difftest reported {summary!r}"
        return None

    def reference(self) -> dict:
        from plchp.ir import Ident
        from plchp.semantics import GenConfig, difftest

        report_path = self.work / "report.txt"
        call = self.cli(*self.argv(0), "--report", report_path)
        if not call.ok:
            return {"0:crash": f"difftest exited with {call.code}"}
        pool = tuple(Ident(chr(ord("a") + v)) for v in range(6))
        report = difftest(GenConfig(max_depth=5, var_pool=pool, seed=self.seed_of(0)), self.trials)
        return {
            "0:summary": call.out.strip(),
            "0:report": digest(report_path.read_text(encoding="utf-8")),
            "0:regenerated": report.regenerated,
        }


WORKLOADS = {w.name: w for w in (TankAffine, TankRk4, PlcCompile, Difftest)}

