"""plchp benchmark: one workload per run, or every workload in turn.

    python3 perfbench/run.py --workload tank-affine --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload plc-compile --seed 1 --seconds 5 --profile 25
    python3 perfbench/run.py --workload difftest-d5 --record

Run from the repository root. The run prints its environment and every
metric by name with its unit, then, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The metric definitions
are in BENCHMARK.json and README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
SETUP_SAMPLES = 9


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", type=int, metavar="N",
                   help="instead of measuring, print the top N functions under cProfile")
    p.add_argument("--record", action="store_true",
                   help="record the reference outputs in expected.json instead of measuring")
    return p.parse_args(argv)


def revision() -> str:
    """Commit of the checkout, read without running git; unknown outside a
    git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class SetupClock:
    """Wall time of a fresh interpreter that imports plchp and loads and
    validates the workload's model. The samples are spread evenly over the
    timed run, so that their median sees the same stretch of host speed as
    the operations do."""

    def __init__(self, workload, seconds: float):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), self.env.get("PYTHONPATH")]))
        self.argv = [sys.executable, "-c", workload.setup_code, *workload.setup_args()]
        self.interval = seconds / SETUP_SAMPLES
        self.times: list[float] = []
        self.start()  # the first start also writes the bytecode cache
        self.due = perf_counter()

    def start(self) -> float:
        begin = perf_counter()
        subprocess.run(self.argv, env=self.env, cwd=ROOT, check=True)
        return perf_counter() - begin

    def tick(self) -> None:
        """Take a sample if the next one is due."""
        if len(self.times) < SETUP_SAMPLES and perf_counter() >= self.due:
            self.times.append(self.start())
            self.due += self.interval

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            self.times.append(self.start())
        return statistics.median(self.times)


def check_reference(workload_cls, work: Path, cli, record: bool) -> list[str]:
    """Compare the outputs of the reference inputs with expected.json."""
    got = workload_cls(ROOT, work, REFERENCE_SEED, cli).reference()
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    if record:
        expected[workload_cls.name] = got
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        return []
    want = expected.get(workload_cls.name)
    if want is None:
        return [f"no reference outputs recorded for {workload_cls.name}"]
    return [f"reference output {key}: expected {want.get(key)!r}, got {got.get(key)!r}"
            for key in sorted(set(want) | set(got)) if want.get(key) != got.get(key)]


class Loop:
    """Closed loop over a workload's operations, each checked after it ran."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[tuple[int, str]] = []  # (operation, what went wrong)

    def step(self, i: int, tracer=None):
        """Run and check operation i; return it and whether it succeeded."""
        if tracer is not None:
            tracer.install()
        try:
            op = self.workload.run(i)
        finally:
            if tracer is not None:
                tracer.uninstall()
        op.index = i
        self.attempted += 1
        reason = op.crashed or self.workload.check(i, op)
        if reason is not None:
            self.failures.append((i, reason))
        return op, reason is None

    def unexpected(self) -> list[str]:
        """Failures other than the workload's known ones."""
        return [reason for i, reason in self.failures
                if not self.workload.may_fail(i, reason)]

    def until(self, seconds: float, body, at_pass=None) -> None:
        """Call body(i) until the time is up and at least two passes over
        the input pool are complete; call at_pass() before each pass."""
        deadline = perf_counter() + seconds
        size = self.workload.pass_size
        i = 0
        while True:
            if at_pass is not None and i % size == 0:
                at_pass()
            body(i)
            i += 1
            if perf_counter() >= deadline and i % size == 0 and i >= 2 * size:
                return


def measure(loop: Loop, seconds: float, at_pass=None) -> list:
    ops = []

    def body(i):
        op, ok = loop.step(i)
        if ok:
            ops.append(op)

    loop.until(seconds, body, at_pass)
    return ops


def measure_traced(loop: Loop, seconds: float, tracer) -> tuple[list, float]:
    """Each input runs untraced and traced, in alternating order. Returns
    the traced operations, failed ones included because their spans are
    recorded too, and the untraced time of the same inputs."""
    traced, untraced_s = [], 0.0

    def body(i):
        nonlocal untraced_s
        if i % 2:
            with_spans, _ = loop.step(i, tracer)
            plain, _ = loop.step(i)
        else:
            plain, _ = loop.step(i)
            with_spans, _ = loop.step(i, tracer)
        untraced_s += plain.seconds
        traced.append(with_spans)

    loop.until(seconds, body)
    return traced, untraced_s


def end_to_end(ops: list, loop: Loop, setup_s: float) -> tuple[dict, dict]:
    """The gated metrics, and the medians, which are printed only.

    On the 2-core VM this was tuned on, CPU speed alternates for tens of
    seconds at a time between a slow phase and one up to twice as fast, and
    a 25 s run often falls mostly in one of them. The median moves with the
    phase; the slowest tenth of operations nearly always comes from the slow
    phase, so the gated metrics are the work rate that 90% of operations
    (or, on plc-compile, of passes) reached and the 90th percentile
    latency."""
    latency_ms = loop.workload.latencies_ms(ops)
    rates = loop.workload.rates(ops)
    gated = {
        "setup_s": (setup_s, "s"),
        "work_per_s": (statistics.quantiles(rates, n=10, method="inclusive")[0], "1/s"),
        "op_ms_p90": (statistics.quantiles(latency_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((loop.attempted - len(loop.failures)) / loop.attempted, "ratio"),
    }
    medians = {
        "work_per_s_p50": (statistics.median(rates), "1/s"),
        "op_ms_p50": (statistics.median(latency_ms), "ms"),
    }
    return gated, medians


def profile(loop: Loop, seconds: float, top: int) -> None:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    measure(loop, seconds)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("tottime").print_stats(top)


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    workload_cls = WORKLOADS[args.workload]
    print(f"env: python={platform.python_version()} cpu_count={os.cpu_count()} "
          f"revision={revision()} workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {workload_cls.why}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cli = Cli()
    try:
        mismatches = check_reference(workload_cls, work / "reference", cli, args.record)
        if args.record:
            print(f"recorded reference outputs of {args.workload} in {EXPECTED}")
            return 0
        workload = workload_cls(ROOT, work / "run", args.seed, cli)
        loop = Loop(workload)
        if args.profile:
            profile(loop, args.seconds, args.profile)
            return 0
        if args.trace:
            tracer = Tracer()
            cli.tracer = tracer
            ops, untraced_s = measure_traced(loop, args.seconds, tracer)
            metrics = {name: (value, unit_of(name))
                       for name, value in per_layer(tracer, ops, untraced_s).items()}
        else:
            setup = SetupClock(workload, args.seconds)
            ops = measure(loop, args.seconds, setup.tick)
            setup_s = setup.median()
            if min(len(ops), len(workload.rates(ops)), len(workload.latencies_ms(ops))) < 2:
                sys.exit(f"{len(ops)} of {loop.attempted} operations succeeded: "
                         + "; ".join(sorted({reason for _, reason in loop.failures})))
            metrics, medians = end_to_end(ops, loop, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    shown = metrics if args.trace else {**metrics, **medians, **workload.extra_metrics(ops)}
    for name, (value, unit) in shown.items():
        alias = workload.aliases.get(name)
        print(f"{name} = {value:.6g} {unit}" + (f"  ({alias})" if alias else ""))
    failed = len(loop.failures)
    if not args.trace:
        print(f"fail_ratio = {failed / loop.attempted:.6g}  ({failed} of {loop.attempted} operations)")
        print(f"latency samples: {len(workload.latencies_ms(ops))} successful operations")
    unexpected = loop.unexpected()
    for reason in sorted({reason for _, reason in loop.failures}):
        known = "unexpected" if reason in unexpected else "known defect"
        print(f"failed {sum(r == reason for _, r in loop.failures)}x ({known}): {reason}")
    for problem in mismatches:
        print(f"mismatch: {problem}")
    correct = not mismatches and not unexpected and failed < loop.attempted
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import plchp.cli  # noqa: F401  (the checkout's own source tree)
    except ImportError as exc:
        sys.exit(f"cannot import plchp from {ROOT / 'src'}: {exc}")
    from tracing import Tracer, per_layer, unit_of
    from workloads import REFERENCE_SEED, WORKLOADS, Cli
    sys.exit(main())
