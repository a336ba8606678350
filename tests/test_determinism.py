"""Output does not depend on where identifiers live in memory.

An `Ident` hashes by identity, so a set of them iterates in an order that
follows the objects' addresses. Each run below is a fresh interpreter that
first interns every name of the water-tank files in its own shuffled order,
with allocations of random size in between, which moves every `Ident` to
another address. Then it runs `st2hp`, `hp2st`, `analyze`, `simulate` and
`comply`, and every byte they print or write must be the same in each run.
"""

import json
import os
import subprocess
import sys

import golden

SRC = str(golden.DATA.parent.parent / "src")

SCRIPT = r"""
import contextlib, io, random, re, sys
from pathlib import Path

from plchp.cli import main
from plchp.ir import RESERVED_WORDS, Ident

seed, data = int(sys.argv[1]), Path(sys.argv[2])
names = sorted({word for path in sorted(data.iterdir())
                for word in re.findall(r"[A-Za-z_]\w*", path.read_text())
                if word.upper() not in RESERVED_WORDS})
rng = random.Random(seed)
rng.shuffle(names)
kept = []
for name in names:
    kept.append(bytearray(rng.randrange(1, 256)))
    kept.append(Ident(name))

commands = {
    "st2hp": ["st2hp", str(data / "watertank_original.st"),
              "--plant", str(data / "watertank_plant.dlhp"),
              "--assumptions", str(data / "watertank_assumptions.dlhp"),
              "--safety", str(data / "watertank_safety.dlhp"), "--out", "model.dlhp"],
    "hp2st": ["hp2st", str(data / "watertank_safe_model.dlhp"), "--epsilon", "10"],
    "hp2st-generated": ["hp2st", "model.dlhp", "--epsilon", "10", "--out", "back.st"],
    "analyze-safe": ["analyze", str(data / "watertank_safe_model.dlhp")],
    "analyze-original": ["analyze", str(data / "watertank_original_model.dlhp")],
    "simulate-safe": ["simulate", "--model", str(data / "watertank_safe_model.dlhp"),
                      "--inputs", "run.json", "--cycles", "30", "--epsilon", "10",
                      "--out", "safe.csv"],
    "simulate-original": ["simulate", "--model", str(data / "watertank_original_model.dlhp"),
                          "--st", str(data / "watertank_original.st"), "--inputs", "run.json",
                          "--cycles", "30", "--epsilon", "10", "--out", "original.csv"],
    "comply-safe": ["comply", "--model", str(data / "watertank_safe_model.dlhp"),
                    "--trace", "safe.csv"],
    "comply-original": ["comply", "--model", str(data / "watertank_safe_model.dlhp"),
                        "--trace", "original.csv"],
}
for label, argv in commands.items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    Path(label + ".out").write_text(f"exit {code}\n{out.getvalue()}")
    Path(label + ".err").write_text(err.getvalue())
"""


def run_config() -> str:
    return json.dumps({
        "params": {str(k): v for k, v in golden.SCENARIO_PARAMS.items()},
        "init": {str(k): v for k, v in golden.SCENARIO_INIT.items()},
        "inputs": {"mode": "uniform", "seed": 7,
                   "ranges": {"f1": [0, 50], "f2": [0, 50]}},
    })


def test_commands_give_the_same_bytes_whatever_the_addresses(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    outputs = []
    for seed in range(3):
        cwd = tmp_path / f"run{seed}"
        cwd.mkdir()
        (cwd / "run.json").write_text(run_config())
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT, str(seed), str(golden.DATA)],
            cwd=cwd, env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        files = {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}
        outputs.append((proc.stdout, proc.stderr, files))
    for other in outputs[1:]:
        assert other == outputs[0]
    stdout, stderr, files = outputs[0]
    assert (stdout, stderr) == (b"", b"")
    # Every command ran, and the runs had something to disagree on.
    assert len(files) == 2 * 9 + 5
    assert files["comply-original.out"].startswith(b"exit 1\n")
    assert files["st2hp.err"].startswith(b"inputs: ")
