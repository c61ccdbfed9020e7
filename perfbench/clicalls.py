"""Workload `cli`: fixed `coxtw` invocations, each in a fresh interpreter.

The list covers all 13 subcommands, the README tour, the exit codes 1, 2
and 3, a Cartan file, and two heavy rows shaped like the ROADMAP's:
`check --radius 3` on the A~2 negative hat form, and `E6 ball 4` standing
in for the E8 `ball 6` row.  At the ROADMAP sizes (radius 4, E8 ball 6;
3 s and 17.5 s) a run could repeat each invocation only once or twice.
Three B~3 `classify` rows of like cost follow them, so that the tail,
the eleventh-slowest of all samples, falls among many samples of a few
ops rather than on one op's outlier.  Trivial invocations are
mostly interpreter start and `import coxtw.cli`, so this is the one
workload where import, build_system, exprs and output formatting dominate.
The seed only fixes the order.  Exit codes and stdout are compared with
`cli_golden.json`, recorded from the same invocations at the seed commit.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent

# About one pass (set-up and op list); a run makes --seconds / PASS_SECONDS.
PASS_SECONDS = 6.5
CALLS = (
    ("--type", "A2", "roots"),
    ("--type", "A~1", "roots", "--level", "2"),
    ("--type", "A~2", "roots", "--level", "3", "--format", "json"),
    ("--type", "A2", "ball", "2", "--format", "json"),
    ("--type", "A2", "invset", "0,1"),
    ("--type", "B3", "invset", "0,1,2,1", "--format", "json"),
    ("--type", "A~1", "tlen", "1,0", "--biclosed", "hat 0::"),
    ("--type", "G~2", "tlen", "0,1,2,1", "--biclosed", "word-inf ;0,1,2",
     "--format", "json"),
    ("--type", "A~1", "le", "1", "0", "--biclosed", "hat 0::"),
    ("--type", "A~1", "chain", "1", "0", "--biclosed", "hat 0::"),
    ("--type", "A~2", "chain", "0", "1", "--biclosed", "hat e::"),
    ("--type", "A~1", "interval", "1,0", "0", "--biclosed", "hat 0::"),
    ("--type", "A~1", "meet", "0", "1", "--biclosed", "hat 0::"),
    ("--type", "A~1", "meet", "0", "1", "--biclosed", "hat 0::", "--join"),
    ("--type", "C~2", "meet", "0,1", "2,1", "--biclosed", "hat 0,1,0,1::",
     "--format", "json"),
    ("--type", "A~1", "hasse", "--radius", "2", "--biclosed", "hat 0::",
     "--format", "dot"),
    ("--type", "A~1", "classify", "--biclosed", "complement(empty)",
     "--format", "json"),
    ("--type", "B~3", "classify", "--biclosed", "twist 0,1 (hat 0,1,2::)",
     "--format", "json"),
    ("--type", "B~3", "classify", "--biclosed", "twist 2,1 (hat 0,1,2::)",
     "--format", "json"),
    ("--type", "B~3", "classify", "--biclosed", "twist 0,3 (hat 1,2::)",
     "--format", "json"),
    ("--type", "A~1", "check", "--radius", "3", "--biclosed", "full"),
    ("--type", "A~2", "check", "--radius", "3", "--biclosed", "hat 0,1,0::"),
    ("--type", "E6", "ball", "4", "--format", "json"),
    ("--type", "A2", "selftest", "--radius", "2"),
    ("figure", "a1-twist"),
    ("figure", "a2-twist", "--format", "json"),
    ("--cartan", "perfbench/g2_affine.cartan", "roots", "--level", "1"),
    ("--type", "Q3", "roots"),
    ("--type", "A2", "ball", "9"),
)
HEAVY = {18, 19, 21, 22}  # left out of the tiny self-check list
SETUP_CODE = "import sys, coxtw.cli; sys.stdout.write(coxtw.cli.__file__)"


def generate(seed: int, tiny: bool = False) -> dict:
    order = [i for i in range(len(CALLS)) if not (tiny and i in HEAVY)]
    random.Random(f"cli:{seed}").shuffle(order)
    return {"ops": [CALLS[i] for i in order]}


def setup(ctx, spec, tracer=None) -> dict:
    """A fresh interpreter importing coxtw.cli, which must come from the
    checkout's src."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ctx.root,
                          env=ctx.env, capture_output=True, text=True,
                          check=True)
    if not Path(proc.stdout).resolve().is_relative_to(ctx.src):
        raise RuntimeError(f"coxtw.cli imported from {proc.stdout}, not {ctx.src}")
    return {"ctx": ctx, "traced": tracer is not None, "counters": [],
            "import_s": 0.0}


def run(session, i, op):
    ctx = session["ctx"]
    if session["traced"]:
        sink = ctx.out / f"cli-op{i}.json"
        spans = ctx.out / f"spans-{ctx.tag}-op{i}.tsv.gz"
        argv = [sys.executable, str(HERE / "cli_shim.py"), str(sink),
                str(spans), *op]
    else:
        argv = [sys.executable, "-m", "coxtw.cli", *op]
    proc = subprocess.run(argv, cwd=ctx.root, env=ctx.env, capture_output=True)
    if session["traced"]:
        part = json.loads(sink.read_text())
        sink.unlink()
        session["counters"].append(part["counters"])
        session["import_s"] += part["import_s"]
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def counters(session) -> dict:
    return tracing.merge_counters(session["counters"])


def golden() -> dict:
    data = json.loads((HERE / "cli_golden.json").read_text())
    return {tuple(row["args"]): (row["exit"], row["sha256"]) for row in data}


def referee(ctx, spec, items) -> dict:
    want = golden()
    return {i: f"exit/stdout {ans} differ from the recorded {want.get(op)}"
            for i, op, ans in items if want.get(op) != tuple(ans)}
