"""coxtw benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload (growth, queries, searches or cli) against the coxtw in
this checkout's `src`, as one closed-loop client: one process, one thread,
no think time, the next op only after the previous one returned.

Untraced (--trace 0), the workload's fixed op list runs in a fixed number
of passes: --seconds divided by the workload's nominal pass time
(PASS_SECONDS, a constant), so a run lasts about --seconds and repeats
every op equally often, however fast the host is.  Each pass starts with
a fresh set-up (a fresh import and fresh systems and oracles, or for cli
a fresh interpreter).  Host speed on a shared machine drifts by tens of
percent from one moment to the next, so the process pins itself to one
CPU and every set-up and op time is scaled to a fixed host speed by a
reference computation timed around it (see Reference).  The metrics are
taken over every scaled sample of every pass, so each run averages over
its whole length: ops_per_s is samples over their total time, op_p50_ms
their median, and op_tail_ms the highest percentile with ten samples
beyond it.  setup_s is the median of at least nine set-ups.
Traced (--trace 1), untraced and traced passes alternate, two of each; the
first traced pass gives the per-layer metrics, and the fastest repeats of
both kinds give the tracing overhead.

Every answer that was timed is checked afterwards by the workload's
referee.  The last stdout line is the result; the line before it is the
run record (versions, seed, op counts, tail percentile, failures, host
speed, raw times), which is also saved under perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("growth", "queries", "searches", "cli")
SETUP_SAMPLES = 9
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
REF_CODE = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            "import reference; reference.work()")


class Context:
    """Where the checkout is, and how to load its coxtw afresh."""

    def __init__(self, tag: str):
        self.root, self.src, self.out, self.tag = ROOT, SRC, OUT, tag
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.env.pop("COXTW_MAX_BALL", None)

    def load(self, tracer=None):
        for name in [n for n in sys.modules
                     if n == "coxtw" or n.startswith("coxtw.")]:
            del sys.modules[name]
        cx = importlib.import_module("coxtw")
        if not Path(cx.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"coxtw imported from {cx.__file__}, not {SRC}")
        if tracer is not None:
            tracer.install()
        return cx


class InProcess:
    """A library workload: set-up re-imports coxtw in this process."""

    def __init__(self, module, ctx):
        self.module, self.ctx = module, ctx

    def setup(self, spec, tracer=None):
        return self.module.setup(self.ctx.load(tracer), spec)

    def run(self, session, i, op):
        return self.module.run(session, i, op)

    def referee(self, spec, items):
        return self.module.referee(self.ctx.load(), spec, items)

    def counters(self, session, tracer):
        return tracer.counters()

    def import_s(self, session):
        return 0.0

    ref_s = 0.010  # what a reference time is scaled to: about its median here
    ref_gap_s = 0.2  # the longest run of ops between two references

    def reference(self):
        reference.work()

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Subprocess(InProcess):
    """The cli workload: every op and every set-up is a fresh interpreter."""

    def setup(self, spec, tracer=None):
        return self.module.setup(self.ctx, spec, tracer)

    def referee(self, spec, items):
        return self.module.referee(self.ctx, spec, items)

    def counters(self, session, tracer):
        return self.module.counters(session)

    def import_s(self, session):
        return session["import_s"]

    ref_s = 0.090  # mostly interpreter start, like the ops
    ref_gap_s = 1.0  # each reference costs about half an op

    def reference(self):
        subprocess.run([sys.executable, "-c", REF_CODE], cwd=self.ctx.root,
                       env=self.ctx.env, check=True)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def workload(name: str, ctx: Context):
    if name == "cli":
        return Subprocess(importlib.import_module("clicalls"), ctx)
    return InProcess(importlib.import_module(name), ctx)


class Reference:
    """The host's speed of the moment, from reference.work(): fixed stdlib
    work shaped like coxtw's own (for cli, in a fresh interpreter, like the
    work it scales).  A shared host runs the same code tens of percent
    slower or faster from one minute to the next.  Each timing is scaled
    by the workload's ref_s over the mean of the reference times taken
    just before and just after it, so that it reads as if the host kept
    one speed; raw times go to the run record."""

    def __init__(self, wl):
        self.wl, self.times = wl, []
        self.at = perf_counter()

    def take(self) -> int:
        """Time the reference once; returns the index of that time."""
        t = perf_counter()
        self.wl.reference()
        self.at = perf_counter()
        self.times.append(self.at - t)
        return len(self.times) - 1

    def due(self) -> bool:
        return perf_counter() - self.at >= self.wl.ref_gap_s

    def scale(self, before: int) -> float:
        """For a timing between reference `before` and the next one."""
        return 2 * self.wl.ref_s / (self.times[before]
                                    + self.times[before + 1])


def scaled_setup(wl, spec, tracer=None):
    """(session, scaled seconds, raw seconds) of one set-up."""
    ref = Reference(wl)
    ref.take()
    t = perf_counter()
    session = wl.setup(spec, tracer)
    raw = perf_counter() - t
    ref.take()
    return session, raw * ref.scale(0), raw


class Pass:
    """A set-up and the op list, with the reference taken around the set-up
    and then between ops whenever the workload's ref_gap_s has passed."""

    def __init__(self, wl, spec, tracer=None):
        t0 = perf_counter()
        self.session, self.setup_s, self.raw_setup_s = \
            scaled_setup(wl, spec, tracer)
        ref = Reference(wl)
        ref.take()
        self.answers, self.raw, self.errors, before = [], [], {}, []
        for i, op in enumerate(spec["ops"]):
            if tracer is not None:
                tracer.op_id = i
            before.append(ref.take() if ref.due() else len(ref.times) - 1)
            t = perf_counter()
            try:
                answer = wl.run(self.session, i, op)
            except Exception as exc:  # an op that raises is a failed op
                answer = None
                self.errors[i] = f"{type(exc).__name__}: {exc}"
            self.raw.append(perf_counter() - t)
            self.answers.append(answer)
        ref.take()
        self.latencies = [t * ref.scale(b) for t, b in zip(self.raw, before)]
        self.ref_s = ref.times
        self.seconds = perf_counter() - t0


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              env=dict(os.environ,
                                       GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def judge(wl, spec, passes, corrupt=None) -> tuple[int, int, list]:
    """(attempted, failed, reasons).  The first pass is refereed; every
    other pass must give the same answers."""
    first = passes[0].answers
    if corrupt is not None:
        corrupt(spec, first)
    items = [(i, op, first[i]) for i, op in enumerate(spec["ops"])
             if i not in passes[0].errors]
    wrong = dict(passes[0].errors)
    wrong.update(wl.referee(spec, items))
    failed = 0
    for p in passes:
        for i in range(len(spec["ops"])):
            if i in wrong or i in p.errors or p.answers[i] != first[i]:
                failed += 1
    reasons = [f"op {i} {spec['ops'][i][:3]}: {why}"
               for i, why in sorted(wrong.items())]
    return len(passes) * len(spec["ops"]), failed, reasons


def pass_count(wl, seconds: float) -> int:
    """--seconds over the workload's nominal pass time: the same number of
    repeats per op in every run of that length, whatever the host speed."""
    return max(1, round(seconds / wl.module.PASS_SECONDS))


def timed_run(wl, spec, seconds: float, record: dict):
    start = perf_counter()
    passes = []
    for _ in range(pass_count(wl, seconds)):
        p = Pass(wl, spec)
        p.session = None
        passes.append(p)
    measured_s = perf_counter() - start
    peak_rss = wl.peak_rss_mb()
    setups = [(p.setup_s, p.raw_setup_s) for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(scaled_setup(wl, spec)[1:])
    samples = [t for p in passes for t in p.latencies]
    ordered = sorted(samples)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    tail_ops = {i for p in passes for i, t in enumerate(p.latencies)
                if t >= ordered[k]}
    record.update(passes=len(passes), measured_s=measured_s,
                  setup_samples_s=[s for s, _ in setups],
                  raw_setup_samples_s=[r for _, r in setups],
                  tail_percentile=100 * (k + 1) / len(ordered),
                  tail_samples=len(ordered),
                  tail_ops=[" ".join(map(str, spec["ops"][i]))[:80]
                            for i in sorted(tail_ops)])
    record["pass_seconds"] = [p.seconds for p in passes]
    record["op_seconds"] = [p.latencies for p in passes]
    record["raw_op_seconds"] = [p.raw for p in passes]
    record["ref_median_s"] = statistics.median(t for p in passes
                                               for t in p.ref_s)
    record["ref_seconds"] = [p.ref_s for p in passes]
    return passes, {
        "setup_s": {"value": statistics.median(s for s, _ in setups),
                    "unit": "s"},
        "ops_per_s": {"value": len(samples) / sum(samples), "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(samples), "unit": "ms"},
        "op_tail_ms": {"value": 1000 * ordered[k], "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
    }


def traced_run(wl, spec, ctx, record: dict):
    """Untraced and traced passes alternate, two of each, so that host
    drift falls on both kinds alike."""
    plain, traced, tracers = [], [], []
    for _ in range(2):
        p = Pass(wl, spec)
        p.session = None
        plain.append(p)
        tracers.append(tracing.Tracer())
        traced.append(Pass(wl, spec, tracers[-1]))
    tracer, session = tracers[0], traced[0].session
    counters = wl.counters(session, tracer)
    if len(tracer.span_name):  # cli invocations write their own spans
        tracer.write_spans(ctx.out / f"spans-{ctx.tag}.tsv.gz")
    def fastest(passes):  # the sum of each op's fastest repeat
        return sum(min(p.latencies[i] for p in passes)
                   for i in range(len(spec["ops"])))
    overhead = fastest(traced) / fastest(plain)
    record.update(passes=4, spans=counters["spans"],
                  calls=counters["calls"])
    return plain + traced, tracing.layer_metrics(
        counters, wl.import_s(session), overhead)


def measure(name, seed, seconds, trace, tiny=False, corrupt=None):
    """Run one workload; returns (result line dict, run record dict)."""
    ctx = Context(f"{name}-s{seed}-t{int(trace)}")
    ctx.out.mkdir(exist_ok=True)
    wl = workload(name, ctx)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "tiny": tiny,
              "python": platform.python_version(),
              "nproc": os.cpu_count(),
              "cpus_usable": len(os.sched_getaffinity(0)),
              "git_sha": git_sha(), "ref_s": wl.ref_s}
    spec = wl.module.generate(seed, tiny)
    record["ops_per_pass"] = len(spec["ops"])
    if "first_touch_share" in spec:
        record["first_touch_share"] = spec["first_touch_share"]
    if trace:
        passes, metrics = traced_run(wl, spec, ctx, record)
    else:
        passes, metrics = timed_run(wl, spec, seconds, record)
    attempted, failed, reasons = judge(wl, spec, passes, corrupt)
    record.update(attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, failures=reasons[:20],
                  coxtw_src=str(SRC))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record


def fix_hash_seed():
    """Re-execute this script with PYTHONHASHSEED=0 unless already so: fixed
    hashing makes set iteration, and so per-layer call counts, repeat
    exactly for a given seed."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, sys.argv[0], *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED="0"))


def pin_to_one_cpu():
    """Run this process, and every interpreter it starts, on one of the
    CPUs it may use.  The reference then times the CPU that does the work,
    and for cli that CPU stays busy with the child while this process
    waits, instead of idling and waking slow."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (SRC / "coxtw" / "__init__.py").is_file():
        print(f"perfbench: no coxtw package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    fix_hash_seed()
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    result, record = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    (OUT / f"record-{args.workload}-s{args.seed}-t{args.trace}.json") \
        .write_text(json.dumps(record) + "\n")
    for key in ("op_seconds", "raw_op_seconds", "ref_seconds"):
        record.pop(key, None)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
