"""Measure a baseline: python3 perfbench/baseline.py [--runs 10]
    [--seconds S] [--workloads growth queries ...] [--first-seed 1] [--out FILE]

Runs perfbench/run.py once per seed for each workload, one run at a time,
and reports for every end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median.
It then measures the same seeds again, as a second set, and reports per
metric by what share the second median is worse than the first.  Last it
makes two traced runs per workload with the first seed and records whether
their per-layer call counts agree exactly.  With --out, the summary is
written as JSON (the BENCH_<n>.json files beside this script).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload, seed, seconds, trace):
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    record["wall_s"] = perf_counter() - t0
    return json.loads(lines[-1]), record


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def measure_set(workload, seeds, seconds, bounds):
    results, records = [], []
    for seed in seeds:
        result, record = one_run(workload, seed, seconds, 0)
        results.append(result)
        records.append(record)
        print(workload, seed, json.dumps(result["metrics"]), flush=True)
    metrics = {name: summarize([r["metrics"][name]["value"] for r in results])
               for name in bounds}
    for name, stats in metrics.items():
        print(f"  {workload:9} {name:12} median {stats['median']:.6g} "
              f"spread {stats['spread']:.3f} (bound {bounds[name]})", flush=True)
    return {
        "metrics": metrics,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "ops_per_pass": records[0]["ops_per_pass"],
        "passes": [r["passes"] for r in records],
        "tail_percentile": records[0]["tail_percentile"],
        "tail_samples": records[0]["tail_samples"],
        "tail_ops": sorted({op for r in records for op in r["tail_ops"]}),
        "wall_s": [r["wall_s"] for r in records],
        "ref_median_s": [r["ref_median_s"] for r in records],
        "git_sha": records[0]["git_sha"],
        "python": records[0]["python"],
        "nproc": records[0]["nproc"],
    }


def worse_by(first, second, better):
    """By what share the second median is worse than the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--traced", type=int, default=1,
                        help="0 skips the pair of traced runs")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    summary = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for set_no in range(2):
        for workload in args.workloads:
            entry = measure_set(workload, seeds, args.seconds, bounds)
            if set_no == 0:
                summary["workloads"][workload] = entry
                continue
            first = summary["workloads"][workload]
            first["second_set"] = entry
            first["second_worse_by"] = {
                name: worse_by(first["metrics"][name]["median"],
                               entry["metrics"][name]["median"], better[name])
                for name in bounds}
            print(f"  {workload:9} second set worse by "
                  f"{json.dumps(first['second_worse_by'])}", flush=True)
    if args.traced:
        for workload in args.workloads:
            traced = [one_run(workload, args.first_seed, args.seconds, 1)
                      for _ in range(2)]
            calls = [{k: v["value"] for k, v in t[0]["metrics"].items()
                      if k.endswith(".calls")} for t in traced]
            summary["workloads"][workload]["traced"] = {
                "calls_identical": calls[0] == calls[1],
                "metrics": traced[0][0]["metrics"]}
            print(f"  {workload:9} traced call counts identical: "
                  f"{calls[0] == calls[1]}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
