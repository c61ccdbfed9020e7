"""A/B pairs of the benchmark: python3 tools/ab.py --rev REV --workload W [--pairs 10]

Runs `perfbench/run.py` (untraced) on a clean export of this checkout's
working tree ("change": tracked and untracked files, none that .gitignore
names) and on a `git archive` of REV ("parent") in alternating pairs, seeds
1..N, the parent first on odd seeds and the change first on even ones, so
that a drift of host speed falls on both sides alike.  Exporting both sides
keeps an ignored `src/**/__pycache__` of this tree out of the change side:
under PYTHONDONTWRITEBYTECODE=1 only the side without one would recompile
`src/` on every import.  Prints, for each end-to-end metric of
BENCHMARK.json, the median of each side, their ratio, the parent's
interquartile range, and in how many pairs the change was better, marking
with BREACH a change median worse than the parent's by more than the
metric's bound; then the failed-op counts, and one line naming the breaches.
--parent DIR uses an existing checkout instead, and is refused if its `src/`
holds a `__pycache__`.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run; its result (the last stdout line of run.py)."""
    out = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"run.py failed in {checkout} (seed {seed}):\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_pairs(parent: Path, change: Path, workload: str, pairs: int, seconds: float):
    """{side: [result per seed]}, the parent first on odd seeds."""
    results = {"parent": [], "change": []}
    for seed in range(1, pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            results[side].append(run_once(parent if side == "parent" else change,
                                          workload, seed, seconds))
        print(f"  pair {seed}/{pairs} done", file=sys.stderr, flush=True)
    return results


def git(*args) -> bytes:
    out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)
    if out.returncode:
        sys.exit(f"git {' '.join(args)} failed:\n{out.stderr.decode()}")
    return out.stdout


def export(dest: Path, rev: str | None = None) -> Path:
    """A clean copy of REV, or of the working tree if rev is None, at dest."""
    dest.mkdir()
    if rev is not None:
        subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", rev), check=True)
        return dest
    for name in git("ls-files", "-z", "-c", "-o", "--exclude-standard").decode().split("\0"):
        if name and (ROOT / name).is_file():   # a tracked file may be deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    return dest


def report(results, metrics) -> list[str]:
    lines = [f"{'metric':<14}{'parent':>11}{'change':>11}{'ratio':>8}"
             f"{'parent IQR':>22}{'better':>8}"]
    breaches = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        par = [r["metrics"][name]["value"] for r in results["parent"]]
        chg = [r["metrics"][name]["value"] for r in results["change"]]
        q1, _, q3 = statistics.quantiles(par, n=4) if len(par) > 1 else (par[0],) * 3
        better = sum((c > p) if higher else (c < p) for p, c in zip(par, chg))
        mp, mc = statistics.median(par), statistics.median(chg)
        breach = (mp - mc if higher else mc - mp) / mp > metric["bound"]
        if breach:
            breaches.append(name)
        lines.append(f"{name:<14}{mp:>11.4g}{mc:>11.4g}{mc / mp:>8.3f}"
                     f"{f'{q1:.4g}–{q3:.4g}':>22}{f'{better}/{len(par)}':>8}"
                     + ("  BREACH" if breach else ""))
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in results[side])
        lines.append(f"{side} failed ops: {failed}")
    lines.append(f"bound breaches: {', '.join(breaches) or 'none'}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    base = parser.add_mutually_exclusive_group(required=True)
    base.add_argument("--rev", help="git revision of the parent side")
    base.add_argument("--parent", type=Path, help="an existing parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=26)
    args = parser.parse_args()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.parent is not None and any((args.parent / "src").rglob("__pycache__")):
        sys.exit(f"{args.parent}/src holds a __pycache__, which the change side lacks; "
                 "remove it or pass --rev")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        change = export(Path(tmp) / "change")
        parent = (args.parent.resolve() if args.parent is not None
                  else export(Path(tmp) / "parent", args.rev))
        results = run_pairs(parent, change, args.workload, args.pairs, args.seconds)
    print(f"{args.workload}: {args.pairs} alternating pairs of {args.seconds:g} s runs")
    print("\n".join(report(results, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
