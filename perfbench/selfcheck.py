"""Self-check of the benchmark: python3 perfbench/selfcheck.py

For every workload, at tiny size:
- an untraced run must pass every referee (fail_ratio 0);
- the same run with one answer deliberately corrupted must fail, which
  proves the referees are live;
- two traced runs with the same seed must report identical call counts,
  and the layers the workload is built to exercise must have been called.
Exits 1 if any check fails.
"""

from __future__ import annotations

import sys

import run

SEED = 7


def _corrupt_first(kinds, change):
    def corrupt(spec, answers):
        i = next(i for i, op in enumerate(spec["ops"])
                 if kinds is None or op[0] in kinds)
        answers[i] = change(answers[i])
    return corrupt


CORRUPTIONS = {
    "growth": _corrupt_first(("ball",), lambda a: a[:-1] + (a[-1] + 1,)),
    "queries": _corrupt_first(("le", "le-walk"), lambda a: not a),
    "searches": _corrupt_first(("enumerate",), lambda a: (a[0] + 1,) + a[1:]),
    "cli": _corrupt_first(None, lambda a: (a[0] + 1, a[1])),
}

EXERCISED = {
    "growth": ("elements.ball", "linalg.solve", "elements.mul_simple"),
    "queries": ("order.meet", "order.join", "biclosed.member", "infwords.classify"),
    "searches": ("biclosed.enumerate_biclosed", "feasibility.solve_nonneg",
                 "order.check_meet_semilattice", "biclosed.classify_finite_biclosed"),
    "cli": ("cli.main", "system.build_system", "exprs.parse_biclosed",
            "figures.emit_figure"),
}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    ok = True

    def check(label, passed, detail=""):
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {label} {detail}".rstrip(), flush=True)

    for name in run.WORKLOADS:
        result, record = run.measure(name, SEED, 0, False, tiny=True)
        check(f"{name}: tiny run is correct", result["failed"] == 0,
              "; ".join(record["failures"]))
        result, _ = run.measure(name, SEED, 0, False, tiny=True,
                                corrupt=CORRUPTIONS[name])
        check(f"{name}: corrupted answer is caught", result["failed"] > 0,
              f"(fail_ratio {result['failed'] / result['attempted']:.3f})")
        calls = []
        for _ in range(2):
            result, _ = run.measure(name, SEED, 0, True, tiny=True)
            calls.append({k: v["value"] for k, v in result["metrics"].items()
                          if k.endswith(".calls")})
        check(f"{name}: traced call counts repeat", calls[0] == calls[1])
        idle = [layer for layer in EXERCISED[name] if not calls[0][f"{layer}.calls"]]
        check(f"{name}: traced layers were called", not idle, ", ".join(idle))
    return 0 if ok else 1


if __name__ == "__main__":
    run.fix_hash_seed()
    sys.exit(main())
