"""Write costs.json: per-benchmark host costs that balance seeded draws.

Usage (from the repository root)::

    python3 perfbench/calibrate.py

- ``profile``: [warmup, steady] seconds of ``collect_metrics``
  (``jit=None``, warmup=1, default measure) per registry benchmark,
  each the best of two; profile-interp balances its draws on both.
- ``spot``: seconds of a whole fig5-impact spot-check row, for the
  non-Renaissance benchmarks whose single graal fork at the Fig-5 quick
  mode (5+2) is cheap enough for a row to fit ``SPOT_BUDGET_S``.
- ``spot_pool``: the largest set of those rows whose cost lies within
  6% of a centre; fig5-impact draws its spot-check row from it.

Costs are reference seconds (refclock.py), so a host whose speed
drifts during calibration does not skew them.  Only relative costs
matter.  Re-run after a change that shifts costs
between benchmarks, in its own change, since it changes the draws.
"""

from __future__ import annotations

import json
import os
import sys

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPOT_BUDGET_S = 5.0       # seconds per spot-check row
SPOT_WIDTH = 0.06


def _best_of(n: int, fn) -> float:
    best = float("inf")
    for _ in range(n):
        started = refclock.now()
        fn()
        best = min(best, refclock.now() - started)
    return best


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.analysis.impact import impact_table
    from repro.harness.core import Runner
    from repro.metrics import collect_metrics
    from repro.suites.registry import all_benchmarks

    import workloads

    fig5 = workloads.WORKLOADS["fig5-impact"]
    timer = workloads.IterationTimer()
    profile, spot = {}, {}
    for bench in all_benchmarks():
        key = f"{bench.suite}/{bench.name}"
        bench.compile()
        splits = []
        for _ in range(2):
            before = (timer.warmup_s, timer.steady_s)
            collect_metrics(bench)
            splits.append((timer.warmup_s - before[0],
                           timer.steady_s - before[1]))
        profile[key] = [round(min(s[i] for s in splits), 4) for i in (0, 1)]
        forks = fig5.FORKS * (1 + len(fig5.SPOT_CODES))
        if bench.suite != "renaissance" and forks * _best_of(
                1, lambda: Runner(bench).run(warmup=fig5.WARMUP,
                                             measure=fig5.MEASURE)) \
                <= SPOT_BUDGET_S:
            spot[key] = round(_best_of(2, lambda: impact_table(
                [bench], fig5.SPOT_CODES, forks=fig5.FORKS,
                warmup=fig5.WARMUP, measure=fig5.MEASURE)), 4)
        print(key, profile[key], spot.get(key, ""), flush=True)

    best: list = []
    for centre in sorted(spot.values()):
        members = [k for k, v in spot.items()
                   if abs(v - centre) <= SPOT_WIDTH * centre]
        if len(members) > len(best):
            best = members
    with open(workloads.COSTS_PATH, "w") as fh:
        json.dump({"profile": profile, "spot": spot,
                   "spot_pool": sorted(best)}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("spot_pool:", sorted(best))
    return 0


if __name__ == "__main__":
    sys.exit(main())
