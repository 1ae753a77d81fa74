"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that repetitions
share no state (compile caches, code caches, heap growth).  It prints
one JSON object as its last stdout line.

Modes:

- default: set up (``import repro`` + the ``repro.lang`` compile of the
  workload's guest programs), then run the workload once, timed;
- ``--setup-only``: set up and stop (extra ``setup_s`` samples);
- ``--trace``: as default, with every layer wrapped in spans
  (spans.py); reports the per-layer table;
- ``--reference``: compute the workload's outputs on the reference
  engine (oracle generation; not timed).

Times are read on the reference clock (refclock.py), started first
thing, so they are in reference-host seconds.  ``--started`` is the
parent's ``time.monotonic()`` just before it started this process (the
clock is system-wide on Linux), so ``setup_s`` counts interpreter
start-up too, scaled by the clock's first reading of the host speed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--span-file", default=None)
    args = parser.parse_args(argv)
    clock_started = time.monotonic()
    clock = refclock.start()
    started = clock_started if args.started is None else args.started
    # Interpreter start-up, before the clock ran, at its first factor.
    startup_s = (clock_started - started) * clock.factor()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans
    import workloads

    # Set-up imports every entry-point and layer module, traced or not,
    # so that traced and untraced set-up do the same work.
    for module in workloads.MODULES:
        importlib.import_module(module)
    recorder = spans.install(spans.Recorder()) if args.trace else None
    workload = workloads.WORKLOADS[args.workload]
    draw = (workload.full_draw if args.full else workload.draw)(args.seed)
    if args.reference:
        outputs = workload.reference(draw, args.seed)
        print(json.dumps({"outputs": outputs}))
        return 0
    for bench in workload.benchmarks(draw):
        bench.compile()
    setup_s = startup_s + clock.now()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    timer = workloads.IterationTimer()
    covered0 = recorder.root_time if recorder else 0.0
    t0, raw0 = clock.now(), time.perf_counter()
    burst0 = clock.burst_s
    outcome = workload.run(draw, args.seed, timer)
    wall_s = clock.now() - t0
    raw_total_s = time.perf_counter() - raw0
    raw_wall_s = raw_total_s - (clock.burst_s - burst0)
    clock.stop()
    report = {
        "draw": draw,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "warmup_s": timer.warmup_s,
        "steady_s": timer.steady_s,
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "outputs": outcome.outputs,
        "facts": outcome.facts,
    }
    if recorder is not None:
        # Spans are on the raw clock, loop bursts included; the
        # repetition's mean factor puts them in reference seconds.
        report["layers"] = spans.layer_metrics(
            recorder, outcome.facts, wall_s,
            recorder.root_time - covered0, wall_s / raw_total_s)
        if args.span_file:
            recorder.write(args.span_file)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
