"""End-to-end benchmark of the paper pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite-graal --seed 0 --trace 0
    python3 perfbench/run.py --workload fig5-impact --seed 3 --trace 1
    python3 perfbench/run.py --workload sweep-durable --seed 5 --make-oracle

A run repeats the workload, each repetition in a fresh interpreter
(rep.py), until ``--seconds`` are used up, then reports medians.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer table of traced repetitions (each paired with an untraced
one, for ``bench.trace_overhead``).  Every repetition's outputs are
checked against the reference-engine oracle (oracle/*.json, then the
checkout-local cache in .perfbench/oracle; missing entries are computed
on the reference engine and cached).  Each metric is printed by name
with its unit; the last stdout line is the JSON result.  The exit code
is 0 only if every output matched.

``--make-oracle`` computes the oracle entries of a seed on the
reference engine and merges them into oracle/<workload>.json; with
``--full`` it covers every benchmark a seeded draw can pick.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
ORACLE_DIR = os.path.join(HERE, "oracle")
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: setup_s samples per run: the timed repetitions' own, topped up with
#: set-up-only processes.
SETUP_SAMPLES = 3
#: A run gives up on repetitions this long after it started, so it
#: always ends within the 180 s a run may take.
RUN_LIMIT_S = 170
_run_end = time.monotonic() + RUN_LIMIT_S


def _spawn(workload: str, seed: int, *flags: str,
           timeout: float | None = None) -> dict:
    """Run rep.py in a fresh interpreter and parse its JSON line."""
    if timeout is None:
        timeout = max(1.0, _run_end - time.monotonic())
    cmd = [sys.executable, REP, "--workload", workload, "--seed", str(seed),
           "--started", repr(time.monotonic()), *flags]
    # Fixed hashing, and byte-code cached under .perfbench whatever the
    # caller's PYTHONDONTWRITEBYTECODE says, so set-up reads the same
    # files on every host and src/ gains no __pycache__.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(STATE_DIR, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"repetition failed (exit {proc.returncode}): "
            f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Host fingerprint.
# ----------------------------------------------------------------------
def _calibration_score() -> float:
    """Millions of simple loop iterations per second, best of three."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i & 7
        best = min(best, time.perf_counter() - started)
    return 1.0 / best


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_fingerprint() -> dict:
    """Recorded with every run set, so runs from different hosts are
    compared as such rather than as a regression."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_mloops_s": round(_calibration_score(), 3),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


# ----------------------------------------------------------------------
# Oracle.
# ----------------------------------------------------------------------
def _load(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def _merge(path: str, entries: dict) -> None:
    data = _load(path)
    data.update(entries)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(dict(sorted(data.items())), fh, indent=0)
        fh.write("\n")
    os.replace(tmp, path)


def oracle_for(workload: str, seed: int, keys) -> dict:
    """Expected outputs for ``keys``: committed, cached, else computed
    on the reference engine now (and cached in the checkout)."""
    committed = os.path.join(ORACLE_DIR, f"{workload}.json")
    cache = os.path.join(STATE_DIR, "oracle", f"{workload}.json")
    expected = {**_load(committed), **_load(cache)}
    if any(key not in expected for key in keys):
        started = time.monotonic()
        try:
            fresh = _spawn(workload, seed, "--reference")["outputs"]
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            # Entries still missing count as mismatches.
            print(f"oracle: reference run failed: {exc}", file=sys.stderr)
            return expected
        print(f"oracle: computed {len(fresh)} entries for seed {seed} on "
              f"the reference engine in {time.monotonic() - started:.1f} s")
        _merge(cache, fresh)
        expected.update(fresh)
    return expected


# ----------------------------------------------------------------------
# The run.
# ----------------------------------------------------------------------
def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, deadline: float, traced: bool):
    """Repetitions until ``deadline`` (monotonic) would be passed, at
    least one.  The oracle is fetched after the first, so computing a
    missing entry comes out of the same time budget."""
    plain, spanned, errors = [], [], []
    expected = None
    rounds = []
    span_dir = os.path.join(STATE_DIR, "spans")
    while True:
        started = time.monotonic()
        flags = [[]]
        if traced:
            os.makedirs(span_dir, exist_ok=True)
            flags.append(["--trace", "--span-file", os.path.join(
                span_dir, f"{workload}-{seed}-{len(spanned)}.tsv")])
        for flag, into in zip(flags, (plain, spanned)):
            _collect(into, errors, workload, seed, *flag)
        rounds.append(time.monotonic() - started)
        if expected is None and not errors:
            keys = sorted({key for rep in plain + spanned
                           for key in rep["outputs"]})
            expected = oracle_for(workload, seed, keys)
        if errors or time.monotonic() + max(rounds) > deadline:
            break
    probes: list = []
    while len(plain) + len(probes) < SETUP_SAMPLES and not errors:
        _collect(probes, errors, workload, seed, "--setup-only")
    setups = [rep["setup_s"] for rep in plain + probes]
    return plain, spanned, setups, errors, expected or {}


def _collect(into: list, errors: list, workload: str, seed: int,
             *flags: str) -> None:
    try:
        into.append(_spawn(workload, seed, *flags))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        errors.append(str(exc))


def check(reps: list, expected: dict) -> tuple[int, int, list]:
    """(attempted, failed, mismatched keys) over all repetitions."""
    attempted = sum(rep["attempted"] for rep in reps)
    failed, mismatched = 0, []
    for rep in reps:
        bad = [key for key, value in rep["outputs"].items()
               if expected.get(key) != value]
        mismatched.extend(bad)
        # sweep-durable's rounds share a key: a key stands for
        # attempted / len(outputs) units.
        units_per_key = rep["attempted"] // max(1, len(rep["outputs"]))
        failed += min(rep["attempted"],
                      rep["failed"] + len(bad) * units_per_key)
    return attempted, failed, sorted(set(mismatched))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the paper pipeline.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-oracle", action="store_true")
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.make_oracle:
        flags = ["--reference"] + (["--full"] if args.full else [])
        fresh = _spawn(args.workload, args.seed, *flags,
                       timeout=3600)["outputs"]
        _merge(os.path.join(ORACLE_DIR, f"{args.workload}.json"), fresh)
        print(f"oracle: wrote {len(fresh)} entries for {args.workload} "
              f"seed {args.seed}")
        return 0

    deadline = time.monotonic() + args.seconds
    host = host_fingerprint()
    print("host: " + json.dumps(host, sort_keys=True))
    plain, spanned, setups, errors, expected = measure(
        args.workload, args.seed, deadline, bool(args.trace))
    reps = plain + spanned
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    attempted, failed, mismatched = check(reps, expected)
    if errors or not plain:
        attempted, failed = max(1, attempted), max(1, failed)
    for key in mismatched:
        print(f"oracle mismatch: {key}", file=sys.stderr)
    draw = reps[0]["draw"] if reps else {}
    print("draw: " + json.dumps(draw, sort_keys=True))
    print(f"repetitions: {len(plain)} untraced, {len(spanned)} traced; "
          "wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in plain)
          + "; raw wall seconds "
          + " ".join(f"{r['raw_wall_s']:.3f}" for r in plain))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = dict.fromkeys(units, 0.0)
        if spanned and plain:
            wall = _median([r["wall_s"] for r in plain])
            layers = {name: _median([r["layers"][name] for r in spanned])
                      for name in spanned[0]["layers"]}
            layers["bench.trace_overhead"] = (
                _median([r["wall_s"] for r in spanned]) - wall) / wall
            metrics = {name: layers[name] for name in units}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: _median([r[name] for r in plain])
                   for name in units if name != "setup_s"}
        metrics["setup_s"] = _median(setups)

    correct = not errors and bool(plain) and failed == 0
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"metric fail_ratio {failed / max(1, attempted):.6g} ratio")
    _merge(os.path.join(STATE_DIR, "runs.json"), {
        f"{args.workload}/{args.seed}/{args.trace}/{time.time():.3f}": {
            "host": host, "draw": draw, "metrics": metrics,
            "attempted": attempted, "failed": failed}})
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
