"""The four workloads of the end-to-end benchmark.

Each workload drives the paper pipeline through its public entry points
at the library's own defaults (default engine, default tiering policy,
default iteration budget), so a change of default shows up here.  A
workload is a small object with four methods:

- ``draw(seed)``: the seeded choices (which benchmarks), recorded with
  every run set;
- ``benchmarks(draw)``: the guest programs whose ``repro.lang`` compile
  is part of set-up;
- ``run(draw, seed, timer)``: the timed pipeline call.  Returns a
  :class:`Outcome`: the outputs checked against the oracle, the units
  attempted and failed, and workload facts for the per-layer table;
- ``reference(draw, seed)``: the same outputs computed on
  ``engine="reference"`` (the interpreter the repo keeps as its oracle),
  used to build the oracle files.

Output keys are chosen so an oracle entry is shared by every seed that
produces it: ``profile-interp`` rows and ``fig5-impact`` cells do not
depend on the seed at all (the seed only picks which ones run), while
``suite-graal`` and ``sweep-durable`` fingerprints are keyed by the
schedule seed.

The predictions below ("moves X on Y / flat on Z") are what later
changes cite; README.md repeats them per layer.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))

#: Per-benchmark host-cost table used only to balance seeded draws (see
#: calibrate.py).  Relative costs are what matter; absolute values come
#: from the machine that wrote the table.
COSTS_PATH = os.path.join(HERE, "costs.json")


def _costs() -> dict:
    with open(COSTS_PATH) as fh:
        return json.load(fh)


def _bench(key: str):
    from repro.suites.registry import get_benchmark

    suite, name = key.split("/", 1)
    return get_benchmark(name, suite)


#: Public entry points and the layer modules the traced run wraps;
#: rep.py imports them all during set-up.
MODULES = (
    "repro", "repro.suites.registry", "repro.faults.resilience",
    "repro.analysis.impact", "repro.analysis.metrics_experiment",
    "repro.harness.durable", "repro.metrics", "repro.runtime.vm",
    "repro.jit.jit", "repro.jit.machine", "repro.jit.emit",
    "repro.jit.emit2", "repro.jvm.threaded", "repro.jvm.tier1",
    "repro.jvm.tier2", "repro.jvm.interpreter",
)


@dataclass
class Outcome:
    outputs: dict                     # oracle key -> repr of the value
    attempted: int
    failed: int
    facts: dict = field(default_factory=dict)


class IterationTimer:
    """Reference seconds (refclock.py) of warmup and measured
    iterations, summed.

    Wraps ``Runner._iteration`` (every entry point ends up there), so
    ``warmup_s`` and ``steady_s`` cover the same iterations the harness
    itself labels warmup and measure.
    """

    def __init__(self) -> None:
        from repro.harness.core import Runner

        self.warmup_s = 0.0
        self.steady_s = 0.0
        timer = self
        original = Runner._iteration

        def _iteration(runner, vm, bench, result, index, *, warmup):
            started = refclock.now()
            try:
                return original(runner, vm, bench, result, index,
                                warmup=warmup)
            finally:
                elapsed = refclock.now() - started
                if warmup:
                    timer.warmup_s += elapsed
                else:
                    timer.steady_s += elapsed

        Runner._iteration = _iteration

    def add(self, warmup_s: float, steady_s: float) -> None:
        self.warmup_s += warmup_s
        self.steady_s += steady_s


# ----------------------------------------------------------------------
# suite-graal
# ----------------------------------------------------------------------
class SuiteGraal:
    """``run_suite`` over a fixed slice at harness defaults.

    Serial, in-process, ``jit="graal"``, each benchmark's own warmup and
    measure, the default engine; the seed is the ``schedule_seed``.

    Why: long jitted runs, where execution of guest-compiled code
    dominates (``jit/machine.py`` on the threaded engine; generated
    closures and ``builtins.compile`` on tier-2).

    Predictions: ``exec.machine_s`` and ``steady_s`` move here when the
    machine-code executor or the default engine changes; ``warmup_s``
    moves second to fig5-impact on guest-JIT compile changes; flat on
    ``repro.lang`` changes apart from ``setup_s``.
    """

    name = "suite-graal"
    #: Four of the Fig-5 headline benchmarks plus avrora (DaCapo) and
    #: scimark.lu.small (SPECjvm), ~8.5 s on a 2-vCPU Xeon VM.
    #: scrabble (~11 s alone), als, streams-mnemonics and factorie
    #: (~3 s each) are left out so that three fresh repetitions fit a
    #: run.
    SLICE = (
        "renaissance/fj-kmeans", "renaissance/future-genetic",
        "renaissance/finagle-chirper", "renaissance/log-regression",
        "dacapo/avrora", "specjvm/scimark.lu.small",
    )

    def draw(self, seed: int) -> dict:
        return {"benchmarks": list(self.SLICE), "schedule_seed": seed}

    full_draw = draw

    def benchmarks(self, draw: dict) -> list:
        return [_bench(key) for key in draw["benchmarks"]]

    def _outputs(self, suite, seed: int) -> dict:
        return {f"{seed}:{r.benchmark}": r.fingerprint()
                for r in suite.results}

    def run(self, draw: dict, seed: int, timer) -> Outcome:
        from repro.suites.registry import run_suite

        suite = run_suite(self.benchmarks(draw), schedule_seed=seed)
        return Outcome(self._outputs(suite, seed),
                       attempted=len(draw["benchmarks"]),
                       failed=len(suite.failures) + len(suite.skipped))

    def reference(self, draw: dict, seed: int) -> dict:
        from repro.suites.registry import run_suite

        suite = run_suite(self.benchmarks(draw), schedule_seed=seed,
                          engine="reference", jobs=2)
        _require_clean(suite)
        return self._outputs(suite, seed)


# ----------------------------------------------------------------------
# fig5-impact
# ----------------------------------------------------------------------
class Fig5Impact:
    """``impact_table`` cells in the Fig-5 quick mode (5+2, forks=2).

    Headline (benchmark, optimization) cells as in
    ``benchmarks/test_bench_fig5_impact.py``, plus one spot-check row:
    a non-Renaissance benchmark drawn by the seed, with AC/EAWA/LLC/MHS.
    The draw picks from benchmarks whose spot rows cost within 6% of
    each other (costs.json), so the seed changes which program runs
    more than how much work the run is.

    Why: many short fresh VMs under many ``JitConfig``s; guest-JIT and
    host-tier compile is paid again per fork and per config.

    Predictions: ``warmup_s`` and the ``jit.*`` spans move here first on
    any compile or warmup change (also ``emit2.*`` once tier-2 is the
    default); ``vm.init_s`` moves ``wall_s`` here, where a VM is built
    per fork; flat on ``repro.lang`` and interpreter changes.
    """

    name = "fig5-impact"
    #: Two of the seven headline cells (~6.5 s on a 2-vCPU Xeon VM).
    #: The others cost 6-36 s each (scrabble/MHS alone 36 s) and do not
    #: fit three repetitions in a run; MHS is still measured on the
    #: spot-check row.
    HEADLINES = (
        ("renaissance/fj-kmeans", "LLC"),
        ("renaissance/finagle-chirper", "EAWA"),
    )
    SPOT_CODES = ("AC", "EAWA", "LLC", "MHS")
    FORKS, WARMUP, MEASURE = 2, 5, 2

    def draw(self, seed: int) -> dict:
        pool = sorted(_costs()["spot_pool"])
        spot = random.Random(f"{self.name}:{seed}").choice(pool)
        return {"headlines": [list(c) for c in self.HEADLINES],
                "spots": [spot]}

    def full_draw(self, seed: int) -> dict:
        return {"headlines": [list(c) for c in self.HEADLINES],
                "spots": sorted(_costs()["spot_pool"])}

    def benchmarks(self, draw: dict) -> list:
        keys = [key for key, _ in draw["headlines"]] + draw["spots"]
        return [_bench(key) for key in keys]

    def _rows(self, draw: dict):
        for key, code in draw["headlines"]:
            yield _bench(key), (code,)
        for key in draw["spots"]:
            yield _bench(key), self.SPOT_CODES

    @staticmethod
    def _key(bench, code: str) -> str:
        return f"{bench.suite}/{bench.name}/{code}"

    def run(self, draw: dict, seed: int, timer) -> Outcome:
        from repro.analysis.impact import impact_table

        outputs, attempted = {}, 0
        for bench, codes in self._rows(draw):
            attempted += len(codes)
            table = impact_table([bench], codes, forks=self.FORKS,
                                 warmup=self.WARMUP, measure=self.MEASURE)
            for cell in table[bench.name]:
                outputs[self._key(bench, cell.opt)] = repr(
                    (cell.impact, cell.p_value))
        return Outcome(outputs, attempted=attempted,
                       failed=attempted - len(outputs))

    def reference(self, draw: dict, seed: int) -> dict:
        """``measure_impact`` recomputed with reference-engine Runners,
        ``run_jmh``'s configs and fork seeds."""
        from repro.analysis.impact import relative_impact
        from repro.harness.core import Runner
        from repro.harness.stats import welch_t_test, winsorize
        from repro.jit.pipeline import graal_config

        def jmh(bench, config):
            walls, means = [], []
            for fork in range(self.FORKS):
                result = Runner(bench, jit=config, engine="reference",
                                schedule_seed=fork * 7919).run(
                    warmup=self.WARMUP, measure=self.MEASURE)
                walls.extend(result.walls)
                means.append(result.mean_wall)
            return walls, means

        outputs = {}
        for bench, codes in self._rows(draw):
            config = graal_config()
            base_walls, base_means = jmh(bench, config)
            base_walls = winsorize(base_walls)
            for code in codes:
                walls, means = jmh(bench, config.without(code))
                outputs[self._key(bench, code)] = repr((
                    relative_impact(winsorize(walls), base_walls),
                    welch_t_test(means, base_means)))
        return outputs


# ----------------------------------------------------------------------
# profile-interp
# ----------------------------------------------------------------------
class ProfileInterp:
    """``profile_benchmarks`` then ``pca_experiment`` (Fig 1 / Table 7).

    ``jit=None`` with the MetricsPlugin, at its defaults, over a seeded,
    suite-stratified tenth of the registry (six programs).  Within each
    suite the seed draws a tenth of the benchmarks; of 2000 seeded
    draws the one whose summed warmup and steady costs (costs.json) are
    closest to a tenth of the pool's is kept, so seeds change the
    programs, not the amount of work.
    gauss-mix is left out of the pool: it alone costs over twice a
    tenth.
    (A half of the registry is ~40 s on a 2-vCPU Xeon VM; a tenth lets
    three fresh repetitions fit a run.)

    Why: the guest JIT and host tiers do no work here; the interpreter,
    the metrics plugin and the ``repro.lang`` front end carry it all.

    Predictions: ``setup_s`` moves most here on ``repro.lang`` changes;
    ``exec.interp_s``/``steady_s`` on interpreter changes;
    ``metrics.plugin_s`` moves ``wall_s`` here; flat (no change) on any
    guest-JIT or host-tier change.
    """

    name = "profile-interp"
    EXCLUDED = ("renaissance/gauss-mix",)
    FRACTION = 0.1
    CANDIDATES = 2000

    def draw(self, seed: int) -> dict:
        costs = _costs()["profile"]   # key -> [warmup_s, steady_s]
        by_suite: dict[str, list] = {}
        for key in sorted(costs):
            if key not in self.EXCLUDED:
                by_suite.setdefault(key.split("/", 1)[0], []).append(key)
        want = {suite: round(len(keys) * self.FRACTION)
                for suite, keys in by_suite.items()}
        targets = [sum(sum(costs[k][i] for k in keys) * want[s] / len(keys)
                       for s, keys in by_suite.items()) for i in (0, 1)]

        def imbalance(chosen) -> float:
            return max(abs(sum(costs[k][i] for k in chosen) - target)
                       / target for i, target in enumerate(targets))

        rng = random.Random(f"{self.name}:{seed}")
        candidates = []
        for _ in range(self.CANDIDATES):
            chosen = []
            for suite in sorted(by_suite):
                chosen.extend(rng.sample(by_suite[suite], want[suite]))
            candidates.append(sorted(chosen))
        return {"benchmarks": min(candidates, key=imbalance)}

    def full_draw(self, seed: int) -> dict:
        return {"benchmarks": sorted(k for k in _costs()["profile"]
                                     if k not in self.EXCLUDED)}

    def benchmarks(self, draw: dict) -> list:
        return [_bench(key) for key in draw["benchmarks"]]

    @staticmethod
    def _outputs(rows) -> dict:
        return {f"{r.suite}/{r.benchmark}": repr(
            (sorted(r.raw.items()), r.reference_cycles)) for r in rows}

    def run(self, draw: dict, seed: int, timer) -> Outcome:
        from repro.analysis.metrics_experiment import (
            pca_experiment, profile_benchmarks)

        benches = self.benchmarks(draw)
        rows = profile_benchmarks(benches)
        pca_experiment(rows)
        return Outcome(self._outputs(rows), attempted=len(benches),
                       failed=len(benches) - len(rows))

    def reference(self, draw: dict, seed: int) -> dict:
        """``collect_metrics`` recomputed on reference-engine Runners."""
        from repro.analysis.metrics_experiment import MetricsRow
        from repro.harness.core import Runner
        from repro.metrics import MetricsPlugin

        rows = []
        for bench in self.benchmarks(draw):
            plugin = MetricsPlugin()
            Runner(bench, jit=None, engine="reference",
                   plugins=(plugin,)).run(warmup=1)
            rows.append(MetricsRow(bench.name, bench.suite, plugin.raw,
                                   {}, plugin.reference_cycles))
        return self._outputs(rows)


# ----------------------------------------------------------------------
# sweep-durable
# ----------------------------------------------------------------------
class SweepDurable:
    """``run_suite(durable_dir=…, jobs=2)``, then the same with resume.

    ``jit=None``, warmup=1, measure=1, repeat=3 over the Renaissance
    benchmarks whose unit takes under half a second (45 short units);
    the seed is the ``schedule_seed``.  The resume pass must serve every
    unit from the store with identical fingerprints; it is a check, not
    a metric.

    Why: short units make worker supervision, the journal and the store
    a visible share of the time: the "one supervised sweep executor"
    target.  Iteration times arrive from the workers through a
    MergeablePlugin.

    Predictions: ``wall_s`` moves here on executor, journal or store
    changes (``journal.*``, ``store.*``, ``durable.idle_share``); flat
    on guest-JIT changes (``jit=None``).  Plain ``jobs=N`` and
    ``repro.serve`` are not measured.
    """

    name = "sweep-durable"
    POOL = (
        "akka-uct", "db-shootout", "dotty", "finagle-chirper",
        "finagle-http", "fj-kmeans", "future-genetic", "log-regression",
        "naive-bayes", "neo4j-analytics", "page-rank", "par-mnemonics",
        "philosophers", "reactors", "rx-scrabble",
    )
    JOBS, REPEAT = 2, 3
    SWEEP = {"jit": None, "warmup": 1, "measure": 1}

    def draw(self, seed: int) -> dict:
        return {"benchmarks": [f"renaissance/{n}" for n in self.POOL],
                "schedule_seed": seed}

    full_draw = draw

    def benchmarks(self, draw: dict) -> list:
        return [_bench(key) for key in draw["benchmarks"]]

    def run(self, draw: dict, seed: int, timer) -> Outcome:
        from repro.suites.registry import run_suite

        from hosttime import HostTimePlugin

        benches = self.benchmarks(draw)
        plugin = HostTimePlugin()
        directory = tempfile.mkdtemp(prefix="sweep-", dir=_scratch_dir())
        try:
            cpu0 = _children_cpu()
            started = time.perf_counter()
            cold = run_suite(benches, schedule_seed=seed, jobs=self.JOBS,
                             repeat=self.REPEAT, durable_dir=directory,
                             plugins=(plugin,), **self.SWEEP)
            cold_wall = time.perf_counter() - started
            worker_cpu = _children_cpu() - cpu0
            warm = run_suite(benches, schedule_seed=seed, jobs=self.JOBS,
                             repeat=self.REPEAT, durable_dir=directory,
                             resume=True, plugins=(plugin,), **self.SWEEP)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        for warmup_s, steady_s in plugin.runs[:len(cold.results)]:
            timer.add(warmup_s, steady_s)
        units = len(benches) * self.REPEAT
        outputs, failed = {}, len(cold.failures) + len(cold.skipped)
        # Every round of a unit must fingerprint alike, and the resume
        # pass must serve all of them from the store, unchanged.
        for result in cold.results:
            key = f"{seed}:{result.benchmark}"
            if outputs.setdefault(key, result.fingerprint()) \
                    != result.fingerprint():
                failed += 1
        cold_fps = [r.fingerprint() for r in cold.results]
        warm_fps = [r.fingerprint() for r in warm.results]
        served = warm.durable.get("served_from_store", 0)
        failed += sum(a != b for a, b in zip(cold_fps, warm_fps))
        failed += abs(len(cold_fps) - len(warm_fps))
        failed += units - min(units, served)
        return Outcome(outputs, attempted=units, failed=min(failed, units),
                       facts={
                           "durable.executed": cold.durable["executed"],
                           "durable.served": served,
                           "durable.respawns": cold.durable["respawns"],
                           "durable.worker_cpu_s": worker_cpu,
                           "durable.idle_share": 1.0 - worker_cpu / (
                               self.JOBS * cold_wall),
                       })

    def reference(self, draw: dict, seed: int) -> dict:
        from repro.suites.registry import run_suite

        suite = run_suite(self.benchmarks(draw), schedule_seed=seed,
                          engine="reference", jobs=2, **self.SWEEP)
        _require_clean(suite)
        return {f"{seed}:{r.benchmark}": r.fingerprint()
                for r in suite.results}


def _require_clean(suite) -> None:
    if suite.failures or suite.skipped:
        raise RuntimeError("reference run failed: " + suite.summary_line())


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _scratch_dir() -> str:
    """Scratch space inside the checkout (the benchmark writes nowhere
    else)."""
    path = os.path.join(os.path.dirname(HERE), ".perfbench", "tmp")
    os.makedirs(path, exist_ok=True)
    return path


WORKLOADS = {w.name: w for w in (
    SuiteGraal(), Fig5Impact(), ProfileInterp(), SweepDurable())}
