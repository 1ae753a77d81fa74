"""Traced-run recorder: host spans around each layer's public calls.

The spans are recorded from the benchmark's own files, by wrapping the
functions each layer exposes; nothing in ``src/`` changes.  A span is
(name, start, end, parent).  Spans nest strictly per thread, so a
span's self time is its duration minus the durations of its direct
children.  Spans are kept in memory (aggregated per name, and the first
``MAX_SPANS`` verbatim) and written out when the benchmark ends.

The per-layer table (:func:`layer_metrics`) maps span names and counts
onto the metrics listed in BENCHMARK.json's ``per_layer``.  ``_s``
metrics are inclusive unless their name says ``self``; README.md lists
which end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

#: Verbatim spans kept for the span file; later spans are only
#: aggregated (a suite-graal run has millions of engine frames).
MAX_SPANS = 100_000

#: The ten guest-JIT phase modules of ``repro.jit.phases``.
PHASES = (
    "inlining", "cleanup", "method_handle", "escape_analysis",
    "duplication", "guard_motion", "vectorization", "unrolling",
    "lock_coarsening", "atomic_coalescing",
)


class Recorder:
    """Nested host spans on a monotonic clock, per thread."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list = []
        self.dropped = 0
        self.root_time = 0.0          # seconds inside some root span
        self._stacks = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._stacks, "frames", None)
        if stack is None:
            stack = self._stacks.frames = []
        return stack

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span ``name``; ``after(result, args)`` runs on
        return to record counts."""
        recorder = self
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            stack = recorder._stack()
            # [name, start, child coverage, span index]
            frame = [name, clock(), 0.0, -1]
            if len(recorder.spans) < MAX_SPANS:
                parent = stack[-1][3] if stack else -1
                frame[3] = len(recorder.spans)
                recorder.spans.append([name, frame[1], 0.0, parent])
            else:
                recorder.dropped += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                recorder.total[name] += duration
                recorder.self_time[name] += duration - frame[2]
                recorder.calls[name] += 1
                if frame[3] >= 0:
                    recorder.spans[frame[3]][2] = end
                if stack:
                    stack[-1][2] += duration
                else:
                    recorder.root_time += duration
            if after is not None:
                after(result, args)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def count(self, name: str, amount=1) -> None:
        self.counts[name] += amount

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by its spanned version."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, after))

    def write(self, path: str) -> None:
        """Span file: one ``name start end parent`` line per span."""
        with open(path, "w") as fh:
            fh.write(f"# spans={len(self.spans)} dropped={self.dropped}\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def install(recorder: Recorder) -> Recorder:
    """Wrap every layer's public calls with spans on ``recorder``."""
    rec = recorder
    core = importlib.import_module("repro.harness.core")
    codegen = importlib.import_module("repro.lang.codegen")
    parser = importlib.import_module("repro.lang.parser")

    # repro.lang: compile_program as the harness binds it; parse as
    # codegen binds it; tokenize as the parser binds it.
    rec.patch(core, "compile_program", "lang.compile",
              after=lambda r, a: rec.count("lang.programs"))
    rec.patch(codegen, "parse", "lang.parse")
    rec.patch(parser, "tokenize", "lang.lex",
              after=lambda r, a: rec.count("lang.tokens", len(r)))

    # repro.jit guest pipeline.
    jit = importlib.import_module("repro.jit.jit")
    rec.patch(jit, "build_graph", "jit.build")
    rec.patch(jit, "run_pipeline", "jit.pipeline")
    rec.patch(jit, "lower", "jit.lower",
              after=lambda r, a: rec.count("jit.code_bytes", r.size_bytes))
    for phase in PHASES:
        module = importlib.import_module(f"repro.jit.phases.{phase}")
        rec.patch(module, "run", f"jit.phase.{phase}")
    compiler = jit.JitCompiler
    original_compile = compiler.compile

    def compile_counted(self, method):
        cycles = self.stats.total_cycles
        failures = self.stats.failures
        ok = original_compile(self, method)
        rec.count("jit.compile_cycles", self.stats.total_cycles - cycles)
        rec.count("jit.failures", self.stats.failures - failures)
        rec.count("jit.compiles", 1 if ok else 0)
        return ok

    original_on_deopt = compiler.on_deopt

    def on_deopt_counted(self, method):
        rec.count("jit.recompilations")
        return original_on_deopt(self, method)

    compiler.compile = compile_counted
    compiler.on_deopt = on_deopt_counted

    # Host tiers: tier-1 emitter as tier1 binds it, tier-2 emitter as
    # the machine imports it, and builtins.compile as each emitter sees
    # it (a module global shadows the builtin).
    tier1 = importlib.import_module("repro.jvm.tier1")
    emit = importlib.import_module("repro.jit.emit")
    emit2 = importlib.import_module("repro.jit.emit2")
    rec.patch(tier1, "compile_method", "emit.compile",
              after=lambda r, a: rec.count("emit.methods", r is not None))
    emit.compile = rec.wrap("emit.pycompile", compile)
    emit2.compile = rec.wrap(
        "emit2.pycompile", compile,
        after=lambda r, a: rec.count("emit2.source_bytes", len(a[0])))
    rec.patch(emit2, "compile_tier2", "emit2.compile")
    rec.patch(emit2, "extend_tier2", "emit2.extend")

    def snapshot_counts(prefix, keys):
        def after(snap, args):
            for key in keys:
                rec.count(f"{prefix}.{key}", snap[key])
            rec.count(f"{prefix}.deopts", sum(snap["deopts"].values()))
        return after

    tier2 = importlib.import_module("repro.jvm.tier2")
    rec.patch(tier1.Tier1Interpreter, "tier1_snapshot", "tier1.snapshot",
              after=snapshot_counts("tier1", ("promotions",)))
    rec.patch(tier2.Tier2Interpreter, "tier2_snapshot", "tier2.snapshot",
              after=snapshot_counts("tier2", ("promotions", "osr_entries")))

    # Execution: run_frame of every engine class that defines one.
    interpreter = importlib.import_module("repro.jvm.interpreter")
    threaded = importlib.import_module("repro.jvm.threaded")
    machine = importlib.import_module("repro.jit.machine")
    for cls, name in ((interpreter.Interpreter, "exec.interp"),
                      (threaded.ThreadedInterpreter, "exec.interp"),
                      (tier1.Tier1Interpreter, "exec.interp"),
                      (machine.Machine, "exec.machine"),
                      (machine.Tier2Machine, "exec.tier2")):
        rec.patch(cls, "run_frame", name)

    # repro.runtime.vm: construction + load, and invoke's own time.
    vm_mod = importlib.import_module("repro.runtime.vm")
    vm_cls = vm_mod.VM
    rec.patch(vm_cls, "__init__", "vm.init")
    rec.patch(vm_cls, "load", "vm.load")
    original_invoke = vm_cls.__dict__["invoke"]

    def invoke_counted(self, *args, **kwargs):
        before = self.counters.instructions
        try:
            return original_invoke(self, *args, **kwargs)
        finally:
            rec.count("exec.instructions",
                      self.counters.instructions - before)

    vm_cls.invoke = rec.wrap("vm.invoke", invoke_counted)

    # repro.metrics: the MetricsPlugin hooks.
    profiler = importlib.import_module("repro.metrics.profiler")
    plugin = profiler.MetricsPlugin
    for hook in ("before_run", "before_iteration", "after_iteration",
                 "after_run", "snapshot_run", "absorb_run"):
        if hook in plugin.__dict__:
            rec.patch(plugin, hook, "metrics.plugin")

    # repro.harness: journal and store.
    journal = importlib.import_module("repro.harness.journal")
    store = importlib.import_module("repro.harness.store")
    rec.patch(journal.Journal, "append", "journal.append")
    rec.patch(journal.Journal, "replay", "journal.replay")
    rec.patch(store.ResultStore, "put", "store.put")
    rec.patch(store.ResultStore, "get", "store.get",
              after=lambda r, a: rec.count("store.hits", r is not None))
    return rec


#: Every name here is listed, with its unit, in BENCHMARK.json's
#: ``per_layer``; ``layer_metrics`` returns each, 0 where the layer did
#: no work.
def _table(rec: Recorder, facts: dict) -> dict:
    t, s, n, c = rec.total, rec.self_time, rec.calls, rec.counts
    out = {
        "lang.compile_s": t["lang.compile"],
        "lang.lex_s": t["lang.lex"],
        "lang.parse_s": s["lang.parse"],
        "lang.codegen_s": s["lang.compile"],
        "lang.programs": c["lang.programs"],
        "lang.tokens": c["lang.tokens"],
        "jit.build_s": t["jit.build"],
        "jit.pipeline_s": t["jit.pipeline"],
        "jit.lower_s": t["jit.lower"],
    }
    for phase in PHASES:
        out[f"jit.phase.{phase}_s"] = t[f"jit.phase.{phase}"]
    out.update({
        "jit.compiles": c["jit.compiles"],
        "jit.failures": c["jit.failures"],
        "jit.recompilations": c["jit.recompilations"],
        "jit.compile_cycles": c["jit.compile_cycles"],
        "jit.code_bytes": c["jit.code_bytes"],
        "emit.compile_s": t["emit.compile"],
        "emit.pycompile_s": t["emit.pycompile"],
        "emit.methods": c["emit.methods"],
        "tier1.promotions": c["tier1.promotions"],
        "tier1.deopts": c["tier1.deopts"],
        "emit2.compile_s": t["emit2.compile"],
        "emit2.extend_s": t["emit2.extend"],
        "emit2.pycompile_s": t["emit2.pycompile"],
        "emit2.source_bytes": c["emit2.source_bytes"],
        "tier2.promotions": c["tier2.promotions"],
        "tier2.osr_entries": c["tier2.osr_entries"],
        "tier2.deopts": c["tier2.deopts"],
        "exec.interp_s": s["exec.interp"],
        "exec.machine_s": s["exec.machine"],
        "exec.tier2_s": s["exec.tier2"],
        "exec.frames": (n["exec.interp"] + n["exec.machine"]
                        + n["exec.tier2"]),
        "exec.instructions": c["exec.instructions"],
        "vm.init_s": s["vm.init"] + s["vm.load"],
        "vm.invoke_self_s": s["vm.invoke"],
        "metrics.plugin_s": t["metrics.plugin"],
        "journal.append_s": t["journal.append"],
        "journal.appends": n["journal.append"],
        "journal.replay_s": t["journal.replay"],
        "store.put_s": t["store.put"],
        "store.get_s": t["store.get"],
        "store.puts": n["store.put"],
        "store.hits": c["store.hits"],
    })
    for name in ("durable.executed", "durable.served", "durable.respawns",
                 "durable.worker_cpu_s", "durable.idle_share"):
        out[name] = facts.get(name, 0)
    return out


def layer_metrics(rec: Recorder, facts: dict, wall_s: float,
                  covered_s: float, scale: float = 1.0) -> dict:
    """The per-layer table of one traced repetition.

    Span seconds are multiplied by ``scale`` (reference seconds per raw
    second over the repetition), so they share ``wall_s``'s unit.
    ``covered_s`` is the raw root-span time inside the timed workload,
    so ``bench.unattributed_s`` is the part of ``wall_s`` no layer span
    covers.
    """
    out = _table(rec, facts)
    for name, value in out.items():
        if name.endswith("_s") and name not in facts:
            out[name] = value * scale
    out["bench.unattributed_s"] = wall_s - covered_s * scale
    return out
