"""Iteration host time carried out of durable sweep workers."""

from __future__ import annotations

import refclock
from repro.harness.plugins import MergeablePlugin


class HostTimePlugin(MergeablePlugin):
    """Per-run (warmup, steady) reference seconds, shipped back in sweep
    order.  Each worker reads its own reference clock, started at its
    first iteration (interval timers do not survive ``fork``).

    Iterations of ``sweep-durable`` run in forked workers, where the
    in-process :class:`workloads.IterationTimer` cannot see them; the
    MergeablePlugin protocol returns each run's seconds to the
    controller (and through the result store on resume).
    """

    def __init__(self) -> None:
        self.runs: list = []
        self._pending: list = []
        self._started = 0.0
        self._warmup = 0.0
        self._steady = 0.0

    def before_run(self, vm, benchmark) -> None:
        self._warmup = self._steady = 0.0

    def before_iteration(self, vm, benchmark, index, warmup) -> None:
        self._started = refclock.now()

    def after_iteration(self, vm, benchmark, index, warmup, stats) -> None:
        elapsed = refclock.now() - self._started
        if warmup:
            self._warmup += elapsed
        else:
            self._steady += elapsed

    def after_run(self, vm, benchmark, result) -> None:
        self._pending.append((self._warmup, self._steady))

    def snapshot_run(self):
        pending, self._pending = self._pending, []
        return pending

    def absorb_run(self, payload) -> None:
        self.runs.extend(payload or ())
