"""Reference clock: host time corrected for the host's speed of the moment.

The benchmark runs on shared virtual machines whose speed drifts: the
same pure-Python loop runs anywhere from 0.7x to 1.3x its usual speed,
in spells of a few seconds.  Wall time of a workload taken in one such
spell says more about the neighbours than about the code.

This clock runs a fixed pure-Python loop (a *burst*) every
``PERIOD_S`` of wall time, from a ``SIGALRM`` handler, and takes its
CPU time.  Each stretch of wall time between two bursts is scaled by
``REFERENCE_BURST_S / burst``, using the median of the last three
bursts, so the clock reads the seconds the same stretch would have
taken on a host where the burst takes ``REFERENCE_BURST_S``.  Time
spent in bursts is not counted.  A change that makes the repository's
code do less work reads lower; a host that runs everything slower for
a while does not.

One clock per process (``start``/``now``/``stop``); a process forked
from a timed one (the durable sweep's workers) starts its own with
``ensure``, since interval timers are not inherited across ``fork``.
"""

from __future__ import annotations

import atexit
import os
import signal
import statistics
import time

#: Wall seconds between bursts.
PERIOD_S = 0.1
#: Loop iterations of one burst (about 1.5 ms; 1.5% of the time).
BURST_ITERATIONS = 20_000
#: Seconds a burst takes on the reference host; defines the unit.
REFERENCE_BURST_S = 0.0015


def _burst() -> float:
    """CPU seconds of one burst: the core's speed, not how long this
    process waited for one (the durable sweep's controller shares two
    cores with two workers)."""
    started = time.thread_time()
    acc = 0
    for i in range(BURST_ITERATIONS):
        acc += i * i & 7
    return time.thread_time() - started


class RefClock:
    """Reference seconds since ``start``; see the module docstring."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.bursts = [_burst() for _ in range(3)]
        raw = time.perf_counter()
        self.burst_s = 0.0            # raw seconds spent in bursts
        # (reference seconds at mark, raw mark, factor), replaced as a
        # whole so a reader never sees half an update.
        self._state = (0.0, raw, self._factor())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        # Interpreter shutdown resets the handler; a timer still armed
        # then would kill the process.
        atexit.register(self.stop)

    def _factor(self) -> float:
        return REFERENCE_BURST_S / statistics.median(self.bursts[-3:])

    def _tick(self, signum, frame) -> None:
        ref, mark, factor = self._state
        started = time.perf_counter()
        self.bursts.append(_burst())
        del self.bursts[:-3]
        end = time.perf_counter()
        self.burst_s += end - started
        self._state = (ref + (started - mark) * factor, end, self._factor())

    def now(self) -> float:
        ref, mark, factor = self._state
        return ref + (time.perf_counter() - mark) * factor

    def factor(self) -> float:
        """Current reference seconds per raw second."""
        return self._state[2]

    def stop(self) -> None:
        if os.getpid() == self.pid:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)


_clock: RefClock | None = None


def start() -> RefClock:
    """Start this process's clock (restarting it if already running)."""
    global _clock
    if _clock is not None and _clock.pid == os.getpid():
        _clock.stop()
    _clock = RefClock()
    return _clock


def ensure() -> RefClock:
    """This process's clock, started now if it has none (a fork)."""
    if _clock is None or _clock.pid != os.getpid():
        return start()
    return _clock


def now() -> float:
    """Reference seconds on this process's clock."""
    return ensure().now()
