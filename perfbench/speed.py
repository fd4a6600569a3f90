"""Machine speed, measured around the timed calls.

Shared cloud machines change speed by 20-50% between runs and over seconds
(other tenants, frequency changes), which swamps the differences a benchmark
must resolve.  Two effects are taken out:

* the host running another tenant on this virtual CPU (steal time): calls and
  the reference are timed in CPU time of the calling thread
  (``time.thread_time``), which does not advance while the CPU is taken away;
* a slower CPU or memory system: a fixed piece of reference work, independent
  of ``deconv``, runs between jobs at least every ``INTERVAL_S`` seconds:
  interpreter arithmetic plus a cosine pass over a 4 MB array, which track
  both the interpreter-bound and the memory-bound parts of the workloads.

A timing reported "at reference speed" is the measured CPU time multiplied by
``REFERENCE_S / r``, where ``r`` is the mean of the reference samples just
before and just after the call: what the call would have taken had the
machine run the reference in ``REFERENCE_S``.  ``REFERENCE_S`` is a constant,
so the scaled times of two commits compare directly.  Samples are placed on
the ``perf_counter`` clock, so that a call finds the ones around it.
"""

from __future__ import annotations

import bisect
from time import perf_counter, thread_time

import numpy as np

# Close to the reference's time during benchmark runs on the 2-vCPU, 2.1 GHz
# x86-64 machine the bounds in BENCHMARK.json were set on (5.5 ms when that
# machine is idle), so scaled times read close to wall-clock times there.
REFERENCE_S = 10.0e-3
INTERVAL_S = 0.25
_X = np.arange(512 * 1024.0)
_Y = np.empty_like(_X)  # preallocated: page faults would add their own noise


def _reference() -> float:
    t0 = thread_time()
    s = 0
    for i in range(20000):
        s += i * i
    np.cos(_X, out=_Y).sum()
    return thread_time() - t0


def reference_seconds() -> float:
    """Best of two runs of the reference work (interrupts only add time)."""
    return min(_reference(), _reference())


class SpeedTracker:
    """Times calls and samples the reference around them."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []

    def sample(self) -> None:
        r = reference_seconds()
        self.times.append(perf_counter())
        self.refs.append(r)

    def _sample_if_stale(self) -> None:
        if not self.times or perf_counter() - self.times[-1] > INTERVAL_S:
            self.sample()

    def timed(self, call):
        """Run ``call()``; return (outcome or exception, (start, end), CPU seconds).

        Start and end are on the ``perf_counter`` clock, for :meth:`factor`.
        """
        self._sample_if_stale()
        t0 = perf_counter()
        c0 = thread_time()
        try:
            outcome = call()
        except Exception as exc:  # a call that raises is a failed job, not a crash
            outcome = exc
        cpu = thread_time() - c0
        t1 = perf_counter()
        self._sample_if_stale()
        return outcome, (t0, t1), cpu

    def estimate(self) -> float:
        """Speed factor from the latest sample, for run budgets."""
        return REFERENCE_S / self.refs[-1]

    def factor(self, start: float, end: float) -> float:
        """Speed factor of a call: the samples just before and just after it."""
        before = self.refs[bisect.bisect_right(self.times, start) - 1]
        after = self.refs[min(bisect.bisect_left(self.times, end), len(self.refs) - 1)]
        return REFERENCE_S / (0.5 * (before + after))
