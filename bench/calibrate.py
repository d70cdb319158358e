"""Host-speed calibration for timed ops.

The two-core host this benchmark was built on runs the same Python code up
to twice as slowly at times, and its speed changes within milliseconds
(other tenants share its cores), so raw op times from two runs differ by
more than any bound worth setting.  A fixed Fraction kernel, which uses
nothing from anum, measures the host's speed; a time is then reported at
reference speed, scaled by REFERENCE_NS / kernel time.  The kernel uses
Fraction arithmetic because anum's own work is Fraction and big-int
arithmetic, which slows down with the host the way the kernel does.

Because the speed changes within an op, `OpTimer` also samples the kernel
inside the op, from a SIGALRM handler every SAMPLE_INTERVAL_S, and takes
the handler's time back out of the op time.  For a 0.3 s model build this
cut the op-to-op spread of scaled times from 12% (kernel before and after
the op only) to 5%.  The scaling cannot hide a change in anum, since the
kernel never runs anum code; raw times stay in the run's details line.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Kernel time, in ns, at the reference speed the metrics are scaled to:
# about the kernel's time on the baseline host in its usual (slower) state.
REFERENCE_NS = 270_000
SAMPLE_INTERVAL_S = 0.01


def _kernel_ns() -> int:
    start = time.perf_counter_ns()
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i % 7, i)
    return time.perf_counter_ns() - start


def kernel_ns() -> int:
    """Median of five kernel runs, for a reading between ops."""
    return statistics.median(_kernel_ns() for _ in range(5))


def at_reference(ns: float, cal_ns: float) -> float:
    """A time measured while the kernel took cal_ns, at reference speed."""
    return ns * REFERENCE_NS / cal_ns


class OpTimer:
    """Times one op at a time; with sampling on, it also runs the kernel
    inside the op and leaves the handler's time out of the op time.
    Traced runs time without sampling, so that the spans hold op time only."""

    def __init__(self, sample: bool):
        self.sample = sample
        self.samples: list[int] = []
        self._busy_ns = self._start_ns = 0
        if sample:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        start = time.perf_counter_ns()
        self.samples.append(_kernel_ns())
        self._busy_ns += time.perf_counter_ns() - start

    def start(self) -> None:
        self.samples, self._busy_ns = [], 0
        self._start_ns = time.perf_counter_ns()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)

    def stop(self) -> int:
        """Op time in ns since start(), without the sampling handler's."""
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter_ns() - self._start_ns - self._busy_ns
