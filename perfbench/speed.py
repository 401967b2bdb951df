"""Wall time scaled to a fixed reference speed of the core.

The machines this benchmark runs on share their cores with other tenants,
and a core there switches between a fast state and one about 1.6x slower
for stretches of 3-15 s.  A single pass of a workload is about as long as
those stretches, so its plain wall time varies by 20-40 % from run to run
with no change to the program.

`SpeedProbe` measures the state the core is in while the workload runs:
every 25 ms a timer signal runs `probe()`, about 0.15 ms of standard-library
`Fraction` arithmetic (the same kind of work as the program, none of its
code), and records how long it took.  `scaled(start, end)` then rescales
each stretch of wall time between two probes by REFERENCE_S / (the probe's
time there, smoothed over its neighbours), and leaves the probes' own time
out.  On a core whose probe takes REFERENCE_S this is the plain wall time.
The probes cost about 0.6 % of the run.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
# About the probe's time on an unloaded core of an Intel Xeon virtual
# machine under CPython 3.11; it fixes the unit, not the comparison.
REFERENCE_S = 1.6e-4
SMOOTHING = 5            # probes per running median


def probe():
    """A fixed amount of Fraction arithmetic, timed with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 60):
            total += Fraction(1, i)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def burst(count=40):
    """Fastest probe time of a short burst, for spans shorter than a tick."""
    return min(probe() for _ in range(count))


class SpeedProbe:
    """Probe samples taken on a timer while the context is open."""

    def __init__(self):
        self.starts = []
        self.seconds = []
        self._smoothed = None

    def _tick(self, signum, frame):
        self.starts.append(time.perf_counter())
        self.seconds.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._smoothed = None
        return False

    def _smooth(self):
        if self._smoothed is None:
            half = SMOOTHING // 2
            s = self.seconds
            self._smoothed = [statistics.median(s[max(0, i - half):i + half + 1])
                              for i in range(len(s))]
        return self._smoothed

    def scaled(self, start, end):
        """Seconds between start and end at the reference speed."""
        smoothed = self._smooth()
        if not smoothed:
            raise RuntimeError("no speed samples were taken")
        total, edge, k = 0.0, start, 0
        while k < len(self.starts) and self.starts[k] < start:
            k += 1
        while k < len(self.starts) and self.starts[k] < end:
            total += (self.starts[k] - edge) * REFERENCE_S / smoothed[k]
            edge = self.starts[k] + self.seconds[k]
            k += 1
        tail = smoothed[min(k, len(smoothed) - 1)]
        return total + max(0.0, end - edge) * REFERENCE_S / tail
