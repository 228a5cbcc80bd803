"""Host-speed reference: a fixed kernel timed every EVERY_S during a run.

On a small shared virtual machine the host switches between fast and
contended states that last from tens of milliseconds to tens of seconds,
and a call runs up to ~1.6x slower in a contended state.  Runs of the same
code then differ by 15-40% in median latency.  So, while a run sets up and
times calls, a SIGALRM timer runs this kernel every EVERY_S, in the middle
of calls as well as between them.  A call's time at the reference speed is
its wall time, minus the kernel samples taken inside it, divided by the
host's slowdown around it: the median kernel time within WINDOW_S of the
call, over NOMINAL_S.  NOMINAL_S is the kernel's time on an uncontended
core of the machine the benchmark was defined on.

The kernel is the benchmark's own code, never juna's, so it does the same
work on every commit and a change to juna cannot move it.  It mixes the
operations the measured calls are made of: decoding an integer into a bit
tuple, and modular multiplication of 80-bit integers in a Python loop.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

NOMINAL_S = 0.00035
EVERY_S = 0.02
WINDOW_S = 0.05

_rng = random.Random("perfbench-reference")
_M = (1 << 89) - 1
_C = tuple(_rng.getrandbits(80) | 1 for _ in range(256))
_V = _rng.getrandbits(256)


def kernel() -> int:
    acc = 1
    for _ in range(5):
        bits = tuple(map(int, format(_V, "0256b")))
        for c, b in zip(_C, bits):
            if b:
                acc = acc * c % _M
    return acc


class HostSpeed:
    """Kernel samples (start, duration) taken while sampling() is active."""

    def __init__(self):
        self.at: list[float] = []
        self.cost: list[float] = []

    def _sample(self, signum=None, frame=None):
        t = perf_counter()
        kernel()
        self.cost.append(perf_counter() - t)
        self.at.append(t)

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, secs: float) -> float:
        """Seconds at the reference speed of a call that began at start and took secs."""
        end = start + secs
        i = bisect.bisect_left(self.at, start)
        j = bisect.bisect_left(self.at, end)
        own = sum(self.cost[i:j])
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.cost[lo:hi] or [self.cost[min(lo, len(self.cost) - 1)]]
        return (secs - own) * NOMINAL_S / statistics.median(near)
