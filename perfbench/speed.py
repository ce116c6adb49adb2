"""Host-speed reference for normalizing timings on a shared machine.

On a host shared with other tenants the same operation can take twice as
long from one half-minute to the next while CPU time stays equal to wall
time, so the slowdown is in the core, not in scheduling.  The benchmark
therefore times a fixed piece of pure-Python work every PERIOD_S seconds
on the thread that runs the engine (from a SIGALRM handler, so samples
land inside long operations too) and scales each operation's seconds by
REFERENCE_S / (the mean sample around and inside it).  The work mixes
the kinds of interpreter work the engine does (small-int loops, Fraction
sums, tuple allocation and sorting, nested list comprehensions over a small
integer matrix) and calls nothing in signstab, so a change to the engine
cannot move it.  Random reads over a large table
were tried as a further part and left out: memory-bound slow periods made
them swing sevenfold while the block workload barely slowed.  Changing
this file changes every normalized number.

The probe shares its process with the engine, so the garbage collector is
switched off while it samples: otherwise a collection that the probe's own
allocations set off would walk the engine's heap (or the tracer's spans)
and the sample would read the program's state as well as the host's speed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

# Seconds the reference work takes at the nominal speed that normalized
# timings are expressed in (about its median on a 2-vCPU Xeon host).
REFERENCE_S = 0.005
PERIOD_S = 0.5

_MATRIX = [[(3 * i + 5 * j) % 5 - 2 if i != j else 0 for j in range(18)]
           for i in range(18)]


def _reference_work():
    s = 0
    for i in range(15000):
        s += i * i % 7
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i % 7 - 3, i)
    rows = [tuple(j * i for j in range(8)) for i in range(750)]
    rows.sort(key=lambda r: r[3] % 11)
    b = _MATRIX
    n = len(b)
    for k in range(3):
        b = [[-b[i][j] if i == k or j == k
              else b[i][j] + max(b[i][k], 0) * max(b[k][j], 0)
              - max(-b[i][k], 0) * max(-b[k][j], 0)
              for j in range(n)] for i in range(n)]
    return s, acc, rows[0], b[0][0]


def sample():
    """Seconds the reference work takes right now, with the garbage
    collector off so that the engine's heap cannot slow the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Speed samples taken every PERIOD_S while active, plus on request.

    Time spent sampling inside an operation is reported by `stolen` so the
    caller can take it out of the operation's seconds.
    """

    def __init__(self):
        self.times, self.samples = [], []
        self.stolen = 0.0
        self._old = None

    def take(self, *_):
        t0 = time.perf_counter()
        d = sample()
        self.times.append(t0)
        self.samples.append(d)
        self.stolen += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, start, end):
        """REFERENCE_S over the mean sample taken from the last one before
        `start` to the first one after `end`."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        window = self.samples[lo:hi]
        return REFERENCE_S * len(window) / sum(window)
