"""How fast the shared machine runs while a step runs, relative to a fixed reference.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a factor of two over seconds to minutes (other tenants on the sibling
hyperthreads and the same caches).  A ``Speedometer`` samples that speed
while a pass runs: every ``PERIOD`` seconds a SIGALRM handler times two tiny
fixed kernels that run no package code, a pure-Python loop (which moves with
the interpreter-bound steps) and a numpy ufunc pass (which moves with the
vectorised ones).  A sample's slowdown is the geometric mean of the two
times over their reference values.  A step that took ``t`` seconds while
its samples averaged a slowdown ``s`` took ``t / s`` reference seconds: the
time it would take on a machine where the kernels take ``PY_REF_MS`` and
``NP_REF_MS``.  Sampling costs about 1.5 % of the pass.  No sample is taken
while the process runs more than one thread.
"""

from __future__ import annotations

import math
import signal
import statistics
import threading
from time import perf_counter

import numpy as np

# about what the kernels take on the machine of perfbench/README.md when it is quiet
PY_REF_MS = 0.4  # 10 000 additions in a Python loop
NP_REF_MS = 0.2  # 10 passes of exp and sum over 4 000 doubles
PERIOD = 0.05

_x = np.linspace(-1.0, 1.0, 4_000)


def sample() -> float:
    """Current time of the two kernels over their reference times (geometric mean)."""
    t0 = perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i
    t1 = perf_counter()
    for _ in range(10):
        np.exp(_x).sum()
    t2 = perf_counter()
    return math.sqrt((t1 - t0) * 1e3 / PY_REF_MS * (t2 - t1) * 1e3 / NP_REF_MS)


class Speedometer:
    """Samples ``sample()`` from SIGALRM while the context is active (main thread only).

    A disabled speedometer samples nothing and reads a slowdown of 1.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[tuple[float, float]] = []  # (time, slowdown)
        self._previous = None

    def _on_alarm(self, signum, frame):
        # while worker threads run (the MC thread pool) the kernels would
        # compete with them and read the program's own load, not the machine's
        if threading.active_count() == 1:
            self.samples.append((perf_counter(), sample()))

    def __enter__(self):
        if not self.enabled:
            return self
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        if not self.enabled:
            return False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean slowdown over [t0, t1]: the samples taken in it plus one taken now."""
        if not self.enabled:
            return 1.0
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        return statistics.fmean(inside + [sample()])
