"""Host speed probe: a background thread that times a fixed kernel.

On a shared host, other tenants slow every computation for stretches of
seconds to minutes (by up to 1.8x where this benchmark was tuned), which no
number of repeats inside one run can average out. The probe wakes every
``PERIOD`` seconds and records the CPU time of a fixed pure-Python kernel
on two graphs, one that fits a core's fastest caches and one about the size
of its L2 cache, which such load slows together with the solver. A sample
is the geometric mean of the two fastest runs. Under one kind of load the
small graph slowed down as much as the solver while the large one slowed
down twice as much; under another the solver slowed down 1.4 times as much
as the small graph (in logarithms) and as much as the large one. The mean
follows the solver under both. A solve's CPU time divided by ``slowdown``
around it estimates its time on an idle host. Samples are read only after
the thread has stopped.
"""

from __future__ import annotations

import bisect
import random
import statistics
import threading
import time

PERIOD = 0.05
WINDOW = 0.25  # seconds of samples taken on each side of a timed interval
# (nodes, runs per sample) of the two kernel graphs
GRAPHS = ((150, 20), (1500, 3))
# CPU seconds of one sample on an idle host: the fast end of what it
# measured on the 2-vCPU 2.1 GHz Xeon host the benchmark was tuned on.
IDLE_KERNEL_S = 0.000205


class _Edge:
    __slots__ = ("dst", "weight", "enabled")

    def __init__(self, dst, weight):
        self.dst = dst
        self.weight = weight
        self.enabled = True


def _graph(nodes, degree=8, seed=0):
    rng = random.Random(seed)
    succ = [[] for _ in range(nodes)]
    for _ in range(nodes * degree):
        succ[rng.randrange(nodes)].append(
            _Edge(rng.randrange(nodes), rng.randint(-2, 30)))
    return succ


def _kernel(succ):
    """One Bellman-Ford sweep over objects, like the solver's inner loops."""
    dist = [0] * len(succ)
    for u, edges in enumerate(succ):
        du = dist[u]
        for e in edges:
            if e.enabled and du + e.weight < dist[e.dst]:
                dist[e.dst] = du + e.weight
    return dist


class SpeedProbe:
    def __init__(self):
        self._graphs = [(_graph(nodes), runs) for nodes, runs in GRAPHS]
        self._stamps: list[float] = []  # wall-clock midpoint of each run
        self._cpu: list[float] = []  # its CPU seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while not self._stop.wait(PERIOD):
            wall, product = time.perf_counter(), 1.0
            for succ, runs in self._graphs:
                best = float("inf")
                for _ in range(runs):
                    cpu = time.thread_time()
                    _kernel(succ)
                    best = min(best, time.thread_time() - cpu)
                product *= best
            self._cpu.append(product ** (1 / len(self._graphs)))
            self._stamps.append((wall + time.perf_counter()) / 2)

    def slowdown(self, start: float, end: float) -> float:
        """Host slowdown over the wall-clock interval [start, end]: the
        mean kernel time in and around it, over the idle kernel time."""
        if self._thread.is_alive():
            raise RuntimeError("read the probe after it has stopped")
        lo = bisect.bisect_left(self._stamps, start - WINDOW)
        hi = bisect.bisect_right(self._stamps, end + WINDOW)
        if lo == hi:  # no sample near: take the closest one
            lo = min(lo, len(self._stamps) - 1)
            hi = lo + 1
        return statistics.fmean(self._cpu[lo:hi]) / IDLE_KERNEL_S

    def idle_seconds(self, timed) -> float:
        """CPU seconds of a ``(start, end, cpu)`` record, at idle speed."""
        start, end, cpu = timed
        return cpu / self.slowdown(start, end)
