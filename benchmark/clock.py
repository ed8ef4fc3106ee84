"""Reference-speed clock: wall time corrected for the host's varying speed.

On a shared host the core this process runs on changes speed by up to
about 1.6x within seconds, as other tenants load its sibling hardware
thread, so raw wall times of identical work spread by 25-30% from run
to run.  A probe thread repeats a fixed piece of pure-Python work every
``PERIOD`` seconds on the same core (the process is pinned to one CPU)
and records how long it took.  :meth:`ProbeClock.seconds` integrates
``REF_PROBE_S / probe duration`` over an interval, giving the time the
interval would have taken on a core that runs the probe in
``REF_PROBE_S`` -- "reference seconds".  A slower program reads slower
at any host speed; a slower host reads the same.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_right
from statistics import median

PERIOD = 0.01         # seconds between probes
# Probe duration on an uncontended core of the 2-vCPU x86-64 VM the bounds
# in BENCHMARK.json were fixed on (Python 3.11), with the pipeline running
# in between; it only scales every reading by the same factor.
REF_PROBE_S = 65e-6


def probe() -> int:
    """Fixed work of the same kind as the library's: ints, tuples, dicts."""
    acc = 0
    table = {}
    for i in range(400):
        pair = (i, i * 7 % 13)
        table[i & 63] = pair
        acc += pair[1] * pair[0] % 97
    return acc + len(table)


class ProbeClock:
    """Samples the host's speed while the benchmark runs.

    Use as a context manager; read :meth:`seconds` after it has exited.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._ts: list[float] = []
        self._rate: list[float] = []
        self._acc: list[float] = []
        self._cpus: set[int] = set()

    def _sample(self) -> None:
        t0 = time.perf_counter()
        probe()
        self.samples.append((t0, time.perf_counter() - t0))

    def _run(self) -> None:
        while not self._stop.wait(PERIOD):
            self._sample()

    def __enter__(self) -> ProbeClock:
        if hasattr(os, "sched_setaffinity"):
            # the probe must run on the core that runs the pipeline
            self._cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(self._cpus)})
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
        if self._cpus:
            os.sched_setaffinity(0, self._cpus)
        durations = [d for _, d in self.samples]
        self._ts = [t for t, _ in self.samples]
        # median of five neighbours, so one interrupted probe is ignored
        self._rate = [REF_PROBE_S / median(durations[max(i - 2, 0):i + 3])
                      for i in range(len(durations))]
        self._acc = [0.0]
        for i in range(1, len(self._ts)):
            self._acc.append(self._acc[-1] + (self._ts[i] - self._ts[i - 1])
                             * self._rate[i - 1])

    def _at(self, t: float) -> float:
        i = max(bisect_right(self._ts, t) - 1, 0)
        return self._acc[i] + (t - self._ts[i]) * self._rate[i]

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds between two ``time.perf_counter()`` stamps."""
        return self._at(end) - self._at(start)
