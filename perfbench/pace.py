"""Host-speed calibration: a fixed probe interleaved with the workload.

A shared host's speed drifts by tens of percent over seconds and
minutes (neighbours on the same cores, cache and memory contention), so
two runs of the same code minutes apart read very differently in wall
time.  The drift is in CPU speed itself — a process's CPU time slows
with its wall time — so no in-run statistic over wall time removes it.

The benchmark therefore runs a short, fixed piece of pure-Python work
(:func:`probe`, independent of the program under test) at most every
:data:`INTERVAL_S` seconds between operations, outside every timed
step, and times it in thread CPU time (so a probe waiting for the
interpreter lock or for the CPU is not counted).  The probes around an
operation measure how fast the host was while it ran.  Every time the
benchmark reports is scaled to a host on which the probe takes
:data:`REFERENCE_S`::

    reported_ms = measured_ms * REFERENCE_S / probe_s
    reported_per_s = measured_per_s * probe_s / REFERENCE_S

Each latency sample is scaled by the median of the probes nearest to it
(:meth:`Pace.scale_at`), so that a tail percentile reports the
program's slow operations, not the host's slow moments; a rate or a
set-up time by the factor averaged over its span
(:meth:`Pace.mean_scale`).

The raw wall-time figures are printed beside the scaled ones.  Probes
take 4-6% of a window; their wall time is left out of the window before
rates are computed.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
import threading
import time

#: the probe's thread CPU time on the reference host (2.1 GHz Xeon vCPU)
REFERENCE_S = 0.001
#: least wall time between two probes
INTERVAL_S = 0.025
#: probes on each side of a moment that give its local speed
NEIGHBOURS = 2

_BUFFER = bytes(range(256)) * 256


def probe() -> int:
    """Fixed work: dict inserts, a keyed sort, string building and
    replacement, and one SHA-256 over 64 KiB."""
    table = {}
    for i in range(2000):
        table[str(i)] = i * 3
    ordered = sorted(table.items(), key=lambda item: item[1] % 97)
    text = "".join([key + "x" for key, _ in ordered])
    text = text.replace("1x", "yy").upper()
    hashlib.sha256(_BUFFER).digest()
    return len(text)


class Pace:
    """Probe samples of one run, and the wall time they took."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        #: ``perf_counter`` at the end of each probe
        self.times: list[float] = []
        self.wall_s = 0.0
        self._last = float("-inf")
        self._lock = threading.Lock()

    def tick(self) -> None:
        """Run one probe if none ran for ``interval_s``; a thread that
        finds another one probing skips."""
        if time.perf_counter() - self._last < self.interval_s:
            return
        if not self._lock.acquire(blocking=False):
            return
        try:
            wall = time.perf_counter()
            cpu = time.thread_time()
            probe()
            self.samples.append(time.thread_time() - cpu)
            self._last = time.perf_counter()
            self.times.append(self._last)
            self.wall_s += self._last - wall
        finally:
            self._lock.release()

    def force(self) -> None:
        """Probe now, whatever the interval."""
        self._last = float("-inf")
        self.tick()

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def time_scale(self) -> float:
        """Factor from measured to reported times over the whole phase
        (1.0 on the reference host; below 1 on a slower one)."""
        return REFERENCE_S / self.median_s()

    def scale_at(self, moment: float) -> float:
        """The factor at ``moment`` (a ``perf_counter`` reading), from the
        median of the :data:`NEIGHBOURS` probes on each side of it."""
        i = bisect.bisect(self.times, moment)
        near = self.samples[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
        return REFERENCE_S / statistics.median(near)

    def mean_scale(self, start: float, end: float) -> float:
        """The factor averaged over the wall time from ``start`` to
        ``end``: a span of that length, in reference seconds, is
        ``(end - start) * mean_scale(start, end)``."""
        total, previous = 0.0, start
        for moment in self.times[bisect.bisect(self.times, start):
                                 bisect.bisect(self.times, end)]:
            total += (moment - previous) * self.scale_at(moment)
            previous = moment
        total += (end - previous) * self.scale_at(end)
        return total / (end - start)


#: the process-wide pace; workloads tick it between operations
PACE = Pace()
