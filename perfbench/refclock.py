"""Call timing in reference seconds.

Shared machines slow a process down when other tenants load the same core
or memory: the same solve can take 40% longer from one minute to the next.
To keep runs comparable, a fixed calibration loop runs between the timed
calls, once per CALIBRATE_EVERY_S of elapsed time, and each call's wall
time is scaled by REFERENCE_S over the median calibration time around it.
On a quiet machine a reference second is about a wall second. The loop
mixes the kinds of work a solve does (interpreted dict and heap
operations, small numpy operations, allocation of short-lived tuples) and
uses no code from the package, so a change to the package never changes
the scale.
"""
from __future__ import annotations

import bisect
import heapq
import statistics
import time
import traceback

import numpy as np

REFERENCE_S = 0.008       # calibration time on a quiet 2-core x86-64 VM, Python 3.11
CALIBRATE_EVERY_S = 0.1
MAX_BURST = 40

_A = np.arange(64, dtype=np.int64)


def calibrate() -> float:
    """Wall seconds of one fixed unit of mixed work."""
    started = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table = {}
    for i in range(2000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[(i, i + 1)] = [i]
    while heap:
        heapq.heappop(heap)
    x = _A
    for _ in range(300):
        x = np.minimum(x + _A[:, None].min(axis=1), _A * 3)
    junk = [tuple(range(i % 7)) for i in range(20000)]
    del junk, table
    return time.perf_counter() - started


class ReferenceClock:
    def __init__(self) -> None:
        self.at: list[float] = []       # when each calibration started
        self.took: list[float] = []     # how long it ran

    def calibrate(self, force: bool = False) -> None:
        """Run the calibrations due since the last one, one per
        CALIBRATE_EVERY_S elapsed (at most MAX_BURST), so that long calls
        are bracketed by as many calibrations as short ones."""
        now = time.perf_counter()
        due = int((now - self.at[-1]) / CALIBRATE_EVERY_S) if self.at else 1
        for _ in range(min(max(due, int(force)), MAX_BURST)):
            self.at.append(time.perf_counter())
            self.took.append(calibrate())

    def time(self, fn):
        """(result, error, start, wall seconds) of one call; an exception is
        returned as its traceback, so a failed call is counted, not fatal."""
        self.calibrate()
        started = time.perf_counter()
        try:
            res, error = fn(), None
        except Exception:  # noqa: BLE001 - the caller counts the failure
            res, error = None, traceback.format_exc(limit=3)
        return res, error, started, time.perf_counter() - started

    def reference(self, started: float, wall: float) -> float:
        """Wall seconds of the interval scaled to reference seconds, using
        the median calibration within one call length (at least one
        cadence) before and after it. Call calibrate(force=True) after the
        last timed call first."""
        reach = max(wall, CALIBRATE_EVERY_S)
        lo = bisect.bisect_left(self.at, started - reach)
        hi = bisect.bisect_right(self.at, started + wall + reach)
        around = self.took[lo:hi] or self.took[max(lo - 1, 0):lo + 1]
        return wall * REFERENCE_S / statistics.median(around)

    def median(self) -> float:
        return statistics.median(self.took)
