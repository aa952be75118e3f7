"""Host-speed calibration for the benchmark's end-to-end times.

On a shared host the same simulation takes from 1x to 2x its best time,
depending on what other tenants run; the slow spells last from under a
second to minutes.  Every end-to-end time is therefore measured between
calibration probes and scaled to the reference host speed:

    scaled = wall * REFERENCE_PROBE_S / mean(probe times around the call)

A probe is a fixed pure-Python loop shaped like the simulator's inner
loops: it streams through a list of distinct int objects larger than the
caches and does a dict probe per element.  It runs no rftsim code, so a
change to rftsim cannot change a probe's time.  In five-run trials on a
2-core Xeon VM, the interquartile range of the aggregate simulation rate
across runs was 20-35% of its median unscaled and 4-7% scaled; for one
CLI sweep it was 10-15% unscaled and 5-10% scaled.
"""

from __future__ import annotations

import statistics
import time

# elements per probe pass, passes per probe, and the list streamed
PROBE_ITERS = 60_000
PROBE_REPS = 3
PROBE_DATA = 2_000_000
# median seconds of one probe pass on the reference host (2-core Intel
# Xeon VM, Python 3.11); scaled times read as if run on that host
REFERENCE_PROBE_S = 0.015


class HostSpeed:
    """Calibration probes over a private list; create one per run."""

    def __init__(self):
        # ints above the small-int cache, so each element is its own object
        self._data = list(range(1 << 30, (1 << 30) + PROBE_DATA))
        self._pos = 0

    def _pass(self) -> int:
        # each pass reads the next window, so the data is never cache-hot
        start = self._pos
        self._pos = (start + PROBE_ITERS) % (PROBE_DATA - PROBE_ITERS)
        data = self._data
        table: dict[int, list[int]] = {}
        acc = 0
        for i in range(start, start + PROBE_ITERS):
            k = data[i] & 4095
            entry = table.get(k)
            if entry is None:
                table[k] = [i, 1]
            else:
                entry[1] += 1
                acc += entry[0]
        return acc

    def probe(self) -> float:
        """Mean seconds of one probe pass, right now."""
        t0 = time.perf_counter()
        for _ in range(PROBE_REPS):
            self._pass()
        return (time.perf_counter() - t0) / PROBE_REPS

    @staticmethod
    def scale(wall: float, probes: list[float]) -> float:
        """``wall`` seconds scaled to the reference host speed."""
        return wall * REFERENCE_PROBE_S / statistics.mean(probes)

    def timed(self, fn, *args):
        """Call ``fn(*args)`` between two probes; returns (result, wall
        seconds, scaled seconds)."""
        before = self.probe()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        return result, wall, self.scale(wall, [before, self.probe()])
