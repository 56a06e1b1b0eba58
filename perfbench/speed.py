"""Host-speed probe: timings scaled to a reference machine speed.

The benchmark shares its machine, and other tenants slow every core for
seconds to minutes at a time, by up to 1.9x: a fixed piece of code takes
longer for a while, then speeds up again.  No statistic over one run removes
a slow phase that covers the run.  So between its timed regions the
benchmark times a fixed probe, and it scales each timing by how slow the
probe ran around it.

The probe is a small pure-Python workload shaped like the library's hot
code: a string-keyed dict of a few thousand entries, float trigonometry,
tuple unpacking and a keyed sort.  It imports nothing from the library, so a
change to the library never changes the probe.  It runs with the garbage
collector off, so the library's collector settings do not reach it.  On the
shared 2-core box, the probe's speed followed the engine's: over 12 windows
of ten seconds, the median engine scenario spread by 0.29 of its median, the
probe by 0.27, and their ratio by 0.028.

A scaled timing reads in *reference seconds*: the wall-clock seconds the
code would have taken had the probe run in :data:`REFERENCE_PROBE_S`.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

#: The probe's time at the reference speed.  Fixed once, so that scaled
#: timings compare across runs and commits; the probe's fastest runs on the
#: shared 2-core box take about this long.
REFERENCE_PROBE_S = 0.005
#: Probe readings taken back to back at each reading point.
READINGS = 2
#: A timing is scaled by the readings no further from it than its own
#: length, and by at least this many readings nearest to it.
MIN_READINGS = 6

_KEYS = [f"10.{i >> 8 & 255}.{i & 255}.{i % 7}" for i in range(6000)]


def probe_work() -> float:
    """The fixed probe workload: about 5 ms on an idle core."""
    table = {}
    for i, key in enumerate(_KEYS):
        table[key] = (i, math.sin(i * 1e-3) * math.cos(i * 2e-3))
    total = 0.0
    for key in reversed(_KEYS):
        i, value = table[key]
        total += math.sqrt(abs(value)) + i % 5
    order = sorted(_KEYS, key=lambda k: table[k][1])
    return total + len(order)


class SpeedProbe:
    """Probe readings over a run, and timings scaled by them."""

    def __init__(self) -> None:
        #: (midpoint, seconds) of every probe run.
        self.readings: list[tuple[float, float]] = []
        #: Wall seconds spent reading, so callers can leave them out.
        self.spent = 0.0
        self._last = float("-inf")

    def read(self) -> None:
        """Time :data:`READINGS` probe runs, with the collector off."""
        started = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(READINGS):
                t0 = time.perf_counter()
                probe_work()
                t1 = time.perf_counter()
                self.readings.append(((t0 + t1) / 2, t1 - t0))
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()
        self.spent += self._last - started

    def read_every(self, seconds: float) -> None:
        """Read unless the last reading is less than ``seconds`` old."""
        if time.perf_counter() - self._last >= seconds:
            self.read()

    def slowness(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran over [start, end]."""
        def distance(reading: tuple[float, float]) -> float:
            return max(start - reading[0], reading[0] - end, 0.0)

        # A short timing is bracketed by readings; a long one averages the
        # speed over a stretch as long as itself on either side.
        near = [r for r in self.readings if distance(r) <= end - start]
        if len(near) < MIN_READINGS:
            near = sorted(self.readings, key=distance)[:MIN_READINGS]
        return statistics.median(s for _, s in near) / REFERENCE_PROBE_S

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds for a timing that ran from ``start`` to ``end``."""
        return (end - start) / self.slowness(start, end)

    def median_ms(self) -> float:
        """The run's median probe time, for the environment record."""
        return 1000 * statistics.median(s for _, s in self.readings)
