"""Host-speed gauge: scales the end-to-end times to one reference host speed.

The benchmark runs on a few vCPUs of a shared host whose speed switches
between states about 1.3-1.5x apart.  A state lasts from seconds to many
minutes (in one set of runs, the first 8 minutes were slow and the rest
fast), so a whole run, or a third of a set of runs, can sit in one state;
no run length the time limit allows averages that out, and raw wall times
of one commit spread past the 0.25 bound between runs.

The gauge times a short fixed task that does not touch ``repro`` (a
pure-Python dict loop and two numpy passes) between ops, outside their
timing, at least every ``interval`` seconds.  Each end-to-end time sample
is multiplied by ``REFERENCE_S`` over the gauge's reading around it.  The
host's speed moves both the sample and the reading; the program's own
speed moves only the sample.  Scaled times read as wall times on a host
whose gauge reads ``REFERENCE_S``; the raw times stay in the record.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: gauge reading of the reference host: a 2 vCPU Xeon in its fast state
#: reads 9-10 ms, its slow state 14-16 ms
REFERENCE_S = 0.010


class HostGauge:
    """Readings of the calibration task over one run."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        #: (start time, seconds the calibration took), in time order
        self.readings: list[tuple[float, float]] = []
        self._data = np.random.default_rng(0).integers(0, 1 << 30, 200_000)
        # Busy the CPU for a moment first: the first calls pay numpy's
        # one-off costs, and a vCPU that was idle reads slow at first.
        warm_until = time.perf_counter() + 0.3
        while time.perf_counter() < warm_until:
            self._once()

    def _once(self) -> float:
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(60_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        np.sort(self._data)
        np.cumsum(self._data)
        return time.perf_counter() - t0

    def read(self) -> None:
        """One reading: the median of three runs of the calibration task."""
        t = time.perf_counter()
        self.readings.append((t, statistics.median(self._once() for _ in range(3))))

    def read_if_due(self) -> None:
        if not self.readings or time.perf_counter() - self.readings[-1][0] >= self.interval:
            self.read()

    def scale(self, t0: float, t1: float) -> float:
        """``REFERENCE_S`` over the mean of the last reading that started
        before ``t0`` and the first that started after ``t1``."""
        times = [t for t, _ in self.readings]
        before = max(bisect.bisect_right(times, t0) - 1, 0)
        after = min(bisect.bisect_left(times, t1), len(times) - 1)
        reading = (self.readings[before][1] + self.readings[after][1]) / 2
        return REFERENCE_S / reading
