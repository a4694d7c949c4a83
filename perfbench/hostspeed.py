"""Host-speed probe: a fixed pure-Python loop, timed between operations.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts for seconds to minutes at a time.  On a 2-vCPU Xeon a
fixed loop's 10-s medians fell from 219 to 138 ms within 90 s, and whole
runs of the same code moved by a quarter.  A drift that long moves every
operation of a run alike, so no amount of repetition inside one run
removes it.

So every timed interval is scaled to a nominal host speed.  The probe runs
a fixed loop at the start and then, between operations, whenever EVERY_S
has passed since the last probe.  An interval is multiplied by NOMINAL_S
over the mean of the two probes on either side of it.  The loop is the
benchmark's own code and allocates nothing the garbage collector tracks,
so a change to the program does not change the probe: a program that gets
10% faster reads 10% faster.  Raw (unscaled) times and the probe times are
kept in each run's report.
"""

from __future__ import annotations

import statistics
from time import perf_counter

LOOP = 40_000  # about 3 ms on a 2-vCPU Xeon at its usual speed
REPEATS = 3
NOMINAL_S = 0.003  # scaled times read as on a host where one loop takes this
EVERY_S = 0.25


def _loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


def probe() -> float:
    """Median seconds of REPEATS runs of the fixed loop."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Collects raw intervals and the probes taken between them."""

    def __init__(self):
        self.raw: list[float] = []
        # (number of intervals timed before the probe, probe seconds)
        self.marks: list[tuple[int, float]] = [(0, probe())]
        self.last = perf_counter()

    def add(self, seconds: float, force: bool = False) -> None:
        """Record one interval; probe if EVERY_S has passed (or if forced)."""
        self.raw.append(seconds)
        if force or perf_counter() - self.last >= EVERY_S:
            self.marks.append((len(self.raw), probe()))
            self.last = perf_counter()

    def scaled(self) -> list[float]:
        """Every interval recorded so far, at nominal speed.  Intervals after
        the last probe take that probe alone."""
        marks = self.marks
        if marks[-1][0] < len(self.raw):
            marks = marks + [(len(self.raw), marks[-1][1])]
        out = []
        for (i, before), (j, after) in zip(marks, marks[1:]):
            factor = NOMINAL_S / ((before + after) / 2)
            out += [t * factor for t in self.raw[i:j]]
        return out

    def probe_ms(self) -> list[float]:
        return [round(p * 1e3, 3) for _, p in self.marks]
