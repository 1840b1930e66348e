"""Host-speed correction for in-process CPU-bound timings.

The benchmark host switches between a fast and a slow state (about 1.6x
apart, the two vCPUs independently) every fraction of a second to a few
seconds, and the switch is not CPU steal, so raw in-process timings do
not repeat from run to run.  While a timed phase runs, a sampler thread
of this process runs a fixed pure-Python reference loop every
``PERIOD_S`` seconds.  The interpreter lock pauses the measured work
while the loop runs, so each reading is the host's speed at that moment,
and the loop's own time is subtracted from every unit it overlaps.  The
process must be pinned to one CPU (``run.py`` does so for in-process
workloads): unpinned, the sampler thread reads whichever vCPU it lands
on, and that need not be the one doing the work.

A unit's corrected duration integrates ``NOMINAL_REF_MS / reading`` over
its interval, each instant taking the reading nearest to it: the unit
expressed in seconds of a host whose reference loop takes exactly the
nominal time.  Apply this only where this process is the only thing
working: a timing that includes another process (the ``repro serve``
subprocess) stays raw, because that process's CPU is not the one
sampled here.

The loop touches no repository code, so a change to the program can
never move the yardstick it is measured with.
"""

from __future__ import annotations

import bisect
import statistics
import threading
from time import perf_counter
from typing import List, Tuple

#: Nominal duration of one :func:`reference_loop` call, in milliseconds.
#: Fixed forever: changing it rescales every corrected metric.
NOMINAL_REF_MS = 0.5

#: Loop iterations; fixed together with the constant above.
REFERENCE_ITERATIONS = 1500

#: Seconds between two readings of the sampler thread.
PERIOD_S = 0.02


def _step(table, key, value):
    table[key] = table.get(key, 0) + value
    return value & 7


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Fixed interpreter work: calls, dict updates, tuple and list ops."""
    table = {}
    items = []
    acc = 0
    for i in range(iterations):
        key = (i * 7919) & 255
        acc += _step(table, key, i)
        items.append((key, acc))
        if len(items) > 32:
            items.sort()
            items.clear()
    return acc


def spot_reading_ms(calls: int = 5) -> float:
    """Median reference-loop time now, for runs whose timings stay raw."""
    samples = []
    for _ in range(calls):
        started = perf_counter()
        reference_loop()
        samples.append((perf_counter() - started) * 1000.0)
    return statistics.median(samples)


class HostClock:
    """Samples host speed while a phase runs; converts unit intervals.

    Use as a context manager around the timed phase, record each unit's
    ``(start, end)`` from :func:`time.perf_counter`, and convert them
    with :meth:`raw_s` / :meth:`corrected_s` after the phase ends.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = None
        self._centers: List[float] = []
        self._bounds: List[float] = []
        self._refs: List[float] = []

    def _reading(self) -> None:
        started = perf_counter()
        reference_loop()
        self.samples.append((started, perf_counter()))

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._reading()

    def __enter__(self) -> "HostClock":
        self._reading()
        self._thread = threading.Thread(
            target=self._run, name="host-clock", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._reading()
        self.samples.sort()
        self._refs = [
            (end - start) * 1000.0 for start, end in self.samples
        ]
        self._centers = [(start + end) / 2 for start, end in self.samples]
        self._bounds = [
            (left + right) / 2
            for left, right in zip(self._centers, self._centers[1:])
        ]

    def _loop_overlap(self, start: float, end: float, index: int) -> float:
        s_start, s_end = self.samples[index]
        return max(0.0, min(end, s_end) - max(start, s_start))

    def raw_s(self, start: float, end: float) -> float:
        """The unit's wall seconds minus reference loops inside it."""
        first = max(0, bisect.bisect_left(self._centers, start) - 1)
        last = bisect.bisect_right(self._centers, end) + 1
        inside = sum(
            self._loop_overlap(start, end, index)
            for index in range(first, min(last, len(self.samples)))
        )
        return (end - start) - inside

    def corrected_s(self, start: float, end: float) -> float:
        """The unit's seconds at nominal host speed."""
        total = 0.0
        index = bisect.bisect_left(self._bounds, start)
        cursor = start
        while cursor < end:
            piece_end = (
                min(end, self._bounds[index])
                if index < len(self._bounds) else end
            )
            busy = (piece_end - cursor) - self._loop_overlap(
                cursor, piece_end, index
            )
            total += busy * NOMINAL_REF_MS / self._refs[index]
            cursor = piece_end
            index += 1
        return total

    def median_ref_ms(self) -> float:
        return statistics.median(self._refs)
