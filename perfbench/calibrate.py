"""How fast this machine runs Python right now, measured by a fixed kernel.

On a shared host the same code runs up to 1.9 times slower for stretches of
a second to a minute, and process CPU time slows with wall time, so neither
can compare runs made minutes apart.  The benchmark therefore runs a fixed
reference kernel every TICK_S of the run, from a SIGPROF handler so that it
also runs inside long library calls, and reports times in reference seconds:
each stretch of work between two kernel runs counts

    measured seconds * NOMINAL_S / median kernel seconds nearby

and the kernel's own runs are left out.  The kernel uses only the standard
library, never ghkit, and does the kind of work the library does (Fraction
arithmetic, dict and tuple traffic, small-integer min/max sweeps), so a
change to the library moves reference seconds as it moves seconds, while a
slow stretch of the host slows the work and the kernel alike.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.010  # the kernel's time on a calm core of a 2.1 GHz x86-64 VM
KERNEL_CHECK = (Fraction(217, 12), 1261, 0)  # the kernel's exact result
TICK_S = 0.2  # CPU seconds between kernel runs while ticking
WINDOW_S = 0.25  # kernel runs this close to a stretch of work time it
RECENT = 5  # kernel runs that give the machine's speed of late


def kernel() -> tuple:
    fractions = [Fraction(i, 3 + i % 11) for i in range(1, 60)]
    widest = Fraction(0)
    for a in fractions[::3]:
        for b in fractions:
            if a - b > widest:
                widest = a - b
    table: dict[tuple[int, int], int] = {}
    for i in range(4000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    rows = [[(i * j) % 17 for j in range(40)] for i in range(40)]
    closest = min(
        max(abs(rows[i][k] - rows[j][k]) for k in range(40))
        for i in range(40)
        for j in range(i + 1, 40)
    )
    return widest, len(table), closest


class Speed:
    """Kernel runs taken through a run: when each began, and how long it took."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.took: list[float] = []
        self._busy = False

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            began = perf_counter()
            result = kernel()
            self.starts.append(began)
            self.took.append(perf_counter() - began)
            if result != KERNEL_CHECK:
                raise RuntimeError(f"reference kernel returned {result}")

    def _tick(self, signum, frame) -> None:
        """Run the kernel once, with any time limit set on ITIMER_REAL (see
        workloads.limited) paused meanwhile, so a tick inside a limited
        call takes nothing from its limit."""
        if self._busy:
            return
        self._busy = True
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            self.sample()
        finally:
            if remaining > 0:
                signal.setitimer(signal.ITIMER_REAL, remaining)
            self._busy = False

    @contextmanager
    def ticking(self):
        """Run the kernel every TICK_S of CPU time while the block runs."""
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """How many times slower than nominal the machine ran from `start` to
        `end` (by default: of late), by the median kernel time nearby."""
        if start is None:
            nearby = self.took[-RECENT:]
        else:
            low = bisect_left(self.starts, start - WINDOW_S)
            high = bisect_left(self.starts, end + WINDOW_S)
            if low == high:  # none that close: the runs just before, else after
                low, high = (max(low - RECENT, 0), low) if low else (0, RECENT)
            nearby = self.took[low:high]
        return statistics.median(nearby) / NOMINAL_S if nearby else 1.0

    def _stretches(self, start: float, end: float):
        """The stretches of [start, end) that no kernel run took."""
        edge = start
        first = bisect_left(self.starts, start)
        last = bisect_left(self.starts, end)
        for began, took in zip(self.starts[first:last], self.took[first:last]):
            if began > edge:
                yield edge, began
            edge = max(edge, began + took)
        if end > edge:
            yield edge, end

    def work_seconds(self, start: float, end: float) -> float:
        """Seconds from `start` to `end`, less the kernel's runs."""
        return sum(b - a for a, b in self._stretches(start, end))

    def reference_seconds(self, start: float, end: float) -> float:
        """`work_seconds`, each stretch rescaled by the kernel runs nearby."""
        return sum((b - a) / self.scale(a, b) for a, b in self._stretches(start, end))
