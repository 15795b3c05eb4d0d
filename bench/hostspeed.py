"""Host-speed correction for the benchmark's times.

The CPU speed this benchmark gets from a shared host drifts by up to
±20 % over seconds to minutes, more than any workload's own run-to-run
variation.  A fixed amount of pure-Python work, the calibration burst,
is timed next to the measured work: once before the first timed region
of a process, every ``INTERVAL_S`` seconds while regions run (from a
SIGALRM handler, which Python runs between bytecodes of the measured
code), and once after the last region.  A region's corrected time is
its own time, with the bursts inside it taken out, times
``REFERENCE_S`` over the median time of the bursts from the one just
before the region to the one just after it: the time the region would
take on a host that runs one burst in ``REFERENCE_S`` seconds.

The burst is the benchmark's own code and calls nothing in dflag, so a
change to dflag moves corrected times exactly as it moves raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median time of one burst on the 2-vCPU host the reference figures in
# README.md come from; it only sets the scale of corrected times.
REFERENCE_S = 0.004
INTERVAL_S = 0.1
BURST_MATRICES = 80


def _rref(rows: list[list[int]], p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over F_p, the nonzero rows."""
    rows = [list(r) for r in rows]
    top = 0
    for c in range(len(rows[0])):
        pivot = next((r for r in range(top, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        inv = pow(rows[top][c], p - 2, p)
        rows[top] = [x * inv % p for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[top])]
        top += 1
    return tuple(tuple(r) for r in rows[:top])


def burst() -> int:
    """A fixed amount of interpreter work of the kinds dflag spends its
    time in: row reduction of small matrices over F_7 (function calls,
    list comprehensions, modular arithmetic), tuple keys in a dict and a
    sort.  The matrices come from a fixed linear congruential sequence."""
    p, x = 7, 1
    seen: dict[tuple, int] = {}
    for _ in range(BURST_MATRICES):
        mat = []
        for _ in range(4):
            row = []
            for _ in range(6):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                row.append(x % p)
            mat.append(row)
        key = _rref(mat, p)
        seen[key] = seen.get(key, 0) + 1
    return len(sorted(seen))


class HostSpeed:
    """Bursts timed before, during and after measured regions.

    ``start()`` takes a burst and arms the interval timer, ``stop()``
    disarms it and takes a last burst.  Between them, ``mark()`` and
    ``region()`` bound each timed region, and once the regions are done
    ``factor()`` gives the correction of each.
    """

    def __init__(self, interval_s: float | None = INTERVAL_S):
        self.interval_s = interval_s  # None: no bursts inside regions
        self.bursts: list[float] = []
        self.busy_s = 0.0  # time spent in bursts so far
        self._sampling = False

    def sample(self) -> None:
        self._sampling = True
        start = time.perf_counter()
        burst()
        seconds = time.perf_counter() - start
        self.bursts.append(seconds)
        self.busy_s += seconds
        self._sampling = False

    def _on_alarm(self, signum, frame) -> None:
        # An alarm that lands inside a burst would nest a second one in
        # it and count its time twice.
        if not self._sampling:
            self.sample()

    def start(self) -> None:
        self.sample()
        if self.interval_s:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def mark(self) -> tuple[int, float, float]:
        return len(self.bursts), self.busy_s, time.perf_counter()

    def region(self, begin: tuple[int, float, float]) -> tuple[int, int, float]:
        """(first burst index, end burst index, own seconds) of the region
        that began at mark ``begin`` and ends now."""
        index, busy, start = begin
        seconds = time.perf_counter() - start - (self.busy_s - busy)
        return index, len(self.bursts), seconds

    def factor(self, first: int, end: int) -> float:
        """Reference over measured speed around bursts [first, end): the
        burst just before the region, those inside it and the one just
        after it."""
        around = self.bursts[max(first - 1, 0) : end + 1]
        return REFERENCE_S / statistics.median(around)

