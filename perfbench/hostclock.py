"""Time in reference-host seconds: wall time corrected for how fast the
host runs at the moment.

On a shared 2-vCPU virtual machine the same pipeline takes up to twice as
long for minutes at a time, with CPU time equal to wall time and no steal
time to show for it, so a raw wall time mostly measures the neighbours.
HostClock measures that speed alongside the program: a fixed calibration
loop written here (integer Bareiss elimination, no densepde code, so no
change to the program can move it) runs REPEATS times when the clock
starts, every
PERIOD_S seconds from a SIGALRM handler, and once when it stops.  Between
two calibrations the host is taken to run at the mean of their speeds, and
a span of wall time is rescaled to what it would have taken on a host
where one calibrate() call takes CALIBRATION_REF_S.  The calibrations' own
time is left out of every span.

    clock = HostClock(); clock.start()
    ...  # the work
    clock.stop(); clock.ref_seconds(a, b)  # a, b from time.perf_counter()
"""

from __future__ import annotations

import bisect
import signal
import time

# one calibrate() call on an uncontended 2.0 GHz Xeon vCPU under Python
# 3.11.7 (the fastest calls seen there): the host on which reference
# seconds equal wall seconds
CALIBRATION_REF_S = 0.00085
PERIOD_S = 0.2
REPEATS = 3  # calibrate() calls per calibration

_MATRIX = [[(7 * i * i + 3 * j + 11 * i * j) % 23 - 11 + (5 if i == j else 0) for j in range(24)] for i in range(24)]


def calibrate() -> int:
    """Fraction-free Gaussian elimination of a fixed 24x24 integer matrix
    (its determinant), interpreted Python on growing integers like the
    program's exact arithmetic."""
    a = [row[:] for row in _MATRIX]
    n, prev = len(a), 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next(i for i in range(k + 1, n) if a[i][k] != 0)
            a[k], a[swap] = a[swap], a[k]
            prev = -prev
        pivot = a[k][k]
        for i in range(k + 1, n):
            row, lead = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - a[k][j] * lead) // prev
        prev = pivot
    return a[n - 1][n - 1]


def _timed_calibration() -> tuple[float, float]:
    start = time.perf_counter()
    for _ in range(REPEATS):
        calibrate()
    end = time.perf_counter()
    return start, end


class HostClock:
    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.marks: list[tuple[float, float]] = []  # start, end of each calibration
        self._previous = None
        self._cumulative = None

    def _mark(self, *_):
        self.marks.append(_timed_calibration())

    def start(self):
        calibrate()  # let the interpreter specialise the loop first
        self._mark()
        self._previous = signal.signal(signal.SIGALRM, self._mark)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._mark()

    def at(self, t: float) -> float:
        """Reference-host seconds from the first calibration to perf_counter
        time t, calibrations left out.  Call it after stop()."""
        if self._cumulative is None:
            self._factors, self._cumulative = [], [0.0]
            for (s0, e0), (s1, e1) in zip(self.marks, self.marks[1:]):
                self._factors.append(2 * REPEATS * CALIBRATION_REF_S / (e0 - s0 + e1 - s1))
                self._cumulative.append(self._cumulative[-1] + (s1 - e0) * self._factors[-1])
            self._ends = [e for s, e in self.marks]
        i = bisect.bisect_right(self._ends, t) - 1  # the last calibration over by t
        if i < 0:
            return 0.0
        if i == len(self._factors):
            return self._cumulative[i]
        return self._cumulative[i] + min(t - self._ends[i], self.marks[i + 1][0] - self._ends[i]) * self._factors[i]

    def ref_seconds(self, a: float, b: float) -> float:
        """Reference-host seconds spent in [a, b], outside calibrations."""
        return self.at(b) - self.at(a)

    def calibrations(self) -> int:
        return len(self.marks)
