"""Rescale measured times to a machine of fixed speed.

The reference VM switches between a fast and a 1.5-1.7x slower speed every
few seconds, and the share of slow time drifts over minutes, so one
repetition's time varies by 16-18 % (coefficient of variation over 12
back-to-back repetitions of scan-mixed and waldschmidt-general).  A
Sampler interrupts the process every PERIOD seconds with a SIGALRM handler
that times one call of `yardstick`: a fixed piece of Fraction, tuple and set
work of the same kind as symbpow's, which the program cannot change.  The
mean yardstick time over a span measures how slow the machine was during
it, and

    rescaled = (wall - time spent in the handler) * REFERENCE_S / mean yardstick

is the span's time on a machine where one yardstick call takes REFERENCE_S
(the mean leaves out outliers, see `robust_mean`).
Over the same 12 repetitions the rescaled times varied by 3.8-5.4 %.  The
handler costs about 3 % of the wall time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.01
MIN_SAMPLES = 20  # an op shorter than this many periods borrows its neighbours'
OUTLIER = 3.0  # a sample this many times the median of its span is dropped
REFERENCE_S = 0.0003  # about the mean yardstick call on the reference VM

perf_counter = time.perf_counter


def yardstick():
    """Two pivots on a small dense Fraction tableau, then tuple and set work."""
    rows = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + j) % 5 + 1) for j in range(7)]
            for i in range(4)]
    for p in (0, 1):
        pivot = rows[p][p]
        rows[p] = [x / pivot for x in rows[p]]
        for i in range(4):
            if i != p:
                f = rows[i][p]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[p])]
    vectors = {tuple(sorted((i * 5 + j) % 4 for j in range(4))) for i in range(30)}
    return min(vectors), rows[0][-1]


class Sampler:
    """Times one yardstick call every PERIOD seconds of wall time.

    `samples` holds (end time, duration) pairs in time order."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._ends: list[float] = []

    def _tick(self, signum, frame) -> None:
        # a collection of the program's objects must not land in a sample
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        yardstick()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.samples.append((end, end - start))
        self._ends.append(end)

    def start(self) -> "Sampler":
        yardstick()  # the first call runs cold; it is not a sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, start: float, end: float) -> float:
        """The time of the span [start, end] on the reference machine: its
        wall time less the samples taken in it, at the mean yardstick time
        of those samples, or of the MIN_SAMPLES samples nearest the span
        when fewer fall in it."""
        if not self.samples:
            raise RuntimeError("no yardstick sample taken")
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._ends, end)
        in_handler = sum(d for _, d in self.samples[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.samples)):
            lo, hi = max(0, lo - 1), min(len(self.samples), hi + 1)
        mean = robust_mean([d for _, d in self.samples[lo:hi]])
        return (end - start - in_handler) * REFERENCE_S / mean

    def summary(self) -> dict:
        """Seconds in the handler and mean yardstick time of the whole
        process, for a parent that timed it."""
        durations = [d for _, d in self.samples]
        if not durations:
            raise RuntimeError("no yardstick sample taken")
        return {"handler_s": sum(durations), "yard_mean": robust_mean(durations)}


def robust_mean(durations: list[float]) -> float:
    """Mean of the samples, less those over OUTLIER times their median: a
    sample that a page-fault burst or a preemption stretched to several
    milliseconds would otherwise move a short span's mean by tens of %."""
    cap = OUTLIER * statistics.median(durations)
    kept = [d for d in durations if d <= cap]
    return sum(kept) / len(kept)


def rescale_summary(wall: float, summary: dict) -> float:
    """`Sampler.rescale` for a child process that the parent timed."""
    return (wall - summary["handler_s"]) * REFERENCE_S / summary["yard_mean"]
