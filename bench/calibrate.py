"""Calibration of wall times against a fixed plain-Python reference loop.

A shared machine's speed can drift by tens of percent within seconds, while
the program's work stays the same. So a timer signal interrupts the
benchmark every PERIOD_S and runs one reference pass: a fixed loop of plain
Python that calls no eqsat code and allocates nothing the garbage collector
tracks, so its speed is the machine's and not the program's heap. Passes
interleave with the work at a fine grain. A stretch of work is rescaled to
the nominal speed, at which one pass takes NOMINAL_REF_S, by the mean pass
time within WINDOW_S of it. The time spent in passes is taken out of the
work.
"""

import bisect
import signal
import time

NOMINAL_REF_S = 0.00105
PERIOD_S = 0.01
WINDOW_S = 1.0

_ITERATIONS = 10_000
# Ints only, so this dict is not tracked by the garbage collector, and the
# loop below allocates nothing that is.
_TABLE = {i: (i * 2654435761) % 4093 for i in range(256)}


def _mix(acc, i):
    return (acc * 31 + _TABLE[i & 255]) % 1000003


def _reference_loop():
    acc = 0
    for i in range(_ITERATIONS):
        acc = _mix(acc, i)
    return acc


class Sampler:
    """Reference passes run on SIGALRM, with the moments they ran."""

    def __init__(self):
        self.mids: list[float] = []  # wall midpoint of each pass
        self.seconds: list[float] = []  # wall duration of each pass
        self.spent = 0.0  # total wall time spent in passes

    def _pass(self, *_):
        t = time.perf_counter()
        _reference_loop()
        dt = time.perf_counter() - t
        self.mids.append(t + dt / 2)
        self.seconds.append(dt)
        self.spent += dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._pass)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def stop(self) -> None:
        """Stop the timer, then run passes for WINDOW_S, so that work that
        ended last has passes on both sides."""
        self.disarm()
        end = time.perf_counter() + WINDOW_S
        while time.perf_counter() < end:
            self._pass()

    def clock(self) -> float:
        """Wall time minus the time spent in reference passes."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:  # no pass ran in between
                return t - spent

    def scale(self, start: float, end: float) -> float:
        """Factor from work time to calibrated time, for work that ran
        between the wall times `start` and `end`."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        near = self.seconds[lo:hi]
        return NOMINAL_REF_S * len(near) / sum(near)
