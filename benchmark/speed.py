"""How fast the machine runs while a job runs, sampled throughout the job.

The benchmark's host is shared: the same computation runs at one speed
while the other tenants are idle and up to about 1.6 times slower while
they are busy, switching within a fraction of a second, and the share
of slow time changes from minute to minute.  A probe run before or
after a job samples one instant of that.  This sampler runs a short
probe every ``INTERVAL_S`` of wall-clock time from a ``SIGALRM``
handler, for the whole life of the worker, so the probes see the same
mix of fast and slow time as the program does.

There are two probes, taken in turn: a pure-Python loop and a chain of
small numpy matrix-vector products, the two kinds of work the program
does.  Contention slows them by different amounts; the geometric mean
of their two slowdowns tracked the program better than either alone
(see benchmark/NOTES.md).

``scaled(a, b)`` turns the interval ``[a, b]`` into reference-machine
seconds: its length minus the time the probes took inside it, times
the speed factor measured inside it.  The probes never call buttonlab,
so a change to the program does not move them.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.04
# What each probe takes on the reference machine (2 cores, see
# benchmark/NOTES.md) while its other tenants are idle.
REFERENCE_PROBE_S = {"python": 0.0019, "numpy": 0.0018}

_MATRIX = np.random.default_rng(0).standard_normal((32, 32)) * 0.1
_VECTOR = np.ones(32)


def _python_probe() -> None:
    total = 0.0
    for i in range(25_000):
        total += (i % 7) * 0.5


def _numpy_probe() -> None:
    x = _VECTOR
    for _ in range(1000):
        x = np.tanh(_MATRIX @ x)


PROBES = (("python", _python_probe), ("numpy", _numpy_probe))


class _Record:
    """End times and a running sum of durations, for one kind of probe."""

    def __init__(self):
        self.ends: list[float] = []
        self.cumulative: list[float] = [0.0]

    def add(self, end: float, duration: float) -> None:
        self.ends.append(end)
        self.cumulative.append(self.cumulative[-1] + duration)

    def within(self, a: float, b: float) -> tuple[int, float]:
        lo = bisect.bisect_left(self.ends, a)
        hi = bisect.bisect_right(self.ends, b)
        return hi - lo, self.cumulative[hi] - self.cumulative[lo]


class SpeedSampler:
    """Runs the probes in turn every ``INTERVAL_S`` seconds and records when and how long."""

    def __init__(self):
        self.kinds = {name: _Record() for name, _ in PROBES}
        self._next = 0
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            name, probe = PROBES[self._next % len(PROBES)]
            self._next += 1
            start = time.monotonic()
            probe()
            end = time.monotonic()
            self.kinds[name].add(end, end - start)
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, a: float, b: float) -> float:
        """Reference-machine seconds per second during ``[a, b]``.

        The geometric mean over the probe kinds of reference duration
        over mean duration; 1 while a kind has no probe in the interval.
        """
        logs = []
        for name, record in self.kinds.items():
            count, total = record.within(a, b)
            if not count:
                return 1.0
            logs.append(math.log(REFERENCE_PROBE_S[name] * count / total))
        return math.exp(sum(logs) / len(logs))

    def scaled(self, a: float, b: float, factor: float | None = None) -> float:
        """``[a, b]`` in reference-machine seconds, probe time taken out.

        ``factor`` defaults to the one measured inside ``[a, b]``; pass
        a longer window's for intervals too short to hold many probes.
        """
        probe_s = sum(record.within(a, b)[1] for record in self.kinds.values())
        if factor is None:
            factor = self.factor(a, b)
        return (b - a - probe_s) * factor

    def summary(self) -> dict:
        out = {"probes": sum(len(record.ends) for record in self.kinds.values())}
        for name, record in self.kinds.items():
            n = len(record.ends)
            out[f"{name}_mean_s"] = record.cumulative[-1] / n if n else 0.0
        return out
