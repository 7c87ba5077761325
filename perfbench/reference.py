"""Host speed, measured by a fixed reference kernel between the workload's calls.

The benchmark runs on a few cores of a shared host whose speed drifts
by 10 to 30 % over tens of seconds, for the workload's code and any
other code alike.  Raw wall times of one run then say as much about
the host's state as about the program.  So the runner interleaves a
fixed kernel with the timed work, about once a second, and scales
every timed figure by how fast the kernel ran in the same stretch.

The kernel mirrors the package's array work in two parts: numpy on
arrays that fit in the L2 cache (an argmax over a 20k x 5 score array,
as in a calibration pass at N = 5) and numpy over arrays several times
the L2 cache (as in a channel block of a long run).  A third part, a
plain Python loop, was tried and dropped: it tracked the workloads'
slow-downs worse than either numpy part.  Times are scaled by

    factor = NOMINAL_S / mean kernel seconds in the same phase

``NOMINAL_S`` is the kernel's median time on the machine the benchmark
was written on (2 vCPU Intel Xeon KVM guest, Python 3.11.7, numpy
2.4.6), so normalized seconds read close to wall seconds there.  The
kernel does not use ``swiptsched``: a change to the package moves the
workload's time and leaves the kernel's alone.  Its time is taken out
of the rounds it runs in.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.055
INTERVAL_S = 1.0  # other work between two samples
WARM_UP = 3  # kernel runs discarded: the first ones fault in fresh memory


class HostSpeed:
    """Reference kernel samples, grouped by the phase they were taken in."""

    def __init__(self):
        rng = np.random.default_rng(20150209)
        self._small = rng.random((20_000, 5))
        self._weights = rng.random(5)
        self._large = rng.random((250_000, 5))
        self.samples: dict[str, list[float]] = {}
        self.spent = 0.0  # seconds spent in the kernel so far
        self.sink = 0.0
        for _ in range(WARM_UP):
            self.kernel()
        self._last = perf_counter()

    def kernel(self) -> float:
        t0 = perf_counter()
        x = 0.0
        for _ in range(24):
            score = self._small * self._weights - 0.3 * self._small[:, ::-1]
            best = np.argmax(score, axis=1)
            x += float(np.take_along_axis(self._small, best[:, None], axis=1).mean())
            x += float(np.bincount(best, minlength=5).max())
        for _ in range(2):
            x += float(np.exp(-self._large).sum(axis=1).max())
        self.sink += x
        return perf_counter() - t0

    def sample(self, phase: str) -> None:
        seconds = self.kernel()
        self.samples.setdefault(phase, []).append(seconds)
        self.spent += seconds
        self._last = perf_counter()

    def maybe_sample(self, phase: str) -> None:
        """Sample if ``INTERVAL_S`` of other work has passed since the last one."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample(phase)

    def factor(self, phase: str) -> float:
        """Raw seconds times this are normalized seconds."""
        samples = self.samples.get(phase)
        return NOMINAL_S / statistics.fmean(samples) if samples else float("nan")

    def summary(self) -> str:
        return ", ".join(f"{phase} {statistics.fmean(v):.5f} s ({len(v)} samples)"
                         for phase, v in self.samples.items()) + f"; nominal {NOMINAL_S:g} s"
