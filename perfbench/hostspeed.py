"""Host-speed sampling, so host times can be scaled to a reference host.

The shared host this benchmark was written on changes speed in phases
that last from seconds to minutes, and process CPU time moves with wall
time, so a slow phase is a slower CPU, not descheduling.  The same
replay took from 5.4 s to 9.6 s within minutes.

:class:`HostSpeed` times a fixed pure-Python loop in the CPU time of the
thread that does the measured work, between pieces of that work.
:meth:`HostSpeed.scale` turns a host interval into *reference seconds*:
each stretch of it between samples counts its length times
:data:`REFERENCE_NS` over the loop cost sampled around that stretch.  Of the loops tried (pure Python, small numpy gathers, a
memory-bound sum) the pure-Python one tracked the replay's speed best.
The loop is not simulator code, so a change to the simulator moves
scaled times as much as raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

clock = time.perf_counter
#: Loop cost, in ns per iteration, of the reference host that scaled
#: times are expressed on (a fast phase of the 2-core host the benchmark
#: was written on).
REFERENCE_NS = 70.0
#: Loop iterations per sample (about 1 ms).
ITERATIONS = 10_000
#: Host seconds either side of a stretch of work whose samples set its
#: speed (about ten samples between 1,024-request chunks).
PAD = 0.25


def loop_ns(iterations: int) -> float:
    """CPU ns per iteration of a fixed integer loop in the calling thread."""
    t0 = time.thread_time_ns()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return (time.thread_time_ns() - t0) / iterations


class HostSpeed:
    """Samples of the calibration loop's cost, each with the host
    interval it took."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.costs: list[float] = []

    def sample(self, n: int = 1) -> None:
        """Take ``n`` samples in the calling thread."""
        for _ in range(n):
            t0 = clock()
            cost = loop_ns(ITERATIONS)
            self.starts.append(t0)
            self.ends.append(clock())
            self.costs.append(cost)

    def cost_ns(self, t0: float, t1: float) -> float:
        """Median loop cost of the samples within ``PAD`` of ``[t0, t1]``."""
        lo = bisect.bisect_left(self.ends, t0 - PAD)
        hi = bisect.bisect_right(self.starts, t1 + PAD)
        if hi <= lo:
            raise RuntimeError("no host-speed sample around a timed interval")
        return statistics.median(self.costs[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds of the host interval ``[t0, t1]``: each
        stretch between the samples taken inside it is scaled by the
        loop cost sampled around that stretch; the samples themselves
        do not count."""
        total = 0.0
        a = t0
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_left(self.starts, t1)
        for start, end in zip(self.starts[lo:hi] + [t1], self.ends[lo:hi] + [t1]):
            b = min(max(a, start), t1)
            if b > a:
                total += (b - a) * REFERENCE_NS / self.cost_ns(a, b)
            a = max(a, end)
        return total

    def mops(self) -> float:
        """Calibration score: millions of loop iterations per CPU second."""
        if not self.costs:
            self.sample(20)
        return 1e3 / statistics.median(self.costs)


class Unscaled:
    """Stand-in for :class:`HostSpeed` that samples nothing: times stay
    host seconds (the traced run, whose spans must cover the wall)."""

    def sample(self, n: int = 1) -> None:
        pass

    def scale(self, t0: float, t1: float) -> float:
        return t1 - t0


UNSCALED = Unscaled()
