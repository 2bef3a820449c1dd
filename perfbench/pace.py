"""The host's speed, sampled all through a run.

The CPU of a shared host changes speed at every time scale, from tens of
milliseconds to tens of minutes (see ``README.md``, "Steadiness"), and
each core on its own.  Wall times taken minutes apart then differ by up
to half even when the code does not change.  So the benchmark also
times a short fixed pure-Python loop, in the calling thread's CPU time,
on the benchmark's own threads all through a run: around each set-up
step and, at most every ``EVERY_S`` per client, before a request is
sent.  The loop never calls the program, and it reads its own thread's
CPU time, so the program's threads and processes do not count in what
it measures.

A timed value is reported at *reference speed*: its wall time times
``(REFERENCE_S / loop seconds) ** ELASTICITY[workload]``, the time the
same work would take on a host that runs the loop in exactly
``REFERENCE_S`` seconds.  A request's loop seconds are the mean of the
``NEAREST`` samples taken closest to it; a stretch of work's are the
mean of the samples taken during it.  The raw wall times are printed
next to them.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

#: Iterations of the loop; it takes some 1-2 ms on a 2-core x86-64 host.
LOOP_ITERATIONS = 15_000

#: Loop time that defines reference speed, in seconds of thread CPU time.
REFERENCE_S = 0.0015

#: Least time between two samples taken by one client, in seconds.
EVERY_S = 0.05

#: Samples a request's loop time is averaged over.
NEAREST = 20

#: How much more a workload slows down than the loop when the host
#: does.  The loop is small and touches little memory, the program's
#: work much, and a busy neighbour slows both.  Fixed ``repro`` work (an
#: in-process CLI call, a 200-sample service request) over 10- and
#: 20-second windows of a 4-minute series had a log-log slope of
#: 1.29-1.41 against the loop.  Per workload, each value is the mean
#: slope of raw throughput against the run's mean loop time over two
#: sets of runs (1.25 and 1.26; 1.47 and 1.52; 1.48 and 1.25).
#: warm-sample's is the highest; its supervised workers run unpinned,
#: on either CPU, where the loop does not sample.
ELASTICITY = {"cold-exact": 1.25, "warm-sample": 1.5, "http-churn": 1.35}


def loop_seconds() -> float:
    """Thread CPU seconds of one run of the fixed loop."""
    start = time.thread_time()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return time.thread_time() - start


class Sampler:
    """Loop samples taken during a run, each with the time it was taken."""

    def __init__(self, workload: str) -> None:
        self.elasticity = ELASTICITY[workload]
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._last: dict[int, float] = {}
        self._lock = threading.Lock()

    def sample(self, client: int = 0, force: bool = False) -> None:
        """Time the loop, unless ``client`` did less than ``EVERY_S`` ago."""
        now = time.perf_counter()
        if not force and now - self._last.get(client, float("-inf")) < EVERY_S:
            return
        seconds = loop_seconds()
        with self._lock:
            self._last[client] = now
            position = bisect.bisect(self.times, now)
            self.times.insert(position, now)
            self.seconds.insert(position, seconds)

    def factor(self) -> float:
        """Wall time to reference time, for the stretch the samples span."""
        return self._factor(self.seconds)

    def factor_at(self, start: float, end: float) -> float:
        """Wall time to reference time, for work from ``start`` to ``end``.

        Averages the ``NEAREST`` samples closest in time to the work's
        midpoint.
        """
        middle = (start + end) / 2
        low = high = bisect.bisect(self.times, middle)
        while high - low < min(NEAREST, len(self.times)):
            if high == len(self.times) or (
                low > 0 and middle - self.times[low - 1] < self.times[high] - middle
            ):
                low -= 1
            else:
                high += 1
        return self._factor(self.seconds[low:high])

    def _factor(self, loop_seconds: list[float]) -> float:
        return (REFERENCE_S / statistics.fmean(loop_seconds)) ** self.elasticity
