"""A frozen reference kernel that says how fast the host's clock is right now.

It never calls the program under test, so a change to the program cannot
move it; it only moves when the host does.  On the reference host it flips
between two speeds 1.5x apart (7.1 ms and 10.8 ms: the 2.1 GHz base clock
against turbo, granted or not as the other tenants of the package allow) at
a 10-400 ms scale, and the share of time spent in the slow one drifts over
minutes.  A numpy kernel streaming 16 MiB arrays did not move with it when
this was built, which is why interpreter-bound phases suffer more than the
serial scan.  That is the disturbance the estimators in ``measure.py`` fight;
these samples let a reader of a result see which state a run was taken in.
They are reported, never used to correct a metric.
"""

from __future__ import annotations

import statistics
import time

clock = time.perf_counter
#: A sample this much above the run's fastest was taken in the slow state.
SLOW_FACTOR = 1.25


class HostProbe:
    """Each :meth:`sample` appends a few timings of the kernel."""

    def __init__(self) -> None:
        self.clock_s: list[float] = []

    @staticmethod
    def _kernel() -> None:
        """Interpreter-bound: dict and integer work in an 8 KiB working set."""
        table: dict[int, int] = {}
        total = 0
        for i in range(60000):
            total += i * i & 0xFF
            table[i & 1023] = total

    def sample(self, times: int = 3) -> None:
        for _ in range(times):
            start = clock()
            self._kernel()
            self.clock_s.append(clock() - start)

    def metrics(self) -> dict:
        slow = sum(1 for s in self.clock_s if s > SLOW_FACTOR * min(self.clock_s))
        return {
            "host.clock_kernel_ms": (statistics.median(self.clock_s) * 1e3, "ms"),
            "host.clock_slow_share": (slow / len(self.clock_s), "ratio"),
        }
