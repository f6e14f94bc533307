"""Host speed sampling, so that timings can be rescaled to a nominal speed.

The benchmark runs on shared hosts whose speed changes from second to
second: one fixed order-25 check timed in one-second windows on a 2-vCPU
KVM guest read anywhere from 36 to 59 ms, and CPU time moved with wall
time, so the process was not descheduled but ran slower.  Across 20-second
runs that left 10-20 % between the quartiles of identical work.

The speed swings happen within a second, so the estimate for a check has
to come from right beside it: the worker times a fixed integer loop just
before every check, and while a ``HostSpeed`` is active a SIGALRM handler
also times it every PERIOD_S seconds, so long checks are sampled inside.
In six processes timing the same 5 ms global report between two loop
samples, raw medians ranged from 5.0 to 7.9 ms while the ratio to the
loop stayed within 1.5 %.
``spent`` is the time the handler took, which the worker subtracts from a
check's interval; ``scale`` gives REF_NOMINAL_S over the mean loop time of
the samples bracketing an interval, and a latency multiplied by it is the
latency at the speed where the loop takes REF_NOMINAL_S.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

PERIOD_S = 0.01
REF_NOMINAL_S = 0.0002

clock = time.perf_counter


def reference_loop() -> int:
    """Fixed integer work, about 0.2 ms on a 2.1 GHz Xeon."""
    x, acc = 0x9E3779B97F4A7C15, 0
    for i in range(200):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc = math.gcd(acc * x + i, (x << 64) | i)
    return acc


class HostSpeed:
    def __init__(self):
        self.at = []
        self.ref = []
        self.spent = 0.0
        self._busy = False

    def sample(self) -> None:
        """Time reference_loop() once; the caller runs one before each check."""
        if self._busy:
            return
        self._busy = True
        t0 = clock()
        reference_loop()
        t1 = clock()
        self.at.append(t0)
        self.ref.append(t1 - t0)
        self.spent += clock() - t0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._on_alarm)
        # Restart system calls the alarm interrupts, including those made
        # by C code that does not retry on EINTR.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S over the mean loop time of the samples that bracket
        [t0, t1]: the last one before it, those inside, the first after.
        With ten or more, the slowest and fastest tenth are dropped."""
        lo = max(bisect.bisect_right(self.at, t0) - 1, 0)
        hi = bisect.bisect_left(self.at, t1) + 1
        window = sorted(self.ref[lo:hi])
        if not window:
            raise RuntimeError("no host speed sample brackets the interval")
        cut = len(window) // 10
        kept = window[cut : len(window) - cut]
        return REF_NOMINAL_S * len(kept) / sum(kept)
