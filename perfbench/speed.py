"""Machine-speed reference for timing on shared hardware.

On a shared host the speed of a core drifts by 20% or more over seconds to
minutes as other tenants come and go, so two runs of the same code can differ
by more than any useful regression bound. While a measuring process runs, an
interval timer therefore interrupts it every PERIOD_S, and the signal handler
times one run of a reference kernel in the same thread. A timed operation's
wall time is its interval less the probe time inside it; the benchmark
reports that time scaled by the mean of REFERENCE_S / (kernel duration) over
the probes that ran during the operation, so it reads as a time on a host
where the kernel takes REFERENCE_S. Because the probes also run in the middle
of long operations such as prove, the scale follows the host's speed while
they run, not only at their edges. The mean of the speed, not the median of
the durations, weights each moment of an operation alike when the host
switches between fast and slow spells, and a probe stretched by a preemption
counts as a slow moment rather than as an outlier.

The kernel is a fixed mix of what projstark spends its time on: interpreter
loops of modular arithmetic over lists, SHA-256 of short messages, and JSON.
The wall-clock figures are kept beside the scaled ones in the run's record.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import signal
import statistics
import time
from typing import List

# Typical kernel duration as a probe between projstark's own work, on a
# lightly loaded 2.1 GHz x86-64 core with CPython 3.11.
REFERENCE_S = 0.0009
# About 4% of the measuring process goes to probes at this period.
PERIOD_S = 0.025
# Speed over some timed work is estimated from the probes that ran during it,
# in a window widened to at least this many seconds centred on it, so that
# short work, such as one online stage, has a probe or two. Wider windows
# track the host's fast and slow spells less closely; the medians the
# benchmark reports average out the noise of so few probes.
MIN_WINDOW_S = 0.05


def reference_kernel() -> int:
    """A polynomial product and Horner evaluation mod a small prime, then
    SHA-256 of short messages and a JSON round trip of their digests."""
    q = 769
    a = list(range(1, 41))
    out = [0] * 80
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] = (out[i + j] + x * y) % q
    acc = 0
    for c in out * 8:
        acc = (acc * 17 + c) % q
    digests = [hashlib.sha256(i.to_bytes(8, "little")).digest() for i in range(300)]
    json.loads(json.dumps([d.hex() for d in digests]))
    return acc


class SpeedProbe:
    """Reference-kernel runs on a timer through a measuring process.

    Use as a context manager in the main thread; the probes run from entry
    to exit, and the timer and the previous SIGALRM handler are restored on
    exit.
    """

    def __init__(self):
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, start: float, end: float) -> float:
        """Seconds of probes that started in [start, end]; a probe runs to
        its end before the interrupted code goes on."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.durations[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S / duration over the probes in [start, end],
        widened to MIN_WINDOW_S: the factor that turns a wall time measured
        in [start, end] into a reference-speed time."""
        pad = max(0.0, (MIN_WINDOW_S - (end - start)) / 2)
        lo = bisect.bisect_left(self.starts, start - pad)
        hi = bisect.bisect_right(self.starts, end + pad)
        if lo == hi:
            # a long call into C held the timer's signal off; take the
            # nearest probe on either side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return statistics.fmean(REFERENCE_S / d for d in self.durations[lo:hi])

    def timed(self, start: float, end: float):
        """(wall, scaled) seconds of an operation that ran from start to end."""
        wall = end - start - self.busy(start, end)
        return wall, wall * self.factor(start, end)
