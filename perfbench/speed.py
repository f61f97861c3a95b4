"""Times in reference seconds: elapsed time scaled by the machine's speed.

The CPU speed of a shared box drifts: a fixed pure-Python loop has been
seen to take anywhere from 1x to 3.6x its best time within minutes, with
nothing else running in the container.  Raw op times inherit that drift,
so two runs of the same code could differ by more than any useful bound.

``SpeedClock`` samples the machine's speed while ops run: every ``PERIOD``
seconds a timer signal runs a fixed reference kernel (dict and tuple work,
like emalg's) and records how long it took.  The sampling time is taken out
of every measurement (``now``), and an elapsed time is converted to
reference seconds by multiplying it by ``KERNEL_REF_S`` over the median
kernel time around it: the time the work would take on a machine where the
kernel takes ``KERNEL_REF_S``.  A faster program still reads faster; a
slower machine phase no longer does.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

KERNEL_REF_S = 0.0015
PERIOD = 0.05
WINDOW = 5  # samples taken just before a span that also count for it


def kernel() -> int:
    d: dict = {}
    for i in range(6000):
        t = (i % 97, i % 89)
        d[t] = d.get(t, 0) + 1
    return len(d)


class SpeedClock:
    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # the program's garbage is the program's time
        try:
            kernel()
        finally:
            if enabled:
                gc.enable()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.stolen += dt

    def start(self) -> None:
        for _ in range(WINDOW):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """perf_counter with the sampling time taken out."""
        return time.perf_counter() - self.stolen

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Reference seconds per second for a span that began at ``mark()``
        ``since``: over the samples taken during it and the WINDOW before."""
        return KERNEL_REF_S / statistics.median(self.samples[max(0, since - WINDOW):])
