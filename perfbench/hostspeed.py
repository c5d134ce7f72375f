"""In-process sampling of the host's current speed.

On a shared virtual machine the speed of a vCPU drifts with what the host
runs next to it: on the 2-vCPU host this benchmark was tuned on, a fixed
pure-Python loop took anywhere from 0.22 s to 0.43 s within minutes, and a
pass's wall time moved by as much (30% spread between runs). A clock on
the other vCPU does not follow it, so the sample is taken here: every 100 ms
a timer signal runs a fixed reference loop (about 0.7 ms) on the same vCPU,
between two bytecodes of the code being measured. Times are then reported
both as measured and in reference seconds, the time the same work takes
where the reference loop takes ``REF_NOMINAL_S``. The loop does no
allocation or I/O, so changes to homlkit cannot change its speed.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_NOMINAL_S = 0.00075
INTERVAL_S = 0.1


def _reference() -> None:
    s = 0
    for i in range(10_000):
        s += i * i % 7


class HostSpeed:
    """Collects reference-loop times while running; subtracts their cost."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the samples themselves took

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Reference seconds per measured second over the samples so far."""
        if not self.samples:  # shorter than one interval: take one now
            self._sample(None, None)
        return REF_NOMINAL_S / statistics.median(self.samples)
