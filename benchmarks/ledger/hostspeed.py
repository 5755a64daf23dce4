"""A yardstick for the host's momentary speed.

The sandbox this ledger is measured on changes speed by tens of
percent in moods that last from seconds to minutes (a neighbour's
load, clock steps), so two runs of identical work differ by that much
before any change to the code under test. A tight pure-Python integer
loop — code that shares nothing with the simulator — follows those
moods: sampled between the jobs of a timed region, it halved the
spread of 8-second totals in a 4-minute trial (CV 5.4 % raw, 2.5 %
scaled by it).

Time metrics are therefore reported scaled to a host that runs the
yardstick at :data:`REFERENCE_MOPS`; the unscaled seconds are printed
beside them as ``*_raw_s``.
"""

from __future__ import annotations

import statistics
import threading
import time

#: yardstick speed the time metrics are scaled to (million loop
#: iterations per second; the sandbox wanders between about 8 and 11)
REFERENCE_MOPS = 10.0
SAMPLE_SECONDS = 0.04
_CHUNK = 2000


def yardstick(seconds: float = SAMPLE_SECONDS) -> float:
    """Million iterations per second of a fixed integer loop."""
    value = 1
    iterations = 0
    started = time.perf_counter()
    while True:
        for _ in range(_CHUNK):
            value = (value * 1103515245 + 12345) & 0x7FFFFFFF
        iterations += _CHUNK
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return iterations / elapsed / 1e6


def steady(samples: int = 3) -> float:
    """The median of a few back-to-back yardstick samples: one sample
    can land on a scheduling hiccup and read half the host's speed."""
    return statistics.median(yardstick() for _ in range(samples))


def factor(*samples: float) -> float:
    """Multiply measured seconds by this to get reference seconds,
    given the yardstick samples taken around them."""
    return sum(samples) / len(samples) / REFERENCE_MOPS


class HostSpeed:
    """Yardstick samples taken around and inside one timed region."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: seconds spent sampling (to be taken out of the region's wall)
        self.spent_s = 0.0
        self._lock = threading.Lock()

    def sample(self) -> None:
        """Take one sample (service clients call this from two threads)."""
        started = time.perf_counter()
        speed = yardstick()
        with self._lock:
            self.samples.append(speed)
            self.spent_s += time.perf_counter() - started

    def factor(self) -> float:
        """:func:`factor` over every sample taken so far."""
        return factor(*self.samples)
