"""Interval sampler over cumulative component counters.

The memory systems already keep cumulative busy/wait/request counters
on every shared resource (:class:`~repro.mem.bank.Resource` timelines,
crossbar wait cycles, bus transaction counts). The sampler turns those
into time series: every ``interval`` cycles it snapshots each probe and
stores either the *delta per cycle* (``rate`` probes — utilization
fractions fall out directly) or the instantaneous value (``gauge``
probes — write-buffer and MSHR fill).

The run loop only checks ``next_boundary`` (one integer compare per
iteration); the sampling work itself is proportional to the number of
boundaries crossed, so fast-forwarded idle spans cost one pass per
elapsed interval, not per cycle. :meth:`finalize` tops the series up to
the run's end so every series has exactly ``cycles // interval``
points — the invariant the schema tests assert.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError

_HUGE = 1 << 62


class UtilizationSampler:
    """Fixed-interval snapshots of rate and gauge probes."""

    def __init__(self, interval: int) -> None:
        if interval <= 0:
            raise ConfigError("sampler interval must be positive")
        self.interval = interval
        self.next_boundary = interval
        #: end-of-window cycle of every snapshot taken, in order
        self.boundaries: list[int] = []
        self.series: dict[str, list[float]] = {}
        self._rates: list[tuple[str, Callable[[], float]]] = []
        self._gauges: list[tuple[str, Callable[[], float]]] = []
        self._last: dict[str, float] = {}

    def add_rate(self, name: str, fn: Callable[[], float]) -> None:
        """Register a cumulative counter; samples store delta/interval."""
        self._rates.append((name, fn))
        self.series[name] = []
        self._last[name] = fn()

    def add_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register an instantaneous probe; samples store its value."""
        self._gauges.append((name, fn))
        self.series[name] = []

    def sample_until(self, cycle: int) -> int:
        """Take every snapshot due at or before ``cycle``.

        Returns the next boundary (for the run loop's compare). Each
        snapshot is attributed to its nominal window even when the loop
        lands past the boundary (fast-forward), so series stay aligned
        with simulated time.
        """
        while self.next_boundary <= cycle:
            self._snapshot(self.next_boundary)
            self.next_boundary += self.interval
        return self.next_boundary

    def finalize(self, end_cycle: int) -> None:
        """Emit any remaining snapshots so that every series ends with
        exactly ``end_cycle // interval`` points, then fences further
        sampling."""
        self.sample_until(end_cycle)
        self.next_boundary = _HUGE

    def _snapshot(self, boundary: int) -> None:
        interval = self.interval
        last = self._last
        series = self.series
        for name, fn in self._rates:
            value = fn()
            series[name].append((value - last[name]) / interval)
            last[name] = value
        for name, fn in self._gauges:
            series[name].append(fn())
        self.boundaries.append(boundary)

    @property
    def n_samples(self) -> int:
        """Number of snapshots taken so far."""
        return len(self.boundaries)

    def rollup(self) -> dict[str, dict[str, float]]:
        """Mean/max per series — the compact summary carried by
        :class:`~repro.core.experiment.ExperimentResult` extras."""
        out: dict[str, dict[str, float]] = {}
        for name in sorted(self.series):
            values = self.series[name]
            if values:
                out[name] = {
                    "mean": sum(values) / len(values),
                    "max": max(values),
                }
            else:
                out[name] = {"mean": 0.0, "max": 0.0}
        return out
