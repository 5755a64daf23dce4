"""Observability configuration.

An :class:`ObsConfig` is the single opt-in switch for the whole
subsystem: constructing a :class:`~repro.core.system.System` with
``obs=ObsConfig(...)`` attaches an
:class:`~repro.obs.observe.Observation` to every instrumented
component; passing ``obs=None`` (the default) leaves every hot path
untouched and the run bit-identical to an uninstrumented build
(the differential suite in ``tests/test_obs.py`` enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Default sampling interval (cycles) when observability is enabled
#: without an explicit interval.
DEFAULT_SAMPLE_INTERVAL = 1000

#: Default cap on timeline events kept in memory.
DEFAULT_MAX_EVENTS = 250_000


@dataclass
class ObsConfig:
    """What to collect when observability is on.

    ``sample_interval`` is the utilization sampler's period in cycles
    (0 disables sampling entirely); ``events`` turns on the event
    timeline, and ``events_path`` is where :meth:`repro.core.runner.Job.run`
    writes the Chrome/Perfetto trace JSON after the run (``None`` keeps
    the timeline in memory only). ``max_events`` bounds the timeline's
    memory; events past the cap are counted as dropped, never silently
    lost.
    """

    sample_interval: int = DEFAULT_SAMPLE_INTERVAL
    events: bool = False
    events_path: str | None = None
    max_events: int = DEFAULT_MAX_EVENTS

    def __post_init__(self) -> None:
        if self.sample_interval < 0:
            raise ConfigError("sample_interval must be >= 0")
        if self.max_events <= 0:
            raise ConfigError("max_events must be positive")
        if self.events_path is not None:
            # A path implies the timeline even if the flag was left off.
            self.events = True
