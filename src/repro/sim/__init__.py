"""Simulation core: the counters every component reports into.

The simulator has no global event loop: memory accesses use
per-resource busy timelines (:mod:`repro.mem.bank`), write buffers
drain by completion time, and the run loop fast-forwards on the CPUs'
resume times. :mod:`~repro.sim.stats` holds the statistics;
:class:`~repro.sim.engine.Engine` is a standalone event queue no run
schedules on, kept for the benchmark ledger's micro-drive.
"""

from repro.sim.engine import Engine, Event
from repro.sim.stats import (
    CacheStats,
    CycleBreakdown,
    MxsStats,
    SystemStats,
)

__all__ = [
    "Engine",
    "Event",
    "CacheStats",
    "CycleBreakdown",
    "MxsStats",
    "SystemStats",
]
